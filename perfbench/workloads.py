"""Workload definitions: seeded inputs, expected work and correctness checks.

Only numpy is imported here; the package under test is passed in as `sp`
by the caller, so a set-up process times `import superpert` itself.

Random Hermitian terms use the normalised Gaussian ensemble: at scale s the
spectrum fills a semicircle of radius about 2 s, whatever the dimension.
"""

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    eps: tuple
    order: int
    stages: int
    levels: tuple = ()  # CLI --levels (compare_quartic only)
    tol: float = 1e-9
    sorted_check: bool = False  # compare sorted energies, not labelled ones

    @property
    def is_cli(self) -> bool:
        return self.name == "compare_quartic"

    def cli_args(self):
        return [
            "--method", "compare",
            "--builtin", "quartic_oscillator",
            "--dim", str(self.dim),
            "--eps", ",".join(format(e, "g") for e in self.eps),
            "--order", str(self.order),
            "--stages", str(self.stages),
            "--levels", ",".join(str(j) for j in self.levels),
            # The default range-relative guard rejects eps 0.2 on this
            # model (see NOTES.md); 1e-6 absolute is the documented setting.
            "--gap-guard", "1e-6",
            "--format", "json",
        ]

    def expected_rows(self) -> int:
        # exact + rs orders 1..4 + one su row per stage, per (eps, level)
        return len(self.eps) * len(self.levels) * (1 + 4 + self.stages)

    def expected_dense_eigh(self) -> int:
        per_run = 1 + self.stages  # init + one per stage
        if self.is_cli:
            # exact: H(eps) and H_0 per eps; rs: H_0 once
            return len(self.eps) * (per_run + 2) + 1
        return len(self.eps) * per_run


FULL = {
    "compare_quartic": Workload(
        name="compare_quartic",
        dim=150,
        eps=(0.02, 0.05, 0.1, 0.15, 0.2),
        order=4,
        stages=3,
        levels=(0, 1),
    ),
    "deep_dense": Workload(
        name="deep_dense",
        dim=64,
        eps=(0.02, 0.05),
        order=16,
        stages=5,
    ),
    "sweep_degenerate": Workload(
        name="sweep_degenerate",
        dim=40,
        eps=tuple(float(e) for e in np.linspace(0.01, 0.1, 8)),
        order=8,
        stages=4,
        tol=1e-7,
        sorted_check=True,
    ),
}

# Tiny sizes with the same structure, for the harness's own smoke check.
SMOKE = {
    "compare_quartic": Workload(
        name="compare_quartic", dim=12, eps=(0.05, 0.1), order=4,
        stages=3, levels=(0, 1),
    ),
    "deep_dense": Workload(
        name="deep_dense", dim=8, eps=(0.02, 0.05), order=6, stages=3,
    ),
    "sweep_degenerate": Workload(
        name="sweep_degenerate", dim=8, eps=(0.01, 0.05, 0.1), order=4,
        stages=3, tol=1e-7, sorted_check=True,
    ),
}


def keep_going(start: float, durations: list, seconds: float) -> bool:
    """Start another window only while a typical one still ends within
    `seconds` of `start`; the first window always runs.  This bounds a run's
    length whatever the speed of the host."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


# Time calibrate() is taken to need on the reference host.
CAL_REF_S = 0.2
CAL_SCALAR_STEPS = 200_000
CAL_MATMULS = 2_000


def calibrate() -> float:
    """Seconds a fixed reference computation takes now.

    The mix is interpreter-bound scalar numpy work, like a Jacobi sweep, and
    small complex matrix products, like series conjugation.  It does not
    touch the package, so its time tracks only the host's CPU speed, which
    drifts by tens of percent over minutes on shared machines.
    """
    a = np.linspace(0.5, 1.5, 64)
    q = np.linalg.qr(np.cos(np.arange(48 * 48.0)).reshape(48, 48))[0]
    x = np.eye(48, dtype=np.complex128)
    q = q.astype(np.complex128)  # orthogonal, so x stays bounded
    start = time.perf_counter()
    acc = 0.0
    for k in range(CAL_SCALAR_STEPS):
        r = abs(a[k & 63]) + 1.0
        acc += float(np.sqrt(1.0 + r * r)) / r
    for _ in range(CAL_MATMULS):
        x = q @ x
    return time.perf_counter() - start


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng, n, scale):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / (2.0 * math.sqrt(n))


def model_terms(w: Workload, seed: int):
    """(order, matrix) pairs of a library workload's model, from the seed."""
    rng = np.random.default_rng(seed)
    n = w.dim
    q = random_unitary(rng, n)
    if w.name == "deep_dense":
        levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, n))
        h0 = (q * levels) @ q.conj().T
        return [
            (0, h0),
            (1, random_hermitian(rng, n, 0.5)),
            (2, random_hermitian(rng, n, 0.5)),
        ]
    if w.name == "sweep_degenerate":
        # every level doubly degenerate before rotation
        levels = np.repeat(np.cumsum(1.0 + rng.uniform(0.0, 1.0, n // 2)), 2)
        h0 = (q * levels) @ q.conj().T
        return [(0, h0), (1, random_hermitian(rng, n, 0.3))]
    raise ValueError(f"no generated model for workload {w.name!r}")


def build_model(sp, w: Workload, seed: int):
    """The model a run starts from: built by the package under test.
    Its `h_coeffs` are the terms the reference eigenvalues are taken of."""
    if w.is_cli:
        return sp.build_quartic_oscillator(w.dim)
    return sp.make_model(w.dim, model_terms(w, seed))


def evaluate(terms, eps: float) -> np.ndarray:
    return sum((eps**p / math.factorial(p)) * np.asarray(m) for p, m in terms)


def reference_levels(terms, eps_list):
    """Independent eigenvalues of H(eps) by numpy, ascending, per eps."""
    return [np.linalg.eigvalsh(evaluate(terms, eps)) for eps in eps_list]


# Library workloads check this many of the lowest levels.
CHECK_LEVELS = 4


def run_error(w: Workload, energies, reference) -> float:
    """Largest deviation of the checked levels from the reference."""
    k = CHECK_LEVELS
    got = np.asarray(energies, dtype=float)
    got = np.sort(got)[:k] if w.sorted_check else got[:k]
    return float(np.max(np.abs(got - reference[:k])))


def check_report(w: Workload, report: dict, reference) -> list:
    """Problems found in one compare_quartic JSON report (empty if none)."""
    problems = []
    rows = report.get("rows", [])
    if len(rows) != w.expected_rows():
        problems.append(f"{len(rows)} rows, expected {w.expected_rows()}")
    by_eps = dict(zip(w.eps, reference))
    for r in rows:
        if r["method"] != "exact":
            continue
        ref = by_eps.get(r["eps"])
        if ref is None:
            problems.append(f"exact row at unexpected eps {r['eps']}")
            continue
        err = abs(r["energy"] - ref[r["level"]])
        if not err <= w.tol:
            problems.append(f"exact eps={r['eps']} level={r['level']} off by {err:.3e}")
    comparisons = report.get("comparisons", [])
    if len(comparisons) != len(w.eps) * len(w.levels):
        problems.append(f"{len(comparisons)} comparisons")
    losers = [c for c in comparisons if c.get("winner") != "su"]
    if losers:
        problems.append(f"{len(losers)} comparisons not won by su")
    return problems
