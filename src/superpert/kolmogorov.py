"""Superconvergent elimination of perturbation orders, one doubling per stage.

Stage n takes a series whose orders 1..2^(n-1)-1 already vanish, averages
the slots p in [2^(n-1), 2^n-1] against the current integrable part H_0,
uses the averaging primitives as generator slots W_p, and conjugates the
whole series.  The averaged terms are folded into H_0 with their numeric
eps^p/p! weights, the eliminated slots are asserted against their known
values and zeroed, and everything from order 2^n up is kept transformed.
The engine therefore works at a fixed evaluation point eps; its H_0 is an
expansion in functions of eps, not a plain power series.

`init` rotates the series into the eigenbasis of H_0 once; H_0 then stays
diagonal up to degeneracy blocks, which alone are diagonalized after each
fold.  A level's label is its index in this never re-sorted basis (inside a
block, the index it overlaps most); its eigenvector of H(eps) is that column
of V0 * prod_n U_n(eps) Q_n.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .averaging import SmallDenominatorError, average_diagonal, default_gap_guard
from .linalg import (
    degeneracy_blocks,
    eigh,
    fix_column_phases,
    max_norm,
    require_finite,
    require_tolerance,
)
from .models import ModelSpec
from .series import (
    OperatorSeries,
    conjugate_series,
    shared_zero,
    u_coefficients,
    weighted_sum,
    zero_padded,
)


class ConsistencyError(RuntimeError):
    """An eliminated slot did not match its predicted value."""


@dataclass(frozen=True)
class StageInfo:
    stage: int
    slot_residual: float  # max |K_p - predicted|_max over eliminated slots
    series_scale: float  # max coefficient norm of the series entering the stage
    min_gap: float  # smallest denominator gap in this stage's averaging basis
    generator_norms: tuple  # max_norm of the generator slots W_1..W_{P+1}


@dataclass(frozen=True)
class KolmogorovState:
    stage: int
    eps: float
    series: OperatorSeries  # in the running basis: coeffs[0] == diag(levels)
    levels: np.ndarray  # diagonal of coeffs[0]; a level's label is its index
    blocks: tuple  # degeneracy blocks of levels, see `degeneracy_blocks`
    basis: np.ndarray  # running basis in original coordinates: V0 prod U_n(eps) Q_n
    deg_tol: float | None
    gap_guard: float  # resolved once from the H_0 levels when not given
    history: tuple

    @property
    def order(self) -> int:
        return self.series.order

    @property
    def dim(self) -> int:
        return self.series.dim


@dataclass(frozen=True)
class SuResult:
    """Per-stage eigenvalues (stage 0 = unperturbed) and reconstructed
    eigenvectors of the original Hamiltonian, labelled by unperturbed level."""

    eps: float
    order: int
    n_stages: int
    energies: tuple  # energies[n][j] for stage n, label j
    eigenvectors: np.ndarray  # column j approximates level j of H(eps)
    history: tuple

    @property
    def min_gap(self) -> float:
        return min((info.min_gap for info in self.history), default=float("inf"))

    @property
    def max_slot_residual(self) -> float:
        return max((info.slot_residual for info in self.history), default=0.0)


def init(model: ModelSpec, eps: float, order: int, deg_tol=None, gap_guard=None):
    """Stage-0 state: the model's series in its H_0 eigenbasis, zero-padded."""
    if order < 1:
        raise ValueError(f"truncation order must be at least 1, got {order}")
    eps = require_finite(eps, "eps")
    deg_tol = require_tolerance(deg_tol, "deg_tol")
    gap_guard = require_tolerance(gap_guard, "gap_guard")
    spectral = eigh(model.coefficient(0), deg_tol=deg_tol)
    if gap_guard is None:
        gap_guard = default_gap_guard(spectral)
    v = spectral.eigenvectors
    terms = {p: v.conj().T @ mat @ v for p, mat in model.h_coeffs}
    terms[0] = np.diag(spectral.eigenvalues)
    return KolmogorovState(
        stage=0,
        eps=eps,
        series=zero_padded(terms, model.dim, order, model.hbar),
        levels=spectral.eigenvalues,
        blocks=spectral.blocks,
        basis=v,
        deg_tol=deg_tol,
        gap_guard=gap_guard,
        history=(),
    )


def _diagonalize_blocks(h0, blocks, deg_tol):
    """(levels, blocks, q): the levels of h0, which is diagonal outside
    `blocks`, their degeneracy blocks, and the unitary of h0's eigenvectors
    (None if h0 is diagonal).  One stacked eigh per block size; as in `eigh`,
    each eigenvector keeps its dominant component's index."""
    lam = h0.diagonal().real.copy()
    sizes = sorted({len(b) for b in blocks} - {1})
    q = np.eye(len(lam), dtype=np.complex128) if sizes else None
    for size in sizes:
        idx = np.array([sorted(b) for b in blocks if len(b) == size])
        rows, cols = idx[:, :, None], idx[:, None, :]
        vals, vecs = np.linalg.eigh(h0[rows, cols])
        dominant = np.argmax(np.abs(vecs), axis=1)
        perm = np.argsort(dominant, axis=1, kind="stable")
        lam[idx] = np.take_along_axis(vals, perm, axis=1)
        q[rows, cols] = np.take_along_axis(vecs, perm[:, None, :], axis=2)
    return lam, degeneracy_blocks(lam, deg_tol), q


def step(state: KolmogorovState) -> KolmogorovState:
    """Advance one stage; returns a new state, the input is untouched."""
    n = state.stage + 1
    P = state.order
    lo = 2 ** (n - 1)
    hi = min(2**n - 1, P)
    series = state.series
    hbar = series.hbar
    dim = series.dim

    # one homological equation for the window lo..hi, one set of denominators
    zero = shared_zero(dim)
    w_slots = [zero] * (P + 1)
    averaged = ()
    min_gap = float("inf")
    if lo <= hi:
        try:
            averaged, w_window, min_gap = average_diagonal(
                state.levels,
                state.blocks,
                np.stack(series.coeffs[lo : hi + 1]),
                hbar,
                state.gap_guard,
            )
        except SmallDenominatorError as exc:
            raise SmallDenominatorError(
                f"stage {n}: {exc}", indices=exc.indices, gap=exc.gap
            ) from exc
        w_slots[lo - 1 : hi] = w_window

    try:
        gen = OperatorSeries._computed(w_slots, hbar)
        k = conjugate_series(gen, series)
    except ValueError as exc:  # an overflow shows as a non-finite slot
        raise ValueError(f"stage {n}: {exc}") from exc

    scale = max(series.norms)
    new_coeffs = [k.coeffs[0].copy()]
    for p, avg in zip(range(lo, hi + 1), averaged):
        new_coeffs[0] += (state.eps**p / math.factorial(p)) * avg
    if not np.isfinite(new_coeffs[0]).all():
        raise ValueError(f"stage {n}: H_0 has a non-finite entry")
    # slots below the window are predicted zero, the window its averages
    residual = max(k.norms[1 : min(lo, hi + 1)], default=0.0)
    if lo <= hi:
        window = np.stack(k.coeffs[lo : hi + 1])
        residual = max(residual, max_norm(window - averaged))
    new_coeffs += [zero] * hi + list(k.coeffs[hi + 1 :])
    if residual > 1e-8 * max(scale, 1e-300):
        raise ConsistencyError(
            f"stage {n}: eliminated slots deviate from their averaged values "
            f"by {residual:.3e} (scale {scale:.3e})"
        )

    basis = state.basis @ weighted_sum(u_coefficients(gen), state.eps)
    levels, blocks = state.levels, state.blocks
    if lo <= hi:
        levels, blocks, q = _diagonalize_blocks(new_coeffs[0], blocks, state.deg_tol)
        new_coeffs[0] = np.diag(levels).astype(np.complex128)
        if q is not None:
            new_coeffs[hi + 1 :] = [q.conj().T @ c @ q for c in new_coeffs[hi + 1 :]]
            basis = basis @ q
    info = StageInfo(
        stage=n,
        slot_residual=residual,
        series_scale=scale,
        min_gap=min_gap,
        generator_norms=gen.norms,
    )
    return KolmogorovState(
        stage=n,
        eps=state.eps,
        series=OperatorSeries._computed(new_coeffs, hbar),
        levels=levels,
        blocks=blocks,
        basis=basis,
        deg_tol=state.deg_tol,
        gap_guard=state.gap_guard,
        history=state.history + (info,),
    )


def default_n_stages(order: int) -> int:
    # ceil(log2(order + 1)): exactly covers every representable slot
    return int(order).bit_length()


def run(
    model: ModelSpec,
    eps: float,
    order: int,
    n_stages: int | None = None,
    deg_tol=None,
    gap_guard=None,
) -> SuResult:
    """Full iteration: per-stage eigenvalues and reconstructed eigenvectors.

    Parameters
    ----------
    model : ModelSpec
    eps : evaluation point of the perturbation parameter
    order : truncation order P of the graded series (>= 1)
    n_stages : number of elimination stages; default ceil(log2(P+1))
    deg_tol, gap_guard : degeneracy tolerances; None = 1e-9 and 1e-6 times
        the range of the H_0 levels

    Returns
    -------
    SuResult; energies[n][j] is the stage-n eigenvalue attached to
    unperturbed label j, energies[0] the unperturbed spectrum.
    """
    if n_stages is None:
        n_stages = default_n_stages(order)
    if n_stages < 1:
        raise ValueError(f"n_stages must be at least 1, got {n_stages}")
    if 2 ** (n_stages - 1) > order:
        warnings.warn(
            f"stages beyond {default_n_stages(order)} are no-ops at truncation "
            f"order {order}",
            stacklevel=2,
        )

    state = init(model, eps, order, deg_tol=deg_tol, gap_guard=gap_guard)
    energies = [state.levels]
    for _ in range(n_stages):
        state = step(state)
        energies.append(state.levels)

    vecs = state.basis / np.linalg.norm(state.basis, axis=0, keepdims=True)
    vecs = fix_column_phases(vecs)

    return SuResult(
        eps=float(eps),
        order=order,
        n_stages=n_stages,
        energies=tuple(energies),
        eigenvectors=vecs,
        history=state.history,
    )
