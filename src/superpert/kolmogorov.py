"""Superconvergent elimination of perturbation orders, one doubling per stage.

Stage n takes a series whose orders 1..2^(n-1)-1 already vanish, averages
the slots p in [2^(n-1), 2^n-1] against the current integrable part H_0,
uses the averaging primitives as generator slots, and conjugates the
whole series.  The averaged terms are folded into H_0 with their numeric
eps^p/p! weights, the eliminated slots are asserted against their known
values and zeroed, and everything from order 2^n up is kept transformed.
The engine therefore works at a fixed evaluation point eps; its H_0 is an
expansion in functions of eps, not a plain power series.

A generator slot is stored as the anti-Hermitian A_p = -iW_p (see
`series`), so the engine runs in the dtype of the model: real arithmetic
throughout for a real model, complex128 for a complex one.

`init` rotates the series into the eigenbasis of H_0 once; H_0 then stays
diagonal up to degeneracy blocks, which alone are diagonalized after each
fold, so it is kept only as its levels (slot 0 of the series is zero).  The
eigendecomposition, the rotated terms and stage 1's averaging do not depend
on eps or the order, so they are memoized on the model (`_start`): a later
`run` starts stage 1 at the conjugation.  Both rotations are symmetrized,
so every slot the engine builds is Hermitian and every generator
anti-Hermitian to the bit, as the conjugation kernel needs.  A level's
label is its index in this never re-sorted basis (inside a block, the index
it overlaps most); its eigenvector of H(eps) is that column of
V0 * prod_n U_n(eps) Q_n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .averaging import SmallDenominatorError, average_diagonal, default_gap_guard
from .linalg import (
    SpectralData,
    default_deg_tol,
    degeneracy_blocks,
    eigh,
    finite_norm,
    fix_column_phases,
    hermitian_part,
    max_norm,
    read_only,
    require_finite,
    require_tolerance,
)
from .models import ModelSpec
from .series import (
    MAX_ORDER,
    OperatorSeries,
    conjugate_by,
    flow_at,
    shared_zero,
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
    generator_norms: tuple  # max_norm of the generator slots (|A_p| = |W_p|)


@dataclass(frozen=True)
class KolmogorovState:
    stage: int
    eps: float
    series: OperatorSeries  # perturbation slots in the running basis; slot 0 is zero
    levels: np.ndarray  # H_0 = diag(levels); a level's label is its index
    blocks: np.ndarray  # blocks[j], the degeneracy block of level j
    basis: np.ndarray  # running basis in original coordinates: V0 prod U_n(eps) Q_n
    deg_tol: float  # resolved once from the H_0 levels when not given
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


class _Start:
    """The eps-free start of every run on one model at one (deg_tol,
    gap_guard), all read-only: the H_0 spectral data and the resolved
    tolerances; the perturbation terms in the H_0 eigenbasis, {p: V^H H_p V}
    for p >= 1, from the first `init`; and stage 1's averaging of slot 1
    (`_average`), from the first `run`."""

    def __init__(self, spectral: SpectralData, deg_tol: float, gap_guard: float):
        self.spectral = spectral
        self.deg_tol = deg_tol
        self.gap_guard = gap_guard
        self.terms = None
        self.stage1 = None


def _start(model: ModelSpec, deg_tol, gap_guard) -> _Start:
    """model's `_Start` for these tolerances, memoized on the model: one
    entry, replaced when the tolerances change.  A call that raises stores
    nothing, so it raises again on every call."""
    deg_tol = require_tolerance(deg_tol, "deg_tol")
    gap_guard = require_tolerance(gap_guard, "gap_guard")
    key = (deg_tol, gap_guard)
    start = model._memo.get(key)
    if start is None:
        spectral = eigh(model.coefficient(0), deg_tol=deg_tol)
        for a in (spectral.eigenvalues, spectral.eigenvectors, spectral.blocks):
            read_only(a)
        start = _Start(
            spectral,
            default_deg_tol(spectral.eigenvalues) if deg_tol is None else deg_tol,
            default_gap_guard(spectral) if gap_guard is None else gap_guard,
        )
        model._memo.clear()
        model._memo[key] = start
    return start


def unperturbed(model: ModelSpec, deg_tol=None, gap_guard=None) -> SpectralData:
    """The H_0 spectral data that `init` and `run` start from at these
    tolerances, shared with them through the model's memo."""
    return _start(model, deg_tol, gap_guard).spectral


def init(model: ModelSpec, eps: float, order: int, deg_tol=None, gap_guard=None):
    """Stage-0 state: the model's series in its H_0 eigenbasis, zero-padded.
    The eigenbasis and the rotated terms are the model's memo (see `run`)."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must be in 1..{MAX_ORDER}, got {order}")
    eps = require_finite(eps, "eps")
    start = _start(model, deg_tol, gap_guard)
    spectral = start.spectral
    if start.terms is None:
        v = spectral.eigenvectors
        start.terms = {
            p: read_only(hermitian_part(v.conj().T @ mat @ v))
            for p, mat in model.h_coeffs
            if p
        }
    return KolmogorovState(
        stage=0,
        eps=eps,
        series=zero_padded(start.terms, model.dim, order, model.hbar),
        levels=spectral.eigenvalues,
        blocks=spectral.blocks,
        basis=spectral.eigenvectors,
        deg_tol=start.deg_tol,
        gap_guard=start.gap_guard,
        history=(),
    )


def _diagonalize_blocks(h0, blocks, deg_tol):
    """(levels, blocks, q): the levels of h0, which is diagonal outside
    the block labels `blocks`, their degeneracy blocks, and the unitary of
    h0's eigenvectors (None if h0 is diagonal).  One stacked eigh per block
    size; as in `eigh`, each eigenvector keeps its dominant component's index."""
    lam = h0.diagonal().real.copy()
    size_of = np.bincount(blocks)[blocks]  # the size of each level's block
    by_block = np.argsort(blocks, kind="stable")  # index order inside a block
    sizes = np.flatnonzero(np.bincount(size_of))  # the sizes present, ascending
    sizes = sizes[sizes > 1]
    q = np.eye(len(lam), dtype=h0.dtype) if sizes.size else None
    for size in sizes:
        idx = by_block[size_of[by_block] == size].reshape(-1, size)
        rows, cols = idx[:, :, None], idx[:, None, :]
        vals, vecs = np.linalg.eigh(h0[rows, cols])
        dominant = np.argmax(np.abs(vecs), axis=1)
        perm = np.argsort(dominant, axis=1, kind="stable")
        lam[idx] = np.take_along_axis(vals, perm, axis=1)
        q[rows, cols] = np.take_along_axis(vecs, perm[:, None, :], axis=2)
    return lam, degeneracy_blocks(lam, deg_tol), q


def _average(state: KolmogorovState, n, lo, hi):
    """Stage n's homological equation for the window lo..hi, with one set of
    denominators: (averaged slots, generator slots A_lo..A_hi, their norms,
    smallest denominator gap).  A non-finite generator slot raises naming it."""
    series = state.series
    try:
        averaged, a_window, min_gap = average_diagonal(
            state.levels,
            state.blocks,
            np.stack(series.coeffs[lo : hi + 1]),
            series.hbar,
            state.gap_guard,
        )
    except SmallDenominatorError as exc:
        raise SmallDenominatorError(
            f"stage {n}: {exc}", indices=exc.indices, gap=exc.gap
        ) from exc
    a_norms = [
        finite_norm(a, f"stage {n}: generator slot A_{p}")
        for p, a in enumerate(a_window, start=lo)
    ]
    return averaged, a_window, a_norms, min_gap


def _advance(state: KolmogorovState, n, lo, hi, averaging) -> KolmogorovState:
    """Stage n from its averaging (see `_average`): conjugate, fold, check
    the eliminated slots and rediagonalize H_0's blocks."""
    averaged, a_window, a_norms, min_gap = averaging
    P = state.order
    series = state.series
    hbar = series.hbar
    zero = shared_zero(series.dim, series.dtype)
    a_slots = [zero] * (P + 1)
    a_slots[lo - 1 : hi] = a_window
    gen_norms = [0.0] * (lo - 1) + list(a_norms) + [0.0] * (P + 1 - hi)
    gen = OperatorSeries._computed(a_slots, hbar, gen_norms)
    try:
        k = conjugate_by(gen, series, state.levels)
    except ValueError as exc:  # an overflow shows as a non-finite slot
        raise ValueError(f"stage {n}: {exc}") from exc

    scale = max(max_norm(state.levels), *series.norms)
    h0 = np.diag(state.levels).astype(series.dtype, copy=False)  # K_0 = H_0
    for p, avg in enumerate(averaged, start=lo):
        h0 += (state.eps**p / math.factorial(p)) * avg
    if not np.isfinite(h0).all():
        raise ValueError(f"stage {n}: H_0 has a non-finite entry")
    # slots below the window are predicted zero, the window its averages
    residual = max(
        max(k.norms[:lo]),
        max(max_norm(k.coeffs[p] - avg) for p, avg in enumerate(averaged, start=lo)),
    )
    if residual > 1e-8 * max(scale, 1e-300):
        raise ConsistencyError(
            f"stage {n}: eliminated slots deviate from their averaged values "
            f"by {residual:.3e} (scale {scale:.3e})"
        )

    basis = state.basis @ flow_at(gen, state.eps)
    if not np.isfinite(basis).all():
        raise ValueError(f"stage {n}: the basis has a non-finite entry")
    levels, blocks, q = _diagonalize_blocks(h0, state.blocks, state.deg_tol)
    rest = k.coeffs[hi + 1 :]
    rest_norms = k.norms[hi + 1 :]
    if q is not None:
        rest = [hermitian_part(q.conj().T @ c @ q) for c in rest]
        rest_norms = [None] * len(rest)
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
        series=OperatorSeries._computed(
            [zero] * (hi + 1) + list(rest), hbar, [0.0] * (hi + 1) + list(rest_norms)
        ),
        levels=levels,
        blocks=blocks,
        basis=basis,
        deg_tol=state.deg_tol,
        gap_guard=state.gap_guard,
        history=state.history + (info,),
    )


# Every array a stage returns is checked to be finite (generator and series
# slots, H_0, basis), so an overflow in it is a ValueError naming the stage,
# not a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def step(state: KolmogorovState) -> KolmogorovState:
    """Advance one stage; returns a new state, the input is untouched."""
    n = state.stage + 1
    P = state.order
    if n > default_n_stages(P):
        raise ValueError(
            f"stage {n}: no orders are left to eliminate at truncation order {P}"
        )
    lo, hi = 2 ** (n - 1), min(2**n - 1, P)
    return _advance(state, n, lo, hi, _average(state, n, lo, hi))


@np.errstate(over="ignore", invalid="ignore")
def _first_step(state: KolmogorovState, start: _Start) -> KolmogorovState:
    """step(state) for a stage-0 state that `init` made from start, with
    stage 1's averaging, which does not depend on eps or the order, taken
    from start once it has been computed."""
    if start.stage1 is None:
        averaged, a_window, a_norms, min_gap = _average(state, 1, 1, 1)
        start.stage1 = (read_only(averaged), read_only(a_window), a_norms, min_gap)
    return _advance(state, 1, 1, 1, start.stage1)


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

    The work that depends on neither eps nor the order (the H_0
    eigendecomposition, the rotated terms and stage 1's averaging) is done
    on the first call for a model and these tolerances, and kept on the
    model; later calls give results bit-identical to a cold call.

    Parameters
    ----------
    model : ModelSpec
    eps : evaluation point of the perturbation parameter
    order : truncation order P of the graded series (>= 1)
    n_stages : number of elimination stages, 1..ceil(log2(P+1)); default
        the last, after which no order is left to eliminate
    deg_tol, gap_guard : degeneracy tolerances; None = 1e-9 times the
        largest |H_0 level| and 1e-6 times the range of the H_0 levels

    Returns
    -------
    SuResult; energies[n][j] is the stage-n eigenvalue attached to
    unperturbed label j, energies[0] the unperturbed spectrum.
    """
    state = init(model, eps, order, deg_tol=deg_tol, gap_guard=gap_guard)
    last = default_n_stages(order)
    if n_stages is None:
        n_stages = last
    if not 1 <= n_stages <= last:
        raise ValueError(
            f"n_stages must be in 1..{last} at truncation order {order}, got {n_stages}"
        )

    energies = [state.levels.copy()]  # not the memo's own array
    state = _first_step(state, _start(model, deg_tol, gap_guard))
    energies.append(state.levels)
    for _ in range(n_stages - 1):
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
