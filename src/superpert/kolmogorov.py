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
throughout for a real model, complex128 for a complex one.  Since eps is a
number, each stage stops its conjugation chains and its flow sum once the
Lie-series majorant of the rest is below rounding at eps (`chain_stops`,
`flow_at`), and records the majorant of what it dropped; H_0's chain is
bounded by the averaging residuals its generator solves for.  The slots
past the cut are exact zeros, and a stage works only on its live slots: it
averages, scans and folds the live slots of its window alone, and a stage
whose generator has no live slot is the identity, with no conjugation, no
flow and no basis product (`_advance`).  Results are bit-identical to
running every stage in full.

`init` rotates the series into the eigenbasis of H_0 once; H_0 then stays
diagonal up to degeneracy blocks, which alone are diagonalized after each
fold, so it is kept only as its levels (slot 0 of the series is zero).
Where every block is one level the averaged slots are diagonal too, and
their diagonals are added to the levels with no dense H_0 (`_fold`).  The
eigendecomposition, the rotated terms and stage 1's averaging do not depend
on eps or the order, so they are memoized on the model (`_start`): a later
`run` starts stage 1 at the conjugation.  Both rotations are symmetrized,
so every slot the engine builds is Hermitian and every generator
anti-Hermitian to the bit, as the conjugation kernel needs.  A level's
label is its index in this never re-sorted basis (inside a block, the index
it overlaps most); its eigenvector of H(eps) is that column of
V0 * prod_n U_n(eps) Q_n.
"""

from dataclasses import dataclass

import numpy as np

from .averaging import (
    SmallDenominatorError,
    average_diagonal,
    default_gap_guard,
    guarded_min_gap,
)
from .linalg import (
    SpectralData,
    default_deg_tol,
    degeneracy_blocks,
    eigh,
    finite_norm,
    finite_norms,
    fix_column_phases,
    hermitian_part,
    max_norm,
    one_level_blocks,
    read_only,
    require_finite,
    require_tolerance,
)
from .models import ModelSpec
from .series import (
    MAX_ORDER,
    OperatorSeries,
    WeightOverflowError,
    chain_stops,
    conjugate_slots,
    flow_at,
    identity_kept,
    weight,
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
    # spectral-norm majorant at eps of the dropped images, plus ||H_0||_2
    # times that of the dropped flow tail; 0.0 when nothing with weight went
    truncation_bound: float


@dataclass(frozen=True)
class KolmogorovState:
    stage: int
    eps: float
    # perturbation slots in the running basis; slot 0 is a read-only zero,
    # which a stage reuses for every zero slot it makes
    series: OperatorSeries
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
    counts = np.bincount(blocks)
    if counts.max() == 1:  # every block is one level: h0 is diagonal
        return lam, degeneracy_blocks(lam, deg_tol), None
    size_of = counts[blocks]  # the size of each level's block
    by_block = np.argsort(blocks, kind="stable")  # index order inside a block
    sizes = np.flatnonzero(np.bincount(size_of))  # the sizes present, ascending
    sizes = sizes[sizes > 1]
    q = np.eye(len(lam), dtype=h0.dtype)
    for size in sizes:
        idx = by_block[size_of[by_block] == size].reshape(-1, size)
        rows, cols = idx[:, :, None], idx[:, None, :]
        vals, vecs = np.linalg.eigh(h0[rows, cols])
        dominant = np.argmax(np.abs(vecs), axis=1)
        perm = np.argsort(dominant, axis=1, kind="stable")
        lam[idx] = np.take_along_axis(vals, perm, axis=1)
        q[rows, cols] = np.take_along_axis(vecs, perm[:, None, :], axis=2)
    return lam, degeneracy_blocks(lam, deg_tol), q


def _fold(state: KolmogorovState, n, lo, live, averaged):
    """(levels, blocks, q) of H_0 plus the averaged live window slots at
    their weights at eps, as `_diagonalize_blocks` gives them.  Where every
    block is one level, H_0 and the averaged slots are diagonal: their
    diagonals are added to the levels, with no dense H_0 and no q, and with
    no live slot the levels and blocks stay as they are."""
    single = one_level_blocks(state.blocks)
    if single and not live:
        return state.levels.copy(), state.blocks, None
    if single:
        h0 = state.levels.copy()
    else:
        h0 = np.diag(state.levels).astype(state.series.dtype, copy=False)
    try:
        for p in live:
            avg = averaged[p - lo]
            h0 += weight(state.eps, p) * (avg.diagonal().real if single else avg)
    except WeightOverflowError as exc:
        raise WeightOverflowError(f"stage {n}: {exc}") from exc
    if not np.isfinite(h0).all():
        raise ValueError(f"stage {n}: H_0 has a non-finite entry")
    if single:
        return h0, degeneracy_blocks(h0, state.deg_tol), None
    return _diagonalize_blocks(h0, state.blocks, state.deg_tol)


def _average(state: KolmogorovState, n, lo, hi):
    """Stage n's homological equation for the window lo..hi, with one set of
    denominators: (averaged slots, generator slots A_lo..A_hi, their
    (norm, bound) scans, smallest denominator gap).  Only the live slots of
    the window are stacked and averaged; a zero slot averages to the shared
    zero, with generator slot zero and scan (0.0, 0.0).  The gap guard is
    checked, and min_gap taken, whatever is live.  A non-finite generator
    slot raises naming it."""
    series = state.series
    width = hi - lo + 1
    live = [p for p in range(lo, hi + 1) if series.norms[p]]
    zero = series.coeffs[0]  # the state's shared zero
    averaged, a_window, a_scans = [zero] * width, [zero] * width, [(0.0, 0.0)] * width
    try:
        if live:
            avg, a, min_gap = average_diagonal(
                state.levels,
                state.blocks,
                np.stack([series.coeffs[p] for p in live]),
                series.hbar,
                state.gap_guard,
            )
        else:
            min_gap = guarded_min_gap(state.levels, state.blocks, state.gap_guard)
    except SmallDenominatorError as exc:
        raise SmallDenominatorError(
            f"stage {n}: {exc}", indices=exc.indices, gap=exc.gap
        ) from exc
    for i, p in enumerate(live):
        averaged[p - lo], a_window[p - lo] = avg[i], a[i]
        a_scans[p - lo] = finite_norms(a[i], f"stage {n}: generator slot A_{p}")
    return averaged, a_window, a_scans, min_gap


def _advance(state: KolmogorovState, n, lo, hi, averaging) -> KolmogorovState:
    """Stage n from its averaging (see `_average`): fold the averaged slots
    into H_0 and rediagonalize its blocks, conjugate, check the eliminated
    slots, apply the flow to the basis, and rotate the basis and the
    surviving slots by the blocks' unitary q.  The fold needs only the
    averaged slots, so q is known before the conjugation, and each surviving
    slot is scanned once, after q.

    Only live slots cost work: the fold adds the averaged slots of the live
    window slots (`_fold`), and the slot check skips a window slot that is
    zero on both sides.  A generator with no live slot is the identity: the
    stage takes K as the series' own slots, less the chains past the window
    that `chain_stops` would drop whole, with their stored scans where q
    does not rotate them, and makes no conjugation, no flow and no basis
    product.  The fold and the rotation by q run as for any stage; with
    one-level blocks and no live slot the fold keeps the levels."""
    averaged, a_window, a_scans, min_gap = averaging
    P = state.order
    series = state.series
    hbar = series.hbar
    zero = series.coeffs[0]  # the state's shared zero
    zero_scan = (0.0, 0.0)  # (norm, bound) of a zero slot
    a_slots = [zero] * (P + 1)
    a_slots[lo - 1 : hi] = a_window
    gen_scans = [zero_scan] * (lo - 1) + list(a_scans) + [zero_scan] * (P + 1 - hi)
    gen = OperatorSeries._computed(a_slots, hbar, gen_scans)
    live = [p for p in range(lo, hi + 1) if series.norms[p]]

    levels, blocks, q = _fold(state, n, lo, live, averaged)

    h0_norm = max_norm(state.levels)  # ||H_0||_2
    if gen.live:
        stops, dropped = chain_stops(gen, series, h0_norm, state.eps, hi)
        k = conjugate_slots(gen, series, state.levels, stops)
    else:
        kept, dropped = identity_kept(series, h0_norm, state.eps, hi)
        k = [None] * (P + 1)
        for p in kept:
            k[p] = series.coeffs[p]
    scale = max(h0_norm, *series.norms)

    def deviations():
        # slots below the window are predicted zero, the window its averages,
        # zero for a zero slot, which is skipped where K_p is zero too
        yield from ((p, c) for p, c in enumerate(k[:lo]) if c is not None)
        for p, avg in enumerate(averaged, start=lo):
            if p in live:
                yield p, avg if k[p] is None else k[p] - avg
            elif k[p] is not None:
                yield p, k[p]

    # each deviation is scanned as it is made, and an overflow shows as a
    # non-finite slot
    residual = max(
        (finite_norm(c, f"stage {n}: coefficient {p}") for p, c in deviations()),
        default=0.0,
    )
    if residual > 1e-8 * max(scale, 1e-300):
        raise ConsistencyError(
            f"stage {n}: eliminated slots deviate from their averaged values "
            f"by {residual:.3e} (scale {scale:.3e})"
        )

    basis, flow_dropped = state.basis, 0.0
    if gen.live:
        try:
            flow, flow_dropped = flow_at(gen, state.eps)
        except WeightOverflowError as exc:
            raise WeightOverflowError(f"stage {n}: {exc}") from exc
        basis = basis @ flow
        if not np.isfinite(basis).all():
            raise ValueError(f"stage {n}: the basis has a non-finite entry")
    rest = k[hi + 1 :]
    if q is not None:
        rest = [c if c is None else hermitian_part(q.conj().T @ c @ q) for c in rest]
        basis = basis @ q
    # a new slot is scanned; an identity stage's unrotated slots are the
    # series' own, whose scans it keeps
    fresh = gen.live or q is not None
    scans = [
        zero_scan if c is None else None if fresh else (series.norms[p], series.bounds[p])
        for p, c in enumerate(rest, start=hi + 1)
    ]
    try:
        survivors = OperatorSeries._computed(
            [zero] * (hi + 1) + [zero if c is None else c for c in rest],
            hbar,
            [zero_scan] * (hi + 1) + scans,
        )
    except ValueError as exc:
        raise ValueError(f"stage {n}: {exc}") from exc
    info = StageInfo(
        stage=n,
        slot_residual=residual,
        series_scale=scale,
        min_gap=min_gap,
        generator_norms=gen.norms,
        truncation_bound=dropped + h0_norm * flow_dropped,
    )
    return KolmogorovState(
        stage=n,
        eps=state.eps,
        series=survivors,
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
        averaged, a_window, a_scans, min_gap = _average(state, 1, 1, 1)
        start.stage1 = (
            tuple(map(read_only, averaged)),
            tuple(map(read_only, a_window)),
            a_scans,
            min_gap,
        )
    return _advance(state, 1, 1, 1, start.stage1)


# A basis whose entries are finite can still have columns whose squared
# norm overflows; that is checked here, with numpy's warnings off.
@np.errstate(over="ignore", invalid="ignore")
def _unit_columns(basis):
    """basis with each column divided by its 2-norm; a norm that is not
    finite raises ValueError naming the final basis and the column."""
    norms = np.linalg.norm(basis, axis=0, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"the final basis: column {bad[0]} has a non-finite norm")
    return basis / norms


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

    vecs = fix_column_phases(_unit_columns(state.basis))

    return SuResult(
        eps=float(eps),
        order=order,
        n_stages=n_stages,
        energies=tuple(energies),
        eigenvectors=vecs,
        history=state.history,
    )
