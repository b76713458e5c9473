"""Superconvergent elimination of perturbation orders, one doubling per stage.

Stage n takes a series whose orders 1..2^(n-1)-1 already vanish, averages
the slots p in [2^(n-1), 2^n-1] against the current integrable part H_0,
uses the averaging primitives as generator slots, and conjugates the
whole series.  The averaged terms are folded into H_0 with their numeric
eps^p/p! weights, the eliminated slots are asserted against their known
values and zeroed, and everything from order 2^n up is kept transformed.
The engine therefore works at a fixed evaluation point eps; its H_0 is an
expansion in functions of eps, not a plain power series.

The terms are the operator in energy units (hbar = 1), and a generator
slot is stored as the anti-Hermitian G_p = iW_p (see `series`),
B_jk/(E_j - E_k) off the blocks.  The engine runs in the dtype of the
model: real arithmetic throughout for a real model, complex128 for a
complex one.
Since eps is a number, each stage stops its conjugation chains and its
flow sum once the Lie-series majorant of the rest is below rounding at eps
(`chain_stops`, `flow_cut`), and records the majorant of what it dropped;
H_0's chain is bounded by the averaging residuals its generator solves
for.  The slots past the cut are exact zeros, and a stage works only on its
live slots: it averages, scans and folds the live slots of its window
alone, and a stage whose generator has no live slot forms no flow and no
basis product (`step`).  Results are bit-identical to running every stage
in full.

`init` rotates the series into the eigenbasis of H_0 once; H_0 then stays
diagonal up to degeneracy blocks, which alone are diagonalized after each
fold, so it is kept only as its levels (slot 0 of the series is zero).
A stage averages the live slots of its window one by one against one set
of denominators, and stacks no copy of the window (`_average`).  Each
average is kept as its degeneracy blocks, grouped by size (`block_groups`),
and the fold diagonalizes those blocks, with no dense H_0 (`_fold`).  The
eigendecomposition and the rotated terms do not depend on eps or the
order, so they are memoized on the model (`_start`).  Nor does stage 1's
averaging, which the memo keeps once a stage 1 has finished
(`_StageOne`): its averages, generator, smallest gap and block groups,
and the terms' scans, so a warm `init` scans nothing and a warm stage 1
averages nothing.  Stage 1's generator being fixed, eps only sets its cut:
which images each conjugated slot K_p sums.  The memo also keeps stage 1's
conjugated slots, each under its order and the chains that reach it
(`_slot_keys`), at most 2(P + 1) of them; a run whose cut finds all its
slots there forms none of them, and where q is None scans none.  `run` is
`init` and then `step` once per stage, stage 1 included: `step` is the one
stage body, and reads the memo from the stage-0 state.  A stage's
bookkeeping follows its live slots: with none in its window it forms no
denominators, folds nothing and finds no blocks.  Both rotations are
symmetrized, so every slot the engine builds is Hermitian and every
generator anti-Hermitian to the bit, as the conjugation kernel needs.
A level's label is its index in this never re-sorted basis (inside a
block, the index it overlaps most); its eigenvector of H(eps) is that
column of V0 * prod_n U_n(eps) Q_n.  Every state keeps V0 and each
stage's generator, flow cut and q, and builds that basis on its first read
(`_Pending`), so a caller that reads energies alone forms no flow and no
basis product, unless a bound on the basis comes near overflow.
"""

import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .averaging import average_diagonal, default_gap_guard
from .linalg import (
    SpectralData,
    block_groups,
    default_deg_tol,
    degeneracy_blocks,
    eigh,
    finite_norm,
    fix_column_phases,
    hermitian_part,
    max_norm,
    read_only,
    require_finite,
    require_integer,
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
    flow_cut,
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
    generator_norms: tuple  # max_norm of the generator slots (|G_p| = |W_p|)
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
    _basis: "_Pending" = field(repr=False, compare=False)  # see `basis`
    deg_tol: float  # resolved once from the H_0 levels when not given
    gap_guard: float  # resolved once from the H_0 levels when not given
    history: tuple
    # a stage-0 state from `init`: the model's memo entry, whose stage-1 work
    # (`_Start.slots`, `_Start.stage_one`) its `step` reuses; a state made
    # otherwise has none and does all of its stage's work
    _start: "_Start | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def basis(self) -> np.ndarray:
        """The running basis in original coordinates, V0 prod U_n(eps) Q_n,
        built on first read; a later read returns the same array."""
        return self._basis.build()

    @property
    def order(self) -> int:
        return self.series.order

    @property
    def dim(self) -> int:
        return self.series.dim


@dataclass(frozen=True)
class SuResult:
    """Per-stage eigenvalues (stage 0 = unperturbed) and reconstructed
    eigenvectors of the original Hamiltonian, labelled by unperturbed level.

    The eigenvectors are the final state's basis with unit columns and fixed
    phases, built on first read (`_Pending`), which drops the stages kept for
    them; a later read returns the same array."""

    eps: float
    order: int
    n_stages: int
    energies: tuple  # energies[n][j] for stage n, label j
    history: tuple
    _eigenvectors: "_Pending" = field(repr=False, compare=False)

    @property
    def eigenvectors(self) -> np.ndarray:
        """Column j approximates level j of H(eps)."""
        return self._eigenvectors.build()

    @property
    def min_gap(self) -> float:
        return min((info.min_gap for info in self.history), default=float("inf"))

    @property
    def max_slot_residual(self) -> float:
        return max((info.slot_residual for info in self.history), default=0.0)


@dataclass(frozen=True)
class _StageOne:
    """Stage 1's eps-free work on one `_Start`, read-only: the (norm, bound)
    of each rotated term as `init`'s series takes it, H_0's `block_groups`,
    the averages {p: Hbar_p} of the live window slots, the live generator
    slots {l: G_{l+1}} with their (norm, bound), and the smallest gap."""

    term_scans: dict
    groups: list
    averaged: dict
    generators: dict
    generator_scans: dict
    min_gap: float


@dataclass(frozen=True)
class _Start:
    """The eps-free start of every run on one model at one (deg_tol,
    gap_guard), all read-only: the H_0 spectral data and the resolved
    tolerances, the perturbation terms in the H_0 eigenbasis,
    {p: V^H H_p V} for p >= 1, stage 1's averaging (`_StageOne`) and its
    conjugated slots, {(p, chains): (K_p, scan)} (`_slot_keys`).  Stage 1
    averages H_1 against H_0, so its averages and its generator solve the
    same homological equation on every call, and neither they nor its
    images depend on eps or the order; a run's eps only sets which chains
    reach each slot, and a slot with the same chains is the same sum of the
    same images, in the same order.  scan is K_p's (norm, bound) where a
    survivors series took it unrotated, else None: stage 1's blocks are
    H_0's, so its q is None on every run or on none.  A stage 1 that
    finishes adds its averaging if none is there yet, and the slots of its
    cut if they fit in 2(P + 1) in all (`_keep_slots`), so the entry holds
    at most (m + 3 + 2(P + 1)) d^2 numbers for m terms and the largest P
    run: V, the terms, G_1, H_1's blocks and the slots."""

    spectral: SpectralData
    deg_tol: float
    gap_guard: float
    terms: dict
    slots: dict = field(default_factory=dict)
    stage_one: _StageOne | None = None  # set once, see `_keep_stage_one`


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
        v = spectral.eigenvectors
        start = _Start(
            spectral,
            default_deg_tol(spectral.eigenvalues) if deg_tol is None else deg_tol,
            default_gap_guard(spectral) if gap_guard is None else gap_guard,
            {
                p: read_only(hermitian_part(v.conj().T @ mat @ v))
                for p, mat in model.h_coeffs
                if p
            },
        )
        model._memo.clear()
        model._memo[key] = start
    return start


def unperturbed(model: ModelSpec, deg_tol=None, gap_guard=None) -> SpectralData:
    """The H_0 spectral data that `init` and `run` start from at these
    tolerances, shared with them through the model's memo."""
    return _start(model, deg_tol, gap_guard).spectral


def init(model: ModelSpec, eps: float, order: int, deg_tol=None, gap_guard=None):
    """Stage-0 state: the model's series in its H_0 eigenbasis, zero-padded,
    with the basis V0.  The eigenbasis, the rotated terms and stage 1's
    work are the model's memo (see `run`): once stage 1 has finished on it,
    the series takes the terms' scans from it and scans none; the state
    hands the memo to the `step` that takes it to stage 1."""
    order = require_integer(order, "order")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must be in 1..{MAX_ORDER}, got {order}")
    eps = require_finite(eps, "eps")
    start = _start(model, deg_tol, gap_guard)
    spectral, stage_one = start.spectral, start.stage_one
    known = None if stage_one is None else stage_one.term_scans
    state = KolmogorovState(
        stage=0,
        eps=eps,
        series=zero_padded(start.terms, model.dim, order, known),
        levels=spectral.eigenvalues,
        blocks=spectral.blocks,
        _basis=_Pending(eps, spectral.eigenvectors),
        deg_tol=start.deg_tol,
        gap_guard=start.gap_guard,
        history=(),
    )
    object.__setattr__(state, "_start", start)
    return state


def _fold(state: KolmogorovState, groups, averaged):
    """(levels, blocks, q) of H_0 plus the live window averages {p: Hbar_p},
    one stack of blocks per group of `groups`, at their weights at eps: the
    levels, their degeneracy blocks and the unitary of H_0's eigenvectors
    (None where every block is one level).  Each larger block size gets one
    stacked eigh; as in `eigh`, an eigenvector keeps its dominant index.
    With nothing averaged H_0 is unchanged: its levels and blocks are
    copied, and q is None."""
    if not averaged:
        return state.levels.copy(), state.blocks.copy(), None
    lam = state.levels.copy()
    q = None
    for g, idx in enumerate(groups):
        n, s = idx.shape
        if s == 1:
            for p, avg in averaged.items():
                lam[idx[:, 0]] += weight(state.eps, p) * avg[g][:, 0, 0].real
            continue
        h = np.zeros((n, s, s), state.series.dtype)
        h.reshape(n, -1)[:, :: s + 1] = lam[idx]  # each block's diagonal
        for p, avg in averaged.items():
            h += weight(state.eps, p) * avg[g]
        if not np.isfinite(h).all():
            raise ValueError("H_0 has a non-finite entry")
        vals, vecs = np.linalg.eigh(h)
        perm = np.argsort(np.argmax(np.abs(vecs), axis=1), axis=1, kind="stable")
        lam[idx] = np.take_along_axis(vals, perm, axis=1)
        q = np.eye(len(lam), dtype=h.dtype) if q is None else q
        q[idx[:, :, None], idx[:, None, :]] = np.take_along_axis(vecs, perm[:, None], 2)
    if not np.isfinite(lam).all():
        raise ValueError("H_0 has a non-finite entry")
    return lam, degeneracy_blocks(lam, state.deg_tol), q


def _average(state: KolmogorovState, groups, lo, hi):
    """The homological equation of the window lo..hi, with one set of
    denominators: ({p: Hbar_p} for the live window slots, the generator
    series with G_p in slot p - 1 and the state's shared zero elsewhere, the
    smallest denominator gap).  Only the live slots of the window are
    averaged, each in place, with no stacked copy; Hbar_p is its blocks, one
    stack per group of `groups`.  The gap guard is checked, and min_gap
    taken, whatever is live.  A non-finite generator slot raises naming it."""
    series = state.series
    live = [p for p in series.live if lo <= p <= hi]
    avg, g, min_gap = average_diagonal(
        state.levels, state.blocks, groups, [series.coeffs[p] for p in live], state.gap_guard
    )
    g = {p - 1: x for p, x in zip(live, g)}  # G_p is slot p - 1
    zero = series.coeffs[0]  # the state's shared zero
    gen = OperatorSeries._computed(series.order, zero, g, generator=True)
    return dict(zip(live, avg)), gen, min_gap


def _slot_keys(stops) -> dict:
    """{p: (p, chains)} for the slots p >= 1 that a conjugation at `stops`
    reaches: chains lists, ascending, the chains j (0 for H_0's levels) with
    j <= p < j + stops[j].  K_0 is left out of every conjugation."""
    starts = [(j, stop) for j, stop in enumerate(stops) if stop]
    keys = {}
    for p in range(1, len(stops)):
        chains = tuple(j for j, stop in starts if j <= p < j + stop)
        if chains:
            keys[p] = (p, chains)
    return keys


def _cached_slots(cache, keys, order):
    """(k, known) for a cut whose slots under `keys` the cache holds all of:
    the slots K_0..K_order as `conjugate_slots` gives them, and {p: (norm,
    bound)} of those kept with a scan; None for a miss."""
    if not all(key in cache for key in keys.values()):
        return None
    k, known = [None] * (order + 1), {}
    for p, key in keys.items():
        k[p], scan = cache[key]
        if scan is not None:
            known[p] = scan
    return k, known


# Taken while stage 1's work is added to a model's memo, so that the slots'
# budget is counted exactly, and one averaging kept, when several threads
# add at once.
_CACHING = threading.Lock()


def _keep_stage_one(start: _Start, series: OperatorSeries, groups, averaged, gen, min_gap):
    """Add stage 1's averaging to `start`, read-only, unless one is there:
    first come.  series is the stage-0 series, which gives the terms' scans,
    and gen the generator series."""
    for idx in groups:
        read_only(idx)
    for blocks in averaged.values():
        for b in blocks:
            read_only(b)
    stage_one = _StageOne(
        term_scans={p: (series.norms[p], series.bounds[p]) for p in start.terms},
        groups=groups,
        averaged=averaged,
        generators={l: read_only(gen.coeffs[l]) for l in gen.live},
        generator_scans={l: (gen.norms[l], gen.bounds[l]) for l in gen.live},
        min_gap=min_gap,
    )
    with _CACHING:
        if start.stage_one is None:
            object.__setattr__(start, "stage_one", stage_one)


def _keep_slots(cache, keys, k, survivors):
    """Add stage 1's slots k to `cache` under their keys, read-only, if every
    one not yet there fits in 2(P + 1) slots in all; survivors, the series of
    the slots past the window (p > 1) unrotated, or None where q rotated
    them, gives their scans.  First come: nothing is evicted."""
    with _CACHING:
        new = [p for p, key in keys.items() if key not in cache]
        if len(cache) + len(new) > 2 * len(k):
            return
        for p in new:
            scan = None
            if survivors is not None and p > 1:
                scan = survivors.norms[p], survivors.bounds[p]
            cache[keys[p]] = (k[p] if k[p] is None else read_only(k[p]), scan)


def _apply_stage(basis, gen, eps, stop, q):
    """basis times a stage's flow at eps, summed to `stop` as `flow_cut`
    gives it (None for a generator with no live slot, whose flow is I and is
    not formed), then times the blocks' unitary q (None for none).  A weight
    that overflows, or a non-finite entry of basis @ flow, raises a
    ValueError, which `step` names by its stage."""
    if stop is not None:
        basis = basis @ flow_at(gen, eps, stop)
        if not np.isfinite(basis).all():
            raise ValueError("the basis has a non-finite entry")
    if q is not None:
        basis = basis @ q
    return basis


# A stage stays pending while `_Pending.bound` stays below this, far from
# overflow, so that building it later cannot fail.
_PENDING_LIMIT = 2.0**500


class _Pending:
    """The basis V0 prod_n Phi_n(eps) Q_n, built on first read: an array and
    the steps still to apply to it, each a stage as `_apply_stage` applies
    it (with read-only references to what the stage made) or, last, the
    unit columns with fixed phases.  bound, the product of the flows'
    `flow_cut` norms, bounds ||basis||_2, each partial product and, divided
    by min(1, |weight(eps, stop - 1)|), each flow coefficient and product a
    stage forms.  Past _PENDING_LIMIT, or where that weight overflows, a
    stage and every later step is applied at once, with the errors it
    raises, and bound is inf."""

    def __init__(self, eps, basis, steps=(), bound=1.0):
        self.eps, self.bound = eps, bound
        self._parts = (basis, steps)  # read and replaced whole, see `build`

    def add(self, gen, cut, q):
        """This basis then a stage, for the cut `flow_cut` made of its flow
        (None for no live slot: the flow I, which adds no factor)."""
        bound, stop, limit = self.bound, None, math.inf
        if cut is not None:
            stop, _, norm = cut
            bound *= norm
            try:
                limit = _PENDING_LIMIT * min(1.0, abs(weight(self.eps, stop - 1)))
            except WeightOverflowError:
                limit = 0.0
        for p in gen.live:
            read_only(gen.coeffs[p])
        if q is not None:
            read_only(q)
        stage = functools.partial(_apply_stage, gen=gen, eps=self.eps, stop=stop, q=q)
        return self._then(stage, bound, not bound < limit)

    def normalized(self):
        """This basis with unit columns and fixed phases, applied at once
        where the stages were, so that an error it raises is the caller's."""
        now = self.bound == math.inf
        unit = self._then(_unit_columns, self.bound, now)
        return unit._then(fix_column_phases, self.bound, now)

    def _then(self, step, bound, now):
        """This basis then step, with the new bound: applied at once if now."""
        if now:
            return _Pending(self.eps, step(self.build()), bound=math.inf)
        basis, steps = self._parts
        return _Pending(self.eps, basis, steps + (step,), bound)

    @np.errstate(over="ignore", invalid="ignore")
    def build(self) -> np.ndarray:
        """The basis, kept in place of the steps, which are released; calls
        from two threads at once may each build it, and get equal arrays."""
        basis, steps = self._parts
        for step in steps:
            basis = step(basis)
        self._parts = (basis, ())
        return basis


@contextmanager
def _stage_errors(n):
    """Add "stage n: " to a ValueError raised inside, in place, so that it
    keeps its type and fields (`SmallDenominatorError.indices`, `.gap`)."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"stage {n}: {exc}",)
        raise


# Every array a stage returns is checked to be finite (generator and series
# slots, H_0, basis), so an overflow in it is a ValueError naming the stage,
# not a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def step(state: KolmogorovState) -> KolmogorovState:
    """Advance one stage; returns a new state, the input is untouched.

    Stage n averages the slots of its window lo..hi against H_0
    (`_average`), folds the averages into H_0 and rediagonalizes its blocks
    (`_fold`), conjugates, checks the eliminated slots, adds the flow and
    the blocks' unitary q to the basis (`_Pending`), and rotates the
    surviving slots by q.  The fold needs only the averages, so q is known
    before the conjugation, and each surviving slot is scanned once, after q.

    Only live slots cost work: the fold adds the averages of the live
    window slots, and the slot check skips a window slot that is zero on
    both sides.  A generator with no live slot conjugates as any other, each
    chain being its leaf alone (`chain_stops`, `_t_images`), but forms no
    flow and no basis product.  A stage-0 state from `init` carries the
    model's memo of stage 1's work: its averaging, once a stage 1 has
    finished on it (`_keep_stage_one`), and its conjugated slots, of which a
    cut whose slots are all there takes them, and where q is None their
    scans too; a stage that conjugated adds its slots once it has finished
    (`_keep_slots`).  The state returned carries no memo.  A ValueError
    raised by the stage names it ("stage n: ")."""
    n = state.stage + 1
    P = state.order
    if n > default_n_stages(P):
        raise ValueError(
            f"stage {n}: no orders are left to eliminate at truncation order {P}"
        )
    lo, hi = 2 ** (n - 1), min(2**n - 1, P)
    series, start = state.series, state._start
    stage_one = None if start is None else start.stage_one
    with _stage_errors(n):
        if stage_one is None:
            groups = block_groups(state.blocks)
            averaged, gen, min_gap = _average(state, groups, lo, hi)
        else:
            groups, averaged, min_gap = stage_one.groups, stage_one.averaged, stage_one.min_gap
            gen = OperatorSeries._computed(
                P,
                series.coeffs[0],
                stage_one.generators,
                generator=True,
                known=stage_one.generator_scans,
            )
        levels, blocks, q = _fold(state, groups, averaged)

        h0_norm = max_norm(state.levels)  # ||H_0||_2
        stops, dropped = chain_stops(gen, series, h0_norm, state.eps, hi)
        keys = hit = None
        if start is not None:
            keys = _slot_keys(stops)
            hit = _cached_slots(start.slots, keys, P)
        k, known = hit or (conjugate_slots(gen, series, state.levels, stops), {})
        scale = max(h0_norm, *series.norms)

        def deviation_norms():
            # K_p is predicted zero below the window and its average in it (it
            # is never None for a live slot: chain p starts at T_0 = H_p); an
            # overflow shows as a non-finite deviation, scanned as it is made
            for p in range(hi + 1):
                dev = k[p]
                if p in averaged:
                    dev = dev.copy()
                    for idx, avg in zip(groups, averaged[p]):
                        dev[idx[:, :, None], idx[:, None, :]] -= avg
                if dev is not None:
                    yield finite_norm(dev, f"coefficient {p}")

        residual = max(deviation_norms(), default=0.0)
        if residual > 1e-8 * max(scale, 1e-300):
            raise ConsistencyError(
                f"stage {n}: eliminated slots deviate from their averaged values "
                f"by {residual:.3e} (scale {scale:.3e})"
            )

        cut = flow_cut(gen, state.eps) if gen.live else None
        basis = state._basis.add(gen, cut, q)
        rest = {p: k[p] for p in range(hi + 1, P + 1) if k[p] is not None}
        if q is not None:
            qh = q.conj().T
            rest = {p: hermitian_part(qh @ c @ q) for p, c in rest.items()}
        survivors = OperatorSeries._computed(P, series.coeffs[0], rest, known=known)
    if start is not None:
        if stage_one is None:
            _keep_stage_one(start, series, groups, averaged, gen, min_gap)
        if not hit:
            _keep_slots(start.slots, keys, k, survivors if q is None else None)
    info = StageInfo(
        stage=n,
        slot_residual=residual,
        series_scale=scale,
        min_gap=min_gap,
        generator_norms=gen.norms,
        truncation_bound=dropped + h0_norm * (cut[1] if cut else 0.0),
    )
    return KolmogorovState(
        stage=n,
        eps=state.eps,
        series=survivors,
        levels=levels,
        blocks=blocks,
        _basis=basis,
        deg_tol=state.deg_tol,
        gap_guard=state.gap_guard,
        history=state.history + (info,),
    )


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
    order = require_integer(order, "order")
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    return order.bit_length()


def run(
    model: ModelSpec,
    eps: float,
    order: int,
    n_stages: int | None = None,
    deg_tol=None,
    gap_guard=None,
) -> SuResult:
    """Full iteration: per-stage eigenvalues and reconstructed eigenvectors.

    The eigenvectors are built on first read: until then the result holds
    each stage's live generator slots and block unitary, not its flow and
    basis.  Past a bound on them near overflow (`_Pending`), each stage is
    built at once and `run` normalizes the basis itself, so that each error
    it raises comes from this call, at its stage.

    `run` is `init` followed by `step` n_stages times.  The work that
    depends on neither eps nor the order (the H_0 eigendecomposition, the
    rotated terms and their scans, and stage 1's averaging) is done on the
    first call for a model and these tolerances, and kept on the model,
    with stage 1's conjugated slots for each cut a call makes, at most
    2(P + 1) of them; later calls give results bit-identical to a cold
    call, whichever calls filled the memo.

    Parameters
    ----------
    model : ModelSpec
    eps : evaluation point of the perturbation parameter
    order : truncation order P of the graded series, an integer >= 1
    n_stages : number of elimination stages, an integer in
        1..ceil(log2(P+1)); default the last, after which no order is left
        to eliminate
    deg_tol, gap_guard : degeneracy tolerances; None = 1e-9 times the
        largest |H_0 level| and 1e-6 times the range of the H_0 levels

    Returns
    -------
    SuResult; energies[n][j] is the stage-n eigenvalue attached to
    unperturbed label j, energies[0] the unperturbed spectrum.
    """
    state = init(model, eps, order, deg_tol=deg_tol, gap_guard=gap_guard)
    order = state.order
    last = default_n_stages(order)
    if n_stages is None:
        n_stages = last
    n_stages = require_integer(n_stages, "n_stages")
    if not 1 <= n_stages <= last:
        raise ValueError(
            f"n_stages must be in 1..{last} at truncation order {order}, got {n_stages}"
        )

    energies = [state.levels.copy()]  # not the memo's own array
    for _ in range(n_stages):
        state = step(state)
        energies.append(state.levels)

    return SuResult(
        eps=float(eps),
        order=order,
        n_stages=n_stages,
        energies=tuple(energies),
        history=state.history,
        _eigenvectors=state._basis.normalized(),
    )
