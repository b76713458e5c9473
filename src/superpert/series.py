"""Graded operator series and the conjugation recursions.

A series sum_p eps^p/p! X_p is stored as the coefficient list [X_0..X_P];
the factorial weights are part of the grading, not of the stored matrices.
A series the engine computes is built from its live slots {p: X_p} alone
(`OperatorSeries._computed`); one read-only zero fills the rest.  A
transform is given by its generator series, whose slot l holds the
generator of order l + 1.  The public functions (`conjugate_series`,
`u_coefficients`) take the Hermitian W_{l+1}: the transform is generated by
-W(eps) and acts on operators through the expansion maps

    T_0 = id,   T_{p+1} = sum_{l=0}^{p} C(p, l) ad W_{l+1} o T_{p-l}

where ad W = (i/hbar)[W, .].  Conjugating a Hamiltonian series is the
Cauchy product K_p = sum_j C(p, j) T_{p-j}(H_j).

Internally a generator is stored as the anti-Hermitian A = -iW, which is
real antisymmetric when the model is real, so one kernel runs in the dtype
of its operands: float64 for a real model, complex128 otherwise.  The
public functions convert W exactly at entry (`_anti_hermitian`); the stage
engine builds the A slots itself and calls `conjugate_slots` and
`flow_coefficients` directly.  With ad W = -(1/hbar)[A, .], and
[A, T] = Y + Y^H with Y = A T for anti-Hermitian A and Hermitian T, the
kernel `_next_image` accumulates Y = sum_l C(p, l) A_{l+1} T_{p-l}(x), one
matrix product per live term, and takes T_{p+1}(x) = -(1/hbar)(Y + Y^H)
once.  That halves the matrix products of the two-product commutator, and
the image is Hermitian to the bit.  The kernel needs Hermitian operands and
anti-Hermitian generators to the bit, so every matrix that is Hermitian
only up to rounding is symmetrized where it enters a series: the public
`OperatorSeries` constructor symmetrizes its coefficients, and the stage
engine its basis rotations.

Both recursions are streamed.  T_{p+1}(x) reads T_{p-l}(x) only for live
generator slots l, so `_t_images` keeps the last max(live) + 1 images, not
the whole chain; `conjugate_slots` adds each chain T_0..T_{P-j}(H_j) into the
K slots as it is produced, for j ascending, so each K_p sums its terms in
the Cauchy product's order.  The stage engine gives H_0 as its levels, a
1-D T_0, whose images take A * levels for A diag(levels), bit for bit, at
half the work.  The flow coefficients follow the same rule,
and `flow_at` sums them at eps as they come.  A transform of an order-P
series therefore holds O(P) matrices at once, the P + 1 slots of K and one
window of images, not the P^2/2 images of the whole Cauchy product, and
keeps nothing across calls; the stage engine caches its first stage's
slots itself (see `kolmogorov`).

At its numeric eps the engine also stops each chain, and the flow, early:
`lie_majorant` bounds every term not yet computed (Deprit 1969, Celest.
Mech. 1:12) from the induced 1-norm each series keeps of its slots, which
bounds the spectral norm of a Hermitian or anti-Hermitian matrix, and
`chain_stops` and `flow_cut` drop the tails that weigh less than unit
roundoff at eps.  H_0's chain is bounded more tightly (`h0_majorant`): the
engine's generator solves the homological equation, so each term
ad A_m (H_0) of that chain is the averaging residual -(H_m - Hbar_m), whose
1-norm is at most the bound the series keeps of H_m, not 2 ||A_m|| ||H_0||.
The public functions are formal series in eps and keep every term.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    finite_norm,
    finite_norms,
    hermitian_part,
    read_only,
    require_finite,
    require_hermitian,
    require_positive,
)

# Cap on the order of a series.  _BINOM holds float64 binomials, exact
# through order 56; C(57, 25) is the first that rounds.
MAX_ORDER = 62

_BINOM = [[float(math.comb(p, l)) for l in range(p + 1)] for p in range(MAX_ORDER + 1)]

# Unit roundoff of float64, the engine's budget for a dropped tail.
UNIT_ROUNDOFF = 2.0**-53


def binomial(p: int, l: int) -> float:
    return _BINOM[p][l]


def _common_dtype(mats):
    """complex128 if any of the matrices is complex, else float64."""
    return np.complex128 if any(np.iscomplexobj(c) for c in mats) else np.float64


def shared_zero(dim: int, dtype) -> np.ndarray:
    """Read-only zero matrix of the given dtype, safe to put in several
    slots at once."""
    return read_only(np.zeros((dim, dim), dtype=dtype))


@dataclass(frozen=True)
class OperatorSeries:
    """Finite graded family: coeffs[p] multiplies eps^p/p!.

    The constructor validates caller-supplied coefficients (`require_hermitian`)
    and hbar, and stores each coefficient's Hermitian part, so that every slot
    is Hermitian to the bit, all in one dtype: float64 when every coefficient
    is real, complex128 otherwise.  The engine builds every series it computes
    through `_computed`, which skips those steps: it is given the order, hbar,
    one read-only zero and the live slots {p: X_p} alone, puts the zero in
    every other slot, and scans each live slot once and no zero.  norms[p] is
    max_norm(coeffs[p]); entries are finite, so a slot is an exact zero
    matrix exactly when its norm is 0, and `live` lists the other orders,
    ascending, once.  bounds[p] is the induced 1-norm of coeffs[p]
    (`finite_norms`), taken in the same pass: a bound on its spectral norm,
    since every slot is Hermitian or, for a generator, anti-Hermitian, which
    `lie_majorant` and `chain_stops` read.
    """

    coeffs: tuple
    hbar: float = 1.0
    norms: tuple = field(init=False, compare=False, repr=False)
    bounds: tuple = field(init=False, compare=False, repr=False)
    live: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("series needs at least the order-0 coefficient")
        hbar = require_positive(self.hbar, "hbar")
        mats = tuple(
            hermitian_part(require_hermitian(c, what=f"coefficient {p}"))
            for p, c in enumerate(self.coeffs)
        )
        for p, c in enumerate(mats):
            if c.shape != mats[0].shape:
                raise ValueError(
                    f"coefficient {p} has dimension {c.shape[0]}, "
                    f"expected {mats[0].shape[0]}"
                )
        dtype = _common_dtype(mats)
        mats = tuple(c.astype(dtype, copy=False) for c in mats)
        self._set(mats, hbar, range(len(mats)))

    def _set(self, mats, hbar, scanned, generator=False, known=None):
        """Store the fields, scanning the slots `scanned`, ascending, but for
        those whose (norm, bound) `known` holds; every other slot is zero.  A
        non-finite slot raises ValueError naming it, `coefficient p` or
        `generator slot A_{p+1}`, which is how an overflow inside the engine
        surfaces."""
        if len(mats) - 1 > MAX_ORDER:
            raise ValueError(
                f"series order {len(mats) - 1} exceeds the cap {MAX_ORDER}"
            )
        scans = [(0.0, 0.0)] * len(mats)  # (norm, bound) of a zero slot
        for p in scanned:
            if known and p in known:
                scans[p] = known[p]
                continue
            what = f"generator slot A_{p + 1}" if generator else f"coefficient {p}"
            scans[p] = finite_norms(mats[p], what)
        object.__setattr__(self, "coeffs", mats)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "norms", tuple(norm for norm, _ in scans))
        object.__setattr__(self, "bounds", tuple(bound for _, bound in scans))
        object.__setattr__(self, "live", [p for p in scanned if scans[p][0] != 0.0])

    @classmethod
    def _computed(cls, order, hbar, zero, live, generator=False, known=None):
        """Series of the given order with `live` {p: X_p} in its slots and the
        read-only `zero` in every other, all of zero's shape and dtype and
        computed from validated operands with a validated hbar: Hermitian, or
        for a generator series anti-Hermitian, to the bit.  Only the order
        cap, the norms and the non-finite check are done, on `live` alone,
        and not on a slot whose (norm, bound) `known` already holds."""
        mats = tuple(live.get(p, zero) for p in range(order + 1))
        series = object.__new__(cls)
        series._set(mats, hbar, sorted(live), generator, known)
        return series

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.coeffs[0].dtype


def _anti_hermitian(gen: OperatorSeries) -> OperatorSeries:
    """The generator series A = -iW of gen's Hermitian slots W, exact; real
    when every slot's imaginary part is exactly 0, complex128 otherwise."""
    a = {l: -1j * gen.coeffs[l] for l in gen.live}
    if not any(c.imag.any() for c in a.values()):
        a = {l: np.ascontiguousarray(c.real) for l, c in a.items()}
    zero = shared_zero(gen.dim, _common_dtype(a.values()))
    return OperatorSeries._computed(gen.order, gen.hbar, zero, a, generator=True)


def _add(acc, term):
    """acc + term, where acc None is an empty sum; may reuse acc's memory."""
    if acc is None:
        return term
    acc += term
    return acc


def _scaled(c, prod):
    """c * prod for a fresh product, in place; C(p, 0) = C(p, p) = 1 is skipped."""
    if c != 1.0:
        prod *= c
    return prod


def _window(live):
    """An empty window for a recursion whose term X_{p+1} reads X_{p-l} for
    the live generator slots l: the last max(live) + 1 terms, of which the
    oldest is the farthest back a later term reads."""
    return deque(maxlen=max(live, default=0) + 1)


def _next_image(a, live, window, p, hbar):
    """T_{p+1}(x) from the window [..., T_{p-1}(x), T_p(x)] of `_t_images`,
    None if no term lands.

    Y = sum_l C(p, l) A_{l+1} T_{p-l}(x) over live generator slots and
    images, one matrix product each; then -(1/hbar)[A, T] = -(1/hbar)(Y + Y^H)
    for the whole sum, which is exact only for A anti-Hermitian and T
    Hermitian to the bit.  Each sum starts from its first term, so the
    nonzero terms add up in the same order as in the full recursion and
    skipped orders are structural zeros.  Every product is fresh, so it is
    scaled and summed in place; no array of the window is written."""
    y = None
    for l in live:
        if l > p:
            break
        src = window[-1 - l]
        if src is not None:  # a 1-D T_0 is diagonal: A diag(x) is A * x
            prod = a[l] * src if src.ndim == 1 else a[l] @ src
            y = _add(y, _scaled(binomial(p, l), prod))
    if y is None:
        return None
    y += y.conj().T
    y *= -1.0 / hbar
    return y


def _t_images(agen: OperatorSeries, x: np.ndarray, up_to: int):
    """Yield T_0(x), ..., T_up_to(x) for the anti-Hermitian generator series
    agen, None for an image no term lands in; only the images a later one
    still reads are kept.  With no live generator slot every later image is
    zero, and T_0 alone is yielded."""
    a, live, hbar = agen.coeffs, agen.live, agen.hbar
    window = _window(live)
    window.append(x)
    yield x
    for p in range(up_to if live else 0):
        t = _next_image(a, live, window, p, hbar)
        window.append(t)
        yield t


def _check_match(gen: OperatorSeries, h: OperatorSeries):
    if (gen.order, gen.dim, gen.hbar) != (h.order, h.dim, h.hbar):
        raise ValueError(
            f"generator (order {gen.order}, dim {gen.dim}, hbar {gen.hbar}) "
            f"does not match series (order {h.order}, dim {h.dim}, hbar {h.hbar})"
        )


def conjugate_slots(agen: OperatorSeries, h: OperatorSeries, levels=None, stops=None):
    """The slots K_0..K_P of h transformed by the anti-Hermitian generator
    series agen, the Cauchy product K_p = sum_j C(p,j) T_{p-j}(H_j), as a
    list with None for a slot no term lands in; the stage engine's route,
    which scans each slot where it next uses it.  The chain of each live H_j
    is added into the K slots as it is produced, for j ascending.  The
    engine gives H_0 = diag(levels) as `levels`, with h's slot 0 zero: its
    chain runs first, and K_0 = H_0 is left out (None).  With `stops` (see
    `chain_stops`), chain j computes only T_0..T_{stops[j]-1} and is skipped
    for a stop of 0; without, every chain runs to order P.  The slots have
    the dtype agen and h promote to; their entries are not checked.

    Terms are added into the K slots in place.  A slot first reached by an
    image of H_0's chain (binomial 1) starts from that image itself: the
    chain only reads it, and later chains write into it once the chain is
    done.  T_0 is h's own H_j, so a slot that would start from it starts
    from a copy."""
    _check_match(agen, h)
    dtype = np.result_type(agen.dtype, h.dtype)
    out = [None] * (h.order + 1)
    chains = [] if levels is None else [(0, levels)]
    for j, x in chains + [(j, h.coeffs[j]) for j in h.live]:
        stop = h.order - j + 1 if stops is None else stops[j]
        if not stop:
            continue
        x = x.astype(dtype, copy=False)
        for k, term in enumerate(_t_images(agen, x, stop - 1)):
            if term is None or term.ndim == 1:
                continue
            p = j + k
            c = binomial(p, j)
            if out[p] is not None:
                out[p] += term if c == 1.0 else c * term
            elif c == 1.0 and k:
                out[p] = term
            else:
                out[p] = c * term
    return out


def conjugate_series(gen: OperatorSeries, h: OperatorSeries) -> OperatorSeries:
    """Series transformed by gen, Cauchy product K_p = sum_j C(p,j) T_{p-j}(H_j),
    a zero slot where no term lands; a non-finite slot raises ValueError
    naming it."""
    agen = _anti_hermitian(gen)
    out = conjugate_slots(agen, h)
    zero = shared_zero(h.dim, np.result_type(agen.dtype, h.dtype))
    live = {p: c for p, c in enumerate(out) if c is not None}
    return OperatorSeries._computed(h.order, h.hbar, zero, live)


def flow_coefficients(agen: OperatorSeries):
    """Yield the coefficients U_0 = I, U_1, ..., U_P of the flow of the
    anti-Hermitian generator series agen: Phi(eps) ~ sum_p eps^p/p! U_p, the
    solution of U' = (1/hbar) U A(eps), in agen's dtype; None for a
    structurally zero coefficient.  Only the coefficients a later one still
    reads are kept.  Each sum is built in its own memory, so no generator
    slot or kept coefficient is written, and is scaled by 1/hbar unless hbar
    is 1.  U_0 is a fresh I that no later coefficient reads (U_0 A_p is
    taken as A_p), so the caller may write into it."""
    a, live, hbar = agen.coeffs, agen.live, agen.hbar
    window = _window(live)
    u = np.eye(agen.dim, dtype=agen.dtype)
    window.append(u)
    yield u
    for p in range(agen.order):
        nxt = None
        for l in live:
            if l > p:
                break
            if l == p:  # U_0 A_p is A_p, and C(p, p) = 1
                nxt = a[l].copy() if nxt is None else _add(nxt, a[l])
            elif window[-1 - l] is not None:
                nxt = _add(nxt, _scaled(binomial(p, l), window[-1 - l] @ a[l]))
        if nxt is not None and hbar != 1.0:
            nxt *= 1.0 / hbar
        window.append(nxt)
        yield nxt


def flow_cut(agen: OperatorSeries, eps: float):
    """(stop, dropped, norm): where `flow_at` cuts the flow of agen at eps,
    from w = lie_majorant(agen, eps, 1.0).  It sums U_0..U_{stop-1}: the
    longest tail past U_0 = I whose majorant at eps is below u is left
    out, and `dropped` is that majorant, 0.0 for none.  norm =
    sum_{p<stop} w[p] bounds the 2-norm of the flow, and of each partial sum
    of it; max(1, hbar) norm / min(1, |weight(eps, stop - 1)|) bounds that of
    each U_p it sums and of each product `flow_coefficients` forms for them,
    at every eps: |eps|^p/p! is log-concave in p, so its least value over
    p = 0..stop-1 is at p = 0 or p = stop - 1."""
    w = lie_majorant(agen, eps, 1.0)
    stop, dropped = _cut(w, 1.0, 1, UNIT_ROUNDOFF)
    return stop, dropped, sum(w[:stop])


def flow_at(agen: OperatorSeries, eps: float, stop: int) -> np.ndarray:
    """The flow of agen at eps, sum_{p<stop} eps^p/p! U_p, summed as the
    coefficients come, in `weighted_sum`'s order and skipping zero ones;
    stop is the one `flow_cut` gives.  A weight that overflows raises as in
    `weight`."""
    coeffs = itertools.islice(flow_coefficients(agen), stop)
    out = next(coeffs)  # a fresh I, which no later coefficient reads
    for p, u in enumerate(coeffs, start=1):
        if u is not None and u.any():
            out += weight(eps, p) * u
    return out


def lie_majorant(agen: OperatorSeries, eps: float, factor: float) -> list:
    """Weighted Lie-series majorant of a chain with a unit leaf: w[k] >=
    |eps|^k/k! ||X_k||_2, k = 0..P, for ||X_0||_2 <= 1 and
    X_{k+1} = sum_l C(k, l) c(A_{l+1}, X_{k-l}), where
    ||c(A, X)||_2 <= (factor/hbar) ||A||_2 ||X||_2: factor 2 for the images
    (c = -(1/hbar)[A, .]), 1 for the flow coefficients (c = (1/hbar) X A).
    A slot is bounded by its stored induced 1-norm, bounds[l] >= ||A_{l+1}||_2,
    so no matrix is read, and the weights are folded into the recursion,

        w[k+1] = factor/(hbar (k+1)) sum_l bounds[l] |eps|^{l+1}/l! w[k-l],

    so no factorial is formed; an overflow gives inf, which cuts nothing."""
    return _majorant(agen, eps, factor, [1.0])


def h0_majorant(agen: OperatorSeries, leaves: dict, eps: float) -> list:
    """Weighted majorant of H_0's chain, w[k] >= |eps|^k/k! ||T_k(H_0)||_2,
    for a generator that solves the homological equation of the stage's
    series h against H_0, with `leaves` as `_leaves` gives them.  Each term
    C(k, k) ad A_{k+1} (H_0) of the image recursion is then an averaging
    residual, -(H_{k+1} - Hbar_{k+1}): H_{k+1} off the degeneracy blocks,
    whose induced 1-norm is at most h's bounds[k+1].  So the `lie_majorant`
    recursion from w[0] = ||H_0||_2 takes that term as
    |eps|^{k+1}/(k+1)! bounds[k+1] = leaves[k+1] for a live generator slot
    k, 0 for a zero one, in place of (2/hbar) ||A_{k+1}|| ||H_0||."""
    residual = [
        leaves.get(l + 1, 0.0) if bound else 0.0 for l, bound in enumerate(agen.bounds[:-1])
    ]
    return _majorant(agen, eps, 2.0, [leaves[0]], residual)


def _majorant(agen, eps, factor, w, residual=None):
    """w extended from w[0] to w[0..P] by the recursion of `lie_majorant`;
    with `residual`, its term l = k is residual[k] instead."""
    x = abs(eps)
    slots, power = [], x  # power = |eps|^{l+1}/l!
    for l, bound in enumerate(agen.bounds[:-1]):
        if bound:
            slots.append((l, bound * power))
        power = power * x / (l + 1)
    rate = factor / agen.hbar
    for k in range(agen.order):
        total = 0.0
        for l, g in slots:
            if l > k or (l == k and residual is not None):
                break
            if w[k - l]:
                total += g * w[k - l]
        nxt = rate / (k + 1) * total
        if residual is not None:
            nxt += residual[k]
        w.append(nxt)
    return w


def _cut(weights, scale, first, budget):
    """(stop, dropped): the longest tail weights[stop:], stop >= first, with
    `dropped`, scale times its sum, below budget; the sum is taken from the
    end, and a zero weight (a structurally zero term) adds 0 even to an
    infinite scale.  stop is len(weights) and dropped 0.0 when no such tail
    exists."""
    stop, dropped = len(weights), 0.0
    while stop > first:
        weight = weights[stop - 1]
        total = dropped + scale * weight if weight else dropped
        if not total < budget:
            break
        stop, dropped = stop - 1, total
    return stop, dropped


def _leaves(h: OperatorSeries, h0_norm: float, eps):
    """(leaves, budget): leaves[j] >= |eps|^j/j! ||H_j||_2 for H_0 (h0_norm,
    j = 0) and each live slot H_j of h, from its stored induced 1-norm, and
    each chain's share u h0_norm / (number of chains) of the dropped weight."""
    leaves, power = {0: h0_norm}, 1.0
    for j in range(1, h.order + 1):
        power = power * abs(eps) / j
        if h.bounds[j]:
            leaves[j] = power * h.bounds[j]
    return leaves, UNIT_ROUNDOFF * h0_norm / len(leaves)


def chain_stops(agen: OperatorSeries, h: OperatorSeries, h0_norm: float, eps, keep):
    """(stops, dropped) for `conjugate_slots` of h, with H_0 given as levels of
    spectral norm h0_norm, for a generator agen that solves the homological
    equation of h against H_0.  Term k of chain j >= 1 weighs
    |eps|^{j+k}/(j! k!) ||T_k(H_j)||_2 <= leaf_j w[k] at eps (see `_leaves`);
    H_0's chain has its own table, `h0_majorant`, which bounds each of its
    generator-slot terms by the averaging residual it equals.  Each chain
    keeps its images up to order `keep` and drops its longest tail below
    u h0_norm / (number of chains), so `dropped`, the majorant of all that
    is dropped, stays below u h0_norm.  A chain past `keep` may go whole."""
    leaves, budget = _leaves(h, h0_norm, eps)
    w = lie_majorant(agen, eps, 2.0)
    stops = [0] * (h.order + 1)
    stops[0], dropped = _cut(h0_majorant(agen, leaves, eps), 1.0, keep + 1, budget)
    for j, leaf in leaves.items():
        if j:
            stops[j], tail = _cut(w[: h.order - j + 1], leaf, max(keep - j + 1, 0), budget)
            dropped += tail
    return stops, dropped


# The flow of a finite generator can overflow where its series stays finite;
# each coefficient is checked here instead, with numpy's warnings off.
@np.errstate(over="ignore", invalid="ignore")
def u_coefficients(gen: OperatorSeries):
    """Coefficients of the flow generated by gen: Phi(eps) ~ sum_p eps^p/p! U_p.

    The flow solves U' = -(i/hbar) U W(eps) with U_0 = I, so that
    U(eps)^{-1} A U(eps) reproduces the conjugated series to O(eps^{P+1}).
    Structurally zero coefficients share one read-only zero matrix.  A
    coefficient with a NaN or Inf entry raises ValueError naming it.
    """
    agen = _anti_hermitian(gen)
    zero = shared_zero(agen.dim, agen.dtype)
    out = []
    for p, u in enumerate(flow_coefficients(agen)):
        if u is None:
            u = zero
        else:
            finite_norm(u, f"flow coefficient U_{p}")
        out.append(u)
    return out


class WeightOverflowError(ValueError):
    """The weight eps^p/p! of an order overflows a float at eps."""


def weight(eps, p: int) -> float:
    """eps^p/p!, the weight of order p at eps; WeightOverflowError naming eps
    where the float eps^p overflows."""
    try:
        return eps**p / math.factorial(p)
    except OverflowError:
        raise WeightOverflowError(
            f"eps^{p}/{p}! overflows a float at eps {eps:g}"
        ) from None


def weighted_sum(mats, eps: float) -> np.ndarray:
    """sum_p eps^p/p! mats[p], in float64 unless a matrix is complex; skips
    a zero matrix, whose weight is then not formed (see `weight`).  eps must
    be a finite real and mats nonempty; ValueError names the one at fault."""
    eps = require_finite(eps, "eps")
    if not len(mats):
        raise ValueError("mats must hold at least one matrix")
    out = np.array(mats[0], dtype=_common_dtype(mats), copy=True)
    for p in range(1, len(mats)):
        c = mats[p]
        if c.any():
            out += weight(eps, p) * c
    return out


def eval_series(s: OperatorSeries, eps: float) -> np.ndarray:
    """Evaluate the series at a numeric parameter value."""
    return weighted_sum(s.coeffs, eps)


def zero_padded(coeffs_by_order, dim: int, order: int, hbar: float) -> OperatorSeries:
    """Series of the given order from a sparse {order: matrix} mapping of
    validated Hermitian matrices, e.g. a model's read-only terms; in float64
    unless one of them is complex.  A matrix already in that dtype fills its
    slot as it is, so the caller must not write into it later."""
    dtype = _common_dtype(coeffs_by_order.values())
    for p in coeffs_by_order:
        if p > order:
            raise ValueError(f"term of order {p} does not fit truncation order {order}")
    live = {p: mat.astype(dtype, copy=False) for p, mat in coeffs_by_order.items()}
    return OperatorSeries._computed(order, hbar, shared_zero(dim, dtype), live)
