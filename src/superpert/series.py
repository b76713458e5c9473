"""Graded operator series and the conjugation recursions.

A series sum_p eps^p/p! X_p is stored as the coefficient list [X_0..X_P];
the factorial weights are part of the grading, not of the stored matrices.
A transform is given by its generator series, whose slot l holds the
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
engine builds the A slots itself and calls `conjugate_by` and
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
the whole chain; `conjugate_by` adds each chain T_0..T_{P-j}(H_j) into the
K slots as it is produced, for j ascending, so each K_p sums its terms in
the Cauchy product's order.  The stage engine gives H_0 as its levels, a
1-D T_0, whose images take A * levels for A diag(levels), bit for bit, at
half the work.  The flow coefficients follow the same rule,
and `flow_at` sums them at eps as they come.  A transform of an order-P
series therefore holds O(P) matrices at once, the P + 1 slots of K and one
window of images, not the P^2/2 images of the whole Cauchy product.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    finite_norm,
    hermitian_part,
    read_only,
    require_hermitian,
    require_positive,
)

# Cap on the order of a series.  _BINOM holds float64 binomials, exact
# through order 56; C(57, 25) is the first that rounds.
MAX_ORDER = 62

_BINOM = [[float(math.comb(p, l)) for l in range(p + 1)] for p in range(MAX_ORDER + 1)]


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
    is real, complex128 otherwise.  The engine builds the series it computes
    from such operands through `_computed`, which skips those steps.  norms[p]
    is max_norm(coeffs[p]); entries are finite, so a slot is an exact zero
    matrix exactly when its norm is 0 (see `live`).
    """

    coeffs: tuple
    hbar: float = 1.0
    norms: tuple = field(init=False, compare=False, repr=False)

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
        self._set(tuple(c.astype(dtype, copy=False) for c in mats), hbar)

    def _set(self, mats, hbar, norms=None):
        """Store the fields; a non-finite slot raises ValueError naming it,
        which is how an overflow inside the engine surfaces.  Each distinct
        array is scanned once, so a zero shared by many slots costs one scan;
        norms[p], where given and not None, is slot p's norm, already taken."""
        if len(mats) - 1 > MAX_ORDER:
            raise ValueError(
                f"series order {len(mats) - 1} exceeds the cap {MAX_ORDER}"
            )
        norms = [None] * len(mats) if norms is None else list(norms)
        scanned = {}
        for p, c in enumerate(mats):
            if norms[p] is None:
                if id(c) not in scanned:
                    scanned[id(c)] = finite_norm(c, f"coefficient {p}")
                norms[p] = scanned[id(c)]
        object.__setattr__(self, "coeffs", mats)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "norms", tuple(norms))

    @classmethod
    def _computed(cls, mats, hbar, norms=None):
        """Series of square matrices of one dtype, computed from validated
        operands, with a validated hbar: Hermitian to the bit, or, for a
        generator, anti-Hermitian to the bit.  Only the order cap, the norms
        and the non-finite check are done; `norms` as in `_set`."""
        series = object.__new__(cls)
        series._set(tuple(mats), hbar, norms)
        return series

    @property
    def live(self) -> list:
        """Orders whose coefficient is not the zero matrix, ascending."""
        return [p for p, norm in enumerate(self.norms) if norm != 0.0]

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
    a = [-1j * w for w in gen.coeffs]
    if not any(c.imag.any() for c in a):
        a = [np.ascontiguousarray(c.real) for c in a]
    return OperatorSeries._computed(a, gen.hbar)


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
    still reads are kept."""
    a, live, hbar = agen.coeffs, agen.live, agen.hbar
    window = _window(live)
    window.append(x)
    yield x
    for p in range(up_to):
        t = _next_image(a, live, window, p, hbar)
        window.append(t)
        yield t


def _check_match(gen: OperatorSeries, h: OperatorSeries):
    if (gen.order, gen.dim, gen.hbar) != (h.order, h.dim, h.hbar):
        raise ValueError(
            f"generator (order {gen.order}, dim {gen.dim}, hbar {gen.hbar}) "
            f"does not match series (order {h.order}, dim {h.dim}, hbar {h.hbar})"
        )


def conjugate_by(agen: OperatorSeries, h: OperatorSeries, levels=None):
    """Series h transformed by the anti-Hermitian generator series agen, as the
    Cauchy product K_p = sum_j C(p,j) T_{p-j}(H_j); the stage engine's route.
    The chain of each live H_j is added into the K slots as it is produced,
    for j ascending.  The engine gives H_0 = diag(levels) as `levels`, with
    h's slot 0 zero: its chain runs first, and K_0 = H_0 is left out (zero).
    The result has the dtype agen and h promote to.

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
        x = x.astype(dtype, copy=False)
        for p, term in enumerate(_t_images(agen, x, h.order - j), start=j):
            if term is None or term.ndim == 1:
                continue
            c = binomial(p, j)
            if out[p] is not None:
                out[p] += term if c == 1.0 else c * term
            elif c == 1.0 and p > j:
                out[p] = term
            else:
                out[p] = c * term
    zero = shared_zero(h.dim, dtype)
    return OperatorSeries._computed([zero if c is None else c for c in out], h.hbar)


def conjugate_series(gen: OperatorSeries, h: OperatorSeries) -> OperatorSeries:
    """Series transformed by gen, Cauchy product K_p = sum_j C(p,j) T_{p-j}(H_j)."""
    return conjugate_by(_anti_hermitian(gen), h)


def flow_coefficients(agen: OperatorSeries):
    """Yield the coefficients U_0 = I, U_1, ..., U_P of the flow of the
    anti-Hermitian generator series agen: Phi(eps) ~ sum_p eps^p/p! U_p, the
    solution of U' = (1/hbar) U A(eps), in agen's dtype; None for a
    structurally zero coefficient.  Only the coefficients a later one still
    reads are kept.  Each sum is built in its own memory, so no generator
    slot or kept coefficient is written."""
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
        if nxt is not None:
            nxt *= 1.0 / hbar
        window.append(nxt)
        yield nxt


def flow_at(agen: OperatorSeries, eps: float) -> np.ndarray:
    """The flow of agen at eps, sum_p eps^p/p! U_p, summed as the
    coefficients come, in `weighted_sum`'s order and skipping zero ones."""
    coeffs = flow_coefficients(agen)
    out = next(coeffs).copy()
    for p, u in enumerate(coeffs, start=1):
        if u is not None and u.any():
            out += (eps**p / math.factorial(p)) * u
    return out


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


def weighted_sum(mats, eps: float) -> np.ndarray:
    """sum_p eps^p/p! mats[p], in float64 unless a matrix is complex."""
    out = np.array(mats[0], dtype=_common_dtype(mats), copy=True)
    for p in range(1, len(mats)):
        c = mats[p]
        if c.any():
            out += (eps**p / math.factorial(p)) * c
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
    slots = [shared_zero(dim, dtype)] * (order + 1)
    for p, mat in coeffs_by_order.items():
        if p > order:
            raise ValueError(
                f"term of order {p} does not fit truncation order {order}"
            )
        slots[p] = mat.astype(dtype, copy=False)
    return OperatorSeries._computed(slots, hbar)
