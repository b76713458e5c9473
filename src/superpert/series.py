"""Graded operator series and the conjugation recursions.

A series sum_p eps^p/p! A_p is stored as the coefficient list [A_0..A_P];
the factorial weights are part of the grading, not of the stored matrices.
A transform is given by its generator, an OperatorSeries whose slot l holds
W_{l+1}: the transform is generated by -W(eps) and acts on operators
through the expansion maps

    T_0 = id,   T_{p+1} = sum_{l=0}^{p} C(p, l) ad W_{l+1} o T_{p-l}

where ad W = (i/hbar)[W, .].  Conjugating a Hamiltonian series is the
Cauchy product K_p = sum_j C(p, j) T_{p-j}(H_j); an equivalent recursion
(K_p = sum_{j=1}^{p} C(p-1, j-1)(ad W_j(K_{p-j}) + T_{p-j}(H_j))) is kept
as an independent cross-check.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_operator,
    commutator_ad,
    finite_norm,
    require_hermitian,
    require_positive,
)

MAX_ORDER = 62  # binomials stay exact in int64 up to this order

_BINOM = [[float(math.comb(p, l)) for l in range(p + 1)] for p in range(MAX_ORDER + 1)]


def binomial(p: int, l: int) -> float:
    return _BINOM[p][l]


def shared_zero(dim: int) -> np.ndarray:
    """Read-only zero matrix, safe to put in several slots at once."""
    zero = np.zeros((dim, dim), dtype=np.complex128)
    zero.flags.writeable = False
    return zero


@dataclass(frozen=True)
class OperatorSeries:
    """Finite graded family: coeffs[p] multiplies eps^p/p!.

    The constructor validates caller-supplied coefficients (`require_hermitian`)
    and hbar; the engine builds the series it computes from validated operands
    through `_computed`, which skips those checks.  norms[p] is
    max_norm(coeffs[p]); entries are finite, so a slot is an exact zero
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
            require_hermitian(c, what=f"coefficient {p}")
            for p, c in enumerate(self.coeffs)
        )
        for p, c in enumerate(mats):
            if c.shape != mats[0].shape:
                raise ValueError(
                    f"coefficient {p} has dimension {c.shape[0]}, "
                    f"expected {mats[0].shape[0]}"
                )
        self._set(mats, hbar)

    def _set(self, mats, hbar):
        """Store the fields; a non-finite slot raises ValueError naming it,
        which is how an overflow inside the engine surfaces."""
        if len(mats) - 1 > MAX_ORDER:
            raise ValueError(
                f"series order {len(mats) - 1} exceeds the cap {MAX_ORDER}"
            )
        norms = tuple(finite_norm(c, f"coefficient {p}") for p, c in enumerate(mats))
        object.__setattr__(self, "coeffs", mats)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "norms", norms)

    @classmethod
    def _computed(cls, mats, hbar):
        """Series of square complex128 matrices computed from validated
        operands, with a validated hbar: Hermitian by construction, so only
        the order cap, the norms and the non-finite check are done."""
        series = object.__new__(cls)
        series._set(tuple(mats), hbar)
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


def _add(acc, term):
    """acc + term, where acc None is an empty sum; may reuse acc's memory."""
    if acc is None:
        return term
    acc += term
    return acc


def _t_images(gen: OperatorSeries, a: np.ndarray, up_to: int):
    """[T_0(a), ..., T_up_to(a)], None for an image no term lands in.

    Only live generator slots and images enter a sum, and each sum starts
    from its first term, so the nonzero terms add up in the same order as
    in the full recursion and skipped orders are structural zeros."""
    w, live, hbar = gen.coeffs, gen.live, gen.hbar
    images = [a]
    for p in range(up_to):
        nxt = None
        for l in live:
            if l > p:
                break
            src = images[p - l]
            if src is not None:
                nxt = _add(nxt, binomial(p, l) * commutator_ad(w[l], src, hbar))
        images.append(nxt)
    return images


def t_apply(gen: OperatorSeries, p: int, a) -> np.ndarray:
    """Image T_p(a) of one operator under the transform generated by gen."""
    if not 0 <= p <= gen.order:
        raise ValueError(f"order index {p} outside 0..{gen.order}")
    a = as_operator(np.array(a, dtype=np.complex128))
    if a.shape[0] != gen.dim:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {gen.dim}")
    image = _t_images(gen, a, p)[p]
    return np.zeros_like(a) if image is None else image


def _check_match(gen: OperatorSeries, h: OperatorSeries):
    if gen.order != h.order or gen.dim != h.dim:
        raise ValueError(
            f"generator (order {gen.order}, dim {gen.dim}) does not match "
            f"series (order {h.order}, dim {h.dim})"
        )


def _all_images(gen: OperatorSeries, h: OperatorSeries):
    """images[j][i] = T_i(H_j) for i + j <= order; None for structural zeros."""
    P = h.order
    live = set(h.live)
    return [
        _t_images(gen, h.coeffs[j], P - j) if j in live else [None] * (P + 1 - j)
        for j in range(P + 1)
    ]


def _filled(slots, dim, hbar) -> OperatorSeries:
    zero = shared_zero(dim)
    return OperatorSeries._computed([zero if c is None else c for c in slots], hbar)


def conjugate_series(gen: OperatorSeries, h: OperatorSeries) -> OperatorSeries:
    """Series transformed by gen, Cauchy product K_p = sum_j C(p,j) T_{p-j}(H_j)."""
    _check_match(gen, h)
    images = _all_images(gen, h)
    out = []
    for p in range(h.order + 1):
        kp = None
        for j in range(p + 1):
            term = images[j][p - j]
            if term is not None:
                kp = _add(kp, binomial(p, j) * term)
        out.append(kp)
    return _filled(out, h.dim, h.hbar)


def conjugate_series_table(gen: OperatorSeries, h: OperatorSeries) -> OperatorSeries:
    """Same transform through the stagewise recursion; cross-check route."""
    _check_match(gen, h)
    w, w_live, hbar = gen.coeffs, set(gen.live), h.hbar
    images = _all_images(gen, h)
    out = [None if images[0][0] is None else images[0][0].copy()]
    for p in range(1, h.order + 1):
        kp = None
        for j in range(1, p + 1):
            cof = binomial(p - 1, j - 1)
            if j - 1 in w_live and out[p - j] is not None:
                kp = _add(kp, cof * commutator_ad(w[j - 1], out[p - j], hbar))
            term = images[j][p - j]
            if term is not None:
                kp = _add(kp, cof * term)
        out.append(kp)
    return _filled(out, h.dim, h.hbar)


def u_coefficients(gen: OperatorSeries):
    """Coefficients of the flow generated by gen: Phi(eps) ~ sum_p eps^p/p! U_p.

    The flow solves U' = -(i/hbar) U W(eps) with U_0 = I, so that
    U(eps)^{-1} A U(eps) reproduces the conjugated series to O(eps^{P+1}).
    Structurally zero coefficients share one read-only zero matrix.
    """
    w, live, hbar = gen.coeffs, gen.live, gen.hbar
    u = [np.eye(gen.dim, dtype=np.complex128)]
    for p in range(gen.order):
        nxt = None
        for l in live:
            if l > p:
                break
            if u[p - l] is not None:
                nxt = _add(nxt, binomial(p, l) * (u[p - l] @ w[l]))
        u.append(None if nxt is None else (-1j / hbar) * nxt)
    zero = shared_zero(gen.dim)
    return [zero if c is None else c for c in u]


def weighted_sum(mats, eps: float) -> np.ndarray:
    """sum_p eps^p/p! mats[p]."""
    out = np.array(mats[0], dtype=np.complex128, copy=True)
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
    validated Hermitian matrices, e.g. a model's terms; they are copied."""
    slots = [shared_zero(dim)] * (order + 1)
    for p, mat in coeffs_by_order.items():
        if p > order:
            raise ValueError(
                f"term of order {p} does not fit truncation order {order}"
            )
        slots[p] = np.array(mat, dtype=np.complex128)
    return OperatorSeries._computed(slots, hbar)
