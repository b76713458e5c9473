"""Reference implementations that the tests check the package against.

They share no code with the package's conjugation kernel: every image of
the transform generated by -W(eps) is built from the Hermitian generator
slots W with the two-product commutator ad W = (i/hbar)[W, .],

    T_0 = id,   T_{p+1} = sum_{l=0}^{p} C(p, l) ad W_{l+1} o T_{p-l},

summing every term, zero or not, in complex arithmetic and for any square
operand; the flow coefficients are kept whole and summed the same way.  The
smallest cross-block gap is a minimum over all level pairs.
"""

import math

import numpy as np

import superpert as sp


def commutator_ad(w, a, hbar=1.0):
    """Adjoint action (i/hbar)(WA - AW); Hermitian for Hermitian W, A."""
    return (1j / hbar) * (w @ a - a @ w)


def t_images(gen, a, up_to, hbar=1.0):
    """[T_0(a), ..., T_up_to(a)] under the transform generated by gen at hbar."""
    w = gen.coeffs
    images = [np.array(a, dtype=complex)]
    for p in range(up_to):
        nxt = np.zeros_like(images[0])
        for l in range(p + 1):
            nxt += math.comb(p, l) * commutator_ad(w[l], images[p - l], hbar)
        images.append(nxt)
    return images


def t_apply(gen, p, a, hbar=1.0):
    """Image T_p(a) of one square operator a under the transform generated
    by gen at hbar."""
    if not 0 <= p <= gen.order:
        raise ValueError(f"order index {p} outside 0..{gen.order}")
    return t_images(gen, a, p, hbar)[p]


def u_coefficients(gen, hbar=1.0):
    """Flow coefficients U_0 = I, U_{p+1} = sum_l C(p, l) U_{p-l} (-i/hbar) W_{l+1}."""
    w = gen.coeffs
    u = [np.eye(gen.dim, dtype=complex)]
    for p in range(gen.order):
        nxt = np.zeros_like(u[0])
        for l in range(p + 1):
            nxt += math.comb(p, l) * (u[p - l] @ ((-1j / hbar) * w[l]))
        u.append(nxt)
    return u


def conjugate_series_table(gen, h, hbar=1.0):
    """h transformed by gen at hbar through the stagewise recursion

        K_0 = H_0,  K_p = sum_{j=1}^{p} C(p-1, j-1) (ad W_j(K_{p-j}) + T_{p-j}(H_j)),

    the cross-check of the package's Cauchy route."""
    if (gen.order, gen.dim) != (h.order, h.dim):
        raise ValueError(
            f"generator (order {gen.order}, dim {gen.dim}) "
            f"does not match series (order {h.order}, dim {h.dim})"
        )
    w, order = gen.coeffs, h.order
    images = [None] + [t_images(gen, h.coeffs[j], order - j, hbar) for j in range(1, order + 1)]
    out = [np.array(h.coeffs[0], dtype=complex)]
    for p in range(1, order + 1):
        kp = np.zeros_like(out[0])
        for j in range(1, p + 1):
            ad = commutator_ad(w[j - 1], out[p - j], hbar)
            kp += math.comb(p - 1, j - 1) * (ad + images[j][p - j])
        out.append(kp)
    return sp.OperatorSeries(tuple(out))


def min_cross_block_gap(spectral):
    """Smallest |E_j - E_k| over level pairs in different degeneracy blocks
    (inf for one block)."""
    lam, blocks = spectral.eigenvalues, spectral.blocks
    gaps = np.abs(lam[:, None] - lam[None, :])
    return float(np.min(gaps[blocks[:, None] != blocks[None, :]], initial=np.inf))
