"""Thin wrappers that drive the engine's kernels (`conjugate_slots`,
`flow_coefficients`, `average_diagonal`) on a generator series of Hermitian
slots W at a given hbar, or on a dense operator, keeping every term.  The
engine's kernels carry no hbar: a generator slot is G = iW/hbar, so hbar is
applied here, where W becomes G, and where the primitive S = -i hbar G is
formed back."""

from collections import namedtuple

import numpy as np

from superpert import averaging, linalg, series
from superpert.series import OperatorSeries

Averaged = namedtuple("Averaged", "b_bar s_of_b")


def anti_hermitian(gen, hbar=1.0):
    """The generator series G = iW/hbar of gen; real where it can be."""
    g = {l: 1j * gen.coeffs[l] / hbar for l in gen.live}
    if not any(c.imag.any() for c in g.values()):
        g = {l: np.ascontiguousarray(c.real) for l, c in g.items()}
    zero = series.shared_zero(gen.dim, series._common_dtype(g.values()))
    return OperatorSeries._computed(gen.order, zero, g, generator=True)


def conjugate_slots(ggen, h, levels=None):
    stops = [h.order - j + 1 for j in range(h.order + 1)]
    return series.conjugate_slots(ggen, h, levels, stops)


def conjugate_series(gen, h, hbar=1.0):
    """h transformed by gen at hbar: K_p = sum_j C(p, j) T_{p-j}(H_j)."""
    ggen = anti_hermitian(gen, hbar)
    zero = series.shared_zero(h.dim, np.result_type(ggen.dtype, h.dtype))
    live = {p: c for p, c in enumerate(conjugate_slots(ggen, h)) if c is not None}
    return OperatorSeries._computed(h.order, zero, live)


def u_coefficients(gen, hbar=1.0):
    """The flow coefficients U_0 = I, U_1, ..., U_P of gen at hbar."""
    ggen = anti_hermitian(gen, hbar)
    zero = series.shared_zero(ggen.dim, ggen.dtype)
    return [zero if u is None else u for u in series.flow_coefficients(ggen)]


def average(spectral, b, hbar=1.0, gap_guard=None):
    """(b_bar, s_of_b), both Hermitian, with (i/hbar)[S, A] = Bbar - B."""
    if gap_guard is None:
        gap_guard = averaging.default_gap_guard(spectral)
    v = spectral.eigenvectors
    bt = v.conj().T @ b @ v
    groups = linalg.block_groups(spectral.blocks)
    (avg,), (g_t,), _ = averaging.average_diagonal(
        spectral.eigenvalues, spectral.blocks, groups, [bt], gap_guard
    )
    bbar_t = np.zeros_like(bt)
    for idx, stack in zip(groups, avg):
        bbar_t[idx[:, :, None], idx[:, None, :]] = stack
    b_bar = linalg.hermitian_part(v @ bbar_t @ v.conj().T)
    s_of_b = linalg.hermitian_part(v @ (-1j * hbar * g_t) @ v.conj().T)  # S = -i hbar G
    return Averaged(b_bar, s_of_b)
