"""Thin wrappers that drive the engine's kernels (`conjugate_slots`,
`flow_coefficients`, `average_diagonal`) on a generator series of Hermitian
slots W, or on a dense operator, keeping every term."""

from collections import namedtuple

import numpy as np

from superpert import averaging, linalg, series
from superpert.series import OperatorSeries

Averaged = namedtuple("Averaged", "b_bar s_of_b")


def anti_hermitian(gen):
    """The generator series A = -iW of gen, exact; real where it can be."""
    a = {l: -1j * gen.coeffs[l] for l in gen.live}
    if not any(c.imag.any() for c in a.values()):
        a = {l: np.ascontiguousarray(c.real) for l, c in a.items()}
    zero = series.shared_zero(gen.dim, series._common_dtype(a.values()))
    return OperatorSeries._computed(gen.order, gen.hbar, zero, a, generator=True)


def conjugate_slots(agen, h, levels=None):
    stops = [h.order - j + 1 for j in range(h.order + 1)]
    return series.conjugate_slots(agen, h, levels, stops)


def conjugate_series(gen, h):
    """h transformed by gen: K_p = sum_j C(p, j) T_{p-j}(H_j)."""
    agen = anti_hermitian(gen)
    zero = series.shared_zero(h.dim, np.result_type(agen.dtype, h.dtype))
    live = {p: c for p, c in enumerate(conjugate_slots(agen, h)) if c is not None}
    return OperatorSeries._computed(h.order, h.hbar, zero, live)


def u_coefficients(gen):
    """The flow coefficients U_0 = I, U_1, ..., U_P of gen."""
    agen = anti_hermitian(gen)
    zero = series.shared_zero(agen.dim, agen.dtype)
    return [zero if u is None else u for u in series.flow_coefficients(agen)]


def average(spectral, b, hbar=1.0, gap_guard=None):
    """(b_bar, s_of_b), both Hermitian, with (i/hbar)[S, A] = Bbar - B."""
    if gap_guard is None:
        gap_guard = averaging.default_gap_guard(spectral)
    v = spectral.eigenvectors
    bt = v.conj().T @ b @ v
    groups = linalg.block_groups(spectral.blocks)
    (avg,), (a_t,), _ = averaging.average_diagonal(
        spectral.eigenvalues, spectral.blocks, groups, [bt], hbar, gap_guard
    )
    bbar_t = np.zeros_like(bt)
    for idx, stack in zip(groups, avg):
        bbar_t[idx[:, :, None], idx[:, None, :]] = stack
    b_bar = linalg.hermitian_part(v @ bbar_t @ v.conj().T)
    s_of_b = linalg.hermitian_part(v @ (1j * a_t) @ v.conj().T)  # S = iA
    return Averaged(b_bar, s_of_b)
