"""Nondegenerate Rayleigh-Schrodinger perturbation theory through order 4.

Baseline for perturbations linear in the parameter: H(eps) = H_0 + eps V.
Output coefficients are plain power-series coefficients c_l, so the level
energy is E_j(eps) = E0_j + sum_l c_l eps^l (no factorial grading).

The sum-over-states recursion with intermediate normalization is used:
with R the reduced resolvent of level j,

    psi_l = R [ (E_1 - V) psi_{l-1} + sum_{m=2..l} E_m psi_{l-m} ],
    E_l = <j| V psi_{l-1}>,   psi_0 = |j>.
"""

import math
from dataclasses import dataclass

import numpy as np

from .averaging import SmallDenominatorError, default_gap_guard
from .linalg import (
    HERMITICITY_TOL,
    SpectralData,
    require_hermitian,
    require_tolerance,
)

MAX_RS_ORDER = 4


@dataclass(frozen=True)
class RsCorrections:
    levels: tuple
    e0: np.ndarray  # unperturbed energy per requested level
    coeffs: np.ndarray  # coeffs[i, l-1] = c_l for levels[i], l = 1..max_order

    @property
    def max_order(self) -> int:
        return self.coeffs.shape[1]

    def _row(self, level: int) -> int:
        try:
            return self.levels.index(level)
        except ValueError:
            raise KeyError(f"level {level} was not requested") from None

    def coefficients(self, level: int) -> np.ndarray:
        return self.coeffs[self._row(level)].copy()

    def energy(self, eps: float, level: int, order=None) -> float:
        """Cumulative energy E0 + sum_{l<=order} c_l eps^l, summed in python
        floats; OverflowError when it is not finite."""
        if order is None:
            order = self.max_order
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order must be in 0..{self.max_order}, got {order}")
        i = self._row(level)
        eps = float(eps)
        e = float(self.e0[i])
        for l in range(1, order + 1):
            e += float(self.coeffs[i, l - 1]) * eps**l
        if not math.isfinite(e):
            raise OverflowError(
                f"the order-{order} energy of level {level} at eps {eps:g} is {e}"
            )
        return e


def rs_corrections(h0: SpectralData, v, max_order=4, levels=0, gap_guard=None):
    """Power-series energy coefficients c_1..c_max_order for the given levels.

    Parameters
    ----------
    h0 : SpectralData of the unperturbed operator
    v : Hermitian perturbation matrix (the coefficient of eps)
    max_order : 1..4
    levels : int or iterable of ints; each must be nondegenerate
    gap_guard : minimum allowed gap to any other level (None = 1e-6 * range)

    Raises
    ------
    SmallDenominatorError for a level closer than gap_guard to a neighbor.
    """
    if not 1 <= max_order <= MAX_RS_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_RS_ORDER}, got {max_order}")
    v = require_hermitian(v, what="perturbation")
    if v.shape[0] != h0.dim:
        raise ValueError(f"dimension mismatch: {v.shape[0]} vs {h0.dim}")
    if isinstance(levels, (int, np.integer)):
        levels = (int(levels),)
    else:
        levels = tuple(int(j) for j in levels)
    for j in levels:
        if not 0 <= j < h0.dim:
            raise ValueError(f"level {j} outside 0..{h0.dim - 1}")
    gap_guard = require_tolerance(gap_guard, "gap_guard")
    if gap_guard is None:
        gap_guard = default_gap_guard(h0)

    lam = h0.eigenvalues
    vt = h0.eigenvectors.conj().T @ v @ h0.eigenvectors
    n = h0.dim
    coeffs = np.zeros((len(levels), max_order))
    for i, j in enumerate(levels):
        others = np.arange(n) != j
        gaps = np.abs(lam[others] - lam[j])
        if gaps.size and float(gaps.min()) <= gap_guard:
            k = int(np.arange(n)[others][int(np.argmin(gaps))])
            raise SmallDenominatorError(
                f"level {j} is degenerate at this tolerance: gap to level {k} "
                f"is {float(gaps.min()):.6e} (guard {gap_guard:.6e})",
                indices=(j, k),
                gap=float(gaps.min()),
            )
        resolvent = np.zeros(n)
        resolvent[others] = 1.0 / (lam[others] - lam[j])
        psi = [np.zeros(n, dtype=vt.dtype)]
        psi[0][j] = 1.0
        e = np.zeros(max_order + 1, dtype=vt.dtype)
        for l in range(1, max_order + 1):
            e[l] = vt[j, :] @ psi[l - 1]
            if l < max_order:
                rhs = e[1] * psi[l - 1] - vt @ psi[l - 1]
                for m in range(2, l + 1):
                    rhs = rhs + e[m] * psi[l - m]
                psi.append(resolvent * rhs)
        worst_imag = float(np.max(np.abs(e.imag)))
        if worst_imag > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(e)))):
            raise ValueError(
                f"level {j}: corrections came out complex ({worst_imag:.3e}); "
                f"input is not Hermitian enough"
            )
        coeffs[i, :] = e[1:].real
    return RsCorrections(
        levels=levels, e0=lam[list(levels)].copy(), coeffs=coeffs
    )
