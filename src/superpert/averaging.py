"""Exact spectral averaging: the solver for the homological equation.

For a Hermitian A with spectral data (E_j, |j>) and a Hermitian B, the
average and its primitive are, in A's eigenbasis,

    Bbar_jk = B_jk   if j, k share a degeneracy block, else 0
    S_jk    = (hbar/i) B_jk / (E_j - E_k)   across blocks, else 0

so that (i/hbar)[Bbar, A] = 0 and (i/hbar)[S, A] = Bbar - B hold at
working precision by construction.  For degenerate A the full intra-block
part is retained, which still commutes with A.  `average_diagonal` applies
these formulas in A's eigenbasis, to one matrix or to a stack of them with
one set of denominators, and returns the primitive as the engine's
anti-Hermitian generator -iS, with entries -hbar B_jk / (E_j - E_k): real
for a real B, so a real model stays in real arithmetic.  `average` rotates
B in and the results out, and returns the Hermitian S.

Cross-block gaps below the guard abort with a diagnostic instead of
amplifying noise through the denominators.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpectralData,
    hermitian_part,
    one_level_blocks,
    require_hermitian,
    require_positive,
    require_tolerance,
)


class SmallDenominatorError(ValueError):
    """A generator denominator E_j - E_k fell below the safety guard."""

    def __init__(self, message, indices=None, gap=None):
        super().__init__(message)
        self.indices = indices
        self.gap = gap


@dataclass(frozen=True)
class AveragingResult:
    b_bar: np.ndarray
    s_of_b: np.ndarray


def default_gap_guard(spectral: SpectralData) -> float:
    return 1e-6 * float(np.ptp(spectral.eigenvalues))


def _boundary_gaps(lam, blocks):
    """(j, k, E_k - E_j) as arrays, one entry per block boundary in ascending
    energy: j the level just below it, k the one just above.  Levels of two
    different blocks straddle a boundary, so their gap is at least one of these."""
    order = np.argsort(lam, kind="stable")
    cut = np.flatnonzero(np.diff(blocks[order]))
    j, k = order[cut], order[cut + 1]
    return j, k, lam[k] - lam[j]


def average(spectral: SpectralData, b, hbar=1.0, gap_guard=None) -> AveragingResult:
    """Split B into its A-commuting average and the generator primitive.

    Parameters
    ----------
    spectral : SpectralData of the reference operator A
    b : Hermitian matrix to average
    hbar : positive scale of the adjoint action
    gap_guard : float or None
        Denominator guard, finite and nonnegative; None means 1e-6 times
        A's spectral range.

    Returns
    -------
    AveragingResult with b_bar (the average) and s_of_b (the primitive,
    i.e. the generator solving (i/hbar)[S, A] = Bbar - B), both Hermitian,
    expressed in the original basis.
    """
    b = require_hermitian(b, what="averaging input")
    if b.shape[0] != spectral.dim:
        raise ValueError(f"dimension mismatch: {b.shape[0]} vs {spectral.dim}")
    hbar = require_positive(hbar, "hbar")
    gap_guard = require_tolerance(gap_guard, "gap_guard")
    if gap_guard is None:
        gap_guard = default_gap_guard(spectral)
    v = spectral.eigenvectors
    bbar_t, a_t, _ = average_diagonal(
        spectral.eigenvalues, spectral.blocks, v.conj().T @ b @ v, hbar, gap_guard
    )
    b_bar = hermitian_part(v @ bbar_t @ v.conj().T)
    s_of_b = hermitian_part(v @ (1j * a_t) @ v.conj().T)  # S = iA
    return AveragingResult(b_bar, s_of_b)


def guarded_min_gap(lam, blocks, gap_guard):
    """The smallest denominator gap of A = diag(lam) with block labels
    `blocks` (inf for a single block); raises SmallDenominatorError at the
    first block boundary whose gap is at most gap_guard, a resolved float."""
    j, k, gaps = _boundary_gaps(lam, blocks)
    low = np.flatnonzero(gaps <= gap_guard)
    if low.size:
        j, k, gap = int(j[low[0]]), int(k[low[0]]), float(gaps[low[0]])
        raise SmallDenominatorError(
            f"small denominator: levels {j} and {k} sit in different "
            f"degeneracy blocks but are only {gap:.6e} apart "
            f"(guard {gap_guard:.6e})",
            indices=(j, k),
            gap=gap,
        )
    return float(np.min(gaps, initial=np.inf))


def average_diagonal(lam, blocks, bt, hbar, gap_guard):
    """(Bbar, -iS, min_gap) for A = diag(lam) with block labels `blocks`.

    bt holds B in A's eigenbasis, one matrix (d, d) or a stack (k, d, d)
    averaged slot by slot; Bbar and -iS have its shape and dtype.  Masking
    and the antisymmetric real denominators keep the symmetry exact: for bt
    Hermitian to the bit, Bbar is Hermitian and -iS anti-Hermitian to the bit.
    gap_guard and min_gap are as in `guarded_min_gap`.  Where every block is
    one level, the blocks are the diagonal, which is indexed, not masked.
    A complex -hbar B is divided by the real denominators as numpy's
    complex-by-real division does it, each part times the one reciprocal,
    which is cheaper and equal to the bit; a real one by real division,
    which the reciprocal is not."""
    min_gap = guarded_min_gap(lam, blocks, gap_guard)
    if one_level_blocks(blocks):
        inside = np.diag_indices(len(lam))
        bbar_t = np.zeros_like(bt)
        bbar_t[(..., *inside)] = bt[(..., *inside)]
    else:
        same = blocks[:, None] == blocks[None, :]
        inside = (same,)
        bbar_t = np.where(same, bt, 0.0)
    denom = lam[:, None] - lam[None, :]
    denom[inside] = 1.0  # intra-block entries are masked out anyway
    a_t = -hbar * bt
    if np.iscomplexobj(a_t):
        inv = 1.0 / denom
        a_t.real *= inv
        a_t.imag *= inv
    else:
        a_t /= denom
    a_t[(..., *inside)] = 0.0
    return bbar_t, a_t, min_gap
