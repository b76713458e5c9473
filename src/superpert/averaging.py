"""Exact spectral averaging: the solver for the homological equation.

For a Hermitian A with spectral data (E_j, |j>) and a Hermitian B, the
average and its primitive are, in A's eigenbasis,

    Bbar_jk = B_jk   if j, k share a degeneracy block, else 0
    S_jk    = (hbar/i) B_jk / (E_j - E_k)   across blocks, else 0

so that (i/hbar)[Bbar, A] = 0 and (i/hbar)[S, A] = Bbar - B hold at
working precision by construction.  For degenerate A the full intra-block
part is retained, which still commutes with A.  `average_diagonal` applies
these formulas in A's eigenbasis, to one matrix or to a stack of them with
one set of denominators; `average` rotates B in and the results out.

Cross-block gaps below the guard abort with a diagnostic instead of
amplifying noise through the denominators.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpectralData,
    hermitian_part,
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
    """(j, k, E_k - E_j) for the last level j of each block and the first
    level k of the next.  Blocks come in ascending energy, so the smallest
    gap between levels of different blocks is one of these."""
    for prev, nxt in zip(blocks, blocks[1:]):
        j, k = prev[-1], nxt[0]
        yield j, k, float(lam[k] - lam[j])


def min_cross_block_gap(spectral: SpectralData) -> float:
    """Smallest |E_j - E_k| over pairs in different blocks (inf if one block)."""
    gaps = _boundary_gaps(spectral.eigenvalues, spectral.blocks)
    return min((gap for _, _, gap in gaps), default=float("inf"))


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
    bbar_t, s_t, _ = average_diagonal(
        spectral.eigenvalues, spectral.blocks, v.conj().T @ b @ v, hbar, gap_guard
    )
    b_bar = hermitian_part(v @ bbar_t @ v.conj().T)
    s_of_b = hermitian_part(v @ s_t @ v.conj().T)
    return AveragingResult(b_bar, s_of_b)


def average_diagonal(lam, blocks, bt, hbar, gap_guard):
    """(Bbar, S, min_gap) for A = diag(lam) with degeneracy blocks `blocks`.

    bt holds B in A's eigenbasis, one matrix (d, d) or a stack (k, d, d)
    averaged slot by slot; Bbar and S have its shape and are Hermitian.
    gap_guard is a resolved float, checked once at every block boundary;
    min_gap is the smallest of those gaps (inf for a single block)."""
    min_gap = float("inf")
    for j, k, gap in _boundary_gaps(lam, blocks):
        if gap <= gap_guard:
            raise SmallDenominatorError(
                f"small denominator: levels {j} and {k} sit in different "
                f"degeneracy blocks but are only {gap:.6e} apart "
                f"(guard {gap_guard:.6e})",
                indices=(j, k),
                gap=gap,
            )
        min_gap = min(min_gap, gap)

    ids = np.empty(len(lam), dtype=np.int64)
    for b, members in enumerate(blocks):
        ids[list(members)] = b
    same = ids[:, None] == ids[None, :]

    bbar_t = np.where(same, bt, 0.0)
    denom = lam[:, None] - lam[None, :]
    denom = np.where(same, 1.0, denom)  # intra-block entries are masked out anyway
    s_t = np.where(same, 0.0, (hbar / 1j) * bt / denom)
    return hermitian_part(bbar_t), hermitian_part(s_t), min_gap
