"""Exact spectral averaging: the solver for the homological equation.

For a Hermitian A with spectral data (E_j, |j>) and a Hermitian B, the
average and its primitive are, in A's eigenbasis,

    Bbar_jk = B_jk   if j, k share a degeneracy block, else 0
    S_jk    = -i B_jk / (E_j - E_k)   across blocks, else 0

so that i[Bbar, A] = 0 and i[S, A] = Bbar - B hold at working precision
by construction (hbar = 1: A is the operator in energy units).  For
degenerate A the full intra-block part is retained, which still commutes
with A.  `average_diagonal` applies these formulas in A's eigenbasis to a
sequence of matrices, with one set of denominators and no stacked copy of
them, and returns each primitive as the engine's anti-Hermitian generator
G = iS, with entries B_jk / (E_j - E_k): G is real for a real B, so a real
model stays in real arithmetic.  Each average is kept as its degeneracy
blocks, one (n, s, s) stack per n blocks of size s (`block_groups`).

Cross-block gaps below the guard abort with a diagnostic instead of
amplifying noise through the denominators.
"""

import math

import numpy as np

from .linalg import SpectralData


class SmallDenominatorError(ValueError):
    """A generator denominator E_j - E_k fell below the safety guard."""

    def __init__(self, message, indices=None, gap=None):
        super().__init__(message)
        self.indices = indices
        self.gap = gap


def default_gap_guard(spectral: SpectralData) -> float:
    return 1e-6 * float(np.ptp(spectral.eigenvalues))


def _boundary_gaps(lam, blocks):
    """(j, k, E_k - E_j) as arrays, one entry per block boundary in ascending
    energy: j the level just below it, k the one just above.  Levels of two
    different blocks straddle a boundary, so their gap is at least one of these."""
    order = np.argsort(lam, kind="stable")
    labels = blocks[order]
    cut = labels[1:] != labels[:-1]
    j, k = order[:-1][cut], order[1:][cut]
    return j, k, lam[k] - lam[j]


def guarded_min_gap(lam, blocks, gap_guard):
    """The smallest denominator gap of A = diag(lam) with block labels
    `blocks` (inf for a single block); raises SmallDenominatorError at the
    first block boundary whose gap is at most gap_guard, a resolved float."""
    j, k, gaps = _boundary_gaps(lam, blocks)
    if not gaps.size:
        return math.inf
    low = gaps <= gap_guard
    i = int(low.argmax())  # the first boundary at fault, if any
    if low[i]:
        j, k, gap = int(j[i]), int(k[i]), float(gaps[i])
        raise SmallDenominatorError(
            f"small denominator: levels {j} and {k} sit in different "
            f"degeneracy blocks but are only {gap:.6e} apart "
            f"(guard {gap_guard:.6e})",
            indices=(j, k),
            gap=gap,
        )
    return float(gaps.min())


def average_diagonal(lam, blocks, groups, slots, gap_guard):
    """(averages, generators, min_gap) for A = diag(lam) with block labels
    `blocks` and their `block_groups`: each slot's Bbar and G, in order.

    slots is a sequence of matrices B in A's eigenbasis, averaged one by one
    against one set of denominators, with no stacked copy.  Bbar is a list of
    B's blocks, one (n, s, s) stack per (n, s) group; it and G have B's
    dtype.  Gathering the blocks and the antisymmetric real denominators keep
    the symmetry exact: for B Hermitian to the bit, Bbar is Hermitian and G
    anti-Hermitian to the bit.  gap_guard and min_gap are as in
    `guarded_min_gap`, checked also for no slot, which forms nothing else.
    G is B divided by the denominators into a fresh array: a real B by real
    division, which the reciprocal is not; a complex B as numpy's
    complex-by-real division does it, each part times the one reciprocal, in
    one contiguous pass over the float64 view of a C-ordered copy, which is
    cheaper and equal to the bit."""
    min_gap = guarded_min_gap(lam, blocks, gap_guard)
    if not slots:
        return [], [], min_gap
    d = len(lam)
    # the flat indices of each group's blocks, (n, s, s), and of all of them
    flat = [i[:, :, None] * d + i[:, None, :] for i in groups]
    inside = np.concatenate([f.ravel() for f in flat])
    denom = lam[:, None] - lam[None, :]
    np.put(denom, inside, 1.0)  # intra-block entries are zeroed anyway
    inv = None  # 1/denom, each entry twice, to scale a complex slot's float64 view
    # every average before any generator: gathered between the generators,
    # these small arrays raised the peak RSS of a dim-64 run by about 0.1 MB
    averages = [[b.take(f) for f in flat] for b in slots]
    generators = []
    for b in slots:
        if np.iscomplexobj(b):
            if inv is None:
                inv = np.empty((d, d, 2))
                inv[..., 0] = inv[..., 1] = 1.0 / denom
                inv = inv.reshape(d, 2 * d)
            g = np.array(b, order="C")
            parts = g.view(np.float64)
            parts *= inv
        else:
            g = np.divide(b, denom)
        np.put(g, inside, 0.0)
        generators.append(g)
    return averages, generators, min_gap
