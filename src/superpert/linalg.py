"""Dense complex Hermitian matrix algebra and the eigendecomposition front end.

Matrices are plain complex128 numpy arrays; every operator in the package
is represented this way, including generators (stored as their Hermitian
part, with the i/hbar factor living inside the adjoint action).  `eigh`
wraps LAPACK's Hermitian solver (numpy.linalg.eigh) and adds the
package's deterministic ordering, degeneracy blocks and column phases.
"""

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex128 matrix; raises on bad shape."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    return a


def _require_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def adjoint(a) -> np.ndarray:
    return np.asarray(a).conj().T


def max_norm(a) -> float:
    """Entrywise max modulus, max_jk |a_jk|."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    return (a + a.conj().T) / 2.0


def hermiticity_defect(a) -> float:
    a = np.asarray(a)
    return max_norm(a - a.conj().T)


def nonfinite_entry(a):
    """Index (j, k) of the first NaN or Inf entry of a, or None."""
    bad = np.argwhere(~np.isfinite(a))
    return tuple(int(i) for i in bad[0]) if bad.size else None


def require_hermitian(a, tol=HERMITICITY_TOL, what="matrix"):
    """Validate finite entries and conjugate symmetry relative to max(1, |a|_max)."""
    a = as_operator(a)
    bad = nonfinite_entry(a)
    if bad is not None:
        raise ValueError(f"{what} has a non-finite entry {bad} = {a[bad]}")
    defect = hermiticity_defect(a)
    bound = tol * max(1.0, max_norm(a))
    if defect > bound:
        raise ValueError(
            f"{what} is not Hermitian: defect {defect:.3e} exceeds {bound:.3e}"
        )
    return a


def commutator_ad(w, a, hbar=1.0) -> np.ndarray:
    """Adjoint action (i/hbar)(WA - AW); Hermitian for Hermitian W, A."""
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    w = np.asarray(w, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    _require_same_shape(w, a)
    return (1j / hbar) * (w @ a - a @ w)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors is unitary with column j the
    eigenvector of eigenvalues[j]; blocks partitions indices into
    degeneracy classes (chained: adjacent eigenvalues closer than deg_tol
    fall into one block, transitively).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple
    deg_tol: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def block_ids(self) -> np.ndarray:
        ids = np.empty(self.dim, dtype=np.int64)
        for b, members in enumerate(self.blocks):
            for i in members:
                ids[i] = b
        return ids


def _degeneracy_blocks(lam, deg_tol):
    blocks = []
    start = 0
    for i in range(1, lam.shape[0]):
        if lam[i] - lam[i - 1] > deg_tol:
            blocks.append(tuple(range(start, i)))
            start = i
    blocks.append(tuple(range(start, lam.shape[0])))
    return tuple(blocks)


def fix_column_phases(v) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    v = np.array(v, dtype=np.complex128, copy=True)
    for j in range(v.shape[1]):
        col = v[:, j]
        d = int(np.argmax(np.abs(col)))
        piv = col[d]
        if abs(piv) > 0.0:
            v[:, j] = col * (piv.conjugate() / abs(piv))
    return v


def eigh(a, deg_tol=None) -> SpectralData:
    """Full eigendecomposition via LAPACK (numpy.linalg.eigh).

    Parameters
    ----------
    a : square array, finite and Hermitian within HERMITICITY_TOL
    deg_tol : float or None
        Gap below which adjacent eigenvalues join one degeneracy block.
        None means 1e-9 times the spectral range.

    Ordering is deterministic: ascending eigenvalues, and inside a
    degeneracy block columns are ordered by the basis index of their
    dominant component; column phases are canonicalized.
    """
    a = require_hermitian(a, what="eigh input")
    lam, v = np.linalg.eigh(hermitian_part(a))
    if deg_tol is None:
        deg_tol = 1e-9 * max(float(lam[-1] - lam[0]), 0.0)
    if deg_tol < 0:
        raise ValueError(f"deg_tol must be nonnegative, got {deg_tol}")
    blocks = _degeneracy_blocks(lam, deg_tol)
    dominant = [int(np.argmax(np.abs(v[:, j]))) for j in range(v.shape[1])]
    for members in blocks:
        if len(members) > 1:
            perm = sorted(members, key=lambda j: (dominant[j], j))
            idx = list(members)
            lam[idx] = lam[perm]
            v[:, idx] = v[:, perm]
    v = fix_column_phases(v)
    return SpectralData(lam, v, blocks, float(deg_tol))
