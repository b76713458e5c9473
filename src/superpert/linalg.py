"""Dense complex Hermitian matrix algebra and the eigendecomposition front end.

Matrices are plain complex128 numpy arrays; every operator in the package
is represented this way, including generators (stored as their Hermitian
part, with the i/hbar factor living inside the adjoint action).  `eigh`
wraps LAPACK's Hermitian solver (numpy.linalg.eigh) and adds the
package's deterministic ordering, degeneracy blocks and column phases.
"""

import math
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


def max_norm(a) -> float:
    """Entrywise max modulus, max_jk |a_jk|."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a) -> np.ndarray:
    """(a + a^H)/2 over the last two axes, so a stack of matrices works."""
    a = np.asarray(a, dtype=np.complex128)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def hermiticity_defect(a) -> float:
    a = np.asarray(a)
    return max_norm(a - a.conj().T)


def finite_norm(a, what) -> float:
    """max_norm(a); raises ValueError naming `what` and the first NaN or Inf
    entry (j, k) unless that norm is finite."""
    norm = max_norm(a)
    if not math.isfinite(norm):
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        raise ValueError(f"{what} has a non-finite entry {bad} = {a[bad]}")
    return norm


def require_finite(value, what) -> float:
    """float(value); raises ValueError naming `what` for NaN or Inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def require_positive(value, what) -> float:
    """float(value); raises ValueError naming `what` unless finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def require_tolerance(value, what):
    """None, or a finite nonnegative float; raises ValueError naming `what`."""
    if value is None:
        return None
    value = require_finite(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def require_hermitian(a, tol=HERMITICITY_TOL, what="matrix"):
    """a as a square complex128 matrix, checked to have finite entries and a
    Hermiticity defect within tol * max(1, |a|_max).  The one validator of
    caller-supplied operators; its ValueError names `what` and the entry
    (j, k) at fault: the first non-finite one, or the most asymmetric one."""
    a = as_operator(a)
    bound = tol * max(1.0, finite_norm(a, what))
    if hermiticity_defect(a) > bound:
        d = np.abs(a - a.conj().T)
        j, k = np.unravel_index(int(np.argmax(d)), d.shape)
        raise ValueError(
            f"{what} is not Hermitian: worst entry ({j}, {k}) has defect "
            f"{d[j, k]:.3e}, above {bound:.3e}"
        )
    return a


def commutator_ad(w, a, hbar=1.0) -> np.ndarray:
    """Adjoint action (i/hbar)(WA - AW); Hermitian for Hermitian W, A."""
    hbar = require_positive(hbar, "hbar")
    w = np.asarray(w, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    _require_same_shape(w, a)
    return (1j / hbar) * (w @ a - a @ w)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a Hermitian matrix.

    eigenvectors is unitary with column j the eigenvector of eigenvalues[j]
    (ascending when made by `eigh`); blocks partitions indices into
    degeneracy classes, see `degeneracy_blocks`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def degeneracy_blocks(lam, deg_tol=None) -> tuple:
    """Sorted levels closer than deg_tol (finite and nonnegative; None = 1e-9
    times the range) chain into one block.  Blocks and members ascend in
    energy."""
    order = np.argsort(lam, kind="stable")
    deg_tol = require_tolerance(deg_tol, "deg_tol")
    if deg_tol is None:
        deg_tol = 1e-9 * float(np.ptp(lam))
    cuts = np.flatnonzero(np.diff(lam[order]) > deg_tol) + 1
    return tuple(tuple(int(i) for i in part) for part in np.split(order, cuts))


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
        Gap below which adjacent eigenvalues join one degeneracy block,
        finite and nonnegative.  None means 1e-9 times the spectral range.

    Ordering is deterministic: ascending eigenvalues, and inside a
    degeneracy block columns are ordered by the basis index of their
    dominant component; column phases are canonicalized.
    """
    a = require_hermitian(a, what="eigh input")
    lam, v = np.linalg.eigh(hermitian_part(a))
    blocks = degeneracy_blocks(lam, deg_tol)
    dominant = [int(np.argmax(np.abs(v[:, j]))) for j in range(v.shape[1])]
    for members in blocks:
        if len(members) > 1:
            perm = sorted(members, key=lambda j: (dominant[j], j))
            idx = list(members)
            lam[idx] = lam[perm]
            v[:, idx] = v[:, perm]
    v = fix_column_phases(v)
    return SpectralData(lam, v, blocks)
