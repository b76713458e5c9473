"""Dense Hermitian matrix algebra and the eigendecomposition front end.

Matrices are plain numpy arrays in one of two dtypes: float64 for real
operators, complex128 otherwise.  A helper keeps the dtype of its input
(`as_array`), so a real model runs in real arithmetic throughout; only
model ingestion decides the dtype, storing real matrices for a model whose
terms all have an exactly zero imaginary part.  `eigh` wraps LAPACK's
symmetric/Hermitian solver (numpy.linalg.eigh) and adds the package's
deterministic ordering, degeneracy blocks and column phases.
"""

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10


def as_array(a) -> np.ndarray:
    """a as a complex128 array if its dtype is complex, else as float64."""
    a = np.asarray(a)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def as_operator(a) -> np.ndarray:
    """Coerce to a square matrix (see `as_array`); raises on bad shape."""
    a = as_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    return a


def _require_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: for an array that is shared once it is made."""
    a.flags.writeable = False
    return a


def max_norm(a) -> float:
    """Entrywise max modulus, max_jk |a_jk|."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def hermitian_part(a) -> np.ndarray:
    """(a + a^H)/2 over the last two axes, so a stack of matrices works."""
    a = as_array(a)
    out = a + a.conj().swapaxes(-1, -2)
    out /= 2.0
    return out


def hermiticity_defect(a) -> float:
    a = np.asarray(a)
    return max_norm(a - a.conj().T)


def _require_finite_norm(a, norm, what) -> float:
    """norm, the max_norm of a; raises ValueError naming `what` unless it is
    finite: at the first NaN or Inf entry (j, k), or, where every entry is
    finite, at the first complex one whose modulus overflows."""
    if not math.isfinite(norm):
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            j = tuple(int(i) for i in bad[0])
            raise ValueError(f"{what} has a non-finite entry {j} = {a[j]}")
        with np.errstate(over="ignore"):
            bad = np.argwhere(~np.isfinite(np.abs(a)))
        j = tuple(int(i) for i in bad[0])
        raise ValueError(f"{what} has an entry {j} = {a[j]} whose modulus overflows")
    return norm


def finite_norm(a, what) -> float:
    """max_norm(a); raises ValueError naming `what` and the first NaN or Inf
    entry (j, k) unless that norm is finite."""
    return _require_finite_norm(a, max_norm(a), what)


# Column sums of moduli cannot overflow while d times the largest modulus
# stays below this.
_SUM_SAFE = np.finfo(np.float64).max / 2


def finite_norms(a, what) -> tuple:
    """(max_norm(a), its induced 1-norm max_k sum_j |a_jk|) for a square a,
    from one np.abs pass; raises as `finite_norm`.  For a Hermitian or
    anti-Hermitian a the 1-norm bounds the spectral norm,
    ||a||_2 <= sqrt(||a||_1 ||a||_inf) = ||a||_1 <= d ||a||_max; the rounded
    column sum is held to that last cap, and it is 0.0 exactly for a zero a.
    Where the column sums could overflow, the cap is taken instead (inf
    once d ||a||_max overflows), with no numpy warning."""
    mod = np.abs(a)
    norm = _require_finite_norm(a, float(mod.max()), what)
    cap = a.shape[0] * norm
    if not cap < _SUM_SAFE:
        return norm, cap
    return norm, min(float(mod.sum(axis=0).max()), cap)


def require_finite(value, what) -> float:
    """float(value); raises ValueError naming `what` for NaN or Inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def require_positive(value, what) -> float:
    """hbar as a float; ValueError naming `what` unless it and 1/it are finite, > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    if not math.isfinite(1.0 / value):
        raise ValueError(f"{what} must have a finite reciprocal, got {value}")
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
    """a as a square matrix (`as_operator`), checked to have finite entries and a
    Hermiticity defect within tol * max(1, |a|_max).  The one validator of
    caller-supplied operators; its ValueError names `what` and the entry
    (j, k) at fault: the first non-finite one, or the most asymmetric one."""
    a = as_operator(a)
    with np.errstate(over="ignore"):  # a modulus that overflows raises here
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
    w = as_array(w)
    a = as_array(a)
    _require_same_shape(w, a)
    return (1j / hbar) * (w @ a - a @ w)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a Hermitian matrix.

    eigenvectors is unitary with column j the eigenvector of eigenvalues[j]
    (ascending when made by `eigh`); blocks[j] is the degeneracy block of
    level j, an int64 label array, see `degeneracy_blocks`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        blocks, n = self.blocks, len(self.eigenvalues)
        if not (
            isinstance(blocks, np.ndarray)
            and blocks.dtype.kind in "iu"
            and blocks.shape == (n,)
        ):
            got = (
                f"{blocks.dtype} array of shape {blocks.shape}"
                if isinstance(blocks, np.ndarray)
                else type(blocks).__name__
            )
            raise ValueError(
                f"blocks must be a 1-D integer array of length {n}, one label "
                f"per eigenvalue, got {got}"
            )

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def default_deg_tol(lam) -> float:
    """1e-9 times the largest |E_j|: a rounding split of a degenerate level
    stays below it, however narrow the range of the levels."""
    return 1e-9 * max_norm(lam)


def degeneracy_blocks(lam, deg_tol=None) -> np.ndarray:
    """block[j], the degeneracy block of level j (int64).  Sorted levels
    closer than deg_tol (finite and nonnegative; None = `default_deg_tol`)
    chain into one block; blocks are numbered 0, 1, ... in ascending energy."""
    deg_tol = require_tolerance(deg_tol, "deg_tol")
    if deg_tol is None:
        deg_tol = default_deg_tol(lam)
    order = np.argsort(lam, kind="stable")
    block = np.empty(len(order), dtype=np.int64)
    block[order] = np.cumsum(np.diff(lam[order], prepend=lam[order[:1]]) > deg_tol)
    return block


def one_level_blocks(blocks) -> bool:
    """Whether every degeneracy block of the labels `blocks` holds one level."""
    return np.bincount(blocks).max() == 1


def fix_column_phases(v) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive (for
    a real v, flip its sign)."""
    v = np.array(as_array(v), copy=True)
    piv = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None, :], axis=0)[0]
    # np.hypot rounds as abs() of one complex scalar (np.abs of an array can
    # differ in the last bit), and each column is scaled as one vector times
    # one scalar, so the result equals a column-by-column loop to the bit;
    # zero columns are left as they are
    mag = np.hypot(piv.real, piv.imag)
    turn = np.flatnonzero(mag > 0.0)
    cols = v.T
    cols[turn] = cols[turn] * (piv[turn].conj() / mag[turn])[:, None]
    return v


def eigh(a, deg_tol=None) -> SpectralData:
    """Full eigendecomposition via LAPACK (numpy.linalg.eigh).

    Parameters
    ----------
    a : square array, finite and Hermitian within HERMITICITY_TOL; a real
        one is solved in real arithmetic and gives real eigenvectors
    deg_tol : float or None
        Gap below which adjacent eigenvalues join one degeneracy block,
        finite and nonnegative.  None means `default_deg_tol`, 1e-9 times
        the largest |eigenvalue|.

    Ordering is deterministic: ascending eigenvalues, and inside a
    degeneracy block columns are ordered by the basis index of their
    dominant component; column phases are canonicalized.  `blocks` labels
    each column with its block, numbered in ascending energy.
    """
    a = require_hermitian(a, what="eigh input")
    lam, v = np.linalg.eigh(hermitian_part(a))
    blocks = degeneracy_blocks(lam, deg_tol)
    # LAPACK's levels ascend, so `blocks` does too and sorting by it only
    # reorders columns inside a block
    perm = np.lexsort((np.argmax(np.abs(v), axis=0), blocks))
    v = fix_column_phases(v[:, perm])
    return SpectralData(lam[perm], v, blocks)
