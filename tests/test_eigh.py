import mpmath
import numpy as np

import superpert as sp

from conftest import random_hermitian


def test_full_contract():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 12)
    s = sp.eigh(a)
    lam, v = s.eigenvalues, s.eigenvectors
    assert sp.max_norm(a @ v - v @ np.diag(lam)) <= 1e-10 * sp.max_norm(a)
    assert sp.max_norm(v.conj().T @ v - np.eye(12)) <= 1e-12


def test_trivial_inputs():
    s = sp.eigh(np.zeros((3, 3), dtype=complex))
    np.testing.assert_array_equal(s.eigenvalues, np.zeros(3))
    np.testing.assert_array_equal(s.eigenvectors, np.eye(3))
    s1 = sp.eigh(np.array([[4.0 + 0j]]))
    assert s1.eigenvalues[0] == 4.0 and s1.eigenvectors[0, 0] == 1.0


def test_near_degenerate_still_converges():
    rng = np.random.default_rng(12)
    lam = np.array([0.0, 1e-9, 1.0, 1.0 + 1e-9, 2.0])
    q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    a = q @ np.diag(lam) @ q.conj().T
    s = sp.eigh(a)
    # the default deg_tol merges each close pair into one block and reorders
    # inside it by dominant index, so compare the sorted spectrum
    np.testing.assert_allclose(np.sort(s.eigenvalues), lam, atol=1e-13)
    v = s.eigenvectors
    assert sp.max_norm(a @ v - v @ np.diag(s.eigenvalues)) <= 1e-12 * sp.max_norm(a)


def test_rounding_level_offdiagonal():
    # the averaging identities need V^H A V to be diagonal at rounding level
    rng = np.random.default_rng(13)
    a = random_hermitian(rng, 10)
    v = sp.eigh(a).eigenvectors
    rotated = v.conj().T @ a @ v
    off = np.abs(rotated - np.diag(np.diag(rotated))).max()
    assert off <= 1e-14 * sp.max_norm(a)


def test_quartic_low_levels_match_mpmath():
    # Graded matrices are where Jacobi beats QR-type solvers in relative
    # accuracy (Demmel & Veselic 1992); check LAPACK on the quartic
    # oscillator against a 25-digit reference.  x^4 couples only equal
    # parities, so the even block holds levels 0 and 2 of the full matrix.
    model = sp.build_quartic_oscillator(150)
    h = model.coefficient(0) + 0.1 * model.coefficient(1)
    got = sp.eigh(h).eigenvalues[[0, 2]]
    even = h[0::2, 0::2].real
    with mpmath.workdps(25):
        ref = sorted(mpmath.eigsy(mpmath.matrix(even.tolist()), eigvals_only=True))
        ref = np.array([float(ref[0]), float(ref[1])])
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
