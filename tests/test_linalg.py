import numpy as np
import pytest

import superpert as sp
from superpert.linalg import degeneracy_blocks, fix_column_phases

from conftest import random_hermitian


def test_commutator_self_vanishes():
    rng = np.random.default_rng(0)
    w = random_hermitian(rng, 5)
    assert sp.max_norm(sp.commutator_ad(w, w)) == 0.0


def test_commutator_2x2_hand_value():
    w = np.diag([1.0, 2.0]).astype(complex)
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    np.testing.assert_allclose(sp.commutator_ad(w, a, 1.0), expected, atol=1e-15)


def test_commutator_hbar_linearity():
    rng = np.random.default_rng(1)
    w = random_hermitian(rng, 4)
    a = random_hermitian(rng, 4)
    np.testing.assert_allclose(
        sp.commutator_ad(w, a, 2.0), sp.commutator_ad(w, a, 1.0) / 2.0, atol=1e-15
    )


def test_commutator_hermitian_and_traceless():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = random_hermitian(rng, 6)
        a = random_hermitian(rng, 6)
        c = sp.commutator_ad(w, a, 0.7)
        assert sp.hermiticity_defect(c) <= 1e-12 * max(1.0, sp.max_norm(c))
        assert abs(np.trace(c)) <= 1e-12 * max(1.0, sp.max_norm(c))


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        sp.commutator_ad(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="hbar"):
        sp.commutator_ad(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
def test_commutator_rejects_bad_hbar(bad):
    # a NaN hbar used to pass `hbar <= 0` and return a NaN matrix
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="hbar must be"):
        sp.commutator_ad(a, a, bad)


def test_ring_operations():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 5)
    assert sp.max_norm(np.zeros((4, 4))) == 0.0
    with pytest.raises(ValueError, match="mismatch"):
        sp.commutator_ad(a, np.eye(3, dtype=complex))


def test_eigh_already_diagonal():
    s = sp.eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_array_equal(s.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors are a permutation of identity columns
    np.testing.assert_array_equal(np.abs(s.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_eigh_pauli_x():
    s = sp.eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_reconstruction_random():
    rng = np.random.default_rng(4)
    for n in (2, 5, 8, 13):
        a = random_hermitian(rng, n, scale=3.0)
        s = sp.eigh(a)
        scale = sp.max_norm(a)
        assert np.all(np.diff(s.eigenvalues) >= -1e-14 * scale)
        v = s.eigenvectors
        assert sp.max_norm(v.conj().T @ v - np.eye(n)) <= 1e-10
        resid = sp.max_norm(a @ v - v @ np.diag(s.eigenvalues))
        assert resid <= 1e-9 * scale
        np.testing.assert_allclose(
            s.eigenvalues, np.linalg.eigvalsh(a), atol=1e-11 * max(1.0, scale)
        )


def test_eigh_idempotent_content():
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(-2.0, 2.0, size=7))
    again = sp.eigh(np.diag(lam).astype(complex))
    np.testing.assert_allclose(again.eigenvalues, lam, atol=1e-14)


def test_eigh_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        sp.eigh(bad)
    with pytest.raises(ValueError, match="square"):
        sp.eigh(np.zeros((2, 3), dtype=complex))


def test_require_hermitian_rejects_non_finite():
    a = np.eye(3, dtype=complex)
    a[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"eigh input has a non-finite entry \(2, 1\)"):
        sp.eigh(a)
    a[2, 1] = 0.0
    a[0, 0] = np.inf
    with pytest.raises(ValueError, match=r"perturbation .*\(0, 0\)"):
        sp.require_hermitian(a, what="perturbation")


def test_degeneracy_blocks_chain():
    t = 1e-4
    a = np.diag([0.0, t, 2.0 * t, 1.0]).astype(complex)
    s = sp.eigh(a, deg_tol=t)
    # 0 and 2t are linked through t even though their direct gap exceeds deg_tol
    assert s.blocks == ((0, 1, 2), (3,))
    s2 = sp.eigh(a, deg_tol=t / 2)
    assert s2.blocks == ((0,), (1,), (2,), (3,))


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -1e-9], ids=["nan", "inf", "negative"]
)
def test_eigh_rejects_bad_deg_tol(bad):
    # a NaN or Inf tolerance used to chain every level into one block
    with pytest.raises(ValueError, match="deg_tol"):
        sp.eigh(np.diag([0.0, 1.0, 2.0]), deg_tol=bad)


def test_eigh_degenerate_deterministic():
    rng = np.random.default_rng(6)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    a = q @ np.diag([1.0, 1.0, 1.0, 3.0]) @ q.conj().T
    s1 = sp.eigh(a, deg_tol=1e-8)
    s2 = sp.eigh(a, deg_tol=1e-8)
    assert len(s1.blocks[0]) == 3
    np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
    np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)
    resid = sp.max_norm(a @ s1.eigenvectors - s1.eigenvectors @ np.diag(s1.eigenvalues))
    assert resid <= 1e-9 * sp.max_norm(a)


def test_eigh_identity_degenerate_block():
    s = sp.eigh(np.eye(4, dtype=complex))
    assert s.blocks == ((0, 1, 2, 3),)
    np.testing.assert_array_equal(s.eigenvectors, np.eye(4, dtype=complex))


def test_column_phase_canonicalization():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 6)
    v = sp.eigh(a).eigenvectors
    for j in range(6):
        piv = v[np.argmax(np.abs(v[:, j])), j]
        assert abs(piv.imag) <= 1e-14
        assert piv.real > 0


def _column_phases_by_column(v):
    # per-column reference of fix_column_phases
    v = np.array(v, dtype=np.complex128, copy=True)
    for j in range(v.shape[1]):
        col = v[:, j]
        piv = col[int(np.argmax(np.abs(col)))]
        if abs(piv) > 0.0:
            v[:, j] = col * (piv.conjugate() / abs(piv))
    return v


def _eigh_by_column(a, deg_tol):
    # per-column reference of eigh's block ordering and phases
    lam, v = np.linalg.eigh(sp.hermitian_part(a))
    dominant = [int(np.argmax(np.abs(v[:, j]))) for j in range(v.shape[1])]
    for members in degeneracy_blocks(lam, deg_tol):
        perm = sorted(members, key=lambda j: (dominant[j], j))
        lam[list(members)] = lam[perm]
        v[:, list(members)] = v[:, perm]
    return lam, _column_phases_by_column(v)


def test_vectorized_column_loops_match_per_column_references():
    rng = np.random.default_rng(8)
    for n, m in ((1, 1), (1, 2), (1, 4), (2, 3), (5, 3), (9, 9), (40, 40)):
        for scale in (1e-300, 1.0, 1e300):
            v = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
            v[:, m // 2] = 0.0  # a zero column stays as it is
            for layout in (v, np.asfortranarray(v)):
                np.testing.assert_array_equal(
                    fix_column_phases(layout), _column_phases_by_column(layout)
                )
    for levels in ([1.0, 1.0, 1.0, 3.0, 3.0, 4.0], np.linspace(0.0, 1.0, 30)):
        q = np.linalg.qr(
            rng.standard_normal((len(levels),) * 2)
            + 1j * rng.standard_normal((len(levels),) * 2)
        )[0]
        a = q @ np.diag(levels) @ q.conj().T
        got = sp.eigh(a, deg_tol=1e-8)
        lam, v = _eigh_by_column(a, 1e-8)
        np.testing.assert_array_equal(got.eigenvalues, lam)
        np.testing.assert_array_equal(got.eigenvectors, v)
