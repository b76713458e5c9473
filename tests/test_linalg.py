import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superpert as sp
from superpert.averaging import average_diagonal
from superpert.kolmogorov import _diagonalize_blocks
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


@pytest.mark.parametrize("entry", ["make_model", "OperatorSeries"])
def test_entry_whose_modulus_overflows_is_named(entry):
    # both parts are finite, but |1.5e308 + 1.5e308j| is not: a ValueError
    # naming the field and the entry, with no numpy warning on the way
    v = np.array([[1, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if entry == "make_model":
            with pytest.raises(sp.ModelFormatError, match=r"terms\[1\]: .*\(0, 1\) = .* modulus overflows"):
                sp.make_model(2, [(0, np.eye(2)), (1, v)])
        else:
            with pytest.raises(ValueError, match=r"^coefficient 1 has an entry \(0, 1\) = .* modulus overflows"):
                sp.OperatorSeries((np.eye(2), v))


def test_degeneracy_blocks_chain():
    t = 1e-4
    a = np.diag([0.0, t, 2.0 * t, 1.0]).astype(complex)
    s = sp.eigh(a, deg_tol=t)
    # 0 and 2t are linked through t even though their direct gap exceeds deg_tol
    assert s.blocks.tolist() == [0, 0, 0, 1]
    s2 = sp.eigh(a, deg_tol=t / 2)
    assert s2.blocks.tolist() == [0, 1, 2, 3]


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
    assert s1.blocks.tolist() == [0, 0, 0, 1]
    np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
    np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)
    resid = sp.max_norm(a @ s1.eigenvectors - s1.eigenvectors @ np.diag(s1.eigenvalues))
    assert resid <= 1e-9 * sp.max_norm(a)


def test_eigh_identity_degenerate_block():
    s = sp.eigh(np.eye(4, dtype=complex))
    assert s.blocks.tolist() == [0, 0, 0, 0]
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
    # per-block reference of eigh's block ordering and phases
    lam, v = np.linalg.eigh(sp.hermitian_part(a))
    dominant = [int(np.argmax(np.abs(v[:, j]))) for j in range(v.shape[1])]
    blocks = degeneracy_blocks(lam, deg_tol)
    for b in np.unique(blocks):
        members = np.flatnonzero(blocks == b).tolist()
        perm = sorted(members, key=lambda j: (dominant[j], j))
        lam[members] = lam[perm]
        v[:, members] = v[:, perm]
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


@st.composite
def _engine_levels(draw):
    """(levels, deg_tol, seed): clusters at least 0.5 apart whose levels
    repeat exactly or sit 0.02 apart, in shuffled order, as the engine labels
    levels by basis index rather than by energy."""
    centers = np.cumsum(draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4)))
    picks = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=9)
    )
    levels = np.array([centers[c % len(centers)] + 0.02 * m for c, m in picks])
    seed = draw(st.integers(0, 2**32 - 1))
    levels = np.random.default_rng(seed).permutation(levels)
    deg_tol = draw(st.sampled_from([None, 0.0, 0.01, 0.03]))
    return levels, deg_tol, seed


def _blocks_by_walk(lam, deg_tol):
    # reference: walk the levels in ascending energy and open a new block at
    # every step wider than deg_tol
    if deg_tol is None:
        deg_tol = 1e-9 * max(abs(x) for x in lam)
    order = sorted(range(len(lam)), key=lambda j: (lam[j], j))
    block = [0] * len(lam)
    for prev, j in zip(order, order[1:]):
        block[j] = block[prev] + int(lam[j] - lam[prev] > deg_tol)
    return block


@settings(max_examples=80)
@given(case=_engine_levels())
def test_block_labels_match_a_walk_over_sorted_levels(case):
    levels, deg_tol, _ = case
    blocks = degeneracy_blocks(levels, deg_tol)
    assert blocks.dtype == np.int64
    assert blocks.tolist() == _blocks_by_walk(levels.tolist(), deg_tol)


@settings(max_examples=80)
@given(case=_engine_levels())
def test_averaging_gap_is_the_smallest_cross_block_gap(case):
    levels, deg_tol, seed = case
    blocks = degeneracy_blocks(levels, deg_tol)
    n = len(levels)
    cross = [
        abs(levels[j] - levels[k])
        for j in range(n)
        for k in range(n)
        if blocks[j] != blocks[k]
    ]
    bt = random_hermitian(np.random.default_rng(seed), n)
    _, _, min_gap = average_diagonal(levels, blocks, bt, 1.0, 0.0)
    assert min_gap == min(cross, default=float("inf"))
    if cross:
        with pytest.raises(sp.SmallDenominatorError) as err:
            average_diagonal(levels, blocks, bt, 1.0, min_gap)
        assert err.value.gap == min_gap


@settings(max_examples=80)
@given(case=_engine_levels())
def test_block_diagonalization_matches_per_block_eigh(case):
    levels, deg_tol, seed = case
    rng = np.random.default_rng(seed)
    blocks = degeneracy_blocks(levels, deg_tol)
    n = len(levels)
    same = blocks[:, None] == blocks[None, :]
    h0 = np.diag(levels) + np.where(same, random_hermitian(rng, n, scale=0.01), 0.0)
    lam, new_blocks, q = _diagonalize_blocks(h0, blocks, deg_tol)
    # reference: one eigh per block of two or more, columns by dominant index
    want_lam = h0.diagonal().real.copy()
    want_q = np.eye(n, dtype=np.complex128)
    for b in np.unique(blocks):
        members = np.flatnonzero(blocks == b)
        if len(members) > 1:
            vals, vecs = np.linalg.eigh(h0[np.ix_(members, members)])
            perm = np.argsort(np.argmax(np.abs(vecs), axis=0), kind="stable")
            want_lam[members] = vals[perm]
            want_q[np.ix_(members, members)] = vecs[:, perm]
    np.testing.assert_array_equal(lam, want_lam)
    np.testing.assert_array_equal(np.eye(n) if q is None else q, want_q)
    assert new_blocks.tolist() == _blocks_by_walk(lam.tolist(), deg_tol)


@pytest.mark.parametrize(
    "blocks",
    [
        ((0, 1), (2,)),  # the former tuple-of-index-tuples format
        np.array([0.0, 0.0, 1.0]),
        np.array([[0, 0, 1]]),
        np.array([0, 1]),
        [0, 0, 1],
    ],
    ids=["tuple_of_tuples", "float_labels", "two_dimensional", "too_short", "list"],
)
def test_spectral_data_rejects_bad_blocks(blocks):
    with pytest.raises(ValueError, match="blocks"):
        sp.SpectralData(np.array([1.0, 1.0, 2.0]), np.eye(3), blocks)

