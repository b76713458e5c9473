import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superpert as sp
from superpert.averaging import average_diagonal, default_gap_guard

import kernels
import reference
from conftest import random_hermitian


def _identity_errors(spectral, b, result, hbar):
    a = spectral.eigenvectors @ np.diag(spectral.eigenvalues) @ spectral.eigenvectors.conj().T
    e1 = sp.max_norm(reference.commutator_ad(result.b_bar, a, hbar))
    lhs = reference.commutator_ad(result.s_of_b, a, hbar)
    e2 = sp.max_norm(lhs - (result.b_bar - b))
    return e1, e2


def test_two_level_hand_computation():
    spectral = sp.eigh(np.diag([1.0, 2.0]).astype(complex))
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    res = kernels.average(spectral, b, 1.0)
    np.testing.assert_allclose(res.b_bar, np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(
        res.s_of_b, np.array([[0.0, 1.0j], [-1.0j, 0.0]]), atol=1e-15
    )
    # (i)[S, A] = Bbar - B = -B
    a = np.diag([1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(reference.commutator_ad(res.s_of_b, a), -b, atol=1e-14)


def test_diagonal_input_passes_through():
    rng = np.random.default_rng(40)
    spectral = sp.eigh(np.diag([0.0, 1.0, 3.0]).astype(complex))
    b = np.diag(rng.uniform(-1, 1, size=3)).astype(complex)
    res = kernels.average(spectral, b)
    np.testing.assert_allclose(res.b_bar, b, atol=1e-15)
    assert sp.max_norm(res.s_of_b) <= 1e-15


def test_lemma_identities_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        hbar = float(rng.uniform(0.3, 2.0))
        a = random_hermitian(rng, n, scale=2.0)
        b = random_hermitian(rng, n)
        spectral = sp.eigh(a)
        res = kernels.average(spectral, b, hbar)
        e1, e2 = _identity_errors(spectral, b, res, hbar)
        bound = 1e-11 * max(sp.max_norm(b), 1e-300)
        assert e1 <= bound
        assert e2 <= bound



@settings(max_examples=60)
@given(
    spacings=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=8),
    hbar=st.floats(0.3, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lemma_identities_repeated_and_clustered_levels(spacings, picks, hbar, seed):
    # clusters at least 0.5 apart; inside one, levels repeat exactly or sit
    # 0.02 apart
    centers = np.cumsum(spacings)
    levels = np.array(
        [centers[0], centers[1]]
        + [centers[c % len(centers)] + 0.02 * m for c, m in picks]
    )
    n = len(levels)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    spectral = sp.eigh(q @ np.diag(levels) @ q.conj().T)
    assert len(np.unique(spectral.blocks)) == len(set(levels.tolist()))
    b = random_hermitian(rng, n)
    res = kernels.average(spectral, b, hbar)
    e1, e2 = _identity_errors(spectral, b, res, hbar)
    bound = 1e-11 * max(sp.max_norm(b), 1e-300)
    assert e1 <= bound
    assert e2 <= bound


def test_average_is_projection():
    rng = np.random.default_rng(42)
    a = random_hermitian(rng, 6)
    b = random_hermitian(rng, 6)
    spectral = sp.eigh(a)
    first = kernels.average(spectral, b)
    second = kernels.average(spectral, first.b_bar)
    tol = 1e-12 * max(1.0, sp.max_norm(b))
    assert sp.max_norm(second.b_bar - first.b_bar) <= tol
    assert sp.max_norm(second.s_of_b) <= tol


def test_average_linearity():
    rng = np.random.default_rng(43)
    a = random_hermitian(rng, 5)
    b1 = random_hermitian(rng, 5)
    b2 = random_hermitian(rng, 5)
    spectral = sp.eigh(a)
    alpha, beta = 1.25, -0.75
    combined = kernels.average(spectral, alpha * b1 + beta * b2)
    r1 = kernels.average(spectral, b1)
    r2 = kernels.average(spectral, b2)
    tol = 1e-11 * max(1.0, sp.max_norm(b1), sp.max_norm(b2))
    assert sp.max_norm(combined.b_bar - alpha * r1.b_bar - beta * r2.b_bar) <= tol
    assert sp.max_norm(combined.s_of_b - alpha * r1.s_of_b - beta * r2.s_of_b) <= tol


def test_outputs_hermitian():
    rng = np.random.default_rng(44)
    a = random_hermitian(rng, 7)
    b = random_hermitian(rng, 7)
    res = kernels.average(sp.eigh(a), b)
    assert sp.hermiticity_defect(res.b_bar) <= 1e-11 * max(1.0, sp.max_norm(b))
    assert sp.hermiticity_defect(res.s_of_b) <= 1e-11 * max(1.0, sp.max_norm(res.s_of_b))


def test_degenerate_block_retention():
    rng = np.random.default_rng(45)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    a = q @ np.diag([1.0, 1.0, 2.0, 3.0]) @ q.conj().T
    b = random_hermitian(rng, 4)
    spectral = sp.eigh(a, deg_tol=1e-8)
    assert spectral.blocks.tolist() == [0, 0, 1, 2]
    res = kernels.average(spectral, b)
    v = spectral.eigenvectors
    bt = v.conj().T @ b @ v
    bbar_t = v.conj().T @ res.b_bar @ v
    s_t = v.conj().T @ res.s_of_b @ v
    # intra-block entries kept in the average (including off-diagonal ones),
    # zeroed in the primitive; cross-block the other way around
    np.testing.assert_allclose(bbar_t[:2, :2], bt[:2, :2], atol=1e-12)
    assert sp.max_norm(bbar_t[2:, :2]) <= 1e-12
    assert sp.max_norm(s_t[:2, :2]) <= 1e-12
    e1, e2 = _identity_errors(spectral, b, res, 1.0)
    assert max(e1, e2) <= 1e-11 * sp.max_norm(b)


def test_small_denominator_guard():
    a = np.diag([0.0, 1e-8, 1.0]).astype(complex)
    spectral = sp.eigh(a)  # deg_tol default 1e-9 * max |level| keeps 0 and 1e-8 apart
    assert spectral.blocks.tolist() == [0, 1, 2]
    b = np.ones((3, 3), dtype=complex)
    with pytest.raises(sp.SmallDenominatorError) as err:
        kernels.average(spectral, b)
    assert err.value.indices == (0, 1)
    assert err.value.gap == pytest.approx(1e-8)
    assert "0" in str(err.value) and "1" in str(err.value)
    # explicit permissive guard lets the same pair through
    res = kernels.average(spectral, b, gap_guard=1e-10)
    assert np.isfinite(res.s_of_b).all()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
def test_bad_gap_guard_is_rejected(bad):
    # a NaN guard compares False against every gap and would let 1/1e-8
    # through; the averaging takes its guard as `init` resolves it
    model = sp.make_model(3, [(0, np.diag([0.0, 1e-8, 1.0])), (1, np.ones((3, 3)))])
    with pytest.raises(ValueError, match="gap_guard"):
        sp.init(model, 0.1, 2, deg_tol=1e-12, gap_guard=bad)


def test_guard_default_scales_with_range():
    a = np.diag([0.0, 1.0, 2.0]).astype(complex)
    assert default_gap_guard(sp.eigh(a)) == pytest.approx(2e-6)


def test_min_cross_block_gap():
    spectral = sp.eigh(np.diag([0.0, 0.3, 1.0]).astype(complex))
    assert reference.min_cross_block_gap(spectral) == pytest.approx(0.3)
    one_block = sp.eigh(np.eye(3, dtype=complex))
    assert reference.min_cross_block_gap(one_block) == float("inf")


def test_stacked_average_matches_slot_by_slot():
    # one call on a window of slots gives each slot's own average, bit for
    # bit, and the smallest boundary gap it checked
    rng = np.random.default_rng(44)
    lam = np.array([0.0, 0.0, 0.7, 1.5, 1.5, 1.5, 2.0])
    blocks = np.array([0, 0, 1, 2, 2, 2, 3])
    groups = sp.linalg.block_groups(blocks)
    slots = [random_hermitian(rng, 7) for _ in range(4)]
    bbar, s, gap = average_diagonal(lam, blocks, groups, slots, 1e-6)
    assert len(bbar) == len(s) == len(slots)
    for bt, b1, s1 in zip(slots, bbar, s):
        assert s1.shape == bt.shape
        assert [b.shape for b in b1] == [(2, 1, 1), (1, 2, 2), (1, 3, 3)]
        (b2,), (s2,), gap2 = average_diagonal(lam, blocks, groups, [bt], 1e-6)
        for stack1, stack2 in zip(b1, b2, strict=True):
            np.testing.assert_array_equal(stack1, stack2)
        np.testing.assert_array_equal(s1, s2)
        assert gap2 == gap
    assert gap == pytest.approx(0.5)
    spectral = sp.SpectralData(lam, np.eye(7, dtype=complex), blocks)
    assert gap == reference.min_cross_block_gap(spectral)


def test_hermitian_part_of_a_stack():
    rng = np.random.default_rng(45)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    got = sp.hermitian_part(stack)
    for m, h in zip(stack, got):
        np.testing.assert_array_equal(h, sp.hermitian_part(m))


@settings(max_examples=80)
@given(
    n=st.integers(2, 9),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    exponent=st.integers(-300, 300),
)
def test_generator_is_the_masked_quotient_to_the_bit(n, k, seed, degenerate, real, exponent):
    # a complex B is divided by the real denominators as each part
    # times one reciprocal: that must equal numpy's own quotient bit for bit,
    # at every magnitude, as the real quotient does; and each average is
    # its masked slot to the bit, kept as its blocks grouped by size: where
    # every block is one level, the slot's diagonal as one (n, 1, 1) stack
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-5.0, 5.0, n))
    if degenerate:
        lam[1] = lam[0]
    blocks = sp.linalg.degeneracy_blocks(lam, 0.0)
    groups = sp.linalg.block_groups(blocks)
    stack = np.stack([random_hermitian(rng, n, 10.0**exponent) for _ in range(k)])
    if real:
        stack = stack.real.copy()
    stack[rng.random(stack.shape) < 0.2] = 0.0
    stack = sp.hermitian_part(stack)
    same = blocks[:, None] == blocks[None, :]
    denom = np.where(same, 1.0, lam[:, None] - lam[None, :])
    with np.errstate(all="ignore"):
        want = np.where(same, 0.0, stack / denom)
        avg, got, _ = average_diagonal(lam, blocks, groups, list(stack), 0.0)
    assert len(avg) == len(got) == k
    if not degenerate:  # every block is one level
        np.testing.assert_array_equal(groups[0], np.arange(n)[:, None])
    for b, a, w, g in zip(stack, avg, want, got):
        assert g.dtype == w.dtype == stack.dtype
        np.testing.assert_array_equal(g, w)
        if not degenerate:  # the slot's diagonal
            np.testing.assert_array_equal(a[0][:, 0, 0], b.diagonal())
        masked = np.zeros_like(b)
        for idx, blk in zip(groups, a, strict=True):
            assert blk.dtype == b.dtype and blk.shape == (len(idx), idx.shape[1], idx.shape[1])
            masked[idx[:, :, None], idx[:, None, :]] = blk
        np.testing.assert_array_equal(masked, np.where(same, b, 0.0))
