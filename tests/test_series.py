import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import superpert as sp
from superpert import series
from superpert.series import OperatorSeries, zero_padded

import kernels
import reference
from conftest import random_hermitian


def _series(rng, n, order, scale=1.0, zero_slots=()):
    coeffs = []
    for p in range(order + 1):
        if p in zero_slots:
            coeffs.append(np.zeros((n, n), dtype=complex))
        else:
            coeffs.append(random_hermitian(rng, n, scale=scale))
    return OperatorSeries(tuple(coeffs))


def _transform_only_w1(w1, order):
    n = w1.shape[0]
    slots = [np.zeros((n, n), dtype=complex) for _ in range(order + 1)]
    slots[0] = w1
    return OperatorSeries(tuple(slots))


def _horner(coeffs, eps):
    # independent evaluation order for the factorial-graded sum
    out = np.array(coeffs[-1], dtype=complex)
    for p in range(len(coeffs) - 1, 0, -1):
        out = coeffs[p - 1] + (eps / p) * out
    return out


def test_eval_at_zero_returns_constant_term():
    rng = np.random.default_rng(20)
    s = _series(rng, 4, 3)
    np.testing.assert_array_equal(sp.eval_series(s, 0.0), s.coeffs[0])


def test_eval_factorial_weights():
    a = np.array([[2.0, 1.0], [1.0, -1.0]], dtype=complex)
    s = OperatorSeries((a, a, a))
    np.testing.assert_allclose(sp.eval_series(s, 1.0), 2.5 * a, atol=1e-15)


def test_eval_matches_horner():
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = _series(rng, 5, 6)
        eps = rng.uniform(-1.0, 1.0)
        direct = sp.eval_series(s, eps)
        ref = _horner(s.coeffs, eps)
        assert sp.max_norm(direct - ref) <= 1e-13 * max(1.0, sp.max_norm(ref))


def _kernel_images(gen, a, up_to, hbar=1.0):
    """[T_0(a), ..., T_up_to(a)] at hbar from the package's one-product kernel."""
    return list(series._t_images(kernels.anti_hermitian(gen, hbar), a, up_to))


def test_t_apply_order_zero_and_one():
    rng = np.random.default_rng(22)
    w1 = random_hermitian(rng, 4)
    a = random_hermitian(rng, 4)
    ts = _transform_only_w1(w1, 3)
    images = _kernel_images(ts, a, 1, 0.5)
    np.testing.assert_array_equal(images[0], a)
    np.testing.assert_allclose(images[1], reference.commutator_ad(w1, a, 0.5), atol=1e-15)
    np.testing.assert_array_equal(reference.t_apply(ts, 0, a), a)
    with pytest.raises(ValueError, match="order index"):
        reference.t_apply(ts, 4, a)
    with pytest.raises(ValueError, match="order index"):
        reference.t_apply(ts, -1, a)


def test_t_apply_of_a_hermitian_operand_is_hermitian_to_the_bit():
    rng = np.random.default_rng(32)
    ts = _series(rng, 4, 3)
    a = random_hermitian(rng, 4)
    images = _kernel_images(ts, a, 3, 0.7)
    for p in range(1, 4):
        assert sp.hermiticity_defect(images[p]) == 0.0
        ref = reference.t_apply(ts, p, a, 0.7)
        np.testing.assert_allclose(images[p], ref, rtol=0, atol=1e-13 * sp.max_norm(ref))


def test_t_expansion_against_matrix_exponential():
    # single-generator flow: sum_p eps^p/p! T_p(A) must approach
    # exp(i eps W/hbar) A exp(-i eps W/hbar) at rate O(eps^{P+1})
    rng = np.random.default_rng(23)
    hbar = 0.8
    w1 = random_hermitian(rng, 4)
    a = random_hermitian(rng, 4)
    P = 4
    ts = _transform_only_w1(w1, P)
    images = _kernel_images(ts, a, P, hbar)

    def err(eps):
        approx = sum(eps**p / math.factorial(p) * images[p] for p in range(P + 1))
        u = expm(1j * eps * w1 / hbar)
        return sp.max_norm(approx - u @ a @ u.conj().T)

    eps = 0.1
    assert err(eps) / err(eps / 2) >= 2 ** (P + 0.5)


def test_conjugate_identity_when_generator_vanishes():
    rng = np.random.default_rng(24)
    h = _series(rng, 4, 4)
    zero_gen = OperatorSeries(
        tuple(np.zeros((4, 4), dtype=complex) for _ in range(5))
    )
    k = kernels.conjugate_series(zero_gen, h)
    for p in range(5):
        np.testing.assert_array_equal(k.coeffs[p], h.coeffs[p])
        # each K_p = T_0(H_p) is a copy, not h's own slot
        assert not np.shares_memory(k.coeffs[p], h.coeffs[p])


def test_conjugate_unrolled_single_generator():
    rng = np.random.default_rng(25)
    w1 = random_hermitian(rng, 3)
    h0 = random_hermitian(rng, 3)
    h = zero_padded({0: h0}, 3, 2)
    k = kernels.conjugate_series(_transform_only_w1(w1, 2), h)
    ad1 = reference.commutator_ad(w1, h0)
    np.testing.assert_array_equal(k.coeffs[0], h0)
    np.testing.assert_allclose(k.coeffs[1], ad1, atol=1e-14)
    np.testing.assert_allclose(k.coeffs[2], reference.commutator_ad(w1, ad1), atol=1e-13)


def test_conjugation_routes_agree():
    rng = np.random.default_rng(26)
    for P in range(1, 7):
        h = _series(rng, 4, P)
        gen = _series(rng, 4, P, scale=0.8)
        k1 = kernels.conjugate_series(gen, h, 0.9)
        k2 = reference.conjugate_series_table(gen, h, 0.9)
        for p in range(P + 1):
            scale = max(1.0, sp.max_norm(k1.coeffs[p]), sp.max_norm(k2.coeffs[p]))
            assert sp.max_norm(k1.coeffs[p] - k2.coeffs[p]) <= 1e-11 * scale


@settings(max_examples=60)
@given(
    n=st.integers(1, 6),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    hbar=st.floats(0.4, 1.8),
    zero_w=st.sets(st.integers(0, 8)),
    zero_h=st.sets(st.integers(0, 8)),
)
def test_conjugation_routes_agree_on_random_series(n, order, seed, hbar, zero_w, zero_h):
    rng = np.random.default_rng(seed)
    h = _series(rng, n, order, zero_slots=zero_h)
    gen = _series(rng, n, order, scale=0.5, zero_slots=zero_w)
    k1 = kernels.conjugate_series(gen, h, hbar)
    k2 = reference.conjugate_series_table(gen, h, hbar)
    for c1, c2 in zip(k1.coeffs, k2.coeffs):
        scale = max(1.0, sp.max_norm(c1), sp.max_norm(c2))
        assert sp.max_norm(c1 - c2) <= 1e-11 * scale


def test_conjugation_preserves_hermiticity():
    rng = np.random.default_rng(27)
    h = _series(rng, 5, 5)
    ts = _series(rng, 5, 5, scale=0.7)
    k = kernels.conjugate_series(ts, h)
    for c in k.coeffs:
        assert sp.hermiticity_defect(c) == 0.0


def test_commutator_ad_is_left_to_the_cross_check_route(monkeypatch):
    # the engine's conjugations run on the one-product kernel; only the
    # reference route uses the two-product commutator, which the package
    # does not define
    calls = []
    real = reference.commutator_ad

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(reference, "commutator_ad", counted)
    assert not [
        name for name, module in sys.modules.items()
        if name.partition(".")[0] == "superpert" and hasattr(module, "commutator_ad")
    ]
    rng = np.random.default_rng(34)
    reference.conjugate_series_table(_series(rng, 4, 3, scale=0.5), _series(rng, 4, 3))
    assert len(calls) > 0


def test_reference_route_shares_no_kernel(monkeypatch):
    # the cross-check is independent only while it builds its own images
    def unavailable(*args):
        raise AssertionError("the package's conjugation kernel was called")

    for name in ("_next_image", "_t_images", "conjugate_slots"):
        monkeypatch.setattr(series, name, unavailable)
    rng = np.random.default_rng(36)
    gen, h = _series(rng, 4, 3, scale=0.5), _series(rng, 4, 3)
    with pytest.raises(AssertionError, match="kernel was called"):
        kernels.conjugate_series(gen, h)
    reference.conjugate_series_table(gen, h)
    reference.t_apply(gen, 3, h.coeffs[1])


def test_streamed_routes_with_sparse_live_generator_slots():
    # live slots {2, 5}: an image reads 6 images back, more than the 4 slots
    # the live range spans, so a window sized from that span misreads
    rng = np.random.default_rng(37)
    P, hbar = 8, 0.7
    gen = _series(rng, 4, P, scale=0.3, zero_slots=(0, 1, 3, 4, 6, 7, 8))
    h = _series(rng, 4, P, zero_slots=(1, 4))
    assert gen.live == [2, 5] and h.live == [0, 2, 3, 5, 6, 7, 8]
    images = _kernel_images(gen, h.coeffs[0], P, hbar)
    for p, ref in enumerate(reference.t_images(gen, h.coeffs[0], P, hbar)):
        got = np.zeros((4, 4)) if images[p] is None else images[p]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, sp.max_norm(ref)))
    k = kernels.conjugate_series(gen, h, hbar)
    table = reference.conjugate_series_table(gen, h, hbar)
    for c1, c2 in zip(k.coeffs, table.coeffs):
        assert sp.max_norm(c1 - c2) <= 1e-12 * max(1.0, sp.max_norm(c2))
    us = zip(kernels.u_coefficients(gen, hbar), reference.u_coefficients(gen, hbar), strict=True)
    for u, ref in us:
        assert sp.max_norm(u - ref) <= 1e-12 * max(1.0, sp.max_norm(ref))


def test_u_coefficients_trivial_and_powers():
    rng = np.random.default_rng(28)
    zero_gen = OperatorSeries(tuple(np.zeros((3, 3), dtype=complex) for _ in range(4)))
    u = kernels.u_coefficients(zero_gen)
    np.testing.assert_array_equal(u[0], np.eye(3))
    for p in range(1, 4):
        assert sp.max_norm(u[p]) == 0.0

    hbar = 0.6
    w1 = random_hermitian(rng, 3)
    u = kernels.u_coefficients(_transform_only_w1(w1, 3), hbar)
    for p in range(4):
        ref = np.linalg.matrix_power((-1j / hbar) * w1, p)
        np.testing.assert_allclose(u[p], ref, atol=1e-13 * max(1.0, sp.max_norm(ref)))


def test_overflowing_weight_names_eps():
    # the float eps**2 overflows at eps 1e200: a ValueError naming eps, where
    # a zero slot's weight is never formed
    one, zero = np.eye(2), np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(sp.weighted_sum([one, one, zero], 1e200), 1e200 * one + one)
        with pytest.raises(
            sp.WeightOverflowError, match=r"^eps\^2/2! overflows a float at eps 1e\+200$"
        ) as err:
            sp.weighted_sum([one, one, one], 1e200)
    assert isinstance(err.value, ValueError)


def test_overflowing_weighted_term_names_eps():
    # eps = 1e308 is a finite weight, but eps times an entry of 2 is not, nor
    # is 8e307 plus eps; this gave an inf matrix and a numpy warning
    one, message = np.eye(2), r"^the weighted sum overflows a float at eps 1e\+308$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mats in ([one, 2.0 * one], [8e307 * one, one]):
            s = sp.OperatorSeries(tuple(mats))
            for call in (sp.weighted_sum, lambda m, e: sp.eval_series(s, e)):
                with pytest.raises(sp.WeightOverflowError, match=message):
                    call(mats, 1e308)


@pytest.mark.parametrize(
    "eps, message",
    [
        (np.nan, "must be finite"),  # NaN and Inf gave a NaN/Inf matrix and a warning
        (np.inf, "must be finite"),
        (True, "must be a real number"),  # taken as 1
        ("0.1", "must be a real number"),  # a bare TypeError
        (0.1j, "must be a real number"),  # a UFuncTypeError
    ],
)
def test_weighted_sum_checks_eps(eps, message):
    s = sp.OperatorSeries((np.eye(2), np.ones((2, 2))))
    for call in (lambda: sp.weighted_sum(s.coeffs, eps), lambda: sp.eval_series(s, eps)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^eps {message}, got "):
                call()


def test_weighted_sum_of_no_matrix_is_an_error():
    # it raised an IndexError
    with pytest.raises(ValueError, match="^mats must hold at least one matrix$"):
        sp.weighted_sum([], 0.1)


def test_truncated_flow_unitarity_defect_scaling():
    rng = np.random.default_rng(29)
    P = 4
    ts = _series(rng, 4, P, scale=0.6)
    u = kernels.u_coefficients(ts)

    def defect(eps):
        ueval = sp.weighted_sum(u, eps)
        return sp.max_norm(ueval.conj().T @ ueval - np.eye(4))

    eps = 0.1
    assert defect(eps) / defect(eps / 2) >= 2 ** (P + 0.5)


def test_truncated_flow_matches_series_conjugation():
    rng = np.random.default_rng(30)
    P = 4
    h = _series(rng, 4, P)
    ts = _series(rng, 4, P, scale=0.6)
    k = kernels.conjugate_series(ts, h)
    u = kernels.u_coefficients(ts)

    def err(eps):
        ueval = sp.weighted_sum(u, eps)
        lhs = ueval.conj().T @ sp.eval_series(h, eps) @ ueval
        return sp.max_norm(lhs - sp.eval_series(k, eps))

    eps = 0.1
    assert err(eps) / err(eps / 2) >= 2 ** (P + 0.5)


def test_series_validation():
    with pytest.raises(ValueError, match="at least"):
        OperatorSeries(())
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="cap"):
        OperatorSeries(tuple(a for _ in range(64)))
    with pytest.raises(ValueError, match="dimension"):
        OperatorSeries((a, np.eye(3, dtype=complex)))
    with pytest.raises(ValueError, match="Hermitian"):
        OperatorSeries((np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),))
    with pytest.raises(ValueError, match="mismatch|order"):
        kernels.conjugate_series(OperatorSeries((a, a)), OperatorSeries((a,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_series_rejects_non_finite_entries(bad):
    # a NaN Hermiticity defect compares False, so the defect check alone
    # let such slots through
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match=r"coefficient 0 has a non-finite entry \(0, 0\)"):
        OperatorSeries((np.diag([bad, 1.0]), a))
    b = a.copy()
    b[1, 0] = b[0, 1] = bad
    with pytest.raises(ValueError, match=r"coefficient 2 has a non-finite entry \(0, 1\)"):
        OperatorSeries((a, a, b))


def test_series_constructor_symmetrizes():
    rng = np.random.default_rng(35)
    a = random_hermitian(rng, 4)
    a[1, 3] += 1e-12  # inside HERMITICITY_TOL
    s = OperatorSeries((a, a))
    for c in s.coeffs:
        assert sp.hermiticity_defect(c) == 0.0
        np.testing.assert_array_equal(c, sp.hermitian_part(a))


def test_series_norms_and_live_orders():
    a = np.array([[1.0, -3.0j], [3.0j, 0.5]])
    zero = np.zeros((2, 2))
    s = OperatorSeries((a, zero, 2.0 * a, zero))
    assert s.norms == (3.0, 0.0, 6.0, 0.0)
    assert s.live == [0, 2]


def _full_images(g, x, up_to):
    # the expansion maps with every term summed, zero or not: Y = sum of the
    # products G T for the anti-Hermitian generator slots G = iW/hbar,
    # taken to [G, T] = Y + Y^H once per image
    images = [np.array(x, dtype=complex)]
    for p in range(up_to):
        y = np.zeros_like(images[0])
        for l in range(p + 1):
            y += math.comb(p, l) * (g[l] @ images[p - l])
        images.append(y + y.conj().T)
    return images


def _full_conjugations(ts, h, hbar):
    """(Cauchy route, flow coefficients) at hbar without skipping."""
    P = h.order
    g = kernels.anti_hermitian(ts, hbar).coeffs
    images = [_full_images(g, h.coeffs[j], P - j) for j in range(P + 1)]
    cauchy, u = [], [np.eye(h.dim, dtype=complex)]
    for p in range(P + 1):
        kp = np.zeros_like(h.coeffs[0])
        for j in range(p + 1):
            kp += math.comb(p, j) * images[j][p - j]
        cauchy.append(kp)
    for p in range(P):
        nxt = np.zeros_like(u[0])
        for l in range(p + 1):
            nxt += math.comb(p, l) * (u[p - l] @ g[l])
        u.append(-nxt)
    return cauchy, u


@settings(max_examples=40)
@given(
    n=st.integers(1, 6),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    zero_w=st.sets(st.integers(0, 8)),
    zero_h=st.sets(st.integers(0, 8)),
)
def test_zero_slot_skipping_is_exact(n, order, seed, zero_w, zero_h):
    # skipping zero slots only leaves out exact zeros, so the results are
    # bit-identical to the recursions that sum every term
    rng = np.random.default_rng(seed)
    h = _series(rng, n, order, zero_slots=zero_h)
    ts = _series(rng, n, order, scale=0.5, zero_slots=zero_w)
    cauchy, u = _full_conjugations(ts, h, 0.7)
    for got, want in (
        (kernels.conjugate_series(ts, h, 0.7).coeffs, cauchy),
        (kernels.u_coefficients(ts, 0.7), u),
    ):
        assert len(got) == len(want)
        for g, r in zip(got, want):
            np.testing.assert_array_equal(g, r)


@settings(max_examples=60)
@given(
    n=st.integers(1, 6),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    zero_w=st.sets(st.integers(0, 8)),
    zero_h=st.sets(st.integers(1, 8)),
)
def test_levels_chain_matches_the_dense_diagonal_chain(n, order, seed, real, zero_w, zero_h):
    # the stage engine hands H_0 to the conjugation as its levels; G * levels is
    # G @ diag(levels) to the bit, so every K_p, p >= 1, equals the one the
    # dense diagonal slot gives, and K_0 is left zero
    rng = np.random.default_rng(seed)
    zero = np.zeros((n, n))

    def hermitian(sign):
        # real: a symmetric H_p, and W = iK for antisymmetric K, which gives
        # the real generator G = iW/hbar = -K/hbar
        if not real:
            return random_hermitian(rng, n)
        m = rng.standard_normal((n, n))
        return (m + m.T) / 2.0 if sign > 0 else 0.5j * (m - m.T)

    levels = rng.uniform(-3.0, 3.0, n)
    w = [zero if l in zero_w else 0.5 * hermitian(-1) for l in range(order + 1)]
    ggen = kernels.anti_hermitian(OperatorSeries(tuple(w)), 0.7)
    slots = [zero if p in zero_h else hermitian(1) for p in range(1, order + 1)]
    h = OperatorSeries((zero, *slots))
    dense = OperatorSeries((np.diag(levels),) + h.coeffs[1:])
    got = kernels.conjugate_slots(ggen, h, levels)
    want = kernels.conjugate_slots(ggen, dense)
    # None stands for a zero slot
    dtypes = {c.dtype for c in got + want if c is not None}
    assert len(dtypes) == 1
    assert dtypes == {np.dtype(np.float64)} or not real
    assert got[0] is None
    np.testing.assert_array_equal(want[0], np.diag(levels))
    for p in range(1, order + 1):
        np.testing.assert_array_equal(
            0.0 if got[p] is None else got[p], 0.0 if want[p] is None else want[p]
        )


def test_binomials_exact_small_orders():
    # the kernels read their binomials from this float64 table
    assert series._BINOM[6][3] == 20.0
    assert series._BINOM[0][0] == 1.0
    assert series._BINOM[62][31] == float(math.comb(62, 31))


def test_public_routes_run_real_for_an_imaginary_generator():
    # W = iK with K real antisymmetric gives the real generator G = iW/hbar:
    # a real series is then conjugated and flowed in real arithmetic, and
    # agrees with the complex reference route
    rng = np.random.default_rng(35)
    n, P = 5, 4

    def real_symmetric():
        m = rng.standard_normal((n, n))
        return (m + m.T) / 2.0

    def imaginary_hermitian():
        m = rng.standard_normal((n, n))
        return 0.3j * (m - m.T) / 2.0

    h = OperatorSeries(tuple(real_symmetric() for _ in range(P + 1)))
    gen = OperatorSeries(tuple(imaginary_hermitian() for _ in range(P + 1)))
    k = kernels.conjugate_series(gen, h, 0.8)
    assert {c.dtype for c in k.coeffs} == {np.dtype(np.float64)}
    assert {u.dtype for u in kernels.u_coefficients(gen, 0.8)} == {np.dtype(np.float64)}
    assert _kernel_images(gen, h.coeffs[1], 2, 0.8)[2].dtype == np.float64
    table = reference.conjugate_series_table(gen, h, 0.8)
    for c1, c2 in zip(k.coeffs, table.coeffs):
        scale = max(1.0, sp.max_norm(c1), sp.max_norm(c2))
        assert sp.max_norm(c1 - c2) <= 1e-11 * scale


@pytest.mark.parametrize("factor", [1.0, 2.0])
@pytest.mark.parametrize("eps", [0.05, -0.3, 0.0])
def test_lie_majorant_is_the_weighted_binomial_recursion(factor, eps):
    # w[k] = |eps|^k/k! M_k for M_0 = 1 and
    # M_{k+1} = factor sum_l C(k, l) ||G_{l+1}||_1 M_{k-l}, with the induced
    # 1-norm (largest column sum of moduli) of each generator slot
    # G = iW/hbar, that is ||W_{l+1}||_1 / hbar
    rng = np.random.default_rng(38)
    n, P, hbar = 4, 10, 0.7
    w = _series(rng, n, P, zero_slots=(0, 3, 4))
    ggen = kernels.anti_hermitian(w, hbar)
    g = [np.linalg.norm(c, 1) / hbar for c in w.coeffs]
    m = [1.0]
    for k in range(P):
        m.append(factor * sum(math.comb(k, l) * g[l] * m[k - l] for l in range(k + 1)))
    want = [abs(eps) ** k / math.factorial(k) * m[k] for k in range(P + 1)]
    np.testing.assert_allclose(series.lie_majorant(ggen, eps, factor), want, rtol=1e-13, atol=0)


def test_cut_drops_the_longest_tail_below_its_budget():
    weights = [1.0, 1e-3, 1e-20, 3e-21, 0.0]
    assert series._cut(weights, 10.0, 1, 1e-18) == (2, 10.0 * 3e-21 + 10.0 * 1e-20)
    assert series._cut(weights, 10.0, 3, 1e-18) == (3, 10.0 * 3e-21)
    assert series._cut(weights, 10.0, 1, 0.0) == (5, 0.0)
    assert series._cut(weights, 0.0, 0, 1e-18) == (0, 0.0)
    # a zero weight is a structural zero, dropped for free at any scale
    assert series._cut(weights, math.inf, 0, 1e-18) == (4, 0.0)


def test_chain_stops_keep_every_weighted_term_at_a_huge_eps():
    # the majorant and the leaves overflow to inf there, and an infinite
    # tail is never cut; only chain 5 loses a term, its structurally zero
    # T_1, which no generator slot reaches (slot 0 is zero)
    rng = np.random.default_rng(39)
    P = 6
    ggen = kernels.anti_hermitian(_series(rng, 3, P, zero_slots=(0, 4, 5, 6)))
    h = _series(rng, 3, P, zero_slots=(0, 1))
    stops, dropped = series.chain_stops(ggen, h, 2.0, 1e300, 1)
    assert dropped == 0.0
    assert stops == [P + 1, 0, 5, 4, 3, 1, 1]
    assert series.lie_majorant(ggen, 1e300, 1.0)[2:] == [math.inf] * (P - 1)
