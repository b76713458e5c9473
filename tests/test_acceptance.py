"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.  Run with `pytest -v -s
tests/test_acceptance.py` to see the lines."""

import time

import numpy as np
import pytest

import superpert as sp

import kernels
import reference
from conftest import random_diagonal_model, random_hermitian

QUARTIC_RS_GROUND = (3.0 / 4.0, -21.0 / 16.0, 333.0 / 64.0, -30885.0 / 1024.0)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _su_ground_closed_form(eps):
    """Fourth-order staged result for the quartic ground state: cubic part
    plus the resummed rational fourth-order term."""
    cubic = 1.0 + 0.75 * eps - 21.0 / 16.0 * eps**2 + 333.0 / 64.0 * eps**3
    num = 3.0 * (
        1317760.0 + 12935472.0 * eps + 36433368.0 * eps**2 + 25183305.0 * eps**3
    )
    den = 2048.0 * (4.0 + 9.0 * eps) * (4.0 + 15.0 * eps) * (4.0 + 21.0 * eps)
    return cubic - num / den * eps**4


def test_criterion_1_rs_quartic_coefficients():
    model = sp.build_quartic_oscillator(32)
    start = time.perf_counter()
    h0 = sp.eigh(model.coefficient(0))
    rs = sp.rs_corrections(h0, model.coefficient(1), max_order=4, levels=0)
    elapsed = time.perf_counter() - start
    got = rs.coefficients(0)
    rel = max(
        abs(g - w) / abs(w) for g, w in zip(got, QUARTIC_RS_GROUND)
    )
    ok = rel <= 1e-9 and elapsed < 1.0
    _report(
        "1 rs-quartic-coefficients",
        ok,
        f"worst rel err {rel:.3e}, runtime {elapsed:.3f}s",
    )


def test_criterion_2_su_fourth_order_closed_form():
    model = sp.build_quartic_oscillator(32)
    start = time.perf_counter()
    worst = 0.0
    for eps in (0.01, 0.05, 0.1):
        res = sp.run(model, eps, 4, n_stages=3)
        worst = max(worst, abs(res.energies[-1][0] - _su_ground_closed_form(eps)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(
        "2 su-closed-form-ground-state",
        ok,
        f"worst abs err {worst:.3e}, runtime {elapsed:.3f}s",
    )


def test_criterion_3_su_equals_rs_through_order_3():
    def worst_gap(model, eps_values, levels):
        h0 = sp.eigh(model.coefficient(0))
        rs = sp.rs_corrections(h0, model.coefficient(1), max_order=3, levels=levels)
        gap = 0.0
        for eps in eps_values:
            res = sp.run(model, eps, 3, n_stages=2)
            for j in levels:
                e_su = res.energies[-1][j]
                e_rs = rs.energy(eps, j, 3)
                gap = max(gap, abs(e_su - e_rs) / max(1.0, abs(e_rs)))
        return gap

    worst = worst_gap(sp.build_quartic_oscillator(16), (0.02, 0.1), range(8))
    rng = np.random.default_rng(100)
    for _ in range(10):
        model = random_diagonal_model(rng, 8, gap=0.7, v_scale=0.8)
        worst = max(worst, worst_gap(model, (0.05,), range(8)))
    ok = worst <= 1e-10
    _report("3 su-matches-rs-to-third-order", ok, f"worst rel gap {worst:.3e}")


def test_criterion_4_su_beats_rs_at_desk_scale():
    model = sp.build_quartic_oscillator(150)
    h0 = model.coefficient(0)
    v = model.coefficient(1)
    rs = sp.rs_corrections(sp.eigh(h0), v, max_order=4, levels=0)
    details = []
    ok = True
    for eps in (0.1, 0.2):
        exact = np.linalg.eigvalsh(h0 + eps * v)[0]
        # absolute guard: at dim 150 the top of the truncated quartic spectrum
        # inflates the range-relative default far beyond the low-lying gaps
        su = sp.run(model, eps, 4, n_stages=3, gap_guard=1e-6).energies[-1][0]
        su_err = abs(su - exact)
        rs_err = abs(rs.energy(eps, 0, 4) - exact)
        ok = ok and su_err < rs_err
        details.append(f"eps={eps}: |su-exact|={su_err:.3e} |rs4-exact|={rs_err:.3e}")
    _report("4 su-beats-rs4", ok, "; ".join(details))


def test_criterion_5_averaging_lemma_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        hbar = float(rng.uniform(0.4, 1.8))
        a = random_hermitian(rng, n, scale=rng.uniform(0.5, 3.0))
        b = random_hermitian(rng, n, scale=rng.uniform(0.5, 3.0))
        spectral = sp.eigh(a)
        res = kernels.average(spectral, b, hbar)
        scale = max(sp.max_norm(b), 1e-300)
        e1 = sp.max_norm(reference.commutator_ad(res.b_bar, a, hbar)) / scale
        e2 = (
            sp.max_norm(
                reference.commutator_ad(res.s_of_b, a, hbar) - (res.b_bar - b)
            )
            / scale
        )
        worst = max(worst, e1, e2)
    ok = worst <= 1e-11
    _report("5 averaging-lemma-identities", ok, f"worst scaled residual {worst:.3e}")


def test_criterion_6_order_doubling():
    model = sp.build_quartic_oscillator(24)
    h0 = model.coefficient(0)
    v = model.coefficient(1)
    P = 7

    slot_ok = True
    residual_detail = 0.0
    state = sp.init(model, 0.04, P)
    for n in (1, 2, 3):
        state = sp.step(state)
        for p in range(1, min(2**n, P + 1)):
            slot_ok = slot_ok and sp.max_norm(state.series.coeffs[p]) <= (
                1e-10 * state.history[-1].series_scale
            )
        residual_detail = max(
            residual_detail,
            state.history[-1].slot_residual / state.history[-1].series_scale,
        )

    ratios = []
    scaling_ok = True
    for n in (1, 2, 3):
        errs = []
        for eps in (0.04, 0.02):
            exact = np.linalg.eigvalsh(h0 + eps * v)[0]
            res = sp.run(model, eps, P, n_stages=n)
            errs.append(abs(res.energies[-1][0] - exact))
        ratio = errs[0] / errs[1]
        ratios.append(ratio)
        scaling_ok = scaling_ok and ratio >= 2 ** (2**n - 0.5)

    ok = slot_ok and scaling_ok
    _report(
        "6 order-doubling",
        ok,
        f"slot residual/scale {residual_detail:.3e}; halving ratios "
        + ", ".join(
            f"stage {n}: {r:.1f} (need {2 ** (2 ** n - 0.5):.1f})"
            for n, r in zip((1, 2, 3), ratios)
        ),
    )


def test_criterion_7_closed_form_cross_checks():
    model = sp.build_quartic_oscillator(24)
    eps = 0.08
    h0 = model.coefficient(0)
    v = model.coefficient(1)

    def ad(w, x):
        return reference.commutator_ad(w, x)

    first = kernels.average(sp.eigh(h0), v)
    w1, vbar = first.s_of_b, first.b_bar
    h12 = ad(w1, vbar + v)
    h13 = ad(w1, ad(w1, vbar + 2.0 * v))
    second = kernels.average(sp.eigh(h0 + eps * vbar), h12)
    w2, h12bar = second.s_of_b, second.b_bar
    h24 = ad(w1, ad(w1, ad(w1, vbar + 3.0 * v))) + 3.0 * ad(w2, h12bar + h12)

    s1 = sp.step(sp.init(model, eps, 4))
    s2 = sp.step(s1)
    rel = max(
        sp.max_norm(s1.series.coeffs[2] - h12) / sp.max_norm(h12),
        sp.max_norm(s1.series.coeffs[3] - h13) / sp.max_norm(h13),
        sp.max_norm(s2.series.coeffs[4] - h24) / sp.max_norm(h24),
    )
    ok = rel <= 1e-10
    _report("7 commutator-closed-forms", ok, f"worst rel deviation {rel:.3e}")


def test_criterion_8_conjugation_consistency():
    rng = np.random.default_rng(102)
    worst = 0.0
    for P in range(1, 7):
        h_coeffs = tuple(random_hermitian(rng, 4) for _ in range(P + 1))
        w_coeffs = tuple(random_hermitian(rng, 4, scale=0.7) for _ in range(P + 1))
        h = sp.OperatorSeries(h_coeffs)
        ts = sp.OperatorSeries(w_coeffs)
        k1 = kernels.conjugate_series(ts, h, 0.9)
        k2 = reference.conjugate_series_table(ts, h, 0.9)
        for p in range(P + 1):
            scale = max(1.0, sp.max_norm(k1.coeffs[p]))
            worst = max(worst, sp.max_norm(k1.coeffs[p] - k2.coeffs[p]) / scale)
    routes_ok = worst <= 1e-11

    P = 4
    h = sp.OperatorSeries(tuple(random_hermitian(rng, 4) for _ in range(P + 1)))
    ts = sp.OperatorSeries(tuple(random_hermitian(rng, 4, scale=0.6) for _ in range(P + 1)))
    k = kernels.conjugate_series(ts, h)
    u = kernels.u_coefficients(ts)

    def err(eps):
        ueval = sp.weighted_sum(u, eps)
        lhs = ueval.conj().T @ sp.eval_series(h, eps) @ ueval
        return sp.max_norm(lhs - sp.eval_series(k, eps))

    ratio = err(0.1) / err(0.05)
    unitary_ok = ratio >= 2 ** (P + 0.5)
    ok = routes_ok and unitary_ok
    _report(
        "8 conjugation-consistency",
        ok,
        f"route gap {worst:.3e}; truncated-flow halving ratio {ratio:.1f} "
        f"(need {2 ** (P + 0.5):.1f})",
    )
