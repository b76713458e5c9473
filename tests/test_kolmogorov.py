import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superpert as sp
from superpert import kolmogorov
from superpert.kolmogorov import default_n_stages

from conftest import random_diagonal_model, random_hermitian


def _quartic_closed_forms(model, eps):
    """The first eliminated slots written out as explicit nested commutators,
    built from the averaging primitives only (no series machinery)."""
    hbar = model.hbar
    h0 = model.coefficient(0)
    v = model.coefficient(1)

    def ad(w, x):
        return sp.commutator_ad(w, x, hbar)

    first = sp.average(sp.eigh(h0), v, hbar)
    w1, vbar = first.s_of_b, first.b_bar
    h12 = ad(w1, vbar + v)
    h13 = ad(w1, ad(w1, vbar + 2.0 * v))
    second = sp.average(sp.eigh(h0 + eps * vbar), h12, hbar)
    w2, h12bar = second.s_of_b, second.b_bar
    h24 = ad(w1, ad(w1, ad(w1, vbar + 3.0 * v))) + 3.0 * ad(w2, h12bar + h12)
    return h12, h13, h24


def test_init_layout():
    model = sp.build_quartic_oscillator(12)
    state = sp.init(model, 0.1, 4)
    assert state.stage == 0 and state.order == 4
    np.testing.assert_array_equal(
        state.series.coeffs[0], np.diag(2.0 * np.arange(12) + 1.0)
    )
    np.testing.assert_array_equal(state.series.coeffs[1], model.coefficient(1))
    for p in (2, 3, 4):
        assert sp.max_norm(state.series.coeffs[p]) == 0.0
    other = sp.init(model, 0.2, 4)
    assert other.eps == 0.2 and state.eps == 0.1
    np.testing.assert_array_equal(other.series.coeffs[1], state.series.coeffs[1])
    with pytest.raises(ValueError, match="order"):
        sp.init(model, 0.1, 0)


def test_diagonal_perturbation_needs_no_generator():
    h0 = np.diag([0.0, 1.0, 2.5]).astype(complex)
    v = np.diag([0.3, -0.2, 0.1]).astype(complex)
    model = sp.make_model(3, [(0, h0), (1, v)])
    state = sp.step(sp.init(model, 0.2, 3))
    for norm in state.history[0].generator_norms:
        assert norm == 0.0
    np.testing.assert_allclose(state.series.coeffs[0], h0 + 0.2 * v, atol=1e-15)
    for p in range(1, 4):
        assert sp.max_norm(state.series.coeffs[p]) == 0.0


def test_generators_respect_stage_windows():
    model = sp.build_quartic_oscillator(12)
    state = sp.init(model, 0.05, 7)
    for n in (1, 2, 3):
        state = sp.step(state)
        gen_norms = state.history[n - 1].generator_norms
        lo, hi = 2 ** (n - 1), min(2**n - 1, 7)
        for l, norm in enumerate(gen_norms):
            p = l + 1
            if not lo <= p <= hi:
                assert norm == 0.0


def test_eliminated_slots_match_closed_forms():
    model = sp.build_quartic_oscillator(24)
    eps = 0.08
    h12, h13, h24 = _quartic_closed_forms(model, eps)
    s1 = sp.step(sp.init(model, eps, 4))
    for engine, ref in ((s1.series.coeffs[2], h12), (s1.series.coeffs[3], h13)):
        assert sp.max_norm(engine - ref) <= 1e-10 * max(1.0, sp.max_norm(ref))
    s2 = sp.step(s1)
    assert sp.max_norm(s2.series.coeffs[4] - h24) <= 1e-10 * max(1.0, sp.max_norm(h24))


def test_order_doubling_zeroes_slots():
    model = sp.build_quartic_oscillator(12)
    state = sp.init(model, 0.05, 7)
    for n in (1, 2, 3):
        state = sp.step(state)
        for p in range(1, min(2**n, 8)):
            assert sp.max_norm(state.series.coeffs[p]) == 0.0
        info = state.history[-1]
        assert info.slot_residual <= 1e-10 * info.series_scale


def test_step_beyond_truncation_is_noop():
    model = sp.build_quartic_oscillator(8)
    s1 = sp.step(sp.init(model, 0.1, 1))
    s2 = sp.step(s1)
    np.testing.assert_array_equal(s1.series.coeffs[0], s2.series.coeffs[0])
    assert s2.history[-1].min_gap == float("inf")


def test_zero_eps_is_trivial():
    model = sp.build_quartic_oscillator(10)
    res = sp.run(model, 0.0, 4, n_stages=3)
    for stage in range(4):
        np.testing.assert_allclose(
            res.energies[stage], 2.0 * np.arange(10) + 1.0, atol=1e-12
        )
    np.testing.assert_allclose(res.eigenvectors, np.eye(10), atol=1e-12)


def test_integrable_part_stays_diagonal_for_diagonal_models():
    # nondegenerate diagonal unperturbed part: every stage's averaged terms
    # are diagonal in the original basis, so the integrable part must be too
    model = sp.build_quartic_oscillator(14)
    state = sp.init(model, 0.06, 4)
    for _ in range(3):
        state = sp.step(state)
        h0 = state.series.coeffs[0]
        off = h0 - np.diag(np.diag(h0))
        assert sp.max_norm(off) <= 1e-10 * sp.max_norm(h0)


def test_unitary_equivalence_scaling():
    model = sp.build_quartic_oscillator(10)
    P = 4

    def equivalence_error(eps):
        state = sp.init(model, eps, P)
        for _ in range(3):
            state = sp.step(state)
        u = state.basis  # V0 prod U_n(eps) Q_n
        original = sp.eval_series(model.series(P), eps)
        transformed = sp.eval_series(state.series, eps)
        return sp.max_norm(transformed - u.conj().T @ original @ u)

    eps = 0.2
    assert equivalence_error(eps) / equivalence_error(eps / 2) >= 2 ** (P + 0.5)


def test_eigenvector_residual_shrinks_with_eps():
    model = sp.build_quartic_oscillator(14)

    def residual(eps):
        res = sp.run(model, eps, 4, n_stages=3)
        h = sp.eval_series(model.series(4), eps)
        v0 = res.eigenvectors[:, 0]
        return float(np.linalg.norm(h @ v0 - res.energies[-1][0] * v0))

    assert residual(0.04) / residual(0.02) >= 4.0


def test_energy_labels_follow_crossings():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    v = np.diag([2.0, 0.0]).astype(complex)
    model = sp.make_model(2, [(0, h0), (1, v)])
    res = sp.run(model, 0.7, 2, n_stages=1)
    # level 0 rises linearly through the crossing at eps = 0.5
    assert res.energies[1][0] == pytest.approx(1.4)
    assert res.energies[1][1] == pytest.approx(1.0)


def test_run_on_random_dense_models():
    rng = np.random.default_rng(50)
    model = random_diagonal_model(rng, 6, gap=1.0, v_scale=0.5)
    res = sp.run(model, 0.05, 4)
    exact = np.linalg.eigvalsh(
        model.coefficient(0) + 0.05 * model.coefficient(1)
    )
    np.testing.assert_allclose(res.energies[-1], exact, atol=1e-5)
    assert res.max_slot_residual <= 1e-10 * max(
        info.series_scale for info in res.history
    )


def test_default_stage_counts_and_warning():
    assert default_n_stages(1) == 1
    assert default_n_stages(2) == 2
    assert default_n_stages(3) == 2
    assert default_n_stages(4) == 3
    assert default_n_stages(7) == 3
    assert default_n_stages(8) == 4
    model = sp.build_quartic_oscillator(8)
    with pytest.warns(UserWarning, match="no-ops"):
        sp.run(model, 0.05, 2, n_stages=4)
    with pytest.raises(ValueError, match="n_stages"):
        sp.run(model, 0.05, 2, n_stages=0)


def test_consistency_error_message_names_stage():
    # sabotage: a state whose levels disagree with its series makes the
    # homological solution invalid, which the slot check must catch
    model = sp.build_quartic_oscillator(8)
    state = sp.init(model, 0.1, 2)
    bad = dataclasses.replace(state, levels=2.0 * state.levels)
    with pytest.raises(sp.ConsistencyError, match="stage 1"):
        sp.step(bad)


def test_one_averaging_call_per_stage(monkeypatch):
    calls = []
    real = kolmogorov.average_diagonal

    def counting(lam, blocks, bt, hbar, gap_guard):
        calls.append(bt.shape[0])
        return real(lam, blocks, bt, hbar, gap_guard)

    monkeypatch.setattr(kolmogorov, "average_diagonal", counting)
    state = sp.init(sp.build_quartic_oscillator(12), 0.05, 7)
    for _ in range(4):
        entering = sp.SpectralData(state.levels, np.eye(12), state.blocks)
        state = sp.step(state)
        if state.stage < 4:
            assert state.history[-1].min_gap == sp.min_cross_block_gap(entering)
    # windows 1, 2..3 and 4..7; the fourth stage has no slot left
    assert calls == [1, 2, 4]
    assert state.history[-1].min_gap == float("inf")


def test_small_denominator_names_the_stage():
    h0 = np.diag([0.0, 1e-8, 1.0]).astype(complex)
    model = sp.make_model(3, [(0, h0), (1, np.ones((3, 3), dtype=complex))])
    with pytest.raises(sp.SmallDenominatorError, match=r"^stage 1: small denominator") as err:
        sp.run(model, 0.1, 3, n_stages=2)
    assert "order" not in str(err.value)
    assert err.value.indices == (0, 1)


def _rotated(model, q):
    return sp.make_model(
        model.dim, [(p, q @ m @ q.conj().T) for p, m in model.h_coeffs]
    )


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0]


def test_rotated_doubly_degenerate_unperturbed_part():
    rng = np.random.default_rng(52)
    levels = np.repeat([1.0, 2.5, 3.7, 5.2], 2)
    base = sp.make_model(
        8, [(0, np.diag(levels)), (1, random_hermitian(rng, 8, scale=0.1))]
    )
    model = _rotated(base, _random_unitary(rng, 8))
    eps = 0.05
    res = sp.run(model, eps, 8, n_stages=4)
    h = model.coefficient(0) + eps * model.coefficient(1)
    np.testing.assert_allclose(
        np.sort(res.energies[-1]), np.linalg.eigvalsh(h), rtol=0, atol=1e-9
    )
    vecs = res.eigenvectors
    residual = np.linalg.norm(h @ vecs - vecs * res.energies[-1], axis=0)
    assert residual.max() <= 1e-9


def test_degenerate_block_labels_follow_overlap():
    # the degenerate pair splits at stage 1 into 1 + eps*sqrt(1.01) on label 0
    # and 1 - eps*sqrt(1.01) on label 1: labels follow levels, not energy order
    h0 = np.diag([1.0, 1.0, 3.0])
    v = np.array([[1.0, 0.1, 0.2], [0.1, -1.0, 0.3], [0.2, 0.3, 0.0]])
    model = sp.make_model(3, [(0, h0), (1, v)])
    eps = 0.05
    res = sp.run(model, eps, 8, n_stages=4)
    h = h0 + eps * v
    vals, vecs = np.linalg.eigh(h)
    labels = np.argmax(np.abs(vecs), axis=0)
    assert sorted(labels) == [0, 1, 2]
    expected = np.empty(3)
    expected[labels] = vals
    assert expected[0] > expected[1]
    np.testing.assert_allclose(res.energies[-1], expected, rtol=0, atol=1e-10)
    residual = np.linalg.norm(
        h @ res.eigenvectors - res.eigenvectors * expected, axis=0
    )
    assert residual.max() <= 1e-9


def test_overflowing_series_is_rejected():
    rng = np.random.default_rng(54)
    h0 = np.diag([0.0, 1.0, 2.0, 3.5])
    model = sp.make_model(4, [(0, h0), (1, 1e150 * random_hermitian(rng, 4))])
    with pytest.raises(ValueError, match="stage 1: .*non-finite"), np.errstate(all="ignore"):
        sp.run(model, 1.0, 4)


def test_run_is_unitarily_invariant():
    rng = np.random.default_rng(53)
    diagonal = random_diagonal_model(rng, 6, gap=1.0, v_scale=0.4)
    q = _random_unitary(rng, 6)
    eps = 0.05
    plain = sp.run(diagonal, eps, 8)
    rotated = sp.run(_rotated(diagonal, q), eps, 8)
    for stage in range(len(plain.energies)):
        np.testing.assert_allclose(
            rotated.energies[stage], plain.energies[stage], rtol=0, atol=1e-10
        )
    # equal up to one phase per column
    expected = q @ plain.eigenvectors
    overlap = np.abs(np.sum(expected.conj() * rotated.eigenvectors, axis=0))
    np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "param, bad",
    [("eps", float("nan")), ("deg_tol", float("nan")), ("gap_guard", float("inf")),
     ("gap_guard", -1e-6)],
    ids=["eps", "deg_tol", "gap_guard", "gap_guard_negative"],
)
def test_run_rejects_bad_parameter(param, bad):
    model = sp.build_quartic_oscillator(8)
    kwargs = {"eps": 0.1, "order": 4, param: bad}
    with pytest.raises(ValueError, match=param):
        sp.run(model, **kwargs)
    with pytest.raises(ValueError, match=param):
        sp.init(model, **kwargs)


@pytest.mark.parametrize("module", ["superpert", "superpert.cli"])
def test_import_loads_no_scipy(module):
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        f"import sys, {module}; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
