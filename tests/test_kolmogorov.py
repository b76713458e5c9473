import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superpert as sp
from superpert import kolmogorov
from superpert.kolmogorov import default_n_stages

import reference
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
    np.testing.assert_array_equal(state.levels, 2.0 * np.arange(12) + 1.0)
    _check_h0_slot(state)
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
    np.testing.assert_allclose(np.diag(state.levels), h0 + 0.2 * v, atol=1e-15)
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


def test_step_beyond_truncation_raises():
    model = sp.build_quartic_oscillator(8)
    s1 = sp.step(sp.init(model, 0.1, 1))
    with pytest.raises(ValueError, match=r"^stage 2: .* at truncation order 1$"):
        sp.step(s1)


def test_order_past_the_cap_is_rejected_before_any_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran before the order check")

    monkeypatch.setattr(kolmogorov, "eigh", no_eigh)
    model = sp.build_quartic_oscillator(8)
    with pytest.raises(ValueError, match=rf"truncation order .*{sp.MAX_ORDER}, got"):
        sp.init(model, 0.1, sp.MAX_ORDER + 1)


def test_zero_eps_is_trivial():
    model = sp.build_quartic_oscillator(10)
    res = sp.run(model, 0.0, 4, n_stages=3)
    for stage in range(4):
        np.testing.assert_allclose(
            res.energies[stage], 2.0 * np.arange(10) + 1.0, atol=1e-12
        )
    np.testing.assert_allclose(res.eigenvectors, np.eye(10), atol=1e-12)


def test_integrable_part_stays_diagonal_for_diagonal_models(monkeypatch):
    # nondegenerate diagonal unperturbed part: every stage's averaged terms
    # are diagonal in the original basis, so the folded H_0 must be too
    folded = []
    real = kolmogorov._diagonalize_blocks

    def recording(h0, blocks, deg_tol):
        folded.append(h0.copy())
        return real(h0, blocks, deg_tol)

    monkeypatch.setattr(kolmogorov, "_diagonalize_blocks", recording)
    model = sp.build_quartic_oscillator(14)
    state = sp.init(model, 0.06, 4)
    for n in range(3):
        entering = state.levels
        state = sp.step(state)
        h0 = folded[n]
        off = h0 - np.diag(np.diag(h0))
        assert sp.max_norm(off) <= 1e-10 * sp.max_norm(h0)
        # the fold moved the levels, and they are the folded H_0's diagonal
        assert sp.max_norm(np.diag(h0) - entering) > 0.0
        np.testing.assert_array_equal(state.levels, np.diag(h0))
    assert len(folded) == 3


def test_unitary_equivalence_scaling():
    model = sp.build_quartic_oscillator(10)
    P = 4

    def equivalence_error(eps):
        state = sp.init(model, eps, P)
        for _ in range(3):
            state = sp.step(state)
        u = state.basis  # V0 prod U_n(eps) Q_n
        original = sp.eval_series(model.series(P), eps)
        transformed = sp.eval_series(state.series, eps) + np.diag(state.levels)
        return sp.max_norm(transformed - u.conj().T @ original @ u)

    # small enough that the O(eps^(P+1)) remainder dominates: at eps 0.2 the
    # flow is far from unitary and the error diverges instead
    eps = 0.02
    ratio = equivalence_error(eps) / equivalence_error(eps / 2)
    assert 2 ** (P + 0.5) <= ratio <= 2 ** (P + 1.5)


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


def test_default_stage_counts_and_bound():
    assert default_n_stages(1) == 1
    assert default_n_stages(2) == 2
    assert default_n_stages(3) == 2
    assert default_n_stages(4) == 3
    assert default_n_stages(7) == 3
    assert default_n_stages(8) == 4
    model = sp.build_quartic_oscillator(8)
    for n_stages in (0, 3, 10**100):
        with pytest.raises(ValueError, match=r"n_stages must be in 1\.\.2 .* order 2"):
            sp.run(model, 0.05, 2, n_stages=n_stages)


def test_consistency_error_message_names_stage(monkeypatch):
    # sabotage: a doubled generator does not solve the homological equation,
    # so the eliminated slot does not vanish and the slot check must catch it
    real = kolmogorov.average_diagonal

    def doubled(*args):
        averaged, a_window, min_gap = real(*args)
        return averaged, 2.0 * a_window, min_gap

    monkeypatch.setattr(kolmogorov, "average_diagonal", doubled)
    model = sp.build_quartic_oscillator(8)
    with pytest.raises(sp.ConsistencyError, match="^stage 1: "):
        sp.step(sp.init(model, 0.1, 2))


def test_one_averaging_call_per_stage(monkeypatch):
    calls = []
    real = kolmogorov.average_diagonal

    def counting(lam, blocks, bt, hbar, gap_guard):
        calls.append(bt.shape[0])
        return real(lam, blocks, bt, hbar, gap_guard)

    monkeypatch.setattr(kolmogorov, "average_diagonal", counting)
    state = sp.init(sp.build_quartic_oscillator(12), 0.05, 7)
    for _ in range(3):
        entering = sp.SpectralData(state.levels, np.eye(12), state.blocks)
        state = sp.step(state)
        assert state.history[-1].min_gap == reference.min_cross_block_gap(entering)
    # windows 1, 2..3 and 4..7; no slot is left for a fourth stage
    assert calls == [1, 2, 4]
    with pytest.raises(ValueError, match="^stage 4: "):
        sp.step(state)
    assert calls == [1, 2, 4]


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


def _random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m + m.T) / 2.0


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


def test_rotated_fully_degenerate_pair_stays_one_block():
    # rounding splits Q diag(1.5, 1.5) Q^H by about 1e-16; a tolerance taken
    # from the range of the levels (about 1e-25) used to cut that pair into
    # two blocks and the stage-1 slot check failed
    q = _random_unitary(np.random.default_rng(0), 2)
    v = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
    diagonal = sp.make_model(2, [(0, np.diag([1.5, 1.5])), (1, v)])
    rotated = _rotated(diagonal, q)
    lam = np.linalg.eigvalsh(rotated.coefficient(0))
    assert lam[0] != lam[1]
    state = sp.init(rotated, 0.05, 1)
    assert state.deg_tol == pytest.approx(1.5e-9)
    assert state.blocks.tolist() == [0, 0]
    got = sp.run(rotated, 0.05, 1)
    want = sp.run(diagonal, 0.05, 1)
    np.testing.assert_allclose(
        np.sort(got.energies[-1]), np.sort(want.energies[-1]), rtol=0, atol=1e-14
    )


def _random_rotated_model(rng, n, degenerate, real):
    """A random model with H_0 = Q diag(levels) Q^H, the levels paired up when
    degenerate, and a dense order-1 term, real symmetric or complex."""
    levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, size=n))
    if degenerate:
        levels = np.repeat(levels[: (n + 1) // 2], 2)[:n]
    if real:
        v = _random_symmetric(rng, n, scale=0.3)
        q = _random_orthogonal(rng, n)
    else:
        v = random_hermitian(rng, n, scale=0.3)
        q = _random_unitary(rng, n)
    v[0, -1] += 1e-12  # an asymmetry inside HERMITICITY_TOL
    base = sp.make_model(n, [(0, np.diag(levels)), (1, v)])
    return _rotated(base, q)


@settings(max_examples=60)
@given(
    n=st.integers(3, 8),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
)
def test_engine_series_are_hermitian_to_the_bit(n, order, seed, degenerate, real):
    # the one-product conjugation kernel is exact only on operands Hermitian
    # to the bit and generators anti-Hermitian to the bit: every slot the
    # engine builds must be the one and every generator the other, in real
    # arithmetic as in complex
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)
    seen = []
    real_conjugate = kolmogorov.conjugate_by

    def recording(gen, h, levels):
        seen.extend(gen.coeffs)
        return real_conjugate(gen, h, levels)

    def defects(mats):
        return {sp.hermiticity_defect(c) for c in mats}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "conjugate_by", recording)
        state = sp.init(model, 0.05, order)
        assert defects(state.series.coeffs) == {0.0}
        _check_h0_slot(state)
        for _ in range(default_n_stages(order)):
            state = sp.step(state)
            assert defects(state.series.coeffs) == {0.0}
            _check_h0_slot(state)
    assert len(seen) == default_n_stages(order) * (order + 1)
    assert {sp.max_norm(c + c.conj().T) for c in seen} == {0.0}


def _state_arrays(state):
    return [*state.series.coeffs, state.levels, state.blocks, state.basis]


def _check_shared_zeros(mats):
    # an array that fills several slots is a shared zero, and stays one
    by_id = {}
    for c in mats:
        by_id.setdefault(id(c), []).append(c)
    for group in by_id.values():
        if len(group) > 1:
            assert not group[0].any() and not group[0].flags.writeable


@settings(max_examples=40)
@given(
    n=st.integers(2, 8),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    hbar=st.sampled_from([1.0, 0.7]),
)
def test_run_and_step_leave_their_inputs_unchanged(n, order, seed, degenerate, real, hbar):
    # the stage kernels scale and sum in place: nothing they were given may
    # change (the model's terms, a state's slots, levels, blocks and basis,
    # a stage's generator slots), on the call that fills the model's memo
    # and on one that hits it
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)
    model = model.with_hbar(hbar)
    terms = [m.tobytes() for _, m in model.h_coeffs]
    assert not any(m.flags.writeable for _, m in model.h_coeffs)
    gens = []
    real_conjugate = kolmogorov.conjugate_by

    def recording(gen, h, levels):
        gens.append((gen.coeffs, [a.tobytes() for a in gen.coeffs]))
        return real_conjugate(gen, h, levels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "conjugate_by", recording)
        for _ in range(2):
            state = sp.init(model, 0.05, order)
            for _ in range(default_n_stages(order)):
                arrays = _state_arrays(state)
                before = [a.tobytes() for a in arrays]
                _check_shared_zeros(state.series.coeffs)
                state = sp.step(state)
                assert [a.tobytes() for a in arrays] == before
                _check_shared_zeros(arrays[:-3])
            _check_shared_zeros(state.series.coeffs)
            sp.run(model, 0.05, order)
            assert [m.tobytes() for _, m in model.h_coeffs] == terms
    assert len(gens) == 4 * default_n_stages(order)
    for coeffs, before in gens:
        assert [a.tobytes() for a in coeffs] == before
        _check_shared_zeros(coeffs)


def _counting(monkeypatch, name):
    """Count the engine's calls of kolmogorov.<name>."""
    calls = []
    real = getattr(kolmogorov, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(kolmogorov, name, counted)
    return calls


def _fresh(model):
    # the same terms in a new model, whose memo is empty
    return dataclasses.replace(model)


def _same_result(a, b):
    assert len(a.energies) == len(b.energies)
    assert all(np.array_equal(x, y) for x, y in zip(a.energies, b.energies))
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    assert a.eigenvectors.dtype == b.eigenvectors.dtype
    assert a.history == b.history


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("eps_list", [(0.02, 0.07), (0.07, 0.02)], ids=["up", "down"])
def test_memo_hit_matches_a_cold_run(real, eps_list, monkeypatch):
    rng = np.random.default_rng(58)
    model = _random_rotated_model(rng, 8, degenerate=True, real=real)
    eighs = _counting(monkeypatch, "eigh")
    averages = _counting(monkeypatch, "average_diagonal")
    for hit, eps in enumerate(eps_list):
        before = len(eighs), len(averages)
        warm = sp.run(model, eps, 8)
        # a hit makes no eigh of H_0 and averages stages 2..4 only
        assert (len(eighs), len(averages)) == (before[0] + 1 - hit, before[1] + 4 - hit)
        _same_result(warm, sp.run(_fresh(model), eps, 8))


def test_changed_tolerances_or_hbar_miss_the_memo(monkeypatch):
    model = sp.build_quartic_oscillator(12)
    eighs = _counting(monkeypatch, "eigh")
    calls = [
        (model, {}),
        (model, {"deg_tol": 1e-7}),
        (model, {"deg_tol": 1e-7, "gap_guard": 1e-9}),
        (model, {}),
        (model.with_hbar(0.5), {}),
    ]
    for m, kwargs in calls:
        before = len(eighs)
        got = sp.run(m, 0.05, 4, **kwargs)
        assert len(eighs) == before + 1
        sp.run(m, 0.05, 4, **kwargs)
        assert len(eighs) == before + 1
        _same_result(got, sp.run(_fresh(m), 0.05, 4, **kwargs))


def test_stage_one_small_denominator_raises_on_every_call(monkeypatch):
    h0 = np.diag([0.0, 1e-8, 1.0])
    model = sp.make_model(3, [(0, h0), (1, np.ones((3, 3)))])
    averages = _counting(monkeypatch, "average_diagonal")
    for i in (1, 2, 3):
        with pytest.raises(sp.SmallDenominatorError, match=r"^stage 1: small denominator"):
            sp.run(model, 0.1, 3)
        assert len(averages) == i
    # a guard that passes is a new memo entry, and the error is not kept
    sp.run(model, 0.1, 3, gap_guard=1e-9)
    with pytest.raises(sp.SmallDenominatorError, match=r"^stage 1: "):
        sp.run(model, 0.1, 3)


def _check_h0_slot(state):
    # H_0 is diag(state.levels) alone: slot 0 is a read-only zero, never live
    zero = state.series.coeffs[0]
    assert not zero.any() and not zero.flags.writeable
    assert state.series.norms[0] == 0.0 and 0 not in state.series.live


@pytest.mark.parametrize("degenerate", [False, True], ids=["plain", "degenerate"])
def test_series_norms_match_their_slots_after_every_step(degenerate):
    model = _random_rotated_model(np.random.default_rng(59), 7, degenerate, real=False)
    state = sp.init(model, 0.05, 8)
    assert state.series.norms == tuple(sp.max_norm(c) for c in state.series.coeffs)
    _check_h0_slot(state)
    for _ in range(default_n_stages(8)):
        state = sp.step(state)
        assert state.series.norms == tuple(sp.max_norm(c) for c in state.series.coeffs)
        _check_h0_slot(state)


def test_run_identical_across_blas_thread_counts():
    # the library path, cold and on a memo hit: LAPACK and the GEMMs may
    # block their reductions differently per thread count
    code = (
        "import hashlib, numpy as np, superpert as sp\n"
        "rng = np.random.default_rng(60)\n"
        "n = 48\n"
        "def herm(s):\n"
        "    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))\n"
        "    return s * (m + m.conj().T) / 2\n"
        "q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]\n"
        "h0 = (q * np.cumsum(1.0 + rng.uniform(size=n))) @ q.conj().T\n"
        "model = sp.make_model(n, [(0, h0), (1, herm(0.05)), (2, herm(0.05))])\n"
        "digest = hashlib.sha256()\n"
        "for eps in (0.02, 0.05, 0.02):\n"
        "    res = sp.run(model, eps, 8)\n"
        "    for e in res.energies:\n"
        "        digest.update(e.tobytes())\n"
        "    digest.update(res.eigenvectors.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


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


def test_overflowing_flow_is_named_by_its_stage():
    # eps**8 is still a float but the stage-1 flow at eps is not; the series
    # slots stay finite, so only the basis check sees it
    model = sp.build_quartic_oscillator(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="stage 1: the basis has a non-finite entry"):
            sp.run(model, 1e38, 8, n_stages=1)


def test_run_working_set_is_linear_in_order():
    # a stage holds each series' P + 1 slots and a window of images, not the
    # P^2/2 images of the whole Cauchy product; the bound lies between the
    # two, which trace about 3.3 and 16.9 (P + 1) matrices here
    rng = np.random.default_rng(57)
    d, P = 16, 32
    h0 = np.diag(np.arange(1.0, d + 1)).astype(complex)
    model = sp.make_model(
        d, [(0, h0), (1, random_hermitian(rng, d, 0.05)), (2, random_hermitian(rng, d, 0.05))]
    )
    assert model.h_coeffs[1][1].dtype == np.complex128
    tracemalloc.start()
    try:
        sp.run(model, 0.05, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (P + 1) * d * d * 16


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
     ("gap_guard", -1e-6), ("order", 0), ("order", -1)],
    ids=["eps", "deg_tol", "gap_guard", "gap_guard_negative", "order", "order_negative"],
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


def _as_complex(model):
    # the same model held in complex128: ModelSpec built directly keeps the
    # dtype, where the validating constructors would store it as float64
    return dataclasses.replace(
        model,
        h_coeffs=tuple((p, m.astype(np.complex128)) for p, m in model.h_coeffs),
    )


@settings(max_examples=30)
@given(
    n=st.integers(2, 10),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    rotate=st.booleans(),
    second_order=st.booleans(),
)
def test_real_path_matches_the_complex_path(n, order, seed, rotate, second_order):
    rng = np.random.default_rng(seed)
    levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, size=n))
    terms = [(0, np.diag(levels)), (1, _random_symmetric(rng, n, scale=0.3))]
    if second_order:
        terms.append((2, _random_symmetric(rng, n, scale=0.3)))
        order = max(order, 2)
    model = sp.make_model(n, terms)
    if rotate:
        model = _rotated(model, _random_orthogonal(rng, n))
    assert {m.dtype for _, m in model.h_coeffs} == {np.dtype(np.float64)}
    forced = _as_complex(model)
    real = sp.run(model, 0.05, order)
    cplx = sp.run(forced, 0.05, order)
    assert real.eigenvectors.dtype == np.float64
    assert cplx.eigenvectors.dtype == np.complex128
    for e_real, e_cplx in zip(real.energies, cplx.energies):
        np.testing.assert_allclose(e_real, e_cplx, rtol=1e-12, atol=0)
    overlap = np.abs(np.sum(real.eigenvectors.conj() * cplx.eigenvectors, axis=0))
    assert overlap.min() >= 1.0 - 1e-12


def _stage_dtypes(model, order, monkeypatch):
    """(dtypes of every series slot, basis and generator slot, the generator
    slots) over a full run of init and steps."""
    gens = []
    conjugate_by = kolmogorov.conjugate_by

    def recording(gen, h, levels):
        gens.extend(gen.coeffs)
        return conjugate_by(gen, h, levels)

    monkeypatch.setattr(kolmogorov, "conjugate_by", recording)
    state = sp.init(model, 0.05, order)
    dtypes = {c.dtype for c in state.series.coeffs} | {state.basis.dtype}
    for _ in range(default_n_stages(order)):
        state = sp.step(state)
        dtypes |= {c.dtype for c in state.series.coeffs} | {state.basis.dtype}
    return dtypes | {a.dtype for a in gens}, gens


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_engine_runs_in_the_dtype_of_the_model(real, monkeypatch):
    if real:
        model, dtype = sp.build_quartic_oscillator(12), np.dtype(np.float64)
    else:
        rng = np.random.default_rng(55)
        model = random_diagonal_model(rng, 6, gap=1.0, v_scale=0.4)
        dtype = np.dtype(np.complex128)
    assert {m.dtype for _, m in model.h_coeffs} == {dtype}
    assert model.coefficient(3).dtype == dtype  # an absent order
    dtypes, gens = _stage_dtypes(model, 8, monkeypatch)
    assert dtypes == {dtype}
    # A = -iW for the Hermitian generator W: anti-Hermitian to the bit, which
    # for a real model is A + A^T == 0
    assert {sp.max_norm(a + a.conj().T) for a in gens} == {0.0}
    assert any(a.any() for a in gens)
    assert sp.run(model, 0.05, 8).eigenvectors.dtype == dtype
