import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superpert as sp
from superpert import cli, kolmogorov, linalg, series
from superpert.kolmogorov import default_n_stages

import kernels
import reference
from conftest import random_diagonal_model, random_hermitian


def _quartic_closed_forms(model, eps):
    """The first eliminated slots written out as explicit nested commutators,
    built from the averaging primitives only (no series machinery)."""
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
    # are diagonal in the original basis, so the folded H_0 must be too; the
    # averages are their diagonals, one (d, 1, 1) stack, which the stage adds
    # to the levels with no dense H_0 and no block diagonalization (no q),
    # and it must give the dense fold's diagonal
    folds, rotations = [], []
    real = kolmogorov._fold

    def recording(state, groups, averaged):
        folds.append(averaged)
        out = real(state, groups, averaged)
        rotations.append(out[2])
        return out

    monkeypatch.setattr(kolmogorov, "_fold", recording)
    model = sp.build_quartic_oscillator(14)
    state = sp.init(model, 0.06, 4)
    for n in range(3):
        entering = state.levels
        state = sp.step(state)
        h0 = np.diag(entering)
        for p, (avg,) in folds[n].items():
            assert avg.shape == (len(entering), 1, 1)  # the diagonal alone
            h0 += series.weight(0.06, p) * np.diag(avg[:, 0, 0])
        off = h0 - np.diag(np.diag(h0))
        assert sp.max_norm(off) <= 1e-10 * sp.max_norm(h0)
        # the fold moved the levels, and they are the folded H_0's diagonal
        assert sp.max_norm(np.diag(h0) - entering) > 0.0
        np.testing.assert_array_equal(state.levels, np.diag(h0))
    assert len(folds) == 3
    assert rotations == [None] * 3


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
        return averaged, [2.0 * a for a in a_window], min_gap

    monkeypatch.setattr(kolmogorov, "average_diagonal", doubled)
    model = sp.build_quartic_oscillator(8)
    with pytest.raises(sp.ConsistencyError, match="^stage 1: "):
        sp.step(sp.init(model, 0.1, 2))


def test_one_averaging_call_per_stage(monkeypatch):
    calls = []
    real = kolmogorov.average_diagonal

    def counting(lam, blocks, groups, slots, gap_guard):
        calls.append(len(slots))
        return real(lam, blocks, groups, slots, gap_guard)

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
    real_conjugate = kolmogorov.conjugate_slots

    def recording(gen, h, *args, **kwargs):
        seen.extend(gen.coeffs)
        return real_conjugate(gen, h, *args, **kwargs)

    def defects(mats):
        return {sp.hermiticity_defect(c) for c in mats}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "conjugate_slots", recording)
        state = sp.init(model, 0.05, order)
        assert defects(state.series.coeffs) == {0.0}
        _check_h0_slot(state)
        for _ in range(default_n_stages(order)):
            state = sp.step(state)
            assert defects(state.series.coeffs) == {0.0}
            _check_h0_slot(state)
    # every stage conjugates, a generator with no live slot included
    assert len(seen) == len(state.history) * (order + 1)
    assert {sp.max_norm(c + c.conj().T) for c in seen} == {0.0}


def _live_generators(history):
    """The number of stages whose generator has a live slot: the stages that
    call flow_at."""
    return sum(any(info.generator_norms) for info in history)


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
)
def test_run_and_step_leave_their_inputs_unchanged(n, order, seed, degenerate, real):
    # the stage kernels scale and sum in place: nothing they were given may
    # change (the model's terms, a state's slots, levels, blocks and basis,
    # a stage's generator slots), on the call that fills the model's memo
    # and on one that hits it
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)
    terms = [m.tobytes() for _, m in model.h_coeffs]
    assert not any(m.flags.writeable for _, m in model.h_coeffs)
    gens, conjugating = [], 0
    real_conjugate = kolmogorov.conjugate_slots

    def recording(gen, h, *args, **kwargs):
        gens.append((gen.coeffs, [a.tobytes() for a in gen.coeffs]))
        return real_conjugate(gen, h, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "conjugate_slots", recording)
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
            res = sp.run(model, 0.05, order)
            assert [m.tobytes() for _, m in model.h_coeffs] == terms
            # one call per stage, but for stage 1 where it takes its slots
            # from the model's cache: every time after the first
            conjugating += len(state.history) + len(res.history) - 2
    assert len(gens) == conjugating + 1
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


def _slots(model):
    """The cache of stage 1's conjugated slots in model's one memo entry."""
    (start,) = model._memo.values()
    return start.slots


def _check_slot_cache(model, order):
    # at most 2(P + 1) slots for the largest order P run, each read-only,
    # and every array of stage 1's averaging read-only too
    cache = _slots(model)
    assert len(cache) <= 2 * (order + 1)
    for k, _ in cache.values():
        assert k is None or not k.flags.writeable
    (start,) = model._memo.values()
    if start.stage_one is not None:
        stage_one = start.stage_one
        arrays = [*stage_one.groups, *stage_one.generators.values()]
        arrays += [b for blocks in stage_one.averaged.values() for b in blocks]
        assert arrays and not any(a.flags.writeable for a in arrays)


def _stage_one_calls(monkeypatch):
    """Record, per stage 1 given the model's cache of slots, (the number of
    slots the cache held on entry, whether the stage conjugated)."""
    calls, conjugated = [], []
    real_step, real_conjugate = kolmogorov.step, kolmogorov.conjugate_slots

    def step(state):
        if state._start is None:
            return real_step(state)
        held, before = len(state._start.slots), len(conjugated)
        try:
            return real_step(state)
        finally:
            calls.append((held, len(conjugated) > before))

    def conjugate(*args):
        conjugated.append(args)
        return real_conjugate(*args)

    monkeypatch.setattr(kolmogorov, "step", step)
    monkeypatch.setattr(kolmogorov, "conjugate_slots", conjugate)
    return calls


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "eps_list", [(0.02, 0.07, 0.02), (0.07, 0.02, 0.07)], ids=["up", "down"]
)
def test_memo_hit_matches_a_cold_run(real, eps_list, monkeypatch):
    rng = np.random.default_rng(58)
    model = _random_rotated_model(rng, 8, degenerate=True, real=real)
    eighs = _counting(monkeypatch, "eigh")
    averages = _counting(monkeypatch, "average_diagonal")
    calls = _stage_one_calls(monkeypatch)
    for i, eps in enumerate(eps_list):
        before = len(eighs), len(averages)
        warm = sp.run(model, eps, 8)
        # a hit makes no eigh of H_0, and averages stages 2-4 alone: stage
        # 1's averaging is the memo's after the first run
        assert (len(eighs), len(averages)) == (before[0] + (i == 0), before[1] + 3 + (i == 0))
        _same_result(warm, sp.run(_fresh(model), eps, 8))
    # stage 1 of the first run starts from an empty cache and conjugates,
    # as do the cold runs on fresh models between the warm ones; the third
    # run is at the cut of the first, so it takes every slot from the cache
    first, cold, _, cold_again, third, cold_last = calls
    assert first == cold == cold_again == cold_last == (0, True)
    assert third[0] > 0 and not third[1]
    _check_slot_cache(model, 8)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_memo_hit_makes_no_stage_one_averaging_and_init_scans_nothing(real, monkeypatch):
    # once a stage 1 has finished on the model, a run at another eps takes
    # the terms' scans, stage 1's averages, generator, gap and block groups
    # from the memo: its init scans no slot and its stage 1 averages nothing
    model = _random_rotated_model(np.random.default_rng(70), 6, degenerate=True, real=real)
    sp.run(model, 0.05, 8)
    averages = _counting(monkeypatch, "average_diagonal")
    groups = _counting(monkeypatch, "block_groups")
    scanned = []
    real_norms = series.finite_norms

    def counted(a, what):
        scanned.append(what)
        return real_norms(a, what)

    monkeypatch.setattr(series, "finite_norms", counted)
    state = sp.init(model, 0.02, 8)
    assert scanned == []
    state = sp.step(state)
    assert averages == groups == []
    assert "generator slot A_1" not in scanned
    assert state.history[0] == sp.step(sp.init(_fresh(model), 0.02, 8)).history[0]
    _same_result(sp.run(model, 0.02, 8), sp.run(_fresh(model), 0.02, 8))
    _check_slot_cache(model, 8)


@pytest.mark.parametrize("eps_list", [(1e-4, 1e-3, 1e-2, 0.1), (0.1, 1e-2, 1e-3, 1e-4)], ids=["up", "down"])
def test_stage_one_images_past_the_cap_are_made_again(eps_list, monkeypatch):
    # the order-16 runs fill the cache past the 2(P + 1) = 10 slots an
    # order-4 run may add to, so an order-4 cut with a slot not there is
    # conjugated as a cold run does it, on every call, adds nothing, and
    # still gives what a cold run gives
    model = _random_rotated_model(np.random.default_rng(67), 6, degenerate=False, real=True)
    for eps in (0.5, 0.3, 0.2, 0.1):
        sp.run(model, eps, 16)
    held = len(_slots(model))
    assert held > 10
    calls = _stage_one_calls(monkeypatch)
    for eps in np.geomspace(eps_list[0], eps_list[-1], 10):
        for _ in range(2):
            _same_result(sp.run(model, eps, 4), sp.run(_fresh(model), eps, 4))
    assert len(_slots(model)) == held
    warm = calls[::2]  # the cold runs on fresh models come between them
    assert all(count == held for count, _ in warm)
    missed = [conjugated for _, conjugated in warm]
    assert any(missed) and not all(missed)
    assert missed[::2] == missed[1::2]  # a missed cut misses again
    _check_slot_cache(model, 16)


def test_stage_one_slot_cache_is_capped_and_read_only():
    # the slots do not depend on the order, so one cache serves them all;
    # it keeps at most 2(P + 1) slots for the largest P run, each read-only
    model = _random_rotated_model(np.random.default_rng(68), 8, degenerate=False, real=True)
    for order, eps in [(4, 0.3), (12, 0.05), (8, 0.3), (12, 0.5), (2, 0.5)]:
        _same_result(sp.run(model, eps, order), sp.run(_fresh(model), eps, order))
        _check_slot_cache(model, 12)
    assert len(_slots(model)) > 5


def _cache_model(kind):
    """A new dim-6 model for the slot cache's property test: "real" has
    one-level blocks, "paired" is complex and doubly degenerate, so that its
    stage 1 rotates the slots by the blocks' unitary q."""
    rng = np.random.default_rng(67)
    return _random_rotated_model(rng, 6, degenerate=kind == "paired", real=kind == "real")


def _outcome(model, eps, order):
    """(energies, eigenvectors, repr(history)) of a run, or the error it raises."""
    try:
        res = sp.run(model, eps, order)
    except ValueError as exc:
        return repr(exc)
    return res.energies, res.eigenvectors, repr(res.history)


@functools.lru_cache(maxsize=None)
def _cold_outcome(kind, eps, order):
    return _outcome(_cache_model(kind), eps, order)


_CACHE_EPS = [-0.3, -0.05, 1e-4, 2.2e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
_POSITIVE_EPS = [eps for eps in _CACHE_EPS if eps > 0]


@settings(max_examples=25)
@example(kind="real", runs=[(8, eps) for eps in _POSITIVE_EPS])  # rising
@example(kind="paired", runs=[(8, eps) for eps in _POSITIVE_EPS[::-1]])  # falling
@example(kind="paired", runs=[(4, 0.05), (4, 0.05), (4, -0.05), (4, -0.05)])
# order 16 fills the cache past the budget of an order-4 run, whose cut
# at 2.2e-4 then misses on every call
@example(kind="real", runs=[(16, eps) for eps in (0.5, 0.3, 0.2, 0.1)] + [(4, 2.2e-4)] * 2)
@given(
    kind=st.sampled_from(["real", "paired"]),
    runs=st.lists(
        st.tuples(st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from(_CACHE_EPS)),
        min_size=1,
        max_size=8,
    ),
)
def test_slot_cache_gives_cold_results_in_any_order(kind, runs):
    # runs in any order on one model, with its cache of stage 1's slots,
    # give to the bit what cold runs on new models give, errors included;
    # the cache stays within its budget, and each slot in it is read-only
    model = _cache_model(kind)
    top = 0
    for order, eps in runs:
        got, want = _outcome(model, eps, order), _cold_outcome(kind, eps, order)
        if isinstance(want, str):
            assert got == want
        else:
            assert all(np.array_equal(x, y) for x, y in zip(got[0], want[0]))
            assert len(got[0]) == len(want[0])
            assert np.array_equal(got[1], want[1]) and got[2] == want[2]
        top = max(top, order)
        _check_slot_cache(model, top)


def test_threads_sharing_one_model_match_serial_cold_runs():
    # four threads, more than the cores, fill and read one model's cache of
    # stage 1's slots at once, with thread switches forced often; a stage
    # adds its slots under one lock once it has finished, and no slot is
    # replaced, so every result is the one a cold run gives and the cache
    # keeps its budget
    eps_list = [0.02, 0.05, 0.1, 0.2]
    base = _random_rotated_model(np.random.default_rng(69), 8, degenerate=True, real=False)
    want = {eps: sp.run(_fresh(base), eps, 8) for eps in eps_list}
    n_threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            model = _fresh(base)
            barrier = threading.Barrier(n_threads)
            got = [[] for _ in range(n_threads)]

            def sweep(i):
                barrier.wait()
                for eps in eps_list[:: 1 - 2 * (i % 2)]:
                    res = sp.run(model, eps, 8)
                    got[i].append((eps, res.energies, res.eigenvectors))

            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [len(g) for g in got] == [4] * n_threads
            for eps, energies, vecs in sum(got, []):
                assert all(np.array_equal(x, y) for x, y in zip(energies, want[eps].energies))
                assert np.array_equal(vecs, want[eps].eigenvectors)
            _check_slot_cache(model, 8)
    finally:
        sys.setswitchinterval(interval)


def test_stage_one_failure_after_its_conjugation_raises_on_every_call(monkeypatch):
    # the order-1 term is so large that stage 1's images overflow and its
    # flow is not finite; a stage that fails adds no slot to the cache, so
    # a warm call conjugates again and gives the same error as a fresh model
    rng = np.random.default_rng(66)
    m = rng.standard_normal((6, 6))
    model = sp.make_model(6, [(0, np.diag(np.arange(6.0))), (1, 5e149 * (m + m.T))])
    calls = _stage_one_calls(monkeypatch)
    for target in (model, model, _fresh(model)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^stage 1: the basis has a non-finite entry$"):
                sp.run(target, 1e-140, 8)
    assert calls == [(0, True)] * 3
    assert _slots(model) == {}
    assert model._memo[(None, None)].stage_one is None


def test_changed_tolerances_or_hbar_miss_the_memo(monkeypatch):
    model = sp.build_quartic_oscillator(12)
    eighs = _counting(monkeypatch, "eigh")
    calls = [
        (model, {}),
        (model, {"deg_tol": 1e-7}),
        (model, {"deg_tol": 1e-7, "gap_guard": 1e-9}),
        (model, {}),
        (_fresh(model), {}),
    ]
    stage_one = _stage_one_calls(monkeypatch)
    for m, kwargs in calls:
        before = len(eighs)
        got = sp.run(m, 0.05, 4, **kwargs)
        assert len(eighs) == before + 1
        sp.run(m, 0.05, 4, **kwargs)
        assert len(eighs) == before + 1
        _same_result(got, sp.run(_fresh(m), 0.05, 4, **kwargs))
        # the new entry starts with an empty cache of stage 1's slots, and
        # the run that hits it takes every slot the miss left
        missed, hit, fresh = stage_one
        assert missed == fresh == (0, True)
        assert hit[0] > 0 and not hit[1]
        stage_one.clear()


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


@settings(max_examples=60)
@given(
    n=st.integers(2, 8),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    first=st.sampled_from([1, 2]),
    eps=st.sampled_from([1e-4, 0.05, 0.3]),
)
@example(n=4, order=4, seed=0, degenerate=True, real=True, first=2, eps=0.05)
def test_every_state_labels_its_levels_by_their_degeneracy_blocks(
    n, order, seed, degenerate, real, first, eps
):
    # the rule behind _fold's early exit: every state's blocks are
    # degeneracy_blocks(levels, deg_tol), so a stage with nothing to fold
    # keeps its input's blocks.  With the perturbation at order 2, stage 1
    # averages nothing and keeps H_0's degenerate blocks; at eps 1e-4 the
    # later stages' windows are cut empty, and a pair that order 2 splits
    # by less than the guard raises, with no state to check
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)
    if first == 2:
        model = sp.make_model(n, [(0, model.coefficient(0)), (2, model.coefficient(1))])
        order = max(order, 2)
    for _ in ("cold", "warm"):
        state = sp.init(model, eps, order)
        while True:
            blocks = linalg.degeneracy_blocks(state.levels, state.deg_tol)
            assert np.array_equal(state.blocks, blocks)
            if state.stage == default_n_stages(order):
                break
            try:
                state = sp.step(state)
            except sp.SmallDenominatorError:
                break


def test_a_stage_whose_series_has_no_live_slot_folds_and_scans_nothing(monkeypatch):
    # diagonal H_0 and H_1: stage 1 folds H_1 into the levels and leaves no
    # live slot, and the degenerate pair stays one block.  Stage 2 then
    # averages nothing, so it finds no blocks and scans no slot, yet returns
    # levels of its own and still guards its denominators
    h0 = np.diag([0.0, 1.0, 1.0, 2.5])
    h1 = np.diag([0.1, 0.2, 0.2, -0.3])
    model = sp.make_model(4, [(0, h0), (1, h1)])
    state = sp.step(sp.init(model, 0.1, 3, deg_tol=1e-12, gap_guard=1e-6))
    assert state.series.live == [] and state.blocks.tolist() == [0, 1, 1, 2]

    def forbidden(*args, **kwargs):
        raise AssertionError("called on a stage with no live slot")

    monkeypatch.setattr(kolmogorov, "degeneracy_blocks", forbidden)
    monkeypatch.setattr(series, "finite_norms", forbidden)
    nxt = sp.step(state)
    assert nxt.levels is not state.levels and nxt.blocks is not state.blocks
    assert np.array_equal(nxt.levels, state.levels)
    assert np.array_equal(nxt.blocks, state.blocks)
    assert nxt.history[-1].min_gap == pytest.approx(1.0 + 0.1 * 0.1)
    assert nxt.history[-1].generator_norms == (0.0,) * 4

    close = dataclasses.replace(
        state, levels=np.array([0.0, 1e-8, 1.02, 2.47]), blocks=np.arange(4)
    )
    with pytest.raises(sp.SmallDenominatorError, match=r"^stage 2: small denominator") as err:
        sp.step(close)
    assert err.value.indices == (0, 1)


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


def test_init_and_step_scan_each_live_slot_once(monkeypatch):
    # a series the engine builds scans its live slots, each once, and never
    # the shared zero that fills the rest
    rng = np.random.default_rng(61)
    terms = [(0, np.diag([1.0, 2.5, 4.0, 6.0]))]
    terms += [(p, _random_symmetric(rng, 4, 0.1)) for p in (1, 3)]
    model = sp.make_model(4, terms)
    scanned = []
    real = series.finite_norms

    def counted(a, what):
        scanned.append((a, what))
        return real(a, what)

    monkeypatch.setattr(series, "finite_norms", counted)
    state = sp.init(model, 0.1, 5)
    s = state.series
    assert s.live == [1, 3]
    assert [(id(a), what) for a, what in scanned] == [
        (id(s.coeffs[p]), f"coefficient {p}") for p in s.live
    ]

    scanned.clear()
    s = sp.step(state).series
    assert [what for _, what in scanned] == ["generator slot A_1"] + [
        f"coefficient {p}" for p in s.live
    ]
    assert [id(a) for a, _ in scanned[1:]] == [id(s.coeffs[p]) for p in s.live]
    assert all(a.any() for a, _ in scanned)


def test_run_identical_across_blas_thread_counts():
    # the library path, cold and on a memo hit: LAPACK and the GEMMs may
    # block their reductions differently per thread count; the doubly
    # degenerate model takes the stacked eigh of the fold's larger blocks
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
        "pairs = (q * np.repeat(np.cumsum(1.0 + rng.uniform(size=n // 2)), 2)) @ q.conj().T\n"
        "paired = sp.make_model(n, [(0, pairs), (1, herm(0.05))])\n"
        "digest = hashlib.sha256()\n"
        "for m in (model, paired):\n"
        "    for eps in (0.02, 0.05, 0.02):\n"
        "        res = sp.run(m, eps, 8)\n"
        "        for e in res.energies:\n"
        "            digest.update(e.tobytes())\n"
        "        digest.update(res.eigenvectors.tobytes())\n"
        "        digest.update(repr(res.history).encode())\n"
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


def test_overflow_in_a_rotated_surviving_slot_names_its_stage():
    # stage 1 conjugates to finite slots, but rotating the huge order-2 slot
    # by the block unitary of the doubly degenerate H_0 overflows: only the
    # scan after the rotation can see it
    rng = np.random.default_rng(62)
    h0 = np.diag([1.0, 1.0, 2.5, 2.5])
    terms = [(0, h0), (1, random_hermitian(rng, 4, 0.3)), (2, 8e307 * np.ones((4, 4)))]
    model = sp.make_model(4, terms)
    conjugated, rotations = [], []
    real_conjugate, real_fold = kolmogorov.conjugate_slots, kolmogorov._fold

    def conjugate(*args):
        out = real_conjugate(*args)
        conjugated.append([c for c in out if c is not None])
        return out

    def fold(*args):
        out = real_fold(*args)
        rotations.append(out[2] is not None)
        return out

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(kolmogorov, "conjugate_slots", conjugate)
        mp.setattr(kolmogorov, "_fold", fold)
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="stage 1: .*non-finite"):
            sp.run(model, 1.0, 4)
    assert rotations == [True]
    assert all(np.isfinite(c).all() for c in conjugated[0])


def test_overflowing_flow_is_named_by_its_stage():
    # eps**8 is still a float but the stage-1 flow at eps is not; the series
    # slots stay finite, so only the basis check sees it
    model = sp.build_quartic_oscillator(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="stage 1: the basis has a non-finite entry"):
            sp.run(model, 1e38, 8, n_stages=1)


def test_overflowing_weight_names_its_stage():
    # the float eps**2 overflows at eps 1e200: in the stage-1 flow of the
    # oscillator, and in the stage-2 fold of a model whose diagonal H_1 makes
    # stage 1 the identity, so that no flow reaches order 2 before the fold
    off = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.5], [0.2, 0.5, 0.0]])
    folded = sp.make_model(
        3, [(0, np.diag([0.0, 1.0, 2.5])), (1, np.diag([0.3, -0.2, 0.1])), (2, off)]
    )
    cases = [(sp.build_quartic_oscillator(8), 1), (folded, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, n in cases:
            with pytest.raises(
                sp.WeightOverflowError,
                match=rf"^stage {n}: eps\^2/2! overflows a float at eps 1e\+200$",
            ):
                sp.run(model, 1e200, 4)
    assert sp.run(folded, 0.1, 4).history[0].generator_norms == (0.0,) * 5


def _dim16_model():
    """A complex dim-16 model with a diagonal H_0 and dense orders 1 and 2."""
    rng = np.random.default_rng(57)
    d = 16
    h0 = np.diag(np.arange(1.0, d + 1)).astype(complex)
    model = sp.make_model(
        d, [(0, h0), (1, random_hermitian(rng, d, 0.05)), (2, random_hermitian(rng, d, 0.05))]
    )
    assert model.h_coeffs[1][1].dtype == np.complex128
    return model


def test_run_working_set_is_linear_in_order():
    # a stage holds each series' P + 1 slots and a window of images, not the
    # P^2/2 images of the whole Cauchy product; the bound lies between the
    # two.  The run's traced peak is about 4.0 (P + 1) matrices (numpy 2.4
    # on x86-64), since it keeps its stages' generators until the
    # eigenvectors are read, and the whole product about 16.9.  At eps 20
    # every chain's majorant stays above rounding, so the cut drops no term
    # that carries weight and each recursion runs as long as without it
    d, P = 16, 32
    model = _dim16_model()
    tracemalloc.start()
    try:
        res = sp.run(model, 20.0, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [info.truncation_bound for info in res.history] == [0.0] * len(res.history)
    assert peak <= 5 * (P + 1) * d * d * 16


def test_window_average_holds_its_generators_and_one_set_of_denominators():
    # a one-level window of k live complex slots is averaged slot by slot in
    # place: the k generator slots it returns, the denominators and their
    # interleaved reciprocal, and the diagonals for the averages, under
    # (k + 2) d^2 complex entries; a stacked copy of the window, dense
    # averages and a generator stack would need about 3k
    rng = np.random.default_rng(60)
    d, k = 64, 4
    h0 = np.diag(np.arange(1.0, d + 1)).astype(complex)
    terms = [(p, random_hermitian(rng, d, 0.01)) for p in range(k, 2 * k)]
    state = sp.init(sp.make_model(d, [(0, h0), *terms]), 0.05, 2 * k - 1)
    groups = sp.linalg.block_groups(state.blocks)
    assert [idx.shape for idx in groups] == [(d, 1)] and state.series.dtype == complex
    tracemalloc.start()
    try:
        averaged, gen, _ = kolmogorov._average(state, groups, k, 2 * k - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (k + 2) * d * d * 16
    assert sorted(averaged) == list(range(k, 2 * k)) and len(gen.live) == k
    assert all([a.shape for a in avg] == [(d, 1, 1)] for avg in averaged.values())


def test_overflowing_final_basis_is_an_error_not_a_warning():
    # at eps 100 every stage's basis stays finite, but the squared norms of
    # its columns overflow when the final basis is normalized
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the final basis: column 0 has a non-finite norm"):
            sp.run(_dim16_model(), 100.0, 32)


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
     ("gap_guard", -1e-6), ("order", 0), ("order", -1), ("order", 4.0), ("order", True),
     ("n_stages", True), ("n_stages", 2.0)],
    ids=["eps", "deg_tol", "gap_guard", "gap_guard_negative", "order", "order_negative",
         "order_float", "order_bool", "n_stages_bool", "n_stages_float"],
)
def test_run_rejects_bad_parameter(param, bad):
    model = sp.build_quartic_oscillator(8)
    kwargs = {"eps": 0.1, "order": 4, param: bad}
    with pytest.raises(ValueError, match=param):
        sp.run(model, **kwargs)
    if param != "n_stages":  # a parameter of run alone
        with pytest.raises(ValueError, match=param):
            sp.init(model, **kwargs)


def test_run_takes_numpy_integers():
    model = sp.build_quartic_oscillator(8)
    res = sp.run(model, 0.1, np.int64(4), n_stages=np.int32(2))
    assert (res.order, res.n_stages) == (4, 2)
    assert type(res.order) is type(res.n_stages) is int
    _same_result(res, sp.run(model, 0.1, 4, n_stages=2))


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


def test_runs_import_no_further_module():
    # once the package and the CLI are imported, a run loads nothing more:
    # a lazily imported numpy submodule would add to every run's memory
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, numpy as np, superpert as sp, superpert.cli as cli\n"
        "pairs = np.diag(np.repeat([1.0, 2.5, 4.0], 2))\n"
        "v = np.arange(36.0).reshape(6, 6) / 100.0\n"
        "paired = sp.make_model(6, [(0, pairs), (1, v + v.T)])\n"
        "quartic = sp.build_quartic_oscillator(10)\n"
        "args = cli.build_parser().parse_args(['--method', 'compare', '--builtin',\n"
        "    'quartic_oscillator', '--dim', '10', '--eps', '0.05', '--levels', '0,1'])\n"
        "before = set(sys.modules)\n"
        "for model in (paired, quartic):\n"
        "    sp.run(model, 0.05, 8).eigenvectors\n"
        "report = cli.compute_report(args)\n"
        "cli.render_report(report, 'json'), cli.render_report(report, 'csv')\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "assert not loaded, loaded\n"
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
    conjugate_slots = kolmogorov.conjugate_slots

    def recording(gen, h, *args, **kwargs):
        gens.extend(gen.coeffs)
        return conjugate_slots(gen, h, *args, **kwargs)

    monkeypatch.setattr(kolmogorov, "conjugate_slots", recording)
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
    # G = iW for the Hermitian generator W: anti-Hermitian to the bit,
    # which for a real model is G + G^T == 0
    assert {sp.max_norm(g + g.conj().T) for g in gens} == {0.0}
    assert any(g.any() for g in gens)
    assert sp.run(model, 0.05, 8).eigenvectors.dtype == dtype


def _stage_operands(model, eps, order):
    """(generator, series, levels) of every stage of run(model, eps, order)."""
    stages = []
    real_conjugate = kolmogorov.conjugate_slots

    def recording(gen, h, levels, *args, **kwargs):
        stages.append((gen, h, levels))
        return real_conjugate(gen, h, levels, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "conjugate_slots", recording)
        sp.run(model, eps, order)
    return stages


@settings(max_examples=30)
@given(
    n=st.integers(2, 7),
    order=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    eps=st.sampled_from([0.02, 0.05]),
)
def test_lie_majorant_bounds_every_image_and_flow_coefficient(
    n, order, seed, degenerate, real, eps
):
    # the cut rests on |eps|^k/k! ||X_k||_2 <= ||X_0||_2 w[k]: check it on the
    # spectral norm of every image of every chain, H_0's included, and of
    # every flow coefficient of every stage, each taken to order P; H_0's
    # images also against the table of its own chain, h0_majorant, which
    # the stage's generator makes from the averaging residuals
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)
    for gen, h, levels in _stage_operands(model, eps, order):
        images = series.lie_majorant(gen, eps, 2.0)
        h0_norm = sp.max_norm(levels)
        h0_images = series.h0_majorant(gen, series._leaves(h, h0_norm, eps)[0], eps)
        assert h0_images[0] == h0_norm
        leaves = [(levels, h0_norm)] + [(h.coeffs[j], h.bounds[j]) for j in h.live]
        for x, bound in leaves:
            leaf = sp.max_norm(x) if x.ndim == 1 else np.linalg.norm(x, 2)
            assert leaf <= bound  # the leaf bound the cut takes
            for k, t in enumerate(series._t_images(gen, x, order)):
                if t is not None and t.ndim == 2:
                    weighted = eps**k / math.factorial(k) * np.linalg.norm(t, 2)
                    assert weighted <= (1 + 1e-12) * leaf * images[k]
                    if x is levels:
                        assert weighted <= (1 + 1e-12) * h0_images[k]
        flow = series.lie_majorant(gen, eps, 1.0)
        for p, u in enumerate(series.flow_coefficients(gen)):
            if u is not None:
                weighted = eps**p / math.factorial(p) * np.linalg.norm(u, 2)
                assert weighted <= (1 + 1e-12) * flow[p]


def _check_bounds(s):
    # bounds[p] is the induced 1-norm of slot p: at least its spectral norm
    # (up to the rounding of the SVD), at most d times its max-norm, and 0.0
    # exactly for a zero slot
    assert len(s.bounds) == len(s.coeffs)
    for x, norm, bound in zip(s.coeffs, s.norms, s.bounds):
        assert norm == sp.max_norm(x)
        assert np.linalg.norm(x, 2) <= (1 + 1e-12) * bound
        assert bound <= s.dim * norm
        np.testing.assert_allclose(bound, np.linalg.norm(x, 1), rtol=1e-13, atol=0)
        assert (bound == 0.0) == (not x.any())


@settings(max_examples=40)
@given(
    n=st.integers(2, 8),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
)
def test_stored_bounds_bound_the_spectral_norm(n, order, seed, degenerate, real):
    # real and complex Hermitian slots (a public series and every state's
    # series), the anti-Hermitian generator slots of every stage, and the
    # slots a stage's block unitary q rotates, which a degenerate H_0 gives
    rng = np.random.default_rng(seed)
    model = _random_rotated_model(rng, n, degenerate, real)
    hermitian = _random_symmetric if real else random_hermitian
    zero = np.zeros((n, n))
    _check_bounds(sp.OperatorSeries((hermitian(rng, n), zero, hermitian(rng, n, 1e-3))))
    gens, rotations = [], []
    real_conjugate, real_blocks = kolmogorov.conjugate_slots, kolmogorov._fold

    def conjugate(gen, *args):
        gens.append(gen)
        return real_conjugate(gen, *args)

    def blocks(*args):
        out = real_blocks(*args)
        rotations.append(out[2] is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "conjugate_slots", conjugate)
        mp.setattr(kolmogorov, "_fold", blocks)
        state = sp.init(model, 0.05, order)
        _check_bounds(state.series)
        for _ in range(default_n_stages(order)):
            state = sp.step(state)
            _check_bounds(state.series)
    for gen in gens:
        _check_bounds(gen)
    assert rotations[0] == degenerate


def _keep_every_term(weights, scale, first, budget):
    return len(weights), 0.0


def _run_uncut(model, eps, order):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_cut", _keep_every_term)
        whole = sp.run(model, eps, order)
    assert [info.truncation_bound for info in whole.history] == [0.0] * len(whole.history)
    return whole


@settings(max_examples=40)
@given(
    n=st.integers(2, 8),
    order=st.integers(4, 16),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    eps=st.sampled_from([0.02, 0.05]),
)
def test_cut_moves_results_by_at_most_its_bound(n, order, seed, degenerate, real, eps):
    # what the cut drops weighs at most sum(truncation_bound) in spectral
    # norm: by Weyl the energies move by no more, and by Davis-Kahan an
    # eigenvector by no more than that over its gap; the two runs round
    # differently, which 4 ulps of ||H_0|| cover
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)
    cut = sp.run(model, eps, order)
    whole = _run_uncut(model, eps, order)
    bound = sum(info.truncation_bound for info in cut.history)
    slack = 4 * 2.0**-53 * sp.max_norm(whole.energies[0])
    for got, want in zip(cut.energies, whole.energies):
        assert np.max(np.abs(got - want)) <= bound + slack
    final = whole.energies[-1]
    gaps = np.abs(final[:, None] - final[None, :])
    np.fill_diagonal(gaps, np.inf)
    moved = np.linalg.norm(cut.eigenvectors - whole.eigenvectors, axis=0)
    assert np.all(moved <= (bound + slack) / gaps.min(axis=1))


@pytest.mark.parametrize("eps", [0.02, 0.05])
def test_cut_keeps_the_forward_error_against_high_precision(eps):
    # a dense real dim-6 model at orders 16 and 32, where the order-P
    # remainder is far below rounding: against eigsy at 40 digits, the cut
    # may add at most its bound to the error of the run that keeps every term
    rng = np.random.default_rng(61)
    n = 6
    q = _random_orthogonal(rng, n)
    levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, n))
    terms = [
        (0, (q * levels) @ q.T),
        (1, _random_symmetric(rng, n, scale=0.5)),
        (2, _random_symmetric(rng, n, scale=0.5)),
    ]
    model = sp.make_model(n, terms)
    with mpmath.workdps(40):
        x = mpmath.mpf(eps)
        weights = [1, x, x * x / 2]
        h = mpmath.matrix(n, n)
        for p, m in model.h_coeffs:
            h += weights[p] * mpmath.matrix(m.tolist())
        exact = np.array(sorted(mpmath.eigsy(h, eigvals_only=True)), dtype=object)
    for order in (16, 32):
        cut = sp.run(model, eps, order)
        whole = _run_uncut(model, eps, order)
        bound = sum(info.truncation_bound for info in cut.history)
        assert bound > 0.0
        err_cut = np.abs(np.sort(cut.energies[-1]) - exact).astype(float)
        err_whole = np.abs(np.sort(whole.energies[-1]) - exact).astype(float)
        assert np.all(err_cut <= err_whole + bound)


# Ceilings on the work of the cut, per cold run of the model below: (calls
# of series._next_image, dense products in them), as measured when H_0's
# chain bounded its generator-slot terms by the averaging residuals; with the
# generic majorant for that chain they were (78, 42) and (110, 71), and with
# d times the max-norm for each slot (115, 62) and (164, 117).  A looser
# majorant cuts later and fails this before any timing shows it.
CUT_WORK_CEILINGS = {0.02: (54, 40), 0.05: (104, 68)}
# The same on a warm run, as measured when stage 1's images were first
# cached; a warm run now takes stage 1's conjugated slots from the model's
# cache and makes none of its images.
WARM_CUT_WORK_CEILINGS = {0.02: (37, 24), 0.05: (87, 52)}


def _cut_work_model():
    """A seeded complex dim-16 model with a dense rotated H_0 and dense
    orders 1 and 2, which the work gates run at order 16."""
    rng = np.random.default_rng(64)
    d = 16
    levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, d))
    q = _random_unitary(rng, d)
    terms = [(0, (q * levels) @ q.conj().T)]
    terms += [(p, random_hermitian(rng, d, 0.5 / math.sqrt(d))) for p in (1, 2)]
    return sp.make_model(d, terms)


@pytest.mark.parametrize("eps", sorted(CUT_WORK_CEILINGS))
def test_cut_work_stays_within_its_measured_counts(eps, monkeypatch):
    model = _cut_work_model()
    P = 16
    counts = [0, 0]
    real_next_image = series._next_image

    def counting(g, live, window, p):
        # the kernel's products: one per live slot l <= p whose image
        # T_{p-l} is a matrix (a 1-D T_0 is a broadcast, not a product)
        counts[0] += 1
        counts[1] += sum(
            1
            for l in live
            if l <= p and window[-1 - l] is not None and window[-1 - l].ndim == 2
        )
        return real_next_image(g, live, window, p)

    monkeypatch.setattr(series, "_next_image", counting)
    for ceilings in (CUT_WORK_CEILINGS, WARM_CUT_WORK_CEILINGS):
        counts[:] = [0, 0]
        res = sp.run(model, eps, P)  # the first run fills the model's memo
        assert len(res.history) == 5
        calls, products = ceilings[eps]
        assert counts[0] <= calls
        assert counts[1] <= products


def _window_state(rng, n, stage, order, degenerate, real, window, tiny, eps=0.05):
    """A state entering `stage` at truncation order `order`, with H_0 =
    diag(levels), paired when degenerate, and a random basis.  Slots below
    the window are zero; window slot p is given by window[p - lo]: "zero",
    "dense", or "blocks" (inside the degeneracy blocks only, so it averages
    to itself with a zero generator slot); later slots are dense, and with
    `tiny` the first of them is so small that its chain is dropped whole."""
    levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, n))
    if degenerate:
        levels = np.repeat(levels[: (n + 1) // 2], 2)[:n]
    levels = rng.permutation(levels)
    blocks = linalg.degeneracy_blocks(levels)
    same = blocks[:, None] == blocks[None, :]
    hermitian = _random_symmetric if real else random_hermitian
    dtype = np.float64 if real else np.complex128
    zero = series.shared_zero(n, dtype)
    lo, hi = 2 ** (stage - 1), min(2**stage - 1, order)
    slots = [zero] * lo
    for kind in window:
        x = hermitian(rng, n, 0.3)
        slots.append({"zero": zero, "dense": x, "blocks": np.where(same, x, 0.0)}[kind])
    for p in range(hi + 1, order + 1):
        slots.append(hermitian(rng, n, 1e-30 if tiny and p == hi + 1 else 0.3))
    basis = _random_orthogonal(rng, n) if real else _random_unitary(rng, n)
    return kolmogorov.KolmogorovState(
        stage=stage - 1,
        eps=eps,
        series=sp.OperatorSeries._computed(
            order, zero, {p: c for p, c in enumerate(slots) if c is not zero}
        ),
        levels=levels,
        blocks=blocks,
        _basis=kolmogorov._Pending(eps, basis),
        deg_tol=linalg.default_deg_tol(levels),
        gap_guard=1e-6 * float(np.ptp(levels)),
        history=(),
    )


@st.composite
def _stage_window(draw, kinds):
    stage = draw(st.integers(1, 3))
    lo, hi = 2 ** (stage - 1), 2**stage - 1
    order = draw(st.integers(lo, hi + 3))
    width = min(hi, order) - lo + 1
    window = draw(st.lists(st.sampled_from(kinds), min_size=width, max_size=width))
    return stage, order, window


@settings(max_examples=60)
@given(
    n=st.integers(2, 8),
    case=_stage_window(["zero", "dense", "blocks"]),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    guard=st.sampled_from([None, 10.0]),
)
def test_average_of_live_slots_matches_the_full_window(n, case, seed, degenerate, real, guard):
    # only the live slots of a window are averaged: slot by slot, the result
    # equals average_diagonal on every slot of the window, with the same
    # scans and min_gap, and the gap guard raises as it does on every slot
    stage, order, window = case
    state = _window_state(
        np.random.default_rng(seed), n, stage, order, degenerate, real, window, False
    )
    if guard is not None:
        state = dataclasses.replace(state, gap_guard=guard)
    lo, hi = 2 ** (stage - 1), min(2**stage - 1, order)
    s = state.series
    groups = linalg.block_groups(state.blocks)
    try:
        want_avg, want_g, want_gap = kolmogorov.average_diagonal(
            state.levels, state.blocks, groups, s.coeffs[lo : hi + 1], state.gap_guard
        )
    except sp.SmallDenominatorError as want:
        # the stage's average raises first, named by the stage
        with pytest.raises(sp.SmallDenominatorError, match=f"^stage {stage}: ") as got:
            sp.step(state)
        assert (got.value.indices, got.value.gap) == (want.indices, want.gap)
        return
    averaged, gen, min_gap = kolmogorov._average(state, groups, lo, hi)
    assert min_gap == want_gap
    assert gen.order == order and gen.dim == n
    assert sorted(averaged) == [p for p in range(lo, hi + 1) if s.norms[p]]
    for p in range(order + 1):
        if not lo <= p + 1 <= hi:  # outside the window, the shared zero
            assert gen.coeffs[p] is s.coeffs[0] and gen.norms[p] == gen.bounds[p] == 0.0
    for i, p in enumerate(range(lo, hi + 1)):
        g = gen.coeffs[p - 1]
        assert g.dtype == s.dtype
        if p in averaged:  # one stack of blocks per group, in the slot's dtype
            for avg, want in zip(averaged[p], want_avg[i], strict=True):
                assert avg.dtype == s.dtype
                np.testing.assert_array_equal(avg, want)
        else:  # a zero slot has no average
            assert not any(want.any() for want in want_avg[i])
        np.testing.assert_array_equal(g, want_g[i])
        assert (gen.norms[p - 1], gen.bounds[p - 1]) == linalg.finite_norms(want_g[i], "G")
        if not s.norms[p]:  # a zero slot is the shared zero, never computed
            assert g is s.coeffs[0] and not g.flags.writeable


@settings(max_examples=60)
@given(
    n=st.integers(2, 8),
    case=_stage_window(["zero", "blocks"]),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    tiny=st.booleans(),
    eps=st.sampled_from([0.02, 0.05, -0.3]),
)
def test_identity_stage_matches_the_full_route(n, case, seed, degenerate, real, tiny, eps):
    # a generator with no live slot forms no flow and no image product, not
    # even when its basis is read, yet gives what conjugate_slots and flow_at
    # give on the zero generator,
    # chains dropped whole past the window included, with the fold and the
    # rotation by the block unitary as for any stage
    stage, order, window = case
    state = _window_state(
        np.random.default_rng(seed), n, stage, order, degenerate, real, window, tiny, eps
    )
    lo, hi = 2 ** (stage - 1), min(2**stage - 1, order)
    s, levels = state.series, state.levels
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "flow_at", lambda *args: calls.append("flow_at"))
        mp.setattr(series, "_next_image", lambda *args: calls.append("_next_image"))
        got = sp.step(state)
        got.basis
    assert calls == []

    # the full route, as a stage with a live generator takes it
    groups = linalg.block_groups(state.blocks)
    avg, g, _ = kolmogorov.average_diagonal(
        levels, state.blocks, groups, s.coeffs[lo : hi + 1], state.gap_guard
    )
    assert not any(x.any() for x in g)
    averaged = dict(enumerate(avg, start=lo))
    want_levels, want_blocks, q = kolmogorov._fold(state, groups, averaged)
    # the fold, as one dense H_0: its blocks' eigenvalues are the levels
    h0 = np.diag(levels).astype(s.dtype)
    for p, stacks in averaged.items():
        for idx, x in zip(groups, stacks):
            h0[idx[:, :, None], idx[:, None, :]] += eps**p / math.factorial(p) * x
    np.testing.assert_allclose(
        np.sort(want_levels), np.linalg.eigvalsh(h0), rtol=0, atol=1e-12 * sp.max_norm(h0)
    )
    gen = sp.OperatorSeries._computed(order, series.shared_zero(n, s.dtype), {})
    h0_norm = sp.max_norm(levels)
    stops, dropped = series.chain_stops(gen, s, h0_norm, eps, hi)
    k = series.conjugate_slots(gen, s, levels, stops)
    flow_stop, flow_dropped, _ = series.flow_cut(gen, eps)
    flow = series.flow_at(gen, eps, flow_stop)
    basis = state.basis @ flow
    rest = k[hi + 1 :]
    if q is not None:
        rest = [c if c is None else sp.hermitian_part(q.conj().T @ c @ q) for c in rest]
        basis = basis @ q

    np.testing.assert_array_equal(got.levels, want_levels)
    np.testing.assert_array_equal(got.blocks, want_blocks)
    np.testing.assert_array_equal(got.basis, basis)
    assert got.basis.dtype == basis.dtype
    assert not any(c.any() for c in got.series.coeffs[: hi + 1])
    for c, want in zip(got.series.coeffs[hi + 1 :], rest):
        np.testing.assert_array_equal(c, 0.0 if want is None else want)
    info = got.history[-1]
    assert info.generator_norms == (0.0,) * (order + 1)
    assert info.truncation_bound == dropped + h0_norm * flow_dropped
    if tiny and hi < order:  # the tiny slot's chain goes whole
        assert dropped > 0.0 and not got.series.norms[hi + 1]


@settings(max_examples=60)
@given(
    n=st.integers(3, 8),  # levels of some range, so the default gap guard is not 0
    order=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    inside=st.booleans(),
    exponent=st.integers(-18, -1),
    eps=st.sampled_from([0.05, -0.3]),
)
def test_every_live_window_slot_is_conjugated(
    n, order, seed, degenerate, real, inside, exponent, eps
):
    # the slot check subtracts each live window slot's average from K_p, so
    # K_p must exist: chain p keeps T_0 = H_p, since chain_stops starts its
    # cut at keep - p + 1 >= 1, however tiny the slots that cut the chains.
    # Terms inside the blocks of a diagonal H_0 make a generator with no live
    # slot, whose H_0 chain adds nothing to K_p
    rng = np.random.default_rng(seed)
    levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, size=n))
    if degenerate:
        levels = np.repeat(levels[: (n + 1) // 2], 2)[:n]
    same = levels[:, None] == levels[None, :] if inside else True
    hermitian = _random_symmetric if real else random_hermitian
    terms = [
        (p, np.where(same, hermitian(rng, n, 10.0**exponent), 0.0))
        for p in range(1, min(order, 3) + 1)
    ]
    model = sp.make_model(n, [(0, np.diag(levels)), *terms])
    if not inside:  # a rotation would leave rounding outside the blocks
        q = _random_orthogonal(rng, n) if real else _random_unitary(rng, n)
        model = _rotated(model, q)
    state = sp.init(model, eps, order)
    cut = False
    for stage in range(1, default_n_stages(order) + 1):
        lo, hi = 2 ** (stage - 1), min(2**stage - 1, order)
        s = state.series
        groups = linalg.block_groups(state.blocks)
        try:
            averaged, gen, _ = kolmogorov._average(state, groups, lo, hi)
        except sp.SmallDenominatorError:
            break  # a pair split below the gap guard: no stage gets to its check
        stops, _ = series.chain_stops(gen, s, sp.max_norm(state.levels), eps, hi)
        k = series.conjugate_slots(gen, s, state.levels, stops)
        assert all(k[p] is not None for p in averaged)
        cut |= any(stops[j] < order - j + 1 for j in s.live)
        state = sp.step(state)
    if exponent <= -10:  # tiny slots cut some chain short
        assert cut


# Ceilings on the slots each run of the model below hands to
# average_diagonal, stage by stage from init, as measured when H_0's chain
# was cut by the averaging residuals; when a stage first averaged only its
# live slots they were 8 and 10, and handing it every window slot gives 16.
LIVE_SLOT_CEILINGS = {0.02: 7, 0.05: 9}


@pytest.mark.parametrize("eps", sorted(LIVE_SLOT_CEILINGS))
def test_stages_work_only_on_their_live_slots(eps, monkeypatch):
    model = _cut_work_model()
    calls = {"slots": 0, "conjugate_slots": 0, "flow_at": 0}
    real_average = kolmogorov.average_diagonal

    def averaging(lam, blocks, groups, slots, *args):
        calls["slots"] += len(slots)
        return real_average(lam, blocks, groups, slots, *args)

    monkeypatch.setattr(kolmogorov, "average_diagonal", averaging)
    for name in ("conjugate_slots", "flow_at"):
        real = getattr(kolmogorov, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(kolmogorov, name, counted)
    state = sp.init(model, eps, 16)
    zero_windows = 0
    for n in range(1, 6):
        lo, hi = 2 ** (n - 1), min(2**n - 1, 16)
        live = any(state.series.norms[lo : hi + 1])
        before = dict(calls)
        state = sp.step(state)
        # every stage conjugates; no stage forms a flow before its basis is read
        assert calls["conjugate_slots"] - before["conjugate_slots"] == 1
        assert calls["flow_at"] == 0
        zero_windows += not live
    assert zero_windows >= 1  # stage 5's window is below rounding at both eps
    # the read forms one flow per live generator
    state.basis
    assert calls["flow_at"] == 5 - zero_windows
    assert calls["slots"] <= LIVE_SLOT_CEILINGS[eps]


@settings(max_examples=60)
@given(
    n=st.integers(2, 8),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    eps=st.sampled_from([0.05, -0.3]),
    data=st.data(),
)
def test_eigenvectors_built_on_read_match_the_stepped_basis(
    n, order, seed, degenerate, real, eps, data
):
    # run keeps each stage's generator and block unitary and builds the
    # basis on the first read of its eigenvectors: the same array, to the
    # bit, as the basis step builds as it goes; the read drops what it kept
    n_stages = data.draw(st.integers(1, default_n_stages(order)), label="n_stages")
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)
    state = sp.init(model, eps, order)
    for _ in range(n_stages):
        state = sp.step(state)
    want = linalg.fix_column_phases(kolmogorov._unit_columns(state.basis))

    kept = []  # weak references to the block unitaries and generator slots
    real_fold, real_conjugate = kolmogorov._fold, kolmogorov.conjugate_slots

    def fold(*args):
        out = real_fold(*args)
        if out[2] is not None:
            kept.append(weakref.ref(out[2]))
        return out

    def conjugate(gen, *args):
        kept.extend(weakref.ref(gen.coeffs[p]) for p in gen.live)
        return real_conjugate(gen, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "_fold", fold)
        mp.setattr(kolmogorov, "conjugate_slots", conjugate)
        res = sp.run(model, eps, order, n_stages=n_stages)
    assert all(ref() is not None for ref in kept)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = res.eigenvectors
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert res.eigenvectors is got
    assert all(ref() is None for ref in kept)


def test_only_a_read_of_the_eigenvectors_forms_the_flows(monkeypatch):
    # the CLI reads energies alone, so it forms no flow; a run forms one per
    # live stage when its eigenvectors are read, at eps 1.5 as at 0.05
    calls = _counting(monkeypatch, "flow_at")
    for method in ("compare", "su"):
        args = [
            "--method", method, "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "0.05,0.1", "--levels", "0,1",
        ]
        cli.compute_report(cli.build_parser().parse_args(args))
    assert calls == []
    model = _cut_work_model()
    res = sp.run(model, 0.05, 16)
    assert calls == []
    live = _live_generators(res.history)
    assert live >= 1
    res.eigenvectors
    res.eigenvectors
    assert len(calls) == live
    calls.clear()
    res = sp.run(model, 1.5, 16)
    assert calls == []
    res.eigenvectors
    assert len(calls) == _live_generators(res.history) >= 1


@pytest.mark.parametrize(
    "limit, during_run, on_read",
    [
        (1.0, "CFCFCFCF", ""),  # past the bound from stage 1: built as it goes
        (2.0**20, "CCFFCFCF", ""),  # stage 1 pending, built at stage 2
        (2.0**500, "CCCC", "FFFF"),  # pending to the end
    ],
)
def test_a_run_past_its_pending_bound_builds_the_basis_at_once(
    limit, during_run, on_read, monkeypatch
):
    # stage 1's generator is small and stage 2's is not, so their bounds
    # are about 2^12 and 2^29 here: whenever the bound is passed, the
    # pending stages are applied at once, then each later stage as `step`
    # applies it, and the eigenvectors do not change
    rng = np.random.default_rng(65)
    d = 6
    levels = np.cumsum(1.0 + rng.uniform(0.0, 1.0, d))
    terms = [(0, np.diag(levels))]
    terms += [(p, random_hermitian(rng, d, scale)) for p, scale in ((1, 1e-3), (2, 0.5))]
    model = sp.make_model(d, terms)
    state = sp.init(model, 0.3, 8)
    for _ in range(default_n_stages(8)):
        state = sp.step(state)
    want = linalg.fix_column_phases(kolmogorov._unit_columns(state.basis))

    events = []
    for name, tag in (("conjugate_slots", "C"), ("flow_at", "F")):
        real = getattr(kolmogorov, name)

        def recorded(*args, real=real, tag=tag):
            events.append(tag)
            return real(*args)

        monkeypatch.setattr(kolmogorov, name, recorded)
    monkeypatch.setattr(kolmogorov, "_PENDING_LIMIT", limit)
    # the steps above filled the model's cache, so a run on it takes stage
    # 1's slots from there and makes no stage-1 conjugation; a fresh model
    # makes every one
    warm = during_run.replace("C", "", 1)
    for target, expected in ((_fresh(model), during_run), (model, warm)):
        events.clear()
        res = sp.run(target, 0.3, 8)
        assert "".join(events) == expected
        events.clear()
        np.testing.assert_array_equal(res.eigenvectors, want)
        assert "".join(events) == on_read


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    real=st.booleans(),
    eps=st.sampled_from([0.05, -0.3, 1.5, -2.0]),
    data=st.data(),
)
def test_deferred_basis_matches_the_basis_built_at_once(
    n, order, seed, degenerate, real, eps, data
):
    # one basis path at every eps: a state's basis and a run's eigenvectors,
    # built on first read, are the arrays built stage by stage (the bound
    # set to 0, so each stage with a flow is built at once), to the bit; a
    # step forms no flow until its basis is read, unless a stage passed the
    # bound, and a read forms each live stage's flow once
    n_stages = data.draw(st.integers(1, default_n_stages(order)), label="n_stages")
    model = _random_rotated_model(np.random.default_rng(seed), n, degenerate, real)

    def eigenvectors():
        return sp.run(model, eps, order, n_stages=n_stages).eigenvectors

    def stepped():
        state = sp.init(model, eps, order)
        for _ in range(n_stages):
            state = sp.step(state)
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "_PENDING_LIMIT", 0.0)
        want = eigenvectors()
        want_basis = stepped().basis
    got = eigenvectors()
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype

    calls = []
    real_flow_at = kolmogorov.flow_at

    def counted(*args):
        calls.append(args)
        return real_flow_at(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kolmogorov, "flow_at", counted)
        state = stepped()
        assert bool(calls) == (state._basis.bound == math.inf)
        basis = state.basis
        assert state.basis is basis
    assert len(calls) == _live_generators(state.history)
    np.testing.assert_array_equal(basis, want_basis)
