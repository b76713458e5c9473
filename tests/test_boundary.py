"""Caller-supplied operators are validated once, where they enter; series the
engine computes from validated operands are not checked again."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superpert as sp
from superpert import series

from conftest import random_hermitian

H0 = np.diag([0.0, 1.0, 2.5]).astype(np.complex128)


def _document(matrix):
    return [[[float(e.real), float(e.imag)] for e in row] for row in matrix]


ENTRY_POINTS = {
    "make_model": lambda m: sp.make_model(3, [(0, H0), (1, m)]),
    "model_from_dict": lambda m: sp.model_from_dict(
        {
            "dimension": 3,
            "terms": [
                {"order": 0, "matrix": _document(H0)},
                {"order": 1, "matrix": _document(m)},
            ],
        }
    ),
    "OperatorSeries": lambda m: sp.OperatorSeries((H0, m)),
    "eigh": sp.eigh,
    "rs_corrections": lambda m: sp.rs_corrections(sp.eigh(H0), m),
}


@pytest.mark.parametrize("kind", ["nan", "asymmetric"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_boundary_rejects_bad_operator_naming_the_entry(entry, kind):
    m = random_hermitian(np.random.default_rng(7), 3)
    if kind == "nan":
        m[1, 2] = np.nan
    else:
        m[1, 2] += 0.5
    with pytest.raises(ValueError, match=r"\(1, 2\)") as err:
        ENTRY_POINTS[entry](m)
    if entry in ("make_model", "model_from_dict"):
        assert isinstance(err.value, sp.ModelFormatError)
        assert "terms[1]" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, -1e-6], ids=["nan", "negative"])
def test_rs_corrections_rejects_bad_gap_guard(bad):
    # a NaN guard compared False against every gap, so it switched the
    # small-denominator check off
    h0 = sp.eigh(np.diag([0.0, 1e-8, 1.0]).astype(np.complex128))
    with pytest.raises(ValueError, match="gap_guard"):
        sp.rs_corrections(h0, np.ones((3, 3)), gap_guard=bad)


_FINITE = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=60)
@given(data=st.data())
def test_corrupted_model_document_names_term_and_entry(data):
    dim = data.draw(st.integers(1, 4), label="dim")
    orders = data.draw(st.permutations(range(data.draw(st.integers(1, 3)))))
    terms = []
    for p in orders:
        m = [[0.0] * dim for _ in range(dim)]
        for j in range(dim):
            m[j][j] = data.draw(_FINITE)
            for k in range(j + 1, dim):
                re, im = data.draw(_FINITE), data.draw(_FINITE)
                m[j][k], m[k][j] = [re, im], [re, -im]
        terms.append({"order": p, "matrix": m})
    i = data.draw(st.integers(0, len(terms) - 1), label="term")
    m = terms[i]["matrix"]
    kinds = ["nan", "inf", "-inf"] + (["asymmetric"] if dim > 1 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "asymmetric":
        j = data.draw(st.integers(0, dim - 2), label="j")
        k = data.draw(st.integers(j + 1, dim - 1), label="k")
        # far beyond the tolerance: 1e-10 * max(1, |matrix|_max), |matrix|_max < 20
        delta = data.draw(st.floats(1e-3, 10.0), label="delta")
        m[j][k] = [m[j][k][0] + delta, m[j][k][1]]
    else:
        j = data.draw(st.integers(0, dim - 1), label="j")
        k = data.draw(st.integers(0, dim - 1), label="k")
        m[j][k] = float(kind)
    with pytest.raises(sp.ModelFormatError) as err:
        sp.model_from_dict({"dimension": dim, "terms": terms})
    message = str(err.value)
    assert f"terms[{i}]" in message
    assert f"({j}, {k})" in message


def test_step_does_not_revalidate_the_series_it_builds(monkeypatch):
    calls = []
    validator = series.require_hermitian

    def counted(*args, **kwargs):
        calls.append(kwargs.get("what"))
        return validator(*args, **kwargs)

    monkeypatch.setattr(series, "require_hermitian", counted)
    state = sp.init(sp.build_quartic_oscillator(10), 0.1, 8)
    sp.OperatorSeries(state.series.coeffs)  # the public constructor validates
    assert len(calls) == state.order + 1
    calls.clear()
    for _ in range(4):
        state = sp.step(state)
    assert calls == []


def _rs(**kwargs):
    return sp.rs_corrections(sp.eigh(H0), H0, **kwargs)


I2 = np.eye(2)
INTEGER_INPUTS = {
    # the orders 0.5 and 0 passed the distinct-orders check, then were both
    # stored as order 0
    "term_order": (lambda: sp.make_model(2, [(0.5, I2), (0, I2)]), "terms[0]: order"),
    "dimension": (lambda: sp.make_model(True, [(0, np.eye(1))]), "dimension"),  # dim 1
    "levels_float": (lambda: _rs(levels=[0.9]), "levels"),  # answered for level 0
    "levels_bool": (lambda: _rs(levels=True), "levels"),  # answered for level 1
    # these two raised a bare TypeError
    "max_order": (lambda: _rs(max_order=2.5), "max_order"),
    "energy_order": (lambda: _rs().energy(0.1, 0, order=2.5), "order"),
    "n_stages_order": (lambda: sp.default_n_stages(2.7), "order"),  # returned 2
    # these two raised a bare TypeError, and True "needs dim >= 8, got True"
    "quartic_dim_str": (lambda: sp.build_quartic_oscillator("8"), "dim"),
    "quartic_dim_none": (lambda: sp.build_quartic_oscillator(None), "dim"),
    "quartic_dim_bool": (lambda: sp.build_quartic_oscillator(True), "dim"),
}


@pytest.mark.parametrize(
    "terms, name",
    [
        ([5], "terms[0]"),  # a bare TypeError
        ([(0,)], "terms[0]"),  # these two, an unpacking ValueError naming no term
        ([(0, I2, "x")], "terms[0]"),
        ([(0, I2), (1,)], "terms[1]"),
        (None, "terms"),  # a bare TypeError
    ],
)
def test_malformed_terms_are_named(terms, name):
    with pytest.raises(sp.ModelFormatError, match=rf"^custom: {re.escape(name)} must be "):
        sp.make_model(2, terms)


@pytest.mark.parametrize("levels", [[1, 1], (0, 2, 0), np.array([2, 2])])
def test_repeated_rs_level_is_rejected(levels):
    # a repeated level was computed twice, and energy read the first row
    with pytest.raises(ValueError, match=r"^levels lists \d more than once$"):
        _rs(levels=levels)


@pytest.mark.parametrize("case", sorted(INTEGER_INPUTS))
def test_integer_inputs_are_checked_at_the_boundary(case):
    call, name = INTEGER_INPUTS[case]
    pattern = rf"(^|: ){re.escape(name)} must be an integer, got "
    with pytest.raises(ValueError, match=pattern) as err:
        call()
    # a model's errors are ModelFormatErrors
    assert isinstance(err.value, sp.ModelFormatError) == (case in ("term_order", "dimension"))


def test_integer_like_inputs_still_pass():
    # numpy integers are integers, and a scalar level is one level
    model = sp.make_model(np.int64(2), [(np.int64(0), np.eye(2)), (1, np.ones((2, 2)))])
    assert model.dim == 2 and [p for p, _ in model.h_coeffs] == [0, 1]
    assert all(type(p) is int for p, _ in model.h_coeffs)
    v = random_hermitian(np.random.default_rng(8), 3)
    rs = sp.rs_corrections(sp.eigh(H0), v, max_order=np.int64(3), levels=np.int64(2))
    assert rs.levels == (2,) and rs.max_order == 3
    assert rs.levels == sp.rs_corrections(sp.eigh(H0), v, levels=(j for j in [2])).levels
    # a 0-d integer array is one level too; it raised a bare TypeError
    zero_d = sp.rs_corrections(sp.eigh(H0), v, max_order=3, levels=np.array(2))
    assert zero_d.levels == (2,)
    np.testing.assert_array_equal(zero_d.coeffs, rs.coeffs)
    assert rs.energy(0.1, 2, order=np.int64(2)) == rs.energy(0.1, 2, order=2)


M3 = sp.make_model(3, [(0, H0), (1, 0.1 * np.ones((3, 3)))])
SCALAR_INPUTS = {
    # each ran: float() took the str, and True as 1.0
    "eps_str": (lambda: sp.run(M3, "0.1", 4), "eps must be a real number, got '0.1'"),
    "eps_bool": (lambda: sp.run(M3, True, 4), "eps must be a real number, got True"),
    "deg_tol_str": (
        lambda: sp.eigh(H0, deg_tol="1e-3"),
        "deg_tol must be a real number, got '1e-3'",
    ),
    # each raised a bare TypeError
    "eps_none": (lambda: sp.run(M3, None, 4), "eps must be a real number, got None"),
    "eps_complex": (lambda: sp.run(M3, 0.1j, 4), "eps must be a real number, got 0.1j"),
    # named no field: "could not convert string to float: 'x'"
    "gap_guard_str": (
        lambda: sp.run(M3, 0.1, 4, gap_guard="x"),
        "gap_guard must be a real number, got 'x'",
    ),
    # ran with a deprecation warning
    "eps_array": (
        lambda: sp.run(M3, np.array([0.1]), 4),
        "eps must be a real number, got array([0.1])",
    ),
    # raised OverflowError: the order-4 energy of level 0 at eps nan is nan
    "energy_eps_nan": (lambda: _rs().energy(float("nan"), 0), "eps must be finite, got nan"),
    # returned 0 and 2
    "n_stages_order_0": (lambda: sp.default_n_stages(0), "order must be at least 1, got 0"),
    "n_stages_order_negative": (
        lambda: sp.default_n_stages(-3),
        "order must be at least 1, got -3",
    ),
}


@pytest.mark.parametrize("case", sorted(SCALAR_INPUTS))
def test_scalar_inputs_are_checked_at_the_boundary(case):
    call, message = SCALAR_INPUTS[case]
    with pytest.raises(ValueError, match=rf"(^|: ){re.escape(message)}$"):
        call()


def test_real_scalar_inputs_still_pass():
    # numpy real scalars and python ints are real numbers
    want = sp.run(M3, 0.25, 4, gap_guard=1e-6)
    for eps in (np.float64(0.25), np.float32(0.25)):
        got = sp.run(M3, eps, 4, gap_guard=np.float64(1e-6))
        assert all(np.array_equal(a, b) for a, b in zip(got.energies, want.energies))
    assert sp.run(M3, 0, 4).energies[-1].tolist() == H0.diagonal().real.tolist()
    assert sp.eigh(H0, deg_tol=np.float64(1e-3)).blocks.tolist() == [0, 1, 2]
    assert _rs().energy(np.float64(0.0), 0) == 0.0
    assert [sp.default_n_stages(P) for P in (1, 2, 3, 4, 7, 8, np.int64(62))] == [
        1, 2, 2, 3, 3, 4, 6,
    ]
