import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superpert as sp


def _x4_band(j, k):
    """Infinite-basis matrix elements of x^4, x = (a + a^dag)/sqrt(2)."""
    j, k = min(j, k), max(j, k)
    if k - j == 0:
        return 0.75 * (2.0 * j**2 + 2.0 * j + 1.0)
    if k - j == 2:
        return (2.0 * j + 3.0) * np.sqrt((j + 1.0) * (j + 2.0)) / 2.0
    if k - j == 4:
        return np.sqrt((j + 1.0) * (j + 2.0) * (j + 3.0) * (j + 4.0)) / 4.0
    return 0.0


def test_quartic_headline_entries():
    model = sp.build_quartic_oscillator(10)
    v = model.coefficient(1)
    assert v[0, 0].real == pytest.approx(0.75, rel=1e-14)
    assert v[2, 2].real == pytest.approx(39.0 / 4.0, rel=1e-14)
    h0 = model.coefficient(0)
    np.testing.assert_array_equal(np.diag(h0).real, 2.0 * np.arange(10) + 1.0)
    # the linearized level difference that controls the first eps-dependent
    # denominators: E1_0 - E1_2 = -(4 + 9 eps)
    for eps in (0.05, 0.2):
        e0 = h0[0, 0].real + eps * v[0, 0].real
        e2 = h0[2, 2].real + eps * v[2, 2].real
        assert e0 - e2 == pytest.approx(-(4.0 + 9.0 * eps), rel=1e-13)


def test_quartic_parity_selection_rule():
    v = sp.build_quartic_oscillator(16).coefficient(1)
    for j in range(16):
        for k in range(16):
            if abs(j - k) not in (0, 2, 4):
                assert v[j, k] == 0.0


def test_quartic_matches_ladder_closed_forms():
    for dim in (8, 40, 200):
        v = sp.build_quartic_oscillator(dim).coefficient(1)
        for j in range(dim):
            for k in range(max(0, j - 4), min(dim, j + 5)):
                want = _x4_band(j, k)
                assert abs(v[j, k].real - want) <= 1e-12 * max(1.0, abs(want))
                assert v[j, k].imag == 0.0
        # dense (a + a^dag)^4 / 4 on a workspace of dim + 4, cut down afterwards
        a = np.diag(np.sqrt(np.arange(1.0, dim + 4.0)), 1)
        dense = (np.linalg.matrix_power(a + a.T, 4) / 4.0)[:dim, :dim]
        np.testing.assert_allclose(v.real, dense, rtol=1e-13, atol=0)


def test_quartic_truncation_stability():
    small = sp.build_quartic_oscillator(20).coefficient(1)
    large = sp.build_quartic_oscillator(30).coefficient(1)
    np.testing.assert_array_equal(small, large[:20, :20])


def test_quartic_rejects_tiny_dimension():
    with pytest.raises(ValueError, match="dim"):
        sp.build_quartic_oscillator(7)


def _write_model(tmp_path, data, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_load_minimal_model(tmp_path):
    path = _write_model(
        tmp_path,
        {
            "dimension": 2,
            "terms": [
                {"order": 0, "matrix": [[0.0, 0.0], [0.0, 1.0]]},
                {"order": 1, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
            ],
        },
    )
    model = sp.load_model(path)
    assert model.dim == 2 and model.hbar == 1.0 and model.is_linear
    np.testing.assert_array_equal(model.coefficient(0), np.diag([0.0, 1.0]))
    assert model.provenance == str(path)


def test_load_flat_layout_and_pairs(tmp_path):
    path = _write_model(
        tmp_path,
        {
            "dimension": 2,
            "hbar": 0.5,
            "terms": [
                {"order": 0, "matrix": [0.0, 0.0, 0.0, 2.0]},
                {"order": 1, "matrix": [[0.0, 0.0], [1.0, -2.0], [1.0, 2.0], [0.0, 0.0]]},
            ],
        },
    )
    model = sp.load_model(path)
    assert model.hbar == 0.5
    np.testing.assert_array_equal(
        model.coefficient(1), np.array([[0.0, 1.0 - 2.0j], [1.0 + 2.0j, 0.0]])
    )


def test_load_builtin_selector(tmp_path):
    path = _write_model(tmp_path, {"builtin": "quartic_oscillator", "dimension": 12})
    model = sp.load_model(path)
    assert model.name == "quartic_oscillator" and model.dim == 12
    np.testing.assert_array_equal(
        model.coefficient(1), sp.build_quartic_oscillator(12).coefficient(1)
    )


@pytest.mark.parametrize(
    "field, value",
    [("dimension", 40.7), ("dimension", "abc"), ("dimension", True),
     ("hbar", "2"), ("hbar", None)],
    ids=["dimension_float", "dimension_str", "dimension_bool", "hbar_str",
         "hbar_null"],
)
def test_builtin_selector_checks_fields(field, value):
    doc = {"builtin": "quartic_oscillator", "dimension": 40, field: value}
    with pytest.raises(sp.ModelFormatError, match=f"'{field}' must be"):
        sp.model_from_dict(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [("dimension", 4, "needs dim >= 8, got 4"),
     ("hbar", -1.0, "hbar must be positive and finite, got -1.0"),
     ("hbar", float("inf"), "hbar must be positive and finite, got inf")],
    ids=["dimension_small", "hbar_negative", "hbar_inf"],
)
def test_builtin_selector_errors_name_the_file(field, value, message):
    doc = {"builtin": "quartic_oscillator", "dimension": 12, field: value}
    with pytest.raises(sp.ModelFormatError, match=r"^m\.json: ") as err:
        sp.model_from_dict(doc, "m.json")
    assert str(err.value).endswith(message)


def test_terms_file_cannot_take_a_builtin_name():
    # the CLI's dim_drift rebuilds a builtin-named model at a larger size,
    # which for a terms file measured drift against an unrelated model
    doc = {
        "name": "quartic_oscillator",
        "dimension": 2,
        "terms": [{"order": 0, "matrix": [[1.0, 0.0], [0.0, 3.0]]}],
    }
    with pytest.raises(sp.ModelFormatError, match="'name' 'quartic_oscillator' is reserved"):
        sp.model_from_dict(doc)
    doc["name"] = "my_oscillator"
    assert sp.model_from_dict(doc).name == "my_oscillator"


def test_load_rejects_missing_order_zero(tmp_path):
    path = _write_model(
        tmp_path,
        {"dimension": 2, "terms": [{"order": 1, "matrix": [[0.0, 1.0], [1.0, 0.0]]}]},
    )
    with pytest.raises(sp.ModelFormatError, match="order-0"):
        sp.load_model(path)


def test_load_rejects_non_hermitian_with_indices(tmp_path):
    path = _write_model(
        tmp_path,
        {
            "dimension": 2,
            "terms": [{"order": 0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}],
        },
    )
    with pytest.raises(sp.ModelFormatError, match=r"\(0, 1\)"):
        sp.load_model(path)


def test_load_rejects_bad_shapes_and_json(tmp_path):
    with pytest.raises(sp.ModelFormatError, match="rows"):
        sp.load_model(
            _write_model(
                tmp_path,
                {"dimension": 3, "terms": [{"order": 0, "matrix": [[0.0, 1.0], [1.0, 0.0]]}]},
            )
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(sp.ModelFormatError, match="line 1"):
        sp.load_model(bad)
    with pytest.raises(sp.ModelFormatError, match="cannot read"):
        sp.load_model(tmp_path / "absent.json")
    with pytest.raises(sp.ModelFormatError, match="duplicate"):
        sp.model_from_dict(
            {
                "dimension": 1,
                "terms": [
                    {"order": 0, "matrix": [[1.0]]},
                    {"order": 0, "matrix": [[2.0]]},
                ],
            }
        )
    with pytest.raises(sp.ModelFormatError, match="builtin"):
        sp.model_from_dict({"builtin": "cubic_oscillator", "dimension": 9})


def test_symmetrization_within_tolerance(tmp_path):
    eps = 1e-12
    path = _write_model(
        tmp_path,
        {
            "dimension": 2,
            "terms": [{"order": 0, "matrix": [[1.0, 0.5 + eps], [0.5, 2.0]]}],
        },
    )
    h0 = sp.load_model(path).coefficient(0)
    assert sp.hermiticity_defect(h0) == 0.0
    assert h0[0, 1] == pytest.approx(0.5, abs=1e-11)


def test_load_rejects_non_finite_entries_and_hbar(tmp_path):
    # json.load accepts NaN and Infinity, and a NaN Hermiticity defect
    # compares False, so only an explicit finiteness check catches these
    h0 = [[0.0, 0.0], [0.0, 2.0]]
    nan_term = [[0.0, 1.0], [1.0, float("nan")]]
    path = _write_model(
        tmp_path,
        {"dimension": 2, "terms": [{"order": 0, "matrix": h0},
                                   {"order": 1, "matrix": nan_term}]},
    )
    with pytest.raises(sp.ModelFormatError, match=r"order 1 .*non-finite.*\(1, 1\)"):
        sp.load_model(path)
    inf_term = [[0.0, [0.0, float("inf")]], [[0.0, -1.0], 0.0]]
    with pytest.raises(sp.ModelFormatError, match=r"order 2 .*non-finite.*\(0, 1\)"):
        sp.model_from_dict(
            {"dimension": 2, "terms": [{"order": 0, "matrix": h0},
                                       {"order": 2, "matrix": inf_term}]}
        )
    with pytest.raises(sp.ModelFormatError, match="hbar must be positive and finite"):
        sp.model_from_dict(
            {"dimension": 2, "hbar": float("nan"),
             "terms": [{"order": 0, "matrix": h0}]}
        )
    with pytest.raises(sp.ModelFormatError, match="hbar"):
        sp.build_quartic_oscillator(8).with_hbar(float("inf"))


_ENTRY = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=60)
@given(data=st.data())
def test_json_model_round_trip(data):
    dim = data.draw(st.integers(1, 6), label="dim")
    higher = data.draw(st.lists(st.integers(1, 6), unique=True, max_size=3))
    orders = data.draw(st.permutations([0] + higher), label="orders")
    hbar = data.draw(st.floats(1e-3, 1e3), label="hbar")
    terms, expected = [], {}
    for p in orders:
        m = np.zeros((dim, dim), dtype=np.complex128)
        rows = [[None] * dim for _ in range(dim)]
        for j in range(dim):
            m[j, j] = data.draw(_ENTRY)
            rows[j][j] = data.draw(st.sampled_from([m[j, j].real, [m[j, j].real, 0.0]]))
            for k in range(j + 1, dim):
                re = data.draw(_ENTRY)
                im = data.draw(st.one_of(st.just(0.0), _ENTRY))
                m[j, k], m[k, j] = complex(re, im), complex(re, -im)
                if im == 0.0 and data.draw(st.booleans()):
                    rows[j][k] = rows[k][j] = re
                else:
                    rows[j][k], rows[k][j] = [re, im], [re, -im]
        flat = data.draw(st.booleans(), label="flat")
        matrix = [e for row in rows for e in row] if flat else rows
        terms.append({"order": p, "matrix": matrix})
        expected[p] = m
    text = json.dumps({"dimension": dim, "hbar": hbar, "terms": terms})
    model = sp.model_from_dict(json.loads(text))
    assert model.dim == dim and model.hbar == hbar
    assert [p for p, _ in model.h_coeffs] == sorted(orders)
    for p, m in expected.items():
        assert np.array_equal(model.coefficient(p), m)


def test_model_dtype_is_decided_by_the_imaginary_parts():
    # [re, im] entries whose imaginary parts are all exactly zero give a real
    # model; one nonzero imaginary part keeps every term complex
    def doc(im):
        return {
            "dimension": 2,
            "terms": [
                {"order": 0, "matrix": [[0.0, 0.0], [0.0, 1.0]]},
                {"order": 1, "matrix": [[0.0, [0.5, im]], [[0.5, -im], 0.0]]},
            ],
        }

    assert {m.dtype for _, m in sp.model_from_dict(doc(0.0)).h_coeffs} == {
        np.dtype(np.float64)
    }
    assert {m.dtype for _, m in sp.model_from_dict(doc(-0.0)).h_coeffs} == {
        np.dtype(np.float64)
    }
    assert {m.dtype for _, m in sp.model_from_dict(doc(0.25)).h_coeffs} == {
        np.dtype(np.complex128)
    }
    mixed = sp.make_model(2, [(0, np.diag([0.0, 1.0])), (1, [[0, 0.5j], [-0.5j, 0]])])
    assert {m.dtype for _, m in mixed.h_coeffs} == {np.dtype(np.complex128)}
