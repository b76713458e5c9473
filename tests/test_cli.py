import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

import superpert as sp
from superpert import cli


def _strict_json(text):
    """json.loads that also rejects NaN and Infinity, which JSON lacks."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def _run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    if code == 0:
        parsed = cli.build_parser().parse_args(args)
        if parsed.format == "json" and parsed.out is None:
            _strict_json(captured.out)
    return code, captured.out, captured.err


def _report(args):
    return cli.compute_report(cli.build_parser().parse_args(args))


def test_exact_quartic_at_zero(capsys):
    code, out, _ = _run(
        [
            "--method", "exact", "--builtin", "quartic_oscillator", "--dim", "16",
            "--eps", "0", "--levels", "0,1,2",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    energies = [float(line.split(",")[4]) for line in lines[1:]]
    assert energies == [1.0, 3.0, 5.0]
    assert all(line.split(",")[3] == "-" for line in lines[1:])


def test_exact_single_row_shape(capsys):
    code, out, _ = _run(
        [
            "--method", "exact", "--builtin", "quartic_oscillator", "--dim", "40",
            "--eps", "0.1", "--levels", "0",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    eps, level, method, soo, energy, err = lines[1].split(",")
    assert (float(eps), int(level), method, soo) == (0.1, 0, "exact", "-")
    assert float(err) == 0.0
    # value against an independent dense diagonalization
    model = sp.build_quartic_oscillator(40)
    h = model.coefficient(0) + 0.1 * model.coefficient(1)
    assert float(energy) == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-10)


def test_compare_at_zero_all_methods_agree(capsys):
    code, out, _ = _run(
        [
            "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "0", "--levels", "0,3", "--order", "4", "--stages", "3",
        ],
        capsys,
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        level = int(cells[1])
        assert float(cells[4]) == pytest.approx(2.0 * level + 1.0, abs=1e-12)
        assert float(cells[5]) <= 1e-12


def test_reports_are_deterministic(capsys):
    args = [
        "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "16",
        "--eps", "0.1,0.05", "--levels", "0,1", "--order", "4", "--stages", "3",
        "--format", "json",
    ]
    _, first, _ = _run(args, capsys)
    _, second, _ = _run(args, capsys)
    assert first == second


def test_reports_identical_across_blas_thread_counts():
    # LAPACK may block its reductions differently per thread count; the
    # report must not change with it
    args = [
        sys.executable, "-m", "superpert.cli", "--method", "compare",
        "--builtin", "quartic_oscillator", "--dim", "40", "--eps", "0.05,0.1",
        "--levels", "0,1", "--format", "json",
    ]
    src = str(Path(sp.__file__).resolve().parents[1])
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    outputs = []
    for env in ({**base, "OPENBLAS_NUM_THREADS": "1"}, base):
        proc = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_csv_and_json_carry_identical_numbers(capsys, tmp_path):
    base = [
        "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "14",
        "--eps", "0.08", "--levels", "0,2", "--order", "4", "--stages", "3",
    ]
    code, csv_text, _ = _run(base + ["--format", "csv"], capsys)
    assert code == 0
    out_path = tmp_path / "report.json"
    code, stdout, _ = _run(
        base + ["--format", "json", "--out", str(out_path)], capsys
    )
    assert code == 0 and stdout == ""
    report = _strict_json(out_path.read_text())
    json_rows = {
        (r["eps"], r["level"], r["method"], r["stage_or_order"]): (
            r["energy"],
            r["abs_error_vs_exact"],
        )
        for r in report["rows"]
    }
    csv_lines = csv_text.strip().splitlines()[1:]
    assert len(csv_lines) == len(json_rows)
    for line in csv_lines:
        eps, level, method, soo, energy, err = line.split(",")
        key = (float(eps), int(level), method, soo)
        assert key in json_rows
        # identical doubles after round-trip, not merely close
        assert float(energy) == json_rows[key][0]
        assert float(err) == json_rows[key][1]


def test_compare_su_beats_rs_at_tenth(capsys):
    code, out, _ = _run(
        [
            "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "60",
            "--eps", "0.1", "--levels", "0", "--order", "4", "--stages", "3",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    (comp,) = report["comparisons"]
    assert comp["winner"] == "su"
    assert comp["su_error"] < comp["rs_error"]


def test_default_gap_guard_is_taken_from_the_h0_levels(capsys):
    # The default guard is 1e-6 times the range of the H_0 levels, fixed at
    # init; re-derived from the folded levels at each stage it outgrew the
    # dim-150 oscillator's lowest gaps and aborted this run.
    args = [
        "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "150",
        "--eps", "0.02,0.05,0.1,0.15,0.2", "--levels", "0,1", "--format", "json",
    ]
    code, out, err = _run(args, capsys)
    assert code == 0, err
    code, absolute, _ = _run(args + ["--gap-guard", "1e-6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == json.loads(absolute)["rows"]
    level0 = [c for c in report["comparisons"] if c["level"] == 0]
    assert len(level0) == 5
    assert all(c["winner"] == "su" for c in level0)


def test_per_stage_rows_present(capsys):
    code, out, _ = _run(
        [
            "--method", "su", "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "0.05", "--levels", "0", "--order", "4", "--stages", "3",
        ],
        capsys,
    )
    assert code == 0
    stages = [
        line.split(",")[3]
        for line in out.strip().splitlines()[1:]
        if line.split(",")[2] == "su"
    ]
    assert stages == ["1", "2", "3"]


def test_dimension_drift_hint(capsys):
    code, out, _ = _run(
        [
            "--method", "exact", "--builtin", "quartic_oscillator", "--dim", "100",
            "--eps", "0.1", "--levels", "0", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    (drift,) = report["diagnostics"]["dim_drift"]
    assert drift["level"] == 0
    assert drift["drift"] <= 1e-10


def test_negative_eps_flagged_but_allowed(capsys):
    code, out, err = _run(
        [
            "--method", "exact", "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "-0.01", "--levels", "0", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert any("eps < 0" in w for w in report["diagnostics"]["warnings"])
    assert "eps < 0" in err


def test_stages_past_the_last_window_are_rejected(capsys):
    # default_n_stages(4) = 3: a fourth stage would have no order to eliminate
    code, out, err = _run(
        [
            "--method", "su", "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "0.01,0.02", "--order", "4", "--stages", "5",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: --stages must be in 1..3 at --order 4, got 5\n"


@pytest.mark.parametrize("method", ["rs", "exact"])
@pytest.mark.parametrize("stages", ["0", "3", "9"])
def test_stages_with_a_method_that_has_none_are_rejected(capsys, method, stages):
    code, out, err = _run(
        [
            "--method", method, "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "0.01", "--stages", stages,
        ],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: --stages applies only to --method su and compare\n"


@pytest.mark.parametrize("method", ["compare", "su", "exact"])
def test_json_report_parses_back_to_the_report(method):
    report = _report(
        [
            "--method", method, "--builtin", "quartic_oscillator", "--dim", "30",
            "--eps", "0.05,0.1", "--levels", "0,1",
        ]
    )
    if method == "exact":
        assert report["diagnostics"]["dim_drift"]
    else:
        assert report["diagnostics"]["stage_residuals"]
    assert _strict_json(cli.render_report(report, "json")) == report


def test_model_name_with_control_characters_gives_strict_json(capsys, tmp_path):
    # the name and a non-ASCII path are written as JSON escapes and read back
    name = 'tab\there, line\nbreak, "quoted" and back\\slash'
    path = tmp_path / "modèle-ß.json"
    path.write_text(
        json.dumps(
            {
                "name": name,
                "dimension": 2,
                "terms": [
                    {"order": 0, "matrix": [[0.0, 0.0], [0.0, 2.0]]},
                    {"order": 1, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                ],
            }
        ),
        encoding="utf-8",
    )
    args = ["--method", "exact", "--model", str(path), "--eps", "0.1", "--format", "json"]
    code, out, _ = _run(args, capsys)
    assert code == 0 and out.isascii()
    config = _strict_json(out)["config"]
    assert config == _report(args)["config"]
    assert (config["model"], config["provenance"]) == (name, str(path))


def test_ambiguous_exact_label_is_flagged(capsys):
    # at eps 0.2 the quartic's exact level 5 keeps only 0.416 of its H_0 state;
    # level 0 keeps 0.995 and level 5 at eps 0.1 keeps 0.678
    code, out, err = _run(
        [
            "--method", "exact", "--builtin", "quartic_oscillator", "--dim", "30",
            "--eps", "0.1,0.2", "--levels", "0,5", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    warnings = json.loads(out)["diagnostics"]["warnings"]
    assert len(warnings) == 1
    assert warnings[0].startswith("eps 0.2: the exact level labelled 5 ")
    assert "0.416" in warnings[0]
    assert warnings[0] in err


def test_rows_follow_eps_level_method_and_stage_order(capsys):
    args = [
        "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "30",
        "--eps", "0.2,0.1", "--levels", "3,0,1",
    ]
    methods = (
        [("exact", "-")]
        + [("rs", str(k)) for k in range(1, 5)]
        + [("su", str(n)) for n in range(1, 4)]
    )
    expected = [
        (eps, j, method, soo)
        for eps in (0.1, 0.2)
        for j in (0, 1, 3)
        for method, soo in methods
    ]
    code, csv_text, _ = _run(args, capsys)
    assert code == 0
    csv_keys = [
        (float(eps), int(level), method, soo)
        for eps, level, method, soo, _, _ in (
            line.split(",") for line in csv_text.strip().splitlines()[1:]
        )
    ]
    assert csv_keys == expected
    code, out, _ = _run(args + ["--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    json_keys = [
        (r["eps"], r["level"], r["method"], r["stage_or_order"]) for r in report["rows"]
    ]
    assert json_keys == expected
    # the comparisons keep the requested level order
    assert report["config"]["levels"] == [3, 0, 1]
    assert report["config"]["eps"] == [0.1, 0.2]
    assert [(c["eps"], c["level"]) for c in report["comparisons"]] == [
        (eps, j) for eps in (0.1, 0.2) for j in (3, 0, 1)
    ]

    code, out, _ = _run(
        ["--method", "exact"] + args[2:] + ["--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert [(r["eps"], r["level"]) for r in report["rows"]] == [
        (eps, j) for eps in (0.1, 0.2) for j in (0, 1, 3)
    ]
    assert [(d["eps"], d["level"]) for d in report["diagnostics"]["dim_drift"]] == [
        (eps, j) for eps in (0.1, 0.2) for j in (3, 0, 1)
    ]


def test_one_engine_result_alive_at_a_time(capsys, monkeypatch):
    # each eps is computed on its own: its SuResult is dropped once its rows
    # are written, so the report never holds more than one engine result
    results, alive_at_call = [], []
    engine = cli.run

    def tracked(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in results))
        result = engine(*args, **kwargs)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run", tracked)
    code, _, _ = _run(
        [
            "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "0.05,0.1,0.15,0.2", "--levels", "0,1", "--format", "json",
        ],
        capsys,
    )
    assert code == 0 and len(results) == 4
    assert max(alive_at_call) <= 1
    assert all(ref() is None for ref in results)


def test_model_file_run_and_errors(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 2,
                "terms": [
                    {"order": 0, "matrix": [[0.0, 0.0], [0.0, 2.0]]},
                    {"order": 1, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = _run(
        ["--method", "rs", "--model", str(path), "--eps", "0.1", "--levels", "0"],
        capsys,
    )
    assert code == 0
    # c2 = |1|^2/(0-2) = -1/2: cumulative order-2 energy is -0.005
    rows = {line.split(",")[3]: float(line.split(",")[4])
            for line in out.strip().splitlines()[1:]}
    assert rows["2"] == pytest.approx(-0.005, abs=1e-12)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 2, "terms": []}), encoding="utf-8")
    code, out, err = _run(
        ["--method", "exact", "--model", str(bad), "--eps", "0.1"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_nonlinear_model_rejected_for_rs(capsys, tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 2,
                "terms": [
                    {"order": 0, "matrix": [[0.0, 0.0], [0.0, 1.0]]},
                    {"order": 2, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = _run(
        ["--method", "rs", "--model", str(path), "--eps", "0.1"], capsys
    )
    assert code == 1 and "linear" in err


def test_argument_validation(capsys):
    code, _, err = _run(
        ["--method", "su", "--builtin", "quartic_oscillator", "--eps", "0.1"],
        capsys,
    )
    assert code == 1 and "--dim" in err
    code, _, err = _run(
        [
            "--method", "su", "--builtin", "quartic_oscillator", "--dim", "12",
            "--eps", "0.1", "--levels", "40",
        ],
        capsys,
    )
    assert code == 1 and "level" in err
    with pytest.raises(SystemExit):
        cli.main(["--method", "fancy", "--builtin", "quartic_oscillator",
                  "--dim", "12", "--eps", "0.1"])
    capsys.readouterr()


def test_small_denominator_surfaces_as_diagnostic(capsys, tmp_path):
    path = tmp_path / "close.json"
    ones = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    path.write_text(
        json.dumps(
            {
                "dimension": 3,
                "terms": [
                    {"order": 0, "matrix": [[0.0, 0.0, 0.0], [0.0, 1e-8, 0.0], [0.0, 0.0, 1.0]]},
                    {"order": 1, "matrix": ones},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = _run(
        ["--method", "su", "--model", str(path), "--eps", "0.1", "--order", "2"],
        capsys,
    )
    assert code == 1 and "small denominator" in err


def test_su_labels_inside_degenerate_block_match_exact(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 3,
                "terms": [
                    {"order": 0, "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]]},
                    {"order": 1, "matrix": [[1.0, 0.0, 0.2], [0.0, -1.0, 0.3], [0.2, 0.3, 0.0]]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = _run(
        [
            "--method", "su", "--model", str(path), "--eps", "0.05",
            "--levels", "0,1,2", "--order", "8", "--stages", "4",
        ],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    final = {int(r[1]): (float(r[4]), float(r[5])) for r in rows if r[3] == "4"}
    assert sorted(final) == [0, 1, 2]
    assert final[0][0] > final[1][0]
    assert max(err for _, err in final.values()) <= 1e-10


def _random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(m)[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_match_labels_is_a_permutation(n, seed):
    rng = np.random.default_rng(seed)
    perm = cli.match_labels(_random_unitary(rng, n), _random_unitary(rng, n))
    assert sorted(perm.tolist()) == list(range(n))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 1.0),
)
def test_match_labels_is_optimal_when_each_row_max_exceeds_half(n, seed, t):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (m + m.conj().T) / (2.0 * np.sqrt(2.0 * n))
    v_prev = _random_unitary(rng, n)
    v_new = (v_prev @ expm(1j * t * k))[:, rng.permutation(n)]
    weight = np.abs(v_prev.conj().T @ v_new) ** 2
    assume(weight.max(axis=1).min() > 0.5)
    rows, cols = linear_sum_assignment(-weight)
    assert np.array_equal(cli.match_labels(v_prev, v_new)[rows], cols)


def test_match_labels_breaks_an_exact_tie_deterministically():
    # a degenerate pair split into (e0 +- e1)/sqrt(2): weights 1/2 each way
    r = np.sqrt(0.5)
    v_new = np.array([[r, r, 0.0], [r, -r, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    v_prev = np.eye(3, dtype=complex)
    first = cli.match_labels(v_prev, v_new)
    assert first.tolist() == [0, 1, 2]
    assert np.array_equal(cli.match_labels(v_prev, v_new), first)


def _greedy_walk(v_prev, v_new):
    # reference: the greedy maximal-overlap walk, one pair at a time over all
    # weights in descending order, ties in row-major order
    weight = np.abs(v_prev.conj().T @ v_new) ** 2
    n_cols = weight.shape[1]
    perm = [-1] * weight.shape[0]
    col_free = [True] * n_cols
    for flat in np.argsort(-weight, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n_cols)
        if perm[i] < 0 and col_free[j]:
            perm[i] = j
            col_free[j] = False
    return np.array(perm, dtype=np.int64)


def _block_unitary(rng, n, random_blocks):
    # direct sum of 1x1 signs and scaled 2x2 and 4x4 Hadamard blocks, whose
    # |entries|^2 tie exactly, or, where random_blocks, of random unitary
    # blocks; rows and columns permuted
    u = np.zeros((n, n), dtype=complex)
    at = 0
    while at < n:
        size = int(rng.choice([s for s in (1, 2, 4) if at + s <= n]))
        if random_blocks and rng.random() < 0.5:
            block = _random_unitary(rng, size)
        else:
            block = np.ones((1, 1))
            while block.shape[0] < size:
                block = np.block([[block, block], [block, -block]])
            block = block / np.sqrt(size)
        u[at : at + size, at : at + size] = block
        at += size
    return u[rng.permutation(n)][:, rng.permutation(n)]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "tied", "tied_and_random"]),
)
def test_match_labels_rounds_equal_the_greedy_walk(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        v_prev, v_new = _random_unitary(rng, n), _random_unitary(rng, n)
    else:
        # the identity times a matrix is exact, so the ties reach the weights
        v_prev = np.eye(n)
        v_new = _block_unitary(rng, n, random_blocks=kind == "tied_and_random")
    assert np.array_equal(cli.match_labels(v_prev, v_new), _greedy_walk(v_prev, v_new))


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_match_labels_staircase(n):
    # weights rising along the path r0-c0-r1-c1-...: only the last pair of
    # the free path is first in its row and column, one pair per round
    weight = np.zeros((n, n))
    for k in range(n):
        weight[k, k] = 2.0 * k + 2.0
        if k + 1 < n:
            weight[k + 1, k] = 2.0 * k + 3.0
    v_new = np.sqrt(weight / weight.max())
    v_prev = np.eye(n)
    want = _greedy_walk(v_prev, v_new)
    assert np.array_equal(cli.match_labels(v_prev, v_new), want)
    assert want.tolist() == list(range(n))


def test_compare_quartic_makes_only_real_dense_eigh(capsys, monkeypatch):
    # the quartic oscillator is real: every dense eigendecomposition of a
    # compare run, engine and exact baseline alike, runs in real arithmetic
    seen = []
    numpy_eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append((np.asarray(a).dtype, np.ndim(a)))
        return numpy_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    code, out, _ = _run(
        [
            "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "40",
            "--eps", "0.05,0.1", "--order", "4", "--stages", "3",
            "--levels", "0,1", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert {c["winner"] for c in json.loads(out)["comparisons"]} == {"su"}
    assert len(seen) > 0
    assert set(seen) == {(np.dtype(np.float64), 2)}


@pytest.mark.parametrize(
    "flag, value",
    [("--eps", "0.1,nan"), ("--deg-tol", "nan"), ("--gap-guard", "nan"),
     ("--gap-guard", "-1e-6"), ("--eps", "0.1,0.1"), ("--levels", "0,0"),
     ("--eps", "1e300"), ("--stages", "0"), ("--stages", "-1"),
     ("--stages", "4"), ("--order", str(sp.MAX_ORDER + 1)), ("--dim", "4"),
     ("--eps", "1e308")],
    ids=["eps", "deg_tol", "gap_guard", "gap_guard_negative", "eps_repeated",
         "levels_repeated", "eps_overflow", "stages", "stages_negative",
         "stages_past_last", "order_past_cap", "dim_below_builtin_minimum",
         "eps_weighted_sum_overflows"],
)
def test_bad_numeric_flag_is_named(capsys, flag, value):
    args = [
        "--method", "compare", "--builtin", "quartic_oscillator", "--dim", "12",
        "--eps", "0.1", "--levels", "0",
    ]
    code, out, err = _run(args + [f"{flag}={value}"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "flag, value", [("--eps", "0.1,x"), ("--levels", "0,x"), ("--eps", "0.1,,0.2")],
    ids=["eps", "levels", "eps_empty_item"],
)
def test_malformed_list_flag_names_the_expected_list(capsys, flag, value):
    args = [
        "--method", "su", "--builtin", "quartic_oscillator", "--dim", "12",
        "--eps", "0.1", f"{flag}={value}",
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a comma-separated list of " in err
    assert repr(value) in err


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_path_is_one_error_line(capsys, tmp_path, target):
    out_path = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
    code, out, err = _run(
        ["--method", "su", "--builtin", "quartic_oscillator", "--dim", "12",
         "--eps", "0.1", "--out", str(out_path)],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: --out {out_path}: ") and err.count("\n") == 1


def test_engine_overflow_is_one_error_line(capsys):
    # eps 1e10 at order 16 overflows the basis at stage 3; any numpy warning
    # on the way would raise here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            ["--method", "su", "--builtin", "quartic_oscillator", "--dim", "12",
             "--eps", "1e10", "--order", "16"],
            capsys,
        )
    assert code == 1 and out == ""
    assert err.startswith("error: stage 3: ") and err.count("\n") == 1


def test_overflowing_generator_is_named_as_the_generator(capsys, tmp_path):
    # B_01 = 1e307 over the gap 0.05 overflows the stage-1 generator
    # B/(E_j - E_k) itself, before any Hamiltonian slot is built from it
    coupling = np.zeros((3, 3))
    coupling[0, 1] = coupling[1, 0] = 1e307
    path = tmp_path / "overflow.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 3,
                "terms": [
                    {"order": 0, "matrix": np.diag([0.0, 0.05, 1.0]).tolist()},
                    {"order": 1, "matrix": coupling.tolist()},
                ],
            }
        ),
        encoding="utf-8",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            ["--method", "su", "--model", str(path), "--eps", "0.1", "--order", "8"],
            capsys,
        )
    assert code == 1 and out == ""
    assert err.startswith("error: stage 1: generator slot A_1 has a non-finite entry")
    assert err.count("\n") == 1


def test_overflowing_eps_is_named_for_rs_alone(capsys):
    # eps**k of the order-4 series overflows a float
    code, out, err = _run(
        ["--method", "rs", "--builtin", "quartic_oscillator", "--dim", "12",
         "--eps", "1e200"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: --eps 1e+200") and "Traceback" not in err


def test_overflowing_eps_weight_is_named_as_eps_and_stage(capsys):
    # eps**2 overflows a float in the stage-1 flow at eps 1e200; any numpy
    # warning on the way would raise here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            ["--method", "su", "--builtin", "quartic_oscillator", "--dim", "12",
             "--eps", "1e200", "--order", "4"],
            capsys,
        )
    assert code == 1 and out == ""
    assert err.startswith("error: --eps 1e+200: ") and err.count("\n") == 1
    assert "stage 1: eps^2/2! overflows a float at eps 1e+200" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_rs_energy_is_named_as_eps(capsys, fmt):
    # eps**4 = 1e308 is still a float, but c_4 eps**4 is not; any warning
    # on the way would raise here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            ["--method", "rs", "--builtin", "quartic_oscillator", "--dim", "12",
             "--eps", "1e77", "--format", fmt],
            capsys,
        )
    assert code == 1 and out == ""
    assert err.startswith("error: --eps 1e+77") and "OverflowError" in err
    assert "RuntimeWarning" not in err


def test_bad_out_path_fails_before_the_report_is_computed(capsys, monkeypatch):
    def never(args):
        raise AssertionError("compute_report ran before --out was checked")

    monkeypatch.setattr(cli, "compute_report", never)
    code, out, err = _run(
        ["--method", "compare", "--builtin", "quartic_oscillator", "--dim", "150",
         "--eps", "0.02,0.05", "--out", "/nonexistent/x.json"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: --out /nonexistent/x.json: No such file or directory\n"
    assert not os.path.exists("/nonexistent")
