"""Golden parity: the final-stage energies of the benchmark's library
workloads, seeds 0-2 and every eps, against the values stored in
tests/data/golden_energies.json as float.hex, and the benchmark's
compare_quartic report against tests/data/golden_compare_quartic.json.

The models and the report's flags come from perfbench/workloads.py, as the
benchmark builds them.  Exact bits may differ on another CPU or BLAS, so
each energy, and each error against the exact level in the report, is
stored as float.hex and asserted within GOLDEN_TOL units of u ||H_0||_2;
the engine differs from numpy's eigvalsh by up to about 13 such units on
these models.  Every other field of the report is asserted exactly.  A
change that moves the results on purpose regenerates both files with

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import superpert as sp
from superpert import cli
from superpert.series import UNIT_ROUNDOFF

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "golden_energies.json"
REPORT = DATA.with_name("golden_compare_quartic.json")
# the report's fields that hold an energy or an error against the exact level
INEXACT = {"rows": ("energy", "abs_error_vs_exact"), "comparisons": ("su_error", "rs_error")}
WORKLOADS = ("deep_dense", "sweep_degenerate")
SEEDS = (0, 1, 2)
GOLDEN_TOL = 32.0  # in units of u ||H_0||_2


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workloads, name, seed):
    """{eps.hex(): SuResult} of one workload's model at seed."""
    w = workloads.FULL[name]
    model = workloads.build_model(sp, w, seed)
    return {float(eps).hex(): sp.run(model, eps, w.order, n_stages=w.stages) for eps in w.eps}


def _report(workloads):
    """The compare_quartic report, computed in-process as the CLI does."""
    args = cli.build_parser().parse_args(workloads.FULL["compare_quartic"].cli_args())
    return cli.compute_report(args)


def regenerate(path=DATA, report_path=REPORT):
    """Write both golden files from the engine on sys.path; print how many
    energies differ from the file it replaces, and whether the report does."""
    workloads = _workloads()
    old = json.loads(path.read_text()) if path.exists() else {}
    new, changed, total = {}, 0, 0
    for name in WORKLOADS:
        for seed in SEEDS:
            key = f"{name}/{seed}"
            runs = _runs(workloads, name, seed)
            new[key] = {
                eps: [float(e).hex() for e in res.energies[-1]] for eps, res in runs.items()
            }
            for eps, values in new[key].items():
                before = old.get(key, {}).get(eps, [])
                total += len(values)
                changed += sum(a != b for a, b in zip(values, before))
                changed += abs(len(values) - len(before))
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{path}: {changed} of {total} energies changed")
    report = _report(workloads)
    for key, fields in INEXACT.items():
        for row in report[key]:
            row.update((f, float(row[f]).hex()) for f in fields)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    moved = not report_path.exists() or report_path.read_text() != text
    report_path.write_text(text)
    print(f"{report_path}: {'changed' if moved else 'unchanged'}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_final_energies_match_the_golden_data(name, seed):
    golden = json.loads(DATA.read_text())[f"{name}/{seed}"]
    runs = _runs(_workloads(), name, seed)
    assert sorted(runs) == sorted(golden)
    for eps, res in runs.items():
        # energies[0] are the H_0 levels, so their max |.| is ||H_0||_2
        tol = GOLDEN_TOL * UNIT_ROUNDOFF * sp.max_norm(res.energies[0])
        got = res.energies[-1]
        want = np.array([float.fromhex(x) for x in golden[eps]])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol, f"eps {float.fromhex(eps)}"


def test_compare_quartic_report_matches_the_golden_data():
    golden = json.loads(REPORT.read_text())
    report = _report(_workloads())
    model = sp.BUILTIN_MODELS[report["config"]["model"]](report["config"]["dimension"])
    tol = GOLDEN_TOL * UNIT_ROUNDOFF * sp.max_norm(model.coefficient(0))  # H_0 is diagonal
    assert sorted(report) == sorted(golden)
    for key, value in report.items():
        if key not in INEXACT:
            assert value == golden[key], key
            continue
        assert len(value) == len(golden[key]), key
        for row, want in zip(value, golden[key]):
            assert sorted(row) == sorted(want)
            for field, x in row.items():
                if field in INEXACT[key]:
                    assert abs(x - float.fromhex(want[field])) <= tol, (key, row)
                else:
                    assert x == want[field], (key, row)


if __name__ == "__main__":
    regenerate(*(Path(a) for a in sys.argv[1:3]))
