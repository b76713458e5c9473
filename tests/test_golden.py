"""Golden parity: the final-stage energies of the benchmark's library
workloads, seeds 0-2 and every eps, against the values stored in
tests/data/golden_energies.json as float.hex.

The models are built by perfbench/workloads.py, as the benchmark builds
them.  Exact bits may differ on another CPU or BLAS, so each energy is
asserted within GOLDEN_TOL units of u ||H_0||_2; the engine differs from
numpy's eigvalsh by up to about 13 such units on these models.  A change
that moves the energies on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import superpert as sp
from superpert.series import UNIT_ROUNDOFF

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "golden_energies.json"
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


def regenerate(path=DATA):
    """Write the golden file from the engine on sys.path; print how many
    energies differ from the file it replaces."""
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


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else DATA)
