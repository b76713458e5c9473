"""Self-check of the harness at tiny sizes: python3 perfbench/run.py --smoke

Every workload runs once untraced and once traced.  The check covers the
metric names and units against BENCHMARK.json, the correctness checks, the
dense eigh count each workload is built to make, and the span tree: the
parent/child edges the package's call graph implies, self times that are
not negative and that add up with the unattributed rest to the wall time.
"""

import json
import math
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

ENGINE_EDGES = {
    ("kolmogorov.run", "kolmogorov.init"),
    ("kolmogorov.run", "kolmogorov.step"),
    ("kolmogorov.run", "kolmogorov.match_labels"),
    ("kolmogorov.init", "linalg.eigh.from_kolmogorov"),
    ("kolmogorov.step", "linalg.eigh.from_kolmogorov"),
    ("kolmogorov.step", "averaging.average"),
    ("kolmogorov.step", "series.conjugate_series"),
    ("kolmogorov.step", "series.u_coefficients"),
    ("series.conjugate_series", "linalg.commutator_ad"),
}
CLI_EDGES = {
    ("", "import.superpert"),
    ("", "cli.main"),
    ("cli.main", "cli.compute_report"),
    ("cli.main", "cli.render_report"),
    ("cli.compute_report", "models.build"),
    ("cli.compute_report", "linalg.eigh.from_cli"),
    ("cli.compute_report", "kolmogorov.match_labels"),
    ("cli.compute_report", "rayleigh_schrodinger.rs_corrections"),
    ("cli.compute_report", "kolmogorov.run"),
}
LIBRARY_EDGES = {("", "kolmogorov.run")}


def _check(name, trace, result, detail, spec):
    w = workloads.SMOKE[name]
    problems = []
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(set(got) ^ set(want))} differ in name or unit")
    bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        problems.append(f"non-finite values {bad}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    if not trace:
        return problems
    table = detail["layers"]
    if table["dense_eigh_seen"] != [w.expected_dense_eigh()]:
        problems.append(
            f"dense eigh counts {table['dense_eigh_seen']}, "
            f"expected {w.expected_dense_eigh()}"
        )
    negative = [k for k, v in table["self_s"].items() if v < -1e-6]
    if negative or table["unattributed_s"] < -1e-6:
        problems.append(f"negative self time in {negative or 'the unattributed rest'}")
    total = sum(table["self_s"].values()) + table["unattributed_s"]
    if abs(total - table["wall_s"]) > 1e-9:
        problems.append(f"self times sum to {total}, wall is {table['wall_s']}")
    edges = ENGINE_EDGES | (CLI_EDGES if w.is_cli else LIBRARY_EDGES)
    missing = edges - {tuple(e) for e in table["edges"]}
    if missing:
        problems.append(f"span edges missing: {sorted(missing)}")
    return problems


def smoke(measure) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in workloads.SMOKE:
        for trace in (False, True):
            result, detail = measure(name, 1, 0.0, trace, smoke=True)
            problems = _check(name, trace, result, detail, spec)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {name} trace={int(trace)}: {status}")
    return 1 if failures else 0
