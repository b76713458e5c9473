"""Benchmark harness for superpert: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics, both as
{"correct", "attempted", "failed", "metrics"}.  The line before it records
the machine, the samples behind each number and the full per-layer table.
--smoke runs every workload at tiny sizes in both modes and checks the
metric names, the span tree and the dense eigh counts.  See NOTES.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = str(min(2, os.cpu_count() or 1))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOADS = ("compare_quartic", "deep_dense", "sweep_degenerate")

# Span names whose self time and call count are reported per layer.
LAYERS = (
    "linalg.eigh.from_kolmogorov",
    "series.conjugate_series",
    "series.u_coefficients",
    "linalg.commutator_ad",
    "averaging.average",
    "kolmogorov.step",
    "kolmogorov.init",
    "kolmogorov.run",
    "kolmogorov.match_labels",
)
# Layers that only the CLI workload enters: calls only, so that no
# workload reports a time that is identically zero.
CLI_LAYERS = (
    "linalg.eigh.from_cli",
    "rayleigh_schrodinger.rs_corrections",
    "cli.compute_report",
    "cli.render_report",
)


def child_env():
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args, env):
    """Run a child to completion: exit code, stdout, wall time, peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if err[0]:
        sys.stderr.write(err[0].decode(errors="replace"))
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def worker(*args):
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def machine_info(seed, workload):
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: THREADS for var in THREAD_VARS},
        "numba": util.find_spec("numba") is not None,
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def time_setup(w, seed, smoke, env):
    """Walls of fresh processes that import the package and build the
    model, and the calibrations around them; one unmeasured process first
    compiles and caches bytecode."""
    from workloads import calibrate

    walls, calibration = [], []
    calibrate()  # unrecorded: a process's first call can take seconds
    for i in range(SETUP_REPEATS + 1):
        rc, _, wall, _ = run_child(worker("setup", w.name, seed, int(smoke)), env)
        if rc != 0:
            raise RuntimeError(f"set-up process exited with {rc}")
        if i:
            walls.append(wall)
        calibration.append(calibrate())
    return walls, calibration


def layer_table(windows, walls, costs):
    """Per-window means of each span's self time and calls, the
    unattributed rest of each window's wall time, and the tracer's own
    cost: spans and dense eigh entries times what one wrapper adds."""
    n = len(windows)
    names = sorted({k for s in windows for k in s["calls"]})
    self_s = {k: sum(s["self_s"].get(k, 0.0) for s in windows) / n for k in names}
    calls = {k: sum(s["calls"].get(k, 0) for s in windows) / n for k in names}
    attributed = sum(sum(s["self_s"].values()) for s in windows) / n
    dense = sorted({s["dense_eigh"] for s in windows})
    if len(dense) > 1:
        print(f"dense eigh count varies between windows: {dense}", file=sys.stderr)
    dense_eigh = sum(s["dense_eigh"] for s in windows) / n
    cost = {k: statistics.median(c[k] for c in costs) for k in ("span", "dense")}
    spans = sum(calls.values())
    return {
        "self_s": self_s,
        "calls": calls,
        "dense_eigh": dense_eigh,
        "dense_eigh_seen": dense,
        "wall_s": sum(walls) / n,
        "unattributed_s": sum(walls) / n - attributed,
        "wrapper_cost": cost,
        "overhead_s": spans * cost["span"] + dense_eigh * cost["dense"],
        "edges": sorted({tuple(e) for s in windows for e in s["edges"]}),
    }


def layer_metrics(table, import_s, build_s):
    self_s, calls = table["self_s"], table["calls"]
    eigh = [k for k in calls if k.startswith("linalg.eigh.")]
    m = {
        "linalg.eigh.self_s": (sum(self_s[k] for k in eigh), "s"),
        "linalg.eigh.calls": (sum(calls[k] for k in eigh), "count"),
        "dense_eigh.calls": (table["dense_eigh"], "count"),
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in CLI_LAYERS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    m["import.superpert_s"] = (import_s, "s")
    m["models.build.self_s"] = (build_s, "s")
    m["trace.wall_s"] = (table["wall_s"], "s")
    m["trace.unattributed_s"] = (table["unattributed_s"], "s")
    m["trace.overhead_s"] = (table["overhead_s"], "s")
    return m


def measure_cli(w, seed, seconds, trace, smoke, env):
    import superpert as sp
    from workloads import (
        build_model, calibrate, check_report, keep_going, reference_levels,
    )

    model = build_model(sp, w, seed)
    reference = reference_levels(model.h_coeffs, w.eps)
    argv = [sys.executable, "-m", "superpert.cli", *w.cli_args()]
    stats = {"attempted": 0, "failed": 0, "first": None}

    def check(rc, report_text):
        stats["attempted"] += 1
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            try:
                problems += check_report(w, json.loads(report_text), reference)
            except json.JSONDecodeError as exc:
                problems.append(f"report is not JSON: {exc}")
            if stats["first"] is None:
                stats["first"] = report_text
            elif report_text != stats["first"]:
                problems.append("report differs from the first invocation's")
        for p in problems:
            print(f"compare_quartic: {p}", file=sys.stderr)
        stats["failed"] += bool(problems)

    start = time.perf_counter()
    walls = []
    if not trace:
        # calibrations spread over the run: before and after every invocation
        rss, calibration = [], [calibrate()]
        while keep_going(start, walls, seconds):
            rc, out, wall, peak = run_child(argv, env)
            check(rc, out.decode())
            walls.append(wall)
            rss.append(peak)
            calibration.append(calibrate())
        return stats, {
            "windows": walls,
            "calibration": calibration,
            "peak_rss_mb": max(rss),
        }

    windows, costs = [], []
    while keep_going(start, walls, seconds):
        rc, out, wall, _ = run_child(worker("cli", w.name, int(smoke)), env)
        if rc != 0:
            raise RuntimeError(f"traced CLI process exited with {rc}")
        got = json.loads(out)
        check(got["rc"], got["report"])
        windows.append(got["summary"])
        costs.append(got["wrapper_cost"])
        walls.append(wall)
    table = layer_table(windows, walls, costs)
    metrics = layer_metrics(
        table,
        table["self_s"].get("import.superpert", 0.0),
        table["self_s"].get("models.build", 0.0),
    )
    return stats, {"metrics": metrics, "layers": table}


def measure_library(w, seed, seconds, trace, smoke, env):
    args = worker("sweep", w.name, seed, seconds, int(trace), int(smoke))
    rc, out, _, rss = run_child(args, env)
    if rc != 0:
        raise RuntimeError(f"workload process exited with {rc}")
    got = json.loads(out)
    sweeps = got["sweeps"]
    stats = {
        "attempted": sum(len(s["runs"]) for s in sweeps),
        "failed": sum(s["failed"] for s in sweeps),
    }
    detail = {"max_error": max(s["max_error"] for s in sweeps)}
    if not trace:
        return stats, dict(
            detail,
            windows=[s["wall"] for s in sweeps],
            runs=[s["runs"] for s in sweeps],
            calibration=got["calibration"],
            peak_rss_mb=rss,
        )
    table = layer_table(
        [s["summary"] for s in sweeps],
        [s["wall"] for s in sweeps],
        [got["wrapper_cost"]],
    )
    metrics = layer_metrics(table, got["import_s"], got["build_s"])
    return stats, dict(detail, metrics=metrics, layers=table)


def end_to_end(w, samples, setup, calibration):
    """End-to-end metrics from a run's samples, times in reference seconds
    (see NOTES.md), and the same medians in measured seconds."""
    from workloads import CAL_REF_S

    walls = samples["windows"]
    # the operation of the CLI workload is the invocation
    runs = walls if w.is_cli else [t for ts in samples["runs"] for t in ts]
    raw = {
        "raw.wall_s": statistics.median(walls),
        "raw.run_s.p50": statistics.median(runs),
        "raw.setup_s": statistics.median(setup),
    }
    speed = CAL_REF_S / statistics.mean(calibration)
    metrics = {
        "wall_s": (raw["raw.wall_s"] * speed, "ref_s"),
        "run_s.p50": (raw["raw.run_s.p50"] * speed, "ref_s"),
        "setup_s": (raw["raw.setup_s"] * speed, "s"),
        "peak_rss_mb": (samples["peak_rss_mb"], "MB"),
    }
    return metrics, dict(raw, speed=speed)


def measure(name, seed, seconds, trace, smoke=False):
    """(result line, detail line) of one run of one workload."""
    import workloads

    w = (workloads.SMOKE if smoke else workloads.FULL)[name]
    env = child_env()
    if not trace:
        setup, setup_calibration = time_setup(w, seed, smoke, env)
    measure_workload = measure_cli if w.is_cli else measure_library
    stats, detail = measure_workload(w, seed, seconds, trace, smoke, env)
    if trace:
        metrics = detail.pop("metrics")
    else:
        calibration = setup_calibration + detail["calibration"]
        metrics, raw = end_to_end(w, detail, setup, calibration)
        detail.update(raw, setup=setup, setup_calibration=setup_calibration)
    result = {
        "correct": stats["failed"] == 0 and stats["attempted"] > 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail["machine"] = machine_info(seed, name)
    detail["failed_frac"] = stats["failed"] / stats["attempted"]
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "superpert" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    # numpy reads its thread count when first imported, here and in children
    os.environ.update({var: THREADS for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    if args.smoke:
        from smoke import smoke

        return smoke(measure)
    if args.workload is None:
        parser.error("--workload is required")
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
