"""Workload processes started by run.py; each prints one JSON object.

    worker.py setup <workload> <seed> <smoke>
        import the package and build the workload's model, nothing else;
        run.py times the whole process from outside.
    worker.py sweep <workload> <seed> <seconds> <trace> <smoke>
        a library workload: repeat the eps sweep of `sp.run` calls for
        `seconds` (at least once), untraced or traced.
    worker.py cli <workload> <smoke>
        one traced CLI invocation: the argument list of the untraced
        `python3 -m superpert.cli` run, through `superpert.cli.main`.

The package is found through PYTHONPATH, which run.py points at src/.
"""

import contextlib
import importlib
import io
import json
import sys
import time
import traceback

import numpy as np

import workloads
from tracer import Tracer, wrapper_cost


def _workload(name, smoke):
    return (workloads.SMOKE if smoke == "1" else workloads.FULL)[name]


def setup(name, seed, smoke):
    w = _workload(name, smoke)
    import superpert as sp

    workloads.build_model(sp, w, int(seed))
    return {}


def _sweep(w, model, run, reference):
    """One pass over the eps grid; timing first, checks after."""
    results, times = [], []
    start = time.perf_counter()
    for eps in w.eps:
        t0 = time.perf_counter()
        try:
            results.append(run(model, eps, w.order, n_stages=w.stages))
        except Exception:  # a failed operation is counted, not fatal
            results.append(traceback.format_exc())
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    failed, max_error = 0, 0.0
    for eps, res, ref in zip(w.eps, results, reference):
        if isinstance(res, str):
            print(f"sp.run failed at eps={eps}:\n{res}", file=sys.stderr)
            failed += 1
            continue
        err = workloads.run_error(w, res.energies[-1], ref)
        max_error = max(max_error, err)
        if not err <= w.tol:
            print(f"eps={eps}: error {err:.3e} above {w.tol:g}", file=sys.stderr)
            failed += 1
    return {"wall": wall, "runs": times, "failed": failed, "max_error": max_error}


def sweep(name, seed, seconds, trace, smoke):
    w = _workload(name, smoke)
    seconds, trace = float(seconds), trace == "1"
    tracer = Tracer()
    sp = tracer.wrap("import.superpert", importlib.import_module)("superpert")
    tracer.bind(sp, "make_model", "models.build")
    model = workloads.build_model(sp, w, int(seed))
    tracer.uninstall()
    startup = tracer.summary()
    # references and warm-up stay outside every timed and traced window
    reference = workloads.reference_levels(model.h_coeffs, w.eps)
    tiny = sp.make_model(2, [(0, np.diag([1.0, 2.0])), (1, np.ones((2, 2)))])
    sp.run(tiny, 0.1, 2)

    out = {
        "import_s": startup["self_s"]["import.superpert"],
        "build_s": startup["self_s"]["models.build"],
        "sweeps": [],
        "calibration": [],
    }
    start = time.perf_counter()
    if not trace:
        # calibrations spread over the run, one before and after every
        # sweep (see run.py); a process's first call can take seconds, so
        # it goes unrecorded
        workloads.calibrate()
        out["calibration"].append(workloads.calibrate())
        while workloads.keep_going(start, [s["wall"] for s in out["sweeps"]], seconds):
            out["sweeps"].append(_sweep(w, model, sp.run, reference))
            out["calibration"].append(workloads.calibrate())
        return out

    tracer.install()
    run = tracer.wrap("kolmogorov.run", sp.run)
    try:
        while workloads.keep_going(start, [s["wall"] for s in out["sweeps"]], seconds):
            mark = tracer.mark()
            result = _sweep(w, model, run, reference)
            result["summary"] = tracer.summary(mark)
            out["sweeps"].append(result)
    finally:
        tracer.uninstall()
    out["wrapper_cost"] = wrapper_cost()
    return out


def cli(name, smoke):
    w = _workload(name, smoke)
    tracer = Tracer()
    tracer.wrap("import.superpert", importlib.import_module)("superpert.cli")
    tracer.install()
    main = tracer.wrap("cli.main", sys.modules["superpert.cli"].main)
    buf = io.StringIO()
    # a crash is a failed invocation, as a non-zero exit is untraced
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(w.cli_args())
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        tracer.uninstall()
    return {
        "rc": rc,
        "report": buf.getvalue(),
        "summary": tracer.summary(),
        "wrapper_cost": wrapper_cost(),
    }


if __name__ == "__main__":
    command = {"setup": setup, "sweep": sweep, "cli": cli}[sys.argv[1]]
    print(json.dumps(command(*sys.argv[2:])))
