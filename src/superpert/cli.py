"""Batch front door: evaluate models over eps grids and emit reports.

Methods: exact diagonalization, the order-4 power-series baseline (rs),
the staged superconvergent engine (su), or all three side by side
(compare).  Reports are deterministic: the standard library's json writes
the JSON report, and both formats write a float as Python's shortest repr
that round-trips, so repeated runs are byte-identical and CSV and JSON carry
the same text for each number.  `--stages` runs in 1..ceil(log2(P + 1)),
the stages that still have orders to eliminate at truncation order P.
"""

import argparse
import errno
import json
import os
import sys

import numpy as np

from .kolmogorov import default_n_stages, run, unperturbed
from .linalg import eigh, require_finite, require_positive, require_tolerance
from .models import BUILTIN_MODELS, load_model
from .rayleigh_schrodinger import rs_corrections
from .series import MAX_ORDER, WeightOverflowError, eval_series

_METHODS = ("su", "rs", "exact", "compare")


def _model_from_args(args):
    if args.model is not None:
        model = load_model(args.model)
    elif args.dim is None:
        raise ValueError("--builtin requires --dim")
    else:
        try:
            model = BUILTIN_MODELS[args.builtin](args.dim)
        except ValueError as exc:  # a builtin model takes only its dimension
            raise ValueError(f"--dim: {exc}") from exc
    if args.hbar is not None:
        model = model.with_hbar(require_positive(args.hbar, "--hbar"))
    return model


def match_labels(v_prev: np.ndarray, v_new: np.ndarray) -> np.ndarray:
    """perm[i] = column of v_new carrying the state of v_prev column i.

    Greedy maximal overlap: pairs (i, j) are taken in descending weight
    |<prev_i|new_j>|^2, ties in row-major order, while row i and column j
    are both free.  For unitary v_prev, v_new every row and column of the
    weights sums to 1, so when each row's largest weight exceeds 1/2 those
    maxima form the unique optimal assignment and come first in the order.

    The walk is run in rounds: each round takes every pair that comes first
    in that order within both its free row and its free column.  The walk
    takes each such pair too: a pair before it in its row or its column lies
    in a column or row that an earlier round gave to another pair, so the
    walk skips it.  A round takes at least the first free pair, and the
    rounds end with the walk's assignment.
    """
    weight = np.abs(v_prev.conj().T @ v_new) ** 2
    perm = np.full(weight.shape[0], -1, dtype=np.int64)
    rows = np.arange(weight.shape[0])
    cols = np.arange(weight.shape[1])
    while rows.size and cols.size:
        free = weight[np.ix_(rows, cols)]
        # argmax takes the first of equal weights: the lowest column of a
        # row, the lowest row of a column, as row-major order does
        best_col = np.argmax(free, axis=1)
        best_row = np.argmax(free, axis=0)
        mutual = best_row[best_col] == np.arange(rows.size)
        perm[rows[mutual]] = cols[best_col[mutual]]
        rows = rows[~mutual]
        cols = np.delete(cols, best_col[mutual])
    return perm


def _exact_levels(series, base, eps, deg_tol):
    """Eigenvalues of the series evaluated at eps, labelled by base, the H_0
    levels, and each label's overlap weight |<base_j|exact_j>|^2."""
    spectral = eigh(eval_series(series, eps), deg_tol=deg_tol)
    perm = match_labels(base.eigenvectors, spectral.eigenvectors)
    vecs = spectral.eigenvectors[:, perm]
    overlap = np.abs(np.sum(base.eigenvectors.conj() * vecs, axis=0)) ** 2
    return spectral.eigenvalues[perm], overlap


def _require_distinct(values: tuple, flag: str) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{flag} lists {v:g} more than once")


def compute_report(args: argparse.Namespace) -> dict:
    """All rows and diagnostics for one run, as plain python values.

    `args` holds the flags as parsed by `build_parser`, which already
    enforces the choices, the model source and nonempty lists.  Each eps
    is computed on its own, in ascending order, and its rows are appended
    in output order: levels ascending, within a level `exact`, then `rs`
    orders, then `su` stages."""
    if args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    model = _model_from_args(args)
    levels = tuple(int(j) for j in args.levels)
    for j in levels:
        if not 0 <= j < model.dim:
            raise ValueError(f"level {j} outside 0..{model.dim - 1}")
    _require_distinct(levels, "--levels")
    eps_list = tuple(sorted(require_finite(e, "--eps") for e in args.eps))
    _require_distinct(eps_list, "--eps")
    deg_tol = require_tolerance(args.deg_tol, "--deg-tol")
    gap_guard = require_tolerance(args.gap_guard, "--gap-guard")
    want_su = args.method in ("su", "compare")
    n_stages = None
    if want_su:
        if args.order > MAX_ORDER:
            raise ValueError(f"--order must be at most {MAX_ORDER}, got {args.order}")
        last = default_n_stages(args.order)
        n_stages = last if args.stages is None else args.stages
        if not 1 <= n_stages <= last:
            raise ValueError(
                f"--stages must be in 1..{last} at --order {args.order}, got {n_stages}"
            )

    want_rs = args.method in ("rs", "compare")
    want_exact_rows = args.method in ("exact", "compare")
    rs_max = min(args.order, 4)

    warnings_list = []
    negative = [e for e in eps_list if e < 0]
    if negative:
        warnings_list.append(
            "eps < 0 requested; the truncated matrix stays diagonalizable but "
            "an unbounded-below potential has no converged spectrum to compare to"
        )

    if want_rs and not model.is_linear:
        raise ValueError(
            "the rs baseline handles only perturbations linear in eps "
            f"(model {model.name!r} has higher-order terms)"
        )

    # the engine's own H_0 eigendecomposition, which its runs below reuse
    base = unperturbed(model, deg_tol, gap_guard)
    series = model.series(model.max_order)
    rs = None
    if want_rs:
        rs = rs_corrections(
            base,
            model.coefficient(1),
            max_order=rs_max,
            levels=levels,
            gap_guard=gap_guard,
        )
    drift = None
    if args.method == "exact" and model.name in BUILTIN_MODELS:
        bigger = BUILTIN_MODELS[model.name](model.dim + 20, hbar=model.hbar)
        drift = (
            bigger.series(bigger.max_order),
            eigh(bigger.coefficient(0), deg_tol=deg_tol),
        )

    rows, comparisons, stage_residuals, dim_drift = [], [], [], []
    min_gap = None
    for eps in eps_list:
        try:
            exact, overlap = _exact_levels(series, base, eps, deg_tol)
            result = None
            if want_su:
                result = run(
                    model,
                    eps,
                    args.order,
                    n_stages=n_stages,
                    deg_tol=deg_tol,
                    gap_guard=gap_guard,
                )
                residuals = [info.slot_residual for info in result.history]
                stage_residuals.append({"eps": eps, "residuals": residuals})
                gap = result.min_gap
                if np.isfinite(gap) and (min_gap is None or gap < min_gap):
                    min_gap = gap

            for j in sorted(levels):
                energies = [("exact", "-", exact[j])] if want_exact_rows else []
                if rs is not None:
                    energies += [
                        ("rs", str(k), rs.energy(eps, j, k)) for k in range(1, rs_max + 1)
                    ]
                if result is not None:
                    energies += [
                        ("su", str(n), result.energies[n][j])
                        for n in range(1, result.n_stages + 1)
                    ]
                for method, soo, energy in energies:
                    rows.append(
                        {
                            "eps": float(eps),
                            "level": j,
                            "method": method,
                            "stage_or_order": soo,
                            "energy": float(energy),
                            "abs_error_vs_exact": abs(float(energy) - float(exact[j])),
                        }
                    )

            for j in levels:
                if overlap[j] <= 0.5:
                    warnings_list.append(
                        f"eps {eps:g}: the exact level labelled {j} overlaps its "
                        f"H_0 eigenvector by only {overlap[j]:.3f} (<= 1/2); "
                        "the label is ambiguous"
                    )
                if args.method == "compare":
                    su_err = abs(float(result.energies[-1][j]) - float(exact[j]))
                    rs_err = abs(rs.energy(eps, j, rs_max) - float(exact[j]))
                    winner = "su" if su_err < rs_err else ("rs" if rs_err < su_err else "tie")
                    comparisons.append(
                        {
                            "eps": eps,
                            "level": j,
                            "su_error": su_err,
                            "rs_error": rs_err,
                            "winner": winner,
                        }
                    )
            if drift is not None:
                grown, _ = _exact_levels(*drift, eps, deg_tol)
                dim_drift += [
                    {"eps": eps, "level": j, "drift": abs(float(exact[j]) - float(grown[j]))}
                    for j in levels
                ]
        except (ArithmeticError, WeightOverflowError) as exc:  # e.g. eps**p overflowing
            raise ValueError(
                f"--eps {eps:g}: the computation failed with "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    return {
        "config": {
            "model": model.name,
            "provenance": model.provenance,
            "dimension": model.dim,
            "hbar": model.hbar,
            "method": args.method,
            "eps": list(eps_list),
            "levels": list(levels),
            "order": args.order,
            "stages": n_stages,
        },
        "rows": rows,
        "comparisons": comparisons,
        "diagnostics": {
            "min_denominator_gap": min_gap,
            "stage_residuals": stage_residuals,
            "dim_drift": dim_drift,
            "warnings": warnings_list,
        },
    }


CSV_HEADER = "eps,level,method,stage_or_order,energy,abs_error_vs_exact"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "csv":
        keys = CSV_HEADER.split(",")
        lines = [CSV_HEADER]
        lines += [",".join(str(row[k]) for k in keys) for row in report["rows"]]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def _check_out(path: str) -> None:
    """Raise the error that writing `path` would raise, where it can be told
    before any computation: a directory, or a folder that is missing or not
    writable.  The file itself is not created."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"--out {path}: {os.strerror(code)}")


def cmd_run(args: argparse.Namespace) -> int:
    """Compute, render, and write one report; returns the exit code."""
    if args.out is not None:
        _check_out(args.out)
    report = compute_report(args)
    text = render_report(report, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"--out {args.out}: {exc.strerror or exc}") from exc
    for note in report["diagnostics"]["warnings"]:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def _csv_list(kind, text: str):
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of {kind.__name__}s, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superpert",
        description="Staged superconvergent perturbation theory for finite "
        "Hermitian models, with exact and power-series baselines.",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="path to a JSON model file")
    src.add_argument(
        "--builtin",
        choices=sorted(BUILTIN_MODELS),
        help="builtin model tag (needs --dim)",
    )
    parser.add_argument("--dim", type=int, help="dimension for --builtin")
    parser.add_argument("--method", choices=_METHODS, required=True)
    parser.add_argument(
        "--eps",
        required=True,
        type=lambda text: _csv_list(float, text),
        help="comma-separated list of parameter values",
    )
    parser.add_argument("--order", type=int, default=4, help="truncation order P")
    parser.add_argument(
        "--stages",
        type=int,
        default=None,
        help="stage count in 1..ceil(log2(P+1)) (default the last)",
    )
    parser.add_argument(
        "--levels",
        type=lambda text: _csv_list(int, text),
        default=[0],
        help="comma-separated level labels (default 0)",
    )
    parser.add_argument("--deg-tol", type=float, default=None)
    parser.add_argument("--gap-guard", type=float, default=None)
    parser.add_argument("--hbar", type=float, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return cmd_run(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
