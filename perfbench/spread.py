"""Spread of end-to-end metrics over saved runs, calibrated and raw.

    python3 perfbench/run.py --workload <name> --seed <n> ... > run_<n>.txt
    python3 perfbench/spread.py run_*.txt [--against other_*.txt]

Each file holds the stdout of one `--trace 0` run of one workload.  For each
time metric this prints the median over the files and the inter-quartile
range as a share of it, in reference seconds (the metric) and in measured
seconds (the detail line's `raw.` value), so one can see whether the
calibration still narrows the spread.  With --against, it also prints how
far the medians moved from those of a second set of runs.
"""

import argparse
import json
import statistics

TIMES = ("wall_s", "run_s.p50", "setup_s")


def load(paths):
    """{metric: values, "raw.<metric>": values} over the given runs."""
    values = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            *_, detail, result = fh.read().strip().splitlines()
        detail, result = json.loads(detail), json.loads(result)
        for name in TIMES:
            values.setdefault(name, []).append(result["metrics"][name]["value"])
            values.setdefault("raw." + name, []).append(detail["raw." + name])
    return values


def spread(values):
    """(median, IQR / median) as statistics.quantiles gives the quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args()
    now = load(args.runs)
    before = load(args.against) if args.against else {}
    for name, values in now.items():
        median, iqr = spread(values)
        line = f"{name:16s} median {median:9.4f}  IQR/median {iqr:.3f}"
        if name in before:
            line += f"  shift {median / spread(before[name])[0] - 1:+.3f}"
        print(line)


if __name__ == "__main__":
    main()
