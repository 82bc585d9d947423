#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json bounds.

Usage:

    python3 perfbench/compare.py BASE.json... -- NEW.json...

Each file is a result written by perfbench/run.py into
.bench_build/results/. A result with a wrong answer (correct false) or one that is not a valid
measurement (valid false: the load generator fell behind, or the trace
records did not add up) is left out and named on stderr; it is never
counted as a slow or a fast run. For every end-to-end metric that both
sets report, the verdict is:

  regression   the new median is worse than the base median by more than
               the metric's bound (a share of the base median);
  improvement  the new median is better by more than the bound;
  unresolved   the change is within the bound but the base runs' own
               spread (interquartile range / median) is wider than the
               bound, so the data cannot tell;
  no change    otherwise.

Exit status 1 when any metric regressed, 2 when a set has no usable
result.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def usable(results, names=None):
    """The results that are correct and valid runs, in order.

    run.py's stdout line has no "valid" key: run.py exits non-zero on an
    invalid run, so a caller that keeps only lines of runs that exited 0
    passes valid runs. `names` labels the results in the message about
    the ones left out.
    """
    kept = []
    for i, r in enumerate(results):
        if r.get("correct", False) and r.get("valid", True):
            kept.append(r)
        else:
            label = names[i] if names else "result %d" % i
            print("skipped %s: correct=%s valid=%s" %
                  (label, r.get("correct"), r.get("valid", True)),
                  file=sys.stderr)
    return kept


def compare(base_runs, new_runs, spec=None):
    """Returns {metric: (verdict, base_median, new_median, change)}.

    `base_runs` and `new_runs` are lists of {"metrics": {name: {"value"}}}
    results; `change` is the relative change of the median, signed so
    that positive is better. Results that are not usable() are left out.
    """
    spec = spec or load_spec()
    base_runs, new_runs = usable(base_runs), usable(new_runs)
    verdicts = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in base_runs
                if name in r["metrics"]]
        new = [r["metrics"][name]["value"] for r in new_runs
               if name in r["metrics"]]
        if not base or not new:
            continue
        b, n = statistics.median(base), statistics.median(new)
        change = (n - b) / b if b else 0.0
        if m["better"] == "lower":
            change = -change
        if change < -m["bound"]:
            verdict = "regression"
        elif change > m["bound"]:
            verdict = "improvement"
        elif spread(base) > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "no change"
        verdicts[name] = (verdict, b, n, change)
    return verdicts


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    sets = []
    for paths in (argv[:cut], argv[cut + 1:]):
        results = []
        for path in paths:
            with open(path) as f:
                results.append(json.load(f))
        results = usable(results, paths)
        if not results:
            print("no usable result in " + " ".join(paths), file=sys.stderr)
            return 2
        sets.append(results)
    verdicts = compare(*sets)
    for name, (verdict, b, n, change) in sorted(verdicts.items()):
        print("%-22s %-12s base %12.6g  new %12.6g  %+7.1f%%" %
              (name, verdict, b, n, 100 * change))
    return 1 if any(v[0] == "regression" for v in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
