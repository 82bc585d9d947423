#!/usr/bin/env python3
"""Sensitivity check of the benchmark itself.

Runs the workloads through perfbench/run.py and judges the results
with perfbench/compare.py against the bounds in BENCHMARK.json:

  * a deliberately slower configuration of `batch` built only from
    existing public options (BfsOptions::enable_bottom_up = false, i.e.
    pure top-down traversal) must be reported as a regression of
    ms_gteps;
  * two sets of five runs of unchanged code must be reported as no
    change, on every end-to-end metric of every workload.

A served run whose load generator fell behind its schedule is not a
valid measurement; compare.py leaves it out, and each set must keep at
least MIN_USABLE of its five runs.

Each run builds its graphs and measures for BENCHMARK.json's
run_seconds (thirty runs of unchanged code, three of the slower
configuration), so the check takes about twenty minutes. Run it from
the root of the repository:

    python3 perfbench/test_sensitivity.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SECONDS = str(SPEC["run_seconds"])


# run.py's exit codes for a run that measured and saved its result: 0,
# a wrong answer (3) and an invalid measurement (4). compare.py leaves
# out the results of the latter two.
SAVED_CODES = (0, 3, 4)
# Fewest usable results a set of five may keep.
MIN_USABLE = 4


def run(workload, seed, top_down_only=False):
    """Runs one workload and returns its saved result."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"]
    if top_down_only:
        cmd.append("--top-down-only")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode not in SAVED_CODES:
        raise RuntimeError("%s exited %d:\n%s" %
                           (" ".join(cmd), out.returncode, out.stderr[-2000:]))
    tag = "%s-seed%d-trace0%s" % (workload, seed,
                                  "-topdown" if top_down_only else "")
    with open(os.path.join(ROOT, ".bench_build", "results",
                           tag + ".json")) as f:
        return json.load(f)


WORKLOADS = ("batch", "serve_read", "serve_churn")


class SensitivityTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.base = {w: [run(w, seed) for seed in (1, 2, 3, 4, 5)]
                    for w in WORKLOADS}
        cls.again = {w: [run(w, seed) for seed in (6, 7, 8, 9, 10)]
                     for w in WORKLOADS}
        cls.top_down = [run("batch", seed, top_down_only=True)
                        for seed in (1, 2, 3)]

    def test_pure_top_down_is_a_regression(self):
        verdict = compare.compare(self.base["batch"], self.top_down)
        self.assertEqual(verdict["ms_gteps"][0], "regression", verdict)

    def test_most_runs_are_valid_measurements(self):
        for w in WORKLOADS:
            for runs in (self.base[w], self.again[w]):
                self.assertGreaterEqual(len(compare.usable(runs)),
                                        MIN_USABLE, w)

    def test_unchanged_code_is_no_change(self):
        for workload in WORKLOADS:
            verdicts = compare.compare(self.base[workload],
                                       self.again[workload])
            self.assertEqual(set(verdicts),
                             {m["name"] for m in SPEC["end_to_end"]},
                             workload)
            for name, verdict in verdicts.items():
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(verdict[0], "no change", verdict)

    def test_every_run_checked_its_answers(self):
        runs = self.top_down[:]
        for w in WORKLOADS:
            runs += self.base[w] + self.again[w]
        for result in runs:
            self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
