"""The benchmark's own test: exact counts of a traced run repeat exactly.

Runs each workload traced twice at one seed and asserts that every metric
with unit "count" (jobs and tasks per query, tree structure, LBD and leaf
survivors) is identical, and that every answer was exact.

    python3 nnbench/test_counts.py [workload ...]
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = sys.argv[1:] or ["seq-lendb", "batch-sift"]
SEED = 7
SECONDS = 2


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class ExactCounts(unittest.TestCase):
    def test_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = traced_run(workload), traced_run(workload)
                for r in (a, b):
                    self.assertTrue(r["correct"], r)
                    self.assertEqual(r["failed"], 0)
                counts = {n: v["value"] for n, v in a["metrics"].items() if v["unit"] == "count"}
                self.assertGreaterEqual(len(counts), 14)
                for name, value in counts.items():
                    self.assertEqual(value, b["metrics"][name]["value"], f"{workload} {name}")


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
