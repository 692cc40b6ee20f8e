#!/usr/bin/env python3
"""Self-tests for scripts/bench_compare.py --exact (stdlib unittest).

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare  # noqa: E402


def record(bench, device, matrix, time_ms, **extra):
    r = {"bench": bench, "device": device, "matrix": matrix, "algo": "crc",
         "n": 64, "time_ms": time_ms}
    r.update(extra)
    return r


def report(records, **options):
    opts = {"snap_scale": 0.25, "max_graphs": 64, "sample_blocks": 1024,
            "quick": False}
    opts.update(options)
    return {"schema_version": 1, "options": opts, "records": records,
            "rollups": []}


BASELINE = report([
    record("spmm", "gtx1080ti", "cora", 0.125, speedup=1.5),
    record("spmm", "gtx1080ti", "pubmed", 0.3),
    record("spmm", "rtx2080", "cora", 0.1),
    record("serve", "gtx1080ti", "uniform", 2.5),
    record("serve", "host", "uniform", 7.25, wallclock=True),
])


class ExactModeTest(unittest.TestCase):
    def run_exact(self, fresh, baseline=BASELINE):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, rep in (("base.json", baseline), ("fresh.json", fresh)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(rep, f)
                paths.append(path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = bench_compare.main(
                    [paths[1], "--baseline", paths[0], "--exact"])
        return status, out.getvalue() + err.getvalue()

    def test_identical_reports_pass(self):
        status, out = self.run_exact(copy.deepcopy(BASELINE))
        self.assertEqual(status, 0, out)
        self.assertIn("4 compared, 1 wall-clock skipped", out)

    def test_one_ulp_time_change_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["records"][1]["time_ms"] = math.nextafter(0.3, 1.0)
        status, out = self.run_exact(fresh)
        self.assertEqual(status, 1)
        self.assertIn("spmm [gtx1080ti] record 1", out)

    def test_wallclock_only_change_passes(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["records"][4]["time_ms"] = 9.5
        status, out = self.run_exact(fresh)
        self.assertEqual(status, 0, out)

    def test_subset_run_passes(self):
        fresh = report([r for r in copy.deepcopy(BASELINE["records"])
                        if r["bench"] == "spmm" and r["device"] == "rtx2080"])
        status, out = self.run_exact(fresh)
        self.assertEqual(status, 0, out)
        self.assertIn("1 compared, 0 wall-clock skipped", out)

    def test_dropped_record_fails(self):
        fresh = copy.deepcopy(BASELINE)
        del fresh["records"][0]
        status, out = self.run_exact(fresh)
        self.assertEqual(status, 1)
        self.assertIn("spmm [gtx1080ti]: 1 records, baseline has 2", out)

    def test_protocol_mismatch_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["options"]["quick"] = True
        status, out = self.run_exact(fresh)
        self.assertEqual(status, 1)
        self.assertIn("protocols differ", out)


if __name__ == "__main__":
    unittest.main()
