#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed, then runs every workload at --tiny size
and checks: metric names are well formed and match BENCHMARK.json; every
workload verifies its outputs, untraced and traced; one seed reproduces
every deterministic metric and count exactly while another seed changes
the inputs; and KODAN_QUANT / KODAN_THREADS in the environment cannot
change runtime_fp64.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
# End-to-end metrics that are pure functions of the seed.
DETERMINISTIC = ("frame_dvd", "modeled_frame_s", "downlink_dvd")
RECORD = re.compile(r"^run record: .*threads=(\d+) .*input_digest=([0-9a-f]+)$",
                    re.M)

_cache = {}


def invoke(workload, seed, trace, env_extra=None, fresh=False):
    """Run the binary at tiny size; (exit code, JSON result, threads,
    input digest). Memoized per argument set unless @p fresh."""
    key = (workload, seed, trace, tuple(sorted((env_extra or {}).items())))
    if fresh or key not in _cache:
        env = dict(os.environ)
        env.update(env_extra or {})
        proc = subprocess.run(
            [bench.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "0.2", "--trace", str(trace), "--tiny"],
            stdout=subprocess.PIPE, text=True, env=env,
            timeout=bench.RUN_TIMEOUT_S)
        record = RECORD.search(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        got = (proc.returncode, result, int(record.group(1)),
               record.group(2))
        if fresh:
            return got
        _cache[key] = got
    return _cache[key]


def exact_metrics(result, names=None):
    """The metrics that must repeat exactly: the named ones, or every
    count."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if (name in names if names else m["unit"] == "count")}


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not bench.build():
            raise RuntimeError("benchmark build failed")

    def test_metric_names_are_well_formed_and_declared(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            declared = {m["name"] for m in spec[kind]}
            for name in declared:
                self.assertRegex(name, NAME)
            for workload in bench.WORKLOADS:
                _, result, _, _ = invoke(workload, 7, trace)
                self.assertEqual(set(result["metrics"]), declared,
                                 f"{workload} trace={trace}")
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         bench.WORKLOADS)

    def test_every_workload_verifies(self):
        for workload in bench.WORKLOADS:
            for trace in (0, 1):
                code, result, _, _ = invoke(workload, 7, trace)
                label = f"{workload} trace={trace}"
                self.assertEqual(code, 0, label)
                self.assertTrue(result["correct"], label)
                self.assertEqual(result["failed"], 0, label)
                self.assertGreaterEqual(result["attempted"], 1, label)

    def test_same_seed_reproduces_and_other_seed_changes_inputs(self):
        for workload in bench.WORKLOADS:
            _, first, _, digest = invoke(workload, 7, 0)
            _, again, _, digest_again = invoke(workload, 7, 0, fresh=True)
            self.assertEqual(digest, digest_again, workload)
            self.assertEqual(exact_metrics(first, DETERMINISTIC),
                             exact_metrics(again, DETERMINISTIC), workload)
            _, traced, _, _ = invoke(workload, 7, 1)
            _, traced_again, _, _ = invoke(workload, 7, 1, fresh=True)
            self.assertEqual(exact_metrics(traced),
                             exact_metrics(traced_again), workload)
            _, _, _, other = invoke(workload, 8, 0)
            self.assertNotEqual(digest, other, workload)

    def test_environment_cannot_change_runtime_fp64(self):
        _, plain, threads, digest = invoke("runtime_fp64", 7, 0)
        for env in ({"KODAN_QUANT": "int8"}, {"KODAN_THREADS": "16"}):
            code, got, got_threads, got_digest = invoke("runtime_fp64", 7, 0,
                                                        env)
            self.assertEqual(code, 0, env)
            self.assertEqual(got_threads, threads, env)
            self.assertEqual(got_digest, digest, env)
            self.assertEqual(exact_metrics(got, DETERMINISTIC),
                             exact_metrics(plain, DETERMINISTIC), env)
        _, traced, _, _ = invoke("runtime_fp64", 7, 1)
        _, traced_env, _, _ = invoke("runtime_fp64", 7, 1,
                                     {"KODAN_QUANT": "int8",
                                      "KODAN_THREADS": "16"})
        self.assertEqual(exact_metrics(traced), exact_metrics(traced_env))


if __name__ == "__main__":
    unittest.main()
