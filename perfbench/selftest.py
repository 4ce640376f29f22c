#!/usr/bin/env python3
"""Self-test of the benchmark; runs in well under a minute after the build.

    python3 perfbench/selftest.py

Checks that:
  * every workload, at tiny size, untraced and traced, exits 0 and prints a
    last line with exactly the keys correct/attempted/failed/metrics, passes
    its own checks, and reports every metric BENCHMARK.json names with its
    unit (end-to-end values non-zero);
  * each workload's saved result carries its own detail metrics;
  * a deliberately corrupted output is counted as failed and not passed:
    one flipped clustering label, and one altered served response record;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SEED = 3

# The workload-specific end-to-end metrics each result must carry.
DETAIL = {
    "cluster-geolife": ["run_1t_s", "run_nt_s"],
    "cluster-tera": ["run_1t_s", "run_nt_s"],
    "serve-session": ["session_s", "rtt_b1_p50_us", "rtt_b1_p99_us",
                      "rtt_b64_p50_us", "rtt_b64_p99_us", "rtt_b4096_p50_us"],
    "stream-churn": ["epoch_p50_ms", "epoch_p90_ms", "read_qps"],
}
COMMON = ["setup_s", "peak_rss_mb", "failed_frac", "setup_raw_s",
          "run_nt_raw_s", "run_1t_raw_s", "host.kernel_1t_s",
          "host.kernel_nt_s"]


def check(ok, msg):
    if not ok:
        print("selftest FAILED: " + msg)
        sys.exit(1)


def run(args, cwd=ROOT):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--seed", str(SEED), "--seconds", "1",
         "--tiny"] + args, cwd=cwd, capture_output=True, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, last


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s trace=%d" % (workload, trace)
            proc, last = run(["--workload", workload, "--trace", str(trace)])
            check(last is not None, "%s exited %d: %s" % (
                what, proc.returncode, proc.stderr[-2000:]))
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  what + ": wrong result keys")
            check(last["correct"] and last["failed"] == 0
                  and last["attempted"] >= 1, what + ": checks failed:\n" +
                  proc.stdout)
            for m in spec[key]:
                got = last["metrics"].get(m["name"])
                check(got is not None, "%s: %s missing" % (what, m["name"]))
                check(got["unit"] == m["unit"], "%s: %s unit %s" % (
                    what, m["name"], got["unit"]))
                if trace == 0:
                    check(got["value"] > 0, "%s: %s is 0" % (what, m["name"]))
            check(set(last["metrics"]) == {m["name"] for m in spec[key]},
                  what + ": metrics beyond BENCHMARK.json")
            if trace == 0:
                path = os.path.join(BUILD, "results-selftest",
                                    "%s-seed%d-trace0.json" % (workload, SEED))
                with open(path) as f:
                    detail = json.load(f)["metrics"]
                for name in COMMON + DETAIL[workload]:
                    check(name in detail, "%s: detail metric %s missing" % (
                        what, name))
            print("ok  %s: %d checks, %d metrics" % (
                what, last["attempted"], len(last["metrics"])))

    for workload, corrupt in (("cluster-geolife", "label"),
                              ("serve-session", "response")):
        proc, last = run(["--workload", workload, "--corrupt", corrupt])
        check(last is not None, "%s --corrupt %s did not finish" % (
            workload, corrupt))
        check(not last["correct"] and last["failed"] >= 1,
              "%s: a corrupted %s was passed" % (workload, corrupt))
        print("ok  %s: corrupted %s counted (%d of %d failed)" % (
            workload, corrupt, last["failed"], last["attempted"]))

    bare = os.path.join(BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, last = run(["--workload", "cluster-geolife"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without the sources did not fail cleanly")
    print("ok  without sources: exit %d, no result" % proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()
