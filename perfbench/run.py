#!/usr/bin/env python3
"""The benchmark of record for this repository.

Builds perfbench/rpbench (with the library sources under src/) into
.bench_build/, runs one workload, or every workload with --workload all,
and prints the result.

    python3 perfbench/run.py --workload cluster-geolife --seed 1 \
        --seconds 10 --trace 0

Every line but the last is the human-readable report: provenance, every
metric the workload measured with its unit and sample count, and any failed
checks. The last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 its metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are the per_layer metrics of a separate
traced run, whose spans are written under .bench_build/traces/. The whole
result, provenance included, is also saved under .bench_build/results/ for
perfbench/compare.py.

Each workload runs in its own child process, so its peak RSS is its own.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rpbench")
# A workload run ends well within this; the child is killed beyond it.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Keeps the compiler's and rpbench's temporary files in the build."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds rpbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          env=child_env()).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "rpbench", "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode != 0:
        fail("build failed")


def source_identity():
    """The git commit when there is one, and always a digest of src/."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_workload(args, workload):
    """Runs one workload in a child process; returns its parsed result."""
    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=BUILD)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, CHILD_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def report(result, sha, digest):
    """Prints the human-readable block for one workload result."""
    prov = dict(result["provenance"], git_sha=sha, source_digest=digest)
    result["provenance"] = prov
    print("== %s seed=%d trace=%d%s" % (
        result["workload"], result["seed"], int(result["trace"]),
        " (tiny)" if result["tiny"] else ""))
    print("   provenance: " + " ".join(
        "%s=%s" % (k, prov[k]) for k in sorted(prov)))
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        print("   %-28s %16.6g %-6s (n=%d)" % (
            name, m["value"], m["unit"], m["samples"]))
    print("   checks: %d attempted, %d failed" % (
        result["attempted"], result["failed"]))
    for msg in result["failures"]:
        print("   FAILED: " + msg)


def save(result, args):
    # Tiny and corrupted runs are kept apart from the measured results.
    test_run = args.tiny or args.corrupt
    results = os.path.join(BUILD, "results-selftest" if test_run else "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json" % (
        result["workload"], result["seed"], int(result["trace"])))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


def contract_metrics(result, names):
    """The metrics BENCHMARK.json names, with their measured values."""
    out = {}
    for name, unit in names:
        m = result["metrics"].get(name)
        if m is None:
            fail("%s did not report %s" % (result["workload"], name))
        if m["unit"] != unit:
            fail("%s reports %s in %s, not %s" % (
                result["workload"], name, m["unit"], unit))
        out[name] = {"value": m["value"], "unit": unit}
    return out


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs; every workload ends in seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="allow measuring a non-Release build")
    parser.add_argument("--corrupt", choices=["label", "response"],
                        help="corrupt one output, to test the checks")
    args = parser.parse_args()

    build()
    sha, digest = source_identity()
    key = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[key]]
    chosen = workloads if args.workload == "all" else [args.workload]

    attempted = failed = 0
    metrics = {}
    for workload in chosen:
        result = run_workload(args, workload)
        report(result, sha, digest)
        save(result, args)
        attempted += result["attempted"]
        failed += result["failed"]
        picked = contract_metrics(result, names)
        if len(chosen) == 1:
            metrics = picked
        else:
            for name, m in picked.items():
                metrics["%s/%s" % (workload, name)] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
