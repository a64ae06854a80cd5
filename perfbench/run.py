#!/usr/bin/env python3
"""Build the Zarf benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
`zbench` (Release) under `.bench_build/perfbench` (or under
`$CARGO_TARGET_DIR/perfbench` when that variable is set); later runs
rebuild incrementally. Human-readable lines come first; the last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`).

The full report — provenance, every named metric, the simulated
fingerprint and any failed checks — is written under the build
directory's `reports/`, never into the tracked tree. Each trace-0
fingerprint is also kept under `fingerprints/`, keyed by workload,
seed and a hash of `src/` and `perfbench/`; a later run of the same
sources and seed that produces a different fingerprint counts as a
failed check.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run after the build, the traced one included, must end
# within 180 s.
DEADLINE_S = 175
ADDR_NO_RANDOMIZE = 0x0040000


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then build zbench; compiler output goes to a log."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "zbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "zbench")


def fixed_layout():
    """Child pre-exec hook: turn address-space randomization off.

    With it on, identical runs of concolic_sweep differed by 9% in
    throughput; with one fixed layout, by 3%.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def source_hash():
    """SHA-256 over the program's and the benchmark's sources.

    The fingerprint is a function of both: src/ is the simulator,
    perfbench/ fixes the workloads' inputs and durations.
    """
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (have %s)" % (args.workload, names))
    for need in ("src/CMakeLists.txt", "tests/corpus"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("missing %s: run from a full checkout" % need)

    bdir = build_dir()
    exe = build(bdir)
    deadline = time.monotonic() + DEADLINE_S
    reports = os.path.join(bdir, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    commit = commit_id()
    tree = source_hash()

    def zbench(workload, seconds, overhead, report):
        cmd = [exe, "--workload", workload,
               "--seed", str(args.seed & 0xFFFFFFFFFFFFFFFF),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--overhead", str(overhead), "--report", report,
               "--commit", commit,
               "--corpus", os.path.join("tests", "corpus")]
        left = deadline - time.monotonic()
        if left <= 0:
            die("out of time before running %s" % workload)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=left,
                                  preexec_fn=fixed_layout)
        except subprocess.TimeoutExpired:
            die("zbench did not finish within %d s" % DEADLINE_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            die("zbench exited with %d" % proc.returncode)
        with open(report) as f:
            return json.load(f)

    if args.trace == 0:
        report = stem + ".json"
        rep = zbench(args.workload, args.seconds, 0, report)
        result = rep["result"]
    else:
        # Every workload is traced in a fresh process of its own, so
        # each layer is measured in the allocator and cache state its
        # untraced run sees; the named workload also runs untraced for
        # half its share, the baseline of the tracing overhead.
        share = args.seconds / len(names)
        report = stem + ".json"
        parts = {}
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for name in names:
            focus = name == args.workload
            part = zbench(name, share, int(focus),
                          "%s.%s.json" % (stem, name))
            parts[name] = part
            r = part["result"]
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for key, val in r["metrics"].items():
                if key == "trace.spans" and key in result["metrics"]:
                    result["metrics"][key]["value"] += val["value"]
                elif key in result["metrics"]:
                    die("metric %s reported by two workloads" % key)
                else:
                    result["metrics"][key] = val
        rep = {"schema": 1, "workload": args.workload,
               "provenance": dict(parts[args.workload]["provenance"]),
               "result": result, "parts": parts}

    want = [m["name"] for m in
            bench["per_layer" if args.trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        die("metric set mismatch: missing %s, unexpected %s" %
            (sorted(set(want) - set(got)), sorted(set(got) - set(want))))

    rep["provenance"]["source_tree_sha256"] = tree
    if args.trace == 0:
        fdir = os.path.join(bdir, "fingerprints")
        os.makedirs(fdir, exist_ok=True)
        fpath = os.path.join(fdir, "%s-seed%d-%s.json" %
                             (args.workload, args.seed, tree[:16]))
        fp = rep["fingerprint"]
        if os.path.exists(fpath):
            with open(fpath) as f:
                previous = json.load(f)
            same = previous == fp
            rep["fingerprint_matches_previous"] = same
            if not same:
                print("  FAILED CHECK: simulated fingerprint differs "
                      "from an earlier run of this source and seed")
                result["correct"] = False
                result["failed"] += 1
        else:
            with open(fpath, "w") as f:
                json.dump(fp, f, indent=1, sort_keys=True)
            rep["fingerprint_matches_previous"] = None
        print("  fingerprint " + json.dumps(fp, sort_keys=True))
    with open(report, "w") as f:
        json.dump(rep, f, indent=1)
    print("  report " + os.path.relpath(report, ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
