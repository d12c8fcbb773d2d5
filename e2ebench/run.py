#!/usr/bin/env python3
"""Builds and runs the ONEX end-to-end benchmark (see README.md here).

    python3 e2ebench/run.py --workload dashboard --seed 1 --seconds 30 --trace 0

builds the benchmark from source into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench) and runs one workload. The last line of standard
output is the result object: {"correct", "attempted", "failed", "metrics"}.
The line before it ("report {...}") carries provenance, sample counts and
the workload-specific numbers.

    --heldout-seed N   after the run on --seed, rerun on seed N, a seed not
                       used while tuning a change, and print its result line
                       prefixed "heldout"; the last line stays --seed's.
    --smoke            run every workload briefly, traced and untraced, and
                       check that every metric BENCHMARK.json names is
                       present with its unit.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                                   cwd=ROOT, capture_output=True, text=True)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return "git:" + sha.stdout.strip() + suffix
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "onex")):
        fail("the ONEX sources (src/onex) are not in this checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    binary = os.path.join(build_dir, "onex_e2ebench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return binary, build_dir


def run(binary, build_dir, workload, seed, seconds, trace, sid):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source", sid, "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def smoke(binary, build_dir, sid):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(binary, build_dir, w["name"], 1, 2, trace, sid)
            if code != 0 or not lines:
                problems.append("%s trace=%d: exit %d" % (w["name"], trace, code))
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s trace=%d: missing %s"
                                    % (w["name"], trace, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s trace=%d: %s unit %s != %s"
                                    % (w["name"], trace, m["name"],
                                       got["unit"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s trace=%d: unnamed metrics %s"
                                % (w["name"], trace, sorted(extra)))
            if not result["correct"]:
                problems.append("%s trace=%d: correctness gate failed"
                                % (w["name"], trace))
            print("smoke %s trace=%d: %d metrics" % (w["name"], trace, len(metrics)))
    for p in problems:
        print("smoke problem: " + p)
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout-seed", type=int)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    binary, build_dir = build()
    sid = source_id()
    if args.smoke:
        return smoke(binary, build_dir, sid)
    if not args.workload:
        fail("--workload is required")
    code, lines = run(binary, build_dir, args.workload, args.seed,
                      args.seconds, args.trace, sid)
    if args.heldout_seed is not None:
        hcode, hlines = run(binary, build_dir, args.workload,
                            args.heldout_seed, args.seconds, args.trace, sid)
        for line in hlines:
            print("heldout " + line)
        code = code or hcode
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
