#!/usr/bin/env python3
"""Builds and runs the PSRA-HGADMM end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload news20-dyn --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The first run configures and builds the
harness under $CARGO_TARGET_DIR (default .bench_build) with CMake; later runs
rebuild only what changed. The harness output is echoed, a copy is kept under
<build root>/perfbench-results/, and the last line printed is the result
record {"correct", "attempted", "failed", "metrics"}. The exit code is the
harness's: 0 only when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("news20-dyn", "smoke1k-dyn", "urltall-hier")
# Files whose contents define what is measured; hashed into the manifest so a
# result traces back to its sources without git metadata.
DIGEST_DIRS = ("src", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in DIGEST_DIRS:
        files += [p for p in (ROOT / d).rglob("*") if p.is_file()]
    for p in sorted(files):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--abbrev=40"],
            capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    """Configures (once) and builds the harness; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=True)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step failed: {' '.join(cmd)}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a "
             "full source tree")

    broot = build_root()
    build_dir = broot / "perfbench"
    build(build_dir)
    results = broot / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    cmd = [str(build_dir / "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace == 1:
        cmd += ["--trace-file", str(results / f"{stem}-spans.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"harness did not complete: {e}", 3)
    (results / f"{stem}.txt").write_text(proc.stdout + proc.stderr)
    sys.stderr.write(proc.stderr)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail(f"harness printed no result (exit {proc.returncode})", 3)
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
