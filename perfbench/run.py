#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload eedcb-sweep --seed 1 --seconds 30 --trace 0

Builds the benchmark executable from the checkout's sources with dune
(into .bench_build/), then runs it.  --trace 0 runs the end-to-end
measurement (e2e.exe), --trace 1 the traced per-layer decomposition
(traced.exe).  The last line of standard output is the result object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("eedcb-sweep", "fading-greed", "pareto-scale")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the program's sources, so a result identifies the code
    it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a tmedb checkout (missing %s)" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    exe = "traced" if args.trace else "e2e"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "perfbench",
         "./perfbench/%s.exe" % exe],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed", 3)

    cmd = [
        os.path.join(BUILD_DIR, "default", "perfbench", exe + ".exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    try:
        run = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr, timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_BUDGET_S, 4)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
