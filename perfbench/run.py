#!/usr/bin/env python3
"""Build and run the OP2/HPX stack benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: airfoil-paper, airfoil-fine, swe-dist, serve-mixed (see
perfbench/README.md). The script builds the `perfbench` package in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs it with the given
arguments under an outer deadline, and forwards its output; the last line
of standard output is the JSON result. It exits non-zero, without printing
a result, when the build fails (for example outside a full checkout) or the
run overruns the deadline. The program's own per-workload watchdog fires
first and names the stage that hung.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Outer guard only: the binary's watchdog ends a stalled run well before.
DEADLINE_S = 175


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this identifies the code without git)."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if not name.endswith((".rs", ".toml", ".lock", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def capture(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_RUSTC"] = capture(["rustc", "-V"])
    env["PERFBENCH_COMMIT"] = capture(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    work = os.path.join(target, "perfbench-work")
    cmd = [os.path.join(target, "release", "perfbench"), "--work-dir", work] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded the outer {DEADLINE_S} s deadline", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
