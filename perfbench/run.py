#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow|eco|service --seed N --seconds S --trace 0|1

The Go program in this directory is built into .bench_build/ (override
with CARGO_TARGET_DIR), with the Go build cache, module cache and
temporary files kept there too, so the run reads and writes only inside
the checkout. Build output goes to standard error; the benchmark's last
line of standard output is its JSON result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    args = [binary] + sys.argv[1:] + ["--work", os.path.join(build, "work")]
    os.chdir(root)
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
