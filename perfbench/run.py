#!/usr/bin/env python3
"""Build and run the mpcgs benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload em-paper --seed 1 --seconds 20 --trace 0

The Go program in this directory is compiled into .bench_build/ (the Go
build cache lives there too, so nothing outside the checkout is touched)
and run with the given arguments. Its standard output, whose last line is
the JSON result, is passed through; the exit code is the program's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def run(cmd, timeout, **kw):
    """Run cmd, killing and reaping it if it outlives timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s timed out after %ds" % (cmd[0], timeout), file=sys.stderr)
        return 1


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # Keeps the go command's per-user files (telemetry counters,
        # go env settings) inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    code = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT, cwd=HERE, env=env,
               stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    return run([binary] + sys.argv[1:], RUN_TIMEOUT, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
