#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-read-write --seed 1 --seconds 15 --trace 0

It builds perfbench (a Go module of its own that imports the repository's
packages) into .bench_build/ with the Go build cache kept there too, runs it
in a fresh scratch directory under .bench_build/, and passes its output and
exit code through. The last line of standard output is the JSON result.
"""
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT = 170  # seconds; the benchmark itself must end well inside 180


def go_env():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: go toolchain not found on PATH", file=sys.stderr)
        return 2
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        cmd = [binary, *sys.argv[1:], "--workdir", workdir, "--trace-dir", traces]
        try:
            return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            print(f"run.py: benchmark exceeded {RUN_TIMEOUT}s and was killed", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
