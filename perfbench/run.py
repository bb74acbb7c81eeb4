#!/usr/bin/env python3
"""Build and run the norns-go benchmark.

Usage, from the root of a norns-go checkout:

    python3 perfbench/run.py --workload control-noop --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the checkout's sources through a replace directive. Its binary,
the Go build cache and the run's files all stay under .bench_build/ in
the checkout. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the root of a norns-go checkout (no go.mod here)", file=sys.stderr)
        return 2
    build = os.path.join(root, BUILD_DIR)
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary, "-workdir", build] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
