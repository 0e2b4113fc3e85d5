#!/usr/bin/env python3
"""Build and run the HOURS query benchmark; see README.md.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload live-tcp --seed 1 --seconds 10 --trace 0

The Go package in this directory is compiled into .bench_build/ at the
checkout root, with the Go build cache and temporary files kept there as
well, and then run with the same arguments. Its exit status is returned.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("run.py: %s holds no go.mod; run the benchmark from a checkout "
              "of the repository" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The go command also writes telemetry under the user's config
    # directory; point HOME and XDG_CONFIG_HOME into the build directory
    # so nothing is written outside the checkout.
    env = dict(os.environ,
               HOME=os.path.join(build, "home"),
               XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOTOOLCHAIN="local", GOENV="off", GOWORK="off",
               GOFLAGS="", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("run.py: go build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
