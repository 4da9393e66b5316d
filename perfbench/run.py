#!/usr/bin/env python3
"""Build the benchmark from the checkout's source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload tour --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary; see perfbench/main.go and
perfbench/NOTES.md. The binary, the Go build cache and the traced run's
Chrome traces go under .bench_build/ in the checkout, and nothing is read or
written outside it apart from the Go toolchain itself.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; the benchmark builds the repository's "
              "source and must run from a checkout of it" % ROOT, file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update({
        # Freed heap pages go back to the OS lazily (MADV_FREE), so whether
        # the next execution's node images page-fault does not depend on
        # how far the runtime's background scavenger got in between.
        "GODEBUG": "madvdontneed=0",
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env)
    except OSError as e:
        print("perfbench: cannot run the go toolchain: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
