#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

    python3 bench/run.py --workload boutique-closed --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see bench/main.go). The
binary, the Go build cache and any trace output stay under .bench_build/ in
the checkout; the build uses only the local toolchain and no network.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(OUT, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="")
    binary = os.path.join(OUT, "nadino-bench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "bench"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("bench: build failed")
    sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
