#!/usr/bin/env python3
"""Build and run parmem's request-path benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warm-assign --seed 1 --seconds 10 --trace 0

The script builds the Go benchmark in perfbench/ into the build directory
(CARGO_TARGET_DIR when set, else .bench_build), keeping the Go build cache
and tool state there too, then runs it with the given arguments and exits
with its exit code. A traced run (--trace 1) also writes its spans to
<build dir>/spans-<workload>-<seed>.json as a Chrome trace.
"""

import os
import subprocess
import sys


def arg_value(args, name, default):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def main():
    args = sys.argv[1:]
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + built.stdout)
        return 1

    cmd = [binary] + args
    if arg_value(args, "--trace", "0") == "1":
        name = "spans-%s-%s.json" % (arg_value(args, "--workload", "none"), arg_value(args, "--seed", "1"))
        cmd += ["--spans", os.path.join(build, name)]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
