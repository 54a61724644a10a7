#!/usr/bin/env python3
"""Build and run the Homework router benchmark from the root of a checkout.

    python3 hwbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds hwbench/main.exe with dune when it is missing or older than any
source it is built from (the first build compiles the router from
source), then runs it with the same arguments. The last line of standard
output is the benchmark's JSON result; build output and the per-run
details go to standard error.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "hwbench", "main.exe")
SOURCES = ("dune-project", "lib", "hwbench")


def up_to_date():
    """The executable exists and no source is newer than it."""
    if not os.path.isfile(EXE):
        return False
    built = os.path.getmtime(EXE)
    for top in SOURCES:
        if os.path.isfile(top):
            if os.path.getmtime(top) > built:
                return False
            continue
        for root, _, files in os.walk(top):
            for name in files:
                if name.endswith((".ml", ".mli")) or name == "dune":
                    if os.path.getmtime(os.path.join(root, name)) > built:
                        return False
    return True


def main():
    if not all(os.path.exists(top) for top in SOURCES):
        print("hwbench: run from the root of a checkout", file=sys.stderr)
        return 2
    if not up_to_date():
        build = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2", "--cache=disabled", "--display", "quiet",
             "./hwbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
        if build.returncode != 0 or not os.path.isfile(EXE):
            print("hwbench: build failed", file=sys.stderr)
            return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
