#!/usr/bin/env python3
"""Build and run the host-time benchmark of the GMI/PVM simulator.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

The benchmark is an OCaml program (perfbench/main.ml) linked against the
repository's libraries; this wrapper builds it with dune, then runs it
with the same arguments.  Its last line of output is the JSON result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")) or not os.path.isdir(
        os.path.join(root, "lib")
    ):
        sys.stderr.write(
            "perfbench: run from the repository root (dune-project and lib/ "
            "not found in %s)\n" % root
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    # Keep freed heap memory mapped: glibc would otherwise hand the
    # frames of one pass back to the kernel and page-fault them in again
    # on the next.  Set unconditionally, so that every commit measured
    # runs under the same allocator settings whatever the caller's
    # environment holds.
    env = dict(os.environ)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 40)
    env["MALLOC_TOP_PAD_"] = str(64 << 20)
    bench = subprocess.run([EXE] + sys.argv[1:], env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
