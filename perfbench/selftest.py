#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

Run from the repository root:  python3 perfbench/selftest.py

Checks, on short runs of every workload:
  - the reference Table 6/7 cells are BENCH_pr4.json's Chorus cells;
  - exact metrics repeat bit-for-bit across two runs of one seed
    (sim_ms_per_op, paper_err_pct, words_per_op on the sequential engine,
    and the simulated *_per_op counts of the traced run);
  - a perturbed reference makes the correctness check count failures;
  - the output records nproc, the OCaml version, the worker domains and
    the host-speed calibration;
  - a bad command line exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tables", "make", "storm", "storm-pool"]
SECONDS = "2"

# Simulated counts of the traced run: functions of the simulated work
# alone, so they must repeat exactly.
EXACT_COUNTS = re.compile(
    r"^(hw\.engine\.charges_per_op|core\.fault\..*\.per_op|core\.gmap\.probes_per_op"
    r"|core\.history\..*|core\.pervpage\..*|core\.pager\..*|core\.cow_copies_per_op"
    r"|core\.moved_pages_per_op)$"
)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(*args):
    out = subprocess.run(
        ["python3", os.path.join(HERE, "run.py")] + list(args),
        capture_output=True,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return out.returncode, out.stdout, result


def reference_cells():
    src = open(os.path.join(HERE, "reference.ml")).read()
    body = re.search(r"let cells_ns =\s*\[\|(.*?)\|\]", src, re.S).group(1)
    return [int(x) for x in re.findall(r"\d+", body)]


def bench_cells():
    path = "BENCH_pr4.json"
    if not os.path.exists(path):
        return None
    tables = json.load(open(path))["tables"]
    cells = []
    for t in tables:
        if "Chorus" in t["name"]:
            cells += ["%.3f" % c["measured_ms"] for c in t["cells"]]
    return cells


def main():
    bench = bench_cells()
    if bench is not None:
        mine = ["%.3f" % (ns / 1e6) for ns in reference_cells()]
        check(mine == bench, "reference cells equal BENCH_pr4.json's Chorus cells")

    code, out, res = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    check(code != 0 and res is None, "an unknown workload exits non-zero without a result")

    for wl in WORKLOADS:
        sequential = wl != "storm-pool"
        runs = [run("--workload", wl, "--seed", "7", "--seconds", SECONDS, "--trace", "0") for _ in range(2)]
        for code, out, res in runs:
            check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
                  "%s: untraced run correct" % wl)
            check(re.search(r"^# host: nproc=\d+ ocaml=\S+ worker_domains=\d+", out, re.M) is not None,
                  "%s: output records nproc, OCaml version and worker domains" % wl)
            cal = re.search(r"^# Calib kernels wall ms per pass: min \S+ median (\S+)", out, re.M)
            check(cal is not None and float(cal.group(1)) > 0,
                  "%s: output records the host-speed calibration" % wl)
        exact = ["sim_ms_per_op", "paper_err_pct"] + (["words_per_op"] if sequential else [])
        if runs[0][2] and runs[1][2]:
            for m in exact:
                a = runs[0][2]["metrics"][m]["value"]
                b = runs[1][2]["metrics"][m]["value"]
                check(a == b, "%s: %s repeats exactly (%r, %r)" % (wl, m, a, b))

        traced = [run("--workload", wl, "--seed", "7", "--seconds", SECONDS, "--trace", "1") for _ in range(2)]
        for code, out, res in traced:
            check(code == 0 and res is not None and res["correct"], "%s: traced run correct" % wl)
        if traced[0][2] and traced[1][2]:
            m0, m1 = traced[0][2]["metrics"], traced[1][2]["metrics"]
            names = [n for n in m0 if EXACT_COUNTS.match(n)]
            same = [n for n in names if m0[n]["value"] == m1[n]["value"]]
            check(len(names) > 0 and same == names,
                  "%s: %d simulated per-op counts repeat exactly" % (wl, len(names)))

        code, out, res = run("--workload", wl, "--seed", "7", "--seconds", "1", "--trace", "0",
                             "--perturb-reference")
        check(code == 0 and res is not None and not res["correct"] and res["failed"] > 0,
              "%s: a perturbed reference counts failed ops (%s)" % (wl, res and res["failed"]))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
