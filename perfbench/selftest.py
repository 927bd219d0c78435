#!/usr/bin/env python3
"""Self-tests of the repository benchmark's digests.

Usage (from the repository root; takes a few minutes):

    python3 perfbench/selftest.py [WORKLOAD...]

Each benchmark run prints input_digest (a hash over every cell's
synthesized traces) and sim_digest (a hash over every cell's public
counters; on the sampled lane, over each cell's deterministic sampled
report). For every workload this checks that:

  * two runs with the same seed give the same simulated digest;
  * a traced run gives the same simulated digest as an untraced one,
    so the forwarding listeners do not change the simulation;
  * sampled_lane gives the same digest with 1 and with 4 threads
    (its two same-seed runs use those thread counts);
  * every run passes its correctness and regime checks (exit code 0).

It also checks that a different seed changes the input digest.
Exits non-zero if any check fails.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("graph_storm", "pointer_chase", "shared_2core", "sampled_lane")


def run(workload, seed, trace=0, threads=2):
    """Run one short benchmark; return (exit code, input, sim digest)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--threads", str(threads)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    digests = dict(re.findall(r"^(input_digest|sim_digest) (\w+)$",
                              p.stdout, re.M))
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
    return p.returncode, digests.get("input_digest"), digests.get(
        "sim_digest")


def main():
    workloads = sys.argv[1:] or list(WORKLOADS)
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in workloads:
        if w == "sampled_lane":
            a = run(w, 1, threads=1)
            b = run(w, 1, threads=4)
            what = "1 and 4 threads"
        else:
            a = run(w, 1)
            b = run(w, 1)
            what = "two runs"
        t = run(w, 1, trace=1)
        for name, r in (("first", a), ("second", b), ("traced", t)):
            check(r[0] == 0, f"{w}: {name} run exits 0")
        check(a[2] is not None and a[2] == b[2],
              f"{w}: same seed, {what}: sim digest {a[2]} == {b[2]}")
        check(a[2] == t[2],
              f"{w}: traced == untraced sim digest {a[2]} == {t[2]}")
        check(a[1] is not None and a[1] == b[1] == t[1],
              f"{w}: same seed gives the same input digest")

    w = "pointer_chase" if "pointer_chase" in workloads else workloads[0]
    one = run(w, 1)
    two = run(w, 2)
    check(one[1] is not None and two[1] is not None and one[1] != two[1],
          f"{w}: seed 2 changes the input digest ({one[1]} vs {two[1]})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
