#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

1. Worker-count invariance: a shortened run of each workload at 1 host
   worker and at 4 (the most any workload uses) gives the same delivered
   page digest and identical simulated metrics.
2. Corruption is caught: flipping one bit of one delivered page inside the
   benchmark's sink makes the run report itself incorrect.
3. Span coverage: in a traced run the top-level spans cover at least 95% of
   the measured phase's wall time.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["bitmap_query", "churn_soak", "open_mixed"]
SIMULATED = ["sim_makespan_ms", "sim_energy_mj", "write_amplification",
             "read_p50_us", "read_tail_us", "write_p50_us", "write_tail_us",
             "compute_p50_us", "compute_tail_us"]


def run(workload, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "11", "--seconds", "3"]
    out = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} {extra}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    digest = next((l.split()[2] for l in lines if l.startswith("# digest")),
                  None)
    return json.loads(lines[-1]), digest


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        one, d1 = run(w, "--rounds", "3", "--trace", "0", "--workers", "1")
        many, dn = run(w, "--rounds", "3", "--trace", "0", "--workers", "4")
        check(one["correct"] and many["correct"], f"{w}: runs correct")
        check(d1 is not None and d1 == dn,
              f"{w}: digest at 1 worker == 4 workers ({d1} vs {dn})")
        diff = [k for k in SIMULATED
                if one["metrics"][k]["value"] != many["metrics"][k]["value"]]
        check(not diff, f"{w}: simulated metrics identical {diff or ''}")

        bad, _ = run(w, "--rounds", "2", "--trace", "0", "--corrupt-sink")
        check(not bad["correct"] and bad["failed"] >= 1,
              f"{w}: flipped bit reported (correct={bad['correct']}, "
              f"failed={bad['failed']})")

        traced, _ = run(w, "--trace", "1")
        cov = traced["metrics"]["host.span_coverage"]["value"]
        check(traced["correct"] and cov >= 0.95,
              f"{w}: span coverage {cov:.4f} >= 0.95")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
