#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that one seed gives the same analyze_sweep instance list twice,
that the reports of a sample repeat byte for byte and match the golden
table, that tracing leaves the report bytes unchanged, and that every
exact work count repeats across two traced runs.  Takes about ten
seconds.
"""

import os
import shutil
import signal
import sys

import run
import speed
import tracer as tracing
import workloads

SEED = 7
SAMPLE = 12


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    return ok


def run_sample(golden, reports, workdir, traced):
    """Run the reports over a fresh import; returns (digests, counts)."""
    cli = run.import_sgen2()
    tracer = None
    if traced:
        tracer = tracing.Tracer(tracing.sgen2_modules())
        tracer.install()
    with speed.SpeedSampler() as sampler:
        runner = run.Runner(cli, golden, workdir, sampler, tracer,
                            deadline=float("inf"))
        results, _ = run.run_passes(runner, reports, 0, max_passes=1,
                                    tracer=tracer)
    digests = [(r["name"], r["status"], r["sha256"]) for r in results]
    return digests, tracer.counts() if tracer else None


def main():
    golden = run.load_golden()
    signal.signal(signal.SIGALRM, run._on_alarm)
    good = True

    first, again = workloads.analyze_sweep(SEED), workloads.analyze_sweep(SEED)
    good &= check(first == again, f"analyze_sweep({SEED}) twice: same "
                                  f"{len(first)} instances")
    good &= check(first != workloads.analyze_sweep(SEED + 1),
                  "another seed gives another order")

    # a verify report so the verification layer is counted as well
    ladder = [r for r in workloads.verify_ladder(SEED)
              if r.name == "rational_two"]
    sample = first[:SAMPLE] + ladder
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir()
    try:
        plain, _ = run_sample(golden, sample, workdir, traced=False)
        traced, counts = run_sample(golden, sample, workdir, traced=True)
        traced2, counts2 = run_sample(golden, sample, workdir, traced=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good &= check(all(status == "ok" for _, status, _ in plain),
                  f"{len(sample)} reports match the golden table")
    good &= check(plain == traced == traced2,
                  "traced and untraced reports are byte-identical")
    good &= check(counts == counts2,
                  f"{len(counts)} work counts repeat exactly across two "
                  f"traced runs")
    good &= check(counts["verification.modp_bfs_expansions"] > 0
                  and counts["field.create_field"] > 0,
                  "the sample reaches field and verification")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
