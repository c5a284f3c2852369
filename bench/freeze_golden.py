#!/usr/bin/env python3
"""Freeze the golden table: run every report a workload can contain
once and record its exit code, error class and the sha256 of its bytes.

    python3 bench/freeze_golden.py

The table holds the two ladders and the whole pool analyze_sweep draws
from.  Re-freeze only when a change to the reports is intended; a report
that fails when frozen gets no digest and must later exit 0 and pass its
own checks (see run.py).
"""

import json
import os
import shutil
import signal

import run
import speed
import workloads


def main():
    cli = run.import_sgen2()
    signal.signal(signal.SIGALRM, run._on_alarm)
    reports = (workloads.verify_ladder(0) + workloads.principal_ideals(0)
               + workloads.sweep_pool())
    open_table = {workloads.golden_key(r): {"sha256": None} for r in reports}
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"freeze-{os.getpid()}"
    workdir.mkdir()
    table = {}
    try:
        with speed.SpeedSampler() as sampler:
            runner = run.Runner(cli, open_table, workdir, sampler,
                                deadline=float("inf"))
            for rep in reports:
                res = runner.run(rep)
                table[workloads.golden_key(rep)] = {
                    "name": rep.name, "exit": res["exit"],
                    "error": res["error"], "sha256": res["sha256"]}
                print(f"{rep.name}: exit {res['exit']} {res['error'] or ''}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.BENCH / "golden.json", "w") as fh:
        json.dump({"frozen_at": {"git_commit": run.git_commit(),
                                 "src_lines": run.src_lines()},
                   "reports": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
