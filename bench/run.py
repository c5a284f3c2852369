#!/usr/bin/env python3
"""The sgen2 benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's reports in this process, one after another (a closed
loop with one client), through ``sgen2.cli.main`` with ``--config`` and
``--out`` files, exactly as the command line would.  Each report is
checked against the golden table before it counts.  Whole passes over
the workload's reports repeat while the next one fits in ``--seconds``;
there is always at least one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one pass traced and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# A report running longer than this is stopped and counted as failed.
REPORT_LIMIT_S = 60.0
# No report starts, and none runs on, past this many seconds after the
# process started, so a run ends well inside the 180 s it is allowed.
HARD_CAP_S = 165.0
# setup_s is the median of this many fresh imports and validations.
SETUP_REPEATS = 7
# report_s_tail is the p95 when at least this many reports lie beyond
# it; otherwise it is the slowest report, at its median over the passes.
TAIL_SAMPLES = 10

PROCESS_START = time.perf_counter()

END_TO_END = [
    ("reports_per_s", "1/s"),
    ("report_s_p50", "s"),
    ("report_s_tail", "s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class ReportTimeout(BaseException):
    """Raised into a report that ran over its limit.  A BaseException, so
    no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise ReportTimeout()


def import_sgen2():
    """Import sgen2 afresh from this checkout's src/ and return its cli."""
    if not (SRC / "sgen2" / "__init__.py").is_file():
        raise SystemExit(f"error: no sgen2 sources under {SRC}")
    for name in [m for m in sys.modules
                 if m == "sgen2" or m.startswith("sgen2.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sgen2.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: sgen2 imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def load_golden():
    with open(BENCH / "golden.json") as fh:
        return json.load(fh)["reports"]


def setup(workload, seed, golden, sampler):
    """Import sgen2, build the workload's reports and validate every
    config; returns ((CPU seconds, interval), cli, reports)."""
    mark = sampler.mark()
    cli = import_sgen2()
    reports = workloads.WORKLOADS[workload](seed)
    for rep in reports:
        cli.validate_config(rep.config)
        if workloads.golden_key(rep) not in golden:
            raise SystemExit(f"error: {rep.name} has no golden entry")
    return sampler.since(mark), cli, reports


class Runner:
    """Runs reports through cli.main and checks each one."""

    def __init__(self, cli, golden, workdir, sampler, tracer=None,
                 deadline=PROCESS_START + HARD_CAP_S):
        self.cli = cli
        self.sampler = sampler
        self.deadline = deadline
        self.golden = golden
        self.tracer = tracer
        self.config_path = str(workdir / "config.json")
        self.out_path = str(workdir / "report.json")

    def run(self, rep):
        """One report, or None past the deadline.  Returns a dict: name,
        cpu_s, interval (for the speed scale), wall, exit, error, status
        ('ok', 'failed' or 'wrong'), sha256, bytes."""
        with open(self.config_path, "w") as fh:
            json.dump(rep.config, fh)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        limit = min(REPORT_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            return None
        gc.collect()
        stderr = io.StringIO()
        code, error = None, None
        signal.setitimer(signal.ITIMER_REAL, limit)
        mark, wall_start = self.sampler.mark(), time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main([rep.command, "--config",
                                      self.config_path, "--out",
                                      self.out_path])
        except ReportTimeout:
            error = "Timeout"
        except Exception as exc:  # a traceback is a failed report
            error = type(exc).__name__
        finally:
            cpu_s, interval = self.sampler.since(mark)
            wall = time.perf_counter() - wall_start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code not in (0, None):
            first = stderr.getvalue().partition("\n")[0]
            error = first.removeprefix("error: ").partition(":")[0]
        result = {"name": rep.name, "cpu_s": cpu_s, "interval": interval,
                  "wall": wall, "exit": code, "error": error,
                  "sha256": None, "bytes": 0}
        return self._check(rep, result)

    def _check(self, rep, result):
        code = result["exit"]
        report_json = None
        if code == 0:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
            result["bytes"] = len(data)
            result["sha256"] = hashlib.sha256(data).hexdigest()
            expected = self.golden[workloads.golden_key(rep)]["sha256"]
            if self.tracer is not None or expected is None:
                report_json = json.loads(data)
            if expected is not None:
                ok = result["sha256"] == expected
            else:
                # failed when frozen: it must now pass its own checks
                ok = _passes_without_golden(rep, report_json)
            result["status"] = "ok" if ok else "wrong"
        else:
            result["status"] = "failed"
        if self.tracer is not None:
            self.tracer.add_report(report_json, result["bytes"])
        return result


def _passes_without_golden(rep, report):
    if report.get("command") != rep.command:
        return False
    if rep.command == "verify":
        return report.get("verification", {}).get("passed") is True
    if rep.command in ("alpha", "generate"):
        return "alpha" in report
    return "analysis" in report


def run_passes(runner, reports, seconds, max_passes=None, tracer=None):
    """Whole passes while the next one fits in `seconds`.  Returns
    (results, passes); each result gets its "id" and, in "seconds", its
    CPU time in reference seconds."""
    results, passes = [], 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, rep in enumerate(reports):
            report_id = f"{passes}:{index}:{rep.name}"
            if tracer is not None:
                tracer.report = report_id
            res = runner.run(rep)
            if res is None:          # hard cap reached
                break
            res["id"] = report_id
            results.append(res)
        else:
            passes += 1
            pass_s = time.perf_counter() - pass_start
            if ((max_passes is None or passes < max_passes)
                    and time.perf_counter() - start + pass_s <= seconds):
                continue
        break
    apply_scales(results, runner.sampler)
    return results, passes


def apply_scales(results, sampler):
    """Turn each result's CPU seconds into reference seconds."""
    for res in results:
        res["scale"] = sampler.scale(*res["interval"])
        res["seconds"] = res["cpu_s"] * res["scale"]


def end_to_end(results, setup_times):
    times = [r["seconds"] for r in results]
    ok = sum(r["status"] == "ok" for r in results)
    if len(times) * 0.05 >= TAIL_SAMPLES:
        tail = statistics.quantiles(times, n=20)[-1]
    else:
        # the slowest report, at its median over the passes
        tail = max(row["median_s"] for row in summarize(results).values())
    values = {
        "reports_per_s": ok / sum(times),
        "report_s_p50": statistics.median(times),
        "report_s_tail": tail,
        "ok_share": ok / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(setup_times),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def git_commit():
    """The commit of the checkout, read from .git; 'unknown' without
    one (the benchmark may run from an exported tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def stamp(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "sweep": workloads.SWEEP_DESCRIPTION,
    }


def summarize(results):
    """Per report name: median seconds, statuses and errors seen."""
    rows = {}
    for r in results:
        row = rows.setdefault(r["name"], {"seconds": [], "status": set(),
                                          "error": set()})
        row["seconds"].append(r["seconds"])
        row["status"].add(r["status"])
        if r["error"]:
            row["error"].add(r["error"])
    return {name: {"median_s": statistics.median(row["seconds"]),
                   "runs": len(row["seconds"]),
                   "status": "/".join(sorted(row["status"])),
                   "error": "/".join(sorted(row["error"])) or None}
            for name, row in rows.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden = load_golden()
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        with speed.SpeedSampler() as sampler:
            setups = []
            for _ in range(SETUP_REPEATS):
                took, cli, reports = setup(args.workload, args.seed, golden,
                                           sampler)
                setups.append(took)
            if args.trace:
                metrics, results, passes = traced_run(
                    cli, golden, reports, workdir, sampler, args)
            else:
                results, passes = run_passes(
                    Runner(cli, golden, workdir, sampler), reports,
                    args.seconds)
        setup_times = [cpu_s * sampler.scale(*interval)
                       for cpu_s, interval in setups]
        if not args.trace:
            metrics = end_to_end(results, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["status"] != "ok" for r in results)
    detail = {
        "stamp": stamp(args.workload, args.seed, args.seconds, args.trace),
        "passes": passes,
        "fail_share": failed / len(results),
        "setup_s_all": setup_times,
        "report_cpu_s_total": sum(r["cpu_s"] for r in results),
        "report_wall_s_total": sum(r["wall"] for r in results),
        "reference_scale_median": statistics.median(
            r["scale"] for r in results),
        "reports": summarize(results),
    }
    if not args.trace:
        times = [r["seconds"] for r in results]
        detail["report_s_max"] = max(times)
        if len(times) >= 20:
            detail["report_s_p95"] = statistics.quantiles(times, n=20)[-1]
    print(json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not any(r["status"] == "wrong" for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def traced_run(cli, golden, reports, workdir, sampler, args):
    """One pass in which each report runs untraced and traced on the
    same modules.  The traced runs give the per-layer metrics; the pairs
    give the tracing overhead.  The second run of a pair finds memory
    the first one allocated, so the order alternates."""
    tracer = tracing.Tracer(tracing.sgen2_modules())
    plain_runner = Runner(cli, golden, workdir, sampler)
    traced_runner = Runner(cli, golden, workdir, sampler, tracer)

    def run_traced(rep):
        tracer.install()
        try:
            return traced_runner.run(rep)
        finally:
            tracer.uninstall()

    plain, traced = [], []
    for index, rep in enumerate(reports):
        tracer.report = f"0:{index}:{rep.name}"
        if index % 2 == 0:
            untraced = plain_runner.run(rep)
            res = untraced and run_traced(rep)
        else:
            res = run_traced(rep)
            untraced = res and plain_runner.run(rep)
        if not (res and untraced):   # hard cap reached
            break
        untraced["id"] = res["id"] = tracer.report
        plain.append(untraced)
        traced.append(res)
    apply_scales(plain + traced, sampler)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                 stamp(args.workload, args.seed, args.seconds, args.trace))
    scales = {r["id"]: r["scale"] for r in traced}
    metrics = tracer.metrics(sum(r["seconds"] for r in traced),
                             sum(r["seconds"] for r in plain), scales)
    return metrics, traced, 1


if __name__ == "__main__":
    sys.exit(main())
