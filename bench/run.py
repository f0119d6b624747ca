"""bkpnpoint benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory, with nothing to build.  One driver process
runs the workload's jobs one after another (a closed loop with one client)
as fresh ``python -m bkpnpoint.cli`` processes, and repeats the pass while
another one fits in ``--seconds``.  With ``--trace 1`` it instead feeds the
same jobs in process through ``bkpnpoint.cli.main(argv)``: once untraced,
then at least twice with every layer boundary wrapped (see ``tracing.py``).

Every job's output is checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable summary.  A full record (samples,
percentiles, input digests, per-span call counts) is written under
``bench/out/``.  Exit code 0 when every check passed, 1 when a job failed
or a check did not hold, 2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 20
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_TRACED_PASSES = 2  # the exact counters are compared between them


@dataclass
class JobResult:
    wall: float
    cpu: float | None
    rss_mb: float | None
    error: str | None


def run_job(job, timeout: float, env: dict) -> JobResult:
    """One fresh CLI process; CPU time and peak RSS come from ``wait4``."""
    job.out.unlink(missing_ok=True)
    err_path = job.out.with_suffix(".err")
    timed_out = threading.Event()
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bkpnpoint.cli", *job.argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )

        def kill():
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        # The child is reaped only after the timer has stopped, so the
        # timer can never signal a reused pid.
        timer = threading.Timer(timeout, kill)
        timer.start()
        exited = False
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited = True
            wall = perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024
    if timed_out.is_set():
        return JobResult(wall, cpu, rss_mb, f"timed out after {timeout:.0f} s")
    error = _check_output(job)
    if error is None and proc.returncode != 0:
        error = f"exit code {proc.returncode}"
    if error is not None:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        error = " ".join([error, *tail])
    return JobResult(wall, cpu, rss_mb, error)


def run_in_process(job, cli) -> JobResult:
    """One job through ``cli.main``, looked up at call time so that the
    traced run goes through the wrapper."""
    job.out.unlink(missing_ok=True)
    start = perf_counter()
    error = None
    try:
        code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a job's crash is recorded, the run goes on
        code = None
        error = traceback.format_exc().strip().splitlines()[-1]
    wall = perf_counter() - start
    if error is None:
        error = _check_output(job)
        if error is None and code != 0:
            error = f"exit code {code}"
    return JobResult(wall, None, None, error)


def _check_output(job) -> str | None:
    try:
        return job.check(job.out.read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def describe(samples: list) -> dict:
    """Median, sample count, and the highest of p50/p90/p99 that has at
    least ten samples beyond it (None when there are too few samples)."""
    middle = statistics.median_low if isinstance(samples[0], int) else (
        statistics.median)
    out = {"median": middle(samples), "n": len(samples),
           "samples": samples, "tail": None}
    ordered = sorted(samples)
    for p in (99, 90, 50):
        rank = math.ceil(len(ordered) * p / 100) - 1  # nearest rank
        if len(ordered) - 1 - rank >= 10:
            out["tail"] = {"percentile": p, "value": ordered[rank]}
            break
    return out


class Run:
    def __init__(self, workload, setup, seconds: float, env: dict):
        self.workload = workload
        self.setup = setup
        self.seconds = seconds
        self.env = env
        self.deadline = monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list = []
        self.problems: list = []  # failed checks that are not single jobs

    def _record(self, job, result: JobResult) -> JobResult:
        self.attempted += 1
        if result.error is not None:
            self.failures.append({"argv": job.argv, "error": result.error})
        return result

    def job(self, job) -> JobResult:
        timeout = max(1.0, self.deadline - monotonic())
        return self._record(job, run_job(job, timeout, self.env))

    def _more(self, walls: list, minimum: int = 1) -> bool:
        """Whether another pass should start: at least ``minimum`` passes,
        then only while one more fits in the measured window."""
        if self.failures and len(walls) >= 1:
            return False
        if len(walls) < minimum:
            return True
        elapsed = monotonic() - self.start
        typical = statistics.median(walls)
        return (elapsed + typical <= self.seconds
                and monotonic() + typical < self.deadline)

    def timed(self) -> dict:
        self.job(self.setup)  # warm-up: byte-code cache, file cache
        self.start = monotonic()
        setup = [self.job(self.setup).wall for _ in range(SETUP_SAMPLES)]
        walls, cpus, rss = [], [], []
        while self._more(walls):
            start = perf_counter()
            results = [self.job(job) for job in self.workload.jobs]
            walls.append(perf_counter() - start)
            cpus.append(sum(r.cpu for r in results))
            rss.append(max(r.rss_mb for r in results))
        return {
            "wall_s": ("s", describe(walls)),
            "cpu_s": ("s", describe(cpus)),
            "peak_rss_mb": ("MiB", describe(rss)),
            "setup_s": ("s", describe(setup)),
        }

    def traced(self) -> tuple[dict, dict]:
        from collections import Counter

        import tracing
        from bkpnpoint import cli

        self.start = monotonic()
        start = perf_counter()
        for job in self.workload.jobs:
            self._record(job, run_in_process(job, cli))
        untraced = perf_counter() - start

        tracer = tracing.Tracer()
        leftovers = tracer.install()
        passes = []
        try:
            while self._more([p["wall"] for p in passes], MIN_TRACED_PASSES):
                first = len(tracer.spans)
                tracer.counts = Counter()
                start = perf_counter()
                for job in self.workload.jobs:
                    tracer.trace_id += 1
                    self._record(job, run_in_process(job, cli))
                wall = perf_counter() - start
                passes.append({"wall": wall, "counts": tracer.counts,
                               "summary": tracer.summary(first)})
        finally:
            tracer.uninstall()
        if leftovers:
            self.problems.append(f"unwrapped originals left in {leftovers}")
        if any(p["counts"] != passes[0]["counts"] for p in passes):
            keys = sorted({k for p in passes for k in p["counts"]
                           if p["counts"][k] != passes[0]["counts"][k]})
            self.problems.append(f"counters differ between passes: {keys}")

        per_pass = [layer_metrics(p["summary"], p["counts"]) for p in passes]
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            metrics[name] = (unit, describe([m[name] for m in per_pass]))
        traced_wall = statistics.median(p["wall"] for p in passes)
        metrics["trace.overhead_s"] = ("s", describe([traced_wall - untraced]))
        metrics["trace.spans"] = ("count", describe(
            [len(tracer.spans) // len(passes)]))
        span_names = sorted({name for _, _, name, _ in tracing.SPANS})
        detail = {
            "untraced_wall_s": untraced,
            "traced_wall_s": [p["wall"] for p in passes],
            "calls": {n: passes[0]["counts"][n + "_calls"] for n in span_names},
            "missing_functions": tracer.missing,
            "unwrapped_originals": leftovers,
            "layer_self_share": layer_shares(passes[0]["summary"]),
            "counts": dict(passes[0]["counts"]),
        }
        self.spans = tracer.spans
        return metrics, detail


# Per-layer metrics, in the order printed; see README.md for what each
# should move.  Times are medians over the traced passes.
PER_LAYER_UNITS = {
    "npoint.wangyang_s": "s",
    "npoint.embedded_s": "s",
    "npoint.table_s": "s",
    "npoint.compare_s": "s",
    "npoint.self_s": "s",
    "series.mul_calls": "count",
    "series.mul_s": "s",
    "series.mul_pairs": "count",
    "series.mul_terms": "count",
    "series.add_s": "s",
    "series.kernel_s": "s",
    "series.clip_terms_in": "count",
    "series.clip_terms_kept": "count",
    "series.clip_keep_ratio": "ratio",
    "series.self_s": "s",
    "affine.factor_calls": "count",
    "affine.factor_s": "s",
    "affine.factor_terms": "count",
    "affine.bkp_to_kp_s": "s",
    "affine.gs_s": "s",
    "affine.self_s": "s",
    "fock.tau_table_s": "s",
    "fock.h_calls": "count",
    "fock.h_states_in": "count",
    "fock.exp_s": "s",
    "fock.states": "count",
    "fock.poly_log_s": "s",
    "fock.log_terms": "count",
    "fock.square_s": "s",
    "fock.state_s": "s",
    "fock.self_s": "s",
    "lemma.side_s": "s",
    "lemma.side_terms": "count",
    "lemma.factor_s": "s",
    "lemma.diff_s": "s",
    "lemma.self_s": "s",
    "cli.load_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(summary: dict, counts) -> dict:
    total = summary["total_s"]
    layer = summary["layer_self_s"]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        span = name.rpartition("_")[0]
        if name.endswith(".self_s"):
            out[name] = layer.get(name.split(".")[0], 0.0)
        elif unit == "s":
            out[name] = total.get(span, 0.0)
        elif unit == "count":
            out[name] = counts[name]
    # The rest of first_lemma_difference is its two lemma_side calls.
    out["lemma.diff_s"] = summary["self_s"].get("lemma.diff", 0.0)
    kept, seen = counts["series.clip_terms_kept"], counts["series.clip_terms_in"]
    out["series.clip_keep_ratio"] = kept / seen if seen else 0.0
    return out


def layer_shares(summary: dict) -> dict:
    layer = summary["layer_self_s"]
    total = sum(layer.values())
    return {k: (v / total if total else 0.0) for k, v in sorted(layer.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running job
    # is killed and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "bkpnpoint" / "cli.py").is_file():
        print(f"error: no bkpnpoint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setup = workloads.setup_job(args.seed, work, workload.digests)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = Run(workload, setup, args.seconds, env)
        if args.trace:
            metrics, detail = run.traced()
        else:
            metrics, detail = run.timed(), {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.failures and not run.problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": workload.program_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs_digest": workload.inputs_digest(),
        "digests": workload.digests,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "problems": run.problems,
        "correct": correct,
        "metrics": {name: {"unit": unit, **stats}
                    for name, (unit, stats) in metrics.items()},
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with gzip.open(OUT / f"{tag}.spans.jsonl.gz", "wt") as fh:
            for span in run.spans:
                fh.write(json.dumps(span[:6]) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(workload.jobs)} jobs per "
          f"pass, inputs {record['inputs_digest'][:16]}")
    for name, (unit, stats) in metrics.items():
        tail = stats["tail"]
        tail_text = (f"p{tail['percentile']} {tail['value']:.6g}" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"  {name:24} {stats['median']:.6g} {unit}  "
              f"median of {stats['n']}; {tail_text}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}"
                           for k, v in detail["layer_self_share"].items())
        print(f"  self time by layer: {shares}")
    print(f"  fail_frac {len(run.failures)}/{run.attempted}")
    for failure in run.failures + run.problems:
        print(f"  FAILED: {failure}")
    print(f"  record: {(OUT / tag).relative_to(ROOT)}.json")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": stats["median"], "unit": unit}
                    for name, (unit, stats) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
