#!/usr/bin/env python3
"""mixref benchmark: the command line, end to end and layer by layer.

    python3 bench/run.py --workload casework-fit --seed 1 --seconds 12 --trace 0

Runs one workload (see ``workloads.py``) from the root of a checkout of
the repository, importing the package from ``src``.  The inputs are
generated from ``--seed``; the program sees only the files.

--trace 0
    Times ``import mixref.cli`` in fresh interpreters (``setup_s``, the
    median of several), runs one untimed warm-up, then runs the
    workload's jobs in passes, one job at a time, until ``--seconds``
    have passed and at least one pass is done.  ``run_s`` is the
    median time of one pass; ``peak_rss_mb`` is the process's peak
    resident memory.  Both times are scaled to the reference speed of
    the machine-speed probe (``probe.py``), which samples the speed
    during every import and every pass, so that the drift of a shared
    host's speed cancels.
--trace 1
    After the warm-up, alternates plain passes and passes with spans
    around every module boundary (``tracing.py``) for ``--seconds``, and
    reports the per-layer metrics of a traced pass and the tracing
    overhead.  The probe samples both kinds of pass; spans leave its
    time out.

Every job output is checked (``checks.py``) once the timing is over.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, whose
names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in the interpreters it
# starts; marker threads stay at the command line's default (none).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MIXREF_THREADS", None)

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import probe
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SPANS = BENCH / ".out"
SETUP_SAMPLES = 5

# Times the import with the probe sampling the speed it ran at.  Loading
# the probe first adds only the standard library's small ``signal``
# module to what a fresh interpreter has loaded.
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import probe\n"
    "probe.interpreter_chunk()\n"
    "with probe.Sampler('interpreter') as sampler:\n"
    "    start = sampler.clock()\n"
    "    sys.path.insert(0, sys.argv[1])\n"
    "    import mixref.cli\n"
    "    seconds = sampler.clock() - start\n"
    "print(repr(seconds), repr(sampler.scale()))\n"
)


@dataclass
class Record:
    """One job run: its time, and its error or output values."""

    job: object
    seconds: float
    error: str | None
    values: dict | None = None
    root: int = -1  # the job's root span in a traced pass
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    """One pass over the job list, with the probe's samples taken during it."""

    records: list
    sampler: probe.Sampler

    @property
    def seconds(self) -> float:
        return math.fsum(r.seconds for r in self.records)

    @property
    def factor(self) -> float:
        """From seconds of this pass to seconds at the probe's reference speed."""
        return self.sampler.scale()

    @property
    def scaled(self) -> float:
        return self.seconds * self.factor


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(seconds, probe factor) of ``import mixref.cli`` in each of
    ``samples`` fresh interpreters."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, factor = done.stdout.split()[-2:]
        times.append((float(seconds), float(factor)))
    return times


def run_job(cli, job, tracer=None, clock=time.perf_counter) -> Record:
    with contextlib.suppress(FileNotFoundError):
        job.out.unlink()
    sink = io.StringIO()
    root = len(tracer.spans) if tracer else -1
    error = None
    start = clock()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer:
                code = tracer.job(job.name, cli.main, list(job.argv))
            else:
                code = cli.main(list(job.argv))
        if code != 0:
            error = f"exit code {code}"
    except Exception:  # a crashing job counts as failed; the run goes on
        error = traceback.format_exc(limit=4)
    seconds = clock() - start
    record = Record(job=job, seconds=seconds, error=error, root=root)
    if error is None:
        try:
            record.values = checks.read_output(job)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record.error = f"unreadable output {job.out.name}: {exc!r}"
    return record


def run_pass(cli, jobs, tracer=None) -> Pass:
    """One pass, timed (and traced) on the clock of the probe sampling it."""
    gc.collect()
    with probe.Sampler("array") as sampler:
        if tracer:
            tracer.install(sampler.clock)
        try:
            return Pass([run_job(cli, job, tracer, sampler.clock) for job in jobs], sampler)
        finally:
            if tracer:
                tracer.uninstall()


def run_passes(cli, jobs, seconds, tracer=None):
    """Whole passes over ``jobs`` until ``seconds`` have gone by.

    Returns (plain passes, traced passes), at least one plain pass.
    Without a tracer every pass is plain.  With one, plain and traced
    passes alternate, at least one of each, so that a drift in the
    machine's speed touches both alike.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while (not plain or (tracer and not traced)
           or time.perf_counter() - start < seconds):
        if tracer and len(traced) < len(plain):
            traced.append(run_pass(cli, jobs, tracer))
        else:
            plain.append(run_pass(cli, jobs))
    return plain, traced


def check_records(records, workload, seed):
    """Fill in each record's problems.

    Returns the problems of the run-level checks, whether references
    were recorded for this seed, and notes on checks that were skipped.
    """
    refs, seed_recorded = checks.load_references(workload, seed)
    oracle = checks.Oracle()
    seen = {}
    for r in records:
        if r.error is not None:
            continue
        key = (r.job.name, json.dumps(r.values, sort_keys=True, default=str))
        if key not in seen:
            seen[key] = checks.oracle_problems(r.job, r.values, oracle)
            seen[key] += checks.compare_reference(r.job, r.values, refs.get(r.job.name))
        r.problems = seen[key]
    fixed_cases = {r.job.case: None for r in records if r.job.fixed}
    run_problems = []
    for case in fixed_cases:
        run_problems += checks.check_fixed_markers(oracle, case)
    return run_problems, seed_recorded, oracle.notes


def machine_line() -> str:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    return (f"machine: nproc {os.cpu_count()}, {cpu}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def benchmark_metrics(kind: str) -> dict:
    """Metric names and units of BENCHMARK.json, for 'end_to_end' or 'per_layer'."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mixref" / "cli.py").is_file():
        print(f"mixref sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    units = benchmark_metrics(kind)
    print(f"mixref benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    metrics = {}
    clock = _PhaseClock()
    if not args.trace:
        setup = measure_setup(SETUP_SAMPLES)
        metrics["setup_s"] = statistics.median(t * f for t, f in setup)
        print("setup: import mixref.cli in fresh interpreters: "
              + ", ".join(f"{t:.3f} s (probe scale {f:.3f})" for t, f in setup)
              + f"; median at reference speed {metrics['setup_s']:.3f} s")

    clock.mark("setup")
    load = workloads.build(args.workload, args.seed, work)
    clock.mark("generate")
    sys.path.insert(0, str(SRC))
    import mixref.cli as cli

    print(machine_line())
    clock.mark("import")
    warm = [run_job(cli, job) for job in load.warmup]
    records = list(warm)
    clock.mark("warm-up")
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = run_passes(cli, load.jobs, args.seconds, tracer)
    timed = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for p in timed:
        records += p.records
    clock.mark("timed passes")

    problems, seed_recorded, notes = check_records(records, args.workload, args.seed)
    failed = [r for r in records if r.error is not None or r.problems]
    clock.mark("checks")

    print(f"passes: warm-up of {len(warm)} jobs, then {len(load.jobs)} jobs per pass")
    for label, passes in (("plain", plain), ("traced", traced)):
        if passes:
            print(f"{label} pass times: " + ", ".join(f"{p.seconds:.3f}" for p in passes)
                  + " s; at reference speed " + ", ".join(f"{p.scaled:.3f}" for p in passes)
                  + " s (probe chunks "
                  + ", ".join(str(len(p.sampler.chunks)) for p in passes) + ")")
    report_jobs(load.jobs, plain)
    if args.trace:
        metrics.update(trace_metrics(tracer, plain, traced, args))
    else:
        metrics["run_s"] = statistics.median(p.scaled for p in plain)
        metrics["peak_rss_mb"] = peak_rss_mb

    for r in failed:
        print(f"FAILED {r.job.name}: {r.error or '; '.join(r.problems)}")
    for line in problems:
        print(f"FAILED check: {line}")
    for note in notes:
        print(f"note: {note}")
    print(f"checks: {len(records)} jobs attempted, {len(failed)} failed; "
          f"error_rate {len(failed) / len(records):g}; references "
          + ("recorded for this seed" if seed_recorded
             else "of the excerpt only (seed not recorded)"))
    report_checksums(timed[0].records)
    print("phases: " + clock.summary())

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


class _PhaseClock:
    """Wall time of the run's phases, for the human-readable report."""

    def __init__(self):
        self._last = time.perf_counter()
        self._phases = []

    def mark(self, name):
        now = time.perf_counter()
        self._phases.append((name, now - self._last))
        self._last = now

    def summary(self):
        return ", ".join(f"{name} {secs:.1f} s" for name, secs in self._phases)


def report_jobs(jobs, passes):
    """Job and subcommand times at the probe's reference speed."""
    for i, job in enumerate(jobs):
        times = [p.records[i].seconds * p.factor for p in passes]
        print(f"job {job.name}: median {statistics.median(times):.4f} s over "
              f"{len(times)} passes (" + ", ".join(f"{t:.4f}" for t in times) + ")")
    per_command = []
    for command in dict.fromkeys(job.command for job in jobs):
        secs = statistics.median(
            p.factor * math.fsum(r.seconds for r in p.records if r.job.command == command)
            for p in passes
        )
        per_command.append(f"{command}_s {secs:.4f} s")
    print("subcommand time per pass at reference speed (median over passes): "
          + ", ".join(per_command))


def report_checksums(records):
    values = []
    for r in records:
        if r.values is None:
            continue
        lls = checks.loglik_values(r.job, r.values)
        values += lls
        if lls:
            print(f"checksum {r.job.name}: log10 L " + ", ".join(repr(v) for v in lls))
    print(f"checksum run: sum of {len(values)} log10 likelihoods {sum(values)!r}")


def trace_metrics(tracer, plain, traced, args) -> dict:
    results = [tracing.layer_metrics(tracer.spans, {r.root for r in p.records})
               for p in traced]
    per_pass = [metrics for metrics, _ in results]
    bases = results[0][1]
    first = {r.root for r in traced[0].records}
    for r in traced[0].records:
        counts = tracing.job_counts(tracer.spans, r.root)
        fits = counts.pop("fits")
        line = ", ".join(f"{n} {what}" for what, n in counts.items())
        if fits:
            line += "; fits: " + ", ".join(
                f"{e} evaluations/{n} iterations" for e, n in fits)
        iters = sum(n for _, n in fits)
        if iters:
            line += (f"; {sum(e for e, n in fits if n) / iters:.2f} evaluations "
                     "per iteration")
        print(f"trace {r.job.name}: {line}")
    total = traced[0].seconds
    for layer, secs in sorted(tracing.layer_self_times(tracer.spans, first).items()):
        print(f"self time {layer}: {secs:.4f} s ({secs / total:.1%} of the traced pass)")
    for name, base in bases.items():
        print(f"base {name}: {base}")
    # counts repeat exactly from pass to pass; times take the median
    out = {
        name: statistics.median(m[name] for m in per_pass)
        if isinstance(per_pass[0][name], float) else per_pass[0][name]
        for name in per_pass[0]
    }
    plain_s = statistics.median(p.scaled for p in plain)
    traced_s = statistics.median(p.scaled for p in traced)
    out["trace.overhead"] = traced_s / plain_s - 1.0
    print(f"base trace.overhead: traced pass {traced_s:.4f} s / plain pass "
          f"{plain_s:.4f} s at reference speed, {len(traced)} and {len(plain)} passes")
    tracer.write(SPANS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return out


if __name__ == "__main__":
    sys.exit(main())
