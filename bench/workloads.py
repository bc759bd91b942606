"""The benchmark's three workloads: the cases each one generates and the
command-line jobs it runs on them, in order.

Every workload is a closed loop with one client: one process runs one
job at a time through ``mixref.cli.main(argv)`` and starts the next job
when the previous one has returned.

casework-fit
    Maximum-likelihood fits.  The optimizer and the gamma factor kernels
    inside each of its thousands of likelihood evaluations do nearly all
    the work; chains are at most 36 states wide and each fit builds its
    bundle once.
fixed-queries
    Queries at stated parameters: fit --params (one evaluation),
    deconvolve (forward-backward and k-best), diagnose (one
    forward-backward per observed peak) and artefacts.  The optimizer
    does no work.
many-unknowns
    Four and five unknown contributors at stated parameters.  Every job
    builds a fresh bundle and evaluates it only a few times, so the edge
    sets and the 10^U-edge chain step dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from gen import CaseFiles, CaseShape, generate

PUBCASE_DIR = Path(__file__).resolve().parent / "data" / "pubcase"

# Case shapes; the seed draws the contents, never the size.
CASEWORK = CaseShape(markers=8, alleles=7, traces=1, known=2, unknown=1,
                     hypothesis="prosecution")
TWO_TRACE_U3 = CaseShape(markers=10, alleles=7, traces=2, known=1, unknown=3,
                         hypothesis="defence")
SINGLE_U4 = CaseShape(markers=6, alleles=6, traces=1, known=1, unknown=4,
                      hypothesis="defence")
SINGLE_U5 = CaseShape(markers=3, alleles=6, traces=1, known=1, unknown=5,
                      hypothesis="defence")

# Offsets keep the cases of one workload seed distinct from each other.
_CASE_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Job:
    """One command-line call and where its output goes."""

    name: str
    command: str
    case: CaseFiles
    argv: tuple[str, ...]
    out: Path
    fixed: bool  # parameters stated with --params, so nothing is fitted


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    warmup: tuple[Job, ...]


def pubcase(hypothesis: str) -> CaseFiles:
    """The bundled published-case excerpt, queried at the defence's parameters."""
    return CaseFiles(
        freqs=PUBCASE_DIR / "freqs.csv",
        profiles=PUBCASE_DIR / "profiles.csv",
        traces=PUBCASE_DIR / "traces.csv",
        case=PUBCASE_DIR / "case.json",
        params=PUBCASE_DIR / "params_defence.json",
        hypothesis=hypothesis,
    )


def _job(name, command, case, out_dir, extra=(), fixed=False, under=True):
    suffix = ".csv" if command == "diagnose" else ".json"
    out = out_dir / f"{name.replace(':', '_')}{suffix}"
    argv = [command, *case.input_args(), *extra]
    if under:
        argv += ["--under", case.hypothesis]
    if fixed:
        argv += ["--params", str(case.params)]
    argv += ["--out", str(out)]
    return Job(name=name, command=command, case=case, argv=tuple(argv),
               out=out, fixed=fixed)


def _queries(tag, case, out_dir, k):
    return [
        _job(f"fit:{tag}", "fit", case, out_dir, fixed=True),
        _job(f"deconvolve:{tag}", "deconvolve", case, out_dir,
             extra=("--k", str(k)), fixed=True),
    ]


def _first_case(jobs):
    """Warm-up: every subcommand of the workload once, on its first case."""
    return tuple(j for j in jobs if j.case == jobs[0].case)


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's cases from ``seed`` under ``work``."""
    cases_dir = work / "cases"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    def case(shape, index):
        return generate(shape, seed * _CASE_SEED_STRIDE + index,
                        cases_dir / f"{name}-{index}")

    if name == "casework-fit":
        excerpt = pubcase("defence")
        fitted = case(CASEWORK, 0)
        jobs = [
            _job("woe:pubcase", "woe", excerpt, out_dir, under=False),
            _job("fit:casework", "fit", fitted, out_dir),
            _job("sweep:pubcase", "sweep", pubcase("investigative"), out_dir,
                 extra=("--min", "1", "--max", "2")),
        ]
        # The jobs above run for seconds each, so a warm-up pass of them
        # would double the run; the fixed-parameter fits load the same
        # modules and walk the same engine paths.
        warmup = [
            _job("warmup-fit:pubcase", "fit", excerpt, out_dir, fixed=True),
            _job("warmup-fit:casework", "fit", fitted, out_dir, fixed=True),
        ]
        return Workload(name, tuple(jobs), tuple(warmup))

    if name == "fixed-queries":
        jobs = []
        targets = [("pubcase", pubcase("defence"))] + [
            (f"u3-{i}", case(TWO_TRACE_U3, i)) for i in range(3)
        ]
        for tag, c in targets:
            jobs += _queries(tag, c, out_dir, k=20)
            jobs.append(_job(f"diagnose:{tag}", "diagnose", c, out_dir, fixed=True))
            jobs.append(_job(f"artefacts:{tag}", "artefacts", c, out_dir, fixed=True))
        return Workload(name, tuple(jobs), _first_case(jobs))

    if name == "many-unknowns":
        jobs = []
        for tag, shape, index in (("u4-0", SINGLE_U4, 0), ("u4-1", SINGLE_U4, 1),
                                  ("u5-0", SINGLE_U5, 2)):
            jobs += _queries(tag, case(shape, index), out_dir, k=5)
        return Workload(name, tuple(jobs), _first_case(jobs))

    raise ValueError(f"unknown workload {name!r}")


NAMES = ("casework-fit", "fixed-queries", "many-unknowns")
