"""Spans around the calls into each mixref module, installed from outside.

The modules import their collaborators by name (``from .engine import
total_log_likelihood``), so a wrapper goes on the name each caller looks
up: ``mixref.estimation.total_log_likelihood`` sees every likelihood pass
of a fit, while patching ``mixref.engine.total_log_likelihood`` would see
none.  Bundle construction is wrapped on ``EvidenceBundle.__post_init__``,
which every caller reaches through the one class object.

Each span records its name, start, end, parent and root (the job it
belongs to) in memory; :meth:`Tracer.write` stores them once the run is
over.  Timed runs install no wrappers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name, what to keep of the result)
_TARGETS = (
    ("mixref.cli", "fit", "estimation.fit", "fit"),
    ("mixref.estimation", "fit", "estimation.fit", "fit"),
    ("mixref.estimation", "minimize", "estimation.minimize", "fun"),
    ("mixref.estimation", "standard_errors", "estimation.standard_errors", None),
    ("mixref.estimation", "total_log_likelihood", "engine.total_log_likelihood", None),
    ("mixref.cli", "marker_posterior", "engine.marker_posterior", None),
    ("mixref.cli", "presence_posteriors", "engine.presence_posteriors", None),
    ("mixref.engine", "gamma_log_pdf", "peakmodel.gamma_log_pdf", "size"),
    ("mixref.engine", "gamma_log_cdf", "peakmodel.gamma_log_cdf", "size"),
    ("mixref.engine", "gamma_log_sf", "peakmodel.gamma_log_sf", "size"),
    ("mixref.simulate", "probability_integral_transform",
     "simulate.probability_integral_transform", "len"),
    ("mixref.io", "load_frequency_table", "io.load_frequency_table", None),
    ("mixref.io", "load_profiles", "io.load_profiles", None),
    ("mixref.io", "read_trace_rows", "io.read_trace_rows", None),
    ("mixref.io", "build_traces", "io.build_traces", None),
    ("mixref.io", "load_case_definition", "io.load_case_definition", None),
    ("mixref.io", "build_hypothesis", "io.build_hypothesis", None),
    ("mixref.io", "parameters_from_json", "io.parameters_from_json", None),
)

_KEEP = {
    None: lambda result: None,
    "fit": lambda result: (result.n_evaluations, result.iterations),
    "fun": lambda result: float(result.fun),
    "size": lambda result: int(np.size(result)),
    "len": lambda result: len(result),
}

JOB = "cli.job"
BUILD = "engine.EvidenceBundle"
_NO_INFO = {name for _, _, name, keep in _TARGETS if keep is None} | {BUILD}


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "info")

    def __init__(self, name, parent, root):
        self.name = name
        self.parent = parent
        self.root = root
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span recorder; :meth:`install` wraps the targets, :meth:`uninstall`
    restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else index
        span = Span(name, parent, root)
        self.spans.append(span)
        self._stack.append(index)
        span.start = self._clock()
        return span

    def _close(self, span):
        span.end = self._clock()
        self._stack.pop()

    def job(self, label, fn, *args):
        """Run ``fn(*args)`` as the root span of one job."""
        span = self._open(JOB)
        span.info = label
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, fn, name, keep):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.info = keep(result)
            return result

        return wrapper

    def install(self, clock=time.perf_counter):
        """Wrap the targets; spans read ``clock``."""
        self._clock = clock
        for module_name, attr, name, keep in _TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, _KEEP[keep]))
        from mixref.engine import EvidenceBundle

        original = EvidenceBundle.__post_init__
        self._saved.append((EvidenceBundle, "__post_init__", original))
        EvidenceBundle.__post_init__ = self._wrap(original, BUILD, _KEEP[None])

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path):
        """Store the spans as gzipped JSON lines: one header, one row each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"columns": ["id", "name", "parent", "job", "start_us", "end_us"]}
            ) + "\n")
            for i, s in enumerate(self.spans):
                handle.write(json.dumps([
                    i, s.name, s.parent, self.spans[s.root].info,
                    round((s.start - t0) * 1e6, 1), round((s.end - t0) * 1e6, 1),
                ]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer numbers from the spans


def child_time(spans):
    """Per span, the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return covered


def layer_self_times(spans, roots):
    """Self time per layer (the span name's module) over the given roots."""
    covered = child_time(spans)
    out = {}
    for i, s in enumerate(spans):
        if s.root in roots:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.duration - covered[i]
    return out


def layer_metrics(spans, roots) -> tuple[dict, dict]:
    """Per-layer metrics over the jobs rooted at ``roots``, with their bases.

    Returns (metrics by name, bases by name): each base is the count a
    ratio was taken over.
    """
    covered = child_time(spans)
    chosen = [i for i, s in enumerate(spans) if s.root in roots]
    kids = {}
    for i in chosen:
        kids.setdefault(spans[i].parent, []).append(i)

    def named(prefix):
        # a call that raised keeps no result; the job counts as failed
        return [i for i in chosen if spans[i].name.startswith(prefix)
                and (spans[i].info is not None or spans[i].name in _NO_INFO)]

    def total(indices):
        return math.fsum(spans[i].duration for i in indices)

    def self_time(indices):
        return math.fsum(spans[i].duration - covered[i] for i in indices)

    def children(i, prefix):
        return [j for j in kids.get(i, ()) if spans[j].name.startswith(prefix)]

    fits = named("estimation.fit")
    evals = [spans[i].info[0] for i in fits]
    iters = [spans[i].info[1] for i in fits]
    optimizing = [(e, n) for e, n in zip(evals, iters) if n > 0]
    useful = 0
    for i in fits:
        starts = children(i, "estimation.minimize")
        if starts:
            best = min(starts, key=lambda j: spans[j].info)
            useful += len(children(best, "engine.total_log_likelihood"))
        else:
            useful += spans[i].info[0]  # a fit at stated parameters: one pass
    se = named("estimation.standard_errors")
    loglik = named("engine.total_log_likelihood")
    gamma = named("peakmodel.gamma_")
    pit = named("simulate.")
    peaks = sum(spans[i].info for i in pit)
    posterior = named("engine.marker_posterior") + named("engine.presence_posteriors")
    io_calls = [i for i in named("io.")
                if not spans[spans[i].parent].name.startswith("io.")]
    gamma_under_loglik = sum(
        spans[j].duration for i in loglik for j in children(i, "peakmodel.gamma_")
    )
    loglik_s = total(loglik)
    opt_evals = sum(e for e, _ in optimizing)
    opt_iters = sum(n for _, n in optimizing)
    metrics = {
        "estimation.fits": len(fits),
        "estimation.evals_per_fit": _ratio(sum(evals), len(fits)),
        "estimation.iters_per_fit": _ratio(sum(iters), len(fits)),
        "estimation.evals_per_iter": _ratio(opt_evals, opt_iters),
        "estimation.se_s": total(se),
        "estimation.se_evals": sum(
            len(children(i, "engine.total_log_likelihood")) for i in se
        ),
        "estimation.optimizer_self_s": self_time(named("estimation.minimize")),
        "estimation.useful_eval_share": _ratio(useful, sum(evals)),
        "engine.loglik_calls": len(loglik),
        "engine.loglik_s": loglik_s,
        "engine.loglik_ms_per_call": 1e3 * _ratio(loglik_s, len(loglik)),
        "engine.sweep_self_s": loglik_s - gamma_under_loglik,
        "engine.builds": len(named(BUILD)),
        "engine.build_s": total(named(BUILD)),
        "engine.posterior_calls": len(posterior),
        "engine.posterior_s": total(posterior),
        "peakmodel.gamma_calls": len(gamma),
        "peakmodel.gamma_elems": sum(spans[i].info for i in gamma),
        "peakmodel.gamma_s": total(gamma),
        "simulate.pit_s": total(pit),
        "simulate.pit_peaks": peaks,
        "simulate.pit_ms_per_peak": 1e3 * _ratio(total(pit), peaks),
        "io.load_s": total(io_calls),
    }
    bases = {
        "estimation.evals_per_fit": f"{sum(evals)} evaluations / {len(fits)} fits",
        "estimation.iters_per_fit": f"{sum(iters)} iterations / {len(fits)} fits",
        "estimation.evals_per_iter": (
            f"{opt_evals} evaluations / {opt_iters} iterations "
            f"over {len(optimizing)} optimizing fits"
        ),
        "estimation.useful_eval_share": (
            f"{useful} evaluations of winning starts / {sum(evals)} fit evaluations"
        ),
        "engine.loglik_ms_per_call": f"{loglik_s:.4f} s / {len(loglik)} calls",
        "simulate.pit_ms_per_peak": f"{total(pit):.4f} s / {peaks} peaks",
    }
    return metrics, bases


def job_counts(spans, root) -> dict:
    """Exact counts of one job: likelihood passes, bundle builds,
    posterior queries, PIT peaks and (evaluations, iterations) per fit."""
    inside = [s for s in spans if s.root == root]
    return {
        "likelihood passes": sum(s.name == "engine.total_log_likelihood" for s in inside),
        "builds": sum(s.name == BUILD for s in inside),
        "posterior queries": sum(s.name in ("engine.marker_posterior",
                                            "engine.presence_posteriors")
                                 for s in inside),
        "PIT peaks": sum(s.info or 0 for s in inside if s.name.startswith("simulate.")),
        "fits": [s.info for s in inside if s.name == "estimation.fit" and s.info],
    }


def _ratio(num, den):
    return num / den if den else 0.0
