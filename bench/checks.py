"""Correctness gate: every job's output against oracles and references.

A job fails when it exits nonzero, raises, or writes an output outside
the tolerances below.  Three kinds of check apply:

* invariants of the output itself (probabilities in [0, 1] and sorted,
  fits converged, the sweep non-decreasing, one PIT value per observed
  peak);
* oracles computed here, outside the timed region, by a different route
  than the command took: ``mixref.brute_force_log_likelihood`` by
  enumeration for every log-likelihood whose enumeration fits
  ``BRUTE_FORCE_BUDGET``, and for the top deconvolution probability the
  likelihood of that profile with the unknowns as known contributors,
  times its Hardy-Weinberg prior, over the marker likelihood;
* references recorded at the benchmark's baseline per workload and seed
  (``reference.json``; the excerpt's references hold for every seed).

Tolerances.  Numbers computed at stated parameters are held tightly:
``TIGHT`` relative to max(1, |value|), which leaves room only for a
different order of floating-point summation.  Fitted optima are held at
optimizer level, ``FITTED_LOG10`` bans absolute whatever the size of
log10 L, since a changed optimizer path legitimately moves them by about
its convergence tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

LN10 = math.log(10.0)
TIGHT = 1e-8
FITTED_LOG10 = 1e-3
BRUTE_FORCE_BUDGET = 200_000  # unknown-genotype combinations per marker
DEFAULT_THRESHOLD = 50.0  # the command line's default detection threshold

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


# ---------------------------------------------------------------------------
# Reading outputs


def read_output(job) -> dict:
    """The job's output file reduced to the values the checks use."""
    if job.command == "diagnose":
        with job.out.open(newline="", encoding="utf-8") as handle:
            return {"pit": [float(row["pit"]) for row in csv.DictReader(handle)]}
    doc = json.loads(job.out.read_text(encoding="utf-8"))
    if job.command == "fit":
        return _fit_values(doc)
    if job.command == "woe":
        return {
            "woe_bans": doc["woe_bans"],
            "prosecution": _fit_values(doc["prosecution"]),
            "defence": _fit_values(doc["defence"]),
        }
    if job.command == "sweep":
        (records,) = doc["hypotheses"].values()
        return {
            "log10_likelihood": [r["log10_likelihood"] for r in records],
            "converged": [r["converged"] for r in records],
        }
    if job.command == "deconvolve":
        return {
            "probabilities": [r["probability"] for r in doc["profiles"]],
            "top_profile": doc["profiles"][0]["profile"] if doc["profiles"] else None,
            "top_probability": doc["top_probability"],
            "cumulative_probability": doc["cumulative_probability"],
        }
    if job.command == "artefacts":
        probs = [p for row in doc["rows"] for p in row[4:6] if p is not None]
        return {"rows": doc["rows"], "probabilities": probs}
    raise ValueError(f"no reader for {job.command!r}")


def _fit_values(doc):
    return {
        "hypothesis": doc["hypothesis"],
        "log10_likelihood": doc["log10_likelihood"],
        "converged": doc["converged"],
        "parameters": doc["parameters"],
    }


def reference_values(job, values) -> dict:
    """The numbers recorded as the job's reference, by name."""
    if job.command == "fit":
        return {"log10_likelihood": values["log10_likelihood"]}
    if job.command == "woe":
        return {
            "woe_bans": values["woe_bans"],
            "prosecution_log10_likelihood": values["prosecution"]["log10_likelihood"],
            "defence_log10_likelihood": values["defence"]["log10_likelihood"],
        }
    if job.command == "sweep":
        return {
            f"log10_likelihood_{i}": v
            for i, v in enumerate(values["log10_likelihood"])
        }
    if job.command == "deconvolve":
        return {
            "top_probability": values["top_probability"],
            "cumulative_probability": values["cumulative_probability"],
        }
    if job.command == "diagnose":
        pits = [p for p in values["pit"] if not math.isnan(p)]
        return {
            "n_peaks": len(values["pit"]),
            "pit_sum": math.fsum(pits),
            "ks_statistic": _ks_statistic(pits),
        }
    if job.command == "artefacts":
        return {
            "rows": len(values["rows"]),
            "posterior_sum": math.fsum(values["probabilities"]),
        }
    raise ValueError(f"no reference for {job.command!r}")


def loglik_values(job, values) -> list[float]:
    """The log10 likelihoods a job reports, for the run's checksum."""
    if job.command == "fit":
        return [values["log10_likelihood"]]
    if job.command == "woe":
        return [values["prosecution"]["log10_likelihood"],
                values["defence"]["log10_likelihood"]]
    if job.command == "sweep":
        return list(values["log10_likelihood"])
    return []


def _ks_statistic(pits):
    if not pits:
        return 0.0
    from scipy import stats

    return float(stats.kstest(pits, "uniform").statistic)


def _close(value, ref, tol):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _agrees(job, name, value, ref):
    """(agrees, tolerance text) for one reference number.

    Counts agree exactly, numbers at stated parameters to ``TIGHT``
    relative, fitted optima to ``FITTED_LOG10`` bans absolute (the WoE,
    a difference of two optima, to twice that).
    """
    if name in ("n_peaks", "rows"):
        return value == ref, "exact"
    if job.fixed:
        return _close(value, ref, TIGHT), f"{TIGHT:g} relative"
    tol = 2 * FITTED_LOG10 if name == "woe_bans" else FITTED_LOG10
    return abs(value - ref) <= tol, f"{tol:g} bans"


def compare_reference(job, values, reference) -> list[str]:
    """Problems with the job's output against its recorded reference."""
    if reference is None:
        return []
    problems = []
    got = reference_values(job, values)
    for name, ref in reference.items():
        value = got.get(name)
        if value is None:
            problems.append(f"{name} missing (reference {ref!r})")
            continue
        ok, tolerance = _agrees(job, name, value, ref)
        if not ok:
            problems.append(f"{name} = {value!r}, reference {ref!r} (tolerance {tolerance})")
    return problems


def load_references(workload: str, seed: int) -> tuple[dict, bool]:
    """References for the jobs of one workload and seed.

    Returns the references by job name, and whether the seed itself was
    recorded (the excerpt's references hold for every seed).
    """
    if not REFERENCE_FILE.exists():
        return {}, False
    doc = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    refs = dict(doc.get("pubcase", {}))
    seeded = doc.get("seeds", {}).get(workload, {}).get(str(seed))
    refs.update(seeded or {})
    return refs, seeded is not None


# ---------------------------------------------------------------------------
# Oracles


@dataclass
class Oracle:
    """Independent values for the cases of one run, each computed once."""

    _evidence: dict = field(default_factory=dict)
    _bundles: dict = field(default_factory=dict)
    _marker_bf: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def evidence(self, case, hypothesis):
        """(frequencies, traces, hypothesis) as the command line loads them."""
        key = (case.traces, case.case, hypothesis)
        if key not in self._evidence:
            from mixref import io as mio

            with warnings.catch_warnings():
                # the command line has reported these input warnings already
                warnings.simplefilter("ignore")
                freqs = mio.load_frequency_table(case.freqs)
            definition = mio.load_case_definition(case.case)
            profiles = mio.load_profiles(case.profiles)
            rows = mio.read_trace_rows(case.traces)
            thresholds = {
                tid: definition.thresholds.get(tid, DEFAULT_THRESHOLD) for tid in rows
            }
            traces = mio.build_traces(rows, thresholds)
            hyp = mio.build_hypothesis(definition.hypotheses[hypothesis], profiles)
            self._evidence[key] = (freqs, traces, hyp)
        return self._evidence[key]

    def bundle(self, case, hypothesis, params_doc):
        key = _key(case, hypothesis, params_doc)
        if key not in self._bundles:
            from mixref import EvidenceBundle
            from mixref import io as mio

            freqs, traces, hyp = self.evidence(case, hypothesis)
            self._bundles[key] = EvidenceBundle(
                traces=traces, frequencies=freqs, hypothesis=hyp,
                parameters=mio.parameters_from_json(params_doc),
            )
        return self._bundles[key]

    def marker_logliks(self, case, hypothesis, params_doc):
        """Brute-force marker log-likelihoods (natural log), or None
        where the enumeration exceeds the budget."""
        key = _key(case, hypothesis, params_doc)
        if key not in self._marker_bf:
            from mixref import brute_force_log_likelihood

            bundle = self.bundle(case, hypothesis, params_doc)
            n_unknown = len(bundle.hypothesis.unknown)
            out = {}
            for marker in bundle.covered_markers():
                n = len(bundle.frequencies.ladder(marker).alleles)
                combos = (n * (n + 1) // 2) ** n_unknown
                out[marker] = (
                    brute_force_log_likelihood(bundle, marker)
                    if combos <= BRUTE_FORCE_BUDGET else None
                )
            self._marker_bf[key] = out
        return self._marker_bf[key]

    def total_log10(self, case, hypothesis, params_doc):
        lls = self.marker_logliks(case, hypothesis, params_doc)
        if any(v is None for v in lls.values()):
            return None
        return math.fsum(lls.values()) / LN10


def _key(case, hypothesis, params_doc):
    return (case.traces, case.case, hypothesis, json.dumps(params_doc, sort_keys=True))


def params_doc(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_fixed_markers(oracle, case) -> list[str]:
    """Engine marker log-likelihoods at the case's stated parameters
    against enumeration, for every marker within the budget."""
    from mixref import marker_log_likelihood

    doc = params_doc(case.params)
    bf = oracle.marker_logliks(case, case.hypothesis, doc)
    bundle = oracle.bundle(case, case.hypothesis, doc)
    problems = []
    for marker, ref in bf.items():
        if ref is None:
            oracle.notes.append(
                f"{case.traces.parent.name}/{marker}: enumeration over budget, "
                "not brute-force checked"
            )
            continue
        value = marker_log_likelihood(bundle, marker)
        if not _close(value, ref, TIGHT):
            problems.append(
                f"marker {marker}: engine log L {value!r}, enumeration {ref!r}"
            )
    return problems


def oracle_problems(job, values, oracle) -> list[str]:
    """Problems with one job output against invariants and oracles."""
    check = _ORACLE_CHECKS[job.command]
    return check(job, values, oracle)


def _check_fit_report(case, fit, oracle, label):
    problems = []
    if not fit["converged"]:
        problems.append(f"{label}: not converged")
    bf = oracle.total_log10(case, fit["hypothesis"], fit["parameters"])
    if bf is not None and not _close(fit["log10_likelihood"], bf, TIGHT):
        problems.append(
            f"{label}: log10 L {fit['log10_likelihood']!r} at its reported "
            f"parameters, enumeration {bf!r}"
        )
    return problems


def _check_fit(job, values, oracle):
    problems = _check_fit_report(job.case, values, oracle, "fit")
    if not job.fixed:
        stated = oracle.total_log10(job.case, job.case.hypothesis,
                                    params_doc(job.case.params))
        if stated is not None and values["log10_likelihood"] < stated - FITTED_LOG10:
            problems.append(
                f"fitted log10 L {values['log10_likelihood']!r} below the "
                f"likelihood at the generating parameters {stated!r}"
            )
    return problems


def _check_woe(job, values, oracle):
    p, d = values["prosecution"], values["defence"]
    problems = _check_fit_report(job.case, p, oracle, "prosecution")
    problems += _check_fit_report(job.case, d, oracle, "defence")
    woe = p["log10_likelihood"] - d["log10_likelihood"]
    if not _close(values["woe_bans"], woe, TIGHT):
        problems.append(f"WoE {values['woe_bans']!r} is not log10 Lp - log10 Ld {woe!r}")
    stated = oracle.total_log10(job.case, d["hypothesis"], params_doc(job.case.params))
    if stated is not None and d["log10_likelihood"] < stated - FITTED_LOG10:
        problems.append(
            f"defence optimum {d['log10_likelihood']!r} below the likelihood "
            f"at the published defence parameters {stated!r}"
        )
    return problems


def _check_sweep(job, values, oracle):
    lls = values["log10_likelihood"]
    problems = [f"sweep row {i}: not converged"
                for i, ok in enumerate(values["converged"]) if not ok]
    for i, (a, b) in enumerate(zip(lls, lls[1:])):
        if b < a - FITTED_LOG10:
            problems.append(f"sweep row {i + 1}: log10 L {b!r} below row {i}'s {a!r}")
    return problems


def _check_deconvolve(job, values, oracle):
    probs = values["probabilities"]
    if not probs:
        return ["no profiles reported"]
    problems = []
    if any(not 0.0 < p <= 1.0 for p in probs):
        problems.append("a profile probability outside (0, 1]")
    if any(b > a * (1 + TIGHT) for a, b in zip(probs, probs[1:])):
        problems.append("profile probabilities not in decreasing order")
    if values["cumulative_probability"] > 1.0 + TIGHT:
        problems.append(f"cumulative probability {values['cumulative_probability']!r} > 1")
    expected = _top_profile_log_probability(job.case, values["top_profile"], oracle)
    got = math.log(values["top_probability"])
    if not abs(got - expected) <= TIGHT * max(1.0, abs(expected)):
        problems.append(
            f"top profile probability {values['top_probability']!r}, "
            f"oracle {math.exp(expected)!r}"
        )
    return problems


def _top_profile_log_probability(case, profile, oracle):
    """log P(top profile | evidence) with the unknowns made known.

    P(g | E) = L(E | g) * prior(g) / L(E), marker by marker; L(E | g) has
    no unknowns left, so enumeration needs a single combination.
    """
    from mixref import (
        EvidenceBundle,
        GenotypeProfile,
        Hypothesis,
        brute_force_log_likelihood,
        genotype_prior,
        marker_log_likelihood,
    )
    from mixref import io as mio

    doc = params_doc(case.params)
    freqs, traces, hyp = oracle.evidence(case, case.hypothesis)
    markers = list(profile)
    unknown = {
        u: GenotypeProfile.from_pairs({m: profile[m][u].split("/") for m in markers})
        for u in hyp.unknown
    }
    conditioned = EvidenceBundle(
        traces=traces, frequencies=freqs,
        hypothesis=Hypothesis(known={**hyp.known, **unknown}, unknown=()),
        parameters=mio.parameters_from_json(doc),
    )
    denominators = oracle.marker_logliks(case, case.hypothesis, doc)
    chain = None
    total = 0.0
    for m in markers:
        ladder = freqs.ladder(m)
        total += brute_force_log_likelihood(conditioned, m)
        total += sum(
            math.log(genotype_prior(g.counts(m, ladder), freqs, m))
            for g in unknown.values()
        )
        ll = denominators[m]
        if ll is None:
            # over the enumeration budget: the chain's marker likelihood
            if chain is None:
                chain = oracle.bundle(case, case.hypothesis, doc)
            ll = marker_log_likelihood(chain, m)
        total -= ll
    return total


def _check_diagnose(job, values, oracle):
    pits = values["pit"]
    problems = []
    if any(not 0.0 <= p <= 1.0 for p in pits if not math.isnan(p)):
        problems.append("a PIT value outside [0, 1]")
    freqs, traces, hyp = oracle.evidence(job.case, job.case.hypothesis)
    observed = sum(
        1 for t in traces for m in t.markers()
        for h in t.heights[m].values() if h >= t.threshold
    )
    if len(pits) != observed:
        problems.append(f"{len(pits)} PIT values for {observed} observed peaks")
    return problems


def _check_artefacts(job, values, oracle):
    problems = []
    if any(not 0.0 <= p <= 1.0 for p in values["probabilities"]):
        problems.append("an artefact posterior outside [0, 1]")
    freqs, traces, hyp = oracle.evidence(job.case, job.case.hypothesis)
    observed = {
        (t.trace_id, m, a) for t in traces for m in t.markers()
        for a, h in t.heights[m].items() if h >= t.threshold
    }
    stutter_rows = {
        (tid, m, a) for tid, m, a, z, ps, pd in values["rows"] if ps is not None
    }
    if stutter_rows != observed:
        problems.append(
            f"stutter posteriors for {len(stutter_rows)} peaks, "
            f"{len(observed)} peaks observed"
        )
    return problems


_ORACLE_CHECKS = {
    "fit": _check_fit,
    "woe": _check_woe,
    "sweep": _check_sweep,
    "deconvolve": _check_deconvolve,
    "diagnose": _check_diagnose,
    "artefacts": _check_artefacts,
}
