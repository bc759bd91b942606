"""Command-line surface: ingestion, fitting, evidence and artefact reports.

Subcommands: fit, woe, deconvolve, artefacts, sweep, simulate, diagnose.
All outputs are deterministic given the inputs and the seed.  Load and
configuration problems exit with code 2, convergence failures with 3;
machine-readable error JSON goes to stderr.  ``--params`` takes a
parameter JSON or a fit report; subcommands that need parameters fit them
when it is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import estimation, io, simulate as sim
from .engine import (
    EvidenceBundle,
    bundle_posteriors,
    bundle_top_genotypes,
    top_k_joint_profiles,
)
# unused here, but bench/tracing.py wraps these names of this module
from .engine import marker_posterior, presence_posteriors  # noqa: F401
from .estimation import FitSpecification, fit, weight_of_evidence
from .population import with_silent

_DEFAULT_THRESHOLD = 50.0


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _add_common(p):
    p.add_argument("--freqs", required=True, help="frequency CSV")
    p.add_argument("--profiles", help="profile CSV")
    p.add_argument("--trace", action="append", default=[],
                   help="trace CSV (repeatable)")
    p.add_argument("--hypothesis", help="case/hypothesis JSON")
    p.add_argument("--threshold", type=float, default=None,
                   help=f"detection threshold for traces without one "
                        f"(default {_DEFAULT_THRESHOLD:g})")
    p.add_argument("--q0", type=float, default=None, help="silent-allele frequency")
    p.add_argument("--share", default=None,
                   help="comma list of parameters shared across traces "
                        "(subset of rho,eta,xi,phi; default eta,xi)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (JSON unless .csv)")
    p.add_argument("--params", help="parameter JSON (skip fitting)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixref",
        description="Gamma peak-height model for DNA mixtures: likelihoods, "
                    "weight of evidence, deconvolution, artefact posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="maximum-likelihood fit of one hypothesis")
    _add_common(p)
    p.add_argument("--under", help="hypothesis id (default: prosecution or first)")

    p = sub.add_parser("woe", help="weight of evidence between two hypotheses")
    _add_common(p)
    p.add_argument("--prosecution", default=None,
                   help="hypothesis id (default: 'prosecution' or the first)")
    p.add_argument("--defence", default=None,
                   help="hypothesis id (default: 'defence' or the next)")

    p = sub.add_parser("deconvolve", help="most probable unknown profiles")
    _add_common(p)
    p.add_argument("--under", help="hypothesis id (default: defence or first)")
    p.add_argument("--k", type=int, default=5)

    p = sub.add_parser("artefacts", help="stutter/dropout posteriors per allele")
    _add_common(p)
    p.add_argument("--under", help="hypothesis id (default: defence or first)")

    p = sub.add_parser("sweep", help="maximized likelihood vs contributor count")
    _add_common(p)
    p.add_argument("--under", help="hypothesis id (default: all hypotheses)")
    p.add_argument("--max", type=int, required=True, dest="max_unknowns")
    p.add_argument("--min", type=int, default=None, dest="min_unknowns")

    p = sub.add_parser("simulate", help="draw a trace under the model")
    _add_common(p)
    p.add_argument("--under", help="hypothesis id naming the contributors")
    p.add_argument("--trace-id", default=None, help="id of the simulated trace")

    p = sub.add_parser("diagnose", help="conditional probability transform of peaks")
    _add_common(p)
    p.add_argument("--under", help="hypothesis id (default: prosecution or first)")
    p.add_argument("--no-truncate", action="store_true",
                   help="use unconditional CDFs instead of observed-status "
                        "truncation")
    return parser


# ---------------------------------------------------------------------------
# Shared loading


class _Case:
    def __init__(self, args, need_traces=True):
        self.freqs = io.load_frequency_table(args.freqs)
        definition = None
        if args.hypothesis:
            definition = io.load_case_definition(args.hypothesis)
        self.definition = definition
        q0 = args.q0 if args.q0 is not None else (definition.q0 if definition else 0.0)
        if q0:
            self.freqs = with_silent(self.freqs, q0)
        self.profiles = io.load_profiles(args.profiles) if args.profiles else {}
        self._validate_profiles()

        rows = {}
        for path in args.trace:
            for tid, markers in io.read_trace_rows(path).items():
                if tid in rows:
                    raise io.LoadError(f"trace id {tid!r} appears in several files")
                rows[tid] = markers
        if need_traces and not rows:
            raise io.LoadError("no trace files given")
        if definition and rows:
            _check_trace_ids(definition.thresholds, rows, "case JSON traces")
        self._threshold = args.threshold
        self.traces = io.build_traces(rows, {tid: self.threshold(tid) for tid in rows})

        share = None
        if args.share is not None:
            share = tuple(s.strip() for s in args.share.split(",") if s.strip())
        elif definition and definition.share is not None:
            share = definition.share
        self.share = frozenset(share) if share is not None else frozenset({"eta", "xi"})
        self.seed = args.seed
        self.params = None
        if args.params:
            path = Path(args.params)
            if not path.exists():
                raise io.LoadError(f"parameter file not found: {path}")
            self.params = io.parameters_from_json(
                json.loads(path.read_text(encoding="utf-8"))
            )

    def threshold(self, tid):
        """--threshold, else the case JSON's value for the trace, else the default."""
        if self._threshold is not None:
            return self._threshold
        if self.definition and tid in self.definition.thresholds:
            return self.definition.thresholds[tid]
        return _DEFAULT_THRESHOLD

    def _validate_profiles(self):
        table = set(self.freqs.marker_names())
        for who, profile in self.profiles.items():
            for marker, pair in profile.genotypes.items():
                if marker not in table:
                    raise io.LoadError(
                        f"profile {who!r} typed on marker {marker!r} not in "
                        "the frequency table"
                    )
                ladder = self.freqs.ladder(marker)
                for a in pair:
                    try:
                        ladder.index(a)
                    except KeyError:
                        raise io.LoadError(
                            f"profile {who!r}: allele {a!r} not on the "
                            f"{marker!r} ladder"
                        ) from None

    def hypothesis_ids(self):
        if not self.definition:
            raise io.LoadError("this command needs a hypothesis JSON (--hypothesis)")
        return list(self.definition.hypotheses)

    def hypothesis(self, hyp_id):
        ids = self.hypothesis_ids()
        if hyp_id is None:
            raise io.LoadError(f"choose a hypothesis id among {ids}")
        if hyp_id not in ids:
            raise io.LoadError(f"hypothesis {hyp_id!r} not among {ids}")
        spec = self.definition.hypotheses[hyp_id]
        hypothesis = io.build_hypothesis(spec, self.profiles)
        if self.traces:
            _check_trace_ids(
                hypothesis.trace_roles or {}, [t.trace_id for t in self.traces],
                f"hypothesis {hyp_id!r}: trace_roles",
            )
        return hypothesis

    def default_id(self, preferred):
        ids = self.hypothesis_ids()
        return preferred if preferred in ids else ids[0]

    def bundle(self, hyp_id, parameters=None):
        hypothesis = self.hypothesis(hyp_id)
        params = parameters or self.params
        if params is None:
            params = estimation._uniform_parameters(hypothesis, self.traces)
        return EvidenceBundle(
            traces=self.traces,
            frequencies=self.freqs,
            hypothesis=hypothesis,
            parameters=params,
        )

    def stated_or_fitted_bundle(self, hyp_id):
        """The bundle at the --params values, else at the fitted optimum."""
        if self.params is not None:
            return self.bundle(hyp_id)
        result = _fit_hypothesis(self, hyp_id)
        return result.bundle.with_parameters(result.parameters)


def _check_trace_ids(named, trace_ids, where, absent="no trace file holds"):
    """Refuse trace ids in ``named`` missing from ``trace_ids``; ``absent``
    says what lacks them."""
    missing = sorted(set(named) - set(trace_ids))
    if missing:
        raise io.LoadError(
            f"{where} names trace ids {missing} that {absent} "
            f"(trace ids held: {sorted(trace_ids)})"
        )


def _fit_hypothesis(case: _Case, hyp_id: str) -> "estimation.FitResult":
    bundle = case.bundle(hyp_id)
    if case.params is not None:
        # everything is fixed, so cross-trace sharing plays no part
        spec = FitSpecification(
            bundle=bundle,
            share=frozenset(),
            fixed={
                "rho": dict(case.params.rho),
                "eta": {t: case.params.eta_for(t) for t in case.params.rho},
                "xi": {t: case.params.xi_for(t) for t in case.params.rho},
                "phi": {t: dict(v) for t, v in case.params.phi.items()},
            },
            seed=case.seed,
        )
    else:
        spec = FitSpecification(bundle=bundle, share=case.share, seed=case.seed)
    result = fit(spec, hypothesis_id=hyp_id)
    if not result.converged:
        raise CliError(f"fit for hypothesis {hyp_id!r} did not converge", code=3)
    return result


def _emit(doc, out, text=None, table=None):
    """Print text, then write out: the (header, rows) table as CSV if out
    ends in .csv, else doc as JSON."""
    if text:
        print(text)
    if out and table is not None and str(out).endswith(".csv"):
        header, rows = table
        _emit_csv(rows, header, out)
    elif out:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _emit_csv(rows, header, out):
    import csv as _csv

    with Path(out).open("w", newline="", encoding="utf-8") as handle:
        writer = _csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_fit(args):
    case = _Case(args)
    hyp_id = args.under or case.default_id("prosecution")
    result = _fit_hypothesis(case, hyp_id)
    report = io.fit_report(result, hyp_id)
    _emit(report, args.out, io.render_fit_table(report))
    return 0


def cmd_woe(args):
    case = _Case(args)
    ids = case.hypothesis_ids()
    p_id = args.prosecution or ("prosecution" if "prosecution" in ids else ids[0])
    remaining = [i for i in ids if i != p_id]
    d_id = args.defence or (
        "defence" if "defence" in ids and "defence" != p_id
        else (remaining[0] if remaining else None)
    )
    if p_id not in ids:
        raise io.LoadError(f"hypothesis {p_id!r} not among {ids}")
    if d_id is None or d_id not in ids:
        raise io.LoadError(
            f"no defence hypothesis to compare against (have {ids})"
        )
    if p_id == d_id:
        raise io.LoadError("prosecution and defence hypotheses are the same")
    fit_p = _fit_hypothesis(case, p_id)
    fit_d = _fit_hypothesis(case, d_id)
    woe = weight_of_evidence(fit_p, fit_d)
    suspect = set(fit_p.bundle.hypothesis.known) - set(fit_d.bundle.hypothesis.known)
    bound = None
    loss = None
    if len(suspect) == 1:
        bound = estimation.efficiency_loss(
            0.0, case.profiles[suspect.pop()], case.freqs,
            fit_p.bundle.covered_markers(),
        )
        loss = bound - woe
        if woe > bound + 1e-9:
            raise RuntimeError(
                f"weight of evidence {woe} exceeds the single-source bound {bound}"
            )
    doc = {
        "prosecution": io.fit_report(fit_p),
        "defence": io.fit_report(fit_d),
        "woe_bans": woe,
        "bound_bans": bound,
        "efficiency_loss_bans": loss,
    }
    lines = [f"WoE = {woe:.1f} bans"]
    if bound is not None:
        lines.append(f"single-source bound = {bound:.1f} bans")
        lines.append(f"efficiency loss = {loss:.1f} bans")
    _emit(doc, args.out, "\n".join(lines))
    return 0


def cmd_deconvolve(args):
    case = _Case(args)
    hyp_id = args.under or case.default_id("defence")
    if args.k < 1:
        raise CliError("--k must be at least 1")
    bundle = case.stated_or_fitted_bundle(hyp_id)
    markers = bundle.covered_markers()
    joint = top_k_joint_profiles(bundle_top_genotypes(bundle, args.k), args.k)
    unknowns = bundle.hypothesis.unknown
    rows = []
    for rank, (profile, prob) in enumerate(joint, start=1):
        row = {"rank": rank, "probability": prob, "profile": {}}
        for m in markers:
            row["profile"][m] = {
                u: "/".join(profile[m][u]) for u in unknowns
            }
        rows.append(row)
    doc = {
        "hypothesis": hyp_id,
        "unknowns": list(unknowns),
        "markers": list(markers),
        "profiles": rows,
        "top_probability": rows[0]["probability"] if rows else None,
        "cumulative_probability": float(sum(r["probability"] for r in rows)),
    }
    if rows:
        doc["generic_efficiency_loss_bans"] = estimation.generic_efficiency_loss(
            rows[0]["probability"]
        )
    lines = [f"rank  probability  " + "  ".join(markers)]
    for r in rows:
        geno = "  ".join(
            ";".join(f"{u}:{r['profile'][m][u]}" for u in unknowns) for m in markers
        )
        lines.append(f"{r['rank']:>4}  {r['probability']:.3f}        {geno}")
    header = ["rank", "probability"] + [f"{m}:{u}" for m in markers for u in unknowns]
    csv_rows = [
        [r["rank"], f"{r['probability']:.6g}"]
        + [r["profile"][m][u] for m in markers for u in unknowns]
        for r in rows
    ]
    _emit(doc, args.out, "\n".join(lines), (header, csv_rows))
    return 0


def cmd_artefacts(args):
    case = _Case(args)
    hyp_id = args.under or case.default_id("defence")
    bundle = case.stated_or_fitted_bundle(hyp_id)
    rows = []
    for marker, posterior in bundle_posteriors(bundle).items():
        presence = posterior.presence
        for trace in bundle.traces:
            if marker not in trace.heights:
                continue
            for allele, p_present in presence.items():
                z = trace.height(marker, allele)
                if z > 0:
                    rows.append(
                        [trace.trace_id, marker, allele, z, 1.0 - p_present, None]
                    )
                else:
                    rows.append([trace.trace_id, marker, allele, 0.0, None, p_present])
    doc = {
        "hypothesis": hyp_id,
        "columns": ["trace", "marker", "allele", "z",
                    "p_stutter_given_z", "p_dropout_given_z"],
        "rows": rows,
    }
    lines = ["trace  marker  allele  z       P(stutter|z)  P(dropout|z)"]
    for tid, marker, allele, z, ps, pd in rows:
        lines.append(
            f"{tid:<6} {marker:<7} {allele:<7} {z:<7g} "
            f"{'' if ps is None else format(ps, '.3f'):<13} "
            f"{'' if pd is None else format(pd, '.3f')}"
        )
    csv_rows = [[c if c is not None else "" for c in r] for r in rows]
    _emit(doc, args.out, "\n".join(lines), (doc["columns"], csv_rows))
    return 0


def cmd_sweep(args):
    case = _Case(args)
    targets = [args.under] if args.under else case.hypothesis_ids()
    doc = {"max_unknowns": args.max_unknowns, "hypotheses": {}}
    lines = ["hypothesis  unknowns  contributors  log10 L"]
    for hyp_id in targets:
        bundle = case.bundle(hyp_id)
        spec = FitSpecification(
            bundle=bundle, share=case.share, seed=case.seed,
            compute_standard_errors=False,
        )
        records = estimation.contributor_sweep(
            spec, args.max_unknowns, args.min_unknowns
        )
        doc["hypotheses"][hyp_id] = [
            {
                "unknowns": r["unknowns"],
                "contributors": r["contributors"],
                "log10_likelihood": r["log10_likelihood"],
                "converged": r["converged"],
            }
            for r in records
        ]
        for r in records:
            lines.append(
                f"{hyp_id:<11} {r['unknowns']:>8}  {r['contributors']:>12}  "
                f"{r['log10_likelihood']:.3f}"
            )
    rows = [
        [h, r["unknowns"], r["contributors"], r["log10_likelihood"]]
        for h, recs in doc["hypotheses"].items()
        for r in recs
    ]
    header = ["hypothesis", "unknowns", "contributors", "log10_likelihood"]
    _emit(doc, args.out, "\n".join(lines), (header, rows))
    return 0


def cmd_simulate(args):
    case = _Case(args, need_traces=False)
    if case.params is None:
        raise CliError("simulate needs --params")
    if case.definition:
        _check_trace_ids(
            case.definition.thresholds, case.params.rho, "case JSON traces",
            "the parameter file does not cover",
        )
    hyp_id = args.under or case.default_id("prosecution")
    hypothesis = case.hypothesis(hyp_id)
    trace_ids = list(case.params.rho)
    tid = args.trace_id or trace_ids[0]
    if tid not in case.params.rho:
        raise CliError(f"--trace-id {tid!r} not covered by the parameter file")
    contributors = {}
    for role in hypothesis.roles_for(tid):
        contributors[role] = hypothesis.known.get(role)
    config = sim.SimulationConfig(
        frequencies=case.freqs,
        parameters=case.params,
        trace_id=tid,
        contributors=contributors,
        threshold=case.threshold(tid),
        seed=args.seed,
    )
    trace = sim.simulate_trace(config)
    if not args.out:
        raise CliError("simulate needs --out for the trace CSV")
    io.write_trace_csv([trace], args.out)
    n_obs = sum(
        1 for m in trace.markers() for h in trace.heights[m].values() if h > 0
    )
    print(f"simulated trace {tid}: {len(trace.markers())} markers, "
          f"{n_obs} observed peaks -> {args.out}")
    return 0


def cmd_diagnose(args):
    case = _Case(args)
    hyp_id = args.under or case.default_id("prosecution")
    bundle = case.stated_or_fitted_bundle(hyp_id)
    records = sim.probability_integral_transform(
        bundle, truncate=not args.no_truncate
    )
    pits = [r["pit"] for r in records if not math.isnan(r["pit"])]
    from scipy import stats as st  # slow to import, and only diagnose needs it

    ks = st.kstest(pits, "uniform") if pits else None
    doc = {
        "hypothesis": hyp_id,
        "n_peaks": len(pits),
        "n_undefined": len(records) - len(pits),
        "ks_statistic": float(ks.statistic) if ks else None,
        "ks_pvalue": float(ks.pvalue) if ks else None,
        "truncated": not args.no_truncate,
    }
    tested = (
        f"KS statistic {doc['ks_statistic']:.4f}, p = {doc['ks_pvalue']:.4g}"
        if ks
        else "no PIT to test"
    )
    print(f"{len(records)} observed peaks, {doc['n_undefined']} with an undefined "
          f"PIT; {tested}")
    if args.out:
        rows = [
            [f"{r['trace']}/{r['marker']}/{r['allele']}", f"{r['pit']:.6f}"]
            for r in records
        ]
        _emit_csv(rows, ["peak", "pit"], args.out)
    else:
        print(json.dumps(doc, indent=2))
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "woe": cmd_woe,
    "deconvolve": cmd_deconvolve,
    "artefacts": cmd_artefacts,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except io.LoadError as exc:
        _error(str(exc), "load_error")
        return 2
    except CliError as exc:
        _error(str(exc), "convergence_error" if exc.code == 3 else "config_error")
        return exc.code
    except ValueError as exc:
        _error(str(exc), "config_error")
        return 2


def _error(message, code):
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
