"""Shared helpers: random case generation and an enumeration oracle.

The oracle here deliberately avoids the engine's chain machinery: it
enumerates unknown genotype combinations directly and scores them with
explicit gamma formulas, so engine results are checked against an
independent computation path.
"""

import itertools
import json
import math
import os
from pathlib import Path

# One BLAS/OpenMP thread unless the environment says otherwise, as
# bench/run.py runs: the tests' arrays are small, and more threads only
# contend for the cores.  It takes effect only before numpy is loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import strategies as stn
from scipy.special import gammainc, gammaincc, gammaln, logsumexp

import mixref as mx
from mixref import io

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Independent enumeration oracle


def oracle_log_pdf(z, shape, scale):
    if shape <= 0:
        return -np.inf
    return (shape - 1) * math.log(z) - z / scale - gammaln(shape) - shape * math.log(scale)


def oracle_log_cdf(c, shape, scale):
    if shape <= 0:
        return 0.0
    p = gammainc(shape, c / scale)
    if p > 0.0:
        return math.log(p)
    # deep lower tail: high-precision fallback
    import mpmath

    return float(
        mpmath.log(mpmath.gammainc(shape, 0, c / scale, regularized=True))
    )


def oracle_successor(freqs, marker):
    ladder = freqs.ladder(marker)
    succ = {}
    for lab in ladder.alleles:
        if lab == "0":
            continue
        s = mx.stutter_successor(freqs, marker, lab)
        succ[lab] = ladder.alleles[s] if s is not None else None
    return succ


def oracle_genotypes(freqs, marker):
    """All unknown genotypes as (counts dict, prior)."""
    ladder = freqs.ladder(marker)
    out = []
    for i, a in enumerate(ladder.alleles):
        for b in ladder.alleles[i:]:
            counts = {lab: 0 for lab in ladder.alleles}
            counts[a] += 1
            counts[b] += 1
            qa, qb = ladder.frequency(a), ladder.frequency(b)
            prior = qa * qa if a == b else 2 * qa * qb
            out.append((counts, prior))
    return out


def oracle_table(bundle, marker):
    """Per unknown-genotype-combination (counts-by-role, log weight)."""
    freqs = bundle.frequencies
    hyp = bundle.hypothesis
    params = bundle.parameters
    ladder = freqs.ladder(marker)
    succ = oracle_successor(freqs, marker)
    genos = oracle_genotypes(freqs, marker)
    combos = list(itertools.product(range(len(genos)), repeat=len(hyp.unknown)))
    table = []
    for combo in combos:
        logw = sum(math.log(genos[g][1]) for g in combo)
        counts = {}
        for kid, profile in hyp.known.items():
            vec = profile.counts(marker, ladder)
            counts[kid] = dict(zip(ladder.alleles, vec))
        for role, g in zip(hyp.unknown, combo):
            counts[role] = genos[g][0]
        for trace in bundle.traces:
            if marker not in trace.heights:
                continue
            roles = set(hyp.roles_for(trace.trace_id))
            rho = params.rho_for(trace.trace_id, marker)
            eta = params.eta_for(trace.trace_id)
            xi = params.xi_for_marker(trace.trace_id, marker)
            phi = params.phi[trace.trace_id]
            b = {
                lab: sum(
                    phi.get(r, 0.0) * counts[r][lab]
                    for r in counts
                    if r in roles
                )
                for lab in ladder.alleles
            }
            for lab in ladder.alleles:
                if lab == "0":
                    continue
                dval = (1 - xi) * b[lab]
                if succ[lab] is not None:
                    dval += xi * b[succ[lab]]
                z = trace.height(marker, lab)
                if z >= trace.threshold:
                    logw += oracle_log_pdf(z, rho * dval, eta)
                else:
                    logw += oracle_log_cdf(trace.threshold, rho * dval, eta)
        table.append((counts, logw))
    return table


def oracle_log_likelihood(bundle, marker):
    table = oracle_table(bundle, marker)
    return float(logsumexp([w for _, w in table]))


def oracle_gradient(bundle, marker):
    """d log L of one marker by Fisher's identity over the enumeration: the
    posterior mean, over unknown genotype combinations, of the derivative
    of each combination's log weight, keyed as
    log_likelihood_and_gradient keys it.

    The peak factors' derivatives in shape and scale come from
    mixref.peakmodel (the log CDF's shape derivative is a central
    difference there), one peak at a time; the chain rule through the
    doses, and the sum over combinations, are this oracle's own.  A
    per-marker override is a constant: no rho or xi derivative from it.
    """
    from mixref.peakmodel import gamma_log_cdf_grad, gamma_log_pdf_grad

    hyp, params = bundle.hypothesis, bundle.parameters
    ladder = bundle.frequencies.ladder(marker)
    succ = oracle_successor(bundle.frequencies, marker)
    table = oracle_table(bundle, marker)
    total = logsumexp([w for _, w in table])
    grad = {}
    for trace in bundle.traces:
        tid = trace.trace_id
        grad.update({("rho", tid): 0.0, ("eta", tid): 0.0, ("xi", tid): 0.0})
        grad.update({("phi", tid, r): 0.0 for r in hyp.roles_for(tid)})
    for counts, logw in table:
        weight = math.exp(logw - total) if logw > -np.inf else 0.0
        if weight == 0.0:
            continue
        for trace in bundle.traces:
            if marker not in trace.heights:
                continue
            tid = trace.trace_id
            roles = hyp.roles_for(tid)
            rho = params.rho_for(tid, marker)
            eta = params.eta_for(tid)
            xi = params.xi_for_marker(tid, marker)
            phi = params.phi[tid]
            own_rho = (params.marker_rho or {}).get(marker, {}).get(tid) is None
            own_xi = marker not in (params.marker_xi or {})
            b = {lab: sum(phi[r] * counts[r][lab] for r in roles) for lab in ladder.alleles}
            for lab in ladder.alleles:
                if lab == "0":
                    continue
                donor = succ[lab]
                dval = (1 - xi) * b[lab] + (xi * b[donor] if donor is not None else 0.0)
                shape = rho * dval
                z = trace.height(marker, lab)
                if z >= trace.threshold:
                    d_shape, d_eta = gamma_log_pdf_grad(z, shape, eta)
                else:
                    d_shape, d_eta = gamma_log_cdf_grad(
                        trace.threshold, shape, eta, oracle_log_cdf(trace.threshold, shape, eta)
                    )
                d_shape, d_eta = float(d_shape), float(d_eta)
                grad[("eta", tid)] += weight * d_eta
                if own_rho:
                    grad[("rho", tid)] += weight * d_shape * dval
                if own_xi:
                    grad[("xi", tid)] += weight * d_shape * rho * (
                        (b[donor] if donor is not None else 0.0) - b[lab]
                    )
                for r in roles:
                    n_here = counts[r][lab]
                    n_donor = counts[r][donor] if donor is not None else 0
                    grad[("phi", tid, r)] += (
                        weight * d_shape * rho * ((1 - xi) * n_here + xi * n_donor)
                    )
    return grad


def oracle_pit(bundle, trace_id, allele, truncate, marker="M"):
    """PIT of one observed peak on ``marker`` by enumerating genotypes.

    Weights are the enumeration oracle's, with the peak's factor taken out
    (and its survival probability put in when truncating); the mixed CDFs
    are the gamma CDFs at its height (truncated to [C, inf)).
    """
    trace = next(t for t in bundle.traces if t.trace_id == trace_id)
    z, c = trace.height(marker, allele), trace.threshold
    zeroed = mx.Trace(
        trace_id=trace_id, threshold=c,
        heights={**trace.heights, marker: {**trace.heights[marker], allele: 0.0}},
    )
    params = bundle.parameters
    rho = params.rho_for(trace_id, marker)
    eta = params.eta_for(trace_id)
    xi = params.xi_for_marker(trace_id, marker)
    phi = params.phi[trace_id]
    roles = set(bundle.hypothesis.roles_for(trace_id))
    donor = oracle_successor(bundle.frequencies, marker)[allele]
    table = oracle_table(
        mx.EvidenceBundle(
            traces=tuple(zeroed if t is trace else t for t in bundle.traces),
            frequencies=bundle.frequencies, hypothesis=bundle.hypothesis,
            parameters=params,
        ),
        marker,
    )
    logws, cdfs = [], []
    for counts, logw in table:
        def b(lab):
            return sum(phi[r] * counts[r][lab] for r in counts if r in roles)

        shape = rho * ((1 - xi) * b(allele) + (xi * b(donor) if donor else 0.0))
        logw -= oracle_log_cdf(c, shape, eta)  # the zeroed peak's dropout factor
        if truncate:
            qc, qz = gammaincc(shape, c / eta), gammaincc(shape, z / eta)
            logws.append(logw + (math.log(qc) if shape > 0 else -np.inf))
            cdfs.append((qc - qz) / qc if shape > 0 else 0.0)
        else:
            logws.append(logw)
            cdfs.append(gammainc(shape, z / eta) if shape > 0 else 1.0)
    total = logsumexp(logws)
    if total == -np.inf:
        return float("nan")
    return sum(math.exp(w - total) * f for w, f in zip(logws, cdfs))


def oracle_presence(bundle, marker):
    table = oracle_table(bundle, marker)
    total = logsumexp([w for _, w in table])
    ladder = bundle.frequencies.ladder(marker)
    out = {}
    for lab in ladder.alleles:
        if lab == "0":
            continue
        present = [
            w for counts, w in table
            if sum(c[lab] for c in counts.values()) > 0
        ]
        out[lab] = float(np.exp(logsumexp(present) - total)) if present else 0.0
    return out


# ---------------------------------------------------------------------------
# Random case generation


LABEL_POOL = ["6", "7", "8", "9", "9.3", "10", "11", "12"]


@stn.composite
def ladder_labels(draw, max_size=13):
    """1 to max_size distinct canonical allele labels in any order: repeat
    numbers, microvariants x.y with one or two digits after the point,
    non-numeric labels, and maybe the silent allele '0'."""
    label = stn.one_of(
        stn.integers(1, 30).map(str),
        stn.tuples(stn.integers(1, 30), stn.sampled_from(["1", "2", "3", "12"]))
        .map(lambda rs: f"{rs[0]}.{rs[1]}"),
        stn.sampled_from(["X", "Y", "OL"]),
    )
    labels = draw(stn.lists(label, min_size=1, max_size=max_size, unique=True))
    if len(labels) < max_size and draw(stn.booleans()):
        labels.append("0")
    return draw(stn.permutations(labels))


def _random_ladder(rng, max_alleles, allow_silent):
    n_alleles = int(rng.integers(2, max_alleles + 1))
    start = int(rng.integers(0, len(LABEL_POOL) - n_alleles))
    labels = LABEL_POOL[start:start + n_alleles]
    q = rng.dirichlet(np.ones(n_alleles) * 2.0)
    q0 = float(rng.uniform(0.02, 0.2)) if allow_silent and rng.random() < 0.25 else None
    return dict(zip(labels, q)), q0


def random_case(rng, max_alleles=5, max_unknowns=2, max_traces=2,
                allow_silent=True, n_markers=1):
    """A random small evidence bundle with valid parameters.

    Markers are named "M", then "M2", "M3", ...; with one marker the
    draws are those of the single-marker generator.
    """
    markers = ["M"] + [f"M{i + 1}" for i in range(1, n_markers)]
    ladders = {}
    for m in markers:
        table, q0 = _random_ladder(rng, max_alleles, allow_silent)
        one = mx.FrequencyTable.from_dict({m: table})
        ladders[m] = (mx.with_silent(one, q0) if q0 else one).markers[m]
    freqs = mx.FrequencyTable(markers=ladders)
    visible = {
        m: [a for a in freqs.ladder(m).alleles if a != "0"] for m in markers
    }

    n_unknown = int(rng.integers(0, max_unknowns + 1))
    n_known = int(rng.integers(0 if n_unknown else 1, 3))
    known = {}
    for i in range(n_known):
        known[f"K{i+1}"] = mx.GenotypeProfile.from_pairs(
            {m: tuple(rng.choice(visible[m], size=2, replace=True)) for m in markers}
        )
    unknown = tuple(f"U{i+1}" for i in range(n_unknown))
    roles = tuple(known) + unknown

    n_traces = int(rng.integers(1, max_traces + 1))
    trace_roles = None
    if n_traces > 1 and len(roles) >= 2 and rng.random() < 0.3:
        # one trace misses one role: exercises the cross-trace sharing map
        short = int(rng.integers(n_traces))
        dropped = roles[int(rng.integers(len(roles)))]
        trace_roles = {
            f"T{short+1}": tuple(r for r in roles if r != dropped)
        }
    traces, rho, phi = [], {}, {}
    for t in range(n_traces):
        tid = f"T{t+1}"
        heights = {}
        for m in markers:
            row = heights[m] = {}
            for a in visible[m]:
                r = rng.random()
                if r < 0.45:
                    continue
                row[a] = float(rng.uniform(50, 1200)) if r < 0.9 else 0.0
        traces.append(mx.Trace(trace_id=tid, threshold=50.0, heights=heights))
        rho[tid] = float(rng.uniform(10, 60))
        contributing = roles
        if trace_roles and tid in trace_roles:
            contributing = trace_roles[tid]
        k_here = sum(1 for r in contributing if r in known)
        w = rng.dirichlet(np.ones(len(contributing)))
        w = np.concatenate([w[:k_here], np.sort(w[k_here:])[::-1]])
        phi[tid] = {r: float(x) for r, x in zip(contributing, w)}
    params = mx.ModelParameters(
        rho=rho,
        eta=float(rng.uniform(15, 45)),
        xi=float(rng.uniform(0.0, 0.25)),
        phi=phi,
    )
    hypothesis = mx.Hypothesis(known=known, unknown=unknown,
                               trace_roles=trace_roles)
    return mx.EvidenceBundle(
        traces=tuple(traces), frequencies=freqs,
        hypothesis=hypothesis, parameters=params,
    )


# ---------------------------------------------------------------------------
# Published-case fixtures


@pytest.fixture(scope="session")
def pubcase():
    """Excerpt data (three markers, two traces) with combined-fit parameters."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        freqs = io.load_frequency_table(DATA / "pubcase_freqs.csv")
        profiles = io.load_profiles(DATA / "pubcase_profiles.csv")
        rows = io.read_trace_rows(DATA / "pubcase_traces.csv")
        traces = io.build_traces(rows, {"MC15": 50.0, "MC18": 50.0})
    case = io.load_case_definition(DATA / "pubcase_case.json")
    params = io.parameters_from_json(
        json.loads((DATA / "pubcase_params_defence.json").read_text())
    )
    return {
        "freqs": freqs,
        "profiles": profiles,
        "traces": traces,
        "case": case,
        "params": params,
    }


@pytest.fixture(scope="session")
def pubcase_defence_bundle(pubcase):
    hyp = io.build_hypothesis(
        pubcase["case"].hypotheses["defence"], pubcase["profiles"]
    )
    return mx.EvidenceBundle(
        traces=pubcase["traces"],
        frequencies=pubcase["freqs"],
        hypothesis=hyp,
        parameters=pubcase["params"],
    )
