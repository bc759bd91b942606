"""Inference engine against enumeration oracles and structural invariants."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as stn
from scipy.special import logsumexp

import mixref as mx
from mixref import engine
from mixref.engine import InfeasibleConditioningError
from mixref.estimation import (
    FitSpecification,
    _evaluate,
    _Structure,
    _uniform_parameters,
    numeric_gradient,
)
from mixref.peakmodel import gamma_log_cdf, gamma_log_cdf_grad, gamma_log_pdf

from conftest import (
    ladder_labels,
    oracle_gradient,
    oracle_log_cdf,
    oracle_log_likelihood,
    oracle_log_pdf,
    oracle_presence,
    oracle_table,
    random_case,
)


def single_trace_bundle(freqs, hypothesis, heights, params, threshold=50.0):
    trace = mx.Trace(trace_id="T1", threshold=threshold, heights={"M": heights})
    return mx.EvidenceBundle(
        traces=(trace,), frequencies=freqs, hypothesis=hypothesis,
        parameters=params,
    )


class TestMarkerLogLikelihood:
    def test_single_known_het_no_marginalization(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"K1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}), {"8": 430.0, "9": 380.0}, params
        )
        got = mx.marker_log_likelihood(b, "M")
        want = oracle_log_pdf(430.0, 25.0, 20.0) + oracle_log_pdf(380.0, 25.0, 20.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_observed_peak_with_zero_dose_is_impossible(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "8")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"K1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}), {"8": 430.0, "9": 380.0}, params
        )
        assert mx.marker_log_likelihood(b, "M") == -np.inf

    def test_all_dropout_is_log_dropout_probability(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"K1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}), {"8": 0.0, "9": 0.0}, params
        )
        got = mx.marker_log_likelihood(b, "M")
        want = 2 * oracle_log_cdf(50.0, 25.0, 20.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got < 0.0
        # with an enormous threshold dropout is certain and the factor -> 1
        b2 = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}), {"8": 0.0, "9": 0.0},
            params, threshold=1e9,
        )
        assert mx.marker_log_likelihood(b2, "M") == pytest.approx(0.0, abs=1e-9)

    def test_no_underflow_with_extreme_factors(self):
        # every unobserved factor near e^-700: the total stays finite and
        # matches enumeration, far below linear-space representability
        freqs = mx.FrequencyTable.from_dict(
            {"M": {str(a): 1.0 / 6 for a in range(7, 13)}}
        )
        k1 = mx.GenotypeProfile.from_pairs({"M": ("7", "8")})
        params = mx.ModelParameters(
            rho={"T1": 4000.0}, eta=1.0, xi=0.0,
            phi={"T1": {"K1": 0.7, "U1": 0.3}},
        )
        heights = {str(a): 0.0 for a in range(7, 13)}
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            heights, params,
        )
        dp = mx.marker_log_likelihood(b, "M")
        assert np.isfinite(dp)
        assert dp < -1300.0  # far below log(realmin)
        assert dp == pytest.approx(oracle_log_likelihood(b, "M"), rel=1e-9)

    def test_hypothesis_without_contributors_rejected(self):
        with pytest.raises(ValueError):
            mx.Hypothesis(known={}, unknown=())

    def test_known_missing_marker_rejected(self):
        freqs = mx.FrequencyTable.from_dict(
            {"M": {"8": 0.5, "9": 0.5}, "M2": {"8": 1.0}}
        )
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"K1": 1.0}}
        )
        trace = mx.Trace(
            trace_id="T1", threshold=50.0,
            heights={"M": {"8": 430.0}, "M2": {"8": 100.0}},
        )
        with pytest.raises(ValueError, match="untyped"):
            mx.EvidenceBundle(
                traces=(trace,), frequencies=freqs,
                hypothesis=mx.Hypothesis(known={"K1": k1}), parameters=params,
            )

    def test_off_ladder_trace_allele_rejected(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"K1": 1.0}}
        )
        with pytest.raises(ValueError, match="not on the"):
            single_trace_bundle(
                freqs, mx.Hypothesis(known={"K1": k1}), {"12": 430.0}, params
            )


class TestTraceValidation:
    @pytest.mark.parametrize("height", [float("nan"), float("inf")])
    def test_non_finite_height_rejected(self, height):
        with pytest.raises(ValueError, match="non-finite height"):
            mx.Trace(trace_id="T1", threshold=50.0, heights={"M": {"8": height}})

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            mx.Trace(trace_id="T1", threshold=threshold, heights={"M": {"8": 400.0}})


class TestOracleEquivalence:
    def test_random_instances_match_both_oracles(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            b = random_case(rng)
            dp = mx.marker_log_likelihood(b, "M")
            bf = mx.brute_force_log_likelihood(b, "M")
            enum = oracle_log_likelihood(b, "M")
            if enum == -np.inf:
                # structurally impossible evidence; all paths must agree
                assert dp == -np.inf and bf == -np.inf
                continue
            scale = max(abs(enum), 1.0)
            assert abs(dp - enum) <= 1e-9 * scale
            assert abs(bf - enum) <= 1e-9 * scale

    def test_no_unknowns_exact_equality(self):
        rng = np.random.default_rng(1)
        b = random_case(rng, max_unknowns=0)
        assert mx.brute_force_log_likelihood(b, "M") == pytest.approx(
            mx.marker_log_likelihood(b, "M"), rel=1e-14
        )

    def test_fractional_ladder_stutter_topology(self):
        # TH01-like ladder: 9 stutters from 10 across the 9.3 position
        freqs = mx.FrequencyTable.from_dict(
            {"M": {"8": 0.2, "9": 0.25, "9.3": 0.35, "10": 0.2}}
        )
        k1 = mx.GenotypeProfile.from_pairs({"M": ("9.3", "10")})
        params = mx.ModelParameters(
            rho={"T1": 30.0}, eta=25.0, xi=0.12,
            phi={"T1": {"K1": 0.75, "U1": 0.25}},
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            {"8": 90.0, "9": 130.0, "9.3": 700.0, "10": 540.0}, params,
        )
        dp = mx.marker_log_likelihood(b, "M")
        enum = oracle_log_likelihood(b, "M")
        assert dp == pytest.approx(enum, rel=1e-12)

    def test_marker_overrides_respected(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.4, "9": 0.6}})
        params = mx.ModelParameters(
            rho={"T1": 30.0}, eta=25.0, xi=0.1,
            phi={"T1": {"U1": 1.0}},
            marker_rho={"M": {"T1": 18.0}}, marker_xi={"M": 0.02},
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={}, unknown=("U1",)),
            {"8": 200.0, "9": 350.0}, params,
        )
        assert mx.marker_log_likelihood(b, "M") == pytest.approx(
            oracle_log_likelihood(b, "M"), rel=1e-12
        )

    @pytest.mark.parametrize("override", [
        {"marker_rho": {"M2": {"T1": 18.0}}}, {"marker_xi": {"M2": 0.02}},
    ])
    def test_overrides_of_markers_off_the_table_refused(self, override):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.4, "9": 0.6}})
        params = mx.ModelParameters(rho={"T1": 30.0}, eta=25.0, xi=0.1,
                                    phi={"T1": {"U1": 1.0}})
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={}, unknown=("U1",)),
            {"8": 200.0, "9": 350.0}, params,
        )
        key = f"{next(iter(override))}\\['M2'\\] names a marker absent"
        with pytest.raises(ValueError, match=key):
            b.with_parameters(replace(params, **override))
        with pytest.raises(ValueError, match=key):
            replace(b, parameters=replace(params, **override))

    def test_budget_error(self):
        rng = np.random.default_rng(5)
        b = random_case(rng, max_unknowns=2)
        if len(b.hypothesis.unknown) < 2:
            b = random_case(np.random.default_rng(11), max_unknowns=2)
        with pytest.raises(mx.CombinationBudgetError):
            mx.brute_force_log_likelihood(b, "M", max_combinations=1)


class TestMultiTrace:
    def test_disjoint_unknowns_factorize(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.3, "9": 0.3, "10": 0.4}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9")})
        hyp = mx.Hypothesis(
            known={"K1": k1},
            unknown=("U1", "U2"),
            trace_roles={"T1": ("K1", "U1"), "T2": ("K1", "U2")},
        )
        t1 = mx.Trace(trace_id="T1", threshold=50.0,
                      heights={"M": {"8": 420.0, "9": 260.0, "10": 110.0}})
        t2 = mx.Trace(trace_id="T2", threshold=50.0,
                      heights={"M": {"8": 380.0, "9": 300.0}})
        params = mx.ModelParameters(
            rho={"T1": 25.0, "T2": 32.0}, eta=22.0, xi=0.07,
            phi={"T1": {"K1": 0.8, "U1": 0.2}, "T2": {"K1": 0.7, "U2": 0.3}},
        )
        joint = mx.EvidenceBundle(
            traces=(t1, t2), frequencies=freqs, hypothesis=hyp, parameters=params
        )
        got = mx.total_log_likelihood(joint)

        sep = 0.0
        for trace, role in ((t1, "U1"), (t2, "U2")):
            hyp_one = mx.Hypothesis(known={"K1": k1}, unknown=(role,))
            params_one = mx.ModelParameters(
                rho={trace.trace_id: params.rho[trace.trace_id]},
                eta=22.0, xi=0.07,
                phi={trace.trace_id: params.phi[trace.trace_id]},
            )
            one = mx.EvidenceBundle(
                traces=(trace,), frequencies=freqs,
                hypothesis=hyp_one, parameters=params_one,
            )
            sep += mx.total_log_likelihood(one)
        assert got == pytest.approx(sep, rel=1e-12)

    def test_shared_unknown_couples_traces(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            b = random_case(rng, max_traces=2)
            if len(b.traces) < 2 or not b.hypothesis.unknown:
                continue
            assert mx.marker_log_likelihood(b, "M") == pytest.approx(
                oracle_log_likelihood(b, "M"), rel=1e-9
            )

    def test_zero_marker_trace_changes_nothing(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9")})
        hyp = mx.Hypothesis(known={"K1": k1}, unknown=("U1",))
        t1 = mx.Trace(trace_id="T1", threshold=50.0,
                      heights={"M": {"8": 420.0}})
        empty = mx.Trace(trace_id="T2", threshold=50.0, heights={})
        p1 = mx.ModelParameters(
            rho={"T1": 25.0}, eta=22.0, xi=0.05,
            phi={"T1": {"K1": 0.8, "U1": 0.2}},
        )
        p2 = mx.ModelParameters(
            rho={"T1": 25.0, "T2": 30.0}, eta=22.0, xi=0.05,
            phi={"T1": {"K1": 0.8, "U1": 0.2}, "T2": {"K1": 0.5, "U1": 0.5}},
        )
        b1 = mx.EvidenceBundle(traces=(t1,), frequencies=freqs,
                               hypothesis=hyp, parameters=p1)
        b2 = mx.EvidenceBundle(traces=(t1, empty), frequencies=freqs,
                               hypothesis=hyp, parameters=p2)
        assert mx.total_log_likelihood(b1) == pytest.approx(
            mx.total_log_likelihood(b2), rel=1e-12
        )


class TestPresencePosteriors:
    def test_known_carrier_is_certain(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b = random_case(rng)
            if not b.hypothesis.known:
                continue
            if oracle_log_likelihood(b, "M") == -np.inf:
                continue
            pres = mx.presence_posteriors(b, "M")
            for kid, profile in b.hypothesis.known.items():
                for a in profile.genotypes["M"]:
                    assert pres[a] == 1.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            b = random_case(rng)
            if not b.hypothesis.unknown:
                continue
            if oracle_log_likelihood(b, "M") == -np.inf:
                continue
            pres = mx.presence_posteriors(b, "M")
            want = oracle_presence(b, "M")
            for a, p in pres.items():
                assert p == pytest.approx(want[a], abs=1e-9)
            checked += 1

    def test_no_unknowns_non_carried_allele(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "8")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.1, phi={"T1": {"K1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}), {"8": 430.0}, params
        )
        pres = mx.presence_posteriors(b, "M")
        assert pres["8"] == 1.0
        assert pres["9"] == 0.0


class TestCountMarginals:
    def test_match_enumeration(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 20:
            b = random_case(rng)
            if not b.hypothesis.unknown:
                continue
            if oracle_log_likelihood(b, "M") == -np.inf:
                continue
            table = oracle_table(b, "M")
            total = logsumexp([w for _, w in table])
            marginals = mx.marker_posterior(b, "M").count_marginals
            for role in b.hypothesis.unknown:
                for lab, probs in marginals[role].items():
                    want = [0.0, 0.0, 0.0]
                    for counts, w in table:
                        want[counts[role][lab]] += math.exp(w - total)
                    assert probs == pytest.approx(want, abs=1e-9)
            checked += 1


class TestOneSweep:
    def test_posterior_with_k_best_evaluates_each_step_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        b = random_case(rng, max_unknowns=2)
        while not b.hypothesis.unknown or oracle_log_likelihood(b, "M") == -np.inf:
            b = random_case(rng, max_unknowns=2)
        steps = []
        original = engine._step_values

        def counting(plan, t, *args):
            steps.append(t)
            return original(plan, t, *args)

        monkeypatch.setattr(engine, "_step_values", counting)
        post = mx.marker_posterior(b, "M", k=3)
        assert post.top_genotypes
        assert sorted(steps) == list(range(len(b.frequencies.ladder("M").alleles)))

    def test_top_k_makes_one_value_pass_and_no_posterior_pass(self, monkeypatch):
        b = random_case(np.random.default_rng(5), max_unknowns=2, n_markers=3)
        (stack,) = b._stacks
        assert len(stack.plans) == 3
        passes = _count_chain_passes(monkeypatch)
        mx.top_k_marker_genotypes(b, "M2", 4)
        assert passes == [(3, False)]  # the pass over M2's stack
        mx.bundle_top_genotypes(b, 4)
        assert passes[1:] == [(3, False)]


def _count_chain_passes(monkeypatch):
    """Record (markers, posteriors asked) of every engine._chain_pass call."""
    passes = []
    original = engine._chain_pass

    def spy(stack, tables, posteriors=False, alt=None):
        passes.append((len(stack.plans), posteriors))
        return original(stack, tables, posteriors, alt)

    monkeypatch.setattr(engine, "_chain_pass", spy)
    return passes


class TestBundleQueries:
    """Presence, count marginals and k-best over a stack of 2-4 markers,
    against both enumeration oracles."""

    @given(stn.integers(0, 2**32 - 1), stn.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_stacked_queries_match_enumeration(self, seed, n_markers):
        rng = np.random.default_rng(seed)
        b = random_case(rng, max_alleles=3, max_unknowns=3, n_markers=n_markers)
        (stack,) = b._stacks
        markers = b.covered_markers()
        assert len(stack.plans) == len(markers) == n_markers
        tables = {m: oracle_table(b, m) for m in markers}
        totals = {m: logsumexp([w for _, w in tables[m]]) for m in markers}
        for m in markers:
            assert mx.brute_force_log_likelihood(b, m) == pytest.approx(
                totals[m], rel=1e-9, abs=1e-9
            )
        impossible = [m for m in markers if totals[m] == -np.inf]
        if impossible:
            # the first marker of zero likelihood is named
            first = repr(impossible[0])
            with pytest.raises(InfeasibleConditioningError, match=first):
                mx.bundle_posteriors(b)
            with pytest.raises(InfeasibleConditioningError, match=first):
                mx.bundle_top_genotypes(b, 3)
            return
        posts = mx.bundle_posteriors(b)
        tops = mx.bundle_top_genotypes(b, 10**6)
        assert list(posts) == list(tops) == list(markers)
        for m in markers:
            table, total = tables[m], totals[m]
            post = posts[m]
            assert post.log_likelihood == pytest.approx(total, rel=1e-9, abs=1e-9)
            weight = [math.exp(w - total) for _, w in table]
            for lab, p in post.presence.items():
                want = sum(
                    x for (counts, _), x in zip(table, weight)
                    if sum(c[lab] for c in counts.values())
                )
                assert p == pytest.approx(want, abs=1e-9)
            for role in b.hypothesis.unknown:
                for lab, probs in post.count_marginals[role].items():
                    want = [0.0, 0.0, 0.0]
                    for (counts, _), x in zip(table, weight):
                        want[counts[role][lab]] += x
                    assert probs == pytest.approx(want, abs=1e-9)
            # every possible combination once, by identity, best first
            ladder = b.frequencies.ladder(m).alleles
            want = {}
            for (counts, w), x in zip(table, weight):
                if w > -np.inf:
                    key = tuple(
                        tuple(a for a in ladder for _ in range(counts[role][a]))
                        for role in b.hypothesis.unknown
                    )
                    want[key] = x
            got = [(tuple(g[r] for r in b.hypothesis.unknown), p) for g, p in tops[m]]
            assert len(got) == len(want)
            for key, p in got:
                assert p == pytest.approx(want[key], rel=1e-9, abs=1e-12)
            assert all(p >= q for (_, p), (_, q) in zip(got, got[1:]))
            # one marker's own queries read the same numbers
            one = mx.marker_posterior(b, m, k=5)
            assert one.presence == pytest.approx(post.presence, abs=1e-12)
            assert [g for g, _ in one.top_genotypes] == [g for g, _ in tops[m][:5]]


class TestLogTotal:
    """The sweep's final normalizer against scipy's logsumexp."""

    @pytest.mark.parametrize("values", [
        [0.3, -1.2, 5.0], [-800.0, -801.0, -np.inf], [-np.inf, -np.inf],
        [np.nan, 1.0], [-np.inf, np.nan], [np.inf, 2.0], [-745.0],
    ])
    def test_matches_scipy(self, values):
        values = np.array(values)
        got, want = engine._log_total(values), float(logsumexp(values))
        assert got == pytest.approx(want, rel=1e-15, nan_ok=True)

    def test_random_messages(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.normal(0.0, 300.0, size=int(rng.integers(1, 40)))
            values[rng.random(len(values)) < 0.2] = -np.inf
            want = float(logsumexp(values))
            assert engine._log_total(values) == pytest.approx(want, rel=1e-14)


class TestLogsumexpBy:
    """The sweep's grouped reduction against scipy's logsumexp per group."""

    def test_matches_scipy_per_group(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            size = int(rng.integers(1, 30))
            n = int(rng.integers(0, 120))
            index = rng.integers(0, size, n)  # some groups stay empty
            values = rng.normal(0.0, 50.0, n)
            values[rng.random(n) < 0.2] = -np.inf
            tiny = rng.random(n) < 0.3  # factors near e^-700 and below
            values[tiny] = rng.uniform(-760.0, -690.0, tiny.sum())
            values[index == 0] = -np.inf  # one group (if any) all -inf
            want = [float(logsumexp(values[index == g])) for g in range(size)]
            got = engine._logsumexp_by(index, values, size)
            np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_non_finite_maximum_gives_that_maximum(self):
        # NaN and +inf propagate, so a log-space pass never turns them into
        # a finite log L; an empty or all -inf group has no mass
        index = np.array([0, 0, 1, 1, 2, 3, 5, 5])
        values = np.array([np.nan, 1.0, np.inf, 2.0, -3.0, -np.inf, np.inf, np.nan])
        got = engine._logsumexp_by(index, values, 6)
        assert np.array_equal(got, [np.nan, np.inf, -3.0, -np.inf, -np.inf, np.nan],
                              equal_nan=True)


def _central_difference(bundle, oracle, marker, step):
    """d log L by central differences of ``oracle`` in each trace's rho,
    eta and xi, and along phi[a] - phi[last] for every other role a
    (keeping the fractions' sum), one entry per direction."""
    params = bundle.parameters
    out = {}

    def at(**change):
        fields = dict(rho=dict(params.rho), eta=params.eta, xi=params.xi,
                      phi={t: dict(v) for t, v in params.phi.items()})
        fields.update(change)
        return oracle(bundle.with_parameters(mx.ModelParameters(**fields)), marker)

    for tid in params.rho:
        for family, value in (("rho", params.rho[tid]), ("eta", params.eta),
                              ("xi", params.xi)):
            h = step * value
            moved = [
                {**params.rho, tid: value + s} if family == "rho" else value + s
                for s in (h, -h)
            ]
            up, down = (at(**{family: m}) for m in moved)
            out[(family, tid)] = (up - down) / (2 * h)
        roles = list(params.phi[tid])
        for role in roles[:-1]:
            h = step * params.phi[tid][role]
            ends = []
            for s in (h, -h):
                phi = {t: dict(v) for t, v in params.phi.items()}
                phi[tid][role] += s
                phi[tid][roles[-1]] -= s
                ends.append(at(phi=phi))
            out[("phi", tid, role, roles[-1])] = (ends[0] - ends[1]) / (2 * h)
    return out


class TestScaledPassFallback:
    """The scaled linear-space pass and its log-space redo."""

    def _dying_path_case(self):
        # U1's two copies of 8 explain the 8 peak best by e^875, so the
        # scaled forward message keeps that path alone; it dies at 10, a
        # peak it gives zero dose, and the kept mass underflows to 0
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.3, "10": 0.3, "12": 0.4}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("12", "12")})
        params = mx.ModelParameters(
            rho={"T1": 6000.0}, eta=1.0, xi=0.05,
            phi={"T1": {"K1": 0.5, "U1": 0.5}},
        )
        return single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            {"8": 5700.0, "10": 2850.0, "12": 5700.0}, params,
        )

    def test_dying_path_redoes_the_marker_in_log_space(self, monkeypatch):
        b = self._dying_path_case()
        (stack,) = b._stacks
        tables = engine._step_tables(stack, engine._view_terms(stack, engine._sets_of(b)))
        ended = np.zeros(1, dtype=bool)
        loglik, *_ = engine._forward(stack, tables, False, ended)
        assert ended.all() and loglik[0] != -np.inf
        redone = []

        def spy(plan, tables, posteriors, alt, _original=engine._log_pass):
            redone.append(posteriors)
            return _original(plan, tables, posteriors, alt)

        monkeypatch.setattr(engine, "_log_pass", spy)
        ll = mx.marker_log_likelihood(b, "M")
        ll_grad, grad = mx.log_likelihood_and_gradient(b)
        assert redone == [False, True]  # the value pass, then the gradient's
        assert ll == ll_grad and -900.0 < ll < -880.0  # far below log(realmin)
        for oracle in (mx.brute_force_log_likelihood, oracle_log_likelihood):
            assert ll == pytest.approx(oracle(b, "M"), rel=1e-12)
            numeric = _central_difference(b, oracle, "M", 1e-6)
            for key, want in numeric.items():
                got = grad[key[:3]] - (grad[key[:2] + key[3:]] if len(key) > 3 else 0.0)
                assert got == pytest.approx(want, rel=1e-5, abs=1e-5), key

    def test_loss_that_grows_over_steps_redoes_the_marker(self):
        # two copies of 8 outweigh one of 8 and one of 10 by e^800, so the
        # scaled forward message drops the second path at the first step;
        # two later steps then cost the first path e^-450 each, which no
        # single normalizer shows (each stays above 1e-200), and the first
        # path's e^-900 would stand for the second's e^-800
        freqs = mx.FrequencyTable.from_dict(
            {"M": {"8": 0.25, "10": 0.25, "12": 0.25, "14": 0.25}}
        )
        params = mx.ModelParameters(
            rho={"T1": 30.0}, eta=20.0, xi=0.0, phi={"T1": {"U1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={}, unknown=("U1",)), {}, params
        )
        (stack,) = b._stacks
        (plan,) = stack.plans
        assert plan.internal_labels == ("8", "10", "12", "14")
        tables = np.zeros((4, plan.n_pairs))
        tables[0, [PAIRS.index((0, 0)), PAIRS.index((0, 1))]] = -800.0
        tables[1, PAIRS.index((2, 0))] = -450.0
        tables[2, PAIRS.index((0, 0))] = -450.0
        exact = engine._log_pass(plan, tables, True, None)
        assert exact.loglik == pytest.approx(-800.0, abs=1.0)
        for posteriors in (False, True):
            redo = np.zeros(1, dtype=bool)
            engine._scaled_pass(stack, tables, posteriors, None, redo)
            assert redo.all()
            got = engine._chain_pass(stack, tables, posteriors)
            assert got.loglik == exact.loglik
        np.testing.assert_array_equal(got.pair, exact.pair)

    def test_backward_and_posteriors_refuse_what_they_would_lose(self):
        (stack,) = self._dying_path_case()._stacks
        n_steps, n_edges = len(stack.plans[0].order), len(stack.edges.src)

        def backward_ends(*steps):
            weights = np.ones((n_steps, n_edges))
            for t, weight in steps:
                weights[t] = weight
            ended = np.zeros(1, dtype=bool)
            engine._backward(stack, [weights], ended)
            return ended.all()

        # one step a little above the floor is kept
        assert not backward_ends((2, 1e-190))
        # one step below it, or two steps that each keep 1e-150, are not
        for steps in ([(2, 1e-210)], [(1, 1e-150), (2, 1e-150)]):
            assert backward_ends(*steps)
        keys, one_step = stack.edges.key, float(n_edges)  # in units of _TINY

        def posteriors_end(mass):
            ended = np.zeros(1, dtype=bool)
            engine._pair_posteriors(
                np.full((1, n_edges), mass), keys, stack.n_pairs, one_step, ended
            )
            return ended.all()

        assert not posteriors_end(1e-190)
        assert posteriors_end(1e-210)

    @given(stn.integers(0, 2**32 - 1), stn.floats(2.0, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_extreme_factors_match_enumeration(self, seed, scale):
        # rho several times its usual range puts factors near e^-700 and
        # below, so some markers pass scaled and some are redone
        rng = np.random.default_rng(seed)
        b = random_case(rng, max_alleles=4, max_unknowns=3, n_markers=2)
        p = b.parameters
        b = b.with_parameters(mx.ModelParameters(
            rho={t: r * scale for t, r in p.rho.items()}, eta=p.eta, xi=p.xi,
            phi=p.phi,
        ))
        finite = True
        for marker in b.covered_markers():
            table = oracle_table(b, marker)
            total = logsumexp([w for _, w in table])
            got = mx.marker_log_likelihood(b, marker)
            assert got == pytest.approx(
                mx.brute_force_log_likelihood(b, marker), rel=1e-9, abs=1e-9
            )
            if total == -np.inf:
                assert got == -np.inf
                finite = False
                continue
            assert got == pytest.approx(total, rel=1e-9)
            post = mx.marker_posterior(b, marker, k=8)
            for lab, prob in post.presence.items():
                carried = [
                    w for counts, w in table if sum(c[lab] for c in counts.values())
                ]
                want = float(np.exp(logsumexp(carried) - total)) if carried else 0.0
                assert prob == pytest.approx(want, abs=1e-9)
            enum = sorted((float(np.exp(w - total)) for _, w in table), reverse=True)
            for (_, got_p), want_p in zip(post.top_genotypes, enum):
                assert got_p == pytest.approx(want_p, abs=1e-9)
        if not finite:
            return
        structure = _Structure(FitSpecification(bundle=b, share=frozenset()))
        theta = structure.pack(engine._sets_of(b))[0]

        def value(th):
            return mx.total_log_likelihood(b.with_parameters(structure.parameters(th)))

        ((ll, exact),) = _evaluate(structure, structure.unpack, [theta])
        assert ll == value(theta)
        # log L here reaches -1e3, so a step below about 1e-6 leaves the
        # central difference a rounding error near the 1e-5 tolerance
        numeric = numeric_gradient(value, theta, rel_step=1e-6, abs_floor=1e-6)
        np.testing.assert_allclose(exact, numeric, rtol=1e-5, atol=1e-5)


def _path_posteriors(plan, paths):
    """log L and the posterior of every step's joint (previous draw, draw)
    pair from enumerated paths: (each unknown's draw at each internal
    position, log weight) pairs."""
    weights = np.array([w for _, w in paths])
    total = float(logsumexp(weights)) if len(weights) else -np.inf
    pair = np.zeros((len(plan.order), plan.n_pairs))
    if not np.isfinite(total):
        return total, pair
    for draws, w in paths:
        prev = [0] * plan.n_unknown
        for t, now in enumerate(draws):
            key = 0
            for n, m in zip(prev, now):
                key = key * 6 + PAIRS.index((n, m))
            pair[t, key] += math.exp(w - total)
            prev = now
    return total, pair


def _oracle_paths(bundle, plan, presence=None):
    """conftest's enumeration as paths: each combination's draws at the
    marker's internal positions, restricted to those whose unknowns carry
    the alleles ``presence`` marks present and none it marks absent."""
    paths = []
    for counts, w in oracle_table(bundle, plan.marker):
        carried = {lab: sum(counts[r][lab] for r in plan.unknown_ids) > 0
                   for lab in plan.internal_labels}
        if presence and any(carried[lab] != value for lab, value in presence.items()):
            continue
        draws = [[counts[r][lab] for r in plan.unknown_ids]
                 for lab in plan.internal_labels]
        paths.append((draws, w))
    return paths


def _table_paths(plan, tables):
    """Every path of the marker's chain, valued from its step tables alone:
    each unknown's two copies at internal positions i <= j, and per step
    the transition into the joint state (S, n) and the table's entry at
    the joint (previous draw, draw) pair."""
    n_pos, n_unknown = len(plan.order), plan.n_unknown
    one = []  # one contributor's draw sequences
    for i in range(n_pos):
        for j in range(i, n_pos):
            draws = [0] * n_pos
            draws[i] += 1
            draws[j] += 1
            one.append(draws)
    paths = []
    for combo in itertools.product(one, repeat=n_unknown):
        draws = [[c[t] for c in combo] for t in range(n_pos)]
        w, prev, taken = 0.0, [0] * n_unknown, [0] * n_unknown
        for t, now in enumerate(draws):
            taken = [s + m for s, m in zip(taken, now)]
            state = key = 0
            for s, n, m in zip(taken, prev, now):
                state = state * 6 + STATES.index((s, m))
                key = key * 6 + PAIRS.index((n, m))
            w += plan.state_lp[t][state] + tables[t][key]
            prev = now
        paths.append((draws, w))
    return paths


def _assert_pass_matches(got_ll, got_pair, want_ll, want_pair):
    if want_ll == -np.inf:
        assert got_ll == -np.inf and not got_pair.any()
        return
    assert got_ll == pytest.approx(want_ll, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(got_pair, want_pair, rtol=0.0, atol=1e-12)


class TestWeightRule:
    """The scaled pass weighs each edge by transition[dst] * pair[key]:
    log L and every step's pair posterior against enumerations."""

    @given(stn.integers(0, 2**32 - 1), stn.integers(1, 3), stn.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scaled_pass_matches_both_oracles(self, seed, n_markers, masked):
        # ladders of different lengths front-pad the shorter markers; a
        # presence assignment adds rows with -inf pairs to the tables
        rng = np.random.default_rng(seed)
        b = random_case(rng, max_alleles=4, max_unknowns=3, n_markers=n_markers)
        assignments = {}
        for stack in b._stacks:
            tables = engine._step_tables(
                stack, engine._view_terms(stack, engine._sets_of(b))
            )
            for i, plan in enumerate(stack.plans):
                carried = plan.known_counts.sum(axis=0) > 0
                free = [lab for p, lab in enumerate(plan.internal_labels)
                        if not carried[p] and lab != "0"]
                if masked and plan.n_unknown and free:
                    lab = free[int(rng.integers(len(free)))]
                    assignments[plan.marker] = {lab: bool(rng.random() < 0.5)}
                    rows = engine._marker_rows(stack, i)
                    tables[rows] += engine._presence_masks(plan, assignments[plan.marker])
            got = engine._chain_pass(stack, tables, posteriors=True)
            for i, plan in enumerate(stack.plans):
                presence = assignments.get(plan.marker)
                want_ll, want_pair = _path_posteriors(
                    plan, _oracle_paths(b, plan, presence)
                )
                _assert_pass_matches(
                    got.loglik[i], got.pair[engine._marker_rows(stack, i)],
                    want_ll, want_pair,
                )
                if presence and want_ll == -np.inf:
                    with pytest.raises(InfeasibleConditioningError):
                        mx.brute_force_log_likelihood(b, plan.marker, presence=presence)
                    continue
                brute = mx.brute_force_log_likelihood(b, plan.marker, presence=presence)
                assert got.loglik[i] == pytest.approx(brute, rel=1e-12, abs=1e-12)

    @given(stn.integers(0, 2**32 - 1), stn.integers(1, 3),
           stn.sampled_from(["disjoint", "no edge", "nan", "inf"]),
           stn.floats(1.0, 900.0))
    @example(0, 2, "disjoint", 800.0)
    @example(1, 1, "no edge", 1.0)
    @example(2, 1, "nan", 1.0)
    @example(3, 2, "inf", 1.0)
    @settings(max_examples=60, deadline=None)
    def test_constructed_steps(self, seed, n_markers, kind, gap):
        rng = np.random.default_rng(seed)
        b = random_case(rng, max_alleles=4, max_unknowns=3, n_markers=n_markers)
        while not b.hypothesis.unknown:
            b = random_case(rng, max_alleles=4, max_unknowns=3, n_markers=n_markers)
        stack = b._stacks[0]
        tables = engine._step_tables(stack, engine._view_terms(stack, engine._sets_of(b)))
        i = int(rng.integers(len(stack.plans)))
        plan, rows = stack.plans[i], engine._marker_rows(stack, i)
        n_unknown, n_pairs = plan.n_unknown, plan.n_pairs
        own = tables[rows]
        if kind == "disjoint":
            # the pair of largest factor draws, for one unknown, what no
            # state of largest transition at its step holds
            candidates = []
            for t, lp in enumerate(plan.state_lp):
                top = np.flatnonzero(lp == lp.max())
                drawn = {tuple(STATES[d][1] for d in digits)
                         for digits in _digits(top, 6, n_unknown).tolist()}
                keys = [k for k, digits in enumerate(
                    _digits(np.arange(n_pairs), 6, n_unknown).tolist()
                ) if tuple(PAIRS[d][1] for d in digits) not in drawn]
                if keys:
                    candidates.append((t, keys))
            assume(candidates)
            t, keys = candidates[int(rng.integers(len(candidates)))]
            own[t] = -gap
            own[t, keys[int(rng.integers(len(keys)))]] = 0.0
        elif kind == "no edge":
            # the first step leaves state 0, so a pair whose previous draw
            # is not 0 leads only to states it cannot reach: finite largest
            # factor and transition, and no finite edge
            t = 0
            own[0] = -np.inf
            own[0, n_pairs - 1] = 0.0
        else:
            t, key = int(rng.integers(len(own))), int(rng.integers(n_pairs))
            own[t, key] = np.nan if kind == "nan" else np.inf
        tables[rows] = own
        redo = np.zeros(len(stack.plans), dtype=bool)
        engine._scaled_pass(stack, tables, True, None, redo)
        got = engine._chain_pass(stack, tables, posteriors=True)
        # a NaN or +inf entry that an edge of its step reads (the first step
        # reads only pairs whose previous draw is 0) leaves no number the
        # enumeration can check: the log-space redo's log L is not finite,
        # and its pair posteriors are zero
        unread = kind in ("nan", "inf") and key not in plan.edges_at(t).key
        if kind in ("nan", "inf"):
            assert redo[i]
            want = engine._log_pass(plan, own, True, None)
            assert np.float64(got.loglik[i]).tobytes() == np.float64(want.loglik).tobytes()
            assert np.array_equal(got.pair[rows], want.pair)
            assert unread or not (np.isfinite(want.loglik) or want.pair.any())
        for j, other in enumerate(stack.plans):
            mine = engine._marker_rows(stack, j)
            if j == i and kind in ("nan", "inf") and not unread:
                continue
            want_ll, want_pair = _path_posteriors(other, _table_paths(other, tables[mine]))
            if j == i and kind == "no edge":
                # ended by its zero normalizer, unless a table of -inf
                # alone ends it first
                assert want_ll == -np.inf
                assert redo[i] or not np.isfinite(own.max(axis=1)).all()
            _assert_pass_matches(got.loglik[j], got.pair[mine], want_ll, want_pair)


class TestSparseSteps:
    """Each recursion step's edge sum is one compiled sparse product over
    the stacked edges, in the order of np.bincount's sum, bit for bit."""

    @given(stn.integers(0, 2**32 - 1), stn.integers(1, 3), stn.integers(1, 4))
    @example(0, 4, 2)
    @settings(max_examples=40, deadline=None)
    def test_step_sums_match_bincount_bit_for_bit(self, seed, n_unknown, n_rows):
        rng = np.random.default_rng(seed)
        edges = engine._build_edges(n_unknown)[1]
        n_states = 6**n_unknown
        size = n_rows * n_states
        offsets = np.arange(n_rows)[:, None] * n_states
        src, dst = ((offsets + c).ravel() for c in (edges.src, edges.dst))
        # weights of every kind a step's pair factors take, and messages in
        # [0, 1], with zeros and subnormals among them
        w = rng.random(len(src))
        kind = rng.random(len(src))
        w[kind < 0.1] = 0.0
        subnormal = (kind >= 0.1) & (kind < 0.2)
        w[subnormal] = rng.integers(1, 2**52, subnormal.sum()) * 5e-324
        w[(kind >= 0.2) & (kind < 0.22)] = np.inf
        w[(kind >= 0.22) & (kind < 0.24)] = np.nan
        x = rng.random(size)
        x[rng.random(size) < 0.2] = 0.0
        x[rng.random(size) < 0.1] = 5e-324
        forward, backward = engine._sparse_kernels()
        indptr, indices = engine._stacked_csr(n_unknown, n_rows)
        # the kernels check no index: they get read-only contiguous int64
        for a in (indptr, indices):
            assert a.dtype == np.int64 and a.flags.c_contiguous and not a.flags.writeable

        def bits(a):
            return np.where(np.isnan(a), np.nan, a).tobytes()

        with np.errstate(invalid="ignore"):
            for kernel, want in (
                (forward, np.bincount(dst, x[src] * w, size)),
                (backward, np.bincount(src, x[dst] * w, size)),
            ):
                got = np.zeros(size)
                kernel(size, size, indptr, indices, w, x, got)
                # bit for bit, every NaN alike: where two NaNs meet in a
                # sum, the sign of the result follows the operands' order
                assert bits(got) == bits(want)

    def test_missing_kernels_name_the_scipy_version(self, monkeypatch):
        import scipy
        from scipy.sparse import _sparsetools

        b = random_case(np.random.default_rng(5), max_unknowns=1)
        engine._sparse_kernels.cache_clear()
        monkeypatch.delattr(_sparsetools, "csc_matvec")
        try:
            with pytest.raises(ImportError, match=f"scipy {scipy.__version__} is installed"):
                mx.total_log_likelihood(b)
        finally:
            monkeypatch.undo()
            engine._sparse_kernels.cache_clear()


class TestConditionedPresence:
    def _bundle(self):
        freqs = mx.FrequencyTable.from_dict(
            {"M": {"8": 0.3, "9": 0.3, "10": 0.4}}
        )
        k1 = mx.GenotypeProfile.from_pairs({"M": ("9", "10")})
        params = mx.ModelParameters(
            rho={"T1": 28.0}, eta=24.0, xi=0.08,
            phi={"T1": {"K1": 0.7, "U1": 0.3}},
        )
        return single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            {"8": 120.0, "9": 600.0, "10": 480.0}, params,
        )

    def test_empty_assignment_is_identity(self):
        b = self._bundle()
        plain = mx.marker_posterior(b, "M")
        cond = mx.conditioned_presence(b, "M", {})
        assert cond.log_likelihood == pytest.approx(plain.log_likelihood, rel=1e-12)
        for a in plain.presence:
            assert cond.presence[a] == pytest.approx(plain.presence[a], abs=1e-12)

    def test_conditioning_certainty_is_identity(self):
        b = self._bundle()
        plain = mx.marker_posterior(b, "M")
        cond = mx.conditioned_presence(b, "M", {"9": "present"})
        assert cond.log_likelihood == pytest.approx(plain.log_likelihood, rel=1e-12)

    def test_absent_conditioning_matches_filtered_enumeration(self):
        b = self._bundle()
        cond = mx.conditioned_presence(b, "M", {"8": "absent"})
        bf = mx.brute_force_log_likelihood(b, "M", presence={"8": False})
        assert cond.log_likelihood == pytest.approx(bf, rel=1e-12)
        assert cond.presence["8"] == pytest.approx(0.0, abs=1e-12)
        # enumeration posterior for the conditioned chain
        table = [
            (counts, w) for counts, w in oracle_table(b, "M")
            if sum(c["8"] for c in counts.values()) == 0
        ]
        total = logsumexp([w for _, w in table])
        for a in ("9", "10"):
            want = [
                w for counts, w in table
                if sum(c[a] for c in counts.values()) > 0
            ]
            want = float(np.exp(logsumexp(want) - total)) if want else 0.0
            assert cond.presence[a] == pytest.approx(want, abs=1e-9)

    def test_conditioning_never_raises_likelihood(self):
        b = self._bundle()
        plain = mx.marker_posterior(b, "M").log_likelihood
        for combo in ({"8": False}, {"8": True}, {"8": True, "9": True}):
            cond = mx.conditioned_presence(b, "M", combo)
            assert cond.log_likelihood <= plain + 1e-12

    def test_zero_probability_conditioning_raises(self):
        b = self._bundle()
        with pytest.raises(InfeasibleConditioningError):
            mx.conditioned_presence(b, "M", {"9": "absent"})

    @pytest.mark.parametrize("value", [float("nan"), 2, -1, 0.5, 1.0, None, "maybe"])
    def test_refuses_values_that_are_not_presences(self, value):
        b = self._bundle()
        refused = r"presence assignment for allele '8' .* got "
        with pytest.raises(ValueError, match=refused):
            mx.conditioned_presence(b, "M", {"8": value})
        with pytest.raises(ValueError, match=refused):
            mx.brute_force_log_likelihood(b, "M", presence={"8": value})

    @pytest.mark.parametrize(
        "value, present",
        [(True, True), (1, True), (np.int64(1), True), (np.bool_(True), True),
         ("present", True), (False, False), (0, False), (np.bool_(False), False),
         ("absent", False)],
    )
    def test_presences_as_bools_integers_and_words(self, value, present):
        b = self._bundle()
        want = mx.conditioned_presence(b, "M", {"8": present}).log_likelihood
        assert mx.conditioned_presence(b, "M", {"8": value}).log_likelihood == want
        assert mx.brute_force_log_likelihood(
            b, "M", presence={"8": value}
        ) == mx.brute_force_log_likelihood(b, "M", presence={"8": present})

    def test_random_conditioning_matches_filtered_enumeration(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 12:
            b = random_case(rng, allow_silent=False)
            if not b.hypothesis.unknown:
                continue
            if oracle_log_likelihood(b, "M") == -np.inf:
                continue
            ladder = b.frequencies.ladder("M")
            carried = set()
            for profile in b.hypothesis.known.values():
                carried.update(profile.genotypes["M"])
            free = [a for a in ladder.alleles if a not in carried]
            if not free:
                continue
            allele = free[int(rng.integers(len(free)))]
            for value in (False, True):
                try:
                    cond = mx.conditioned_presence(b, "M", {allele: value})
                except InfeasibleConditioningError:
                    with pytest.raises(InfeasibleConditioningError):
                        mx.brute_force_log_likelihood(
                            b, "M", presence={allele: value}
                        )
                    continue
                bf = mx.brute_force_log_likelihood(
                    b, "M", presence={allele: value}
                )
                assert cond.log_likelihood == pytest.approx(bf, rel=1e-9)
                want = 1.0 if value else 0.0
                assert cond.presence[allele] == pytest.approx(want, abs=1e-9)
            checked += 1


class TestTopK:
    def test_no_unknowns_single_empty_combination(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"K1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}), {"8": 430.0, "9": 380.0}, params
        )
        assert mx.top_k_marker_genotypes(b, "M", 3) == (({}, 1.0),)

    def test_evidence_free_marker_returns_prior(self):
        freqs = mx.FrequencyTable.from_dict(
            {"M": {"8": 0.5, "9": 0.5}, "M2": {"8": 0.5, "9": 0.5}}
        )
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9"), "M2": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0,
            phi={"T1": {"K1": 0.7, "U1": 0.3}},
        )
        # trace covers only M, so M2's posterior is the Hardy-Weinberg prior
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            {"8": 430.0, "9": 380.0}, params,
        )
        top = mx.top_k_marker_genotypes(b, "M2", 10)
        probs = {tuple(a["U1"]): p for a, p in top}
        assert probs[("8", "9")] == pytest.approx(0.5, abs=1e-12)
        assert probs[("8", "8")] == pytest.approx(0.25, abs=1e-12)
        assert probs[("9", "9")] == pytest.approx(0.25, abs=1e-12)

    def test_ties_come_in_genotype_order(self):
        # M2's homozygotes tie at 0.25: the one of lower ladder alleles comes
        # first, also where k cuts between them
        b = self._untyped_m2_bundle()
        top = mx.top_k_marker_genotypes(b, "M2", 10)
        assert [(g["U1"], p) for g, p in top] == [
            (("8", "9"), 0.5), (("8", "8"), 0.25), (("9", "9"), 0.25)
        ]
        assert mx.top_k_marker_genotypes(b, "M2", 2) == top[:2]
        assert mx.marker_posterior(b, "M2", k=2).top_genotypes == top[:2]

    def _untyped_m2_bundle(self):
        freqs = mx.FrequencyTable.from_dict(
            {"M": {"8": 0.5, "9": 0.5}, "M2": {"8": 0.5, "9": 0.5}}
        )
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "9"), "M2": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0,
            phi={"T1": {"K1": 0.7, "U1": 0.3}},
        )
        return single_trace_bundle(
            freqs, mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            {"8": 430.0, "9": 380.0}, params,
        )

    def test_matches_enumeration_ranking_and_sums_to_one(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 15:
            b = random_case(rng, max_unknowns=2)
            if not b.hypothesis.unknown:
                continue
            if oracle_log_likelihood(b, "M") == -np.inf:
                continue
            table = oracle_table(b, "M")
            total = logsumexp([w for _, w in table])
            top = mx.top_k_marker_genotypes(b, "M", 10**6)
            probs = [p for _, p in top]
            assert probs == sorted(probs, reverse=True)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            enum_sorted = sorted(
                (float(np.exp(w - total)) for _, w in table), reverse=True
            )
            for got_p, want_p in zip(probs[:8], enum_sorted[:8]):
                assert got_p == pytest.approx(want_p, abs=1e-9)
            checked += 1

    def test_k_beyond_space_returns_all(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"U1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={}, unknown=("U1",)), {"8": 430.0}, params
        )
        top = mx.top_k_marker_genotypes(b, "M", 50)
        # (9,9) has zero posterior (observed peak, zero dose) and is omitted
        assert len(top) == 2
        assert {tuple(a["U1"]) for a, _ in top} == {("8", "8"), ("8", "9")}

    def _two_allele_bundle(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"U1": 1.0}}
        )
        return single_trace_bundle(
            freqs, mx.Hypothesis(known={}, unknown=("U1",)), {"9": 430.0}, params
        )

    def test_k_that_cuts_a_tie_keeps_genotype_order(self):
        # six combinations tie at ranks 49-54 of M2; a cut inside them keeps
        # the first ones in genotype order, as the full list has them
        b = _equal_unknown_fractions(random_case(
            np.random.default_rng(10279), max_unknowns=3, max_alleles=4, n_markers=2
        ))
        full = mx.top_k_marker_genotypes(b, "M2", 10**6)
        assert len({p for _, p in full[48:54]}) == 1
        assert full[47][1] > full[48][1] > full[54][1]
        assert full[48][0] == {"U1": ("0", "0"), "U2": ("0", "7"), "U3": ("8", "9.3")}
        for k in (49, 50, 51):
            assert mx.top_k_marker_genotypes(b, "M2", k) == full[:k]

    @given(stn.integers(0, 2**32 - 1), stn.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    @example(seed=42, k=1)
    def test_every_k_is_a_prefix_of_the_full_list_under_ties(self, seed, k):
        # equal unknown fractions make many combinations tie exactly
        rng = np.random.default_rng(seed)
        b = random_case(rng, max_unknowns=3, max_alleles=4, n_markers=2)
        while len(b.hypothesis.unknown) < 2:
            b = random_case(rng, max_unknowns=3, max_alleles=4, n_markers=2)
        b = _equal_unknown_fractions(b)
        for marker in b.covered_markers():
            try:
                full = mx.top_k_marker_genotypes(b, marker, 10**6)
            except InfeasibleConditioningError:
                continue
            assert mx.top_k_marker_genotypes(b, marker, k) == full[:k]

    @given(stn.integers(0, 2**32 - 1), stn.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_ranked_enumeration(self, seed, k):
        b = random_case(np.random.default_rng(seed), max_unknowns=3, max_alleles=4)
        _assert_top_k_like_the_enumeration(b, k)

    def test_four_unknowns_match_the_ranked_enumeration(self):
        b = random_case(
            np.random.default_rng(0), max_unknowns=4, max_alleles=3, allow_silent=False
        )
        assert len(b.hypothesis.unknown) == 4
        _assert_top_k_like_the_enumeration(b, 2000)

    def test_lists_at_growing_k_are_prefixes(self):
        b = random_case(np.random.default_rng(6), max_unknowns=4, max_alleles=5)
        assert len(b.hypothesis.unknown) == 4
        lists = [mx.top_k_marker_genotypes(b, "M", k) for k in (1, 7, 100, 5000)]
        assert [len(top) for top in lists] == [1, 7, 100, 5000]
        for shorter, longer in zip(lists, lists[1:]):
            assert longer[:len(shorter)] == shorter

    @pytest.mark.parametrize("k", [-1, 2.5, 1.0, "2", None])
    def test_k_must_be_a_non_negative_integer(self, k):
        b = self._two_allele_bundle()
        with pytest.raises(ValueError, match="non-negative integer"):
            mx.marker_posterior(b, "M", k=k)
        assert len(mx.marker_posterior(b, "M", k=np.int64(2)).top_genotypes) == 2
        assert mx.marker_posterior(b, "M", k=0).top_genotypes == ()

    @pytest.mark.parametrize("k", [0, -1, 0.5, 2.5, "2", None])
    def test_top_k_needs_an_integer_of_at_least_one(self, k):
        b = self._two_allele_bundle()
        with pytest.raises(ValueError, match="integer of at least 1"):
            mx.top_k_marker_genotypes(b, "M", k)
        assert len(mx.top_k_marker_genotypes(b, "M", np.int64(1))) == 1


def _assert_top_k_like_the_enumeration(b, k):
    """top_k_marker_genotypes(b, "M", k) against the oracle's combinations
    ranked by (-log weight, genotype ladder indices) and cut at k."""
    table = oracle_table(b, "M")
    total = logsumexp([w for _, w in table])
    assume(total > -np.inf)
    ladder = b.frequencies.ladder("M").alleles
    ranked = []
    for counts, w in table:
        if w == -np.inf:
            continue
        genotype = {
            role: tuple(lab for lab in ladder for _ in range(counts[role][lab]))
            for role in b.hypothesis.unknown
        }
        picks = [ladder.index(lab) for g in genotype.values() for lab in g]
        ranked.append((-w, picks, genotype))
    ranked.sort(key=lambda r: r[:2])
    want = ranked[:k]
    # weights that agree to rounding are ties of the model, which each
    # side orders by its own last bits: a run of them may come in any
    # order, and a cut inside one may keep any of its members
    run, where = 0, {}
    for i, (neg, _, genotype) in enumerate(ranked):
        if i and neg - ranked[i - 1][0] > 1e-12 * (1 + abs(neg)):
            run += 1
        where[tuple(genotype.values())] = (run, math.exp(-neg - total))
    got = mx.top_k_marker_genotypes(b, "M", k)
    assert len({tuple(g.values()) for g, _ in got}) == len(got)
    assert [where[tuple(g.values())][0] for g, _ in got] == [
        where[tuple(g.values())][0] for _, _, g in want
    ]
    np.testing.assert_allclose(
        [p for _, p in got], [where[tuple(g.values())][1] for g, _ in got],
        rtol=0, atol=1e-9,
    )


def _equal_unknown_fractions(b):
    """The bundle with each trace's unknown fractions set to their mean."""
    p, unknown = b.parameters, set(b.hypothesis.unknown)
    phi = {}
    for tid, fractions in p.phi.items():
        mine = [x for r, x in fractions.items() if r in unknown]
        mean = sum(mine) / len(mine) if mine else 0.0
        phi[tid] = {r: mean if r in unknown else x for r, x in fractions.items()}
    return b.with_parameters(mx.ModelParameters(rho=p.rho, eta=p.eta, xi=p.xi, phi=phi))


class TestTopKJointProfiles:
    def test_product_of_modes_is_top(self):
        lists = {
            "M1": [({"U1": ("8", "9")}, 0.6), ({"U1": ("8", "8")}, 0.4)],
            "M2": [({"U1": ("9", "9")}, 0.7), ({"U1": ("8", "9")}, 0.3)],
        }
        top = mx.top_k_joint_profiles(lists, 1)
        assert top[0][1] == pytest.approx(0.42)
        assert top[0][0]["M1"]["U1"] == ("8", "9")

    def test_exhaustive_sum_and_order(self):
        lists = {
            "M1": [("a", 0.5), ("b", 0.3), ("c", 0.2)],
            "M2": [("x", 0.9), ("y", 0.1)],
        }
        top = mx.top_k_joint_profiles(lists, 100)
        probs = [p for _, p in top]
        assert len(top) == 6
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_modes(self):
        lists = {"M1": [("a", 1.0)], "M2": [("b", 1.0)]}
        top = mx.top_k_joint_profiles(lists, 5)
        assert top == [({"M1": "a", "M2": "b"}, 1.0)]

    def test_rejects_unsorted_list(self):
        with pytest.raises(ValueError):
            mx.top_k_joint_profiles({"M1": [("a", 0.1), ("b", 0.9)]}, 1)

    @pytest.mark.parametrize("k", [0, -1, 2.5, float("nan"), "2", None])
    def test_k_must_be_an_integer_of_at_least_one(self, k):
        lists = {
            "M1": [("a", 0.5), ("b", 0.3), ("c", 0.2)],
            "M2": [("x", 0.9), ("y", 0.1)],
        }
        with pytest.raises(ValueError, match="integer of at least 1"):
            mx.top_k_joint_profiles(lists, k)
        assert len(mx.top_k_joint_profiles(lists, np.int64(2))) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_rejects_non_probability(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mx.top_k_joint_profiles({"M": [({}, bad)]}, 1)
        ranked = {"M": [({}, 0.9), ({}, bad)], "M2": [({}, 1.0)]}
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mx.top_k_joint_profiles(ranked, 1)


class TestSilentAlleles:
    def test_silent_count_marginals_sum_to_one(self):
        freqs = mx.with_silent(
            mx.FrequencyTable.from_dict({"M": {"8": 0.6, "9": 0.4}}), 0.1
        )
        params = mx.ModelParameters(
            rho={"T1": 25.0}, eta=20.0, xi=0.0, phi={"T1": {"U1": 1.0}}
        )
        b = single_trace_bundle(
            freqs, mx.Hypothesis(known={}, unknown=("U1",)), {"8": 300.0}, params
        )
        post = mx.marker_posterior(b, "M")
        sil = post.count_marginals["U1"]["0"]
        assert sum(sil) == pytest.approx(1.0, abs=1e-9)
        assert sil[1] + sil[2] > 0.0  # silent partner plausible for a lone peak
        assert mx.marker_log_likelihood(b, "M") == pytest.approx(
            oracle_log_likelihood(b, "M"), rel=1e-12
        )

    def test_higher_peak_lowers_silent_posterior(self):
        freqs = mx.with_silent(
            mx.FrequencyTable.from_dict({"M": {"8": 0.6, "9": 0.4}}), 0.1
        )
        params = mx.ModelParameters(
            rho={"T1": 2.0}, eta=500.0, xi=0.0, phi={"T1": {"U1": 1.0}}
        )

        def silent_mass(height):
            b = single_trace_bundle(
                freqs, mx.Hypothesis(known={}, unknown=("U1",)),
                {"8": height}, params,
            )
            m = mx.marker_posterior(b, "M").count_marginals["U1"]["0"]
            return m[1] + m[2]

        assert silent_mass(2400.0) < silent_mass(900.0)


def _digits(values, base, width):
    """Base-``base`` digits of ``values``, most significant first, as columns."""
    values = np.asarray(values, dtype=np.int64)
    place = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (values[:, None] // place[None, :]) % base


# per-contributor chain states (partial allele-count sum S, count n at the step)
STATES = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
# per-contributor (previous count n, draw m) pairs that a step can reach
PAIRS = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


class TestChainStructure:
    @pytest.mark.parametrize("n_unknown", range(6))
    def test_edges_are_every_legal_step_once(self, n_unknown):
        assert list(engine._STATES) == STATES
        assert list(engine._PAIRS) == PAIRS
        U = n_unknown
        edges0, edges = engine._build_edges(U)
        assert len(edges.src) == 10**U
        assert np.all(np.diff(edges.src) >= 0)  # src-major order

        states = np.array(STATES)
        source = states[_digits(edges.src, 6, U)]  # (E, U, 2): (S, n) per contributor
        target = states[_digits(edges.dst, 6, U)]
        assert np.all((edges.key >= 0) & (edges.key < 6**U))
        pair = np.array(PAIRS)[_digits(edges.key, 6, U)]  # (E, U, 2): (n, m)
        prev_draw, draw = pair[..., 0], pair[..., 1]
        assert np.array_equal(prev_draw, source[..., 1])
        assert np.array_equal(target[..., 1], draw)
        assert np.array_equal(target[..., 0], source[..., 0] + draw)
        assert np.all(draw <= 2 - source[..., 0])

        assert len(np.unique(edges.key)) == 6**U  # every pair is reachable
        pairs = set(zip(edges.src.tolist(), map(tuple, draw.tolist())))
        assert len(pairs) == len(edges.src)
        n_legal = sum(
            math.prod(3 - STATES[s][0] for s in sources)
            for sources in itertools.product(range(6), repeat=U)
        )
        assert len(pairs) == n_legal

        first = edges.src == 0
        for name in ("src", "dst", "key"):
            assert np.array_equal(getattr(edges0, name), getattr(edges, name)[first])

    @pytest.mark.parametrize("n_unknown", range(5))
    def test_prior_alone_has_probability_one(self, n_unknown):
        # with every factor 1 the chain sums the Hardy-Weinberg prior
        rng = np.random.default_rng(40 + n_unknown)
        for _ in range(3):
            n_alleles = int(rng.integers(2, 6))
            freqs = mx.FrequencyTable.from_dict({"M": dict(zip(
                ["7", "8", "9", "10", "11"], rng.dirichlet(np.ones(n_alleles))
            ))})
            if rng.random() < 0.5:
                freqs = mx.with_silent(freqs, float(rng.uniform(0.02, 0.2)))
            unknown = tuple(f"U{i + 1}" for i in range(n_unknown))
            known = {} if unknown else {
                "K1": mx.GenotypeProfile.from_pairs({"M": ("7", "8")})
            }
            roles = (*known, *unknown)
            params = mx.ModelParameters(
                rho={"T1": 25.0}, eta=20.0, xi=0.1,
                phi={"T1": {r: 1.0 / len(roles) for r in roles}},
            )
            b = single_trace_bundle(
                freqs, mx.Hypothesis(known=known, unknown=unknown), {"7": 300.0},
                params,
            )
            (stack,) = b._stacks
            (plan,) = stack.plans
            zeros = np.zeros((len(plan.order), plan.n_pairs))
            # the scaled pass: log L is 0 and every backward message is flat
            ended = np.zeros(1, dtype=bool)
            loglik, _, _, weights = engine._forward(stack, zeros, True, ended)
            assert abs(loglik) < 1e-12
            beta, _ = engine._backward(stack, weights, ended)
            assert np.abs(beta - 1.0).max() < 1e-12
            assert not ended.any()
            # the log-space recursion it falls back on: the same in log space
            sweep = engine._log_sweep(plan, zeros)
            assert abs(sweep.loglik) < 1e-12
            assert np.abs(np.concatenate(sweep.bwd)).max() < 1e-12

    @pytest.mark.parametrize("n_unknown", range(4))
    def test_each_peak_factor_is_one_entry_per_reachable_pair(
        self, n_unknown, monkeypatch
    ):
        # 7, 8 and 9 are stutter-coupled to their donors, 10 is not, and the
        # silent allele carries no factor: 4 emitted positions per trace
        freqs = mx.with_silent(mx.FrequencyTable.from_dict(
            {"M": {"7": 0.2, "8": 0.3, "9": 0.4, "10": 0.1}}
        ), 0.05)
        unknown = tuple(f"U{i + 1}" for i in range(n_unknown))
        known = {"K1": mx.GenotypeProfile.from_pairs({"M": ("8", "9")})}
        roles = (*known, *unknown)
        traces = tuple(
            mx.Trace(trace_id=tid, threshold=50.0, heights={"M": {"8": h, "9": 400.0}})
            for tid, h in (("T1", 300.0), ("T2", 0.0))
        )
        b = mx.EvidenceBundle(
            traces=traces, frequencies=freqs,
            hypothesis=mx.Hypothesis(known=known, unknown=unknown),
            parameters=mx.ModelParameters(
                rho={t.trace_id: 25.0 for t in traces}, eta=20.0, xi=0.1,
                phi={t.trace_id: {r: 1.0 / len(roles) for r in roles} for t in traces},
            ),
        )
        entries = []
        for name in ("gamma_log_pdf", "gamma_log_cdf"):
            def counting(x, shape, scale, _original=getattr(engine, name)):
                entries.append(np.size(shape))
                return _original(x, shape, scale)
            monkeypatch.setattr(engine, name, counting)
        assert np.isfinite(mx.total_log_likelihood(b))
        evaluated = sum(entries)
        (stack,) = b._stacks
        assert np.diff(stack.layout.entries).tolist() == [4 * 6**n_unknown] * 2
        assert len(_terms_at(stack, b).log_factors) == 2 * 4 * 6**n_unknown
        # gamma is evaluated once per observed entry and once per distinct
        # dropout dose: per trace three coupled peaks of 6^U doses each, and
        # the uncoupled 10, whose dose depends on the draw alone (3^U)
        assert evaluated == len(traces) * (3 * 6**n_unknown + 3**n_unknown)


def _terms_at(stack, bundle, sides=False):
    """engine._view_terms at the bundle's parameters, without the set axis
    (log_cdf keeps its leading axis of shapes and sides)."""
    term = engine._view_terms(stack, engine._sets_of(bundle), sides)
    return term._replace(
        log_cdf=term.log_cdf[:, 0],
        **{name: getattr(term, name)[0]
           for name in ("base", "ends", "doses", "log_factors")},
    )


def _overridden_case(n_unknown, seed, missing=False, n_traces=2):
    """n_traces traces (two by default) on two markers with silent
    alleles; T2 lacks one role when there are two, T1 has its own rho on M
    and M2 its own xi.  With ``missing``, the last trace does not cover
    M2."""
    rng = np.random.default_rng(seed)
    tables = {}
    for m in ("M", "M2"):
        labels = ["7", "8", "9", "9.3", "10"][int(rng.integers(0, 2)):]
        labels = labels[:int(rng.integers(2, len(labels) + 1))]
        tables[m] = dict(zip(labels, rng.dirichlet(np.ones(len(labels)) * 2.0)))
    freqs = mx.with_silent(mx.FrequencyTable.from_dict(tables), 0.1)
    visible = {m: list(tables[m]) for m in tables}
    n_known = int(rng.integers(0 if n_unknown else 1, 3))
    known = {
        f"K{i + 1}": mx.GenotypeProfile.from_pairs(
            {m: tuple(rng.choice(visible[m], size=2)) for m in tables}
        )
        for i in range(n_known)
    }
    unknown = tuple(f"U{i + 1}" for i in range(n_unknown))
    roles = (*known, *unknown)
    trace_roles = None
    if len(roles) > 1:
        dropped = roles[int(rng.integers(len(roles)))]
        trace_roles = {"T2": tuple(r for r in roles if r != dropped)}
    traces, rho, phi = [], {}, {}
    for tid in (f"T{i + 1}" for i in range(n_traces)):
        heights = {
            m: {
                a: float(rng.uniform(50, 1200)) for a in visible[m]
                if rng.random() < 0.5
            }
            for m in tables
        }
        traces.append(mx.Trace(trace_id=tid, threshold=50.0, heights=heights))
        rho[tid] = float(rng.uniform(10, 60))
        mine = (trace_roles or {}).get(tid, roles)
        k_here = sum(r in known for r in mine)
        w = rng.dirichlet(np.ones(len(mine)))
        w = np.concatenate([w[:k_here], np.sort(w[k_here:])[::-1]])
        phi[tid] = dict(zip(mine, w.tolist()))
    if missing:
        last = traces[-1]
        traces[-1] = mx.Trace(last.trace_id, 50.0, {"M": last.heights["M"]})
    params = mx.ModelParameters(
        rho=rho, eta=float(rng.uniform(15, 45)), xi=float(rng.uniform(0, 0.25)),
        phi=phi, marker_rho={"M": {"T1": float(rng.uniform(10, 60))}},
        marker_xi={"M2": float(rng.uniform(0, 0.25))},
    )
    return mx.EvidenceBundle(
        traces=tuple(traces), frequencies=freqs,
        hypothesis=mx.Hypothesis(known=known, unknown=unknown, trace_roles=trace_roles),
        parameters=params,
    )


class TestDistinctDoses:
    @given(stn.integers(0, 3), stn.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_entry_as_at_its_own_dose(self, n_unknown, seed):
        b = _overridden_case(n_unknown, seed)
        params, joint = b.parameters, engine._joint_tables(n_unknown)
        trace_ids = [t.trace_id for t in b.traces]
        for stack in b._stacks:
            plans = {plan.marker: plan for plan in stack.plans}
            names = list(plans)
            # each marker's first row of the stack's doses B
            length = [len(plan.order) for plan in stack.plans]
            offset = dict(zip(plans, np.cumsum([0] + length)))
            n_pairs, n_steps = stack.n_pairs, stack.transition.shape[1]
            layout, term = stack.layout, _terms_at(stack, b, sides=True)
            sets, k = engine._sets_of(b), layout.n_observed
            # every entry's dose point is among its trace's: its observed
            # points among the first k, trace by trace, then its distinct
            # dropout doses
            assert layout.trace_ids == tuple(t for t in trace_ids
                                             if t in layout.trace_ids)
            n_traces = len(layout.trace_ids)
            for j, tid in enumerate(layout.trace_ids):
                lo, hi = layout.entries[j:j + 2]
                points = layout.point[lo:hi]
                (o0, o1), (d0, d1) = (layout.points[i:i + 2] for i in (j, n_traces + j))
                observed = points < k
                n_obs = int(observed.sum())
                assert observed[:n_obs].all() and n_obs == o1 - o0
                np.testing.assert_array_equal(points[:n_obs], np.arange(o0, o1))
                assert ((d0 <= points[n_obs:]) & (points[n_obs:] < d1)).all()
                # each run's marker, from its emit step's row
                runs = [names[r // n_steps] for r in layout.cell[lo:hi:n_pairs] // n_pairs]
                position = layout.position[lo // n_pairs:hi // n_pairs]
                # each entry's own dose, run by run, as the chain defines it,
                # from its marker's rows of the trace's doses B, at its
                # marker's xi
                own, rho = [], []
                for marker, p in zip(runs, position):
                    xi = params.xi_for_marker(tid, marker)
                    base = term.base[j][offset[marker] + p:]
                    own.append(
                        (1.0 - xi) * base[0][joint.pair_prev]
                        + xi * base[1][joint.pair_draw]
                        if plans[marker].coupled[p]
                        else (1.0 - xi) * base[0][joint.pair_draw]
                    )
                    rho.append(np.full(n_pairs, params.rho_for(tid, marker)))
                own = np.concatenate(own)
                # the dose points: the observed entries, and the distinct
                # dropout doses, taken back to the dropout entries
                np.testing.assert_array_equal(term.doses[points], own)
                shapes = np.concatenate(rho) * own
                eta = params.eta_for(tid)
                (trace,) = [t for t in b.traces if t.trace_id == tid]
                heights = np.repeat(
                    [
                        trace.height(marker, plans[marker].internal_labels[p])
                        for marker, p in zip(runs, position[:n_obs // n_pairs])
                    ],
                    n_pairs,
                )
                np.testing.assert_array_equal(
                    term.log_factors[lo:lo + n_obs],
                    gamma_log_pdf(heights, shapes[:n_obs], eta),
                )
                log_cdf = gamma_log_cdf(trace.threshold, shapes[n_obs:], eta)
                np.testing.assert_array_equal(term.log_factors[lo + n_obs:hi], log_cdf)
                spread = points[n_obs:] - k
                np.testing.assert_array_equal(term.log_cdf[0][spread], log_cdf)
                # derivatives at the distinct doses, from the sides the
                # gradient pass evaluated, taken back, are each entry's own
                rho_at, eta_at = (
                    np.broadcast_to(v, (len(v), len(term.doses)))[0]
                    for v in engine._point_values(stack, sets)[:2]
                )
                at_points = gamma_log_cdf_grad(
                    layout.cut, (rho_at * term.doses)[k:], eta_at[k:],
                    term.log_cdf[0], term.log_cdf[1:],
                )
                own_grad = gamma_log_cdf_grad(trace.threshold, shapes[n_obs:], eta, log_cdf)
                for got, want in zip(at_points, own_grad):
                    np.testing.assert_array_equal(got[spread], want)
        for marker in b.covered_markers():
            dp = mx.marker_log_likelihood(b, marker)
            enum = oracle_log_likelihood(b, marker)
            bf = mx.brute_force_log_likelihood(b, marker)
            if enum == -np.inf:
                assert dp == -np.inf and bf == -np.inf
                continue
            assert dp == pytest.approx(enum, rel=1e-9, abs=1e-9)
            assert bf == pytest.approx(enum, rel=1e-9, abs=1e-9)

    def test_excerpt_defence_evaluates_486_of_1296_dropout_doses(
        self, pubcase_defence_bundle, monkeypatch
    ):
        b = pubcase_defence_bundle
        sizes = []

        def counting(x, shape, scale, _original=engine.gamma_log_cdf):
            sizes.append(np.size(shape))
            return _original(x, shape, scale)

        monkeypatch.setattr(engine, "gamma_log_cdf", counting)
        mx.total_log_likelihood(b)
        layouts = [stack.layout for stack in b._stacks]
        assert sum(len(v.cell) - v.n_observed for v in layouts) == 1296
        assert sum(sizes) == 486


# ---------------------------------------------------------------------------
# The per-position plan build, transcribed as a reference for the array build


def _reference_state_log_pmf(rate):
    out = np.empty(6)
    lr = math.log(rate) if rate > 0 else -math.inf
    lq = math.log1p(-rate) if rate < 1 else -math.inf
    for i, (s, m) in enumerate(STATES):
        n = 2 - (s - m)
        val = math.log(math.comb(n, m))
        if m:
            val += m * lr
        if n - m:
            val += (n - m) * lq
        out[i] = val
    return out


def _reference_fold(column, n_unknown, base):
    out = np.zeros(1, dtype=column.dtype)
    for _ in range(n_unknown):
        out = np.add.outer(out * base, column).ravel()
    return out


def _reference_layout(ladder, order, coupled, silent, known_counts, pair_prev,
                      pair_draw, trace, hypothesis, marker):
    """One trace's layout on a marker, position by position."""
    n_pos, n_pairs = len(order), len(pair_prev)
    first_of_draw = np.flatnonzero(pair_prev == 0)
    n_combos = len(first_of_draw)
    columns = {}
    column = [columns.setdefault(tuple(c), len(columns)) for c in known_counts.T.tolist()]
    ends = np.empty((2, n_pos, n_pairs), dtype=np.int64)
    pos = np.arange(n_pos)[:, None]
    linked = coupled[:, None]
    ends[0] = pos * n_combos + np.where(linked, pair_prev, pair_draw)
    ends[1] = np.where(linked, (pos + 1) * n_combos + pair_draw, n_pos * n_combos)
    local = np.where(linked, np.arange(n_pairs), pair_draw)
    labels = [ladder.alleles[i] for i in order]
    row = trace.heights[marker]
    heights = np.array([row.get(lab, 0.0) for lab in labels])
    observed = heights >= trace.threshold
    emitted = sorted((p for p in range(n_pos) if not silent[p]),
                     key=lambda p: not observed[p])
    n_peaks = int(observed[emitted].sum()) if emitted else 0
    points = [ends[:, emitted[:n_peaks]].reshape(2, -1)]
    slot, offsets, n_distinct = {}, [], 0
    for p in emitted[n_peaks:]:
        kind = (column[p], column[p + 1]) if coupled[p] else (column[p],)
        if kind not in slot:
            slot[kind] = n_distinct
            points.append(ends[:, p, np.arange(n_pairs) if coupled[p] else first_of_draw])
            n_distinct += points[-1].shape[1]
        offsets.append(slot[kind])
    spread = (np.array(offsets, dtype=np.int64)[:, None] + local[emitted[n_peaks:]])
    gather = np.concatenate(points, axis=1)
    emit = np.array([p + int(coupled[p]) for p in emitted], dtype=np.int64)
    cell = (emit[:, None] * n_pairs + np.arange(n_pairs)).ravel()
    roles = set(hypothesis.roles_for(trace.trace_id))
    n_observed = n_peaks * n_pairs
    return dict(
        trace_id=trace.trace_id, threshold=trace.threshold,
        known_contributes=[r in roles for r in hypothesis.known],
        unknown_contributes=[r in roles for r in hypothesis.unknown],
        markers=(marker,),
        counts=[[n_observed], [gather.shape[1] - n_observed], [len(cell) - n_observed]],
        n_observed=n_observed,
        peak_heights=np.repeat(heights[emitted[:n_peaks]], n_pairs),
        gather=gather, cell=cell, spread=spread.ravel(),
        position=np.array(emitted, dtype=np.int64),
    )


def _reference_plan(marker, freqs, hypothesis, traces):
    ladder = freqs.ladder(marker)
    order, coupled = ladder.order, ladder.coupled
    labels = [ladder.alleles[i] for i in order]
    silent = np.array([lab == "0" for lab in labels])
    q = np.array([ladder.frequencies[i] for i in order])
    tails = np.cumsum(q[::-1])[::-1]
    U = len(hypothesis.unknown)
    state_lp = np.array([
        _reference_fold(_reference_state_log_pmf(min(q[p] / tails[p], 1.0)), U, 1)
        for p in range(len(order))
    ])
    edges0, _ = engine._build_edges(U)
    unreached = np.ones(6**U, dtype=bool)
    unreached[edges0.dst] = False
    state_lp[0, unreached] = -np.inf
    known_counts = np.zeros((len(hypothesis.known), len(order)), dtype=np.int64)
    for k, kid in enumerate(hypothesis.known):
        counts = hypothesis.known[kid].counts(marker, ladder)
        known_counts[k] = [counts[i] for i in order]
    combo_counts = np.arange(3**U)[:, None] // 3 ** np.arange(U)[::-1] % 3
    pair_prev, pair_draw = (_reference_fold(np.array(c), U, 3) for c in zip(*PAIRS))
    layouts = [
        _reference_layout(ladder, order, coupled, silent, known_counts, pair_prev,
                          pair_draw, trace, hypothesis, marker)
        for trace in traces if marker in trace.heights
    ]
    return dict(
        marker=marker, labels=ladder.alleles, order=order, internal_labels=tuple(labels),
        silent=silent, coupled=coupled, state_lp=state_lp, known_counts=known_counts,
        combo_counts=combo_counts, pair_prev=pair_prev, pair_draw=pair_draw,
        n_unknown=U, n_states=6**U, n_combos=3**U, n_pairs=6**U, traces=layouts,
    )


def _reference_stack(group, trace_ids):
    """Several plans' layouts joined: each trace's observed entries of every
    marker first, then the traces one after the other."""
    n_combos, n_pairs = group[0]["n_combos"], group[0]["n_pairs"]
    length = np.array([len(plan["order"]) for plan in group])
    n_steps = int(length.max())
    first = n_steps - length
    zero = int(length.sum()) * n_combos
    dose_offset = (np.cumsum(length) - length) * n_combos
    cell_offset = (np.arange(len(group)) * n_steps + first) * n_pairs
    layouts = []
    for trace_id in trace_ids:
        mine = [(i, e) for i, plan in enumerate(group) for e in plan["traces"]
                if e["trace_id"] == trace_id]
        if not mine:
            continue
        gather = [np.where(e["gather"] == length[i] * n_combos, zero,
                           e["gather"] + dose_offset[i]) for i, e in mine]
        cell = [e["cell"] + cell_offset[i] for i, e in mine]
        counts = np.concatenate([e["counts"] for _, e in mine], axis=1)
        distinct_start = np.cumsum(counts[1]) - counts[1]
        obs = [e["n_observed"] for _, e in mine]
        layouts.append(dict(
            trace_id=trace_id, threshold=mine[0][1]["threshold"],
            known_contributes=mine[0][1]["known_contributes"],
            unknown_contributes=mine[0][1]["unknown_contributes"],
            markers=[i for i, _ in mine],
            counts=counts, n_observed=int(counts[0].sum()),
            peak_heights=np.concatenate([e["peak_heights"] for _, e in mine]),
            gather=np.concatenate([g[:, :n] for g, n in zip(gather, obs)]
                                  + [g[:, n:] for g, n in zip(gather, obs)], axis=1),
            cell=np.concatenate([c[:n] for c, n in zip(cell, obs)]
                                + [c[n:] for c, n in zip(cell, obs)]),
            spread=np.concatenate([e["spread"] + s for (_, e), s in zip(mine, distinct_start)]),
            position=np.concatenate(
                [e["position"][:n // n_pairs] for (_, e), n in zip(mine, obs)]
                + [e["position"][n // n_pairs:] for (_, e), n in zip(mine, obs)]),
        ))
    lp = np.full((len(group), n_steps, 6 ** group[0]["n_unknown"]), -np.inf)
    lp[:, :, 0] = 0.0
    for i, plan in enumerate(group):
        lp[i, first[i]:] = plan["state_lp"]
    return dict(
        markers=[plan["marker"] for plan in group], first=first, lp=lp,
        known_counts=np.concatenate([plan["known_counts"] for plan in group], axis=1),
        layout=_reference_join(layouts, trace_ids, zero + 1, group[0]),
    )


def _reference_join(layouts, trace_ids, width, plan):
    """The traces' layouts on a stack as one layout, trace by trace: the
    observed points of every trace first, then the distinct dropout doses;
    each trace's B after the previous one's ``width`` cells."""
    n_observed = sum(e["n_observed"] for e in layouts)
    entries, cell, position, heights, point = [0], [], [], [], []
    obs_ends, dist_ends, cut = [], [], []
    obs_start, dist_start = 0, n_observed
    for j, e in enumerate(layouts):
        n = e["n_observed"]
        n_dist = e["gather"].shape[1] - n
        entries.append(entries[-1] + len(e["cell"]))
        cell += e["cell"].tolist()
        position += e["position"].tolist()
        heights += e["peak_heights"].tolist()
        point += list(range(obs_start, obs_start + n))
        point += (dist_start + e["spread"]).tolist()
        obs_ends.append([[a + j * width, b + j * width]
                         for a, b in e["gather"][:, :n].T.tolist()])
        dist_ends.append([[a + j * width, b + j * width]
                          for a, b in e["gather"][:, n:].T.tolist()])
        cut += [e["threshold"]] * n_dist
        obs_start, dist_start = obs_start + n, dist_start + n_dist
    ends = [pair for own in obs_ends + dist_ends for pair in own]
    sizes = [len(own) for own in obs_ends + dist_ends]
    known = len(plan["known_counts"])
    return dict(
        trace_ids=tuple(e["trace_id"] for e in layouts),
        column=tuple(trace_ids.index(e["trace_id"]) for e in layouts),
        threshold=np.array([e["threshold"] for e in layouts], dtype=float),
        known_contributes=np.array(
            [e["known_contributes"] for e in layouts], dtype=bool
        ).reshape(len(layouts), known),
        unknown_contributes=np.array(
            [e["unknown_contributes"] for e in layouts], dtype=bool
        ).reshape(len(layouts), plan["n_unknown"]),
        entries=tuple(entries),
        cell=np.array(cell, dtype=np.int64),
        position=np.array(position, dtype=np.int64),
        n_observed=n_observed,
        peak_heights=np.array(heights, dtype=float),
        cut=np.array(cut if len(layouts) > 1 else [e["threshold"] for e in layouts],
                     dtype=float),
        point=np.array(point, dtype=np.int64),
        gather=np.array(ends, dtype=np.int64).reshape(-1, 2).T,
        points=tuple(itertools.accumulate(sizes, initial=0)),
        runs=np.array(sizes, dtype=np.int64),
        run_column=np.array(
            [trace_ids.index(e["trace_id"]) for e in layouts] * 2, dtype=np.int64
        ),
    )


def _assert_plan_equal(plan, expected):
    """A plan against the reference build.  Its layouts sit on its stack,
    and pair_prev, which depends on U alone, in the shared tables."""
    for name, value in expected.items():
        if name == "traces":
            continue
        have = (engine._joint_tables(plan.n_unknown).pair_prev if name == "pair_prev"
                else getattr(plan, name))
        if isinstance(value, (str, int, tuple)):
            assert have == value, name
        else:
            np.testing.assert_array_equal(have, value, err_msg=name)


def _assert_layout_equal(layout, expected):
    assert {f.name for f in fields(layout)} == set(expected)
    for name, value in expected.items():
        have = getattr(layout, name)
        if isinstance(value, (str, float, int, tuple)):
            assert have == value, name
        else:
            np.testing.assert_array_equal(have, value, err_msg=name)
            assert np.asarray(have).dtype == np.asarray(value).dtype, name


@stn.composite
def plan_cases(draw):
    """A bundle's inputs: 1-3 markers whose ladders have 1-13 alleles (a
    silent '0', microvariants, non-numeric labels), 0-4 unknowns, 0-2
    known contributors, and 1-2 traces that each cover some markers."""
    markers = [f"M{i}" for i in range(draw(stn.integers(1, 3)))]
    data = {}
    for m in markers:
        labels = draw(ladder_labels())
        weights = draw(stn.lists(stn.floats(0.1, 1.0), min_size=len(labels),
                                 max_size=len(labels)))
        data[m] = dict(zip(labels, np.array(weights) / sum(weights)))
    freqs = mx.FrequencyTable.from_dict(data)
    n_unknown = draw(stn.integers(0, 4))
    known = {
        f"K{k + 1}": mx.GenotypeProfile.from_pairs({
            m: draw(stn.lists(stn.sampled_from(freqs.ladder(m).alleles),
                              min_size=2, max_size=2))
            for m in markers
        })
        for k in range(draw(stn.integers(0 if n_unknown else 1, 2)))
    }
    hypothesis = mx.Hypothesis(known=known, unknown=tuple(f"U{i + 1}" for i in range(n_unknown)))
    traces = []
    for t in range(draw(stn.integers(1, 2))):
        covered = draw(stn.lists(stn.sampled_from(markers), unique=True,
                                 min_size=0 if t else 1))
        heights = {
            m: {a: draw(stn.sampled_from([0.0, 50.0, 120.0, 900.0]))
                for a in draw(stn.lists(stn.sampled_from(
                    [a for a in freqs.ladder(m).alleles if a != "0"] or ["X"]),
                    unique=True))
                if a in freqs.ladder(m).alleles}
            for m in covered
        }
        traces.append(mx.Trace(trace_id=f"T{t + 1}", threshold=50.0, heights=heights))
    return freqs, hypothesis, traces


class TestPlanBuildAgainstPerPositionReference:
    @settings(max_examples=120, deadline=None)
    @given(plan_cases())
    def test_plans_and_stacks_match_the_per_position_build(self, case):
        freqs, hypothesis, traces = case
        bundle = mx.EvidenceBundle(
            traces=traces, frequencies=freqs, hypothesis=hypothesis,
            parameters=_uniform_parameters(hypothesis, traces),
        )
        want = {m: _reference_plan(m, freqs, hypothesis, traces)
                for m in freqs.marker_names()}
        covered = [want[m] for m in freqs.marker_names() if want[m]["traces"]]
        per_stack = max(1, 2**14 // 10 ** len(hypothesis.unknown))
        groups = [covered[i:i + per_stack] for i in range(0, len(covered), per_stack)]
        assert len(bundle._stacks) == len(groups)
        trace_ids = [t.trace_id for t in traces]
        built = list(zip(bundle._stacks, groups))
        # a marker no trace covers is built when asked, as a stack of its
        # own with no layouts
        built += [
            (engine._stack_of(bundle, m)[0], [want[m]])
            for m in freqs.marker_names() if not want[m]["traces"]
        ]
        for stack, group in built:
            for plan, expected in zip(stack.plans, group, strict=True):
                _assert_plan_equal(plan, expected)
            expected = _reference_stack(group, trace_ids)
            assert [p.marker for p in stack.plans] == expected["markers"]
            for name in ("first", "known_counts"):
                np.testing.assert_array_equal(getattr(stack, name), expected[name])
            # each step's transitions scaled by their largest
            shift = expected["lp"].max(axis=2)
            np.testing.assert_array_equal(stack.transition_shift, shift)
            np.testing.assert_array_equal(
                stack.transition, np.exp(expected["lp"] - shift[..., None])
            )
            _assert_layout_equal(stack.layout, expected["layout"])


class TestUnknownLimit:
    def test_bundle_past_the_limit_refused_before_any_build(self, monkeypatch):
        b = random_case(np.random.default_rng(3))

        def refused(*args):
            raise AssertionError("a plan was built past the limit")

        monkeypatch.setattr(engine, "_build_stacks", refused)
        monkeypatch.setattr(engine, "_joint_tables", refused)
        hypothesis = mx.Hypothesis(known={}, unknown=tuple(f"U{i}" for i in range(7)))
        with pytest.raises(ValueError, match="7 unknown contributors exceed the "
                                             "engine's limit of 6"):
            mx.EvidenceBundle(traces=b.traces, frequencies=b.frequencies,
                              hypothesis=hypothesis, parameters=b.parameters)

    @pytest.mark.parametrize("unknowns", [7, 10**8, ["U"] * 7],
                             ids=["count", "huge-count", "labels"])
    def test_case_hypothesis_past_the_limit_refused(self, unknowns, monkeypatch):
        def refused(*args):
            raise AssertionError("unknown labels were made past the limit")

        # the labels of a count are made with range: refuse before it runs
        monkeypatch.setattr(mx.io, "range", refused, raising=False)
        count = unknowns if isinstance(unknowns, int) else len(unknowns)
        with pytest.raises(mx.io.LoadError, match=f"{count} unknown contributors"):
            mx.io.build_hypothesis({"unknowns": unknowns}, {})


class TestPlanReadsLadder:
    def test_bundle_build_parses_no_allele_label(
        self, pubcase_defence_bundle, monkeypatch
    ):
        b = pubcase_defence_bundle
        parsed = []
        parse = mx.population._parse_labels

        def counting(labels):
            parsed.append(labels)
            return parse(labels)

        monkeypatch.setattr(mx.population, "_parse_labels", counting)
        mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        assert parsed, "the counter must see the table's own label parsing"
        parsed.clear()
        mx.EvidenceBundle(
            traces=b.traces, frequencies=b.frequencies,
            hypothesis=b.hypothesis, parameters=b.parameters,
        )
        assert parsed == []

    def test_plan_takes_order_and_coupling_from_ladder(self, pubcase_defence_bundle):
        b = pubcase_defence_bundle
        for plan in (plan for stack in b._stacks for plan in stack.plans):
            ladder = b.frequencies.ladder(plan.marker)
            np.testing.assert_array_equal(plan.order, ladder.order)
            np.testing.assert_array_equal(plan.coupled, ladder.coupled)


def _one_marker_bundle(b, marker):
    """The bundle restricted to one marker: its ladder, each trace's
    heights there (none for a trace that does not cover it) and its
    per-marker overrides."""
    traces = tuple(
        mx.Trace(t.trace_id, t.threshold,
                 {marker: t.heights[marker]} if marker in t.heights else {})
        for t in b.traces
    )
    p = b.parameters
    return mx.EvidenceBundle(
        traces=traces, frequencies=mx.FrequencyTable(markers={
            marker: b.frequencies.ladder(marker)
        }),
        hypothesis=b.hypothesis, parameters=replace(
            p,
            marker_rho={m: v for m, v in (p.marker_rho or {}).items() if m == marker},
            marker_xi={m: v for m, v in (p.marker_xi or {}).items() if m == marker},
        ),
    )


def _count_log_passes(monkeypatch):
    """Spy on the log-space redo; returns the list of markers it is called on."""
    redone = []

    def spy(plan, tables, posteriors, alt, _original=engine._log_pass):
        redone.append(plan.marker)
        return _original(plan, tables, posteriors, alt)

    monkeypatch.setattr(engine, "_log_pass", spy)
    return redone


def _recurrence_bounds(norms, fan_out, added):
    """The loss bounds step by step: bound[t+1] = (fan_out * bound[t] +
    added[t]) / norms[t] from 0, the reference for engine._loss_bounds."""
    bounds = np.empty(norms.shape)
    bound = np.zeros(norms.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t, row in enumerate(bounds):
            np.multiply(bound, fan_out, out=row)
            row += added[t]
            row /= norms[t]
            bound = row
    return bounds


@stn.composite
def loss_bound_cases(draw):
    """Normalizers of T steps and G columns, each at most fan_out = 3^U:
    some 0, NaN or subnormal, the first steps of each column padding
    (normalizer 1, nothing added); and additions in the normal range, or
    E * _TINY, which are subnormal, or the passes' own E in units of
    _TINY, with the limit _LOSS in those units."""
    n_unknown = draw(stn.integers(0, 4))
    n_steps, n_columns = draw(stn.integers(0, 16)), draw(stn.integers(1, 4))
    fan_out = 3**n_unknown
    special = stn.sampled_from([0.0, math.nan, 5e-324, 2.2e-310, 1e-300])
    usual = stn.floats(-40.0, 0.0).map(lambda e: fan_out * math.exp(e))
    norms = np.array(draw(stn.lists(
        stn.one_of(usual, usual, usual, special),
        min_size=n_steps * n_columns, max_size=n_steps * n_columns,
    ))).reshape(n_steps, n_columns)
    kind, limit = draw(stn.sampled_from(["normal", "subnormal", "units"])), engine._LOSS
    if kind == "subnormal":
        added = np.full(norms.shape, 10**n_unknown * engine._TINY)
    elif kind == "units":
        added, limit = np.full(norms.shape, float(10**n_unknown)), engine._LOSS / engine._TINY
    else:
        added = np.array(draw(stn.lists(
            stn.floats(-690.0, -20.0).map(math.exp),
            min_size=norms.size, max_size=norms.size,
        ))).reshape(norms.shape)
    pad = np.array(draw(stn.lists(stn.integers(0, n_steps), min_size=n_columns,
                                  max_size=n_columns)))
    padding = np.arange(n_steps)[:, None] < pad
    norms[padding], added[padding] = 1.0, 0.0
    return norms, fan_out, added, limit, kind == "subnormal"


class TestLossBounds:
    @given(loss_bound_cases())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_recurrence(self, case):
        norms, fan_out, added, limit, subnormal = case
        want = _recurrence_bounds(norms, fan_out, added)
        got = engine._loss_bounds(norms, fan_out, added)
        assert got.shape == want.shape
        # the same markers end
        np.testing.assert_array_equal(
            ~(got <= limit).all(axis=0), ~(want <= limit).all(axis=0)
        )
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        assert (got[want == np.inf] > 1e300).all()
        if subnormal:
            # the recurrence rounds subnormal bounds to 2^-1074 apiece: no
            # relative precision to compare against
            return
        kept = np.isfinite(want) & (want <= 1e300)
        np.testing.assert_allclose(got[kept], want[kept], rtol=1e-12, atol=0.0)

    def test_padding_and_zero_normalizers(self):
        norms = np.array([[1.0, 0.5], [0.0, 0.0], [0.5, 0.5]])
        added = np.array([[0.0, 1e-300], [0.0, 1e-300], [1e-300, 1e-300]])
        got = engine._loss_bounds(norms, 3, added)
        assert got[0, 0] == 0.0 and np.isnan(got[1, 0])
        assert got[1, 1] == np.inf and got[2, 1] == np.inf
        np.testing.assert_array_equal(
            np.isnan(got), np.isnan(_recurrence_bounds(norms, 3, added))
        )


class TestBundlePass:
    """One pass over the bundle's stacked markers: against one-marker passes
    and both oracles."""

    def _check(self, b):
        ll, grad = mx.log_likelihood_and_gradient(b)
        assert ll == mx.total_log_likelihood(b)  # the same stacked forward
        parts = [
            mx.log_likelihood_and_gradient(_one_marker_bundle(b, m))
            for m in b.covered_markers()
        ]
        assert ll == pytest.approx(sum(p for p, _ in parts), rel=1e-12, abs=1e-12)
        for marker, (part, _) in zip(b.covered_markers(), parts):
            assert mx.marker_log_likelihood(b, marker) == part
            for oracle in (mx.brute_force_log_likelihood, oracle_log_likelihood):
                assert part == pytest.approx(oracle(b, marker), rel=1e-9, abs=1e-9)
            # the marker's rows of its stack's step tables and pair
            # posteriors are those of its one-marker bundle's pass
            one = _one_marker_bundle(b, marker)
            (alone,) = one._stacks
            stack, i = engine._stack_of(b, marker)
            rows = engine._marker_rows(stack, i)
            tables = engine._step_tables(stack, engine._view_terms(stack, engine._sets_of(b)))
            own = engine._step_tables(alone, engine._view_terms(alone, engine._sets_of(b)))
            np.testing.assert_array_equal(tables[rows], own)
            whole = engine._chain_pass(stack, tables, posteriors=True)
            np.testing.assert_allclose(
                whole.pair[rows], engine._chain_pass(alone, own, posteriors=True).pair,
                rtol=1e-12,
            )
        if not np.isfinite(ll):
            return
        for key, value in grad.items():
            want = sum(g[key] for _, g in parts)
            assert value == pytest.approx(want, rel=1e-10, abs=1e-10), key

    @given(stn.integers(0, 3), stn.integers(0, 2**32 - 1), stn.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_one_marker_passes_and_oracles(self, n_unknown, seed, missing):
        # ladders of different lengths with silent alleles, trace_roles, a
        # marker_rho on M and a marker_xi on M2; T2 may not cover M2
        self._check(_overridden_case(n_unknown, seed, missing))

    def test_one_marker_per_stack_at_four_unknowns(self):
        # at U = 4 a stack holds one marker: each marker is its own stack
        rng = np.random.default_rng(4)
        freqs = mx.FrequencyTable.from_dict({
            "M": {"8": 0.5, "9": 0.5}, "M2": {"10": 0.3, "11": 0.3, "12": 0.4},
        })
        unknown = ("U1", "U2", "U3", "U4")
        phi = dict(zip(unknown, np.sort(rng.dirichlet(np.ones(4)))[::-1].tolist()))
        b = mx.EvidenceBundle(
            traces=(mx.Trace("T1", 50.0, {"M": {"8": 900.0, "9": 300.0},
                                          "M2": {"10": 500.0, "12": 700.0}}),),
            frequencies=freqs,
            hypothesis=mx.Hypothesis(known={}, unknown=unknown),
            parameters=mx.ModelParameters(rho={"T1": 40.0}, eta=25.0, xi=0.08,
                                          phi={"T1": phi}),
        )
        assert [len(stack.plans) for stack in b._stacks] == [1, 1]
        self._check(b)

    def test_padding_steps_lose_nothing(self, monkeypatch):
        # M2 is three steps shorter than M and front-padded in their stack;
        # its real steps keep the scaled pass, so the padding steps' messages
        # must add nothing to the loss bounds of its posteriors
        rng = np.random.default_rng(17523)
        b = random_case(rng, max_alleles=4, max_unknowns=3, n_markers=2)
        p = b.parameters
        b = b.with_parameters(mx.ModelParameters(
            rho={t: r * 3.625 for t, r in p.rho.items()}, eta=p.eta, xi=p.xi,
            phi=p.phi,
        ))
        assert [list(stack.first) for stack in b._stacks] == [[0, 3]]
        redone = _count_log_passes(monkeypatch)
        ll, _ = mx.log_likelihood_and_gradient(b)
        assert redone == [] and ll == mx.total_log_likelihood(b)
        self._check(b)

    def test_one_stacked_marker_takes_the_log_redo(self, monkeypatch):
        # M is TestScaledPassFallback's dying path, which the scaled pass
        # cannot keep; N beside it, with one allele and one path, passes
        # scaled
        freqs = mx.FrequencyTable.from_dict({
            "M": {"8": 0.3, "10": 0.3, "12": 0.4}, "N": {"5": 1.0},
        })
        k1 = mx.GenotypeProfile.from_pairs({"M": ("12", "12"), "N": ("5", "5")})
        b = mx.EvidenceBundle(
            traces=(mx.Trace("T1", 50.0, {
                "M": {"8": 5700.0, "10": 2850.0, "12": 5700.0}, "N": {"5": 11800.0},
            }),),
            frequencies=freqs,
            hypothesis=mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            parameters=mx.ModelParameters(
                rho={"T1": 6000.0}, eta=1.0, xi=0.05,
                phi={"T1": {"K1": 0.5, "U1": 0.5}},
            ),
        )
        redone = _count_log_passes(monkeypatch)
        ll, _ = mx.log_likelihood_and_gradient(b)
        assert redone == ["M"]
        assert mx.total_log_likelihood(b) == ll
        assert redone == ["M", "M"]
        assert np.isfinite(ll)
        self._check(b)

    def test_impossible_marker_skips_the_log_redo(self, monkeypatch):
        b = _impossible_marker_case()
        redone = _count_log_passes(monkeypatch)
        ll, grad = mx.log_likelihood_and_gradient(b)
        assert ll == mx.total_log_likelihood(b) == mx.marker_log_likelihood(b, "M")
        assert ll == -np.inf
        with pytest.raises(InfeasibleConditioningError):
            mx.marker_posterior(b, "M")
        assert redone == []
        for oracle in (mx.brute_force_log_likelihood, oracle_log_likelihood):
            assert oracle(b, "M") == -np.inf
            assert mx.marker_log_likelihood(b, "N") == pytest.approx(
                oracle(b, "N"), rel=1e-12
            )
        # the gradient holds the finite markers' terms alone
        _, want = mx.log_likelihood_and_gradient(_one_marker_bundle(b, "N"))
        assert grad == pytest.approx(want, rel=1e-12)
        # the log-space pass of an impossible marker runs no backward
        # recursion and gives zero pair posteriors
        stack, i = engine._stack_of(b, "M")
        tables = engine._step_tables(stack, engine._view_terms(stack, engine._sets_of(b)))
        monkeypatch.setattr(engine, "_log_backward", None)
        one = engine._log_pass(
            stack.plans[i], tables[engine._marker_rows(stack, i)], True, None
        )
        assert one.loglik == -np.inf and not one.pair.any()

    def test_one_call_per_stack_of_each_gamma_kernel(
        self, pubcase_defence_bundle, monkeypatch
    ):
        # the excerpt's two traces share one layout on its one stack: a
        # gradient round calls each kernel once, and gamma_log_cdf_grad
        # reads the central difference's sides from the one gamma_log_cdf
        # call; a value pass evaluates no side
        b = pubcase_defence_bundle
        assert len(b.traces) == 2 and len(b._stacks) == 1
        calls, cdf_shapes = {}, []
        for name in ("gamma_log_pdf", "gamma_log_cdf", "gamma_log_pdf_grad",
                     "gamma_log_cdf_grad", "gamma_cdf_shapes"):
            def counting(*args, _original=getattr(engine, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                if _name == "gamma_log_cdf":
                    cdf_shapes.append(np.shape(args[1]))
                return _original(*args)
            monkeypatch.setattr(engine, name, counting)
        inner = []

        def inside(*args, _original=mx.peakmodel.gamma_log_cdf):
            inner.append(args)
            return _original(*args)

        monkeypatch.setattr(mx.peakmodel, "gamma_log_cdf", inside)
        mx.log_likelihood_and_gradient(b)
        assert calls == dict.fromkeys(calls, len(b._stacks)) and len(calls) == 5
        assert [shape[0] for shape in cdf_shapes] == [3] and inner == []
        calls.clear()
        cdf_shapes.clear()
        mx.total_log_likelihood(b)
        assert calls == {"gamma_log_pdf": 1, "gamma_log_cdf": 1}
        assert [shape[0] for shape in cdf_shapes] == [1]


def _impossible_marker_case():
    # U1 carries no DNA (phi 0) and K1 not 12, which has no stutter donor:
    # the peak at 12 has no dose, every path through its step has log
    # factor -inf, and M is impossible; N, in M's stack, is not
    freqs = mx.FrequencyTable.from_dict({
        "M": {"8": 0.3, "10": 0.3, "12": 0.4}, "N": {"5": 0.5, "6": 0.5},
    })
    k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "8"), "N": ("5", "6")})
    return mx.EvidenceBundle(
        traces=(mx.Trace("T1", 50.0, {
            "M": {"8": 900.0, "12": 400.0}, "N": {"5": 500.0, "6": 450.0},
        }),),
        frequencies=freqs,
        hypothesis=mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
        parameters=mx.ModelParameters(
            rho={"T1": 40.0}, eta=25.0, xi=0.08,
            phi={"T1": {"K1": 1.0, "U1": 0.0}},
        ),
    )


class TestMarkerQueries:
    """A query about one marker is one pass over the stack that holds it,
    read at the marker's rows: the path of the bundle-level queries."""

    def _many_marker_case(self):
        # 30 markers of 6 alleles at U = 2 make one stack, whose blocks hold
        # _BLOCK_EDGES // (30 * 100) = 5 steps, so each marker's 6 steps
        # span two blocks
        rng = np.random.default_rng(8)
        labels = ["8", "9", "10", "11", "12", "13"]
        markers = [f"M{i}" for i in range(30)]
        freqs = mx.FrequencyTable.from_dict({
            m: dict(zip(labels, rng.dirichlet(np.full(6, 3.0)))) for m in markers
        })
        k1 = mx.GenotypeProfile.from_pairs(
            {m: tuple(rng.choice(labels, 2)) for m in markers}
        )
        heights = {
            m: {a: float(rng.uniform(60, 1200)) for a in labels if rng.random() < 0.5}
            for m in markers
        }
        return mx.EvidenceBundle(
            traces=(mx.Trace("T1", 50.0, heights),), frequencies=freqs,
            hypothesis=mx.Hypothesis(known={"K1": k1}, unknown=("U1", "U2")),
            parameters=mx.ModelParameters(
                rho={"T1": 30.0}, eta=25.0, xi=0.08,
                phi={"T1": {"K1": 0.5, "U1": 0.3, "U2": 0.2}},
            ),
        )

    def test_each_query_equals_its_bundle_counterpart(self):
        b = self._many_marker_case()
        (stack,) = b._stacks
        per_block = engine._BLOCK_EDGES // (len(stack.plans) * len(stack.edges.src))
        assert per_block < stack.transition.shape[1] == 6
        posts, tops = mx.bundle_posteriors(b), mx.bundle_top_genotypes(b, 3)
        k1 = b.hypothesis.known["K1"]
        for m in b.covered_markers():
            post = posts[m]
            assert mx.marker_log_likelihood(b, m) == post.log_likelihood
            assert mx.marker_posterior(b, m) == post
            assert mx.presence_posteriors(b, m) == post.presence
            carried = {k1.genotypes[m][0]: "present"}  # certain: masks nothing
            assert mx.conditioned_presence(b, m, carried) == post
            assert mx.top_k_marker_genotypes(b, m, 3) == tops[m]
            assert mx.marker_posterior(b, m, k=3).top_genotypes == tops[m]
            # the marker's pass alone sums its blocks' shifts in another
            # order
            alone = mx.marker_posterior(_one_marker_bundle(b, m), m, k=3)
            assert post.log_likelihood == pytest.approx(alone.log_likelihood, rel=1e-12)
            assert post.presence == pytest.approx(alone.presence, rel=1e-12, abs=1e-15)
            assert [g for g, _ in alone.top_genotypes] == [g for g, _ in tops[m]]
            assert [p for _, p in tops[m]] == pytest.approx(
                [p for _, p in alone.top_genotypes], rel=1e-9
            )

    def test_query_answers_beside_an_impossible_marker(self):
        b = _impossible_marker_case()
        assert [plan.marker for plan in b._stacks[0].plans] == ["M", "N"]
        alone = _one_marker_bundle(b, "N")
        want = mx.marker_posterior(alone, "N", k=4)
        got = mx.marker_posterior(b, "N", k=4)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12)
        assert got.presence == pytest.approx(want.presence, rel=1e-12)
        assert [g for g, _ in got.top_genotypes] == [g for g, _ in want.top_genotypes]
        assert mx.presence_posteriors(b, "N") == got.presence
        assert mx.top_k_marker_genotypes(b, "N", 4) == got.top_genotypes
        cond = mx.conditioned_presence(b, "N", {"5": "present"})
        assert cond.log_likelihood == got.log_likelihood
        # M's own log L alone is refused
        assert mx.marker_log_likelihood(b, "M") == -np.inf
        for query in (
            lambda: mx.marker_posterior(b, "M"),
            lambda: mx.presence_posteriors(b, "M"),
            lambda: mx.conditioned_presence(b, "M", {"8": "present"}),
            lambda: mx.top_k_marker_genotypes(b, "M", 2),
        ):
            with pytest.raises(InfeasibleConditioningError, match="marker 'M'"):
                query()

    @pytest.mark.parametrize("n_unknown, n_stacks", [(2, 1), (4, 2)])
    def test_build_lays_out_each_trace_once(self, n_unknown, n_stacks, monkeypatch):
        b = _overridden_case(n_unknown, seed=3)
        laid_out = []

        def spy(*args, _original=engine._trace_layouts):
            laid_out.append(args[4].trace_id)
            return _original(*args)

        monkeypatch.setattr(engine, "_trace_layouts", spy)
        rebuilt = mx.EvidenceBundle(
            traces=b.traces, frequencies=b.frequencies,
            hypothesis=b.hypothesis, parameters=b.parameters,
        )
        assert laid_out == ["T1", "T2"]
        assert len(rebuilt._stacks) == n_stacks

    def test_known_untyped_on_a_marker_no_trace_covers(self):
        # K1 is typed on M1 alone and the trace covers M1 alone: M2 takes
        # no part in the bundle, and a query about it names K1 and M2
        freqs = mx.FrequencyTable.from_dict({
            "M1": {"8": 0.3, "9": 0.3, "10": 0.4}, "M2": {"8": 0.5, "9": 0.5},
        })
        k1 = mx.GenotypeProfile.from_pairs({"M1": ("8", "9")})
        params = mx.ModelParameters(
            rho={"T1": 30.0}, eta=25.0, xi=0.05, phi={"T1": {"K1": 0.6, "U1": 0.4}},
        )
        b = mx.EvidenceBundle(
            traces=(mx.Trace("T1", 50.0, {"M1": {"8": 420.0, "9": 260.0,
                                                 "10": 300.0}}),),
            frequencies=freqs, parameters=params,
            hypothesis=mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
        )
        without = _one_marker_bundle(b, "M1")
        assert b.covered_markers() == ("M1",)
        assert mx.total_log_likelihood(b) == mx.total_log_likelihood(without)
        assert mx.bundle_posteriors(b) == mx.bundle_posteriors(without)
        for query in (mx.marker_log_likelihood, mx.presence_posteriors):
            with pytest.raises(ValueError, match="'K1' is untyped on marker 'M2'"):
                query(b, "M2")

    def test_bundle_whose_traces_cover_no_marker(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.5, "9": 0.5}})
        b = mx.EvidenceBundle(
            traces=(mx.Trace("T1", 50.0, {}),), frequencies=freqs,
            hypothesis=mx.Hypothesis(known={}, unknown=("U1",)),
            parameters=mx.ModelParameters(
                rho={"T1": 30.0}, eta=20.0, xi=0.1, phi={"T1": {"U1": 1.0}}
            ),
        )
        assert b._stacks == () and b.covered_markers() == ()
        assert mx.total_log_likelihood(b) == 0.0 == mx.marker_log_likelihood(b, "M")
        assert mx.bundle_posteriors(b) == {}


def _batch_case(n_unknown, n_traces, overrides, seed, missing=False):
    """_overridden_case with n_traces traces, with or without its
    marker_rho and marker_xi overrides; with ``missing``, the last of two
    or three does not cover M2."""
    b = _overridden_case(n_unknown, seed, missing and n_traces > 1, max(n_traces, 2))
    traces = b.traces[:n_traces]
    ids = [t.trace_id for t in traces]
    p, hyp = b.parameters, b.hypothesis
    trace_roles = {t: r for t, r in (hyp.trace_roles or {}).items() if t in ids}
    return mx.EvidenceBundle(
        traces=traces, frequencies=b.frequencies,
        hypothesis=mx.Hypothesis(known=hyp.known, unknown=hyp.unknown,
                                 trace_roles=trace_roles or None),
        parameters=mx.ModelParameters(
            rho={t: p.rho[t] for t in ids}, eta=p.eta, xi=p.xi,
            phi={t: p.phi[t] for t in ids},
            marker_rho=p.marker_rho if overrides else None,
            marker_xi=p.marker_xi if overrides else None,
        ),
    )


def _parameter_sets(b, rng, n_sets):
    """b at n_sets parameter sets: rho, eta and xi drawn around b's and
    fractions redrawn, then one that puts each trace's mass on its first
    role with no stutter, so that a peak that role does not carry has zero
    likelihood."""
    p, known = b.parameters, b.hypothesis.known
    sets = []
    for _ in range(n_sets - 1):
        phi = {}
        for tid, fractions in p.phi.items():
            roles = list(fractions)
            k = sum(r in known for r in roles)
            w = rng.dirichlet(np.ones(len(roles)))
            phi[tid] = dict(zip(roles, np.concatenate([w[:k], np.sort(w[k:])[::-1]])))
        sets.append(mx.ModelParameters(
            rho={t: r * rng.uniform(0.5, 2.0) for t, r in p.rho.items()},
            eta={t: p.eta_for(t) * rng.uniform(0.5, 2.0) for t in p.rho},
            xi={t: float(rng.uniform(0.0, 0.3)) for t in p.rho},
            phi=phi, marker_rho=p.marker_rho, marker_xi=p.marker_xi,
        ))
    sets.append(mx.ModelParameters(
        rho=dict(p.rho), eta=p.eta, xi=0.0,
        phi={t: {r: float(i == 0) for i, r in enumerate(f)} for t, f in p.phi.items()},
        marker_rho=p.marker_rho,
        marker_xi=p.marker_xi and dict.fromkeys(p.marker_xi, 0.0),
    ))
    return [b.with_parameters(params) for params in sets]


def _assert_bit_identical(got, want):
    """Each (log L, gradient) of ``got`` equal to ``want``'s bit for bit."""
    def bits(x):
        return np.float64(x).tobytes()

    assert len(got) == len(want)
    for (ll, grad), (want_ll, want_grad) in zip(got, want):
        assert bits(ll) == bits(want_ll)
        assert list(grad) == list(want_grad)
        assert [bits(v) for v in grad.values()] == [bits(v) for v in want_grad.values()]


class TestBatchedSets:
    """Several parameter sets in one pass per stack: each set's value and
    gradient as with its bundle alone, and its value as both oracles'."""

    @given(stn.integers(1, 3), stn.integers(1, 3), stn.booleans(),
           stn.integers(0, 2**32 - 1), stn.booleans())
    # the last set has zero likelihood
    @example(3, 2, True, 0, False)
    @example(1, 2, True, 1, False)
    # three traces, the last covering M alone, beside both overrides
    @example(2, 3, True, 5, True)
    @settings(max_examples=25, deadline=None)
    def test_any_batch_matches_one_set_calls_and_oracles(
        self, n_unknown, n_traces, overrides, seed, missing
    ):
        b = _batch_case(n_unknown, n_traces, overrides, seed, missing)
        rng = np.random.default_rng(seed)
        bundles = _parameter_sets(b, rng, int(rng.integers(2, 11)))
        alone = [mx.log_likelihood_and_gradient(one) for one in bundles]
        # one _batch_passes call over the sets that share their overrides
        # (all but the last) against one call per set
        shared = bundles[:-1]
        sets = engine._ParameterSets.of(b, [one.parameters for one in shared])
        loglik, grad = engine._batch_passes(b, sets)
        for k in range(len(shared)):
            one_ll, one_grad = engine._batch_passes(b, sets.take([k]))
            assert np.float64(loglik[k]).tobytes() == np.float64(one_ll[0]).tobytes()
            assert grad[k].tobytes() == one_grad[0].tobytes()
        # the pass over a stack repeated once per set reads the stack's
        # cached transitions, tiled: each set's rows are its own pass's
        for stack in b._stacks:
            many = engine._repeated(stack, len(shared))
            for name in ("transition", "transition_shift"):
                own = getattr(stack, name)
                assert getattr(many, name).tobytes() == np.tile(
                    own, (len(shared),) + (1,) * (own.ndim - 1)
                ).tobytes()
            tables = engine._step_tables(stack, engine._view_terms(stack, sets))
            whole = engine._chain_pass(many, tables, posteriors=True)
            n_markers, n_rows = len(stack.plans), len(tables) // len(shared)
            for k in range(len(shared)):
                one = engine._chain_pass(
                    stack, tables[k * n_rows:(k + 1) * n_rows], posteriors=True
                )
                mine = slice(k * n_markers, (k + 1) * n_markers)
                assert whole.loglik[mine].tobytes() == one.loglik.tobytes()
                assert whole.pair[k * n_rows:(k + 1) * n_rows].tobytes() == one.pair.tobytes()
        # the sets in a random order, split into random batches
        order = rng.permutation(len(bundles))
        cuts = rng.choice(np.arange(1, len(bundles)),
                          size=int(rng.integers(0, len(bundles))), replace=False)
        got = [None] * len(bundles)
        for part in np.split(order, np.sort(cuts)):
            batch = mx.batch_log_likelihood_and_gradient([bundles[i] for i in part])
            for i, one in zip(part, batch):
                got[i] = one
        _assert_bit_identical(got, alone)
        # the oracles enumerate, so only a drawn set and the last; the
        # gradient where log L is finite, by Fisher's identity over the
        # enumeration
        for one, (ll, grad) in zip(bundles[-2:], got[-2:]):
            for oracle in (mx.brute_force_log_likelihood, oracle_log_likelihood):
                want = sum(oracle(one, m) for m in one.covered_markers())
                assert ll == pytest.approx(want, rel=1e-10, abs=1e-10)
            if not np.isfinite(ll):
                continue
            want = {}
            for m in one.covered_markers():
                for key, value in oracle_gradient(one, m).items():
                    want[key] = want.get(key, 0.0) + value
            assert set(want) == set(grad)
            for key, value in grad.items():
                assert value == pytest.approx(want[key], rel=1e-10, abs=1e-10), key

    @pytest.mark.parametrize("case, per_pass", [("pubcase", 4), ("four_unknowns", 1)])
    def test_the_edge_budget_splits_the_batch(self, monkeypatch, request, case, per_pass):
        # on the excerpt's defence hypothesis (U = 2) a pass holds four
        # sets; at U = 4 one set's pass fills the budget, so each set's
        # stacks are passed alone, in turn
        if case == "pubcase":
            b = request.getfixturevalue("pubcase_defence_bundle")
        else:
            unknown = ("U1", "U2", "U3", "U4")
            b = mx.EvidenceBundle(
                traces=(mx.Trace("T1", 50.0, {"M": {"8": 900.0, "9": 300.0},
                                              "M2": {"10": 500.0, "12": 700.0}}),),
                frequencies=mx.FrequencyTable.from_dict({
                    "M": {"8": 0.5, "9": 0.5}, "M2": {"10": 0.3, "11": 0.3, "12": 0.4},
                }),
                hypothesis=mx.Hypothesis(known={}, unknown=unknown),
                parameters=mx.ModelParameters(
                    rho={"T1": 40.0}, eta=25.0, xi=0.08,
                    phi={"T1": dict.fromkeys(unknown, 0.25)},
                ),
            )
        assert [engine._sets_per_pass(stack) for stack in b._stacks] == (
            [per_pass] * len(b._stacks)
        )
        bundles = _parameter_sets(b, np.random.default_rng(4), 10)
        alone = [mx.log_likelihood_and_gradient(one) for one in bundles]
        passes = _count_chain_passes(monkeypatch)
        got = mx.batch_log_likelihood_and_gradient(bundles)
        sets = [min(per_pass, len(bundles) - lo) for lo in range(0, len(bundles), per_pass)]
        assert passes == [
            (len(stack.plans) * n, True) for stack in b._stacks for n in sets
        ]
        _assert_bit_identical(got, alone)
        for one, (ll, _) in zip(bundles[-2:], got[-2:]):
            oracles = [mx.brute_force_log_likelihood]
            if case != "pubcase":  # the excerpt's ladders are long for it
                oracles.append(oracle_log_likelihood)
            for oracle in oracles:
                want = sum(oracle(one, m) for m in one.covered_markers())
                assert ll == pytest.approx(want, rel=1e-8)

    def test_a_redone_marker_keeps_its_set(self, monkeypatch):
        # M is TestScaledPassFallback's dying path at rho 6000, which the
        # scaled pass cannot keep; at rho 40 it passes scaled: only the
        # first set's M is redone in log space
        freqs = mx.FrequencyTable.from_dict({
            "M": {"8": 0.3, "10": 0.3, "12": 0.4}, "N": {"5": 1.0},
        })
        k1 = mx.GenotypeProfile.from_pairs({"M": ("12", "12"), "N": ("5", "5")})
        b = mx.EvidenceBundle(
            traces=(mx.Trace("T1", 50.0, {
                "M": {"8": 5700.0, "10": 2850.0, "12": 5700.0}, "N": {"5": 11800.0},
            }),),
            frequencies=freqs,
            hypothesis=mx.Hypothesis(known={"K1": k1}, unknown=("U1",)),
            parameters=mx.ModelParameters(
                rho={"T1": 6000.0}, eta=1.0, xi=0.05,
                phi={"T1": {"K1": 0.5, "U1": 0.5}},
            ),
        )
        p = b.parameters
        bundles = [b, b.with_parameters(mx.ModelParameters(
            rho={"T1": 40.0}, eta=p.eta, xi=p.xi, phi=p.phi))]
        alone = [mx.log_likelihood_and_gradient(one) for one in bundles]
        redone = _count_log_passes(monkeypatch)
        got = mx.batch_log_likelihood_and_gradient(bundles)
        assert redone == ["M"]
        _assert_bit_identical(got, alone)
        assert all(np.isfinite(ll) for ll, _ in got)

    def test_batches_refuse_other_evidence(self):
        b = random_case(np.random.default_rng(3), n_markers=2)
        other = mx.EvidenceBundle(traces=b.traces, frequencies=b.frequencies,
                                  hypothesis=b.hypothesis, parameters=b.parameters)
        with pytest.raises(ValueError, match="with_parameters"):
            mx.batch_log_likelihood_and_gradient([b, other])
        assert mx.batch_log_likelihood_and_gradient([]) == []
