"""Inference engine against enumeration oracles and structural invariants."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn
from scipy.special import logsumexp

import mixref as mx
from mixref import engine
from mixref.engine import InfeasibleConditioningError
from mixref.estimation import (
    FitSpecification,
    _chained_gradient,
    _Structure,
    numeric_gradient,
)
from mixref.peakmodel import gamma_log_cdf, gamma_log_cdf_grad, gamma_log_pdf

from conftest import (
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
        assert passes == [(1, False)]
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

    def test_non_finite_maximum_gives_minus_inf(self):
        index = np.array([0, 0, 1, 1, 2, 3])
        values = np.array([np.nan, 1.0, np.inf, 2.0, -3.0, -np.inf])
        got = engine._logsumexp_by(index, values, 5)
        assert np.array_equal(got, [-np.inf, -np.inf, -3.0, -np.inf, -np.inf])


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
        plan = b._plans["M"]
        tables = engine._step_tables(plan, engine._view_terms(plan, b.parameters))
        ended = np.zeros(1, dtype=bool)
        loglik, *_ = engine._forward(plan, tables, False, ended)
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
        plan = b._plans["M"]
        assert plan.internal_labels == ("8", "10", "12", "14")
        tables = np.zeros((4, plan.n_pairs))
        tables[0, [PAIRS.index((0, 0)), PAIRS.index((0, 1))]] = -800.0
        tables[1, PAIRS.index((2, 0))] = -450.0
        tables[2, PAIRS.index((0, 0))] = -450.0
        exact = engine._log_pass(plan, tables, True, None)
        assert exact.loglik == pytest.approx(-800.0, abs=1.0)
        for posteriors in (False, True):
            redo = np.zeros(1, dtype=bool)
            engine._scaled_pass(plan, tables, posteriors, None, redo)
            assert redo.all()
            got = engine._chain_pass(plan, tables, posteriors)
            assert got.loglik == exact.loglik
        np.testing.assert_array_equal(got.pair, exact.pair)

    def test_backward_and_posteriors_refuse_what_they_would_lose(self):
        plan = self._dying_path_case()._plans["M"]
        n_steps, n_edges = len(plan.order), len(plan.edges.src)

        def backward_ends(*steps):
            weights = np.ones((n_steps, n_edges))
            for t, weight in steps:
                weights[t] = weight
            ended = np.zeros(1, dtype=bool)
            engine._backward(plan, [weights], ended)
            return ended.all()

        # one step a little above the floor is kept
        assert not backward_ends((2, 1e-190))
        # one step below it, or two steps that each keep 1e-150, are not
        for steps in ([(2, 1e-210)], [(1, 1e-150), (2, 1e-150)]):
            assert backward_ends(*steps)
        keys, one_step = plan.edges.key, n_edges * engine._TINY

        def posteriors_end(mass):
            ended = np.zeros(1, dtype=bool)
            engine._pair_posteriors(
                np.full((1, n_edges), mass), keys, plan.n_pairs, one_step, ended
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
        theta = structure.pack(b.parameters)

        def value(th):
            return mx.total_log_likelihood(b.with_parameters(structure.unpack(th)[0]))

        ll, exact = _chained_gradient(structure, structure.unpack, theta)
        assert ll == value(theta)
        numeric = numeric_gradient(value, theta, rel_step=1e-6, abs_floor=1e-8)
        np.testing.assert_allclose(exact, numeric, rtol=1e-5, atol=1e-5)


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
            plan = b._plans["M"]
            zeros = np.zeros((len(plan.order), plan.n_pairs))
            # the scaled pass: log L is 0 and every backward message is flat
            ended = np.zeros(1, dtype=bool)
            loglik, _, _, weights = engine._forward(plan, zeros, True, ended)
            assert abs(loglik) < 1e-12
            beta, _ = engine._backward(plan, weights, ended)
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
        plan = b._plans["M"]
        terms = engine._view_terms(plan, b.parameters)
        assert [len(term.log_factors) for term in terms] == [4 * 6**n_unknown] * 2
        # gamma is evaluated once per observed entry and once per distinct
        # dropout dose: per trace three coupled peaks of 6^U doses each, and
        # the uncoupled 10, whose dose depends on the draw alone (3^U)
        assert evaluated == len(traces) * (3 * 6**n_unknown + 3**n_unknown)


def _overridden_case(n_unknown, seed, missing=False):
    """Two traces on two markers with silent alleles; T2 lacks one role
    when there are two, T1 has its own rho on M and M2 its own xi.  With
    ``missing``, T2 does not cover M2."""
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
    for tid in ("T1", "T2"):
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
        traces[1] = mx.Trace("T2", 50.0, {"M": traces[1].heights["M"]})
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
        for marker in b.covered_markers():
            plan = b._plans[marker]
            for layout, term in zip(plan.traces, engine._view_terms(plan, b.parameters)):
                # each entry's own dose, block by block, as the chain defines
                # it, from the marker's own doses B
                base = term.base
                own = np.concatenate([
                    (1.0 - term.xi) * base[p][plan.pair_prev]
                    + term.xi * base[p + 1][plan.pair_draw]
                    if plan.coupled[p]
                    else (1.0 - term.xi) * base[p][plan.pair_draw]
                    for p in layout.position
                ])
                k = layout.n_observed
                # the dose points: the observed entries, then the distinct
                # dropout doses, spread back to the dropout entries
                np.testing.assert_array_equal(
                    np.concatenate([term.doses[:k], term.doses[k:][layout.spread]]), own
                )
                shapes = term.rho * own
                (trace,) = [t for t in b.traces if t.trace_id == layout.trace_id]
                heights = np.repeat(
                    [
                        trace.height(marker, plan.internal_labels[p])
                        for p in layout.position[:k // plan.n_pairs]
                    ],
                    plan.n_pairs,
                )
                np.testing.assert_array_equal(
                    term.log_factors[:k], gamma_log_pdf(heights, shapes[:k], term.eta)
                )
                log_cdf = gamma_log_cdf(layout.threshold, shapes[k:], term.eta)
                np.testing.assert_array_equal(term.log_factors[k:], log_cdf)
                np.testing.assert_array_equal(term.log_cdf[layout.spread], log_cdf)
                # derivatives at the distinct doses, spread back, are each entry's own
                spread = gamma_log_cdf_grad(
                    layout.threshold, term.rho * term.doses[k:], term.eta, term.log_cdf
                )
                own_grad = gamma_log_cdf_grad(
                    layout.threshold, shapes[k:], term.eta, log_cdf
                )
                for got, want in zip(spread, own_grad):
                    np.testing.assert_array_equal(got[layout.spread], want)
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
        layouts = [layout for plan in b._plans.values() for layout in plan.traces]
        assert sum(len(v.cell) - v.n_observed for v in layouts) == 1296
        assert sum(sizes) == 486


class TestPlanReadsLadder:
    def test_bundle_build_parses_no_allele_label(
        self, pubcase_defence_bundle, monkeypatch
    ):
        b = pubcase_defence_bundle
        parsed = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                parsed.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(mx.population, "Fraction", Counting)
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
        for marker, plan in b._plans.items():
            ladder = b.frequencies.ladder(marker)
            np.testing.assert_array_equal(plan.order, ladder.order)
            np.testing.assert_array_equal(plan.coupled, ladder.coupled)


def _one_marker_bundle(b, marker):
    """The bundle restricted to one marker: its ladder, and each trace's
    heights there (none for a trace that does not cover it)."""
    traces = tuple(
        mx.Trace(t.trace_id, t.threshold,
                 {marker: t.heights[marker]} if marker in t.heights else {})
        for t in b.traces
    )
    return mx.EvidenceBundle(
        traces=traces, frequencies=mx.FrequencyTable(markers={
            marker: b.frequencies.ladder(marker)
        }),
        hypothesis=b.hypothesis, parameters=b.parameters,
    )


def _count_log_passes(monkeypatch):
    """Spy on the log-space redo; returns the list of markers it is called on."""
    redone = []

    def spy(plan, tables, posteriors, alt, _original=engine._log_pass):
        redone.append(plan.marker)
        return _original(plan, tables, posteriors, alt)

    monkeypatch.setattr(engine, "_log_pass", spy)
    return redone


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

    @given(stn.integers(0, 3), stn.integers(0, 2**32 - 1), stn.booleans())
    @settings(max_examples=30, deadline=None)
    def test_each_plan_agrees_with_its_rows_of_the_stack(
        self, n_unknown, seed, missing
    ):
        # a marker's entries sit in its plan's layouts and again in the
        # stack's concatenation: the plan's own pass must read the same
        b = _overridden_case(n_unknown, seed, missing)
        (stack,) = b._stacks
        markers = [plan.marker for plan in stack.plans]
        assert markers == ["M", "M2"]
        # each marker's dose points read the same cells of its own doses B,
        # or the zero cell, in the stack's layouts as in its plan's: every
        # cell carries a label unique to it
        labels = [
            i * 10**6 + np.arange(len(plan.order) * plan.n_combos)
            for i, plan in enumerate(stack.plans)
        ]
        stacked = np.concatenate(labels + [[-1]])
        for layout in stack.traces:
            for j, marker in enumerate(layout.markers):
                i = markers.index(marker)
                (own,) = [
                    o for o in stack.plans[i].traces if o.trace_id == layout.trace_id
                ]
                start = layout.counts[:2, :j].sum(axis=1)
                n_observed, n_distinct = layout.counts[:2, j]
                points = np.concatenate([
                    start[0] + np.arange(n_observed),
                    layout.n_observed + start[1] + np.arange(n_distinct),
                ])
                np.testing.assert_array_equal(
                    stacked[layout.gather[:, points]],
                    np.append(labels[i], -1)[own.gather],
                )
        tables = engine._step_tables(stack, engine._view_terms(stack, b.parameters))
        whole = engine._chain_pass(stack, tables, posteriors=True)
        n_steps = stack.lp.shape[1]
        per_block = max(
            1, engine._BLOCK_EDGES // (len(stack.plans) * len(stack.edges.src))
        )
        for i, plan in enumerate(stack.plans):
            own = engine._step_tables(plan, engine._view_terms(plan, b.parameters))
            one = engine._chain_pass(plan, own, posteriors=True)
            rows = slice(i * n_steps + stack.first[i], (i + 1) * n_steps)
            np.testing.assert_array_equal(tables[rows], own)
            if stack.first[i] // per_block == (n_steps - 1) // per_block:
                assert whole.loglik[i] == one.loglik[0]
                np.testing.assert_array_equal(whole.pair[rows], one.pair)
            else:
                assert whole.loglik[i] == pytest.approx(one.loglik[0], rel=1e-12)
                np.testing.assert_allclose(whole.pair[rows], one.pair, rtol=1e-12)

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
        # U1 carries no DNA (phi 0) and K1 not 12, which has no stutter
        # donor: the peak at 12 has no dose, every path through its step
        # has log factor -inf, and M is impossible; N is not
        freqs = mx.FrequencyTable.from_dict({
            "M": {"8": 0.3, "10": 0.3, "12": 0.4}, "N": {"5": 0.5, "6": 0.5},
        })
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "8"), "N": ("5", "6")})
        b = mx.EvidenceBundle(
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
        plan = b._plans["M"]
        tables = engine._step_tables(plan, engine._view_terms(plan, b.parameters))
        monkeypatch.setattr(engine, "_log_backward", None)
        one = engine._log_pass(plan, tables, True, None)
        assert one.loglik == -np.inf and not one.pair.any()

    def test_one_call_per_trace_of_each_gamma_kernel(
        self, pubcase_defence_bundle, monkeypatch
    ):
        b = pubcase_defence_bundle
        calls = {}
        for name in ("gamma_log_pdf", "gamma_log_cdf", "gamma_log_pdf_grad",
                     "gamma_log_cdf_grad"):
            def counting(*args, _original=getattr(engine, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)
            monkeypatch.setattr(engine, name, counting)
        mx.log_likelihood_and_gradient(b)
        assert calls == dict.fromkeys(calls, len(b.traces)) and len(calls) == 4
        assert len(b.traces) == 2
