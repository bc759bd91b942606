"""Simulator moments, determinism, and the conditional probability transform."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn
from scipy import stats as st
from scipy.special import gammainc, gammaincc, logsumexp

import mixref as mx

from conftest import oracle_log_cdf, oracle_successor, oracle_table, random_case


def many_marker_table(n, labels_freqs):
    return mx.FrequencyTable.from_dict({f"M{i}": dict(labels_freqs) for i in range(n)})


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


class TestSimulateTrace:
    def test_seed_determinism(self):
        freqs = many_marker_table(4, {"8": 0.4, "9": 0.6})
        k1 = mx.GenotypeProfile.from_pairs({f"M{i}": ("8", "9") for i in range(4)})
        params = mx.ModelParameters(
            rho={"S": 25.0}, eta=30.0, xi=0.05, phi={"S": {"K1": 1.0}}
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=params, trace_id="S",
            contributors={"K1": k1}, threshold=50.0, seed=123,
        )
        assert mx.simulate_trace(cfg) == mx.simulate_trace(cfg)

    def test_no_heights_in_open_interval(self):
        freqs = many_marker_table(50, {"8": 0.4, "9": 0.6})
        k1 = mx.GenotypeProfile.from_pairs(
            {f"M{i}": ("8", "9") for i in range(50)}
        )
        params = mx.ModelParameters(
            rho={"S": 0.5, }, eta=100.0, xi=0.05, phi={"S": {"K1": 1.0}}
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=params, trace_id="S",
            contributors={"K1": k1}, threshold=80.0, seed=5,
        )
        trace = mx.simulate_trace(cfg)
        for marker in trace.markers():
            for h in trace.heights[marker].values():
                assert h == 0.0 or h >= 80.0

    def test_zero_fraction_contributor_is_silent(self):
        freqs = many_marker_table(20, {"8": 0.5, "9": 0.5})
        k1 = mx.GenotypeProfile.from_pairs({f"M{i}": ("8", "8") for i in range(20)})
        k2 = mx.GenotypeProfile.from_pairs({f"M{i}": ("9", "9") for i in range(20)})
        params = mx.ModelParameters(
            rho={"S": 25.0}, eta=30.0, xi=0.0,
            phi={"S": {"K1": 1.0, "K2": 0.0}},
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=params, trace_id="S",
            contributors={"K1": k1, "K2": k2}, threshold=50.0, seed=7,
        )
        trace = mx.simulate_trace(cfg)
        for marker in trace.markers():
            assert trace.height(marker, "9") == 0.0

    def test_homozygote_moments_match_gamma(self):
        # single homozygous contributor, one allele, no stutter:
        # heights are Gamma(2*rho, eta) draws
        n = 12000
        freqs = many_marker_table(n, {"10": 1.0})
        k1 = mx.GenotypeProfile.from_pairs({f"M{i}": ("10", "10") for i in range(n)})
        rho, eta = 25.0, 40.0
        params = mx.ModelParameters(
            rho={"S": rho}, eta=eta, xi=0.0, phi={"S": {"K1": 1.0}}
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=params, trace_id="S",
            contributors={"K1": k1}, threshold=1e-9, seed=11,
        )
        trace = mx.simulate_trace(cfg)
        hs = np.array([trace.height(f"M{i}", "10") for i in range(n)])
        mean, var = hs.mean(), hs.var(ddof=1)
        want_mean = 2 * rho * eta
        want_var = 2 * rho * eta * eta
        se_mean = math.sqrt(want_var / n)
        assert abs(mean - want_mean) < 3 * se_mean
        # SE of the sample variance from the sample's fourth moment
        m4 = ((hs - mean) ** 4).mean()
        se_var = math.sqrt((m4 - var**2 * (n - 3) / (n - 1)) / n)
        assert abs(var - want_var) < 3 * se_var

    def test_stutter_fraction_mean_is_xi(self):
        # donor homozygote at 10 with recipient 9 on the ladder: the peak
        # at 9 is pure stutter, so X = z9 / (z9 + z10) has mean xi
        n = 12000
        xi = 0.1
        freqs = many_marker_table(n, {"9": 0.5, "10": 0.5})
        k1 = mx.GenotypeProfile.from_pairs({f"M{i}": ("10", "10") for i in range(n)})
        params = mx.ModelParameters(
            rho={"S": 25.0}, eta=40.0, xi=xi, phi={"S": {"K1": 1.0}}
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=params, trace_id="S",
            contributors={"K1": k1}, threshold=1e-9, seed=13,
        )
        trace = mx.simulate_trace(cfg)
        x = np.array(
            [
                trace.height(f"M{i}", "9")
                / (trace.height(f"M{i}", "9") + trace.height(f"M{i}", "10"))
                for i in range(n)
            ]
        )
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - xi) < 3 * se

    def test_hwe_draws_are_seed_stable(self):
        freqs = many_marker_table(3, {"8": 0.3, "9": 0.7})
        params = mx.ModelParameters(
            rho={"S": 25.0}, eta=30.0, xi=0.0, phi={"S": {"U1": 1.0}}
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=params, trace_id="S",
            contributors={"U1": None}, threshold=50.0, seed=99,
        )
        assert mx.simulate_trace(cfg) == mx.simulate_trace(cfg)


class TestProbabilityIntegralTransform:
    def _known_bundle(self, heights, rho=25.0, eta=30.0, xi=0.0, c=50.0):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.4, "9": 0.6}})
        k1 = mx.GenotypeProfile.from_pairs({"M": ("8", "8")})
        params = mx.ModelParameters(
            rho={"S": rho}, eta=eta, xi=xi, phi={"S": {"K1": 1.0}}
        )
        trace = mx.Trace(trace_id="S", threshold=c, heights={"M": heights})
        return mx.EvidenceBundle(
            traces=(trace,), frequencies=freqs,
            hypothesis=mx.Hypothesis(known={"K1": k1}), parameters=params,
        )

    def test_single_known_peak_truncated_formula(self):
        z, c, rho, eta = 800.0, 50.0, 25.0, 30.0
        b = self._known_bundle({"8": z}, rho=rho, eta=eta)
        rec = mx.probability_integral_transform(b)
        assert len(rec) == 1
        shape = rho * 2.0
        want = (gammainc(shape, z / eta) - gammainc(shape, c / eta)) / (
            1.0 - gammainc(shape, c / eta)
        )
        assert rec[0]["pit"] == pytest.approx(want, rel=1e-10)

    def test_unconditional_flag(self):
        z, rho, eta = 800.0, 25.0, 30.0
        b = self._known_bundle({"8": z}, rho=rho, eta=eta)
        rec = mx.probability_integral_transform(b, truncate=False)
        assert rec[0]["pit"] == pytest.approx(
            float(gammainc(rho * 2.0, z / eta)), rel=1e-10
        )

    def test_mixture_weights_match_enumeration(self):
        # one unknown: PIT weights come from the genotype posterior given
        # everything except the target height (observed-status retained)
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.3, "9": 0.3, "10": 0.4}})
        params = mx.ModelParameters(
            rho={"S": 22.0}, eta=28.0, xi=0.06, phi={"S": {"U1": 1.0}}
        )
        heights = {"8": 130.0, "9": 570.0, "10": 410.0}
        trace = mx.Trace(trace_id="S", threshold=50.0, heights={"M": heights})
        b = mx.EvidenceBundle(
            traces=(trace,), frequencies=freqs,
            hypothesis=mx.Hypothesis(known={}, unknown=("U1",)),
            parameters=params,
        )
        recs = mx.probability_integral_transform(b)
        target = next(r for r in recs if r["allele"] == "9")

        # enumeration oracle: replace the target factor by survival, weight
        # genotypes, and mix truncated CDFs
        b_zero = mx.EvidenceBundle(
            traces=(
                mx.Trace(trace_id="S", threshold=50.0,
                         heights={"M": {"8": 130.0, "9": 0.0, "10": 410.0}}),
            ),
            frequencies=freqs,
            hypothesis=b.hypothesis,
            parameters=params,
        )
        ladder = freqs.ladder("M")
        want = 0.0
        logws = []
        ds = []
        for counts, logw in oracle_table(b_zero, "M"):
            vec = counts["U1"]
            b8 = vec["8"]
            b9 = vec["9"]
            b10 = vec["10"]
            d9 = (1 - 0.06) * b9 + 0.06 * b10
            shape = 22.0 * d9
            # remove the zero-height dropout factor, add survival instead
            drop = math.log(gammainc(shape, 50.0 / 28.0)) if shape > 0 else 0.0
            surv = math.log(gammaincc(shape, 50.0 / 28.0)) if shape > 0 else -np.inf
            logws.append(logw - drop + surv)
            ds.append(d9)
        tot = logsumexp(logws)
        for logw, d9 in zip(logws, ds):
            w = math.exp(logw - tot)
            if w == 0.0 or d9 == 0.0:
                continue
            shape = 22.0 * d9
            qc = gammaincc(shape, 50.0 / 28.0)
            qz = gammaincc(shape, 570.0 / 28.0)
            want += w * (qc - qz) / qc
        assert target["pit"] == pytest.approx(want, rel=1e-9)

    def test_flat_mode_counts_zero_dose_genotypes(self):
        # without truncation a genotype giving the target no dose keeps its
        # weight, and its CDF at the height is 1 (all mass at 0)
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.3, "9": 0.3, "10": 0.4}})
        params = mx.ModelParameters(
            rho={"S": 22.0}, eta=28.0, xi=0.06, phi={"S": {"U1": 1.0}}
        )
        trace = mx.Trace(trace_id="S", threshold=50.0,
                         heights={"M": {"8": 600.0, "9": 570.0}})
        b = mx.EvidenceBundle(
            traces=(trace,), frequencies=freqs,
            hypothesis=mx.Hypothesis(known={}, unknown=("U1",)),
            parameters=params,
        )
        recs = mx.probability_integral_transform(b, truncate=False)
        target = next(r for r in recs if r["allele"] == "9")
        want = oracle_pit(b, "S", "9", truncate=False)
        assert want == pytest.approx(0.501083, abs=1e-6)
        assert target["pit"] == pytest.approx(want, rel=1e-9)

    def test_truncated_cdf_where_survival_underflows(self):
        # shape 1, scale 1: H | H >= C is C + Exp(1), so the value is
        # 1 - e^-(z - C) although Q(C) = e^-4000 underflows
        b = self._known_bundle({"8": 4000.5}, rho=0.5, eta=1.0, c=4000.0)
        (rec,) = mx.probability_integral_transform(b)
        assert rec["pit"] == pytest.approx(-math.expm1(-0.5), rel=1e-10)

    def test_truncated_cdf_against_mpmath(self):
        z, c, rho, eta = 3010.0, 3000.0, 1.85, 1.0
        b = self._known_bundle({"8": z}, rho=rho, eta=eta, c=c)
        (rec,) = mx.probability_integral_transform(b)
        with mpmath.workdps(40):
            def q(x):
                return mpmath.gammainc(2 * rho, x / eta, mpmath.inf, regularized=True)

            want = float(1 - q(z) / q(c))
        assert rec["pit"] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("truncate", [True, False])
    def test_random_instances_match_enumeration(self, truncate):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            b = random_case(rng, max_alleles=4, max_unknowns=2)
            for rec in mx.probability_integral_transform(b, truncate=truncate):
                if rec["marker"] != "M":
                    continue
                want = oracle_pit(b, rec["trace"], rec["allele"], truncate)
                if math.isnan(want):
                    assert math.isnan(rec["pit"])
                else:
                    assert rec["pit"] == pytest.approx(want, abs=1e-9)
                    checked += 1
        assert checked > 50

    @given(stn.integers(0, 2**32 - 1), stn.integers(2, 4), stn.booleans())
    @settings(max_examples=20, deadline=None)
    def test_stacked_markers_match_enumeration(self, seed, n_markers, truncate):
        # every peak of a stack of 2-4 markers, from one pass over the stack
        rng = np.random.default_rng(seed)
        b = random_case(rng, max_alleles=3, max_unknowns=3, n_markers=n_markers)
        (stack,) = b._stacks
        assert len(stack.plans) == n_markers
        records = mx.probability_integral_transform(b, truncate=truncate)
        observed = [
            (m, t.trace_id, a) for m in b.covered_markers() for t in b.traces
            for a in b.frequencies.ladder(m).alleles if t.height(m, a) >= t.threshold
        ]
        got = [(r["marker"], r["trace"], r["allele"]) for r in records]
        assert sorted(got) == sorted(observed)
        # marker by marker, then trace by trace
        group = {r[:2]: i for i, r in reversed(list(enumerate(observed)))}
        assert [group[r[:2]] for r in got] == sorted(group[r[:2]] for r in got)
        for rec in records:
            want = oracle_pit(b, rec["trace"], rec["allele"], truncate, rec["marker"])
            if math.isnan(want):
                assert math.isnan(rec["pit"])
            else:
                assert rec["pit"] == pytest.approx(want, abs=1e-9)

    def test_uniformity_sanity_single_replicate(self):
        rng = np.random.default_rng(41)
        n = 60
        freqs = many_marker_table(n, {"8": 0.5, "9": 0.5})
        k1 = mx.GenotypeProfile.from_pairs({f"M{i}": ("8", "9") for i in range(n)})
        params = mx.ModelParameters(
            rho={"S": 25.0}, eta=40.0, xi=0.05, phi={"S": {"K1": 1.0}}
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=params, trace_id="S",
            contributors={"K1": k1}, threshold=50.0, seed=17,
        )
        trace = mx.simulate_trace(cfg)
        b = mx.EvidenceBundle(
            traces=(trace,), frequencies=freqs,
            hypothesis=mx.Hypothesis(known={"K1": k1}), parameters=params,
        )
        pits = [r["pit"] for r in mx.probability_integral_transform(b)]
        assert len(pits) > 50
        assert st.kstest(pits, "uniform").pvalue > 1e-3
