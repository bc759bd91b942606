"""Checks on the published-case excerpt beyond the acceptance criteria."""

import math

import numpy as np
import pytest

import mixref as mx
from mixref import io
from mixref.estimation import (
    FitSpecification,
    _ReportingChart,
    _Structure,
    numeric_hessian,
)

from conftest import DATA


@pytest.fixture(scope="module")
def investigative_bundle(pubcase):
    """Combined traces under one unknown (deconvolution hypothesis)."""
    pub = pubcase
    hyp = io.build_hypothesis(
        pub["case"].hypotheses["investigative"], pub["profiles"]
    )
    table3 = pub["params"]
    # defence fractions with the dropin role removed and rescaled
    phi = {}
    for tid, fr in table3.phi.items():
        kept = {"K1": fr["K1"], "K2": fr["K2"], "U1": fr["U1"]}
        total = sum(kept.values())
        phi[tid] = {r: v / total for r, v in kept.items()}
    params = mx.ModelParameters(
        rho=dict(table3.rho), eta=table3.eta, xi=table3.xi, phi=phi
    )
    return mx.EvidenceBundle(
        traces=pub["traces"], frequencies=pub["freqs"],
        hypothesis=hyp, parameters=params,
    )


@pytest.fixture(scope="module")
def defence_fit(pubcase_defence_bundle):
    """The excerpt's defence fit, as the command line runs it."""
    spec = FitSpecification(bundle=pubcase_defence_bundle)
    return spec, mx.fit(spec, hypothesis_id="defence")


class TestDefenceFit:
    def test_exact_gradients_keep_passes_low(self, defence_fit):
        _, res = defence_fit
        assert res.converged
        # finite-difference gradients took 1351 passes on this fit
        assert res.n_evaluations <= 250

    def test_reports_every_start(self, defence_fit):
        _, res = defence_fit
        starts = res.start_log_likelihoods
        assert len(starts) == 3
        assert max(starts) == res.log_likelihood
        # the starts end in different local optima, several nats apart
        assert max(starts) - min(starts) > 1.0

    def test_standard_errors_match_value_hessian(self, defence_fit):
        spec, res = defence_fit
        chart = _ReportingChart(_Structure(spec), res.parameters)
        bundle = spec.bundle

        def ll_of(v):
            params = chart.build_params(np.asarray(v)[None])[0].parameters(0)
            return mx.total_log_likelihood(bundle.with_parameters(params))

        cov = np.linalg.inv(-numeric_hessian(ll_of, chart.values))
        want = np.sqrt(np.diag(cov))
        got = []
        for kind, where in chart.coords:
            if kind == "sigma":
                got.append(res.standard_errors[where[0]]["sigma"])
            elif kind == "mu":
                got.append(res.standard_errors[where]["mu"])
            elif kind == "xi":
                got.append(res.standard_errors[where[0]]["xi"])
            else:
                traces, unit = where
                blk = next(b for b, _ in chart.phi_layout if b.traces == traces)
                got.append(res.standard_errors[traces[0]]["phi"][blk.roles[unit[0]]])
        assert np.allclose(got, want, rtol=1e-2, atol=0.0)


class TestDeconvolution:
    def test_d16_top_genotype_matches_defendant(self, investigative_bundle):
        top = mx.top_k_marker_genotypes(investigative_bundle, "D16", 3)
        assert top[0][0]["U1"] == ("11", "13")
        probs = [p for _, p in top]
        assert probs == sorted(probs, reverse=True)

    def test_joint_profile_headed_by_defendant_alleles(self, investigative_bundle):
        b = investigative_bundle
        per_marker = {
            m: mx.top_k_marker_genotypes(b, m, 5) for m in b.covered_markers()
        }
        joint = mx.top_k_joint_profiles(per_marker, 5)
        top_profile, top_prob = joint[0]
        assert top_profile["D16"]["U1"] == ("11", "13")
        assert top_profile["D2"]["U1"] == ("16", "17")
        assert top_profile["TH01"]["U1"] == ("9.3", "9.3")
        assert 0.0 < top_prob <= 1.0
        assert mx.generic_efficiency_loss(top_prob) >= 0.0

    def test_generic_loss_arithmetic_from_reported_top_probability(self):
        # the published combined-case top profile probability
        assert mx.generic_efficiency_loss(0.436) == pytest.approx(0.3605, abs=1e-3)


class TestConditioning:
    def test_classifying_allele_22_as_stutter(self, pubcase_defence_bundle):
        b = pubcase_defence_bundle
        cond = mx.conditioned_presence(b, "D2", {"22": "absent"})
        bf = mx.brute_force_log_likelihood(b, "D2", presence={"22": False})
        assert cond.log_likelihood == pytest.approx(bf, rel=1e-10)
        assert cond.presence["22"] == pytest.approx(0.0, abs=1e-12)
        plain = mx.marker_posterior(b, "D2")
        assert cond.log_likelihood <= plain.log_likelihood
        # conditioning on the dominant explanation costs little likelihood
        assert cond.log_likelihood > plain.log_likelihood + math.log(0.9)


class TestCombinedVersusSeparate:
    def test_total_is_sum_of_marker_terms(self, pubcase_defence_bundle):
        b = pubcase_defence_bundle
        total = mx.total_log_likelihood(b)
        by_marker = sum(
            mx.marker_log_likelihood(b, m) for m in b.covered_markers()
        )
        assert total == pytest.approx(by_marker, rel=1e-12)

    def test_dp_matches_brute_force_on_every_marker(self, pubcase_defence_bundle):
        b = pubcase_defence_bundle
        for marker in b.covered_markers():
            dp = mx.marker_log_likelihood(b, marker)
            bf = mx.brute_force_log_likelihood(b, marker)
            assert dp == pytest.approx(bf, rel=1e-10)


class TestDiagnostics:
    def test_pit_covers_both_traces(self, pubcase_defence_bundle):
        records = mx.probability_integral_transform(pubcase_defence_bundle)
        by_trace = {r["trace"] for r in records}
        assert by_trace == {"MC15", "MC18"}
        n_observed = sum(
            1
            for t in pubcase_defence_bundle.traces
            for m in t.markers()
            for h in t.heights[m].values()
            if h > 0
        )
        assert len(records) == n_observed
        for r in records:
            assert 0.0 <= r["pit"] <= 1.0


class TestSingleSourceExcerpt:
    """Single-individual profile with large peaks, including AMEL.

    Reproduces the qualitative published findings: fitted under two
    unknown contributors, essentially all DNA is attributed to the first
    one, and with stutter peaks pre-filtered the stutter proportion is
    poorly identified near zero.
    """

    HEIGHTS = {
        "D8": {"13": 4364.0},
        "D21": {"28": 2646.0, "29": 2490.0},
        "CSF1PO": {"11": 2695.0},
        "D3": {"14": 2249.0, "16": 2205.0},
        "TH01": {"6": 1268.0, "9.3": 1294.0},
        "TPOX": {"8": 1394.0, "11": 1526.0},
        "AMEL": {"X": 4289.0},
        "D5": {"11": 2053.0, "13": 1827.0},
        "FGA": {"23": 2444.0},
    }

    def _freqs(self):
        rng = np.random.default_rng(8)
        table = {}
        for marker, peaks in self.HEIGHTS.items():
            if marker == "AMEL":
                table[marker] = {"X": 0.5, "Y": 0.5}
                continue
            labels = set(peaks)
            base = sorted(int(float(a)) for a in labels if "." not in a)
            lo = (base[0] if base else 8) - 2
            ladder = {str(v) for v in range(lo, lo + 8)} | labels
            w = rng.dirichlet(np.ones(len(ladder)) * 2.0)
            table[marker] = dict(zip(sorted(ladder, key=float if all(
                "." not in a or a.replace(".", "").isdigit() for a in ladder
            ) else str), w))
        return mx.FrequencyTable.from_dict(table)

    def test_two_unknown_fit_attributes_everything_to_one(self):
        freqs = self._freqs()
        trace = mx.Trace(trace_id="J", threshold=500.0, heights=self.HEIGHTS)
        hyp = mx.Hypothesis(known={}, unknown=("U1", "U2"))
        params0 = mx.ModelParameters(
            rho={"J": 10.0}, eta=200.0, xi=0.03,
            phi={"J": {"U1": 0.8, "U2": 0.2}},
        )
        bundle = mx.EvidenceBundle(
            traces=(trace,), frequencies=freqs, hypothesis=hyp,
            parameters=params0,
        )
        res = mx.fit(
            FitSpecification(bundle=bundle, compute_standard_errors=False)
        )
        est = res.estimates["J"]
        assert est["phi"]["U1"] > 0.99
        assert res.boundary["J"]["phi"]["U2"]
        assert 1400.0 < est["mu"] < 2800.0
        assert est["xi"] < 0.15
