"""Continuous-model primitives against high-precision oracles.

Frozen expected values were generated with mpmath at 40 digits; the
generating expressions are noted next to each literal.
"""

import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn
from scipy import special as sc

import mpmath

import mixref as mx
from mixref import peakmodel
from mixref.peakmodel import (
    gamma_cdf_shapes,
    gamma_log_cdf,
    gamma_log_cdf_grad,
    gamma_log_pdf,
    gamma_log_pdf_grad,
    gamma_log_sf,
)

# mpmath.log(mpmath.gammainc(50, 0, 2.5, regularized=True))
LOG_G_50_50_20 = -105.11301941622160429
# mpmath.gammainc(500/28.8, 0, 50/28.8, regularized=True)
DROPOUT_500_288_50 = 2.7968871461011112889e-12
# t = 2**-4.35; t / (1 + t)
LOGISTIC_HALF = 0.046744327611612712428
# mpmath.log(mpmath.gammainc(500, 0, 1.7, regularized=True))
LOG_P_500_17 = -2347.7129339685844607


class TestEffectiveAlleleCount:
    def test_weighted_sum(self):
        assert mx.effective_allele_count((0.5, 0.5), (2, 1)) == pytest.approx(1.5)

    def test_absent_allele(self):
        assert mx.effective_allele_count((1.0,), (0,)) == 0.0

    def test_three_contributors(self):
        got = mx.effective_allele_count((0.7, 0.2, 0.1), (1, 2, 0))
        assert got == pytest.approx(1.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mx.effective_allele_count((0.5, 0.5), (1, 1, 0))


class TestPostStutterCount:
    def test_no_stutter_identity(self):
        assert mx.post_stutter_count(0.0, 1.5, 2.0) == 1.5

    def test_mass_preserving_symmetric(self):
        assert mx.post_stutter_count(0.1, 1.0, 1.0) == pytest.approx(1.0)

    def test_pure_stutter_recipient(self):
        assert mx.post_stutter_count(0.079, 0.0, 2.0) == pytest.approx(0.158)

    def test_rejects_bad_xi(self):
        with pytest.raises(ValueError):
            mx.post_stutter_count(1.0, 1.0, 1.0)

    @given(
        stn.lists(stn.floats(0.01, 1.0), min_size=2, max_size=6),
        stn.floats(0.0, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_conserves_total_mass_when_ladder_closed(self, b, xi):
        # with every successor on the ladder (cyclically closed here),
        # stutter only moves mass: sum_a D_a == sum_a B_a
        d = [
            mx.post_stutter_count(xi, b[i], b[(i + 1) % len(b)])
            for i in range(len(b))
        ]
        assert sum(d) == pytest.approx(sum(b), rel=1e-12)


class TestPeakLogFactor:
    def test_degenerate_observed(self):
        obs = mx.PeakObservation(height=120.0, threshold=50.0)
        assert mx.peak_log_factor(obs, 25.0, 20.0, 0.0) == -np.inf

    def test_degenerate_unobserved(self):
        obs = mx.PeakObservation(height=0.0, threshold=50.0)
        assert mx.peak_log_factor(obs, 25.0, 20.0, 0.0) == 0.0

    def test_dropout_factor_matches_incomplete_gamma_oracle(self):
        obs = mx.PeakObservation(height=0.0, threshold=50.0)
        got = mx.peak_log_factor(obs, 25.0, 20.0, 2.0)
        assert got == pytest.approx(LOG_G_50_50_20, abs=1e-12)

    def test_density_matches_log_formula(self):
        obs = mx.PeakObservation(height=180.0, threshold=50.0)
        got = mx.peak_log_factor(obs, 25.0, 20.0, 0.4)
        shape = 10.0
        want = (
            (shape - 1) * math.log(180.0)
            - 180.0 / 20.0
            - math.lgamma(shape)
            - shape * math.log(20.0)
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_rejects_subthreshold_positive_height(self):
        with pytest.raises(ValueError):
            mx.PeakObservation(height=49.0, threshold=50.0)

    @pytest.mark.parametrize("height", [float("nan"), float("inf")])
    def test_rejects_non_finite_height(self, height):
        with pytest.raises(ValueError, match="non-finite height"):
            mx.PeakObservation(height=height, threshold=50.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            mx.PeakObservation(height=400.0, threshold=threshold)

    def test_continuity_in_parameters(self):
        obs = mx.PeakObservation(height=300.0, threshold=50.0)
        base = mx.peak_log_factor(obs, 25.0, 20.0, 1.3)
        for eps in (1e-6, 1e-7):
            assert abs(mx.peak_log_factor(obs, 25.0 + eps, 20.0, 1.3) - base) < 1e-4
            assert abs(mx.peak_log_factor(obs, 25.0, 20.0 + eps, 1.3) - base) < 1e-4


class TestDropoutCurves:
    def test_gamma_limit_small_threshold(self):
        assert mx.dropout_probability_gamma(500.0, 28.8, 1e-12) < 1e-10

    def test_gamma_limit_small_mu(self):
        assert mx.dropout_probability_gamma(1e-12, 28.8, 50.0) > 1.0 - 1e-9

    def test_gamma_value_against_oracle(self):
        got = mx.dropout_probability_gamma(500.0, 28.8, 50.0)
        assert got == pytest.approx(DROPOUT_500_288_50, rel=1e-10)

    def test_gamma_monotone_in_mu(self):
        mus = np.linspace(50, 2000, 40)
        vals = [mx.dropout_probability_gamma(m, 28.8, 50.0) for m in mus]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_logistic_midpoint(self):
        assert mx.dropout_probability_logistic(1.0, -4.35, 1.0) == pytest.approx(0.5)

    def test_logistic_vanishing_alpha(self):
        assert mx.dropout_probability_logistic(1e-300, -4.35, 2.0) < 1e-200

    def test_logistic_value(self):
        got = mx.dropout_probability_logistic(1.0, -4.35, 2.0)
        assert got == pytest.approx(LOGISTIC_HALF, rel=1e-12)
        assert got == pytest.approx(0.0467, abs=5e-5)

    def test_homozygous_trivial_points(self):
        assert mx.homozygous_dropout_logistic(0.0, -4.35) == 0.0
        assert mx.homozygous_dropout_logistic(1.0, -4.35) == pytest.approx(1.0)

    def test_homozygous_half(self):
        got = mx.homozygous_dropout_logistic(0.5, -4.35)
        assert got == pytest.approx(LOGISTIC_HALF, rel=1e-12)

    def test_threshold_model_dropout_bound(self):
        # homozygous dropout below squared single-allele dropout on a grid
        for mu in (100.0, 300.0, 900.0):
            for eta in (10.0, 30.0, 60.0):
                for c in (25.0, 50.0, 150.0):
                    d = mx.dropout_probability_gamma(mu, eta, c)
                    hom = mx.dropout_probability_gamma(2 * mu, eta, c)
                    assert hom < d * d


class TestReparametrization:
    def test_identity_point(self):
        assert mx.params_from_mean_cv(1.0, 1.0) == (1.0, 1.0)

    def test_published_point(self):
        rho, eta = mx.params_from_mean_cv(914.0, 0.178)
        # 1 / 0.178**2 and 914 * 0.178**2
        assert rho == pytest.approx(31.561671506122964, rel=1e-12)
        assert eta == pytest.approx(28.959176, rel=1e-12)

    def test_round_trip(self):
        rho, eta = mx.params_from_mean_cv(1055.0, 0.165)
        mu, sigma = mx.mean_cv_from_params(rho, eta)
        assert mu == pytest.approx(1055.0, rel=1e-12)
        assert sigma == pytest.approx(0.165, rel=1e-12)

    @given(stn.floats(1.0, 5000.0), stn.floats(0.01, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, mu, sigma):
        rho, eta = mx.params_from_mean_cv(mu, sigma)
        mu2, sigma2 = mx.mean_cv_from_params(rho, eta)
        assert mu2 == pytest.approx(mu, rel=1e-12)
        assert sigma2 == pytest.approx(sigma, rel=1e-12)


class TestGammaLogFunctions:
    def test_deep_lower_tail_series(self):
        assert gamma_log_cdf(1.7, 500.0, 1.0) == pytest.approx(
            LOG_P_500_17, rel=1e-13
        )

    def test_vector_and_scalar_agree(self):
        xs = np.array([1.7, 2.5, 50.0])
        shapes = np.array([500.0, 50.0, 2.0])
        vec = gamma_log_cdf(xs, shapes, 1.0)
        for x, a, v in zip(xs, shapes, vec):
            assert gamma_log_cdf(float(x), float(a), 1.0) == pytest.approx(v)

    def test_zero_shape_conventions(self):
        assert gamma_log_cdf(50.0, 0.0, 20.0) == 0.0
        assert gamma_log_pdf(50.0, 0.0, 20.0) == -np.inf
        assert gamma_log_sf(50.0, 0.0, 20.0) == -np.inf

    def test_sf_complements_cdf(self):
        lc = gamma_log_cdf(40.0, 3.0, 20.0)
        ls = gamma_log_sf(40.0, 3.0, 20.0)
        assert np.exp(lc) + np.exp(ls) == pytest.approx(1.0, rel=1e-12)

    def test_sf_upper_tail_does_not_underflow(self):
        # Q(1, 5000) = e^-5000 underflows gammaincc
        assert gamma_log_sf(5000.0, 1.0, 1.0) == pytest.approx(-5000.0, rel=1e-13)
        vec = gamma_log_sf(np.array([5000.0, 10.0]), 1.0, 1.0)
        assert vec == pytest.approx([-5000.0, -10.0], rel=1e-13)


# ---------------------------------------------------------------------------
# The gamma log functions and their derivatives against mpmath


def _mp_log_pdf(x, a, s):
    x, a, s = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(s)
    return (a - 1) * mpmath.log(x) - x / s - mpmath.loggamma(a) - a * mpmath.log(s)


def _mp_log_cdf(x, a, s):
    return mpmath.log(mpmath.gammainc(a, 0, mpmath.mpf(x) / s, regularized=True))


def _mp_log_sf(x, a, s):
    return mpmath.log(
        mpmath.gammainc(a, mpmath.mpf(x) / s, mpmath.inf, regularized=True)
    )


def _close(got, want, rel, abs_):
    want = float(want)
    return abs(got - want) <= abs_ + rel * abs(want)


_SHAPES = stn.floats(-2.0, 3.0).map(lambda e: 10.0**e)
_SCALES = stn.floats(0.5, 100.0)
# depth into a tail: x = a s e^-u below the mean, x = s (a + t (sqrt(a) + 1)) above
_LOWER = stn.floats(0.5, 12.0)
_UPPER = stn.floats(0.3, 3.3).map(lambda e: 10.0**e)


def _tail_point(a, s, below, depth):
    if below:
        return a * s * math.exp(-depth)
    return s * (a + depth * (math.sqrt(a) + 1.0))


class TestGammaAgainstMpmath:
    @given(_SHAPES, _SCALES, stn.booleans(), _LOWER, _UPPER)
    @settings(max_examples=150, deadline=None)
    def test_log_functions_in_both_tails(self, a, s, below, u, t):
        x = _tail_point(a, s, below, u if below else t)
        with mpmath.workdps(40):
            want = (_mp_log_pdf(x, a, s), _mp_log_cdf(x, a, s), _mp_log_sf(x, a, s))
        got = (gamma_log_pdf(x, a, s), gamma_log_cdf(x, a, s), gamma_log_sf(x, a, s))
        for name, g, w in zip(("pdf", "cdf", "sf"), got, want):
            assert _close(g, w, rel=1e-9, abs_=1e-12), (name, x, a, s, g, float(w))

    @given(_SHAPES, _SCALES, stn.booleans(), _LOWER, _UPPER)
    @settings(max_examples=100, deadline=None)
    def test_log_pdf_gradient(self, a, s, below, u, t):
        x = _tail_point(a, s, below, u if below else t)
        d_shape, d_scale = gamma_log_pdf_grad(x, a, s)
        with mpmath.workdps(40):
            w_shape = mpmath.diff(lambda b: _mp_log_pdf(x, b, s), a)
            w_scale = mpmath.diff(lambda c: _mp_log_pdf(x, a, c), s)
        assert _close(d_shape, w_shape, rel=1e-9, abs_=1e-9)
        assert _close(d_scale, w_scale, rel=1e-9, abs_=1e-9)

    @given(_SHAPES, _SCALES, stn.booleans(), _LOWER, _UPPER)
    @settings(max_examples=100, deadline=None)
    def test_log_cdf_gradient(self, a, s, below, u, t):
        x = _tail_point(a, s, below, u if below else t)
        d_shape, d_scale = gamma_log_cdf_grad(x, a, s, gamma_log_cdf(x, a, s))
        with mpmath.workdps(40):
            w_shape = mpmath.diff(lambda b: _mp_log_cdf(x, b, s), a)
            w_scale = mpmath.diff(lambda c: _mp_log_cdf(x, a, c), s)
        assert _close(d_shape, w_shape, rel=1e-6, abs_=1e-9), (x, a, s)
        assert _close(d_scale, w_scale, rel=1e-9, abs_=1e-12), (x, a, s)

    @given(stn.floats(400.0, 1000.0), stn.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_log_cdf_shape_derivative_in_series_branch(self, a, y):
        # P(a, y) < 1e-280 here, so gamma_log_cdf sums the ascending series
        assert gamma_log_cdf(y, a, 1.0) < math.log(1e-280)
        d_shape, _ = gamma_log_cdf_grad(y, a, 1.0, gamma_log_cdf(y, a, 1.0))
        with mpmath.workdps(40):
            want = mpmath.diff(lambda b: _mp_log_cdf(y, b, 1.0), a)
        assert _close(d_shape, want, rel=1e-7, abs_=0.0)

    def test_log_cdf_shape_derivative_at_zero_shape(self):
        # one-sided limit: log P(a, y) = -a E1(y) + O(a^2)
        d_shape, d_scale = gamma_log_cdf_grad(50.0, 0.0, 25.0, 0.0)
        assert d_shape == pytest.approx(-float(mpmath.e1(2.0)), rel=1e-14)
        assert d_scale == 0.0


def _two_call_difference(x, shape, scale):
    """The shape derivative as two gamma_log_cdf calls, one per side."""
    shape = np.asarray(shape, dtype=float)
    h = 1e-4 * np.minimum(shape, np.sqrt(shape))
    return (
        gamma_log_cdf(x, shape + h, scale) - gamma_log_cdf(x, shape - h, scale)
    ) / (2.0 * h)


class TestOneCallCentralDifference:
    """gamma_log_cdf_grad evaluates both sides in one call, bit for bit."""

    @given(_SHAPES, _SCALES, stn.booleans(), _LOWER, _UPPER)
    @settings(max_examples=150, deadline=None)
    def test_tail_points(self, a, s, below, u, t):
        x = _tail_point(a, s, below, u if below else t)
        d_shape, _ = gamma_log_cdf_grad(x, a, s, gamma_log_cdf(x, a, s))
        np.testing.assert_array_equal(d_shape, _two_call_difference(x, a, s))

    @given(
        stn.lists(
            stn.tuples(stn.floats(400.0, 1000.0), stn.floats(0.05, 2.0)),
            min_size=1, max_size=8,
        ),
        _SCALES,
    )
    @settings(max_examples=40, deadline=None)
    def test_series_branch_points_as_one_vector(self, points, s):
        a, y = np.array(points).T
        d_shape, _ = gamma_log_cdf_grad(y * s, a, s, gamma_log_cdf(y * s, a, s))
        np.testing.assert_array_equal(d_shape, _two_call_difference(y * s, a, s))


def _exp1_everywhere(x, shape, scale, log_cdf):
    """gamma_log_cdf_grad with E1 evaluated at every element and used
    where shape <= 0: the reference for the one that evaluates it there
    alone."""
    x, shape, scale = (np.asarray(v, dtype=float) for v in (x, shape, scale))
    h = 1e-4 * np.minimum(shape, np.sqrt(shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        sides = np.empty((2,) + np.broadcast(x, shape, scale).shape)
        sides[0], sides[1] = shape + h, shape - h
        upper, lower = gamma_log_cdf(x, sides, scale)
        d_shape = (upper - lower) / (2.0 * h)
        d_shape = np.where(shape > 0.0, d_shape, -sc.exp1(x / scale))
        y = x / scale
        d_scale = -np.exp(
            shape * np.log(y) - y - sc.gammaln(shape) - log_cdf
        ) / scale
    return d_shape, d_scale


class TestExp1AtZeroShapesAlone:
    """gamma_log_cdf_grad evaluates E1 only where shape <= 0, with the
    outputs of evaluating it everywhere, bit for bit."""

    @staticmethod
    def _counting_exp1():
        sizes = []

        def exp1(y):
            sizes.append(np.size(y))
            return sc.exp1(y)

        return sizes, mock.patch.object(
            peakmodel, "sc", mock.Mock(wraps=sc, exp1=exp1)
        )

    @given(stn.integers(0, 2**32 - 1), stn.integers(1, 4), stn.integers(1, 40),
           stn.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_arrays_with_zero_shapes(self, seed, n_sets, n, sides):
        rng = np.random.default_rng(seed)
        shape = rng.choice([0.0, 1e-3, 0.7, 4.0, 60.0, 700.0], size=(n_sets, n))
        shape *= rng.uniform(0.5, 2.0, shape.shape)
        shape[rng.random(shape.shape) < 0.3] = 0.0
        x, scale = rng.uniform(20.0, 200.0, n), rng.uniform(5.0, 60.0, (n_sets, 1))
        log_cdf = gamma_log_cdf(x, gamma_cdf_shapes(shape), scale)
        want = _exp1_everywhere(x, shape, scale, log_cdf[0])
        sizes, patched = self._counting_exp1()
        with patched:
            got = gamma_log_cdf_grad(
                x, shape, scale, log_cdf[0], log_cdf[1:] if sides else None
            )
        assert sum(sizes) == int((shape == 0.0).sum())
        for have, expected in zip(got, want):
            assert have.shape == expected.shape
            assert have.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [0.0, 3.0, np.nan])
    def test_scalars(self, shape):
        log_cdf = gamma_log_cdf(50.0, shape, 25.0)
        want = _exp1_everywhere(50.0, shape, 25.0, log_cdf)
        sizes, patched = self._counting_exp1()
        with patched:
            got = gamma_log_cdf_grad(50.0, shape, 25.0, log_cdf)
        assert sizes == ([] if shape == 3.0 else [1])
        for have, expected in zip(got, want):
            assert np.shape(have) == np.shape(expected) == ()
            assert np.asarray(have).tobytes() == np.asarray(expected).tobytes()


class TestModelParameters:
    def _phi(self):
        return {"T1": {"K1": 0.6, "U1": 0.3, "U2": 0.1}}

    def test_valid_construction(self):
        p = mx.ModelParameters(rho={"T1": 30.0}, eta=28.0, xi=0.08, phi=self._phi())
        assert p.mu_for("T1") == pytest.approx(840.0)
        assert p.sigma_for("T1") == pytest.approx(1 / math.sqrt(30.0))

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            mx.ModelParameters(rho={"T1": 0.0}, eta=28.0, xi=0.08, phi=self._phi())

    def test_rejects_xi_out_of_range(self):
        with pytest.raises(ValueError):
            mx.ModelParameters(rho={"T1": 30.0}, eta=28.0, xi=1.0, phi=self._phi())

    def test_rejects_bad_simplex(self):
        with pytest.raises(ValueError):
            mx.ModelParameters(
                rho={"T1": 30.0}, eta=28.0, xi=0.08,
                phi={"T1": {"K1": 0.6, "U1": 0.3}},
            )

    def test_rejects_increasing_unknowns(self):
        p = mx.ModelParameters(
            rho={"T1": 30.0}, eta=28.0, xi=0.08,
            phi={"T1": {"K1": 0.6, "U1": 0.1, "U2": 0.3}},
        )
        with pytest.raises(ValueError):
            p.check_unknown_ordering(("U1", "U2"))

    @pytest.mark.parametrize(
        "change",
        [
            {"phi": {"T1": {"K1": float("nan"), "U1": 0.3, "U2": 0.1}}},
            {"rho": {"T1": float("inf")}},
            {"rho": {"T1": float("nan")}},
            {"eta": float("inf")},
            {"xi": float("nan")},
            {"marker_rho": {"FGA": {"T1": float("inf")}}},
            {"marker_rho": {"FGA": {"T1": float("nan")}}},
            {"marker_rho": {"FGA": {"T1": -1.0}}},
            {"marker_xi": {"FGA": float("nan")}},
            {"marker_xi": {"FGA": 1.0}},
        ],
    )
    def test_rejects_non_finite_values(self, change):
        args = dict(rho={"T1": 30.0}, eta=28.0, xi=0.08, phi=self._phi())
        args.update(change)
        with pytest.raises(ValueError):
            mx.ModelParameters(**args)

    @pytest.mark.parametrize("phi, message", [
        ({"K1": np.float64(0.6), "U1": np.float64(0.5)}, "sum to 1.1, not 1"),
        ({"K1": np.float64("nan"), "U1": np.float64(0.4)},
         "non-finite fraction in trace 'T1': {'K1': nan, 'U1': 0.4}"),
    ], ids=["sum", "non-finite"])
    def test_fraction_errors_print_plain_numbers(self, phi, message):
        with pytest.raises(ValueError) as err:
            mx.ModelParameters(rho={"T1": 30.0}, eta=28.0, xi=0.08, phi={"T1": phi})
        assert message in str(err.value)
        assert "np." not in str(err.value)

    def test_ordering_error_prints_plain_numbers(self):
        phi = {"K1": np.float64(0.6), "U1": np.float64(0.1), "U2": np.float64(0.3)}
        p = mx.ModelParameters(rho={"T1": 30.0}, eta=28.0, xi=0.08, phi={"T1": phi})
        with pytest.raises(ValueError, match=r"'T1': \[0\.1, 0\.3\]$"):
            p.check_unknown_ordering(("U1", "U2"))

    def test_rejects_override_of_another_trace(self):
        with pytest.raises(ValueError, match=r"marker_rho\['FGA'\] names trace 'T2'"):
            mx.ModelParameters(rho={"T1": 30.0}, eta=28.0, xi=0.08, phi=self._phi(),
                               marker_rho={"FGA": {"T2": 12.0}})

    def test_marker_overrides(self):
        p = mx.ModelParameters(
            rho={"T1": 30.0}, eta=28.0, xi=0.08, phi=self._phi(),
            marker_rho={"FGA": {"T1": 12.0}}, marker_xi={"FGA": 0.02},
        )
        assert p.rho_for("T1", "FGA") == 12.0
        assert p.rho_for("T1", "D2") == 30.0
        assert p.xi_for_marker("T1", "FGA") == 0.02
        assert p.xi_for_marker("T1", "D2") == 0.08


# ---------------------------------------------------------------------------
# The deep tails at large shapes, and the point mass at zero


def _mp_log_sf_by_quadrature(y, a):
    """log Q(a, y) for y > a - 1, from Gamma(a, y) = y^(a-1) e^-y
    * integral over u > 0 of (1 + u/y)^(a-1) e^-u, whose integrand falls
    from 1 without a peak; mpmath's gammainc stops short there
    (NoConvergence) at some large shapes."""
    a, y = mpmath.mpf(a), mpmath.mpf(y)
    integral = mpmath.quad(lambda u: mpmath.exp((a - 1) * mpmath.log1p(u / y) - u),
                           [0, mpmath.inf])
    return (a - 1) * mpmath.log(y) - y + mpmath.log(integral) - mpmath.loggamma(a)


class TestDeepTailsAtLargeShapes:
    """Each deep tail in one array call that holds points on both sides of
    the underflow of gammainc or gammaincc, against mpmath."""

    def test_lower_tail(self):
        a, ratio = (v.ravel() for v in np.meshgrid(
            np.logspace(0.0, 7.0, 15), [0.05, 0.3, 0.6, 0.9, 0.98]))
        # y/a = 0.985: the ascending series stopped at 500 terms here and
        # was off by 4.5e-7 relative
        a, y = np.append(a, 1e7), np.append(a * ratio, 9.85e6)
        deep = sc.gammainc(a, y) < 1e-280
        assert deep.any() and not deep.all()
        got = gamma_log_cdf(y, a, 1.0)
        with mpmath.workdps(40):
            want = [_mp_log_cdf(v, u, 1.0) for u, v in zip(a, y)]
        for g, w, u, v in zip(got, want, a, y):
            assert _close(g, w, rel=1e-9, abs_=0.0), (u, v, g, float(w))

    def test_upper_tail(self):
        a, k = (v.ravel() for v in np.meshgrid(
            np.logspace(0.0, 7.0, 15), [20.0, 36.0, 60.0, 120.0, 200.0]))
        y = a + k * np.sqrt(a)
        deep = sc.gammaincc(a, y) < 1e-280
        assert deep.any() and not deep.all()
        with mock.patch.object(peakmodel, "_log_upper_gamma_cf",
                               wraps=peakmodel._log_upper_gamma_cf) as fraction:
            got = gamma_log_sf(y, a, 1.0)
        # one array call for every deep element, not one call per element
        assert fraction.call_count == 1
        assert len(fraction.call_args.args[0]) == deep.sum()
        with mpmath.workdps(30):
            want = [_mp_log_sf_by_quadrature(v, u) for u, v in zip(a, y)]
        for g, w, u, v in zip(got, want, a, y):
            assert _close(g, w, rel=1e-9, abs_=0.0), (u, v, g, float(w))

    def test_sf_of_point_mass_below_zero(self):
        # the point mass at 0 exceeds any negative x with probability 1
        assert gamma_log_sf(-1.0, 0.0, 1.0) == 0.0
        got = gamma_log_sf(np.array([-1.0, 0.0, 1.0, -1.0, 0.0]),
                           np.array([0.0, 0.0, 0.0, 2.0, 2.0]), 1.0)
        np.testing.assert_array_equal(got, [0.0, -np.inf, -np.inf, 0.0, 0.0])


_DROPOUT = mx.PeakObservation(0.0, 50.0)


@pytest.mark.parametrize("function, args, name", [
    (mx.params_from_mean_cv, (math.nan, 0.2), "mu"),
    (mx.params_from_mean_cv, (math.inf, 0.2), "mu"),
    (mx.mean_cv_from_params, (math.nan, 1.0), "rho"),
    (mx.dropout_probability_gamma, (math.nan, 1.0, 50.0), "mu"),
    (mx.dropout_probability_logistic, (1.0, 1.0, math.nan), "hbar"),
    (mx.peak_log_factor, (_DROPOUT, math.nan, 1.0, 1.0), "rho"),
    (mx.effective_allele_count, ([math.nan, 1.0], [1, 1]), "phi"),
    (mx.post_stutter_count, (0.1, math.nan, 1.0), "b_here"),
    (mx.homozygous_dropout_logistic, (0.5, math.nan), "beta"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_public_helpers_refuse_non_finite_arguments(function, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        function(*args)
