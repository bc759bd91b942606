"""Fitting, standard errors, weight of evidence, profile likelihood, sweeps."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as stn

import mixref as mx
from mixref import estimation
from mixref.engine import _ParameterSets
from mixref.estimation import (
    FitSpecification,
    _boundary_flags,
    _evaluate,
    _numeric_jacobian,
    _ReportingChart,
    _Structure,
    numeric_gradient,
    numeric_hessian,
)

from conftest import random_case


def _chart_at(chart, x):
    """A chart's ModelParameters and Jacobian at one point x."""
    sets, jac, _ = chart(np.asarray(x, dtype=float)[None])
    return sets.parameters(0), jac[0]


def _pack(structure, params):
    """The optimizer's coordinates of ModelParameters."""
    return structure.pack(_ParameterSets.of(structure.bundle, [params]))[0]


def make_simulated_bundle(seed=0, n_markers=8, phi=(0.7, 0.3), mu=1000.0,
                          sigma=0.2, xi=0.08, threshold=50.0):
    rng = np.random.default_rng(seed)
    freqs = mx.FrequencyTable.from_dict(
        {
            f"M{i}": dict(zip(["7", "8", "9", "10", "11", "12"],
                              rng.dirichlet(np.ones(6) * 3.0)))
            for i in range(n_markers)
        }
    )
    contributors = {}
    for i in range(len(phi)):
        contributors[f"K{i+1}"] = mx.draw_genotype(freqs, rng)
    rho, eta = mx.params_from_mean_cv(mu, sigma)
    params = mx.ModelParameters(
        rho={"S": rho}, eta=eta, xi=xi,
        phi={"S": dict(zip(contributors, phi))},
    )
    cfg = mx.SimulationConfig(
        frequencies=freqs, parameters=params, trace_id="S",
        contributors=contributors, threshold=threshold,
        seed=int(rng.integers(2**31)),
    )
    trace = mx.simulate_trace(cfg)
    hyp = mx.Hypothesis(known=contributors)
    bundle = mx.EvidenceBundle(
        traces=(trace,), frequencies=freqs, hypothesis=hyp, parameters=params
    )
    return bundle, params


def make_two_trace_bundle(seed=61, n_markers=10):
    """Traces A (mu 900) and B (mu 1400) of the same two knowns, eta 30."""
    rng = np.random.default_rng(seed)
    freqs = mx.FrequencyTable.from_dict(
        {
            f"M{i}": dict(zip(["7", "8", "9", "10", "11"],
                              rng.dirichlet(np.ones(5) * 3.0)))
            for i in range(n_markers)
        }
    )
    k1 = mx.draw_genotype(freqs, rng)
    k2 = mx.draw_genotype(freqs, rng)
    eta = 30.0
    truth = {
        "A": {"rho": 900.0 / eta, "phi": {"K1": 0.8, "K2": 0.2}},
        "B": {"rho": 1400.0 / eta, "phi": {"K1": 0.35, "K2": 0.65}},
    }
    traces = []
    for tid, cfg in truth.items():
        params = mx.ModelParameters(
            rho={tid: cfg["rho"]}, eta=eta, xi=0.06, phi={tid: cfg["phi"]}
        )
        traces.append(
            mx.simulate_trace(
                mx.SimulationConfig(
                    frequencies=freqs, parameters=params, trace_id=tid,
                    contributors={"K1": k1, "K2": k2}, threshold=50.0,
                    seed=int(rng.integers(2**31)),
                )
            )
        )
    params0 = mx.ModelParameters(
        rho={t: truth[t]["rho"] for t in truth}, eta=eta, xi=0.06,
        phi={t: dict(truth[t]["phi"]) for t in truth},
    )
    return mx.EvidenceBundle(
        traces=tuple(traces), frequencies=freqs,
        hypothesis=mx.Hypothesis(known={"K1": k1, "K2": k2}),
        parameters=params0,
    )


def _record_searches(monkeypatch):
    """The L-BFGS-B searches of the fits to come, each with its options, in
    the order they are made."""
    searches = []

    class Recording(estimation._LBFGSB):
        def __init__(self, x0, **options):
            super().__init__(x0, **options)
            self.x0 = np.array(x0, dtype=float)
            searches.append((self, options))

    monkeypatch.setattr(estimation, "_LBFGSB", Recording)
    return searches


def _assert_each_as_if_alone(spec, searches, res):
    """Each start's search equals scipy's L-BFGS-B from its start alone,
    every point a one-set engine call, and the fit counts their points."""
    bundle, structure = spec.bundle, _Structure(spec)

    def alone(theta):
        try:
            params, jac = _chart_at(structure.unpack, theta)
            ll, grad = mx.log_likelihood_and_gradient(bundle.with_parameters(params))
        except (ValueError, OverflowError, FloatingPointError):
            return estimation._PENALTY, np.zeros(len(theta))
        grad = np.array([grad[k] for k in structure.keys]) @ jac
        if not (np.isfinite(ll) and np.all(np.isfinite(grad))):
            return estimation._PENALTY, np.zeros(len(theta))
        return -ll, -grad

    thetas = estimation._starting_points(spec, structure)
    assert len(searches) == len(thetas)
    for theta0, (got, options) in zip(thetas, searches):
        assert got.x0.tobytes() == theta0.tobytes()
        want = scipy.optimize.minimize(alone, theta0, jac=True, method="L-BFGS-B",
                                       options=options)
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.fun, got.nit, got.nfev) == (want.fun, want.nit, want.nfev)
    assert res.n_evaluations == sum(search.nfev for search, _ in searches)


class TestFit:
    def test_all_fixed_returns_exact_likelihood(self):
        bundle, params = make_simulated_bundle(seed=4, n_markers=4)
        spec = FitSpecification(
            bundle=bundle,
            fixed={
                "rho": dict(params.rho),
                "eta": params.eta,
                "xi": params.xi,
                "phi": {t: dict(v) for t, v in params.phi.items()},
            },
        )
        res = mx.fit(spec)
        assert res.converged
        assert res.iterations == 0
        assert res.log_likelihood == pytest.approx(
            mx.total_log_likelihood(bundle), rel=1e-14
        )
        assert res.estimates["S"]["mu"] == pytest.approx(params.mu_for("S"))
        assert res.estimates["S"]["phi"] == pytest.approx(params.phi["S"])

    def test_mu_sigma_overrides_equal_rho_eta(self):
        bundle, params = make_simulated_bundle(seed=9, n_markers=3)
        spec = FitSpecification(
            bundle=bundle,
            fixed={
                "mu": {"S": params.mu_for("S")},
                "sigma": {"S": params.sigma_for("S")},
                "xi": params.xi,
                "phi": {t: dict(v) for t, v in params.phi.items()},
            },
        )
        res = mx.fit(spec)
        assert res.log_likelihood == pytest.approx(
            mx.total_log_likelihood(bundle), rel=1e-12
        )

    def test_fixed_mu_alone_is_held_and_has_no_se(self):
        bundle, _ = make_simulated_bundle(seed=9, n_markers=4)
        res = mx.fit(FitSpecification(bundle=bundle, fixed={"mu": 900.0}))
        assert res.converged
        assert res.estimates["S"]["mu"] == pytest.approx(900.0, rel=1e-12)
        assert res.standard_errors["S"]["mu"] is None
        assert res.standard_errors["S"]["sigma"] is not None

    def test_fixed_sigma_is_fixed_rho(self):
        bundle, _ = make_simulated_bundle(seed=9, n_markers=3)
        sigma = 0.23
        by_sigma, by_rho = (
            mx.fit(FitSpecification(bundle=bundle, fixed=fixed,
                                    compute_standard_errors=False))
            for fixed in ({"sigma": sigma}, {"rho": 1.0 / sigma**2})
        )
        assert by_sigma.log_likelihood == by_rho.log_likelihood
        assert by_sigma.estimates == by_rho.estimates
        assert by_sigma.estimates["S"]["sigma"] == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("fixed", [
        {"mu": 900.0, "eta": 30.0},
        {"sigma": {"A": 0.2}, "rho": {"A": 25.0}},
        {"mu": {"A": 900.0, "B": 1400.0}},  # both traces share eta
        {"mu": {"A": 900.0}, "sigma": {"A": 0.0}},
    ])
    def test_conflicting_overrides_refused(self, fixed):
        bundle = make_two_trace_bundle(n_markers=1)
        with pytest.raises(ValueError):
            _Structure(FitSpecification(bundle=bundle, fixed=fixed))

    @pytest.mark.parametrize("fixed", [
        {"rho": {"TYPO": 30.0}},
        {"phi": {"TYPO": {"K1": 0.7, "K2": 0.3}}},
    ])
    def test_override_of_unknown_trace_refused(self, fixed):
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)
        with pytest.raises(ValueError, match="'TYPO'"):
            _Structure(FitSpecification(bundle=bundle, fixed=fixed))

    @pytest.mark.parametrize("fixed", [
        {"phi": {"S": 0.5}},
        {"phi": 0.5},
        {"xi": "abc"},
    ])
    def test_wrong_typed_override_refused(self, fixed):
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)
        family = next(iter(fixed))
        with pytest.raises(ValueError, match=f"fixed {family} for trace 'S'"):
            _Structure(FitSpecification(bundle=bundle, fixed=fixed))

    @pytest.mark.parametrize("fixed", [{}, "all"])
    def test_evaluations_count_every_engine_pass(self, monkeypatch, fixed):
        bundle, params = make_simulated_bundle(seed=9, n_markers=2)
        if fixed == "all":
            fixed = {"rho": dict(params.rho), "eta": params.eta, "xi": params.xi,
                     "phi": {t: dict(v) for t, v in params.phi.items()}}
        calls = []  # one entry per parameter set evaluated

        def counting_batch(bundle, sets, _pass=estimation._batch_passes):
            calls.extend(range(len(sets.rho)))
            return _pass(bundle, sets)

        def counting_value(bundle, _pass=estimation.total_log_likelihood):
            calls.append(bundle)
            return _pass(bundle)

        monkeypatch.setattr(estimation, "_batch_passes", counting_batch)
        monkeypatch.setattr(estimation, "total_log_likelihood", counting_value)
        res = mx.fit(FitSpecification(bundle=bundle, fixed=fixed,
                                      compute_standard_errors=False))
        assert res.n_evaluations == len(calls) > 0

    @pytest.mark.parametrize("fixed", [{}, "all"])
    def test_one_search_per_start(self, monkeypatch, fixed):
        bundle, params = make_simulated_bundle(seed=9, n_markers=2)
        if fixed == "all":
            fixed = {"rho": dict(params.rho), "eta": params.eta, "xi": params.xi,
                     "phi": {t: dict(v) for t, v in params.phi.items()}}
        searches = _record_searches(monkeypatch)
        res = mx.fit(FitSpecification(bundle=bundle, fixed=fixed,
                                      compute_standard_errors=False))
        if fixed:
            assert searches == []
        else:
            optima = [-float(search.fun) for search, _ in searches]
            assert optima == list(res.start_log_likelihoods)
            assert len(optima) == estimation._N_STARTS

    def test_one_assemble_per_engine_pass(self, monkeypatch):
        # the chain rule comes with the parameters: no Jacobian by finite
        # differences of the chart inside a pass, in the fit or its errors;
        # each round is one walk of the chart over all its points and one
        # engine call over all its sets
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)
        counts = {"assemble": 0, "rows": 0, "engine": 0, "sets": 0}
        rounds = []  # per batched evaluation: (points, assembles, rows, calls, sets)
        assemble = _Structure.assemble
        engine_pass = estimation._batch_passes
        evaluate = estimation._evaluate

        def counting_assemble(self, free, n_rows, *args, **kwargs):
            counts["assemble"] += 1
            counts["rows"] += n_rows
            return assemble(self, free, n_rows, *args, **kwargs)

        def counting_engine(bundle, sets):
            counts["engine"] += 1
            counts["sets"] += len(sets.rho)
            return engine_pass(bundle, sets)

        def counting_evaluate(structure, chart, points):
            before = dict(counts)
            out = evaluate(structure, chart, points)
            rounds.append((len(points), *(counts[k] - before[k] for k in counts)))
            return out

        monkeypatch.setattr(_Structure, "assemble", counting_assemble)
        monkeypatch.setattr(estimation, "_batch_passes", counting_engine)
        monkeypatch.setattr(estimation, "_evaluate", counting_evaluate)
        res = mx.fit(FitSpecification(bundle=bundle))
        assert res.standard_errors["S"]["mu"] is not None
        assert counts["sets"] > res.n_evaluations
        assert all(assembles == calls == 1 and points == rows == sets
                   for points, assembles, rows, calls, sets in rounds)
        # the fit's rounds, then the standard errors' 2n points in one
        assert sum(points for points, *_ in rounds[:-1]) == res.n_evaluations
        assert rounds[-1][0] == 2 * _Structure(FitSpecification(bundle=bundle)).n_free

    def test_a_fit_builds_no_parameters_per_point(self, monkeypatch):
        # the chart hands the engine arrays: ModelParameters are built for
        # the result, not for each point evaluated
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)
        built = []

        def counting(self, _check=mx.ModelParameters.__post_init__):
            built.append(self)
            _check(self)

        monkeypatch.setattr(mx.ModelParameters, "__post_init__", counting)
        res = mx.fit(FitSpecification(bundle=bundle))
        assert res.standard_errors["S"]["mu"] is not None
        assert res.n_evaluations > 20
        assert len(built) <= len(res.start_log_likelihoods) + 2

    def test_mismatched_extra_start_refused(self):
        bundle, params = make_simulated_bundle(seed=9, n_markers=2)
        other = mx.ModelParameters(rho={"MC18": 30.0}, eta=params.eta, xi=params.xi,
                                   phi={"MC18": dict(params.phi["S"])})
        with pytest.raises(ValueError, match="extra start 1 does not fit the bundle"):
            FitSpecification(bundle=bundle, extra_starts=(params, other))
        short = mx.ModelParameters(rho=dict(params.rho), eta=params.eta, xi=params.xi,
                                   phi={"S": {"K1": 1.0}})
        with pytest.raises(ValueError, match="extra start 0 .*roles"):
            FitSpecification(bundle=bundle, extra_starts=(short,))

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True, "3", None])
    def test_max_iterations_must_be_a_positive_integer(self, cap):
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)
        with pytest.raises(ValueError, match="max_iterations"):
            FitSpecification(bundle=bundle, max_iterations=cap)
        assert FitSpecification(bundle=bundle, max_iterations=np.int64(1))

    @pytest.mark.parametrize("case", ["simulated", "pubcase"])
    def test_every_start_as_if_alone(self, monkeypatch, case, request):
        # lockstep starts: each start's search is the one scipy's L-BFGS-B
        # run by itself over one-set engine calls makes
        if case == "simulated":
            bundle = make_simulated_bundle(seed=9, n_markers=2)[0]
        else:
            bundle = request.getfixturevalue("pubcase_defence_bundle")
        spec = FitSpecification(bundle=bundle, compute_standard_errors=False)
        searches, batches = _record_searches(monkeypatch), []

        def counting(bundle, sets, _pass=estimation._batch_passes):
            batches.append(len(sets.rho))
            return _pass(bundle, sets)

        monkeypatch.setattr(estimation, "_batch_passes", counting)
        res = mx.fit(spec)
        assert max(batches) == estimation._N_STARTS
        _assert_each_as_if_alone(spec, searches, res)

    @pytest.mark.parametrize("seed, n_markers", [(9, 2), (7, 12)])
    def test_standard_errors_as_one_point_at_a_time(self, seed, n_markers):
        # the 2n points of the Hessian in one batch give the errors that
        # _numeric_jacobian's one point at a time gives
        bundle, _ = make_simulated_bundle(seed=seed, n_markers=n_markers)
        spec = FitSpecification(bundle=bundle)
        res = mx.fit(spec)
        structure = _Structure(spec)
        chart = _ReportingChart(structure, res.parameters)

        def gradient(v):
            params, jac = _chart_at(chart.build_params, v)
            _, grad = mx.log_likelihood_and_gradient(bundle.with_parameters(params))
            return np.array([grad[k] for k in structure.keys]) @ jac

        jac = _numeric_jacobian(gradient, chart.values)
        cov = np.linalg.inv(-0.5 * (jac + jac.T))
        rows = chart.report_jacobian(*chart.build_params(chart.values[None])[:2])
        var = np.einsum("ij,jk,ik->i", rows, cov, rows)
        checked = 0
        for (t, kind, role), v in zip(chart.report_labels(), var):
            se = res.standard_errors[t]
            se = se["phi"][role] if kind == "phi" else se[kind]
            if se is not None:
                assert se == math.sqrt(v)
                checked += 1
        assert checked >= len(chart.values)

    def test_a_fit_starts_no_thread(self, monkeypatch):
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        before = threading.active_count()
        res = mx.fit(FitSpecification(bundle=bundle))
        assert res.converged
        assert started == []
        assert threading.active_count() == before

    def test_eight_starts_each_as_if_alone(self, monkeypatch):
        bundle, params = make_simulated_bundle(seed=9, n_markers=2)
        extra = tuple(
            mx.ModelParameters(rho={"S": params.rho["S"] * f}, eta=params.eta,
                               xi=params.xi, phi=params.phi)
            for f in (0.5, 0.8, 1.25, 2.0, 4.0)
        )
        spec = FitSpecification(bundle=bundle, extra_starts=extra,
                                compute_standard_errors=False)
        searches = _record_searches(monkeypatch)
        res = mx.fit(spec)
        assert len(res.start_log_likelihoods) == len(searches) == 8
        _assert_each_as_if_alone(spec, searches, res)

    @pytest.mark.parametrize("where", ["evaluation", "start"])
    def test_an_unexpected_error_stops_every_start(self, monkeypatch, where):
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)

        class Unexpected(Exception):
            pass

        calls = []
        if where == "evaluation":
            # the second round's walk fails
            def failing(self, thetas, _unpack=_Structure.unpack):
                calls.append(thetas)
                if len(calls) == 2:
                    raise Unexpected
                return _unpack(self, thetas)

            monkeypatch.setattr(_Structure, "unpack", failing)
        else:
            # the second start's first step fails, after the first start's
            # step and before the third's
            def failing(self, f, g, _tell=estimation._LBFGSB.tell):
                calls.append(self)
                if len(calls) == 2:
                    raise Unexpected
                return _tell(self, f, g)

            monkeypatch.setattr(estimation._LBFGSB, "tell", failing)
        before = threading.active_count()
        with pytest.raises(Unexpected):
            mx.fit(FitSpecification(bundle=bundle))
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_marker_overrides_survive_fitting(self):
        bundle, params = make_simulated_bundle(seed=51, n_markers=4)
        with_over = mx.ModelParameters(
            rho=dict(params.rho), eta=params.eta, xi=params.xi,
            phi={t: dict(v) for t, v in params.phi.items()},
            marker_xi={"M0": 0.01},
        )
        b = bundle.with_parameters(with_over)
        res = mx.fit(
            FitSpecification(bundle=b, compute_standard_errors=False)
        )
        assert res.parameters.marker_xi == {"M0": 0.01}
        assert res.log_likelihood == pytest.approx(
            mx.total_log_likelihood(b.with_parameters(res.parameters)), rel=1e-12
        )

    def test_recovers_simulation_parameters(self):
        bundle, params = make_simulated_bundle(seed=7, n_markers=12)
        res = mx.fit(FitSpecification(bundle=bundle))
        assert res.converged
        est, se = res.estimates["S"], res.standard_errors["S"]
        assert abs(est["mu"] - 1000.0) < 4 * se["mu"]
        assert abs(est["sigma"] - 0.2) < 4 * se["sigma"]
        assert abs(est["xi"] - 0.08) < 4 * se["xi"]
        assert abs(est["phi"]["K1"] - 0.7) < 4 * se["phi"]["K1"]
        assert res.log_likelihood >= mx.total_log_likelihood(bundle) - 1e-6

    def test_combined_two_trace_fit_with_shared_scale(self):
        # two traces, same contributors at different fractions and amounts,
        # eta and xi shared: exercises the anchored-mu reporting chart
        bundle = make_two_trace_bundle()
        res = mx.fit(FitSpecification(bundle=bundle))
        assert res.converged
        # shared groups report one common value per trace
        assert res.estimates["A"]["xi"] == res.estimates["B"]["xi"]
        eta_a = res.parameters.eta_for("A")
        assert eta_a == res.parameters.eta_for("B")
        for tid, mu_true in (("A", 900.0), ("B", 1400.0)):
            est, se = res.estimates[tid], res.standard_errors[tid]
            assert se["mu"] is not None and se["sigma"] is not None
            assert abs(est["mu"] - mu_true) < 5 * se["mu"]
        assert abs(res.estimates["A"]["phi"]["K1"] - 0.8) < 0.08
        assert abs(res.estimates["B"]["phi"]["K1"] - 0.35) < 0.08

    def test_unknown_label_permutation_invariance(self):
        # same evidence, unknown roles listed in either order: the ordered
        # canonical representation must give the same maximum
        rng = np.random.default_rng(31)
        freqs = mx.FrequencyTable.from_dict(
            {f"M{i}": dict(zip(["8", "9", "10", "11"],
                               rng.dirichlet(np.ones(4) * 3.0)))
             for i in range(5)}
        )
        k1 = mx.draw_genotype(freqs, rng)
        u_a = mx.draw_genotype(freqs, rng)
        u_b = mx.draw_genotype(freqs, rng)
        rho, eta = mx.params_from_mean_cv(900.0, 0.2)
        truth = mx.ModelParameters(
            rho={"S": rho}, eta=eta, xi=0.06,
            phi={"S": {"K1": 0.6, "A": 0.3, "B": 0.1}},
        )
        cfg = mx.SimulationConfig(
            frequencies=freqs, parameters=truth, trace_id="S",
            contributors={"K1": k1, "A": u_a, "B": u_b},
            threshold=50.0, seed=77,
        )
        trace = mx.simulate_trace(cfg)

        lls = []
        for labels in (("U1", "U2"), ("V1", "V2")):
            hyp = mx.Hypothesis(known={"K1": k1}, unknown=labels)
            params0 = mx.ModelParameters(
                rho={"S": rho}, eta=eta, xi=0.06,
                phi={"S": {"K1": 0.6, labels[0]: 0.3, labels[1]: 0.1}},
            )
            bundle = mx.EvidenceBundle(
                traces=(trace,), frequencies=freqs,
                hypothesis=hyp, parameters=params0,
            )
            res = mx.fit(
                FitSpecification(bundle=bundle, compute_standard_errors=False)
            )
            lls.append(res.log_likelihood)
        assert lls[0] == pytest.approx(lls[1], abs=1e-5)


def _smooth_objective(n, seed, wall, wrong_sign):
    """A random smooth objective (value, gradient) in n coordinates: a
    scaled quadratic with a cosine ripple and a quartic coupling term,
    unbounded below when the coupling is negative, so that some searches
    run away to overflow and NaN.  Past ``wall`` in the first coordinate
    it returns the fit's penalty with a zero gradient; ``wrong_sign``
    turns its gradient around, so that no line search can succeed."""
    rng = np.random.default_rng(seed)
    scale, centre = rng.uniform(0.1, 10.0, n), rng.normal(0.0, 3.0, n)
    ripple, freq, couple = rng.uniform(0.0, 2.0), rng.uniform(0.5, 3.0), rng.normal()

    def objective(x):
        if wall is not None and x[0] > wall:
            return estimation._PENALTY, np.zeros(n)
        with np.errstate(all="ignore"):
            return smooth(x)

    def smooth(x):
        d = x - centre
        value = (0.5 * np.sum(scale * d * d) + ripple * np.sum(np.cos(freq * x))
                 + couple * np.sum(d[:-1] * d[1:]) ** 2 / n)
        grad = scale * d - ripple * freq * np.sin(freq * x)
        pair = 2.0 * couple * np.sum(d[:-1] * d[1:]) / n
        grad[:-1] += pair * d[1:]
        grad[1:] += pair * d[:-1]
        return value, (-grad if wrong_sign else grad)

    return objective, rng.normal(0.0, 2.0, n)


class TestLBFGSB:
    """The stepped L-BFGS-B search is scipy's minimize(method="L-BFGS-B")."""

    @given(n=stn.integers(1, 12), maxiter=stn.integers(1, 60),
           seed=stn.integers(0, 2**32 - 1),
           wall=stn.one_of(stn.none(), stn.floats(-1.0, 4.0)),
           wrong_sign=stn.booleans(), maxcor=stn.sampled_from([3, 10, 25]))
    @example(n=4, maxiter=60, seed=1, wall=None, wrong_sign=False, maxcor=25)  # converges
    @example(n=12, maxiter=3, seed=2, wall=None, wrong_sign=False, maxcor=25)  # maxiter
    @example(n=3, maxiter=60, seed=3, wall=None, wrong_sign=True, maxcor=25)  # abnormal
    @example(n=5, maxiter=60, seed=4, wall=0.0, wrong_sign=False, maxcor=10)  # penalty wall
    @example(n=11, maxiter=49, seed=1054323163, wall=None, wrong_sign=False,
             maxcor=3)  # runs away to NaN points, then abnormal
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy(self, n, maxiter, seed, wall, wrong_sign, maxcor):
        objective, x0 = _smooth_objective(n, seed, wall, wrong_sign)
        options = {"maxiter": maxiter, "ftol": estimation._TOLERANCE, "gtol": 1e-7,
                   "maxcor": maxcor}
        want = scipy.optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                                       options=options)
        got = estimation.minimize(objective, x0, **options)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.jac.tobytes() == want.jac.tobytes()
        assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
        assert (got.nit, got.nfev, got.success) == (want.nit, want.nfev, want.success)

    @pytest.mark.parametrize("stop, n, maxiter, seed, wall, wrong_sign, maxcor", [
        ("CONVERGENCE", 4, 60, 1, None, False, 25),
        ("STOP: TOTAL NO. OF ITERATIONS", 12, 3, 2, None, False, 25),
        ("ABNORMAL", 3, 60, 3, None, True, 25),
        ("CONVERGENCE", 5, 60, 4, 0.0, False, 10),
        ("ABNORMAL", 11, 49, 1054323163, None, False, 3),
    ])
    def test_the_examples_reach_each_stop(self, stop, n, maxiter, seed, wall,
                                          wrong_sign, maxcor):
        # the explicit examples above cover scipy's ways to stop
        objective, x0 = _smooth_objective(n, seed, wall, wrong_sign)
        options = {"maxiter": maxiter, "ftol": estimation._TOLERANCE, "gtol": 1e-7,
                   "maxcor": maxcor}
        want = scipy.optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                                       options=options)
        assert want.message.startswith(stop)
        got = estimation.minimize(objective, x0, **options)
        assert got.success == want.success == (stop == "CONVERGENCE")
        assert (got.nit, got.nfev) == (want.nit, want.nfev)

    def test_a_missing_step_routine_names_the_scipy_version(self, monkeypatch):
        import scipy.optimize._lbfgsb as lbfgsb

        estimation._setulb.cache_clear()
        monkeypatch.setattr(lbfgsb, "setulb", lambda *args: None)
        try:
            with pytest.raises(ImportError, match=f"scipy {scipy.__version__} is installed"):
                estimation.minimize(lambda x: (float(x @ x), 2.0 * x), np.ones(2),
                                    maxiter=5, ftol=1e-8, gtol=1e-7, maxcor=5)
        finally:
            monkeypatch.undo()
            estimation._setulb.cache_clear()


def _with_override(params, override):
    """The case's parameters plus a marker_rho or marker_xi entry on marker M."""
    first = next(iter(params.rho))
    rho_over = {"M": {first: params.rho[first] * 1.3}}
    return mx.ModelParameters(
        rho=dict(params.rho), eta=params.eta, xi=params.xi,
        phi={t: dict(v) for t, v in params.phi.items()},
        marker_rho=rho_over if override == "rho" else None,
        marker_xi={"M": 0.03} if override == "xi" else None,
    )


def _fixed_block(params, family, shared_phi):
    if family == "rho":
        return {"rho": next(iter(params.rho.values()))}
    if family == "eta":
        return {"eta": params.eta}
    if family == "xi":
        return {"xi": params.xi}
    if family == "phi":
        first = next(iter(params.phi.values()))
        return {"phi": {t: dict(first if shared_phi else v)
                        for t, v in params.phi.items()}}
    first = next(iter(params.rho))
    if family == "mu":  # one trace: its eta block follows its rho
        return {"mu": {first: params.mu_for(first)}}
    if family == "sigma":
        return {"sigma": params.sigma_for(first)}
    return {}


# random cases, sharing sets, fixed families and marker overrides
_CASES = dict(
    seed=stn.integers(0, 2**32 - 1),
    n_markers=stn.integers(1, 2),
    share=stn.sets(stn.sampled_from(["rho", "eta", "xi", "phi"])),
    fixed=stn.sampled_from(["", "rho", "eta", "xi", "phi", "mu", "sigma"]),
    override=stn.sampled_from(["", "rho", "xi"]),
)


class TestExactGradient:
    """The forward-backward gradient, chained to the fit's coordinates,
    against central differences of the value pass."""

    @given(**_CASES)
    # U = 0, 1, 2 with two traces, a trace_roles restriction and a silent allele
    @example(seed=52, n_markers=2, share={"eta", "xi"}, fixed="", override="rho")
    @example(seed=60, n_markers=2, share={"eta", "xi"}, fixed="xi", override="xi")
    @example(seed=2, n_markers=2, share={"eta"}, fixed="", override="rho")
    # one trace, U = 1 with a silent allele and U = 2; shared phi
    @example(seed=0, n_markers=2, share=set(), fixed="eta", override="")
    @example(seed=1, n_markers=2, share={"phi", "rho"}, fixed="phi", override="xi")
    # a fixed mu under a shared and an unshared eta; a fixed sigma
    @example(seed=60, n_markers=2, share={"eta", "xi"}, fixed="mu", override="rho")
    @example(seed=2, n_markers=2, share=set(), fixed="mu", override="")
    @example(seed=52, n_markers=2, share={"rho", "eta"}, fixed="sigma", override="xi")
    @settings(max_examples=60, deadline=None)
    def test_matches_numeric_gradient(self, seed, n_markers, share, fixed, override):
        bundle = random_case(np.random.default_rng(seed), n_markers=n_markers)
        params = _with_override(bundle.parameters, override)
        bundle = bundle.with_parameters(params)
        assume("phi" not in share or bundle.hypothesis.trace_roles is None)
        spec = FitSpecification(
            bundle=bundle, share=share,
            fixed=_fixed_block(params, fixed, "phi" in share),
        )
        structure = _Structure(spec)
        theta = _pack(structure, params)

        def value(th):
            return mx.total_log_likelihood(bundle.with_parameters(structure.parameters(th)))

        ((ll, exact),) = _evaluate(structure, structure.unpack, [theta])
        assume(np.isfinite(ll))
        assert ll == value(theta)
        numeric = numeric_gradient(value, theta, rel_step=1e-5, abs_floor=1e-7)
        assert np.allclose(exact, numeric, rtol=1e-5, atol=1e-6), (exact, numeric)

    def test_overridden_marker_adds_nothing_to_trace_level_parameters(self):
        bundle = random_case(np.random.default_rng(3), n_markers=1)
        first = bundle.traces[0].trace_id
        for override in ("rho", "xi"):
            b = bundle.with_parameters(_with_override(bundle.parameters, override))
            _, grad = mx.log_likelihood_and_gradient(b)
            assert grad[(override, first)] == 0.0
            assert grad[("eta", first)] != 0.0


def _scalar(params, family, trace):
    get = {"rho": params.rho.get, "eta": params.eta_for, "xi": params.xi_for}
    return get[family](trace)


def _projection(structure, params):
    """params with the structure's held and derived blocks imposed."""
    def free(family, b):
        t = b.traces[0]
        if family == "phi":
            return (np.array([[params.phi[t][r] for r in b.roles]]),
                    np.zeros((1, 0, len(b.roles))))
        return np.array([_scalar(params, family, t)]), np.zeros((1, 0))

    return structure.assemble(free, 1, 0)[0].parameters(0)


def _assert_reproduces(got, want, structure):
    """Free values within 1e-12, held values exact, derived etas consistent."""
    for t in structure.trace_ids:
        for family in ("rho", "eta", "xi"):
            assert np.isclose(_scalar(got, family, t), _scalar(want, family, t),
                              rtol=1e-12, atol=1e-12)
        assert got.phi[t].keys() == want.phi[t].keys()
        for r, v in want.phi[t].items():
            assert np.isclose(got.phi[t][r], v, rtol=1e-12, atol=1e-12)
    for family in ("rho", "eta", "xi"):
        for b in structure.blocks[family]:
            if b.fixed is not None:
                assert all(_scalar(got, family, t) == b.fixed for t in b.traces)
            if b.mu is not None:
                assert got.mu_for(b.mu_anchor) == pytest.approx(b.mu, rel=1e-12)
    for b in structure.blocks["phi"]:
        if b.fixed is not None:
            assert all(tuple(got.phi[t].values()) == b.fixed for t in b.traces)
    assert got.marker_rho == want.marker_rho and got.marker_xi == want.marker_xi


class TestChartRoundTrip:
    """The optimizer's chart and the reporting chart both reproduce a point."""

    @given(**_CASES)
    # a fixed mu under a shared eta, a fixed sigma, a fixed phi
    @example(seed=60, n_markers=2, share={"eta", "xi"}, fixed="mu", override="rho")
    @example(seed=52, n_markers=2, share={"rho", "eta"}, fixed="sigma", override="xi")
    @example(seed=1, n_markers=2, share={"phi", "rho"}, fixed="phi", override="xi")
    @settings(max_examples=60, deadline=None)
    def test_both_charts_reproduce_the_point(self, seed, n_markers, share, fixed,
                                             override):
        bundle = random_case(np.random.default_rng(seed), n_markers=n_markers)
        params = _with_override(bundle.parameters, override)
        assume("phi" not in share or bundle.hypothesis.trace_roles is None)
        structure = _Structure(FitSpecification(
            bundle=bundle.with_parameters(params), share=share,
            fixed=_fixed_block(params, fixed, "phi" in share),
        ))
        point = _projection(structure, params)
        _assert_reproduces(structure.parameters(_pack(structure, point)), point, structure)
        # the reporting chart holds boundary fractions; keep off them
        flags = _boundary_flags(point, structure)
        assume(not any(any(f["phi"].values()) for f in flags.values()))
        chart = _ReportingChart(structure, point)
        _assert_reproduces(_chart_at(chart.build_params, chart.values)[0], point, structure)


def _at_boundary(params, hypothesis, boundary):
    """params with xi at zero ("xi"), or in each trace the last two unknown
    fractions tied ("tied") or the last one's mass moved onto the first
    role ("zero"); None when no trace has the unknowns for it."""
    if boundary in ("", "xi"):
        return replace(params, xi=0.0) if boundary else params
    phi, moved = {}, False
    for t, fracs in params.phi.items():
        vec = dict(fracs)
        unknown = [r for r in vec if r in hypothesis.unknown]
        first = next(iter(vec))
        if boundary == "tied" and len(unknown) >= 2:
            a, b = unknown[-2:]
            vec[a] = vec[b] = 0.5 * (vec[a] + vec[b])
            moved = True
        elif boundary == "zero" and unknown and unknown[-1] != first:
            vec[first] += vec[unknown[-1]]
            vec[unknown[-1]] = 0.0
            moved = True
        phi[t] = vec
    return replace(params, phi=phi) if moved else None


def _primitive_vector(params, structure):
    return np.array([
        params.phi[t][role[0]] if family == "phi" else _scalar(params, family, t)
        for family, t, *role in structure.keys
    ])


class TestChartJacobian:
    """Each chart's exact Jacobian against central differences of its
    primitive parameters, and the reporting chart's report Jacobian against
    those of the reported quantities."""

    @given(**_CASES, boundary=stn.sampled_from(["", "tied", "zero", "xi"]))
    # a fixed mu under a shared eta (its eta follows the anchor's rho), a
    # fixed sigma, a fixed phi
    @example(seed=60, n_markers=2, share={"eta", "xi"}, fixed="mu", override="rho",
             boundary="")
    @example(seed=52, n_markers=2, share={"rho", "eta"}, fixed="sigma", override="xi",
             boundary="")
    @example(seed=1, n_markers=2, share={"phi", "rho"}, fixed="phi", override="xi",
             boundary="")
    # U = 0, 1, 2
    @example(seed=52, n_markers=2, share={"eta", "xi"}, fixed="", override="",
             boundary="")
    @example(seed=60, n_markers=2, share={"eta", "xi"}, fixed="", override="",
             boundary="")
    @example(seed=2, n_markers=2, share={"eta"}, fixed="", override="", boundary="")
    # boundaries the reporting chart holds: tied unknowns, a zero
    # fraction, xi at zero
    @example(seed=6, n_markers=1, share=set(), fixed="", override="", boundary="tied")
    @example(seed=13, n_markers=1, share=set(), fixed="", override="", boundary="zero")
    @example(seed=4, n_markers=1, share=set(), fixed="", override="", boundary="xi")
    @settings(max_examples=60, deadline=None)
    def test_matches_numeric_jacobian(self, seed, n_markers, share, fixed, override,
                                      boundary):
        bundle = random_case(np.random.default_rng(seed), n_markers=n_markers)
        params = _at_boundary(
            _with_override(bundle.parameters, override), bundle.hypothesis, boundary
        )
        assume(params is not None)
        assume("phi" not in share or bundle.hypothesis.trace_roles is None)
        structure = _Structure(FitSpecification(
            bundle=bundle.with_parameters(params), share=share,
            fixed=_fixed_block(params, fixed, "phi" in share),
        ))
        point = _projection(structure, params)
        reporting = _ReportingChart(structure, point)
        for chart, x in ((structure.unpack, _pack(structure, point)),
                         (reporting.build_params, reporting.values)):
            _, exact = _chart_at(chart, x)
            numeric = _numeric_jacobian(
                lambda y: _primitive_vector(_chart_at(chart, y)[0], structure), x
            )
            assert exact.shape == (len(structure.keys), len(x))
            assert np.allclose(exact, numeric.reshape(exact.shape),
                               rtol=1e-6, atol=1e-9), (exact, numeric)

        def reported(v):  # mu, sigma, xi and phi per trace, as standard errors report
            est = estimation._reporting_estimates(
                _chart_at(reporting.build_params, v)[0], structure
            )
            return np.array([est[t]["phi"][role] if kind == "phi" else est[t][kind]
                             for t, kind, role in reporting.report_labels()])

        exact = reporting.report_jacobian(
            *reporting.build_params(reporting.values[None])[:2]
        )
        numeric = _numeric_jacobian(reported, reporting.values)
        scale = np.maximum(np.abs(reported(reporting.values)), 1.0)[:, None]  # mu ~ 1e3
        assert exact.shape == (len(reporting.report_labels()), len(reporting.values))
        assert np.allclose(exact, numeric.reshape(exact.shape),
                           rtol=1e-6, atol=1e-9 * scale), (exact, numeric)


# A transcription of the per-point chart that the walk over K rows replaced:
# one point, Python scalars and dicts, ModelParameters built and checked.


def _point_stick_break(thetas, n_items):
    weights = np.empty(n_items)
    v = np.empty(n_items - 1)
    rem = 1.0
    for j in range(n_items - 1):
        v[j] = float(estimation._sigmoid(thetas[j] - math.log(n_items - j - 1)))
        weights[j] = rem * v[j]
        rem *= 1.0 - v[j]
    weights[-1] = rem
    return weights, np.tril(weights[:, None] * (np.eye(n_items, n_items - 1) - v))


def _point_phi_from_theta(theta, n_known, n_unknown):
    n_items = n_known + (1 if n_unknown else 0)
    outer, d_outer = _point_stick_break(theta[: max(n_items - 1, 0)], n_items)
    if n_unknown <= 1:
        return outer, d_outer
    block = outer[-1]
    ratios = estimation._sigmoid(theta[n_items - 1:])
    u = np.concatenate([[1.0], np.cumprod(ratios)])
    parts = block * u / u.sum()
    share = u / u.sum()
    later = np.tril(np.ones((n_unknown, n_unknown - 1)), -1)
    beyond = np.cumsum(share[::-1])[::-1][1:]
    k = n_items - 1
    jac = np.zeros((k + n_unknown, k + n_unknown - 1))
    jac[:k, :k] = d_outer[:-1]
    jac[k:, :k] = share[:, None] * d_outer[-1]
    jac[k:, k:] = parts[:, None] * (1.0 - ratios) * (later - beyond)
    return np.concatenate([outer[:-1], parts]), jac


def _point_assemble(structure, free, n_coords, eta_by_mu=False):
    vals = {"rho": {}, "eta": {}, "xi": {}}
    rows = {}
    col = 0

    def placed(d, shape=()):
        nonlocal col
        out = np.zeros((n_coords, *shape))
        if len(d):
            out[col:col + len(d)] = d
        col += len(d)
        return out

    for family, out in vals.items():
        for b in structure.blocks[family]:
            anchor = None
            if b.fixed is not None:
                val, row = b.fixed, placed(())
            elif b.mu is not None:
                val, row, anchor = b.mu, placed(()), b.mu_anchor
            else:
                val, d = free(family, b)
                row = placed(d)
                if family == "eta" and eta_by_mu:
                    anchor = b.traces[0]
            if anchor is not None:
                rho = vals["rho"][anchor]
                val = val / rho
                row = (row - val * rows[("rho", anchor)]) / rho
            for t in b.traces:
                out[t] = val
                rows[(family, t)] = row
    phi = {}
    for b in structure.blocks["phi"]:
        vec, d = (b.fixed, ()) if b.fixed is not None else free("phi", b)
        block_rows = placed(d, (len(b.roles),))
        for t in b.traces:
            phi[t] = dict(zip(b.roles, vec))
            for r, row in zip(b.roles, block_rows.T):
                rows[("phi", t, r)] = row
    assert col == n_coords
    params = mx.ModelParameters(**vals, phi=phi, marker_rho=structure.marker_rho,
                                marker_xi=structure.marker_xi)
    return params, np.array([rows[k] for k in structure.keys])


def _point_unpack(structure, theta):
    i = 0

    def free(family, b):
        nonlocal i
        if family == "phi":
            vec, jac = _point_phi_from_theta(theta[i:i + b.n_free], b.n_known, b.n_unknown)
            i += b.n_free
            vec = np.maximum(vec, 0.0)
            return (vec / vec.sum()).tolist(), jac.T
        i += 1
        x = theta[i - 1]
        if family == "xi":
            v = float(estimation._sigmoid(x))
            return v, (v * (1.0 - v),)
        v = math.exp(x)
        return v, (v,)

    return _point_assemble(structure, free, len(theta))


def _point_build_params(chart, v):
    values = iter(v)

    def free(family, b):
        if family == "rho":
            sigma = next(values)
            if sigma <= 0:
                raise ValueError("sigma stepped out of range")
            return 1.0 / sigma**2, (-2.0 / sigma**3,)
        if family == "eta":
            mu = next(values)
            if mu <= 0:
                raise ValueError("mu stepped out of range")
            return mu, (1.0,)
        if family == "xi":
            if b.traces in chart.xi_free:
                return next(values), (1.0,)
            return chart.params.xi_for(b.traces[0]), ()
        base, zero, units, dep = chart.phi_layout_of[b.traces]
        vec = base.copy()
        vec[zero] = 0.0
        other_mass = 0.0
        d = []
        for ui, unit in enumerate(units):
            if ui != dep:
                uval = next(values)
                vec[list(unit)] = uval
                other_mass += len(unit) * uval
                col = np.zeros(len(vec))
                col[list(unit)] = 1.0
                col[list(units[dep])] = -len(unit) / len(units[dep])
                d.append(col)
        dep_val = (1.0 - other_mass) / len(units[dep])
        if dep_val < 0:
            raise ValueError("phi stepped off the simplex")
        vec[list(units[dep])] = dep_val
        return vec.tolist(), np.array(d).reshape(len(d), len(vec))

    return _point_assemble(chart.structure, free, len(v), eta_by_mu=True)


_POINT_REFUSALS = (ValueError, OverflowError, FloatingPointError, ZeroDivisionError)


def _per_point(bundle, chart, x):
    """The transcription's parameters and Jacobian at one point, or None
    where its chart or with_parameters refuses the point."""
    try:
        with np.errstate(all="ignore"):
            params, jac = chart(x)
        bundle.with_parameters(params)
    except _POINT_REFUSALS:
        return None
    return params, jac


def _bits(params):
    """Every value of ModelParameters, in order, as exact bytes."""
    values = [v for family in (params.rho, params.eta, params.xi) for v in family.values()]
    values += [v for fracs in params.phi.values() for v in fracs.values()]
    return np.array(values, dtype=float).tobytes(), list(params.phi.items())


def _walked_points(rng, n_rows, n, centre, scale):
    """n_rows points around ``centre``; about one coordinate in eight at
    +-800, where exp overflows or underflows and a sigmoid saturates."""
    points = centre + rng.normal(0.0, scale, (n_rows, n))
    extreme = rng.random((n_rows, n)) < 0.125
    points[extreme] = rng.choice([-800.0, 800.0], size=int(extreme.sum()))
    return points


class TestChartAgainstPerPointTranscription:
    """The walk over K rows gives, row by row, the bits the per-point chart
    gave: values, Jacobian and refusals, and _evaluate the values and
    chained gradients of one engine call per point."""

    @given(**_CASES, n_rows=stn.integers(1, 25), draw=stn.integers(0, 2**32 - 1))
    # three traces, U = 3; U = 0; a fixed mu under a shared eta; a fixed sigma
    @example(seed=11, n_markers=1, share=set(), fixed="", override="xi",
             n_rows=25, draw=0)
    @example(seed=52, n_markers=2, share={"eta", "xi"}, fixed="", override="rho",
             n_rows=7, draw=1)
    @example(seed=60, n_markers=2, share={"eta", "xi"}, fixed="mu", override="rho",
             n_rows=12, draw=2)
    @example(seed=52, n_markers=2, share={"rho", "eta"}, fixed="sigma", override="xi",
             n_rows=5, draw=3)
    @settings(max_examples=60, deadline=None)
    def test_rows_as_points(self, seed, n_markers, share, fixed, override, n_rows, draw):
        bundle = random_case(np.random.default_rng(seed), n_markers=n_markers,
                             max_unknowns=3, max_traces=3)
        params = _with_override(bundle.parameters, override)
        bundle = bundle.with_parameters(params)
        assume("phi" not in share or bundle.hypothesis.trace_roles is None)
        structure = _Structure(FitSpecification(
            bundle=bundle, share=share,
            fixed=_fixed_block(params, fixed, "phi" in share),
        ))
        rng = np.random.default_rng(draw)
        point = _projection(structure, params)
        reporting = _ReportingChart(structure, point)
        charts = (
            (structure.unpack, lambda x: _point_unpack(structure, x),
             _pack(structure, point), 2.0),
            (reporting.build_params, lambda v: _point_build_params(reporting, v),
             reporting.values, 0.05 * np.maximum(np.abs(reporting.values), 1e-3)),
        )
        for chart, transcribed, centre, scale in charts:
            points = _walked_points(rng, n_rows, len(centre), centre, scale)
            points[0] = centre  # one row the chart accepts
            sets, jac, refused = chart(points)
            assert jac.shape == (n_rows, len(structure.keys), len(centre))
            for k, x in enumerate(points):
                want = _per_point(bundle, transcribed, x)
                assert refused[k] == (want is None), (k, x)
                if want is not None:
                    assert _bits(sets.parameters(k)) == _bits(want[0])
                    assert jac[k].tobytes() == want[1].tobytes()
            if len(centre):
                self._evaluate_as_per_point(bundle, structure, chart, transcribed, points)

    @staticmethod
    def _evaluate_as_per_point(bundle, structure, chart, transcribed, points):
        got = _evaluate(structure, chart, points)
        for x, one in zip(points, got):
            want = _per_point(bundle, transcribed, x)
            if want is None:
                assert one is None
                continue
            ll, grad = mx.log_likelihood_and_gradient(bundle.with_parameters(want[0]))
            chained = np.array([grad[k] for k in structure.keys]) @ want[1]
            assert one[0] == ll or (math.isnan(one[0]) and math.isnan(ll))
            assert one[1].tobytes() == chained.tobytes()


class TestNumericHessian:
    def test_quadratic_curvature(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        m = np.array([0.3, -0.2, 0.5])

        def loglik(x):
            d = x - m
            return -0.5 * d @ a @ d

        h = numeric_hessian(loglik, m.copy())
        assert np.allclose(h, -a, rtol=1e-6, atol=1e-6)
        se = np.sqrt(np.diag(np.linalg.inv(-h)))
        want = np.sqrt(np.diag(np.linalg.inv(a)))
        assert np.allclose(se, want, rtol=1e-4)

    def test_respects_relative_step(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return -float(x @ x)

        numeric_hessian(f, np.array([1000.0]), rel_step=1e-4, abs_floor=1e-6)
        deltas = {round(abs(c[0] - 1000.0), 6) for c in calls}
        assert 0.1 in deltas  # 1e-4 * 1000

    def test_fixed_parameter_has_no_se(self):
        bundle, params = make_simulated_bundle(seed=21, n_markers=4)
        spec = FitSpecification(bundle=bundle, fixed={"xi": params.xi})
        res = mx.fit(spec)
        assert res.standard_errors["S"]["xi"] is None
        assert res.standard_errors["S"]["mu"] is not None


class TestWeightOfEvidence:
    def test_identical_hypotheses_zero_bans(self):
        bundle, _ = make_simulated_bundle(seed=3, n_markers=4)
        spec = FitSpecification(bundle=bundle, compute_standard_errors=False)
        res = mx.fit(spec)
        assert mx.weight_of_evidence(res, res) == 0.0

    def test_mismatched_evidence_rejected(self):
        b1, _ = make_simulated_bundle(seed=3, n_markers=4)
        b2, _ = make_simulated_bundle(seed=5, n_markers=4)
        r1 = mx.fit(FitSpecification(bundle=b1, compute_standard_errors=False))
        r2 = mx.fit(FitSpecification(bundle=b2, compute_standard_errors=False))
        with pytest.raises(ValueError):
            mx.weight_of_evidence(r1, r2)

    def test_efficiency_loss_trivials(self):
        freqs = mx.FrequencyTable.from_dict({"M": {"8": 0.1, "9": 0.9}})
        suspect = mx.GenotypeProfile.from_pairs({"M": ("8", "8")})
        bound = -math.log10(0.01)
        assert mx.efficiency_loss(bound, suspect, freqs) == pytest.approx(0.0)
        assert mx.efficiency_loss(bound - 0.5, suspect, freqs) == pytest.approx(0.5)

    def test_generic_efficiency_loss(self):
        assert mx.generic_efficiency_loss(1.0) == 0.0
        assert mx.generic_efficiency_loss(0.1) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            mx.generic_efficiency_loss(0.0)
        with pytest.raises(ValueError):
            mx.generic_efficiency_loss(1.5)
        with pytest.raises(ValueError):
            mx.generic_efficiency_loss(float("nan"))


class TestProfileLikelihood:
    def test_xi_curve_contains_maximum(self):
        bundle, _ = make_simulated_bundle(seed=19, n_markers=6)
        spec = FitSpecification(bundle=bundle, compute_standard_errors=False)
        free = mx.fit(spec)
        grid = [0.0, 0.02, 0.05, 0.08, 0.12, 0.2, 0.3]
        curve = mx.profile_likelihood(spec, "xi", grid)
        assert max(curve.log10_likelihood) <= free.log10_likelihood + 1e-6
        assert curve.max_log10_likelihood >= free.log10_likelihood - 0.05
        lo, hi = curve.interval95
        xi_hat = free.estimates["S"]["xi"]
        assert lo - 1e-9 <= xi_hat <= hi + 1e-9

    def test_mu_profile_via_pinned_coordinate(self):
        bundle, _ = make_simulated_bundle(seed=23, n_markers=5)
        spec = FitSpecification(bundle=bundle, compute_standard_errors=False)
        free = mx.fit(spec)
        mu_hat = free.estimates["S"]["mu"]
        curve = mx.profile_likelihood(
            spec, "mu@S", [mu_hat * 0.8, mu_hat, mu_hat * 1.2]
        )
        assert np.argmax(curve.log10_likelihood) == 1
        assert curve.log10_likelihood[1] == pytest.approx(
            free.log10_likelihood, abs=1e-4
        )


    def test_unqualified_sigma_fixes_every_trace(self, monkeypatch):
        spec = FitSpecification(
            bundle=make_two_trace_bundle(n_markers=3), compute_standard_errors=False
        )
        fits = []
        real_fit = estimation.fit

        def recording_fit(sub):
            fits.append(real_fit(sub))
            return fits[-1]

        monkeypatch.setattr(estimation, "fit", recording_fit)
        mx.profile_likelihood(spec, "sigma", [0.2])
        (res,) = fits
        for tid in ("A", "B"):
            assert res.estimates[tid]["sigma"] == pytest.approx(0.2, rel=1e-12)

    def test_no_feasible_point_raises(self):
        # rho is already fixed, so every sigma point is a refused override
        bundle, _ = make_simulated_bundle(seed=9, n_markers=2)
        spec = FitSpecification(
            bundle=bundle, fixed={"rho": {"S": 25.0}}, compute_standard_errors=False
        )
        with pytest.raises(ValueError, match="sigma and rho are both fixed") as err:
            mx.profile_likelihood(spec, "sigma", [0.2, 0.3])
        assert isinstance(err.value.__cause__, ValueError)

    def test_unqualified_mu_over_shared_eta_refused(self):
        spec = FitSpecification(
            bundle=make_two_trace_bundle(n_markers=1), compute_standard_errors=False
        )
        with pytest.raises(ValueError, match="mu@T"):
            mx.profile_likelihood(spec, "mu", [1000.0])


class TestContributorSweep:
    def test_monotone_and_warm_started(self):
        bundle, _ = make_simulated_bundle(seed=29, n_markers=4, phi=(0.7, 0.3))
        hyp = mx.Hypothesis(known=dict(bundle.hypothesis.known), unknown=("U1",))
        params = mx.ModelParameters(
            rho=dict(bundle.parameters.rho),
            eta=bundle.parameters.eta,
            xi=bundle.parameters.xi,
            phi={"S": {"K1": 0.6, "K2": 0.3, "U1": 0.1}},
        )
        swept_bundle = mx.EvidenceBundle(
            traces=bundle.traces, frequencies=bundle.frequencies,
            hypothesis=hyp, parameters=params,
        )
        spec = FitSpecification(
            bundle=swept_bundle, compute_standard_errors=False,
            max_iterations=300,
        )
        rows = mx.contributor_sweep(spec, 3, min_unknowns=1)
        lls = [r["log10_likelihood"] for r in rows]
        assert [r["unknowns"] for r in rows] == [1, 2, 3]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-6

    @pytest.mark.parametrize("low, high", [(-1, 0), (None, -1), (-2, 1)])
    def test_negative_counts_refused(self, low, high):
        bundle, _ = make_simulated_bundle(seed=29, n_markers=2)
        spec = FitSpecification(bundle=bundle, compute_standard_errors=False)
        bad = low if low is not None and low < 0 else high
        with pytest.raises(ValueError, match=f"at least 0, got {bad}"):
            mx.contributor_sweep(spec, high, min_unknowns=low)


    @pytest.mark.parametrize("count", [7, 10**8])
    def test_counts_past_the_limit_refused_before_any_build(self, count,
                                                             monkeypatch):
        bundle, _ = make_simulated_bundle(seed=29, n_markers=2)
        spec = FitSpecification(bundle=bundle, compute_standard_errors=False)

        def refused(*args):
            raise AssertionError("a bundle was built past the limit")

        monkeypatch.setattr(mx.estimation, "_with_unknown_count", refused)
        with pytest.raises(ValueError, match=f"{count} unknown contributors exceed "
                                             "the engine's limit of 6"):
            mx.contributor_sweep(spec, count, min_unknowns=count)


class TestBoundaryHandling:
    def test_redundant_unknown_flagged_at_zero(self):
        # single-source data fitted with one known plus one unknown: the
        # unknown's fraction collapses to the boundary
        bundle, params = make_simulated_bundle(seed=37, n_markers=8, phi=(1.0,))
        hyp = mx.Hypothesis(
            known=dict(bundle.hypothesis.known), unknown=("U1",)
        )
        params0 = mx.ModelParameters(
            rho=dict(params.rho), eta=params.eta, xi=params.xi,
            phi={"S": {"K1": 0.9, "U1": 0.1}},
        )
        b = mx.EvidenceBundle(
            traces=bundle.traces, frequencies=bundle.frequencies,
            hypothesis=hyp, parameters=params0,
        )
        res = mx.fit(FitSpecification(bundle=b))
        assert res.estimates["S"]["phi"]["U1"] < 1e-3
        assert res.boundary["S"]["phi"]["U1"]
        assert res.standard_errors["S"]["phi"]["U1"] is None
        assert res.standard_errors["S"]["phi"]["K1"] is not None

    def test_a_fraction_beside_one_held_at_zero_is_not_tied_to_it(
        self, pubcase_defence_bundle
    ):
        # U2 lies within the tolerance of zero and of U1, which does not:
        # the chart holds U2 at zero and moves U1 alone, so U1 is not flagged
        b = pubcase_defence_bundle
        phi = {}
        for t, fracs in b.parameters.phi.items():
            known = {r: v for r, v in fracs.items() if r in b.hypothesis.known}
            scale = (1.0 - 1.9e-4 - 0.95e-4) / sum(known.values())
            phi[t] = {**{r: v * scale for r, v in known.items()},
                      "U1": 1.9e-4, "U2": 0.95e-4}
        params = replace(b.parameters, phi=phi)
        structure = _Structure(FitSpecification(bundle=b.with_parameters(params)))
        flags = _boundary_flags(params, structure)
        chart = _ReportingChart(structure, params)
        for t in structure.trace_ids:
            assert flags[t]["phi"] == {"K1": False, "K2": False, "U1": False, "U2": True}
            blk = structure.block_of("phi", t)
            assert ("phi", (blk.traces, (blk.roles.index("U1"),))) in chart.coords
        assert flags == _chart_boundary(chart, structure, params)

    @given(seed=stn.integers(0, 2**32 - 1),
           small=stn.lists(stn.sampled_from([0.0, 0.5e-4, 0.95e-4, 0.99e-4, 1.5e-4,
                                              1.9e-4, 2.5e-4, 0.05]),
                           min_size=3, max_size=3),
           share=stn.sampled_from([frozenset(), frozenset({"phi"})]))
    @example(seed=1, small=[1.9e-4, 0.95e-4, 0.0], share=frozenset())
    @settings(max_examples=80, deadline=None)
    def test_a_role_is_flagged_when_the_chart_holds_or_ties_it(self, seed, small, share):
        bundle = random_case(np.random.default_rng(seed), max_unknowns=3)
        hypothesis = bundle.hypothesis
        assume(hypothesis.unknown)
        assume("phi" not in share or hypothesis.trace_roles is None)
        phi = {}
        for t, fracs in bundle.parameters.phi.items():
            known = [r for r in fracs if r in hypothesis.known]
            unknown = [r for r in fracs if r in hypothesis.unknown]
            values = sorted(small[:len(unknown)], reverse=True)
            if not known:  # the first unknown takes what the others leave
                values[0] = 1.0 - sum(values[1:])
            rest = (1.0 - sum(values)) / max(len(known), 1)
            phi[t] = {**dict.fromkeys(known, rest), **dict(zip(unknown, values))}
        params = replace(bundle.parameters, phi=phi)
        structure = _Structure(FitSpecification(
            bundle=bundle.with_parameters(params), share=share,
        ))
        chart = _ReportingChart(structure, params)
        assert _boundary_flags(params, structure) == _chart_boundary(chart, structure, params)


def _chart_boundary(chart, structure, params):
    """Per trace, xi at zero and, per role, whether the reporting chart
    holds its fraction at zero or moves it with another's."""
    out = {}
    for t in structure.trace_ids:
        blk = structure.block_of("phi", t)
        _, zero, units, _ = chart.phi_layout_of[blk.traces]
        tied = {i for unit in units if len(unit) > 1 for i in unit}
        out[t] = {
            "xi": params.xi_for(t) < estimation._BOUNDARY_TOL,
            "phi": {r: i in zero or i in tied for i, r in enumerate(blk.roles)},
        }
    return out
