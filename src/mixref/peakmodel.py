"""Gamma peak-height mathematics.

Peak heights are modelled as sums of independent gamma contributions: a
contributor carrying ``n`` copies of an allele, at pre-amplification
fraction ``phi``, adds a Gamma(rho*phi*n, eta) component to that allele's
peak.  Stutter moves a fraction ``xi`` of each allele's shape mass to the
allele one repeat unit below, and dropout is thresholding of the total
height at the detection limit ``C``.

This module holds the continuous-model primitives: effective allele
counts before/after stutter, the log-likelihood factor of a single peak
observation, gamma and logistic dropout curves, and the (mu, sigma)
reparametrization used for reporting.

The gamma log-CDF and log-survival functions stay finite in both tails,
as array code with no per-element Python loop.  Where scipy's
regularized incomplete gamma functions underflow below 1e-280, the
lower tail is a Kummer-function expression (:func:`gamma_log_cdf`,
within 1e-10 relative of mpmath at shapes up to 1e8) and the upper tail
a continued fraction stepped over arrays (:func:`gamma_log_sf`, within
1e-10 relative at shapes up to 1e7).  The scalar helpers (allele
counts, the peak factor, the dropout curves and the reparametrization)
refuse a NaN or infinite argument with a ValueError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import special as sc

__all__ = [
    "ModelParameters",
    "PeakObservation",
    "effective_allele_count",
    "post_stutter_count",
    "peak_log_factor",
    "dropout_probability_gamma",
    "dropout_probability_logistic",
    "homozygous_dropout_logistic",
    "params_from_mean_cv",
    "mean_cv_from_params",
    "gamma_log_pdf",
    "gamma_log_cdf",
    "gamma_log_sf",
    "gamma_log_pdf_grad",
    "gamma_log_cdf_grad",
    "gamma_cdf_shapes",
]

_PHI_SUM_TOL = 1e-12
_PHI_ORDER_TOL = 1e-9


def gamma_log_pdf(x, shape, scale):
    """Log density of Gamma(shape, scale) at x, safe for extreme arguments.

    Vectorized over all arguments.  ``shape == 0`` denotes the
    distribution degenerate at 0, which has no density on (0, inf):
    the result is -inf for x > 0.
    """
    x = np.asarray(x, dtype=float)
    shape = np.asarray(shape, dtype=float)
    scale = np.asarray(scale, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            (shape - 1.0) * np.log(x)
            - x / scale
            - sc.gammaln(shape)
            - shape * np.log(scale)
        )
    out = np.where(shape <= 0.0, -np.inf, out)
    return out if out.ndim else float(out)


def gamma_log_cdf(x, shape, scale):
    """Log CDF of Gamma(shape, scale) at x, without lower-tail underflow.

    Uses the regularized lower incomplete gamma function P(a, y), y = x /
    scale.  Where it underflows below 1e-280 (which implies y < a + 1),
    log P comes from Kummer's function M = hyp1f1 instead, as one array
    expression of P(a, y) = y^a e^-y M(1, a+1, y) / Gamma(a+1) (DLMF
    8.5.1).  Against mpmath that tail is within 1e-10 relative at shapes
    up to 1e8, most of it the rounding of a log y.  ``shape == 0`` is the
    point mass at 0, whose CDF at any x >= 0 is 1 (log 0.0).
    """
    shape = np.asarray(shape, dtype=float)
    y = np.asarray(x, dtype=float) / np.asarray(scale, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = sc.gammainc(shape, y)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        out = np.log(p)
    tiny = (p < 1e-280) & (shape > 0.0) & (y > 0.0)
    if tiny.any():
        a, y_tiny = (np.broadcast_to(v, p.shape)[tiny] for v in (shape, y))
        out[tiny] = (a * np.log(y_tiny) - y_tiny - sc.gammaln(a + 1.0)
                     + np.log(sc.hyp1f1(1.0, a + 1.0, y_tiny)))
    np.copyto(out, -np.inf, where=(shape > 0.0) & (y <= 0.0))
    np.copyto(out, np.where(y >= 0.0, 0.0, -np.inf), where=shape <= 0.0)
    return float(out[0]) if scalar else out


def _log_upper_gamma_cf(a, y):
    # log Q(a, y) via the continued fraction (modified Lentz)
    #   Q(a, y) = y^a e^-y / Gamma(a) * 1/(y+1-a- 1(1-a)/(y+3-a- 2(2-a)/(y+5-a- ...))),
    # used where gammaincc underflows (which implies y >> a).  Over 1-d
    # arrays: h takes each element's steps until its own step moves it by
    # less than 1e-16.
    tiny = 1e-300
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    going = np.ones(len(b), dtype=bool)
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        delta = d * c
        h = np.where(going, h * delta, h)
        going &= ~(np.abs(delta - 1.0) < 1e-16)
        if not going.any():
            break
    return a * np.log(y) - y - sc.gammaln(a) + np.log(h)


def gamma_log_sf(x, shape, scale):
    """Log survival function of Gamma(shape, scale) at x, without upper-tail underflow.

    Uses the regularized upper incomplete gamma function Q(a, y), y = x /
    scale.  Where it underflows below 1e-280 (which implies y > a), log Q
    comes from Legendre's continued fraction, in log space, stepped by
    modified Lentz over all those elements at once, each element until
    its own step changes the fraction by less than 1e-16, at most 499
    steps.  Against mpmath that tail is within 1e-10 relative at shapes up
    to 1e7 from y = a + 36 sqrt(a), where it begins.  ``shape == 0`` is
    the point mass at 0, which exceeds any x < 0 (log 0.0) and no x >= 0
    (-inf).
    """
    shape = np.asarray(shape, dtype=float)
    y = np.asarray(x, dtype=float) / np.asarray(scale, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = sc.gammaincc(shape, y)
        scalar = q.ndim == 0
        q = np.atleast_1d(q)
        out = np.log(q)
    tiny = (q < 1e-280) & (shape > 0.0) & (y > shape)
    if tiny.any():
        a, y_tiny = (np.broadcast_to(v, q.shape)[tiny] for v in (shape, y))
        out[tiny] = _log_upper_gamma_cf(a, y_tiny)
    out = np.where(shape <= 0.0, -np.inf, out)
    out = np.where((y <= 0.0) & (shape > 0.0) | (y < 0.0) & (shape <= 0.0), 0.0, out)
    return float(out[0]) if scalar else out


def gamma_log_pdf_grad(x, shape, scale):
    """Partial derivatives of :func:`gamma_log_pdf` in shape and in scale.

    Returns (log x - digamma(shape) - log scale, x / scale**2 - shape / scale).
    """
    x = np.asarray(x, dtype=float)
    shape = np.asarray(shape, dtype=float)
    scale = np.asarray(scale, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_shape = np.log(x) - sc.psi(shape) - np.log(scale)
    return d_shape, x / (scale * scale) - shape / scale


def gamma_cdf_shapes(shape):
    """The shapes at which :func:`gamma_log_cdf_grad` reads
    :func:`gamma_log_cdf`, stacked along a new first axis: ``shape``
    itself, then the two sides shape + h and shape - h of the central
    difference in shape, h = 1e-4 * min(shape, sqrt(shape)).  One
    gamma_log_cdf call at all three gives a caller the log CDF and the
    derivative's sides together."""
    shape = np.asarray(shape, dtype=float)
    h = _shape_step(shape)
    out = np.empty((3,) + shape.shape)
    out[0], out[1], out[2] = shape, shape + h, shape - h
    return out


def _shape_step(shape):
    # log P(a, y) varies on the scale of sqrt(a), the spread of the
    # distribution, once a > 1
    return 1e-4 * np.minimum(shape, np.sqrt(shape))


def gamma_log_cdf_grad(x, shape, scale, log_cdf, sides=None):
    """Partial derivatives of :func:`gamma_log_cdf` in shape and in scale.

    ``log_cdf`` is gamma_log_cdf(x, shape, scale), which callers hold
    already.  The shape derivative is a central difference of
    gamma_log_cdf (so the deep lower tail goes through its Kummer function)
    with the step of :func:`gamma_cdf_shapes`.  ``sides`` holds
    gamma_log_cdf at the difference's two sides, rows 1 and 2 of
    gamma_cdf_shapes(shape) broadcast against x and scale, where the
    caller evaluated them with log_cdf; otherwise both sides go through
    one gamma_log_cdf call here.  At shape 0 it is the one-sided limit
    -E1(x / scale), evaluated only there.  The scale derivative is the
    closed form -(x / scale) * pdf(x) / cdf(x).
    """
    x = np.asarray(x, dtype=float)
    shape = np.asarray(shape, dtype=float)
    scale = np.asarray(scale, dtype=float)
    full = np.broadcast(x, shape, scale).shape
    with np.errstate(divide="ignore", invalid="ignore"):
        if sides is None:
            points = gamma_cdf_shapes(np.broadcast_to(shape, full))[1:]
            sides = gamma_log_cdf(x, points, scale)
        upper, lower = sides
        d_shape = np.asarray((upper - lower) / (2.0 * _shape_step(shape)))
        y = x / scale
        at_zero = np.broadcast_to(~(shape > 0.0), d_shape.shape)
        if at_zero.any():
            d_shape[at_zero] = -sc.exp1(np.broadcast_to(y, d_shape.shape)[at_zero])
        d_scale = -np.exp(
            shape * np.log(y) - y - sc.gammaln(shape) - log_cdf
        ) / scale
    return d_shape, d_scale


@dataclass(frozen=True)
class PeakObservation:
    """One allele's recorded peak: height in RFU against a detection threshold.

    The ingestion contract is that a peak is observed iff its height is at
    least the threshold, and unobserved peaks carry height exactly 0.
    """

    height: float
    threshold: float

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(
                f"detection threshold must be positive and finite, got {self.threshold}"
            )
        if not math.isfinite(self.height):
            raise ValueError(f"non-finite height {self.height}")
        if self.height < 0:
            raise ValueError("peak height must be nonnegative")
        if 0.0 < self.height < self.threshold:
            raise ValueError(
                f"height {self.height} is in (0, C={self.threshold}): "
                "sub-threshold peaks must be zeroed at ingestion"
            )

    @property
    def observed(self) -> bool:
        return self.height >= self.threshold


@dataclass(frozen=True)
class ModelParameters:
    """Amplification parameters for one or more jointly analysed traces.

    rho
        Per-trace amplification scale, proportional to the amount of DNA.
    eta
        Gamma scale in RFU; a single float means shared across traces,
        a mapping gives per-trace values.
    xi
        Mean stutter proportion in [0, 1); float or per-trace mapping.
    phi
        Per trace, mapping contributor role -> pre-amplification DNA
        fraction.  Each trace's fractions are nonnegative and sum to one;
        fractions of unknown roles must be non-increasing in role order.
    marker_rho / marker_xi
        Optional per-marker overrides; by default rho and xi are shared
        across markers.
    """

    rho: Mapping[str, float]
    eta: float | Mapping[str, float]
    xi: float | Mapping[str, float]
    phi: Mapping[str, Mapping[str, float]]
    marker_rho: Mapping[str, Mapping[str, float]] | None = None
    marker_xi: Mapping[str, float] | None = None

    def __post_init__(self):
        for trace, r in self.rho.items():
            _check_scale("rho", trace, r)
        for trace in self.rho:
            _check_scale("eta", trace, self.eta_for(trace))
            _check_xi(trace, self.xi_for(trace))
        _check_overrides(self.marker_rho, self.marker_xi, self.rho)
        if set(self.phi) != set(self.rho):
            raise ValueError("phi and rho must cover the same traces")
        for trace, fracs in self.phi.items():
            vals = np.array(list(fracs.values()), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(
                    f"non-finite fraction in trace {trace!r}: "
                    f"{dict(zip(fracs, vals.tolist()))}"
                )
            if np.any(vals < -_PHI_SUM_TOL):
                raise ValueError(f"negative fraction in trace {trace!r}")
            total = float(vals.sum())
            if abs(total - 1.0) > _PHI_SUM_TOL:
                raise ValueError(
                    f"fractions for trace {trace!r} sum to {total!r}, not 1"
                )

    def eta_for(self, trace: str) -> float:
        return self.eta[trace] if isinstance(self.eta, Mapping) else self.eta

    def xi_for(self, trace: str) -> float:
        return self.xi[trace] if isinstance(self.xi, Mapping) else self.xi

    def rho_for(self, trace: str, marker: str | None = None) -> float:
        if marker is not None and self.marker_rho and marker in self.marker_rho:
            over = self.marker_rho[marker]
            if trace in over:
                return over[trace]
        return self.rho[trace]

    def xi_for_marker(self, trace: str, marker: str | None = None) -> float:
        if marker is not None and self.marker_xi and marker in self.marker_xi:
            return self.marker_xi[marker]
        return self.xi_for(trace)

    def mu_for(self, trace: str) -> float:
        """Mean peak height mu = rho * eta for a trace."""
        return self.rho[trace] * self.eta_for(trace)

    def sigma_for(self, trace: str) -> float:
        """Coefficient of variation sigma = 1 / sqrt(rho) for a trace."""
        return 1.0 / math.sqrt(self.rho[trace])

    def check_unknown_ordering(self, unknown_roles) -> None:
        """Raise if a trace's unknown fractions increase along role order."""
        for trace, fracs in self.phi.items():
            seq = [float(fracs[r]) for r in unknown_roles if r in fracs]
            for a, b in zip(seq, seq[1:]):
                if b > a + _PHI_ORDER_TOL:
                    raise ValueError(
                        f"unknown fractions not non-increasing in trace {trace!r}: {seq}"
                    )


def _check_scale(name, where, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite ({where!r}: {value})")


def _check_xi(where, value):
    if not 0.0 <= value < 1.0:
        raise ValueError(f"xi must lie in [0, 1) ({where!r}: {value})")


def _require(rule, **values):
    """Raise a ValueError naming the first of the named ``values`` that
    holds a NaN or an infinity or, where ``rule`` is "positive" or
    "nonnegative", a number that is not."""
    for name, value in values.items():
        v = np.asarray(value, dtype=float)
        signed = v > 0 if rule == "positive" else v >= 0 if rule == "nonnegative" else True
        if not np.all(np.isfinite(v) & signed):
            what = "finite" if rule == "finite" else f"finite and {rule}"
            raise ValueError(f"{name} must be {what}: {value}")


def _check_overrides(marker_rho, marker_xi, traces):
    """Refuse a per-marker override that is out of range or names a trace
    not in ``traces``."""
    for marker, over in (marker_rho or {}).items():
        for trace, r in over.items():
            if trace not in traces:
                raise ValueError(
                    f"marker_rho[{marker!r}] names trace {trace!r}, not one of "
                    f"{sorted(traces)}"
                )
            _check_scale("rho", f"{trace}@{marker}", r)
    for marker, x in (marker_xi or {}).items():
        _check_xi(f"@{marker}", x)


def effective_allele_count(phi, counts) -> float:
    """Fraction-weighted allele count B_a = sum_i phi_i * n_ia.

    Parameters
    ----------
    phi : sequence of float
        Contributor fractions on the simplex.
    counts : sequence of int
        Copies of the allele per contributor, each in {0, 1, 2}.
    """
    phi = np.asarray(phi, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phi.shape != counts.shape:
        raise ValueError(f"phi has shape {phi.shape} but counts {counts.shape}")
    _require("nonnegative", phi=phi, counts=counts)
    return float(phi @ counts)


def post_stutter_count(xi: float, b_here: float, b_successor: float) -> float:
    """Effective count after stutter: (1 - xi) * B_a + xi * B_{a+1}.

    ``b_successor`` is the effective count of the allele one repeat unit
    above, the donor of stutter into this allele; pass 0 when that allele
    is not on the ladder.
    """
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"xi must lie in [0, 1): {xi}")
    _require("nonnegative", b_here=b_here, b_successor=b_successor)
    return (1.0 - xi) * b_here + xi * b_successor


def peak_log_factor(obs: PeakObservation, rho: float, eta: float, d: float) -> float:
    """Log-likelihood factor of one peak observation.

    Observed peaks contribute the Gamma(rho*d, eta) log density at the
    height; unobserved ones the log CDF at the threshold.  d == 0 is the
    point mass at zero: impossible for an observed peak (-inf), certain
    dropout for an unobserved one (0.0).
    """
    _require("positive", rho=rho, eta=eta)
    _require("nonnegative", d=d)
    shape = rho * d
    if obs.observed:
        if shape == 0.0:
            return -np.inf
        return float(gamma_log_pdf(obs.height, shape, eta))
    if shape == 0.0:
        return 0.0
    return float(gamma_log_cdf(obs.threshold, shape, eta))


def dropout_probability_gamma(mu: float, eta: float, c: float) -> float:
    """Dropout probability of a single allele under the gamma model.

    G(C; mu/eta, eta): the chance that a peak with theoretical mean height
    mu falls below the detection threshold ``c``.
    """
    _require("positive", mu=mu, eta=eta, c=c)
    return float(sc.gammainc(mu / eta, c / eta))


def dropout_probability_logistic(alpha: float, beta: float, hbar: float) -> float:
    """Logistic-regression dropout curve alpha*h^beta / (1 + alpha*h^beta)."""
    _require("nonnegative", alpha=alpha)
    _require("finite", beta=beta)
    _require("positive", hbar=hbar)
    t = alpha * hbar**beta
    return t / (1.0 + t)


def homozygous_dropout_logistic(d: float, beta: float) -> float:
    """Homozygous dropout implied by the logistic model: 2^beta*d / (1 + (2^beta - 1)*d)."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1]: {d}")
    _require("finite", beta=beta)
    t = 2.0**beta
    return t * d / (1.0 + (t - 1.0) * d)


def params_from_mean_cv(mu: float, sigma: float) -> tuple[float, float]:
    """Convert mean peak height and coefficient of variation to (rho, eta)."""
    _require("positive", mu=mu, sigma=sigma)
    rho = 1.0 / (sigma * sigma)
    eta = mu * sigma * sigma
    return rho, eta


def mean_cv_from_params(rho: float, eta: float) -> tuple[float, float]:
    """Inverse of :func:`params_from_mean_cv`: (mu, sigma) = (rho*eta, 1/sqrt(rho))."""
    _require("positive", rho=rho, eta=eta)
    return rho * eta, 1.0 / math.sqrt(rho)
