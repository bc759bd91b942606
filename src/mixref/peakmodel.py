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


def _log_lower_gamma_series(a, y):
    # log P(a, y) via the ascending series
    #   P(a, y) = y^a e^-y / Gamma(a+1) * sum_k y^k / prod_{j<=k} (a+j),
    # used where gammainc underflows (which implies y << a + 1).
    total = 1.0
    term = 1.0
    for k in range(1, 500):
        term *= y / (a + k)
        total += term
        if term < 1e-18 * total:
            break
    return a * math.log(y) - y - sc.gammaln(a + 1.0) + math.log(total)


def gamma_log_cdf(x, shape, scale):
    """Log CDF of Gamma(shape, scale) at x, without lower-tail underflow.

    Uses the regularized lower incomplete gamma function, falling back to
    a direct log-space series in the deep lower tail so that log values
    far below log(realmin) are still computed accurately.  ``shape == 0``
    is the point mass at 0, whose CDF at any x >= 0 is 1 (log 0.0).
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
        out[tiny] = [_log_lower_gamma_series(av, yv) for av, yv in zip(a, y_tiny)]
    np.copyto(out, -np.inf, where=(shape > 0.0) & (y <= 0.0))
    np.copyto(out, np.where(y >= 0.0, 0.0, -np.inf), where=shape <= 0.0)
    return float(out[0]) if scalar else out


def _log_upper_gamma_cf(a, y):
    # log Q(a, y) via the continued fraction (modified Lentz)
    #   Q(a, y) = y^a e^-y / Gamma(a) * 1/(y+1-a- 1(1-a)/(y+3-a- 2(2-a)/(y+5-a- ...))),
    # used where gammaincc underflows (which implies y >> a).
    tiny = 1e-300
    b = y + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return a * math.log(y) - y - sc.gammaln(a) + math.log(h)


def gamma_log_sf(x, shape, scale):
    """Log survival function of Gamma(shape, scale) at x, without upper-tail underflow.

    Uses the regularized upper incomplete gamma function, falling back to
    a log-space continued fraction where it underflows.
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
        out[tiny] = [_log_upper_gamma_cf(av, yv) for av, yv in zip(a, y_tiny)]
    out = np.where(shape <= 0.0, -np.inf, out)
    out = np.where((shape > 0.0) & (y <= 0.0), 0.0, out)
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
    gamma_log_cdf (so the deep lower tail goes through the same series)
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
    return float(phi @ counts)


def post_stutter_count(xi: float, b_here: float, b_successor: float) -> float:
    """Effective count after stutter: (1 - xi) * B_a + xi * B_{a+1}.

    ``b_successor`` is the effective count of the allele one repeat unit
    above, the donor of stutter into this allele; pass 0 when that allele
    is not on the ladder.
    """
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"xi must lie in [0, 1): {xi}")
    if b_here < 0 or b_successor < 0:
        raise ValueError("effective counts must be nonnegative")
    return (1.0 - xi) * b_here + xi * b_successor


def peak_log_factor(obs: PeakObservation, rho: float, eta: float, d: float) -> float:
    """Log-likelihood factor of one peak observation.

    Observed peaks contribute the Gamma(rho*d, eta) log density at the
    height; unobserved ones the log CDF at the threshold.  d == 0 is the
    point mass at zero: impossible for an observed peak (-inf), certain
    dropout for an unobserved one (0.0).
    """
    if d < 0:
        raise ValueError("effective count d must be nonnegative")
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
    if mu <= 0 or eta <= 0 or c <= 0:
        raise ValueError("mu, eta and c must all be positive")
    return float(sc.gammainc(mu / eta, c / eta))


def dropout_probability_logistic(alpha: float, beta: float, hbar: float) -> float:
    """Logistic-regression dropout curve alpha*h^beta / (1 + alpha*h^beta)."""
    if hbar <= 0:
        raise ValueError("mean peak height must be positive")
    t = alpha * hbar**beta
    return t / (1.0 + t)


def homozygous_dropout_logistic(d: float, beta: float) -> float:
    """Homozygous dropout implied by the logistic model: 2^beta*d / (1 + (2^beta - 1)*d)."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1]: {d}")
    t = 2.0**beta
    return t * d / (1.0 + (t - 1.0) * d)


def params_from_mean_cv(mu: float, sigma: float) -> tuple[float, float]:
    """Convert mean peak height and coefficient of variation to (rho, eta)."""
    if mu <= 0 or sigma <= 0:
        raise ValueError("mu and sigma must be positive")
    rho = 1.0 / (sigma * sigma)
    eta = mu * sigma * sigma
    return rho, eta


def mean_cv_from_params(rho: float, eta: float) -> tuple[float, float]:
    """Inverse of :func:`params_from_mean_cv`: (mu, sigma) = (rho*eta, 1/sqrt(rho))."""
    if rho <= 0 or eta <= 0:
        raise ValueError("rho and eta must be positive")
    return rho * eta, 1.0 / math.sqrt(rho)
