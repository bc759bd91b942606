"""Generative simulation under the gamma model and model-criticism diagnostics.

simulate_trace draws peak heights exactly as the model describes them:
per contributor and allele, independent gamma components for the
undamaged and the stuttered part of the signal, stutter landing one
repeat unit below, and thresholding to zero below the detection limit.
probability_integral_transform computes, for every observed peak, its
conditional CDF value given all other evidence, from one forward-backward
sweep per stack of markers; under a correctly specified model these
values are approximately uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .engine import EvidenceBundle, Trace, _observed_peak_posteriors
from .peakmodel import ModelParameters, gamma_log_cdf, gamma_log_sf
from .population import SILENT_LABEL, FrequencyTable, GenotypeProfile

__all__ = [
    "SimulationConfig",
    "simulate_trace",
    "draw_genotype",
    "probability_integral_transform",
]


@dataclass(frozen=True)
class SimulationConfig:
    """One trace's generative setup; the seed fixes the full output stream.

    contributors maps role -> GenotypeProfile, or None to draw the
    genotype from Hardy-Weinberg at simulation time.  parameters must
    carry the simulated trace's id.
    """

    frequencies: FrequencyTable
    parameters: ModelParameters
    trace_id: str
    contributors: Mapping[str, GenotypeProfile | None]
    threshold: float
    markers: tuple[str, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.trace_id not in self.parameters.rho:
            raise ValueError(
                f"parameters do not cover simulated trace {self.trace_id!r}"
            )
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        phi = self.parameters.phi[self.trace_id]
        if set(phi) != set(self.contributors):
            raise ValueError(
                "phi roles and contributors must match: "
                f"{sorted(phi)} vs {sorted(self.contributors)}"
            )


def draw_genotype(
    freqs: FrequencyTable, rng, markers=None
) -> GenotypeProfile:
    """Random Hardy-Weinberg genotype across the given (default: all) markers."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    genotypes = {}
    for marker in markers or freqs.marker_names():
        ladder = freqs.ladder(marker)
        pair = rng.choice(len(ladder.alleles), size=2, p=ladder.frequencies)
        genotypes[marker] = tuple(
            sorted(ladder.alleles[i] for i in pair)
        )
    return GenotypeProfile.from_pairs({m: g for m, g in genotypes.items()})


def simulate_trace(config: SimulationConfig) -> Trace:
    """Draw one trace under the model; sub-threshold heights come out as 0.

    Per contributor and allele, the undamaged and stuttered components are
    independent Gamma(rho*(1-xi)*phi*n, eta) and Gamma(rho*xi*phi*n, eta)
    draws; the peak at an allele collects undamaged mass at that allele
    plus stutter from the allele one repeat unit above.  Stutter from an
    allele whose recipient is off the ladder is lost.
    """
    rng = np.random.default_rng(config.seed)
    freqs = config.frequencies
    params = config.parameters
    tid = config.trace_id
    markers = config.markers or freqs.marker_names()
    phi = params.phi[tid]
    eta = params.eta_for(tid)

    genotypes = {}
    for role, profile in config.contributors.items():
        genotypes[role] = (
            profile
            if profile is not None
            else draw_genotype(freqs, rng, markers)
        )

    heights = {}
    for marker in markers:
        ladder = freqs.ladder(marker)
        n_pos = len(ladder.alleles)
        rho = params.rho_for(tid, marker)
        xi = params.xi_for_marker(tid, marker)
        plain = np.zeros(n_pos)
        stutter = np.zeros(n_pos)
        for role in config.contributors:
            counts = np.array(genotypes[role].counts(marker, ladder), dtype=float)
            base = rho * phi[role] * counts
            plain += rng.gamma(np.maximum((1.0 - xi) * base, 0.0), eta)
            stutter += rng.gamma(np.maximum(xi * base, 0.0), eta)
        donor = ladder.donor
        peaks = plain + np.where(donor >= 0, stutter[donor], 0.0)
        row = {}
        for p, lab in enumerate(ladder.alleles):
            if lab == SILENT_LABEL:
                continue
            h = peaks[p] if peaks[p] >= config.threshold else 0.0
            if h > 0:
                row[lab] = float(h)
        if not row:
            # keep the marker's coverage visible with an explicit dropout row
            first = next(l for l in ladder.alleles if l != SILENT_LABEL)
            row[first] = 0.0
        heights[marker] = row
    return Trace(trace_id=tid, threshold=config.threshold, heights=heights)


def probability_integral_transform(
    bundle: EvidenceBundle, truncate: bool = True
) -> list[dict]:
    """Conditional CDF value of every observed peak given all other evidence.

    For each observed peak the value is the posterior-genotype-weighted
    mixture of gamma CDFs at the peak height, where the weights condition
    on everything except the peak's own height.  With ``truncate`` (the
    default) the peak's observed status is retained: weights use the
    survival probability at the threshold and the CDFs are truncated to
    [C, inf).  Without it the weights condition on nothing about the
    peak, and a genotype that gives it zero dose has CDF 1 (all its mass
    at 0).  One forward-backward sweep per stack of markers serves all
    their peaks, and one CDF call all the bundle's peaks.  Returns records
    {trace, marker, allele, height, pit}, marker by marker, then trace by
    trace; pit is NaN where the other evidence has zero probability.
    """
    peaks = _observed_peak_posteriors(bundle, truncate)
    return [
        {"trace": trace, "marker": marker, "allele": allele, "height": height,
         "pit": pit}
        for (trace, marker, allele), height, pit in zip(
            peaks.names, peaks.height.tolist(), _mixed_cdf(peaks, truncate).tolist()
        )
    ]


def _mixed_cdf(peaks, truncate):
    """Each peak's gamma CDFs at its height, mixed by its entries'
    posterior: one CDF call over the live entries of every peak, then one
    dot product per peak; NaN where the weights have no mass."""
    live = peaks.weights > 0.0
    peak = np.nonzero(live)[0]
    shapes, height, eta = peaks.shapes[live], peaks.height[peak], peaks.eta[peak]
    if truncate:
        # P(H <= z | H >= C) = 1 - Q(z) / Q(C), in log space where Q(C) underflows
        cdf = -np.expm1(gamma_log_sf(height, shapes, eta) - peaks.survival[live])
    else:
        cdf = np.exp(gamma_log_cdf(height, shapes, eta))
    weights, stops = peaks.weights[live], np.cumsum(live.sum(axis=1)).tolist()
    mixed = [weights[a:b] @ cdf[a:b] for a, b in zip([0] + stops, stops)]
    pit = np.clip(np.array(mixed, dtype=float), 0.0, 1.0)
    return np.where(np.isnan(peaks.weights[:, 0]), np.nan, pit)
