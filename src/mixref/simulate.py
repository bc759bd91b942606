"""Generative simulation under the gamma model and model-criticism diagnostics.

simulate_trace draws peak heights exactly as the model describes them:
per contributor and allele, independent gamma components for the
undamaged and the stuttered part of the signal, stutter landing one
repeat unit below, and thresholding to zero below the detection limit.
probability_integral_transform computes, for every observed peak, its
conditional CDF value given all other evidence; under a correctly
specified model these values are approximately uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import special as sc
from scipy.special import logsumexp

from .engine import (
    EvidenceBundle,
    Trace,
    _backward,
    _factor_tables,
    _forward,
    _plan_for,
    _step_values,
    _view_terms,
)
from .peakmodel import ModelParameters
from .population import SILENT_LABEL, FrequencyTable, GenotypeProfile, stutter_successor

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
        donor = np.full(n_pos, -1)
        for p, lab in enumerate(ladder.alleles):
            if lab == SILENT_LABEL:
                continue
            s = stutter_successor(freqs, marker, lab)
            if s is not None:
                donor[p] = s
        plain = np.zeros(n_pos)
        stutter = np.zeros(n_pos)
        for role in config.contributors:
            counts = np.array(genotypes[role].counts(marker, ladder), dtype=float)
            base = rho * phi[role] * counts
            plain += rng.gamma(np.maximum((1.0 - xi) * base, 0.0), eta)
            stutter += rng.gamma(np.maximum(xi * base, 0.0), eta)
        peaks = plain.copy()
        for p in range(n_pos):
            if donor[p] >= 0:
                peaks[p] += stutter[donor[p]]
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


def _truncated_gamma_cdf(z, c, shape, eta):
    # P(H <= z | H >= c) via upper tails: (Q(c) - Q(z)) / Q(c)
    qc = sc.gammaincc(shape, c / eta)
    qz = sc.gammaincc(shape, z / eta)
    if qc <= 0.0:
        return 1.0
    return float(min(max((qc - qz) / qc, 0.0), 1.0))


def probability_integral_transform(
    bundle: EvidenceBundle, truncate: bool = True
) -> list[dict]:
    """Conditional CDF value of every observed peak given all other evidence.

    For each observed peak the value is the posterior-genotype-weighted
    mixture of gamma CDFs at the peak height, where the weights condition
    on everything except the peak's own height.  With ``truncate`` (the
    default) the peak's observed status is retained: weights use the
    survival probability at the threshold and the CDFs are truncated to
    [C, inf).  Returns records {trace, marker, allele, height, pit}.
    """
    params = bundle.parameters
    out = []
    for marker in bundle.covered_markers():
        plan = _plan_for(bundle, marker)
        terms = _view_terms(plan, params)
        for vi, view in enumerate(plan.traces):
            for p in np.flatnonzero(view.observed):
                p = int(p)
                pit = _pit_one_peak(plan, terms, vi, p, truncate)
                out.append(
                    {
                        "trace": view.trace_id,
                        "marker": marker,
                        "allele": plan.internal_labels[p],
                        "height": float(view.heights[p]),
                        "pit": pit,
                    }
                )
    return out


def _pit_one_peak(plan, terms, view_idx, p, truncate):
    view = plan.traces[view_idx]
    replacement = "survival" if truncate else "flat"
    pairwise, single = _factor_tables(
        plan, terms, replace_target=(view_idx, p, replacement)
    )
    lw_final, history = _forward(plan, pairwise, single, keep=True)
    loglik = float(logsumexp(lw_final))
    if not np.isfinite(loglik):
        return float("nan")
    lb = _backward(plan, pairwise, single)
    term = terms[view_idx]
    rho, eta, xi, base = term.rho, term.eta, term.xi, term.base

    t_emit = p + 1 if plan.coupled[p] else p
    edges = plan.edges0 if t_emit == 0 else plan.edges
    lw_prev = np.zeros(1) if t_emit == 0 else history[t_emit - 1]
    _, vals = _step_values(plan, t_emit, pairwise, single, None)
    logw = lw_prev[edges.src] + vals + lb[t_emit][edges.dst] - loglik

    # dose of the target position per edge: (draw at p, draw at its donor)
    if plan.coupled[p]:
        d = (1.0 - xi) * base[p, plan.state_ncombo[edges.src]] + xi * base[
            p + 1, edges.combo
        ]
    else:
        d = (1.0 - xi) * base[p, edges.combo]

    z = float(view.heights[p])
    c = view.threshold
    w = np.exp(logw)
    keep = w > 0.0
    pit = 0.0
    for weight, dval in zip(w[keep], np.asarray(d)[keep]):
        shape = rho * dval
        if shape <= 0.0:
            continue  # observed peak impossible at zero dose; weight is zero
        if truncate:
            pit += weight * _truncated_gamma_cdf(z, c, shape, eta)
        else:
            pit += weight * float(sc.gammainc(shape, z / eta))
    return float(min(max(pit, 0.0), 1.0))
