"""Gamma peak-height model for forensic DNA mixtures.

Exact likelihood evaluation marginalized over unknown contributors'
genotypes, maximum-likelihood parameter estimation, weight-of-evidence
computation, mixture deconvolution, and stutter/dropout/silent-allele
posterior analysis, for one or several jointly analysed traces.
"""

from .engine import (
    CombinationBudgetError,
    EvidenceBundle,
    Hypothesis,
    InfeasibleConditioningError,
    MarkerChainPosterior,
    Trace,
    batch_log_likelihood_and_gradient,
    brute_force_log_likelihood,
    bundle_posteriors,
    bundle_top_genotypes,
    conditioned_presence,
    log_likelihood_and_gradient,
    marker_log_likelihood,
    marker_posterior,
    presence_posteriors,
    top_k_joint_profiles,
    top_k_marker_genotypes,
    total_log_likelihood,
)
from .estimation import (
    FitResult,
    FitSpecification,
    ProfileCurve,
    contributor_sweep,
    efficiency_loss,
    fit,
    generic_efficiency_loss,
    numeric_hessian,
    profile_likelihood,
    standard_errors,
    weight_of_evidence,
)
from .peakmodel import (
    ModelParameters,
    PeakObservation,
    dropout_probability_gamma,
    dropout_probability_logistic,
    effective_allele_count,
    homozygous_dropout_logistic,
    mean_cv_from_params,
    params_from_mean_cv,
    peak_log_factor,
    post_stutter_count,
)
from .population import (
    FrequencyTable,
    GenotypeProfile,
    chain_conditional,
    genotype_prior,
    match_probability,
    stutter_successor,
    with_silent,
)
from .simulate import (
    SimulationConfig,
    draw_genotype,
    probability_integral_transform,
    simulate_trace,
)

__version__ = "0.1.0"
