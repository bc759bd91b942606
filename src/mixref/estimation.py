"""Maximum-likelihood fitting, standard errors, and weight-of-evidence.

Parameters are estimated by maximizing the exact marginal likelihood over
the constrained space {rho > 0, eta > 0, xi in [0, 1), phi on the simplex
with unknown fractions non-increasing}.  The optimizer works in one chart
of unconstrained internal coordinates (log rho, log eta, a logit, and a
stick-breaking transform whose unknown block is an ordered split),
started from several dispersed feasible points.  A parameter is held by a
``fixed`` override, and only that way: mu and sigma overrides are
translated into rho and eta (a mu alone makes its trace's eta derived,
eta = mu / rho), and profile likelihoods are fits with one more
override.  Which blocks of values are held, derived or free is decided
once, in :meth:`_Structure.assemble`, one walk of the blocks for K rows
of coordinates at once: the optimizer's coordinates, the starting points
and the reporting chart of the standard errors only say what values a
free block takes, and their derivatives in the block's own coordinates.
The walk gives the engine's arrays of the K parameter sets, their
(K, keys, coordinates) Jacobian and the rows that ModelParameters or
EvidenceBundle.with_parameters would refuse; a ModelParameters is built
only where a result needs one.  Approximate standard errors come from
the inverse Hessian in the reporting parametrization (mu, sigma, xi,
phi), with boundary-active parameters handled by a restricted model.
Both the optimizer and the Hessian use the exact gradient of the log
likelihood from the forward-backward pass, chained to the chart's
coordinates by each row's exact Jacobian: no finite difference inside
a pass.  The optimizer is L-BFGS-B with that gradient, one search per
start, each stepped from the calling thread by reverse communication
(:class:`_LBFGSB`, scipy's ``setulb``); the starts run in lockstep, so
that each round's points are charted by one walk and evaluated by one
batched engine call on the walk's arrays (:func:`_evaluate`), and each
start's search, and so the result and the evaluation count, are those
of scipy's L-BFGS-B run from each start alone.  No thread is started.
The Hessian is the symmetrized central difference of gradients, 2n
points for n free coordinates, evaluated as one batch.  scipy.optimize
is imported on the first fit with free parameters, not with this
module, so a run that fits no free parameter never loads it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    EvidenceBundle,
    Hypothesis,
    _batch_passes,
    _check_coverage,
    _gradient_keys,
    _ParameterSets,
    _trace_roles,
    check_unknown_count,
    total_log_likelihood,
)
from .peakmodel import ModelParameters, params_from_mean_cv
from .population import FrequencyTable, GenotypeProfile, match_probability

__all__ = [
    "FitSpecification",
    "FitResult",
    "fit",
    "standard_errors",
    "weight_of_evidence",
    "efficiency_loss",
    "generic_efficiency_loss",
    "profile_likelihood",
    "ProfileCurve",
    "contributor_sweep",
    "numeric_hessian",
    "numeric_gradient",
]

LOG10 = math.log(10.0)
_BOUNDARY_TOL = 1e-4
_PENALTY = 1e15
_TOLERANCE = 1e-8  # L-BFGS-B ftol: stop at this relative reduction
_N_STARTS = 3


# ---------------------------------------------------------------------------
# Specification and result containers


def _check_share(share):
    """Refuse share entries other than rho, eta, xi and phi (ValueError)."""
    bad = set(share) - {"rho", "eta", "xi", "phi"}
    if bad:
        raise ValueError(f"unknown share entries: {sorted(bad)}")


@dataclass(frozen=True)
class FitSpecification:
    """What to fit and how.

    share
        Which of rho, eta, xi, phi use a single value across traces.
        Default shares eta and xi, leaving rho and phi per trace.
    fixed
        Overrides removed from the optimization, e.g.
        {"xi": 0.079, "eta": 28.8} or {"rho": {"T1": 30.0}} or
        {"phi": {"T1": {"K1": 0.8, "U1": 0.2}}}.  Per trace, "sigma"
        fixes rho = 1/sigma^2; "mu" with "sigma" fixes rho and eta; "mu"
        alone fixes mu = rho * eta with rho free, so the trace's eta block
        follows its rho (one trace per shared eta block).  A mu together
        with a fixed eta, a sigma together with a fixed rho, or a trace
        id that is not in the bundle is refused.

    max_iterations caps L-BFGS-B per start (an integer of at least 1),
    seed draws jittered starts when the policy starts coincide, and
    extra_starts adds starts, each covering exactly the bundle's traces
    and each trace's roles.
    """

    bundle: EvidenceBundle
    share: frozenset[str] = frozenset({"eta", "xi"})
    fixed: Mapping[str, object] = field(default_factory=dict)
    max_iterations: int = 1000
    seed: int = 0
    extra_starts: tuple[ModelParameters, ...] = ()
    compute_standard_errors: bool = True

    def __post_init__(self):
        _check_share(self.share)
        cap = self.max_iterations
        if not isinstance(cap, numbers.Integral) or isinstance(cap, bool) or cap < 1:
            raise ValueError(
                f"max_iterations must be an integer of at least 1, got {cap!r}"
            )
        object.__setattr__(self, "share", frozenset(self.share))
        object.__setattr__(self, "extra_starts", tuple(self.extra_starts))
        for i, start in enumerate(self.extra_starts):
            try:
                _check_coverage(start, self.bundle)
            except ValueError as err:
                raise ValueError(f"extra start {i} does not fit the bundle: {err}") from err


@dataclass(frozen=True)
class FitResult:
    """A fitted model with reporting-scale estimates and diagnostics.

    n_evaluations counts likelihood passes, each a value and gradient
    (one value pass when every parameter is fixed): the parameter sets
    the lockstep starts evaluated, the sum of the evaluation counts
    (nfev) of scipy's L-BFGS-B run from each start alone; standard
    errors add passes of their own.
    start_log_likelihoods holds the optimum reached from each start, in
    start order (-inf where a start never left the infeasible region); its
    maximum is log_likelihood, the value of the best start's last pass.
    Entries far apart mean the likelihood has several local optima.
    """

    parameters: ModelParameters
    log_likelihood: float
    log10_likelihood: float
    estimates: Mapping[str, Mapping[str, object]]
    standard_errors: Mapping[str, Mapping[str, object]] | None
    boundary: Mapping[str, Mapping[str, object]]
    converged: bool
    iterations: int
    n_evaluations: int
    final_gradient_norm: float | None
    hypothesis_id: str | None = None
    bundle: EvidenceBundle = field(repr=False, compare=False, default=None)
    start_log_likelihoods: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Parameter structure: blocks of shared values and coordinate transforms


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _logit(p):
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return math.log(p / (1.0 - p))


@functools.cache
def _triangles(n_items):
    """Read-only constants of a split of n_items: log(n_items - j - 1) per
    coordinate j, the (n_items, n_items - 1) identity, its lower triangle
    as a mask, and its strict lower triangle as numbers."""
    out = (
        np.array([math.log(n_items - j - 1) for j in range(n_items - 1)]),
        np.eye(n_items, n_items - 1),
        np.tri(n_items, n_items - 1, dtype=bool),
        np.tri(n_items, n_items - 1, -1),
    )
    for table in out:
        table.setflags(write=False)
    return out


def _stick_break(thetas, n_items):
    """The split of 1 into n_items weights, and its Jacobian in the thetas,
    at each row of ``thetas`` (K, n_items - 1).

    theta = 0 everywhere gives the uniform split.  Weight j is
    rem_j * v_j with v_j = sigmoid(theta_j - log(n_items - j - 1)) and
    rem_j = prod_{i<j} (1 - v_i), so d w_j / d theta_i = w_j ([i = j] - v_i)
    for i <= j and 0 for i > j (the last weight is rem).
    """
    offsets, eye, lower, _ = _triangles(n_items)
    v = _sigmoid(thetas - offsets)
    rem = np.ones((len(thetas), n_items))
    np.cumprod(1.0 - v, axis=1, out=rem[:, 1:])
    weights = rem
    weights[:, :-1] *= v
    return weights, np.where(lower, weights[:, :, None] * (eye - v[:, None, :]), 0.0)


def _stick_invert(weights):
    n_items = len(weights)
    thetas = np.empty(max(n_items - 1, 0))
    rem = 1.0
    for j in range(n_items - 1):
        v = weights[j] / rem if rem > 0 else 0.0
        thetas[j] = _logit(v) + math.log(n_items - j - 1)
        rem -= weights[j]
    return thetas


def _phi_from_theta(theta, n_known, n_unknown):
    """Fractions at each row of stick-breaking coordinates ``theta``, and
    their Jacobians: (K, roles) and (K, roles, coordinates).

    The knowns and the unknown block split 1 by stick-breaking; the block
    splits its mass in proportion to u = (1, r_1, r_1 r_2, ...), with
    r_k = sigmoid of the block's k-th coordinate.  The result sums to 1
    identically, so the Jacobian's columns sum to 0.
    """
    n_items = n_known + (1 if n_unknown else 0)
    outer, d_outer = _stick_break(theta[:, :max(n_items - 1, 0)], n_items)
    if n_unknown <= 1:
        return outer, d_outer
    block = outer[:, -1]
    ratios = _sigmoid(theta[:, n_items - 1:])
    u = np.ones((len(theta), n_unknown))
    np.cumprod(ratios, axis=1, out=u[:, 1:])
    total = u.sum(axis=1, keepdims=True)
    parts = block[:, None] * u / total
    share = u / total
    # d parts_l / d theta_k = parts_l (1 - r_k) ([k < l] - sum_{m > k} share_m)
    later = _triangles(n_unknown)[3]
    beyond = np.cumsum(share[:, ::-1], axis=1)[:, ::-1][:, 1:]
    k = n_items - 1  # the knowns' coordinates, then the block's
    jac = np.zeros((len(theta), k + n_unknown, k + n_unknown - 1))
    jac[:, :k, :k] = d_outer[:, :-1]
    jac[:, k:, :k] = share[:, :, None] * d_outer[:, -1:]
    jac[:, k:, k:] = (parts[:, :, None] * (1.0 - ratios[:, None, :])
                      * (later - beyond[:, None, :]))
    return np.concatenate([outer[:, :-1], parts], axis=1), jac


def _exp(x):
    """math.exp of each element (np.exp may differ in the last bit), NaN
    where it overflows, which the row check refuses."""
    out = np.empty(len(x))
    for k, value in enumerate(x.tolist()):
        try:
            out[k] = math.exp(value)
        except OverflowError:
            out[k] = math.nan
    return out


def _theta_from_phi(phi, n_known, n_unknown):
    phi = np.asarray(phi, dtype=float)
    n_items = n_known + (1 if n_unknown else 0)
    if n_unknown == 0:
        return _stick_invert(phi)
    block = max(phi[n_known:].sum(), 1e-12)
    outer = np.concatenate([phi[:n_known], [block]])
    theta = list(_stick_invert(outer))
    if n_unknown > 1:
        parts = np.maximum(phi[n_known:], 1e-15)
        for j in range(n_unknown - 1):
            theta.append(_logit(min(parts[j + 1] / parts[j], 1.0 - 1e-12)))
    return np.array(theta)


@dataclass(frozen=True)
class _Block:
    """Traces sharing one scalar: held at ``fixed``, or a free coordinate.

    An eta block with a fixed ``mu`` has no coordinate either: its eta is
    mu / rho of the ``mu_anchor`` trace.
    """

    traces: tuple[str, ...]
    fixed: float | None
    mu: float | None = None
    mu_anchor: str | None = None

    @property
    def free(self):
        return self.fixed is None and self.mu is None


@dataclass(frozen=True)
class _PhiBlock:
    traces: tuple[str, ...]
    roles: tuple[str, ...]
    n_known: int
    fixed: tuple[float, ...] | None

    @property
    def n_unknown(self):
        return len(self.roles) - self.n_known

    @property
    def n_free(self):
        if self.fixed is not None:
            return 0
        k, m = self.n_known, self.n_unknown
        if m == 0:
            return max(k - 1, 0)
        return k + m - 1


def _normalize_fixed(fixed, trace_ids):
    """Expand fixed overrides into per-family {trace: value} maps.

    sigma becomes rho = 1/sigma^2, and mu with sigma on the same trace
    becomes rho and eta.  A mu given alone stays under "mu": the trace's
    eta block is derived from it.  A trace id not in ``trace_ids`` is
    refused, and so is a value that is not a number (for phi, a mapping
    of roles to numbers).
    """

    def is_number(v):
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    fixed = dict(fixed or {})
    out = {}
    for family in ("rho", "eta", "xi", "mu", "sigma", "phi"):
        val = fixed.pop(family, {})
        out[family] = dict(val) if isinstance(val, Mapping) else dict.fromkeys(
            trace_ids, val
        )
        for t, v in out[family].items():
            if t not in trace_ids:
                raise ValueError(
                    f"fixed {family} names trace {t!r}, not one of {list(trace_ids)}"
                )
            if family == "phi":
                want = "a mapping of roles to numbers"
                ok = isinstance(v, Mapping) and all(map(is_number, v.values()))
            else:
                want, ok = "a number", is_number(v)
            if not ok:
                raise ValueError(
                    f"fixed {family} for trace {t!r} must be {want}, got {v!r}"
                )
    out["phi"] = {t: dict(v) for t, v in out["phi"].items()}
    if fixed:
        raise ValueError(f"unknown fixed-parameter keys: {sorted(fixed)}")
    mu, sigma = out["mu"], out.pop("sigma")
    if not all(v > 0 for v in (*mu.values(), *sigma.values())):
        raise ValueError("mu and sigma overrides must be positive")
    for name, other, family in (("mu", mu, "eta"), ("sigma", sigma, "rho")):
        clash = sorted(set(other) & set(out[family]))
        if clash:
            raise ValueError(f"{name} and {family} are both fixed for traces {clash}")
    for t, sig in sigma.items():
        if t in mu:
            out["rho"][t], out["eta"][t] = params_from_mean_cv(mu.pop(t), sig)
        else:
            out["rho"][t] = 1.0 / (sig * sig)
    return out


class _Structure:
    """The parameter blocks of a fit, and the optimizer's chart of them.

    ``blocks`` maps each family, in coordinate order (rho, eta, xi, phi),
    to its blocks of traces that share one value.
    """

    def __init__(self, spec: FitSpecification):
        bundle = spec.bundle
        self.bundle = bundle
        self.trace_ids = tuple(t.trace_id for t in bundle.traces)
        self.hypothesis = bundle.hypothesis
        # per-marker overrides are data-level constants that survive the fit
        self.marker_rho = bundle.parameters.marker_rho
        self.marker_xi = bundle.parameters.marker_xi
        fixed = _normalize_fixed(spec.fixed, self.trace_ids)

        def groups(family):
            if family in spec.share:
                return [self.trace_ids]
            return [(t,) for t in self.trace_ids]

        def held(family, traces, given):
            """The fixed value of a block's traces in ``given``, or None."""
            have = [t for t in traces if t in given]
            if have and len(have) < len(traces):
                raise ValueError(
                    f"fixed {family} must cover all traces sharing a value: {traces}"
                )
            vals = {given[t] for t in have}
            if len(vals) > 1:
                raise ValueError(
                    f"conflicting fixed {family} values for shared traces {traces}"
                )
            return vals.pop() if vals else None

        def scalar_block(family, traces):
            anchors = [t for t in traces if t in fixed["mu"]] if family == "eta" else []
            if len(anchors) > 1:
                raise ValueError(
                    f"mu fixed on several traces sharing eta: {anchors}; fix it on one"
                )
            anchor = anchors[0] if anchors else None
            return _Block(traces, held(family, traces, fixed[family]),
                          fixed["mu"].get(anchor), anchor)

        self.blocks = {
            family: [scalar_block(family, traces) for traces in groups(family)]
            for family in ("rho", "eta", "xi")
        }
        self.blocks["phi"] = []
        for traces in groups("phi"):
            role_sets = {self.hypothesis.roles_for(t) for t in traces}
            if len(role_sets) > 1:
                raise ValueError(
                    "phi can only be shared across traces with identical roles"
                )
            roles = role_sets.pop()
            n_known = sum(1 for r in roles if r in self.hypothesis.known)
            if tuple(r for r in roles if r in self.hypothesis.known) != roles[:n_known]:
                raise AssertionError("roles_for must list knowns first")
            given = {}
            for t in set(traces) & set(fixed["phi"]):
                if set(fixed["phi"][t]) != set(roles):
                    raise ValueError(
                        f"fixed phi for {t!r} must cover roles {list(roles)}"
                    )
                given[t] = tuple(float(fixed["phi"][t][r]) for r in roles)
            vec = held("phi", traces, given)
            if vec is not None:  # normalized once, here
                vec = np.maximum(np.asarray(vec), 0.0)
                vec = tuple((vec / vec.sum()).tolist())
            self.blocks["phi"].append(_PhiBlock(traces, roles, n_known, vec))

        self.n_free = (
            sum(b.free for f in ("rho", "eta", "xi") for b in self.blocks[f])
            + sum(b.n_free for b in self.blocks["phi"])
        )
        _, self.roles, self.n_known = _trace_roles(bundle)
        # the primitive parameters, as the engine's gradient keys them
        self.keys = _gradient_keys(self.trace_ids, self.roles)
        self.row = {key: i for i, key in enumerate(self.keys)}

    def block_of(self, family, trace_id):
        for b in self.blocks[family]:
            if trace_id in b.traces:
                return b
        raise KeyError(trace_id)

    def assemble(self, free, n_rows, n_coords, eta_by_mu=False):
        """K = ``n_rows`` parameter sets, every block held, derived or taken
        from ``free``, with their Jacobians in a chart's ``n_coords``
        coordinates and the sets the engine would refuse.

        Returns the sets as the engine's arrays (_ParameterSets), the
        (K, keys, n_coords) Jacobian, one row per primitive parameter in
        ``keys`` order, and the (K,) mask of the sets that ModelParameters
        or EvidenceBundle.with_parameters would refuse, each set on its
        own (see _ParameterSets.refused).  The walk over the blocks is one
        for all sets, in coordinate order.  A held block takes its value;
        an eta block with a fixed mu takes mu / rho of its anchor trace;
        any other block takes ``free(family, block)`` = (values, d): its
        (K,) values (for phi (K, roles)) and their partial derivatives in
        the coordinates it consumes, (K, coordinates) (for phi
        (K, coordinates, roles)), the coordinates numbered on from the
        previous block's.  A value the chart refuses is NaN.  With
        ``eta_by_mu`` a free eta block's value is the mu of its first
        trace and its eta is mu / rho of that trace, as for a fixed mu; a
        derived eta moves with its anchor's rho coordinates.  A block
        shared by several traces gives each of them its value and its
        Jacobian rows, so the chained gradient gathers all of theirs.
        """
        column = {t: j for j, t in enumerate(self.trace_ids)}
        vals = {f: np.empty((n_rows, len(column))) for f in ("rho", "eta", "xi")}
        phi = {}
        jac = np.zeros((n_rows, len(self.keys), n_coords))
        col = 0
        for family, out in vals.items():
            for b in self.blocks[family]:
                anchor, d = None, np.zeros((n_rows, 0))
                if b.fixed is not None:
                    val = np.full(n_rows, float(b.fixed))
                elif b.mu is not None:
                    val, anchor = np.full(n_rows, float(b.mu)), b.mu_anchor
                else:
                    val, d = free(family, b)
                    if family == "eta" and eta_by_mu:
                        anchor = b.traces[0]
                row = np.zeros((n_rows, n_coords))
                row[:, col:col + d.shape[1]] = d
                col += d.shape[1]
                if anchor is not None:  # eta = mu / rho of the anchor trace
                    rho = vals["rho"][:, column[anchor]]
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        val = val / rho
                        row = ((row - val[:, None] * jac[:, self.row["rho", anchor]])
                               / rho[:, None])
                for t in b.traces:
                    out[:, column[t]] = val
                    jac[:, self.row[family, t]] = row
        for b in self.blocks["phi"]:
            if b.fixed is not None:
                vec, d = np.tile(b.fixed, (n_rows, 1)), np.zeros((n_rows, 0, len(b.roles)))
            else:
                vec, d = free("phi", b)
            for t in b.traces:  # a trace's phi rows follow one another
                phi[t] = vec
                first = self.row["phi", t, b.roles[0]]
                jac[:, first:first + len(b.roles), col:col + d.shape[1]] = (
                    d.transpose(0, 2, 1)
                )
            col += d.shape[1]
        if col != n_coords:
            raise AssertionError(f"consumed {col} of {n_coords} coordinates")
        sets = _ParameterSets(
            self.trace_ids, self.roles, self.n_known,
            vals["rho"], vals["eta"], vals["xi"],
            tuple(phi[t] for t in self.trace_ids), self.marker_rho, self.marker_xi,
        )
        return sets, jac, sets.refused(self.bundle.frequencies)

    def unpack(self, thetas):
        """The walk (see :meth:`assemble`) at each row of the optimizer's
        coordinates ``thetas`` (K, n).

        rho and eta are exp, xi a sigmoid and phi stick-breaking; the clip
        and renormalization of phi move only round-off, since the split
        sums to 1 identically, and add nothing to the derivative.
        """
        thetas = np.asarray(thetas, dtype=float)
        n_rows = len(thetas)
        # the free phi blocks of one shape are charted together, rows stacked
        at = sum(b.free for f in ("rho", "eta", "xi") for b in self.blocks[f])
        shapes, phis = {}, {}
        for b in self.blocks["phi"]:
            if b.fixed is None:
                shapes.setdefault((b.n_known, b.n_unknown), []).append((b, at))
                at += b.n_free
        for (n_known, n_unknown), members in shapes.items():
            vec, jac = _phi_from_theta(
                np.concatenate([thetas[:, c:c + b.n_free] for b, c in members]),
                n_known, n_unknown,
            )
            vec = np.maximum(vec, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                vec = vec / vec.sum(axis=1, keepdims=True)
            jac = jac.transpose(0, 2, 1)
            for n, (b, _) in enumerate(members):
                rows = slice(n * n_rows, (n + 1) * n_rows)
                phis[b.traces] = vec[rows], jac[rows]
        i = 0

        def free(family, b):
            nonlocal i
            if family == "phi":
                return phis[b.traces]
            i += 1
            x = thetas[:, i - 1]
            if family == "xi":
                v = _sigmoid(x)
                return v, (v * (1.0 - v))[:, None]
            v = _exp(x)
            return v, v[:, None]

        return self.assemble(free, n_rows, thetas.shape[1])

    def parameters(self, theta) -> ModelParameters:
        """ModelParameters at the optimizer's coordinates ``theta``; building
        them checks them (ValueError)."""
        return self.unpack(np.asarray(theta, dtype=float)[None])[0].parameters(0)

    def pack(self, sets) -> np.ndarray:
        """The optimizer's coordinates of each parameter set of ``sets``
        (_ParameterSets), (K, n): each free block's value at its first
        trace."""
        column = {t: j for j, t in enumerate(sets.trace_ids)}
        coords = []
        for family, to_coord in (("rho", math.log), ("eta", math.log), ("xi", _logit)):
            for b in self.blocks[family]:
                if b.free:
                    values = getattr(sets, family)[:, column[b.traces[0]]]
                    coords.append([[to_coord(v)] for v in values.tolist()])
        for blk in self.blocks["phi"]:
            if blk.fixed is None:
                coords.append([
                    _theta_from_phi(vec, blk.n_known, blk.n_unknown)
                    for vec in sets.phi[column[blk.traces[0]]]
                ])
        n_sets = len(sets.rho)
        return np.concatenate(
            [np.zeros((n_sets, 0))]
            + [np.array(c, dtype=float).reshape(n_sets, -1) for c in coords], axis=1
        )


# ---------------------------------------------------------------------------
# Starting points


def _data_mu0(bundle, traces):
    vals = []
    for t in bundle.traces:
        if t.trace_id not in traces:
            continue
        for marker in t.markers():
            total = sum(t.heights[marker].values())
            if total > 0:
                vals.append(total / 2.0)
    if not vals:
        return 2.0 * max(t.threshold for t in bundle.traces)
    return float(np.mean(vals))


def _phi_policy(n_known, n_unknown, policy):
    k, m = n_known, n_unknown
    if k + m == 1:
        return np.ones(1)
    if policy == "equal":
        return np.full(k + m, 1.0 / (k + m))
    if policy == "known_heavy":
        known_mass = 0.9 if (k and m) else 1.0
    else:
        known_mass = 0.1 if (k and m) else 1.0
    out = np.empty(k + m)
    if k:
        out[:k] = known_mass / k
    block = 1.0 - known_mass if k else 1.0
    if m:
        ratio = 0.5 if policy == "known_heavy" else 0.4
        u = ratio ** np.arange(m)
        out[k:] = block * u / u.sum()
    return out


def _starting_points(spec: FitSpecification, structure: _Structure):
    """The starts of a fit: the policy starts that differ, then the extra
    starts, then jittered copies of the first up to _N_STARTS.  The policy
    starts are one walk of the blocks (see :meth:`_Structure.assemble`),
    and a start that ModelParameters refuses raises its error."""
    mu0 = {
        b.traces: _data_mu0(spec.bundle, set(b.traces)) for b in structure.blocks["rho"]
    }
    policies = [("equal", 1.0), ("known_heavy", 1.0), ("unknown_heavy", 1.0),
                ("equal", 0.5), ("equal", 2.0), ("equal", 0.25)]
    n = len(policies)

    def free(family, b):
        if family == "rho":
            return np.full(n, 1.0 / 0.25**2), np.zeros((n, 0))  # sigma 0.25
        if family == "eta":  # a mu
            mu = mu0[structure.block_of("rho", b.traces[0]).traces]
            return np.array([mu * scale for _, scale in policies]), np.zeros((n, 0))
        if family == "xi":
            return np.full(n, 0.05), np.zeros((n, 0))
        return (np.array([_phi_policy(b.n_known, b.n_unknown, policy)
                          for policy, _ in policies]).reshape(n, len(b.roles)),
                np.zeros((n, 0, len(b.roles))))

    built, _, refused = structure.assemble(free, n, 0, eta_by_mu=True)
    thetas = []
    seen = set()

    def add(sets):
        th = structure.pack(sets)[0]
        key = tuple(np.round(th, 9))
        if key not in seen:
            seen.add(key)
            thetas.append(th)

    for k in range(n):
        if k >= 3 and len(thetas) >= _N_STARTS:
            break
        if refused[k]:
            built.parameters(k)  # raises what ModelParameters refuses
        add(built.take([k]))
    for extra in spec.extra_starts:
        add(_ParameterSets.of(spec.bundle, [extra]))
    if _N_STARTS > len(thetas):
        rng = np.random.default_rng(spec.seed)
        while len(thetas) < _N_STARTS:
            thetas.append(thetas[0] + rng.normal(0.0, 0.3, size=len(thetas[0])))
    return thetas


# ---------------------------------------------------------------------------
# Fitting


def _evaluate(structure, chart, points):
    """log L and its gradient in the coordinates of a chart of the structure,
    at each of ``points``, by one chart walk and one batched engine call.

    ``chart(x)`` walks the blocks once for the K rows of x (see
    :meth:`_Structure.assemble`): it gives the engine's arrays of the K
    parameter sets, their exact Jacobians in x and the rows the engine
    would refuse.  The arrays go to the engine as they are, and each
    row's gradient in the primitive parameters is chained by its own
    Jacobian, one product per row: no finite difference, no
    ModelParameters.  A refused row gets None; if the batched call
    raises, the rows are evaluated one at a time, so only a row that
    fails alone gets None.
    """
    failures = (ValueError, OverflowError, FloatingPointError)
    sets, jac, refused = chart(np.array(points, dtype=float).reshape(len(points), -1))
    live = np.flatnonzero(~refused).tolist()
    try:
        batch = sets if len(live) == len(points) else sets.take(live)
        passes = list(zip(*_batch_passes(structure.bundle, batch)))
    except failures:
        passes = []
        for i in live:
            try:
                passes += zip(*_batch_passes(structure.bundle, sets.take([i])))
            except failures:
                passes.append(None)
    out = [None] * len(points)
    for i, one in zip(live, passes):
        if one is not None:
            ll, grad = one
            out[i] = (ll, grad @ jac[i])
    return out


_SETULB = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
# setulb's task codes, the two stops scipy's driver sets itself, and the
# defaults of the scipy options a fit leaves alone
_START, _NEW_X, _FG, _CONVERGENCE, _STOP = 0, 1, 3, 4, 5
_STOP_MAXITER, _STOP_MAXFUN = 504, 502
_MAXLS, _MAXFUN = 20, 15000


@functools.cache
def _setulb():
    """scipy's L-BFGS-B step, ``scipy.optimize._lbfgsb.setulb``, imported on
    the first fit with free parameters (scipy.optimize is slow to import).

    Its interface is that of scipy's C port of L-BFGS-B, new in scipy
    1.15; another one raises ImportError naming the installed scipy.
    """
    import scipy

    try:
        from scipy.optimize._lbfgsb import setulb
    except ImportError:
        setulb = None
    if not (getattr(setulb, "__doc__", None) or "").startswith(_SETULB):
        raise ImportError(
            f"mixref needs scipy >= 1.15, whose L-BFGS-B step is {_SETULB}; "
            f"scipy {scipy.__version__} is installed"
        )
    return setulb


class _LBFGSB:
    """One start's L-BFGS-B search, stepped by reverse communication.

    ``point`` is the point whose value and gradient the search needs next,
    None once it has stopped; ``tell(f, g)`` hands them over and steps the
    search to its next point.  The loop is the one of scipy's
    ``minimize(fun, x0, jac=True, method="L-BFGS-B", options=...)``, with
    its defaults (maxls 20, maxfun 15000, no bounds), so the search and
    its results are that call's: the first point is x0, a request at the
    point last evaluated is answered from it, as scipy's ScalarFunction
    does, and an iteration or evaluation cap stops the search as scipy
    stops it.  After the stop, x, fun, jac, nit, nfev and success read as
    scipy's result; success means convergence.  A scipy without the
    step routine fails here, before the first evaluation.
    """

    def __init__(self, x0, maxiter, ftol, gtol, maxcor):
        self.setulb = _setulb()
        self.x = np.array(x0, dtype=np.float64).ravel()
        self.point, n = self.x.copy(), len(self.x)
        self.maxiter, self.m, self.factr, self.pgtol = (
            maxiter, maxcor, ftol / np.finfo(float).eps, gtol)
        self.bounds, self.nbd = np.zeros(n), np.zeros(n, np.int32)  # nbd 0: unbounded
        self.fun, self.jac = np.array(0.0), np.zeros(n)
        self.wa = np.zeros(2 * maxcor * n + 5 * n + 11 * maxcor**2 + 8 * maxcor)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task, self.ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
        self.lsave, self.isave = np.zeros(4, np.int32), np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.nit = self.nfev = 0
        self.last = None

    @property
    def success(self):
        return int(self.task[0]) == _CONVERGENCE

    def tell(self, f, g):
        """Hand over the value and gradient at ``point``, and step the search
        to its next point or its stop."""
        self.nfev += 1
        self.last = self.point, f, g
        if self.task[0] == _FG:  # not the start, which setulb takes without them
            self.fun, self.jac = f, g
        while True:
            self.jac = np.asarray(self.jac).astype(np.float64)
            self.setulb(self.m, self.x, self.bounds, self.bounds, self.nbd, self.fun,
                   self.jac, self.factr, self.pgtol, self.wa, self.iwa, self.task,
                   self.lsave, self.isave, self.dsave, _MAXLS, self.ln_task)
            task = self.task[0]
            if task == _FG:
                if not np.array_equal(self.x, self.last[0]):
                    self.point = self.x.copy()
                    return
                _, self.fun, self.jac = self.last
            elif task == _NEW_X:
                self.nit += 1
                if self.nit >= self.maxiter:
                    self.task[:] = _STOP, _STOP_MAXITER
                elif self.nfev > _MAXFUN:
                    self.task[:] = _STOP, _STOP_MAXFUN
            else:
                self.point = None
                return


def _lockstep(evaluate, thetas, options):
    """L-BFGS-B from each of ``thetas`` in lockstep (see :class:`_LBFGSB`):
    every round, one call of ``evaluate`` (points -> (value, gradient) per
    point) takes the points that all live starts ask for, and each start
    is told its own.

    Each start's search sees only its own values, so its result is the
    one a search alone would give.  Returns the stopped searches in start
    order and the number of points evaluated.  An exception in
    ``evaluate`` propagates as it stands.
    """
    starts = [_LBFGSB(theta, **options) for theta in thetas]
    n_points = 0
    while live := [s for s in starts if s.point is not None]:
        n_points += len(live)
        for start, (f, g) in zip(live, evaluate([s.point for s in live])):
            start.tell(f, g)
    return starts, n_points


def minimize(fun, x0, **options):
    """L-BFGS-B from x0 alone on ``fun`` (x -> (value, gradient)), with the
    options of :class:`_LBFGSB`: the stopped search."""
    (search,), _ = _lockstep(lambda points: [fun(x) for x in points], [x0], options)
    return search


def fit(spec: FitSpecification, hypothesis_id: str | None = None) -> FitResult:
    """Maximize the total log likelihood under the specification's constraints.

    Deterministic given the specification (including its seed).  Runs a
    multistart L-BFGS-B search with exact gradients from dispersed
    feasible points plus any extra_starts, keeps the best, and flags
    non-convergence rather than failing.  The starts run in lockstep in
    the calling thread (see :func:`_lockstep`): one engine call evaluates
    the points of all live starts, and each start's search, iterations
    and evaluations are those of scipy's L-BFGS-B run from that start
    alone.  With every parameter fixed, returns the exact likelihood of
    the overrides.
    """
    bundle = spec.bundle
    structure = _Structure(spec)
    if structure.n_free == 0:
        params = structure.parameters(np.empty(0))
        ll = total_log_likelihood(bundle.with_parameters(params))
        return _finish(
            spec, structure, params, ll, True, 0, 1, None, hypothesis_id, (ll,)
        )

    def objectives(thetas):
        out = []
        for one in _evaluate(structure, structure.unpack, thetas):
            if one is None or not (np.isfinite(one[0]) and np.all(np.isfinite(one[1]))):
                out.append((_PENALTY, np.zeros(structure.n_free)))
            else:
                out.append((-one[0], -one[1]))
        return out

    runs, evals = _lockstep(objectives, _starting_points(spec, structure), {
        "maxiter": spec.max_iterations,
        "ftol": _TOLERANCE,
        "gtol": 1e-7,
        "maxcor": 25,
    })
    starts = tuple(float(-r.fun) if r.fun < _PENALTY else -np.inf for r in runs)
    best_idx = int(np.argmax(starts))
    best, ll = runs[best_idx], starts[best_idx]
    gnorm = float(np.linalg.norm(best.jac))
    converged = bool((best.success or gnorm < 1e-2) and np.isfinite(ll))
    return _finish(
        spec, structure, structure.parameters(best.x), ll, converged,
        sum(int(r.nit) for r in runs), evals, gnorm, hypothesis_id, starts,
    )


def _finish(spec, structure, params, ll, converged, iters, evals, gnorm, hyp_id,
            starts):
    estimates = _reporting_estimates(params, structure)
    boundary = _boundary_flags(params, structure)
    result = FitResult(
        parameters=params,
        log_likelihood=ll,
        log10_likelihood=ll / LOG10,
        estimates=estimates,
        standard_errors=None,
        boundary=boundary,
        converged=converged,
        iterations=iters,
        n_evaluations=evals,
        final_gradient_norm=gnorm,
        hypothesis_id=hyp_id,
        bundle=spec.bundle,
        start_log_likelihoods=starts,
    )
    if spec.compute_standard_errors and structure.n_free > 0:
        ses = standard_errors(result, spec)
        result = replace(result, standard_errors=ses)
    return result


def _reporting_estimates(params, structure):
    out = {}
    for t in structure.trace_ids:
        out[t] = {
            "mu": params.mu_for(t),
            "sigma": params.sigma_for(t),
            "xi": params.xi_for(t),
            "phi": {
                r: params.phi[t][r]
                for r in structure.hypothesis.roles_for(t)
            },
        }
    return out


def _boundary_flags(params, structure):
    """Per trace, whether xi is within _BOUNDARY_TOL of zero and, per role,
    whether its fraction is held at zero or tied to another (see
    _phi_boundary): the roles that the restricted chart of the standard
    errors holds or moves together, and the same roles of a fixed block."""
    flags = {}
    for t in structure.trace_ids:
        blk = structure.block_of("phi", t)
        zero, units = _phi_boundary([params.phi[t][r] for r in blk.roles], blk.n_known)
        held = set(zero).union(*(unit for unit in units if len(unit) > 1))
        flags[t] = {
            "xi": bool(params.xi_for(t) < _BOUNDARY_TOL),
            "phi": {r: i in held for i, r in enumerate(blk.roles)},
        }
    return flags


def _phi_boundary(vec, n_known):
    """A phi block's boundary at fractions ``vec``, its roles' in order
    (knowns first): the unknown roles within _BOUNDARY_TOL of zero, held
    there, and the units of the other roles, each one role or a run of
    unknown roles each within _BOUNDARY_TOL of the one before, which move
    together.  A fraction held at zero ties nothing.  Both the boundary
    flags and the restricted chart read this."""
    zero = [i for i in range(n_known, len(vec)) if vec[i] < _BOUNDARY_TOL]
    units, run = [], []
    for i in range(len(vec)):
        if i in zero:
            continue
        if run and i >= n_known and run[-1] >= n_known and (
            abs(vec[i] - vec[run[-1]]) < _BOUNDARY_TOL
        ):
            run.append(i)
        else:
            if run:
                units.append(tuple(run))
            run = [i]
    if run:
        units.append(tuple(run))
    return zero, units


# ---------------------------------------------------------------------------
# Numerical derivatives


def numeric_gradient(f, x, rel_step=1e-4, abs_floor=1e-6):
    """Central-difference gradient with per-coordinate relative steps."""
    return _numeric_jacobian(f, x, rel_step, abs_floor).reshape(np.size(x))


def numeric_hessian(f, x, rel_step=1e-4, abs_floor=1e-6):
    """Central-difference Hessian with per-coordinate relative steps.

    Steps are max(rel_step * |x_i|, abs_floor) per coordinate, diagonal
    terms from the three-point second difference and off-diagonals from
    the four-point cross difference.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    h = _steps(x, rel_step, abs_floor)
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            val = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            H[i, j] = H[j, i] = val
    return H


def _steps(x, rel_step=1e-4, abs_floor=1e-6):
    """Per-coordinate central-difference steps max(rel_step * |x_i|, abs_floor)."""
    return np.maximum(rel_step * np.abs(x), abs_floor)


def _numeric_jacobian(f, x, rel_step=1e-4, abs_floor=1e-6):
    x = np.asarray(x, dtype=float)
    n = len(x)
    h = _steps(x, rel_step, abs_floor)
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h[i]))
    return np.column_stack(cols) if cols else np.empty((0, 0))


# ---------------------------------------------------------------------------
# Standard errors in the reporting parametrization


class _ReportingChart:
    """Free reporting coordinates (sigma, mu, xi, phi) around a fitted point.

    Boundary-active parameters are restricted: unknown fractions within
    tolerance of zero are fixed there, runs of tied unknown fractions
    above zero collapse to a single unit that moves together, and xi at
    zero is fixed.  Each phi block's other roles partition into units
    (single roles or tied groups; see _phi_boundary, which the boundary
    flags read too); all units but the heaviest are free coordinates and
    the heaviest completes the simplex.  The chart maps a free coordinate
    vector to ModelParameters and their Jacobian, from which the reported
    quantities' Jacobian gives delta-method standard errors.
    """

    def __init__(self, structure: _Structure, params: ModelParameters):
        self.structure = structure
        self.params = params
        self.coords = []
        self.values = []
        for b in structure.blocks["rho"]:
            if b.free:
                self.coords.append(("sigma", b.traces))
                self.values.append(params.sigma_for(b.traces[0]))
        for b in structure.blocks["eta"]:
            if b.free:
                self.coords.append(("mu", b.traces[0]))
                self.values.append(params.mu_for(b.traces[0]))
        self.xi_free = set()  # traces of the xi blocks the chart moves
        for b in structure.blocks["xi"]:
            if b.free and params.xi_for(b.traces[0]) >= _BOUNDARY_TOL:
                self.xi_free.add(b.traces)
                self.coords.append(("xi", b.traces))
                self.values.append(params.xi_for(b.traces[0]))
        # phi: partition each block's roles into units; the heaviest unit
        # is dependent, roles held at zero are excluded, the rest are free
        self.phi_layout = []
        for blk in structure.blocks["phi"]:
            if blk.fixed is not None:
                self.phi_layout.append((blk, None))
                continue
            vec = np.array([params.phi[blk.traces[0]][r] for r in blk.roles])
            zero, units = _phi_boundary(vec, blk.n_known)
            if not units:
                raise ValueError("every fraction at zero; simplex cannot close")
            masses = [len(u) * vec[u[0]] for u in units]
            dep = int(np.argmax(masses))
            for ui, unit in enumerate(units):
                if ui == dep:
                    continue
                self.coords.append(("phi", (blk.traces, unit)))
                self.values.append(vec[unit[0]])
            self.phi_layout.append((blk, (vec, zero, units, dep)))
        self.phi_layout_of = {blk.traces: lay for blk, lay in self.phi_layout}
        self.values = np.array(self.values, dtype=float)

    def build_params(self, v):
        """The walk (see :meth:`_Structure.assemble`) at each row of
        reporting coordinates ``v`` (K, n).

        rho = 1/sigma^2, eta = mu / rho, xi is the identity, and each free
        phi unit is linear: its roles take its value and the dependent
        unit's roles share what the other units leave, (1 - other mass)
        over its size.  A row with a sigma or mu not positive, or a
        dependent unit below zero, is refused.
        """
        v = np.asarray(v, dtype=float)
        n_rows = len(v)
        values = iter(v.T)

        def free(family, b):
            if family == "rho":
                sigma = next(values).tolist()
                # scalar powers, row by row, as the per-point chart took them
                rho = [1.0 / s**2 if s > 0 else math.nan for s in sigma]
                d = [-2.0 / s**3 if s > 0 else math.nan for s in sigma]
                return np.array(rho), np.array(d)[:, None]
            if family == "eta":  # the mu of the block's first trace
                mu = next(values)
                return np.where(mu > 0, mu, math.nan), np.ones((n_rows, 1))
            if family == "xi":
                if b.traces in self.xi_free:
                    return next(values), np.ones((n_rows, 1))
                return np.full(n_rows, self.params.xi_for(b.traces[0])), np.zeros((n_rows, 0))
            base, zero, units, dep = self.phi_layout_of[b.traces]
            vec = np.tile(base, (n_rows, 1))
            vec[:, zero] = 0.0
            other_mass = np.zeros(n_rows)
            d = []
            for ui, unit in enumerate(units):
                if ui != dep:
                    uval = next(values)
                    vec[:, list(unit)] = uval[:, None]
                    other_mass = other_mass + len(unit) * uval
                    col = np.zeros(len(base))
                    col[list(unit)] = 1.0
                    col[list(units[dep])] = -len(unit) / len(units[dep])
                    d.append(col)
            dep_val = (1.0 - other_mass) / len(units[dep])
            vec[:, list(units[dep])] = dep_val[:, None]
            vec[dep_val < 0] = math.nan
            d = np.array(d).reshape(len(d), len(base))
            return vec, np.broadcast_to(d, (n_rows, *d.shape))

        return self.structure.assemble(free, n_rows, v.shape[1], eta_by_mu=True)

    def report_jacobian(self, sets, jac) -> np.ndarray:
        """The reported quantities' Jacobian, one row per report label.

        ``sets`` and ``jac`` are :meth:`build_params`'s parameter set and
        Jacobian at one point, one Jacobian row per primitive parameter.
        mu = rho eta and sigma = rho^(-1/2) are chained through their rho
        and eta rows; xi and phi are primitive.
        """
        rows = dict(zip(self.structure.keys, jac[0]))
        rho = dict(zip(sets.trace_ids, sets.rho[0].tolist()))
        eta = dict(zip(sets.trace_ids, sets.eta[0].tolist()))

        def row(t, kind, role):
            if kind == "mu":
                return eta[t] * rows["rho", t] + rho[t] * rows["eta", t]
            if kind == "sigma":
                return -0.5 * rho[t] ** -1.5 * rows["rho", t]
            return rows[("phi", t, role) if kind == "phi" else (kind, t)]

        return np.array([row(*label) for label in self.report_labels()])

    def report_labels(self):
        return [
            (t, kind, role)
            for t in self.structure.trace_ids
            for kind, role in [("mu", None), ("sigma", None), ("xi", None)]
            + [("phi", r) for r in self.structure.hypothesis.roles_for(t)]
        ]


def standard_errors(result: FitResult, spec: FitSpecification):
    """Approximate standard errors from the inverse Hessian at the fit.

    The Hessian of the log likelihood is the symmetrized central
    difference of its exact gradient in the reporting parametrization
    (mu, sigma, xi, phi), boundary-active parameters restricted as
    flagged: 2n gradient points for n free coordinates, one batch of
    engine passes (see :func:`_evaluate`).  Reported
    quantities that are functions of several coordinates (for example
    sigma of a non-anchor trace under a shared eta) get delta-method
    errors from the chart's exact Jacobian.  Parameters fixed by
    override carry no standard error.  A non-invertible Hessian, or a
    step that leaves the parameter space, yields None for every free
    parameter.
    """
    structure = _Structure(spec)
    chart = _ReportingChart(structure, result.parameters)
    labels = chart.report_labels()
    var = np.full(len(labels), np.nan)  # no errors unless the Hessian inverts
    if len(chart.values):
        # the central difference of numeric_hessian's steps, its 2n
        # gradients from one batched evaluation
        x, h = chart.values, _steps(chart.values)
        steps = np.diag(h)
        grads = _evaluate(structure, chart.build_params, [*(x + steps), *(x - steps)])
        cov = None
        if all(one is not None for one in grads):
            plus, minus = np.split(np.array([grad for _, grad in grads]), 2)
            jac = ((plus - minus) / (2.0 * h)[:, None]).T
            try:
                cov = np.linalg.inv(-0.5 * (jac + jac.T))
            except np.linalg.LinAlgError:
                pass
        if cov is not None and np.all(np.isfinite(np.diag(cov))):
            jac = chart.report_jacobian(*chart.build_params(chart.values[None])[:2])
            var = np.einsum("ij,jk,ik->i", jac, cov, jac)

    def held(t, kind, role):
        """Fixed by override, or on a boundary the chart holds."""
        if kind == "phi":
            blk = structure.block_of("phi", t)
            layout = chart.phi_layout_of[blk.traces]  # (vec, zero, units, dep)
            return layout is None or blk.roles.index(role) in layout[1]
        if kind == "xi":
            return structure.block_of("xi", t).traces not in chart.xi_free
        rho, eta = structure.block_of("rho", t), structure.block_of("eta", t)
        if kind == "mu":
            return eta.mu_anchor == t or (rho.fixed is not None and eta.fixed is not None)
        return rho.fixed is not None

    out = {t: {"mu": None, "sigma": None, "xi": None, "phi": {}}
           for t in structure.trace_ids}
    for (t, kind, role), v in zip(labels, var):
        se = None
        if v >= 0 and np.isfinite(v) and not held(t, kind, role):
            se = float(math.sqrt(v))
        if kind == "phi":
            out[t]["phi"][role] = se
        else:
            out[t][kind] = se
    return out


# ---------------------------------------------------------------------------
# Weight of evidence


def weight_of_evidence(fit_p: FitResult, fit_d: FitResult) -> float:
    """log10 L(Hp) - log10 L(Hd) in bans, for fits on the same evidence."""
    if fit_p.bundle is None or fit_d.bundle is None:
        raise ValueError("fit results must carry their evidence bundles")
    if not fit_p.bundle.same_evidence(fit_d.bundle):
        raise ValueError("weight of evidence needs both fits on the same evidence")
    return fit_p.log10_likelihood - fit_d.log10_likelihood


def efficiency_loss(
    woe: float,
    suspect_profile: GenotypeProfile,
    freqs: FrequencyTable,
    markers: Sequence[str] | None = None,
) -> float:
    """Bans lost relative to a perfect single-source match: -log10 pi_s - WoE.

    Nonnegative whenever the hypothesis pair replaces the suspect by a
    random unknown, also with parameters estimated per hypothesis.
    """
    profile = suspect_profile
    if markers is not None:
        profile = GenotypeProfile(
            genotypes={
                m: suspect_profile.genotypes[m]
                for m in markers
                if m in suspect_profile.genotypes
            }
        )
    pi = match_probability(profile, freqs)
    return -math.log10(pi) - woe


def generic_efficiency_loss(top_posterior: float) -> float:
    """Bans lost without a named suspect: -log10 of the top deconvolution posterior."""
    if math.isnan(top_posterior) or top_posterior <= 0.0:
        raise ValueError(
            f"top posterior probability must be positive, got {top_posterior}"
        )
    if top_posterior > 1.0 + 1e-9:
        raise ValueError(f"posterior probability above one: {top_posterior}")
    return -math.log10(min(top_posterior, 1.0))


# ---------------------------------------------------------------------------
# Profile likelihood


@dataclass(frozen=True)
class ProfileCurve:
    """Profile log10 likelihood over a grid, with a likelihood-ratio interval."""

    parameter: str
    grid: tuple[float, ...]
    log10_likelihood: tuple[float, ...]
    converged: tuple[bool, ...]
    max_log10_likelihood: float
    interval95: tuple[float, float] | None

    DROP95 = 0.5 * 3.841458820694124 / LOG10  # chi2_1(0.95) / 2, in bans


def _parse_parameter_name(name, trace_ids):
    base, _, trace = name.partition("@")
    base = base.strip()
    if base not in ("xi", "eta", "rho", "mu", "sigma"):
        raise ValueError(f"cannot profile parameter {name!r}")
    trace = trace.strip() or None
    if trace is not None and trace not in trace_ids:
        raise ValueError(f"unknown trace {trace!r} in parameter name {name!r}")
    return base, trace


def profile_likelihood(spec: FitSpecification, name: str, grid) -> ProfileCurve:
    """Fix one scalar parameter at each grid value and maximize the rest.

    ``name`` is one of xi, eta, rho, mu, sigma, optionally trace-qualified
    as "mu@T1"; each grid point is a fit with that ``fixed`` override
    added.  Unqualified, the name covers every trace, sigma like rho; mu
    over traces that share eta must name one trace.  The 95% interval
    inverts the likelihood-ratio test: grid values whose profile stays
    within chi2_1(0.95)/(2 ln 10) = 0.834 bans of the maximum, with
    linear interpolation at the crossings.  A grid where no point is
    feasible raises ValueError, carrying the first point's error.
    """
    trace_ids = tuple(t.trace_id for t in spec.bundle.traces)
    base, trace = _parse_parameter_name(name, trace_ids)
    targets = [trace] if trace else list(trace_ids)

    points = []
    conv = []
    prev_params = None
    failure = None
    for value in grid:
        extra = list(spec.extra_starts)
        if prev_params is not None:
            extra.append(prev_params)
        sub = replace(
            spec,
            fixed=_with_scalar_fixed(spec, base, targets, value),
            extra_starts=tuple(extra),
            compute_standard_errors=False,
        )
        try:
            res = fit(sub)
            points.append(res.log10_likelihood)
            conv.append(res.converged)
            prev_params = res.parameters
        except ValueError as err:
            failure = failure or err
            points.append(-np.inf)
            conv.append(False)
    points = tuple(float(p) for p in points)
    gmax = max(points)
    if gmax == -np.inf:
        raise ValueError(
            f"no feasible point on the {name!r} profile: {failure}"
        ) from failure
    threshold = gmax - ProfileCurve.DROP95
    interval = _lr_interval(tuple(grid), points, threshold)
    return ProfileCurve(
        parameter=name,
        grid=tuple(float(g) for g in grid),
        log10_likelihood=points,
        converged=tuple(conv),
        max_log10_likelihood=gmax,
        interval95=interval,
    )


def _with_scalar_fixed(spec, base, targets, value):
    fixed = dict(spec.fixed)
    current = fixed.get(base, {})
    if not isinstance(current, Mapping):
        raise ValueError(f"{base} is already fixed by override")
    if base == "mu" and len(targets) > 1 and "eta" in spec.share:
        raise ValueError(
            f"traces {targets} share eta, so mu is fixed on one of them: "
            "name it as mu@T"
        )
    if ("rho" if base == "sigma" else base) in spec.share:
        fixed[base] = value
    else:
        fixed[base] = {**current, **{t: value for t in targets}}
    return fixed


def _lr_interval(grid, values, threshold):
    inside = [g for g, v in zip(grid, values) if v >= threshold]
    if not inside:
        return None
    lo, hi = min(inside), max(inside)
    pairs = sorted(zip(grid, values))
    for (g1, v1), (g2, v2) in zip(pairs, pairs[1:]):
        if v1 < threshold <= v2:
            lo = min(lo, g1 + (threshold - v1) / (v2 - v1) * (g2 - g1))
        if v1 >= threshold > v2:
            hi = max(hi, g1 + (threshold - v1) / (v2 - v1) * (g2 - g1))
    return (float(lo), float(hi))


# ---------------------------------------------------------------------------
# Contributor-count sweep


def contributor_sweep(
    spec: FitSpecification,
    max_unknowns: int,
    min_unknowns: int | None = None,
) -> tuple[dict, ...]:
    """Refit with increasing numbers of unknown contributors.

    Returns one record per count with the maximized log10 likelihood; the
    previous optimum (extended with a vanishing fraction for the new
    unknown) seeds each refit, so the maximized likelihood is
    non-decreasing up to optimizer tolerance.
    """
    bundle = spec.bundle
    hyp = bundle.hypothesis
    for name, count in (("max_unknowns", max_unknowns), ("min_unknowns", min_unknowns)):
        if count is not None and count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
    base_unknowns = len(hyp.unknown)
    start = base_unknowns if min_unknowns is None else min_unknowns
    if max_unknowns < start:
        raise ValueError("max unknowns below the starting count")
    check_unknown_count(max_unknowns)
    rows = []
    prev = None
    for count in range(start, max_unknowns + 1):
        swept = _with_unknown_count(bundle, count)
        extra = list(spec.extra_starts) if count == base_unknowns else []
        if prev is not None:
            carried = _extend_parameters(
                prev.parameters, swept.hypothesis, bundle.traces
            )
            if carried is not None:
                extra.append(carried)
        sub = replace(
            spec, bundle=swept, extra_starts=tuple(extra),
            compute_standard_errors=False,
        )
        res = fit(sub)
        rows.append(
            {
                "unknowns": count,
                "contributors": len(hyp.known) + count,
                "log10_likelihood": res.log10_likelihood,
                "converged": res.converged,
                "result": res,
            }
        )
        prev = res
    return tuple(rows)


def _with_unknown_count(bundle: EvidenceBundle, count: int) -> EvidenceBundle:
    hyp = bundle.hypothesis
    labels = list(hyp.unknown[:count])
    nxt = 1
    while len(labels) < count:
        cand = f"U{nxt}"
        nxt += 1
        if cand not in labels and cand not in hyp.known:
            labels.append(cand)
    trace_roles = None
    if hyp.trace_roles is not None:
        trace_roles = {
            t: tuple(r for r in roles if r in hyp.known) + tuple(labels)
            for t, roles in hyp.trace_roles.items()
        }
    new_hyp = Hypothesis(
        known=dict(hyp.known), unknown=tuple(labels), trace_roles=trace_roles
    )
    params = _uniform_parameters(
        new_hyp, bundle.traces,
        bundle.parameters.marker_rho, bundle.parameters.marker_xi,
    )
    return EvidenceBundle(
        traces=bundle.traces,
        frequencies=bundle.frequencies,
        hypothesis=new_hyp,
        parameters=params,
    )


def _uniform_parameters(hyp, traces, marker_rho=None, marker_xi=None):
    """Neutral parameters for the traces: equal fractions, rho = eta = 30."""
    rho, phi = {}, {}
    for t in traces:
        rho[t.trace_id] = 30.0
        roles = hyp.roles_for(t.trace_id)
        phi[t.trace_id] = {r: 1.0 / len(roles) for r in roles}
    return ModelParameters(
        rho=rho, eta=30.0, xi=0.05, phi=phi,
        marker_rho=marker_rho, marker_xi=marker_xi,
    )


def _extend_parameters(params, new_hyp, traces):
    eps = 1e-9
    phi = {}
    for t in traces:
        tid = t.trace_id
        roles = new_hyp.roles_for(tid)
        old = params.phi.get(tid, {})
        new_roles = [r for r in roles if r not in old]
        old_unknown = [
            old[r] for r in roles if r in old and r in new_hyp.unknown
        ]
        step = eps
        if old_unknown:
            step = min(eps, min(max(v, 1e-300) for v in old_unknown) * 0.5)
        adds = {}
        cur = step
        for r in new_roles:
            adds[r] = cur
            cur *= 0.5
        total_add = sum(adds.values())
        vec = {}
        for r in roles:
            if r in old:
                vec[r] = old[r] * (1.0 - total_add)
            else:
                vec[r] = adds[r]
        norm = sum(vec.values())
        phi[tid] = {r: v / norm for r, v in vec.items()}
    try:
        return ModelParameters(rho=dict(params.rho), eta=params.eta,
                               xi=params.xi, phi=phi,
                               marker_rho=params.marker_rho,
                               marker_xi=params.marker_xi)
    except ValueError:
        return None
