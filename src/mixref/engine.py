"""Exact likelihood evaluation and posterior queries for mixture evidence.

The marginal likelihood of a marker sums the peak-height likelihood over
every genotype combination of the unknown contributors.  That sum is
computed exactly by a forward pass over the allele ladder: each unknown
contributor's genotype is represented by the Markov chain of its partial
allele-count sums, with per-contributor state (S, n) taking one of six
reachable values and 10 legal steps (S, n) -> (S + m, m), m <= 2 - S.
The joint chain of U unknowns is the U-fold product of that chain: 6^U
states and 10^U edges per step.  A step's binomial transition
probability depends only on its target state, since (S + m, m) fixes
both the draw m and the 2 - S copies it was drawn from, so a step's
transitions are one outer sum of U per-state vectors.  The
evidence factor of an allele needs the effective counts of the allele
itself and of its stutter donor (one repeat unit above), so alleles are
traversed in the order their ladder fixes (population.MarkerLadder),
in which every stutter donor directly follows its recipient; the factor
is emitted once both counts are in scope.  A step's factors
are indexed by its (previous draw, draw) pair: a contributor that drew
n copies at the previous position draws m <= 2 - n here, so 6 of the 9
per-contributor pairs, and 6^U joint pairs, are reachable, and every
emitted peak's factor is one run of 6^U entries at its emit step.

A stack of markers (see below) lays out the factor entries of all its
traces on its markers once, flattened into one layout (_FactorLayout):
trace by trace, each trace's observed entries first, then its dropout
entries, each marker by marker.  Its parameter-free gathers give each
observed entry, and each distinct dropout dose, its cell of its trace's
pre-stutter dose table and its stutter donor's (or a trailing zero
cell), so a pass builds every dose of every trace with one gather and
calls each gamma kernel, and its derivative, once per stack; a gradient
pass evaluates the gamma CDF at the doses and at the two sides of its
shape derivative's central difference in the same call.  Dropout entries
of a trace whose positions share the known contributors' counts (and,
where stutter-coupled, their donors' counts) and whose draws match have
the same dose at every parameter value, on one marker or on several, so
the layout holds each distinct dropout dose of a marker once, and the
stack's dose map (_DoseMap) takes the doses of one trace and kind on
all its markers to one: unless a per-marker rho or xi sets the markers
apart, the gamma CDF is evaluated once per such dose and taken back to
every dose point and entry, and the survival terms of the observed
peaks' conditional CDFs once per trace and kind.

A bundle builds its plans and stacks together, with array operations
over the positions of the markers its traces cover rather than Python
loops over positions: one fold of the per-contributor log-pmfs gives
every step's transitions, and one pass over every trace and position
lays out every stack (_factor_layouts): two sorts of the (trace,
position) peaks order every stack's entries and dose points, and each
stack's layout is slices of the pass's arrays.  A marker's plan holds
what is the marker's own (its ladder, its steps' transitions, the known
contributors' counts), which the queries about it read; every pass runs
over a stack.  What depends on U alone, the joint chain's sizes, edges
and draw and pair tables, is one record (_JointTables), built once per U
by _joint_tables; every plan and stack holds that record, read-only, and
copies none of it.

Several traces that share unknown contributors are coupled by multiplying
their per-allele factors inside the same chain pass.  The markers are
independent given the parameters, so one pass runs the chains of many
markers side by side, along a leading marker axis (a stack, _Stack).
The bundle splits its markers into stacks whose step holds at most
_BLOCK_EDGES edge values (up to 163 markers at U = 2, 16 at U = 3, one
at U >= 4), so a likelihood or gradient evaluation, and each query
over the whole bundle, is one pass per stack, one in all at U <= 2; a
query about one marker is one pass over the stack that holds it, and
reads the marker's rows.  Gradient evaluations at several parameter
sets share their passes: a stack's markers run once per set, side by
side, within the same budget.  A pass reads its parameter sets as
arrays (_ParameterSets: per trace rho, eta, xi and phi over the sets),
which a fit's chart builds directly and the public entry points convert
from ModelParameters.  A stack front-pads each marker to its
longest with exact identity steps: state 0 to state 0, weight 1, log 0.
The step tables of all markers, per (previous draw, draw) pair, are one
np.bincount per trace over a build-time index (entry -> step row * 6^U +
pair), added trace by trace, which fixes their sums' order; the gradient
is one scatter over every trace's entries.  Every query reads
the same pass: the gradient, presence posteriors and per-contributor
count marginals read the posterior of each step's (previous draw, draw)
pair; exact k-best genotype combinations come from a beam over the
steps, after a pass for the marker likelihoods alone: a max-product
sweep back over the steps' exact log edge values bounds every prefix by
its best completion, and each step keeps the prefixes bounded within
rounding of the k-th best; and the conditional CDF of each
observed peak from re-evaluating its emit step alone, with the peak's
factor left out of an exact sum, for every peak of a stack at once.  A
brute-force enumerator serves as the independent verification oracle.

The pass runs in scaled linear space (Rabiner 1989, Proc. IEEE 77).  An
edge's weight is the product of its two factors, each scaled so that the
step's largest is 1: transition[dst], the genotype prior's transition
into the edge's target state over the step's largest (which does not
depend on the parameters, so each stack holds it), times pair[key],
exp(table - the table's largest entry) at the edge's (previous draw,
draw) pair.  Both are exponentials of 6^U values, not of the step's 10^U
edge values, and every weight is at most 1.  The pass multiplies the
pair factors along the edges and the transitions on the 6^U states: in
the forward recursion after the sum into each target state, and into
the message out of the step in the backward one.  Each step's sum over
its edges is one compiled sparse matrix-vector product over the stack's
edges held as a CSR matrix (_stacked_csr, _sparse_kernels): into the
target states going forward, out of the source states going back, adding
the same products in the same order as an np.bincount over the edges.
A step's shift is the sum of the two largest values; forward messages
are normalized by their sum and backward messages by their maximum, and
log L is the sum of the shifts and the logs of the forward normalizers.
Steps are batched in blocks of at most _BLOCK_EDGES edge values, counted
over the stack's markers and steps (one step of one marker at U >= 4),
so a pass builds no array of every step's edges at large U.
Every pair posterior, of a step's own table or of another for the step,
comes from one routine over (step, marker) rows (_pair_posteriors; the
log-space redo has its one, _step_posterior).

Each edge's products lose at most _TINY to underflow (see _TINY), so a
step loses at most E * _TINY against the mass it keeps, its normalizer;
mass lost at one step can grow at most 3^U-fold at each later one.  The
pass carries that bound, in units of _TINY, through the forward and the
backward recursion and into each posterior, and where it exceeds
_LOSS of the kept mass (for one step, a normalizer below about 1e-200),
or a step's shift is NaN or +inf, that marker alone is redone by the
log-space recursion; the rest of the stack keeps its scaled result.  The
two largest values need not share an edge, so a step's weights may all
be small, or all zero where no edge is finite: its normalizer then ends
the marker for the redo, which gives log L -inf where no path is left.
A step whose table is -inf throughout has no path through it: the
marker's log L is -inf, with no redo.  Factors as small as e^-700 apiece
therefore do not underflow the result.  A NaN or +inf entry that an
edge reads gives the redo a NaN or +inf log L, never a finite one.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

import numpy as np
from scipy.special import logsumexp

from . import population
from .peakmodel import (
    _PHI_ORDER_TOL,
    _PHI_SUM_TOL,
    ModelParameters,
    _check_overrides,
    gamma_cdf_shapes,
    gamma_log_cdf,
    gamma_log_cdf_grad,
    gamma_log_pdf,
    gamma_log_pdf_grad,
    gamma_log_sf,
)
from .population import (
    SILENT_LABEL,
    FrequencyTable,
    GenotypeProfile,
    canonical_allele,
    genotype_prior,
)

__all__ = [
    "Trace",
    "Hypothesis",
    "EvidenceBundle",
    "MarkerChainPosterior",
    "InfeasibleConditioningError",
    "CombinationBudgetError",
    "marker_log_likelihood",
    "brute_force_log_likelihood",
    "total_log_likelihood",
    "log_likelihood_and_gradient",
    "batch_log_likelihood_and_gradient",
    "presence_posteriors",
    "conditioned_presence",
    "marker_posterior",
    "bundle_posteriors",
    "top_k_marker_genotypes",
    "bundle_top_genotypes",
    "top_k_joint_profiles",
]


class InfeasibleConditioningError(ValueError):
    """Conditioning assignment has zero posterior probability."""


class CombinationBudgetError(ValueError):
    """Brute-force enumeration would exceed the combination budget."""


# ---------------------------------------------------------------------------
# Evidence containers


@dataclass(frozen=True)
class Trace:
    """Observed peak heights of one amplification run.

    heights maps marker -> {allele label: height}; alleles of a covered
    marker that carry no entry have height 0 (unobserved).  Markers absent
    from the mapping are not covered by this trace.  Heights strictly
    between 0 and the threshold are an ingestion error: the loader zeroes
    them before construction.
    """

    trace_id: str
    threshold: float
    heights: Mapping[str, Mapping[str, float]]

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(
                f"threshold for {self.trace_id!r} must be positive and finite, "
                f"got {self.threshold}"
            )
        cleaned = {}
        for marker, peaks in self.heights.items():
            row = {}
            for allele, h in peaks.items():
                h = float(h)
                if not math.isfinite(h):
                    raise ValueError(
                        f"non-finite height {h} for {self.trace_id}/{marker}/{allele}"
                    )
                if h < 0:
                    raise ValueError(
                        f"negative height for {self.trace_id}/{marker}/{allele}"
                    )
                if 0.0 < h < self.threshold:
                    raise ValueError(
                        f"height {h} for {self.trace_id}/{marker}/{allele} lies in "
                        f"(0, C={self.threshold}); zero sub-threshold peaks at ingestion"
                    )
                row[canonical_allele(allele)] = h
            cleaned[marker] = row
        object.__setattr__(self, "heights", cleaned)

    def markers(self) -> tuple[str, ...]:
        return tuple(self.heights)

    def height(self, marker: str, allele: str) -> float:
        return self.heights.get(marker, {}).get(canonical_allele(allele), 0.0)


@dataclass(frozen=True)
class Hypothesis:
    """Contributor composition: known profiles plus unknown roles.

    trace_roles optionally restricts which roles contribute to which
    trace; roles shared between traces carry the same genotype in every
    trace they appear in.  By default every role contributes everywhere.
    """

    known: Mapping[str, GenotypeProfile]
    unknown: tuple[str, ...] = ()
    trace_roles: Mapping[str, tuple[str, ...]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "unknown", tuple(self.unknown))
        if len(self.known) + len(self.unknown) == 0:
            raise ValueError("hypothesis needs at least one contributor")
        if len(set(self.unknown)) != len(self.unknown):
            raise ValueError(f"duplicate unknown role labels: {self.unknown}")
        overlap = set(self.known) & set(self.unknown)
        if overlap:
            raise ValueError(f"labels used for both known and unknown roles: {overlap}")
        if self.trace_roles is not None:
            roles = set(self.roles)
            fixed = {}
            for trace_id, sel in self.trace_roles.items():
                sel = set(sel)
                bad = sel - roles
                if bad:
                    raise ValueError(
                        f"trace {trace_id!r} references undeclared roles {sorted(bad)}"
                    )
                fixed[trace_id] = tuple(r for r in self.roles if r in sel)
            object.__setattr__(self, "trace_roles", fixed)

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(self.known) + self.unknown

    def roles_for(self, trace_id: str) -> tuple[str, ...]:
        if self.trace_roles is None or trace_id not in self.trace_roles:
            return self.roles
        return self.trace_roles[trace_id]


@dataclass(frozen=True)
class MarkerChainPosterior:
    """Posterior summary of one marker's genotype chain.

    presence maps each visible allele to P(Y_a = 1 | z), the probability
    that at least one contributor possesses it.  count_marginals gives,
    per unknown role, the posterior distribution of its allele count at
    every ladder position (including a silent one when present).
    top_genotypes ranks unknown genotype combinations by posterior
    probability, normalized by the marker likelihood.
    """

    marker: str
    log_likelihood: float
    presence: Mapping[str, float]
    count_marginals: Mapping[str, Mapping[str, tuple[float, float, float]]]
    top_genotypes: tuple[tuple[Mapping[str, tuple[str, str]], float], ...] = ()


# ---------------------------------------------------------------------------
# Chain structure

# Reachable per-contributor states (S, n): partial sum S and current count n <= S.
_STATES = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
_STATE_INDEX = {s: i for i, s in enumerate(_STATES)}
# One contributor's reachable (previous count n, draw m) pairs: n + m <= 2.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
# One contributor's chain: the 10 legal steps (S, n) -> (S + m, m), m <= 2 - S,
# as rows (source state, target state, (n, m) pair), ordered by source state,
# then draw.  The joint chain of U unknowns is its U-fold product.
_STEPS = np.array([
    (i, _STATE_INDEX[(s + m, m)], _PAIRS.index((n, m)))
    for i, (s, n) in enumerate(_STATES) for m in range(3 - s)
], dtype=np.int64)

# The most unknown contributors a bundle may hold.  Each step of the joint
# chain has 10^U edges: at U = 6 one value and gradient pass over two
# markers takes about 0.5 s and 184 MB, and every further unknown
# multiplies both by about ten.
MAX_UNKNOWNS = 6

# A pass batches whole steps into blocks of at most this many edge values:
# at small U one block shares each numpy call among all of a marker's
# steps, and at large U (one step per block) temporaries stay one step wide.
_BLOCK_EDGES = 2**14
# The most one edge's products can lose to underflow, and the largest
# bound on a scaled pass's loss, relative to the mass it keeps, that the
# pass accepts.  Every factor is at most 1, so what one operation loses is
# never magnified.  An edge's mass meets two exponentials, the pair's and
# the transition's, which lose at most 2^-1074 each, and at most three
# products (by the message into the step, by the transition, and for a
# posterior by the message out of it), which lose at most 2^-1075 each:
# under 4 * 2^-1074 in all.  In the forward recursion the transition
# multiplies the sum into a state, which is at most 1 (one edge from each
# source state), so its loss there counts once per state, not per edge.
# A single step then needs a normalizer of at least E * _TINY / _LOSS,
# about 1e-200.
_TINY = 2.0**-1072
_LOSS = 1e-120


# Per state (S, n) of _STATES, a step into it drew n copies of the
# 2 - (S - n) left before it: log C(2 - (S - n), n), the copies drawn and
# the copies left undrawn.
_LOG_CHOOSE = np.array([math.log(math.comb(2 - (s - m), m)) for s, m in _STATES])
_DRAWN = np.array([m for _, m in _STATES])
_UNDRAWN = np.array([2 - s for s, _ in _STATES])


def _state_log_pmf(rates) -> np.ndarray:
    """log Bin(n; 2 - (S - n), rate) for each rate and each state (S, n) in
    _STATES, as (rates, 6).

    A step into (S, n) drew n copies from the 2 - (S - n) left before it,
    so its transition log-probability depends on the target state alone.
    A term whose count is 0 is left out, so a rate of 0 or 1 gives 0 or
    -inf, never NaN.
    """
    lr = np.array([math.log(r) if r > 0 else -math.inf for r in rates])
    lq = np.array([math.log1p(-r) if r < 1 else -math.inf for r in rates])
    out = np.tile(_LOG_CHOOSE, (len(rates), 1))
    for count, log_rate in ((_DRAWN, lr), (_UNDRAWN, lq)):
        some = count > 0
        out[:, some] += count[some] * log_rate[:, None]
    return out


def _fold(column: np.ndarray, n_unknown: int, base: int) -> np.ndarray:
    """sum_i column[..., r_i] * base^(U-1-i) over every U-tuple (r_1 .. r_U)
    of entries of the last axis, for each row of the leading axes.

    Tuples come in lexicographic order, the first contributor most
    significant.  Base 6 or 3 packs per-contributor states, pairs or draws
    into joint indices; base 1 sums per-contributor log-probabilities.
    """
    lead = column.shape[:-1]
    out = np.zeros(lead + (1,), dtype=column.dtype)
    for _ in range(n_unknown):
        scaled = out if base == 1 else out * base
        out = (scaled[..., :, None] + column[..., None, :]).reshape(lead + (-1,))
    return out


def _logsumexp_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """log sum exp(values) over each group of ``index``, groups 0 .. size-1;
    the log-space pass's reduction.

    Each group is shifted by its own maximum; a group whose maximum is not
    finite gives that maximum: -inf where it is empty or all -inf, NaN
    where it holds a NaN, else +inf where it holds +inf.  So a NaN or +inf
    value never yields a finite result.
    """
    shift = np.full(size, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.maximum.at(shift, index, values)
        sums = np.bincount(index, np.exp(values - shift[index]), size)
        return np.where(np.isfinite(shift), shift + np.log(sums), shift)


@dataclass(frozen=True)
class _EdgeSet:
    """Transitions of one chain step: source state and target state.

    key is the edge's joint (previous draw, draw) pair, the base-6 fold of
    its contributors' _PAIRS indices, which indexes the step's factors.
    """

    src: np.ndarray
    dst: np.ndarray
    key: np.ndarray


class _JointTables(NamedTuple):
    """The joint chain of U unknowns, all that depends on U alone: its
    sizes, its edges and its draw and pair tables.  _joint_tables builds
    one per U, and every plan and stack of that U holds it as ``joint``.

    The edges are the U-fold product of _STEPS in ``src``-major order, so
    each state's out-edges are one run; the first step leaves state 0,
    whose out-edges come first, and edges0 are those.
    """

    n_unknown: int
    n_states: int             # 6^U, also the number of (previous draw, draw) pairs
    n_combos: int             # 3^U joint draws
    edges0: _EdgeSet          # the first step's
    edges: _EdgeSet           # every later step's
    combo_counts: np.ndarray  # (3^U, U): joint draw -> each unknown's count
    pair_prev: np.ndarray     # joint pair -> joint draw at t-1
    pair_draw: np.ndarray     # joint pair -> joint draw at t
    read: np.ndarray          # (3, 6^U): pair_draw, pair_prev and each pair itself
    unreached: np.ndarray     # the states no edge of the first step reaches

    def edges_at(self, t: int) -> _EdgeSet:
        return self.edges0 if t == 0 else self.edges


@functools.lru_cache(maxsize=None)
def _joint_tables(n_unknown: int) -> _JointTables:
    """The joint chain of U unknowns (see _JointTables), one cached record
    per U that every plan and stack shares; its arrays are read-only."""
    n_combos, n_states = 3**n_unknown, 6**n_unknown
    src, dst, key = (_fold(column, n_unknown, 6) for column in _STEPS.T)
    order = np.argsort(src, kind="stable")
    src, dst, key = src[order], dst[order], key[order]
    # joint draw c -> each unknown's count: the base-3 digits of c
    combo_counts = np.arange(n_combos)[:, None] // 3 ** np.arange(n_unknown)[::-1] % 3
    pair_prev, pair_draw = (
        _fold(np.array(column), n_unknown, 3) for column in zip(*_PAIRS)
    )
    reached = np.zeros(n_states, dtype=bool)
    reached[dst[:n_combos]] = True
    tables = (
        combo_counts, pair_prev, pair_draw,
        np.stack([pair_draw, pair_prev, np.arange(n_states)]), np.flatnonzero(~reached),
    )
    # read-only before the first step's edges are sliced from them
    for array in (src, dst, key, *tables):
        array.setflags(write=False)
    return _JointTables(
        n_unknown, n_states, n_combos,
        _EdgeSet(src[:n_combos], dst[:n_combos], key[:n_combos]), _EdgeSet(src, dst, key),
        *tables,
    )


@dataclass(frozen=True)
class _FactorLayout:
    """Every trace's factor entries over the markers of a stack, flattened
    into one layout, so that a pass calls each gamma kernel once per stack.

    trace_ids lists the traces that cover a marker of the stack, in the
    bundle's order, with each one's column in the parameter sets (see
    _ParameterSets), threshold and contributing roles.  Entries come trace
    by trace, entries[j]:entries[j+1] trace j's: its observed entries first,
    marker by marker, then its dropout entries, marker by marker.  cell is
    each entry's cell in the step tables, and position each run of 6^U
    entries' (each peak's) internal position on its marker (see
    _factor_layouts, which lays out every stack of a build at once).

    A dose point is an observed entry or a distinct dropout dose of one
    trace on one marker (the stack's dose map, _DoseMap, takes those of
    one trace and kind on several markers to one where no override
    applies): first every trace's observed entries (n_observed of them, with
    heights peak_heights), trace by trace, then every trace's distinct
    dropout doses, trace by trace, at thresholds ``cut`` (the one
    threshold where one trace covers the stack).  With J traces,
    points[j]:points[j+1] are trace j's observed points and
    points[J+j]:points[J+j+1] its distinct dropout doses; a pass over
    trace j alone holds the two runs one after the other.  runs holds the
    2J runs' lengths and run_column their traces' columns.  point is each
    entry's dose point.  gather holds each point's two cells of its
    trace's pre-stutter doses B over the positions of the stack, the
    traces' B laid out one after the other, each flattened with one
    trailing zero cell: dose = (1 - xi) B.flat[gather[0]] +
    xi B.flat[gather[1]].
    """

    trace_ids: tuple[str, ...]
    column: tuple[int, ...]
    threshold: np.ndarray  # per trace
    known_contributes: np.ndarray  # (traces, known roles) bool
    unknown_contributes: np.ndarray  # (traces, unknown roles) bool
    entries: tuple[int, ...]
    cell: np.ndarray
    position: np.ndarray
    n_observed: int
    peak_heights: np.ndarray
    cut: np.ndarray
    point: np.ndarray
    gather: np.ndarray  # (2, points)
    points: tuple[int, ...]
    runs: np.ndarray
    run_column: np.ndarray


class _DoseMap(NamedTuple):
    """The dose points and observed peaks of a stack's layout at which a
    pass evaluates the gamma CDF and survival kernels, and where it takes
    their values back to (see _dose_map).

    Two dropout points of one trace have the same dose at every parameter
    value when their peaks share a dose kind (see _dose_kinds), on one
    marker or on two, and the points have the same index in their kind's
    3^U or 6^U points; two observed peaks of one trace and kind have the
    same doses, point by point.  Where rho and xi are the trace's own on
    every marker, so are their kernels' values, and a pass evaluates
    them once, at the first such point or peak.  canon holds those
    dropout points, as indices into the layout's points, in point order,
    and cut their thresholds (the layout's one where one trace covers the
    stack); spread gives each dropout point its place among canon.  peaks
    holds the observed peaks whose survival terms are evaluated, as
    indices into the observed peaks in layout order, and peak_spread each
    observed peak's place among them.  Each index array is a slice where
    every point or peak is its own first.
    """

    canon: np.ndarray | slice
    cut: np.ndarray
    spread: np.ndarray | slice
    peaks: np.ndarray | slice
    peak_spread: np.ndarray | slice


class _Positions(NamedTuple):
    """The internal positions of the markers a build lays out, marker
    after marker, with what a trace's layout reads of each."""

    marker: np.ndarray   # the marker's index among them
    local: np.ndarray    # internal position p on its marker
    coupled: np.ndarray  # stutter donor at p+1
    emitted: np.ndarray  # not silent: the position has a factor
    kind: np.ndarray     # dose kind, on any marker (see _dose_kinds)


def _dose_kinds(coupled, known_counts):
    """Each position's dose kind, below len(coupled)^2 + len(coupled): two
    positions share one when their known-count columns are equal and,
    where coupled, their donors' are too, on one marker or on two.  The
    rows of B at such positions are equal at every parameter value, so two
    dropout peaks of one trace and kind have the same doses wherever rho
    and xi are the same at both (see _DoseMap)."""
    n = len(coupled)
    # each position's column as the first position with an equal one
    column = (known_counts[:, :, None] == known_counts[:, None, :]).all(axis=0).argmax(1)
    donor = np.where(coupled, np.append(column[1:], 0) + 1, 0)
    return column * (n + 1) + donor


def _factor_layouts(pos, place, hypothesis, traces, heights):
    """The layout (see _FactorLayout) of each stack of a build, with every
    trace laid out over every position at once.

    ``place`` holds each marker's place in its stack (see _build_stacks),
    and ``heights`` each trace's heights at the positions, a row per trace,
    NaN on the markers it does not cover.  A peak is an emitted position
    of a marker its trace covers, and its factor is one run of 6^U
    entries, one per (previous draw, draw) pair of its emit step: step p+1
    for a stutter-coupled position p, step p for an uncoupled one.  An
    observed peak adds a dose point per pair.  A dropout peak adds points
    where no earlier dropout peak of its trace has its kind: one per pair
    if it is coupled, one per draw if not (the first 3^U entries of its
    run, at which the draw is the entry's index), which the later dropout
    peaks of that kind read.  A pair's points are 2^U blocks of 3^U and a
    draw's one, so each block's cells are one row of a small table plus a
    cell offset.

    Each stack's dose map (see _DoseMap) comes from the same pass: one
    np.unique of a key per peak gives each dropout peak its source and
    each peak its canonical peak, the first of its stack, trace, kind and
    observed status; a dropout block is taken to its canonical peak's
    block at the same index.  Returns a (layout, dose map) pair per
    stack.
    """
    joint = _joint_tables(len(hypothesis.unknown))
    n_combos, n_pairs = joint.n_combos, joint.n_states
    width, n_traces, n_stacks = n_pairs // n_combos, len(traces), place[0, -1] + 1
    stack, row, dose, zero = place[:, pos.marker]
    row, dose = row + pos.local, dose + pos.local
    threshold = np.array([t.threshold for t in traces], dtype=float)
    # the traces that cover a marker of each stack, and each one's place
    # among them
    covered = ~np.isnan(heights)
    covers = np.logical_or.reduceat(covered, np.searchsorted(stack, range(n_stacks)), axis=1)
    slot = np.cumsum(covers, axis=0) - 1
    contributes = [
        np.array([[r in hypothesis.roles_for(t.trace_id) for r in ids] for t in traces],
                 dtype=bool).reshape(n_traces, len(ids))
        for ids in (hypothesis.known, hypothesis.unknown)
    ]

    # the peaks in entry order: stack by stack, trace by trace, observed
    # peaks first, each in position order
    trace, at = np.nonzero(pos.emitted & covered)
    seen = heights[trace, at] >= threshold[trace]
    order = np.lexsort((~seen, trace, stack[at]))
    trace, at, seen = trace[order], at[order], seen[order]
    group, linked = stack[at], pos.coupled[at]
    full = seen | linked
    cell = ((row[at] + linked) * n_pairs)[:, None] + np.arange(n_pairs)

    # each peak's source of points, itself or the first dropout peak of its
    # marker, trace and kind, and its canonical peak (see _DoseMap), the
    # first peak of its stack, trace, kind and status: one key orders the
    # peaks by the latter and then by marker (a dropout peak) or position
    # (an observed one), so each run of one canonical key starts at its
    # canonical peak
    n_pos = len(pos.kind)
    free = ((group * n_traces + trace) * (n_pos * (n_pos + 1)) + pos.kind[at]) * 2 + seen
    key, first, inverse = np.unique(
        free * n_pos + np.where(seen, at, pos.marker[at]), return_index=True, return_inverse=True
    )
    source = first[inverse]
    free = key // n_pos
    head = np.ones(len(key), dtype=bool)
    head[1:] = free[1:] != free[:-1]
    head = np.flatnonzero(head)
    canonical = first[head][np.searchsorted(head, inverse, "right") - 1]
    # the peaks that add points, in point order: stack by stack, observed
    # before dropout, trace by trace; and each entry's point
    adds = np.flatnonzero(source == np.arange(len(at)))
    adds = adds[np.argsort(group[adds] * 2 + ~seen[adds], kind="stable")]
    blocks = np.where(full[adds], width, 1)
    start = np.cumsum(blocks) - blocks
    peak = np.repeat(adds, blocks)  # each block's peak
    bounds = [
        np.searchsorted(g, np.arange(n_stacks + 1)).tolist()
        for g in (group, group[seen], group[peak])
    ]
    first_point = np.zeros(len(at), dtype=np.int64)
    first_point[adds] = (start - np.take(bounds[2], group[adds])) * n_combos
    point = np.take(joint.read, np.where(full, 2, 0), axis=0)
    point += first_point[source][:, None]

    # a block's first cells: B[p, draw at t-1] at a coupled peak's pairs,
    # B[p, draw at t] at an uncoupled one's; its second: the donor's
    # B[p+1, draw at t], or the zero cell.  Each trace's B follows the
    # previous trace's, zero cell included.  The table's rows: read's and
    # pair_draw's blocks, then zeros.
    k = np.arange(len(peak)) - np.repeat(start, blocks)
    here, link, own = dose[at[peak]], linked[peak], zero[at[peak]]
    table = np.concatenate([
        joint.read.reshape(3 * width, n_combos),
        joint.pair_draw.reshape(width, n_combos),
        np.zeros((1, n_combos), dtype=np.int64),
    ])
    rows = np.stack([
        np.where(full[peak], link * width, 2 * width) + k,
        np.where(link, 3 * width + k, 4 * width),
    ])
    cells = np.stack([here * n_combos, np.where(link, (here + 1) * n_combos, own)])
    cells += slot[trace[peak], group[peak]] * (own + 1)
    runs = np.bincount(
        (group[peak] * 2 + ~seen[peak]) * n_traces + trace[peak],
        minlength=n_stacks * 2 * n_traces,
    ).reshape(n_stacks, 2, n_traces) * n_combos
    local = pos.local[at]
    peak_heights = np.repeat(heights[trace[seen], at[seen]], n_pairs)

    # the dose maps: each dropout block taken to its canonical peak's block
    # at its index, and each observed peak to its canonical peak, both
    # numbered among the dropout blocks or the observed peaks
    block_of = np.zeros(len(at), dtype=np.int64)
    block_of[adds] = start
    dropout = ~seen[peak]
    blocks = np.flatnonzero(dropout)
    block_maps = _to_first(
        (np.cumsum(dropout) - 1)[block_of[canonical[peak[blocks]]] + k[blocks]],
        np.searchsorted(group[peak[blocks]], np.arange(n_stacks + 1)), n_combos,
    )
    peak_maps = _to_first((np.cumsum(seen) - 1)[canonical[seen]], np.array(bounds[1]), 1)
    layouts = []
    for g in range(n_stacks):
        mine = np.flatnonzero(covers[:, g])
        (r0, r1), (s0, s1), (b0, b1) = (b[g:g + 2] for b in bounds)
        run = runs[g][:, mine].ravel()
        entries = np.searchsorted(trace[r0:r1], [*mine, n_traces]) * n_pairs
        gather = np.take(table, rows[:, b0:b1], axis=0)
        gather += cells[:, b0:b1, None]
        # one trace's one threshold broadcasts as its points' eta does
        cut = np.repeat(threshold[mine], run[len(mine):] if len(mine) > 1 else 1)
        n_observed = (s1 - s0) * n_pairs
        canon, spread = block_maps[g]
        dose_map = _DoseMap(
            slice(n_observed, None) if isinstance(canon, slice) else canon + n_observed,
            cut if len(cut) == 1 else cut[canon], spread, *peak_maps[g],
        )
        layouts.append((_FactorLayout(
            trace_ids=tuple(traces[j].trace_id for j in mine),
            column=tuple(mine.tolist()),
            threshold=threshold[mine],
            known_contributes=contributes[0][mine],
            unknown_contributes=contributes[1][mine],
            entries=tuple(entries.tolist()),
            cell=cell[r0:r1].ravel(),
            position=local[r0:r1],
            n_observed=n_observed,
            peak_heights=peak_heights[s0 * n_pairs:s1 * n_pairs],
            cut=cut,
            point=point[r0:r1].ravel(),
            gather=gather.reshape(2, -1),
            points=tuple(np.cumsum([0, *run]).tolist()),
            runs=run,
            run_column=np.tile(mine, 2),
        ), dose_map))
    return layouts


def _to_first(own, bounds, size):
    """Items of ``size`` consecutive points each, stack by stack (items
    bounds[g]:bounds[g+1] on stack g), item i taken to item own[i] of its
    stack, which is its own.  Per stack: the points of its items that are
    their own, as indices from its first point, and each of its points'
    place among those; two slices where every item is its own."""
    keep = own == np.arange(len(own))
    if keep.all():
        return [(slice(None), slice(None))] * (len(bounds) - 1)
    firsts = np.flatnonzero(keep)
    ends = np.searchsorted(firsts, bounds)  # each stack's run of firsts
    sizes = np.diff(bounds)
    canon = firsts - np.repeat(bounds[:-1], sizes)[firsts]
    spread = (np.cumsum(keep) - 1 - np.repeat(ends[:-1], sizes))[own]
    if size > 1:
        inner = np.arange(size)
        canon, spread = ((v[:, None] * size + inner).ravel() for v in (canon, spread))
    ends, bounds = ends.tolist(), bounds.tolist()
    return [
        (slice(None), slice(None)) if f1 - f0 == i1 - i0
        else (canon[f0 * size:f1 * size], spread[i0 * size:i1 * size])
        for f0, f1, i0, i1 in zip(ends, ends[1:], bounds, bounds[1:])
    ]


@dataclass(frozen=True)
class _MarkerPlan:
    """Parameter-independent structure of one marker's chain: its ladder,
    its steps' transitions and the known contributors' counts, which the
    queries about the marker read.  joint is the chain of its U unknowns
    (see _JointTables), the one record its stack and every plan of that U
    hold, whose edges and tables its log-space pass and k-best search
    read.  Passes run over the stack that holds the marker (see _Stack),
    which lays out the traces."""

    marker: str
    labels: tuple[str, ...]          # ladder order
    order: np.ndarray                # internal position -> ladder index
    internal_labels: tuple[str, ...]
    silent: np.ndarray               # bool per internal position
    state_lp: np.ndarray             # (P, 6^U): per step, joint transition per target
    unknown_ids: tuple[str, ...]
    known_counts: np.ndarray         # (K, P) in internal order
    joint: _JointTables


@dataclass(frozen=True)
class _Stack:
    """Markers whose chains one pass runs side by side; every pass runs
    over a stack, of one marker or of several.

    plans holds the markers' plans, and joint the chain of U unknowns that
    they share (see _JointTables), the same record as each plan's.  Each
    marker is front-padded to the longest: the steps before first[i] are
    exact identity steps (state 0 to state 0, weight 1, log 0), given by
    the log transition row (0, -inf, ...) and a zero table.  With lp every
    marker's log transition per step and target state, (G, T, 6^U), and
    transition_shift its largest per step, (G, T), transition is exp(lp -
    transition_shift): each step's transitions scaled so that the largest
    is 1 (a padding step's row is (1, 0, ...), its shift 0).  It does not
    depend on the parameters, so every pass over the stack reads it.  The
    step tables are (G * T, 6^U), marker by marker (see _marker_rows), and
    known_counts, a row per known contributor, spans the markers'
    positions in turn.  layout lays out
    every trace's factor entries on the markers (see _FactorLayout); the
    layouts of a build's stacks are slices of arrays one pass wrote.
    dose_map takes the dropout points and observed peaks of one trace and
    dose kind on several of the markers to one (see _DoseMap).  A pass
    over n_sets parameter sets at once runs on the stack's markers
    repeated once per set (see _repeated), which has no layout; repeats
    keeps each such copy, by its number of sets, for the passes after.
    """

    plans: tuple[_MarkerPlan, ...]
    first: np.ndarray
    transition: np.ndarray
    transition_shift: np.ndarray
    layout: _FactorLayout | None
    dose_map: _DoseMap | None
    known_counts: np.ndarray
    joint: _JointTables
    n_sets: int = 1
    repeats: dict[int, _Stack] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def _build_stacks(freqs, hypothesis, traces, names):
    """The plans of the markers ``names``, in order, in stacks of at most
    _BLOCK_EDGES // 10^U (at least one), so that a stack's step holds at
    most _BLOCK_EDGES edge values.

    Each marker's place in its stack gives its positions' rows of the
    stack's step tables and of its doses B, and the stack's zero cell,
    which follows the cells of B.  One call of _factor_layouts lays out
    every trace on every stack that holds a marker it covers, with each
    stack's dose map.
    """
    if not names:
        return ()
    joint = _joint_tables(len(hypothesis.unknown))
    pos, state_lp, known_counts, heights = _positions(freqs, hypothesis, traces, names)
    length = np.bincount(pos.marker, minlength=len(names))
    start = np.cumsum(length) - length
    per_stack = max(1, _BLOCK_EDGES // len(joint.edges.src))
    groups = [
        list(range(i, min(i + per_stack, len(names))))
        for i in range(0, len(names), per_stack)
    ]
    # each marker's place in its stack: the stack, the first row of the
    # marker's steps and of its doses, and the stack's zero cell; and each
    # stack's positions, padding and transitions
    place = np.zeros((4, len(names)), dtype=np.int64)
    chains = []
    for g, group in enumerate(groups):
        size = length[group]
        n_steps = int(size.max())
        first = n_steps - size
        place[0, group] = g
        place[1, group] = np.arange(len(group)) * n_steps + first
        place[2, group] = np.cumsum(size) - size
        place[3, group] = size.sum() * joint.n_combos
        span = slice(start[group[0]], start[group[0]] + size.sum())
        lp = np.full((len(group), n_steps, joint.n_states), -np.inf)
        lp[:, :, 0] = 0.0
        lp[np.arange(n_steps) >= first[:, None]] = state_lp[span]
        shift = np.maximum.reduce(lp, axis=2)
        # the scaled transitions overwrite lp: no temporary of its size
        lp -= shift[..., None]
        chains.append((span, first, np.exp(lp, out=lp), shift))
    layouts = _factor_layouts(pos, place, hypothesis, traces, heights)

    plans = []
    for i, name in enumerate(names):
        ladder = freqs.ladder(name)
        mine = slice(start[i], start[i] + length[i])
        plans.append(_MarkerPlan(
            marker=name,
            labels=ladder.alleles,
            order=ladder.order,
            internal_labels=tuple(ladder.alleles[j] for j in ladder.order),
            silent=~pos.emitted[mine],
            state_lp=state_lp[mine],
            unknown_ids=hypothesis.unknown,
            known_counts=known_counts[:, mine],
            joint=joint,
        ))
    return tuple(
        _Stack(
            plans=tuple(plans[i] for i in group),
            first=first,
            transition=transition,
            transition_shift=shift,
            layout=layout,
            dose_map=dose_map,
            known_counts=known_counts[:, span],
            joint=joint,
        )
        for group, (span, first, transition, shift), (layout, dose_map)
        in zip(groups, chains, layouts)
    )


def _positions(freqs, hypothesis, traces, names):
    """The positions of the markers ``names`` (see _Positions), every
    step's transition log-probabilities per target state, the known
    contributors' counts at every position, and the traces' heights at
    them, a row per trace (NaN on a marker the trace does not cover).

    Each marker's ladder order, frequencies and known counts are read as
    arrays once, in ladder order over the markers' ladders one after the
    other, and taken to the positions by one gather; only the heights are
    read label by label.  The transitions are one fold over all markers.
    """
    ladders = [freqs.ladder(name) for name in names]
    length = np.array([len(ladder.alleles) for ladder in ladders])
    start = np.cumsum(length) - length
    marker = np.repeat(np.arange(len(names)), length)
    local = np.arange(len(marker)) - start[marker]
    # each position's allele, as its index in the ladders one after the other
    allele = np.concatenate([ladder.order for ladder in ladders]) + start[marker]
    labels = [label for ladder in ladders for label in ladder.alleles]
    q = np.array([f for ladder in ladders for f in ladder.frequencies])[allele]
    # the allele's share of the frequency left at its position, each
    # marker's tail summed from its last position, a row per marker
    back = length[marker] - 1 - local
    tails = np.zeros((len(names), length.max()))
    tails[marker, back] = q
    rates = np.minimum(q / np.cumsum(tails, axis=1)[marker, back], 1.0)
    known = [[] for _ in hypothesis.known]
    heights = [[] for _ in traces]
    for name, ladder in zip(names, ladders):
        for counts, (kid, profile) in zip(known, hypothesis.known.items()):
            if name not in profile.genotypes:
                raise ValueError(
                    f"known contributor {kid!r} is untyped on marker {name!r}"
                )
            counts += profile.counts(name, ladder)
        for trace, own in zip(traces, heights):
            row = trace.heights.get(name)
            if row is None:
                own += [math.nan] * len(ladder.alleles)
                continue
            off_ladder = set(row) - set(ladder.alleles)
            if off_ladder:
                raise ValueError(
                    f"trace {trace.trace_id!r} lists alleles {sorted(off_ladder)} "
                    f"not on the {name!r} ladder"
                )
            own += [row.get(lab, 0.0) for lab in ladder.alleles]

    joint = _joint_tables(len(hypothesis.unknown))
    state_lp = _fold(_state_log_pmf(rates.tolist()), joint.n_unknown, 1)
    # a marker's first step leaves state 0 only: its transition row rules
    # out every state that no edge out of state 0 reaches
    state_lp[np.flatnonzero(local == 0)[:, None], joint.unreached] = -np.inf
    known_counts = np.array(known, dtype=np.int64).reshape(len(known), len(marker))[:, allele]
    coupled = np.concatenate([ladder.coupled for ladder in ladders])
    pos = _Positions(
        marker=marker,
        local=local,
        coupled=coupled,
        emitted=np.array([label != SILENT_LABEL for label in labels])[allele],
        kind=_dose_kinds(coupled, known_counts),
    )
    heights = np.array(heights, dtype=float).reshape(len(traces), len(marker))[:, allele]
    return pos, state_lp, known_counts, heights


def _repeated(stack, n_sets):
    """The chains of a stack's markers repeated once per parameter set, set
    by set, for one pass over the step tables of n_sets sets (see
    _step_tables).  Each copy has the stack's own padding and scaled
    transitions, tiled, and shares the rest, its joint record included.
    Each stack makes its copy for n_sets once and keeps it."""
    if n_sets == 1:
        return stack
    if n_sets in stack.repeats:
        return stack.repeats[n_sets]
    stack.repeats[n_sets] = replace(
        stack,
        plans=stack.plans * n_sets,
        first=np.tile(stack.first, n_sets),
        transition=np.tile(stack.transition, (n_sets, 1, 1)),
        transition_shift=np.tile(stack.transition_shift, (n_sets, 1)),
        layout=None,
        dose_map=None,
        n_sets=n_sets,
    )
    return stack.repeats[n_sets]


# ---------------------------------------------------------------------------
# Bundle


@dataclass(frozen=True)
class EvidenceBundle:
    """Everything one likelihood evaluation needs, immutable once built.

    Chain structure is precomputed for every marker some trace covers,
    and the factor layout of every trace over them, in one pass over all
    traces and positions, at construction;
    bundles derived via :meth:`with_parameters` share them, so parameter
    sweeps and optimizer loops pay the structural cost once.  A query
    about a marker no trace covers builds its structure when asked.
    Evaluation is pure and safe for concurrent read-only use.
    """

    traces: tuple[Trace, ...]
    frequencies: FrequencyTable
    hypothesis: Hypothesis
    parameters: ModelParameters
    _stacks: tuple[_Stack, ...] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        check_unknown_count(len(self.hypothesis.unknown))
        object.__setattr__(self, "traces", tuple(self.traces))
        if not self.traces:
            raise ValueError("bundle needs at least one trace")
        ids = [t.trace_id for t in self.traces]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate trace ids: {ids}")
        table_markers = set(self.frequencies.marker_names())
        for trace in self.traces:
            missing = set(trace.markers()) - table_markers
            if missing:
                raise ValueError(
                    f"trace {trace.trace_id!r} covers markers {sorted(missing)} "
                    "absent from the frequency table"
                )
        for kid, profile in self.hypothesis.known.items():
            for trace in self.traces:
                for marker in trace.markers():
                    if marker not in profile.genotypes:
                        raise ValueError(
                            f"known contributor {kid!r} is untyped on marker "
                            f"{marker!r} present in trace {trace.trace_id!r}"
                        )
        _validate_parameters(self.parameters, self)
        covered = [
            name for name in self.frequencies.marker_names()
            if any(name in trace.heights for trace in self.traces)
        ]
        object.__setattr__(self, "_stacks", _build_stacks(
            self.frequencies, self.hypothesis, self.traces, covered
        ))

    def with_parameters(self, parameters: ModelParameters) -> "EvidenceBundle":
        """Same evidence and hypothesis at new parameter values (shares structure)."""
        _validate_parameters(parameters, self)
        clone = object.__new__(EvidenceBundle)
        object.__setattr__(clone, "traces", self.traces)
        object.__setattr__(clone, "frequencies", self.frequencies)
        object.__setattr__(clone, "hypothesis", self.hypothesis)
        object.__setattr__(clone, "parameters", parameters)
        object.__setattr__(clone, "_stacks", self._stacks)
        return clone

    def covered_markers(self) -> tuple[str, ...]:
        """The markers some trace covers, in table order: those in a stack."""
        return tuple(plan.marker for stack in self._stacks for plan in stack.plans)

    def same_evidence(self, other: "EvidenceBundle") -> bool:
        return self.traces == other.traces and self.frequencies == other.frequencies


def check_unknown_count(count: int) -> None:
    """Refuse more than MAX_UNKNOWNS unknown contributors, before anything
    is built for them."""
    if count > MAX_UNKNOWNS:
        raise ValueError(
            f"{count} unknown contributors exceed the engine's limit of "
            f"{MAX_UNKNOWNS}: each chain step has 10^U edges"
        )


def _trace_roles(bundle):
    """The bundle's trace ids, each trace's roles in Hypothesis.roles_for
    order (its known contributors first), and how many of them are
    known."""
    ids = tuple(t.trace_id for t in bundle.traces)
    roles = tuple(bundle.hypothesis.roles_for(t) for t in ids)
    return ids, roles, tuple(sum(r in bundle.hypothesis.known for r in mine)
                             for mine in roles)


def _gradient_keys(trace_ids, roles) -> list[tuple]:
    """The gradient keys: per trace ("rho", t), ("eta", t), ("xi", t) and
    ("phi", t, role) for each of its ``roles``."""
    return [
        key
        for t, mine in zip(trace_ids, roles)
        for key in (("rho", t), ("eta", t), ("xi", t), *(("phi", t, r) for r in mine))
    ]


def _sets_of(bundle) -> _ParameterSets:
    """The bundle's parameters as one set of arrays (see _ParameterSets)."""
    return _ParameterSets.of(bundle, [bundle.parameters])


def _validate_parameters(params, bundle):
    _check_coverage(params, bundle)
    _check_override_markers(params.marker_rho, params.marker_xi, bundle.frequencies)
    params.check_unknown_ordering(bundle.hypothesis.unknown)


def _check_coverage(params, bundle):
    """Refuse parameters that do not cover exactly the bundle's traces and
    each trace's roles."""
    ids = {t.trace_id for t in bundle.traces}
    if set(params.rho) != ids:
        raise ValueError(
            f"parameters cover traces {sorted(params.rho)}, bundle has {sorted(ids)}"
        )
    for trace in bundle.traces:
        roles = bundle.hypothesis.roles_for(trace.trace_id)
        given = set(params.phi[trace.trace_id])
        if given != set(roles):
            raise ValueError(
                f"phi for trace {trace.trace_id!r} must cover exactly roles "
                f"{list(roles)}, got {sorted(given)}"
            )


def _check_override_markers(marker_rho, marker_xi, frequencies):
    """Refuse a per-marker override of a marker the frequency table lacks."""
    markers = set(frequencies.marker_names())
    for name, over in (("marker_rho", marker_rho), ("marker_xi", marker_xi)):
        for marker in over or ():
            if marker not in markers:
                raise ValueError(
                    f"{name}[{marker!r}] names a marker absent from the frequency table"
                )


class _ParameterSets(NamedTuple):
    """K parameter sets of one bundle's traces, as arrays: row k is the
    k-th set.

    rho, eta and xi are (K, traces), a column per trace in the bundle's
    order, and phi holds each trace's (K, roles) fractions, its roles in
    Hypothesis.roles_for order: its n_known known contributors, then its
    unknowns (see _trace_roles).  The per-marker overrides are constants
    that every set shares.  A pass's gradient has one column per key of
    _gradient_keys, in that order.
    """

    trace_ids: tuple[str, ...]
    roles: tuple[tuple[str, ...], ...]
    n_known: tuple[int, ...]
    rho: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    phi: tuple[np.ndarray, ...]
    marker_rho: Mapping[str, Mapping[str, float]] | None = None
    marker_xi: Mapping[str, float] | None = None

    @classmethod
    def of(cls, bundle, sets):
        """The arrays of ModelParameters ``sets`` of ``bundle``'s traces,
        sets that share their per-marker overrides."""
        ids, roles, n_known = _trace_roles(bundle)

        def table(rows, width):
            return np.array(rows, dtype=float).reshape(len(sets), width)

        return cls(
            ids, roles, n_known,
            table([[p.rho[t] for t in ids] for p in sets], len(ids)),
            table([[p.eta_for(t) for t in ids] for p in sets], len(ids)),
            table([[p.xi_for(t) for t in ids] for p in sets], len(ids)),
            tuple(table([[p.phi[t][r] for r in mine] for p in sets], len(mine))
                  for t, mine in zip(ids, roles)),
            sets[0].marker_rho, sets[0].marker_xi,
        )

    def take(self, rows) -> "_ParameterSets":
        """The sets at ``rows``, a slice or an index array."""
        return self._replace(
            rho=self.rho[rows], eta=self.eta[rows], xi=self.xi[rows],
            phi=tuple(p[rows] for p in self.phi),
        )

    def parameters(self, k) -> ModelParameters:
        """The k-th set as ModelParameters, which checks it."""
        ids = self.trace_ids
        return ModelParameters(
            rho=dict(zip(ids, self.rho[k].tolist())),
            eta=dict(zip(ids, self.eta[k].tolist())),
            xi=dict(zip(ids, self.xi[k].tolist())),
            phi={t: dict(zip(roles, p[k].tolist()))
                 for t, roles, p in zip(ids, self.roles, self.phi)},
            marker_rho=self.marker_rho,
            marker_xi=self.marker_xi,
        )

    def refused(self, frequencies) -> np.ndarray:
        """Per set, whether ModelParameters or
        EvidenceBundle.with_parameters would refuse it: a scale not
        positive and finite, xi outside [0, 1), fractions not finite,
        negative, not summing to 1 or with unknown fractions increasing
        along the roles, or an override they refuse (every set)."""
        if self.marker_rho or self.marker_xi:
            try:
                _check_overrides(self.marker_rho, self.marker_xi, self.trace_ids)
                _check_override_markers(self.marker_rho, self.marker_xi, frequencies)
            except ValueError:
                return np.ones(len(self.rho), dtype=bool)
        with np.errstate(invalid="ignore"):
            scales = np.concatenate((self.rho, self.eta), axis=1)
            fractions = np.concatenate(self.phi, axis=1)
            bad = ~(
                (np.isfinite(scales) & (scales > 0.0)).all(axis=1)
                & ((self.xi >= 0.0) & (self.xi < 1.0)).all(axis=1)
                & np.isfinite(fractions).all(axis=1)
            ) | (fractions < -_PHI_SUM_TOL).any(axis=1)
            for n_known, phi in zip(self.n_known, self.phi):
                unknown = phi[:, n_known:]
                bad |= np.abs(phi.sum(axis=1) - 1.0) > _PHI_SUM_TOL
                bad |= (unknown[:, 1:] > unknown[:, :-1] + _PHI_ORDER_TOL).any(axis=1)
        return bad


# ---------------------------------------------------------------------------
# Evidence factors and chain sweeps


class _ViewTerms(NamedTuple):
    """Every trace's doses and log factors on a stack's markers (see
    _FactorLayout), for each of K parameter sets along a leading axis.

    log_cdf holds gamma_log_cdf at the shapes of the dropout points that
    dose_map, the map the pass ran through (see _dose_map), evaluates,
    (1, K, dose_map.canon), or on a gradient pass (3, K, dose_map.canon)
    at gamma_cdf_shapes of them, whose rows 1 and 2 are the sides of the
    shape derivative's central difference.  The parameters at each dose
    point are not kept: _point_values gives them again where needed.
    """

    base: np.ndarray         # (K, traces, the stack's positions, C) pre-stutter doses B
    ends: np.ndarray         # (K, 2, dose points): each point's two cells of B
    doses: np.ndarray        # (K, dose points), after stutter
    log_factors: np.ndarray  # (K, factor entries)
    log_cdf: np.ndarray
    dose_map: _DoseMap


def _point_values(stack, sets):
    """rho, eta and xi of the sets at each dose point of a stack's layout,
    (K, points) each, and the masks of the points whose rho and xi are
    the trace's (1.0) and not a per-marker override's (0.0, a constant):
    scalars 1.0 where no override applies on the stack's markers.  Each
    run of a trace's points repeats the trace's values.  Where one trace
    covers the stack and no override applies, they are its (K, 1)
    columns instead, which broadcast against the points (see _columns), so
    a pass over one trace builds no array of them."""
    layout = stack.layout
    values = np.array((sets.rho, sets.eta, sets.xi))
    overridden = bool(sets.marker_rho or sets.marker_xi)
    if len(layout.column) == 1 and not overridden:
        (column,) = layout.column
        rho, eta, xi = values[:, :, column:column + 1]
        return rho, eta, xi, 1.0, 1.0
    rho, eta, xi = np.repeat(
        np.take(values, layout.run_column, axis=2), layout.runs, axis=2
    )
    free = [1.0, 1.0]
    if overridden:
        markers = [plan.marker for plan in stack.plans]
        rho_over = [[(sets.marker_rho or {}).get(m, {}).get(t) for m in markers]
                    for t in sets.trace_ids]
        xi_over = [[(sets.marker_xi or {}).get(m) for m in markers]] * len(sets.trace_ids)
        # each point's own position in the stack, from its cell of B, and
        # the marker that holds the position
        n_combos = stack.joint.n_combos
        width = stack.known_counts.shape[1] * n_combos + 1
        starts = np.cumsum([len(plan.order) for plan in stack.plans])
        marker = np.searchsorted(starts, layout.gather[0] % width // n_combos, "right")
        column = np.repeat(layout.run_column, layout.runs)
        for i, (own, over) in enumerate(((rho, rho_over), (xi, xi_over))):
            table = np.array([[math.nan if v is None else v for v in row] for row in over])
            fixed = table[column, marker]
            held = ~np.isnan(fixed)
            if held.any():
                own[:, held] = fixed[held]
                free[i] = (~held).astype(float)
    return rho, eta, xi, *free


def _columns(values, part):
    """The points ``part`` (a slice or indices) of per-point values from
    _point_values: a (K, 1) column, which broadcasts against any of them,
    as it stands."""
    return values if values.shape[1] == 1 else values[:, part]


def _dose_map(stack, sets):
    """The map (see _DoseMap) through which a pass at ``sets`` evaluates
    the gamma CDF and survival kernels on a stack: the stack's own, or the
    identity where the sets carry a per-marker override (the test of
    _point_values), under which one trace's points on two markers may
    differ in rho or xi.  The identity is exact, as the layout's points
    of one trace and kind are already distinct per marker."""
    if not (sets.marker_rho or sets.marker_xi):
        return stack.dose_map
    every = slice(None)
    return _DoseMap(slice(stack.layout.n_observed, None), stack.layout.cut, every, every, every)


def _view_terms(stack, sets, sides=False) -> _ViewTerms:
    """Every trace's doses and log factors on a stack's markers, at each of
    the parameter sets ``sets`` (see _ParameterSets); with ``sides``, for
    a gradient pass, the log CDFs at the sides of their shape derivatives
    too.

    At a stutter-coupled position p the dose of pair j is
    (1 - xi) B[p, draw at t-1] + xi B[p+1, draw at t]; at an uncoupled
    one it is (1 - xi) B[p, draw at t] (+ xi * 0, which is exact).
    B[p, c] = sum over the trace's roles of phi_r * n_r(p, c), where
    n_r(p, c) is a known contributor's count at position p or the count
    an unknown draws at joint draw c.  Every trace's doses come from one
    gather, and their factors from one call of each gamma kernel: at the
    observed entries and at the dropout points of the dose map (see
    _dose_map), one per trace and dose across the stack's markers where
    no override applies, taken back to every dropout point and then to
    the entries, for all traces and sets at once.  B is one matrix
    product per trace and set: a product batched over them may sum in
    another order.
    """
    layout, joint = stack.layout, stack.joint
    n_sets, n_traces = len(sets.rho), len(layout.trace_ids)
    shape = (stack.known_counts.shape[1], joint.n_combos)
    rho, eta, xi, _, _ = _point_values(stack, sets)
    # each set's B of each trace, flattened, each with one trailing zero cell
    cells = np.zeros((n_sets, n_traces, shape[0] * shape[1] + 1))
    base = cells[:, :, :-1].reshape(n_sets, n_traces, *shape)
    for j, column in enumerate(layout.column):
        phi, n_known = sets.phi[column], sets.n_known[column]
        phi_known = np.zeros((n_sets, len(stack.known_counts)))
        phi_known[:, layout.known_contributes[j]] = phi[:, :n_known]
        phi_unknown = np.zeros((n_sets, joint.n_unknown))
        phi_unknown[:, layout.unknown_contributes[j]] = phi[:, n_known:]
        for one, known, unknown in zip(base[:, j], phi_known, phi_unknown):
            np.add((known @ stack.known_counts)[:, None],
                   (joint.combo_counts @ unknown)[None, :], out=one)
    ends = np.take(cells.reshape(n_sets, -1), layout.gather, axis=1)
    doses = (1.0 - xi) * ends[:, 0]
    doses += xi * ends[:, 1]
    shapes = rho * doses
    n = layout.n_observed
    log_pdf = gamma_log_pdf(layout.peak_heights, shapes[:, :n], _columns(eta, slice(0, n)))
    dose_map = _dose_map(stack, sets)
    cut_shapes = shapes[:, dose_map.canon]
    cut_shapes = gamma_cdf_shapes(cut_shapes) if sides else cut_shapes[None]
    log_cdf = gamma_log_cdf(dose_map.cut, cut_shapes, _columns(eta, dose_map.canon))
    log_factors = np.take(
        np.concatenate([log_pdf, log_cdf[0][:, dose_map.spread]], axis=1), layout.point, axis=1
    )
    return _ViewTerms(base, ends, doses, log_factors, log_cdf, dose_map)


def _set_offsets(index, n_sets, size):
    """``index`` into one set's cells, for each of n_sets sets of ``size``
    cells laid out set by set, flattened."""
    if n_sets == 1:
        return index
    return (index + size * np.arange(n_sets)[:, None]).ravel()


def _step_tables(stack, terms):
    """(K * G * T, 6^U) log evidence factors per step and (previous draw,
    draw) pair of a stack's G markers, summed over traces, for each of the
    K parameter sets of ``terms`` in turn: one np.bincount of each trace's
    entries over their cells, for all sets, added trace by trace, as a
    pass over each trace's entries in turn sums them."""
    layout = stack.layout
    n_sets = len(terms.doses)
    n_pairs = stack.joint.n_states
    size = stack.transition.shape[0] * stack.transition.shape[1] * n_pairs
    tables = np.zeros(n_sets * size)
    for lo, hi in itertools.pairwise(layout.entries):
        index = _set_offsets(layout.cell[lo:hi], n_sets, size)
        tables += np.bincount(index, terms.log_factors[:, lo:hi].ravel(), n_sets * size)
    return tables.reshape(-1, n_pairs)


class _Peaks(NamedTuple):
    """A stack's observed peaks, each with its emit step's table with the
    peak's own factor left out (see _tables_without_peaks).

    trace indexes each peak's trace in the stack's layout, position is
    its internal position on its marker and row its emit step's row of
    the step tables.  The peaks come trace by trace in layout order.
    """

    trace: np.ndarray
    position: np.ndarray
    row: np.ndarray
    tables: np.ndarray  # (peaks, 6^U)


def _tables_without_peaks(stack, terms):
    """Every observed peak of a stack, with its emit step's table rebuilt
    without the peak's factor.

    Step t emits a stutter-coupled position t-1 and an uncoupled position
    t, so a step holds at most two peaks' runs per trace.  Each table is
    an exact sum, trace by trace and position by position: subtracting
    the peak's factor from the full table would give NaN where that
    factor is -inf.  The sums run over all peaks at once, one run of
    entries per slot of the step, an absent or left-out run reading a row
    of zeros.
    """
    layout, n_pairs = stack.layout, stack.joint.n_states
    # every run of entries: its row, trace and position
    row = layout.cell[::n_pairs] // n_pairs
    trace = np.repeat(np.arange(len(layout.trace_ids)), np.diff(layout.entries) // n_pairs)
    position = layout.position
    factors = np.concatenate([terms.log_factors.reshape(-1, n_pairs), np.zeros((1, n_pairs))])
    observed = np.flatnonzero(layout.point[::n_pairs] < layout.n_observed)
    order = np.lexsort((position, trace, row))  # each step's runs, in sum order
    start, stop = (
        np.searchsorted(row[order], row[observed], side) for side in ("left", "right")
    )
    tables = np.zeros((len(observed), n_pairs))
    zero = len(factors) - 1
    for slot in range(int((stop - start).max(initial=0))):
        at = np.minimum(start + slot, len(order) - 1)
        run = np.where((start + slot < stop) & (order[at] != observed), order[at], zero)
        tables += factors[run]
    return _Peaks(trace[observed], position[observed], row[observed], tables)


def _step_values(plan, t, tables, ahead=None, out=None):
    """Per-edge exact log(transition * factors) at step t, for one step
    table or a stack of them (one row each).

    The transition is read per target state, from the step's outer sum of
    per-contributor log-pmfs.  ``ahead``, a value per target state, is
    added to the transitions before they are read, on the 6^U states
    rather than on every edge.  ``out``, two rows as long as the step's
    edges, takes the values of one step table in its first row, with its
    second as scratch, in place of fresh arrays.
    """
    edges = plan.joint.edges_at(t)
    lp = plan.state_lp[t] if ahead is None else plan.state_lp[t] + ahead
    if out is None:
        return lp[edges.dst] + tables[..., edges.key]
    values, scratch = out
    # mode "clip" writes into out directly, where "raise" buffers it; the
    # indices are in range
    np.take(lp, edges.dst, out=values, mode="clip")
    np.take(tables, edges.key, out=scratch, mode="clip")
    return np.add(values, scratch, out=values)


class _Pass(NamedTuple):
    """What one pass over a stack's chains gives the queries.

    loglik holds each marker's log L.  pair is the posterior of every
    step's (previous draw, draw) pairs, laid out as the step tables and
    zero on a marker of no finite likelihood; alt is that of each
    alternative row's step with the row in place of the step's own table
    (NaN where that has no mass).  Each only if asked.
    """

    loglik: np.ndarray
    pair: np.ndarray | None = None
    alt: np.ndarray | None = None


def _chain_pass(stack, tables, posteriors=False, alt=None) -> _Pass:
    """One pass over a stack's chains with step tables ``tables`` (see
    _Stack), of one marker or of several: every pass, for the bundle or
    for one marker, runs here.

    posteriors asks for every step's pair posterior.  alt = (rows,
    alternatives) asks for the pair posterior of step rows[j], a row of
    ``tables`` and so one marker's step, with alternatives[j] in place of
    the step's table.  The pass runs in scaled linear space; a marker
    whose scaled pass would lose precision is redone alone in log space,
    and the others keep theirs.
    """
    redo = np.zeros(len(stack.plans), dtype=bool)
    result = _scaled_pass(stack, tables, posteriors, alt, redo)
    for i in np.flatnonzero(redo):
        rows = _marker_rows(stack, i)
        mine = one_alt = None
        if alt is not None:
            mine = alt[0] // stack.transition.shape[1] == i
            one_alt = (alt[0][mine] - rows.start, alt[1][mine])
        one = _log_pass(stack.plans[i], tables[rows], posteriors, one_alt)
        result.loglik[i] = one.loglik
        if posteriors:
            result.pair[rows] = one.pair
        if alt is not None:
            result.alt[mine] = one.alt
    return result


@functools.cache
def _sparse_kernels():
    """scipy's compiled sparse products ``csc_matvec`` and ``csr_matvec``
    (``scipy.sparse._sparsetools``), imported at the first pass
    (scipy.sparse is slow to import).

    Over _stacked_csr's matrix, whose row i holds state i's out-edges,
    csc_matvec(n, n, indptr, indices, w, x, y) adds w * x[src] into
    y[dst] and csr_matvec(n, n, indptr, indices, w, x, y) adds w * x[dst]
    into y[src], edge by edge in the edges' order: the sums np.bincount
    makes, bit for bit.  They do not check the indices, so they get only
    _stacked_csr's arrays; a row of another dtype or layout would be
    copied at every call, so they get contiguous float64 rows.  A scipy
    without them raises ImportError naming the installed scipy.
    """
    import scipy

    try:
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec
    except ImportError:
        raise ImportError(
            "mixref needs scipy.sparse._sparsetools.csc_matvec and csr_matvec; "
            f"scipy {scipy.__version__} is installed"
        ) from None
    return csc_matvec, csr_matvec


@functools.lru_cache(maxsize=64)
def _stacked_csr(n_unknown, n_rows):
    """Every later step's edges for n_rows stacked rows of 6^U states (row
    r's states are r * 6^U + s), as a CSR matrix from source to target
    state: ``indptr``, where each source state's run of edges starts, and
    ``indices``, the edges' targets, in the order of the rows' edges.

    The joint record sorts the edges by ``src`` (see _JointTables), so
    each state's out-edges are one run; the arrays are read-only int64, as
    _sparse_kernels needs.  One row's targets are the edges' own ``dst``
    (at U = 5, 0.8 MB not copied).
    """
    joint = _joint_tables(n_unknown)
    edges, n_states = joint.edges, joint.n_states
    runs = np.tile(np.bincount(edges.src, minlength=n_states), n_rows)
    indptr = np.concatenate([[0], np.cumsum(runs)]).astype(np.int64)
    indptr.setflags(write=False)
    if n_rows == 1:
        return indptr, edges.dst
    indices = (np.arange(n_rows, dtype=np.int64)[:, None] * n_states + edges.dst).ravel()
    indices.setflags(write=False)
    return indptr, indices


def _forward(stack, tables, keep, ended):
    """Scaled forward recursion over a stack's chains (see _Stack).

    Returns each marker's log L; the messages alpha (T+1, G, S) into each
    step, each summing to 1; a bound (T+1, G) on each one's loss to
    underflow, relative to its sum, in units of _TINY; and (if ``keep``)
    each block's pair factors along its edges (steps, G, E), pair[key].
    An edge's weight is transition[dst] * pair[key]: the stack's scaled
    transition into its target state (see _Stack) times its pair's factor
    exp(table - the table's largest entry), computed on the step's 6^U
    pairs; the step's shift is the sum of the two largest values.  The
    mass along the edges, alpha[src] * pair[key], is summed into each
    target state by one compiled sparse product per step (csc_matvec, in
    np.bincount's order) and then multiplied by the state's transition.
    Both factors are at most 1, so each weight is.  A state holds at most
    3^U out-edges of weight at most 1, so earlier loss grows at most
    3^U-fold per step before the step's normalizer divides it.

    A marker's pass ends at a step whose shift is -inf (a table of -inf
    alone), with log L -inf; or is NaN or +inf, or where its loss bound is
    too large.  A step whose two largest values are finite but which has
    no finite edge, each edge's target or pair being -inf, has normalizer
    0, so an infinite loss bound: the marker ends with a log L that is not
    -inf, for the log-space redo, which gives -inf.  A marker that ended
    is marked in ``ended``, its numbers are no longer used, and the others
    go on; once all have ended the recursion stops.
    """
    joint, first = stack.joint, stack.first
    edges, n_states = joint.edges, joint.n_states
    n_markers, n_edges = len(first), len(edges.src)
    tables = tables.reshape(n_markers, -1, n_states)
    n_steps = tables.shape[1]
    # blocks as one set's pass makes them: each set's log L then adds the
    # same shifts in the same order
    per_block = max(1, _BLOCK_EDGES // (n_markers // stack.n_sets * n_edges))
    padded = {}
    if first.any():
        padded = {f: first == f for f in np.unique(first[first > 0]).tolist()}
    csc_matvec = _sparse_kernels()[0]
    indptr, indices = _stacked_csr(joint.n_unknown, n_markers)
    size = n_markers * n_states
    alpha = np.zeros((n_steps + 1, n_markers, n_states))
    alpha[0, :, 0] = 1.0
    flat_alpha = alpha.reshape(n_steps + 1, -1)
    norms = np.ones((n_steps, n_markers))
    shifts, weights = [], []
    # a marker that has ended may divide by zero or make NaN: its own rows only
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n_steps, per_block):
            if ended.all():
                break
            hi = min(lo + per_block, n_steps)
            top = np.maximum.reduce(tables[:, lo:hi], axis=2)
            pair = tables[:, lo:hi] - top[..., None]
            np.exp(pair, out=pair)
            shift = stack.transition_shift[:, lo:hi] + top
            finite = np.isfinite(shift)
            if not finite.all():
                # a table of -inf alone gives log L -inf below; a NaN or
                # +inf entry a log L that is not -inf, for the redo
                ended |= ~finite.all(axis=1)
            # (steps, G, E), C-contiguous: take, where indexing the
            # transposed view would keep its strides
            w = pair.transpose(1, 0, 2).take(edges.key, axis=2)
            # the block's shifts over each marker's own steps: one sum per
            # row, over the markers that share a padding
            sums = np.add.reduce(shift, axis=1)
            for f, rows in padded.items():
                if f > lo:
                    sums[rows] = np.add.reduce(shift[rows, f - lo:], axis=1)
            shifts.append((hi - lo, sums))
            flat = w.reshape(hi - lo, -1)
            for t in range(lo, hi):
                # alpha[t + 1], still zero, takes the sum into each target
                # state of alpha[src] * pair[key]
                csc_matvec(size, size, indptr, indices, flat[t - lo], flat_alpha[t],
                           flat_alpha[t + 1])
                mass = alpha[t + 1]
                mass *= stack.transition[:, t]
                total = norms[t] = np.add.reduce(mass, axis=1)
                mass /= total[:, None]
            if keep:
                weights.append(w)
    # each step's products lose at most E * _TINY; a padding step, whose
    # one product is exact, nothing (a later tiny normalizer would magnify
    # even 1e-320 past _LOSS).  Bounds are in units of _TINY, which keeps
    # them out of the subnormal range.
    step_loss = np.full((n_steps, n_markers), float(n_edges))
    if first.any():
        step_loss[np.arange(n_steps)[:, None] < first] = 0.0
    lost = np.zeros((n_steps + 1, n_markers))
    lost[1:] = _loss_bounds(norms, joint.n_combos, step_loss)
    ended |= ~(lost <= _LOSS / _TINY).all(axis=0)
    norms[:, ended] = 1.0
    # log L adds each block's shifts, then the log of each of its
    # normalizers, in order
    logs = np.reshape([math.log(x) for x in norms.ravel().tolist()], norms.shape)
    terms, t = [np.zeros(n_markers)], 0
    for n, sums in shifts:
        terms += [sums, *logs[t:t + n]]
        t += n
    loglik = np.add.accumulate(terms, axis=0)[-1]
    return loglik, alpha, lost, weights


def _loss_bounds(norms, fan_out, added):
    """Loss bounds of successive messages, each relative to its own scale,
    per column: bound[t+1] = (fan_out * bound[t] + added[t]) / norms[t]
    from bound[0] = 0, for t = 0 .. T-1.

    Unrolled, bound[t+1] is the sum over s <= t of added[s] fan_out^(t-s)
    / (norms[s] ... norms[t]).  With c[t] the sum over r < t of
    log fan_out - log norms[r], log bound[t+1] = c[t+1] - log fan_out +
    log sum over s <= t of exp(log added[s] - c[s]): two np.cumsum over
    the steps, for every column at once.  Each column's terms are shifted
    by their largest before the exponential; a normalizer is at most
    fan_out, so c does not decrease, the largest term is a column's first
    nonzero one, and no term that a sum needs underflows.  The logs of the
    normalizers are taken apart, so a subnormal one does not overflow
    fan_out / norms[r].  A zero normalizer after a positive bound or
    addition gives an infinite bound, after none a NaN bound, and a NaN
    normalizer a NaN bound: none is below a finite limit.  The bounds are
    in the units of ``added``; the passes count in units of _TINY, so
    that their bounds are not subnormal."""
    log_fan_out = math.log(fan_out)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.cumsum(log_fan_out - np.log(norms), axis=0)  # c[1] .. c[T]
        before = np.concatenate([np.zeros((1,) + norms.shape[1:]), scale])[:-1]
        terms = np.log(added) - before
        top = np.fmax.reduce(terms, axis=0, initial=-np.inf)
        top[~np.isfinite(top)] = 0.0
        lead = np.log(np.cumsum(np.exp(terms - top), axis=0))
        return np.exp(scale - log_fan_out + top + lead)


def _backward(stack, weights, ended):
    """Scaled backward messages beta (T, G, S) out of each step, each
    divided by its maximum, and a bound (T, G) on each one's loss to
    underflow relative to its maximum, in units of _TINY (zero out of a
    padding step, whose posterior no query reads).

    ``weights`` are the forward recursion's pair factors along the edges
    (see _forward): an edge carries pair[key] * (beta * transition)[dst],
    the message out of the step multiplied by the step's scaled
    transitions on its 6^U states, every factor at most 1, and each
    state's out-edges are summed by one compiled sparse product per step
    (csr_matvec, in np.bincount's order).

    A marker whose bound is too large is marked in ``ended``.
    """
    joint = stack.joint
    n_states, fan_out = joint.n_states, joint.n_combos
    steps = [row for w in weights for row in w.reshape(len(w), -1, w.shape[-1])]
    n_steps, n_markers = len(steps), len(steps[0])
    csr_matvec = _sparse_kernels()[1]
    indptr, indices = _stacked_csr(joint.n_unknown, n_markers)
    size = n_markers * n_states
    beta = np.zeros((n_steps, n_markers, n_states))
    beta[-1] = 1.0
    flat_beta = beta.reshape(n_steps, -1)
    tops = np.empty((n_steps - 1, n_markers))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n_steps - 1, 0, -1):
            # beta[t - 1], still zero, takes the sum out of each source
            # state of pair[key] * (beta * transition)[dst]
            ahead = (beta[t] * stack.transition[:, t]).ravel()
            csr_matvec(size, size, indptr, indices, steps[t].ravel(), ahead,
                       flat_beta[t - 1])
            mass = beta[t - 1]
            top = tops[t - 1] = np.maximum.reduce(mass, axis=1)
            mass /= top[:, None]
    lost = np.zeros((n_steps, n_markers))
    lost[-2::-1] = _loss_bounds(tops[::-1], fan_out, np.full(tops.shape, float(fan_out)))
    if stack.first.any():  # the messages out of padding steps serve no posterior
        lost[np.arange(n_steps)[:, None] < stack.first] = 0.0
    ended |= ~(lost <= _LOSS / _TINY).all(axis=0)
    return beta, lost


def _pair_posteriors(stack, alpha, beta, loss, at, w, ended):
    """Pair posteriors of a scaled pass at the (step, marker) rows ``at``,
    a slice of steps (every marker) or an array of steps and one of markers.

    ``w`` holds each row's pair factors along the edges.  An edge's mass,
    alpha[src] * w * (beta * transition)[dst], is summed by the edges'
    pairs with one np.bincount for all rows and normalized over the row.
    ``loss`` (T, G) bounds each row's loss to underflow, in units of
    _TINY: a marker with a row that would lose too much, or that has no
    mass, is marked in ``ended``.
    """
    edges, n_pairs = stack.joint.edges, stack.joint.n_states
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mass = alpha[at][..., edges.src]
        mass *= w
        ahead = beta[at] * stack.transition.transpose(1, 0, 2)[at]
        mass *= ahead[..., edges.dst]
        rows = mass.reshape(-1, len(edges.src))
        index = (np.arange(len(rows))[:, None] * n_pairs + edges.key).ravel()
        post = np.bincount(index, rows.ravel(), len(rows) * n_pairs)
        post = post.reshape(mass.shape[:-1] + (n_pairs,))
        total = np.add.reduce(post, axis=-1)
        bad = ~(loss[at] / total <= _LOSS / _TINY)
    ended[np.broadcast_to(np.arange(len(ended)), loss.shape)[at][bad]] = True
    total[bad] = 1.0
    return post / total[..., None]


def _scaled_pass(stack, tables, posteriors, alt, redo):
    """_chain_pass in scaled linear space.

    Every pair posterior comes from _pair_posteriors: a step's own from
    the forward recursion's pair factors, an alternative row's from
    exp(row - its largest entry), which ends the marker where not finite.
    A marker whose pass ends (see _forward) is marked in ``redo``, unless
    it ended with log L -inf and has no alternative rows, whose posteriors
    may still have mass.  A marker that ended gets zero pair posteriors.
    """
    keep = posteriors or alt is not None
    ended = np.zeros(len(stack.plans), dtype=bool)
    loglik, alpha, lost, weights = _forward(stack, tables, keep, ended)
    pair = np.zeros(np.shape(tables)) if posteriors else None
    others, has_alt = None, False
    if alt is not None:
        others = np.full(np.shape(alt[1]), np.nan)
        has_alt = np.bincount(alt[0] // stack.transition.shape[1], minlength=len(ended)) > 0
    if keep and not ended.all():
        beta, lost_after = _backward(stack, weights, ended)
        joint = stack.joint
        key = joint.edges.key
        # a posterior's mass alpha[src] * pair[key] * (beta * transition)[dst]
        # loses what alpha and beta lost, each at most 3^U-fold, and its own
        # products' underflow (in units of _TINY)
        loss = joint.n_combos * (lost[:-1] + lost_after) + len(key)
        if posteriors:
            out = pair.reshape(len(stack.plans), -1, joint.n_states)
            lo = 0
            for w in weights:
                hi = lo + len(w)
                post = _pair_posteriors(stack, alpha, beta, loss, slice(lo, hi), w, ended)
                out[:, lo:hi] = post.transpose(1, 0, 2)
                lo = hi
            out[ended] = 0.0
        if alt is not None:
            marker, step = np.divmod(alt[0], stack.transition.shape[1])
            per_block = max(1, _BLOCK_EDGES // len(key))
            with np.errstate(invalid="ignore"):
                for lo in range(0, len(marker), per_block):
                    block = slice(lo, lo + per_block)
                    top = alt[1][block].max(axis=1)
                    ended[marker[block][~np.isfinite(top)]] = True
                    w = np.exp(alt[1][block] - top[:, None])[:, key]
                    at = (step[block], marker[block])
                    others[block] = _pair_posteriors(stack, alpha, beta, loss, at, w, ended)
    redo |= ended & ((loglik != -np.inf) | has_alt)
    return _Pass(loglik, pair, others)


class _Sweep(NamedTuple):
    """One log-space forward-backward pass over a marker's chain.

    vals[t] holds step t's per-edge log(transition * factors), fwd[t] the
    forward log message into step t (fwd[-1] the final one) and bwd[t] the
    backward log message out of it (None until _log_backward gives it).
    """

    vals: list
    fwd: list
    bwd: list | None
    loglik: float


def _log_sweep(plan, tables) -> _Sweep:
    """Forward pass in log space; _log_backward gives the backward one."""
    joint, vals, fwd = plan.joint, [], [np.zeros(1)]
    for t, table in enumerate(tables):
        vals.append(_step_values(plan, t, table))
        edges = joint.edges_at(t)
        fwd.append(_logsumexp_by(edges.dst, fwd[t][edges.src] + vals[t], joint.n_states))
    return _Sweep(vals, fwd, None, _log_total(fwd[-1]))


def _log_backward(plan, vals):
    """Backward log messages out of each step, from its edge values."""
    edges, n_states = plan.joint.edges, plan.joint.n_states
    bwd = [None] * len(vals)
    bwd[-1] = np.zeros(n_states)
    for t in range(len(vals) - 1, 0, -1):
        bwd[t - 1] = _logsumexp_by(edges.src, vals[t] + bwd[t][edges.dst], n_states)
    return bwd


def _log_total(values) -> float:
    """log of the sum of exp(values), by one max shift.

    -inf when every entry is -inf, NaN when any entry is NaN.
    """
    peak = values.max()
    if not np.isfinite(peak):
        return float(peak)
    return float(peak + np.log(np.exp(values - peak).sum()))


def _step_posterior(plan, sweep, t, vals):
    """Posterior of step t's (previous draw, draw) pairs from a log sweep.

    Combines the sweep's messages around step t with the step's edge
    values ``vals``, which may come from another table for the step, and
    normalizes over the step; None where the step has no mass.
    """
    edges = plan.joint.edges_at(t)
    logw = sweep.fwd[t][edges.src] + vals + sweep.bwd[t][edges.dst]
    top = logw.max()
    if not np.isfinite(top):
        return None
    w = np.exp(logw - top)
    return np.bincount(edges.key, weights=w, minlength=plan.joint.n_states) / w.sum()


def _log_pass(plan, tables, posteriors, alt):
    """One marker's pass by the log-space recursion, where the scaled one
    underflows.  Without a finite log L the pair posteriors are zero, and
    only alternative tables need the backward recursion."""
    sweep = _log_sweep(plan, tables)
    finite = np.isfinite(sweep.loglik)
    if alt is not None or (posteriors and finite):
        sweep = sweep._replace(bwd=_log_backward(plan, sweep.vals))
    pair = others = None
    if posteriors:
        pair = np.zeros(np.shape(tables))
        if finite:
            pair[:] = [
                _step_posterior(plan, sweep, t, vals) for t, vals in enumerate(sweep.vals)
            ]
    if alt is not None:
        others = np.full(np.shape(alt[1]), np.nan)
        for j, (t, table) in enumerate(zip(*alt)):
            post = _step_posterior(plan, sweep, t, _step_values(plan, t, table))
            if post is not None:
                others[j] = post
    return _Pass(sweep.loglik, pair, others)


def _presence_masks(plan, assignments):
    """Translate allele -> present/absent assignments into per-step log masks.

    Row t is 0 for the pairs whose draw at step t the assignments allow,
    -inf for the others.
    """
    joint = plan.joint
    masks = np.zeros((len(plan.order), joint.n_states))
    if not assignments:
        return masks
    label_pos = {lab: p for p, lab in enumerate(plan.internal_labels)}
    known_any = plan.known_counts.sum(axis=0)
    draw_total = joint.combo_counts.sum(axis=1)[joint.pair_draw]
    for allele, value in assignments.items():
        lab = canonical_allele(allele)
        if lab not in label_pos:
            raise KeyError(f"allele {lab!r} not on the {plan.marker!r} ladder")
        p = label_pos[lab]
        present = _as_presence(lab, value)
        if known_any[p] > 0:
            if not present:
                raise InfeasibleConditioningError(
                    f"allele {lab!r} is carried by a known contributor; "
                    "conditioning it absent has zero probability"
                )
            continue  # already certain
        if present and joint.n_unknown == 0:
            raise InfeasibleConditioningError(
                f"no contributor can possess allele {lab!r}"
            )
        masks[p, (draw_total == 0) if present else (draw_total > 0)] = -np.inf
    return masks


def _as_presence(allele, value) -> bool:
    """A presence assignment: a bool, the integer 0 or 1, or one of the
    strings below; anything else raises ValueError."""
    if isinstance(value, str):
        v = value.strip().lower()
        if v in ("present", "1", "true", "yes"):
            return True
        if v in ("absent", "0", "false", "no"):
            return False
    elif isinstance(value, (numbers.Integral, np.bool_)) and value in (0, 1):
        return bool(value)
    raise ValueError(
        f"presence assignment for allele {allele!r} must be present/absent, "
        f"a bool, 0 or 1, got {value!r}"
    )


# ---------------------------------------------------------------------------
# Public queries


def _stack_of(bundle: EvidenceBundle, marker: str) -> tuple[_Stack, int]:
    """The stack that holds ``marker``, and the marker's index in it.  A
    marker no trace covers is built when asked, as a one-marker stack with
    no layouts."""
    for stack in bundle._stacks:
        for i, plan in enumerate(stack.plans):
            if plan.marker == marker:
                return stack, i
    if marker not in bundle.frequencies.marker_names():
        raise KeyError(f"marker {marker!r} not in frequency table")
    (stack,) = _build_stacks(
        bundle.frequencies, bundle.hypothesis, bundle.traces, [marker]
    )
    return stack, 0


def marker_log_likelihood(bundle: EvidenceBundle, marker: str) -> float:
    """Exact log likelihood of one marker, marginalized over unknown
    genotypes, by one pass over the stack of markers that holds it."""
    stack, i = _stack_of(bundle, marker)
    tables = _step_tables(stack, _view_terms(stack, _sets_of(bundle)))
    return float(_chain_pass(stack, tables).loglik[i])


def total_log_likelihood(bundle: EvidenceBundle) -> float:
    """Sum of marker log likelihoods over all markers covered by any trace,
    by one pass over each of the bundle's stacks of them (one stack at
    U <= 2)."""
    loglik = []
    sets = _sets_of(bundle)
    for stack in bundle._stacks:
        tables = _step_tables(stack, _view_terms(stack, sets))
        loglik += _chain_pass(stack, tables).loglik.tolist()
    return float(sum(loglik))


def log_likelihood_and_gradient(
    bundle: EvidenceBundle,
) -> tuple[float, dict[tuple, float]]:
    """Total log likelihood and its gradient in the bundle's parameters.

    By Fisher's identity the gradient of log L is the posterior
    expectation of the gradient of the log evidence factors; one
    forward-backward pass over each of the bundle's stacks of markers gives
    the posterior of every factor entry.  Gradient keys are ("rho", trace),
    ("eta", trace), ("xi", trace) and ("phi", trace, role).  Per-marker
    overrides are constants: a marker with a marker_rho entry for a trace
    adds nothing to that trace's rho derivative, and one with a marker_xi
    entry nothing to any xi derivative.  Paths of zero probability
    contribute nothing, so at a boundary (a fraction or xi exactly 0) this
    is not the one-sided derivative.  The gradient is meaningful only
    where log L is finite.  It is the one-bundle call of
    :func:`batch_log_likelihood_and_gradient`.
    """
    return batch_log_likelihood_and_gradient((bundle,))[0]


def batch_log_likelihood_and_gradient(
    bundles,
) -> list[tuple[float, dict[tuple, float]]]:
    """:func:`log_likelihood_and_gradient` of each of ``bundles``: one
    evidence and hypothesis at several parameter sets, bundles derived from
    one by :meth:`EvidenceBundle.with_parameters`.

    The bundles' parameters become one set of arrays per distinct pair of
    per-marker overrides (see _ParameterSets), and each set of arrays is
    evaluated by one batched pass over each stack of markers (see
    _batch_passes).  Each set's arithmetic is that of a pass over it
    alone, so every value and gradient is bit-identical to a call with its
    bundle alone, whatever the other bundles.
    """
    bundles = tuple(bundles)
    if not bundles:
        return []
    first = bundles[0]
    if any(b._stacks is not first._stacks for b in bundles):
        raise ValueError(
            "batched bundles must share one evidence bundle's structure: "
            "derive them with with_parameters"
        )
    groups = []  # (overrides, indices of the bundles that have them)
    for i, b in enumerate(bundles):
        over = (b.parameters.marker_rho, b.parameters.marker_xi)
        for shared, members in groups:
            if shared == over:
                members.append(i)
                break
        else:
            groups.append((over, [i]))
    out = [None] * len(bundles)
    for _, members in groups:
        sets = _ParameterSets.of(first, [bundles[i].parameters for i in members])
        loglik, grad = _batch_passes(first, sets)
        keys = _gradient_keys(sets.trace_ids, sets.roles)
        for i, value, row in zip(members, loglik, grad.tolist()):
            out[i] = (value, dict(zip(keys, row)))
    return out


def _batch_passes(bundle, sets) -> tuple[list[float], np.ndarray]:
    """log L and its gradient at each of the parameter sets ``sets`` of
    the bundle's traces (see _ParameterSets): a list of K values and a
    (K, keys) array, its columns in _gradient_keys order.  The sets are not
    checked (see _ParameterSets.refused).

    One pass over each stack of markers serves several sets: the stack's
    markers repeated once per set, as many sets as keep a block of the
    pass within _BLOCK_EDGES edge values, and at least one (see
    _sets_per_pass).  Each set's arithmetic is that of a pass over it
    alone.
    """
    n_sets = len(sets.rho)
    bounds = [0, *itertools.accumulate(3 + len(roles) for roles in sets.roles)]
    columns = list(zip(bounds[:-1], bounds[1:]))  # each trace's columns
    grad = np.zeros((n_sets, bounds[-1]))
    loglik = [[] for _ in range(n_sets)]
    for stack in bundle._stacks:
        per_call = _sets_per_pass(stack)
        for lo in range(0, n_sets, per_call):
            part = sets if per_call >= n_sets else sets.take(slice(lo, lo + per_call))
            n_part = len(part.rho)
            terms = _view_terms(stack, part, sides=True)
            result = _chain_pass(
                _repeated(stack, n_part), _step_tables(stack, terms), posteriors=True
            )
            for own, values in zip(
                loglik[lo:], result.loglik.reshape(n_part, -1).tolist()
            ):
                own += values
            _add_gradient(stack, part, terms, result.pair, grad[lo:lo + n_part], columns)
    return [float(sum(values)) for values in loglik], grad


def _sets_per_pass(stack):
    """How many parameter sets one pass over a stack runs side by side: as
    many as keep a block of its forward recursion, one set's block (see
    _forward) times the sets, within _BLOCK_EDGES edge values, and at
    least one.  So a pass over several sets holds arrays no larger than a
    pass over one set may: at U <= 2 a whole stack's steps make one
    block of a few thousand edge values, while at U >= 3 a block of one
    set mostly fills the budget and sets pass one at a time."""
    per_step = len(stack.plans) * len(stack.joint.edges.src)
    steps = min(stack.transition.shape[1], max(1, _BLOCK_EDGES // per_step))
    return max(1, _BLOCK_EDGES // (steps * per_step))


def _add_gradient(stack, sets, terms, pair, grad, columns):
    """Add d log L over a stack's markers to ``grad``, one row per parameter
    set of ``sets`` (whose doses are ``terms``) and one column per
    gradient key (see
    _gradient_keys; ``columns`` holds each trace's first column and
    the next trace's), from the pair posteriors of every step of each set
    in turn (zero on markers of no finite likelihood).

    Every factor entry reads its posterior weight from its cell, in one
    np.take, and adds it to its dose point, in one np.bincount; the
    derivatives are one call of each gamma kernel's _grad per stack (see
    _dose_point_weights), and d log L / d B one np.bincount through every
    dose point's two cells, for all traces and sets.  The sums for each
    trace's rho, eta and xi run over its own points, in the order of a
    pass over it alone, and the phi derivatives are products with the
    counts, one per trace and set (see _view_terms).
    """
    layout = stack.layout
    n_sets = len(grad)
    rho, eta, xi, rho_free, xi_free = _point_values(stack, sets)
    g, g_eta = _dose_point_weights(stack, terms, pair, rho * terms.doses, eta)
    by_dose = np.empty((3,) + g.shape)
    np.multiply(g * terms.doses, rho_free, out=by_dose[0])
    by_dose[1] = g_eta
    g = g * rho  # d log L / d dose
    np.multiply(g * (terms.ends[:, 1] - terms.ends[:, 0]), xi_free, out=by_dose[2])
    # each trace's sums run over its observed points and then its distinct
    # dropout doses, in the order of a pass over it alone; sums of products
    # by numpy's own loop: a BLAS dot may start threads
    n_traces = len(layout.column)
    for j, column in enumerate(layout.column):
        (o0, o1), (d0, d1) = (layout.points[i:i + 2] for i in (j, n_traces + j))
        own = np.concatenate((by_dose[:, :, o0:o1], by_dose[:, :, d0:d1]), axis=2)
        first = columns[column][0]
        grad[:, first:first + 3] += own.sum(axis=2).T
    # d log L / d B through each point's two cells; each trace's zero
    # cell's sum is dropped
    width = terms.base[0, 0].size + 1
    size = n_traces * width
    n_points = g.shape[1]
    both = np.empty((n_sets, 2 * n_points))  # (1 - xi) g, then xi g
    np.subtract(1.0, xi, out=both[:, :n_points])
    both[:, :n_points] *= g
    np.multiply(xi, g, out=both[:, n_points:])
    g_base = np.bincount(
        _set_offsets(layout.gather.ravel(), n_sets, size), both.ravel(), n_sets * size,
    ).reshape(n_sets, n_traces, width)[:, :, :-1].reshape(terms.base.shape)
    by_position, by_draw = g_base.sum(axis=3), g_base.sum(axis=2)
    for j, column in enumerate(layout.column):
        first, end = columns[column]
        phi = slice(first + 3, end)  # the trace's knowns, then its unknowns
        for row, position, draw in zip(grad, by_position[:, j], by_draw[:, j]):
            row[phi] += np.concatenate((
                (stack.known_counts @ position)[layout.known_contributes[j]],
                (draw @ stack.joint.combo_counts)[layout.unknown_contributes[j]],
            ))


def _dose_point_weights(stack, terms, pair, shapes, eta):
    """d log L / d shape and d log L / d eta at every dose point of a
    stack's layout, (K, points) each, at the points' gamma ``shapes`` and
    scales ``eta``: a point's posterior weight, the sum of its entries'
    pair posteriors, times the gamma kernels' derivatives at the point,
    and 0 where the weight is not positive.  The log CDF's derivatives
    run through the dose map of ``terms`` (see _dose_map), at the points
    and the sides that _view_terms evaluated, and are taken back to every
    dropout point."""
    layout, dose_map = stack.layout, terms.dose_map
    n_sets, n_points = terms.doses.shape
    n = layout.n_observed
    d_shape, d_eta = (np.concatenate((pdf, cdf[:, dose_map.spread]), axis=1) for pdf, cdf in zip(
        gamma_log_pdf_grad(layout.peak_heights, shapes[:, :n], _columns(eta, slice(0, n))),
        gamma_log_cdf_grad(dose_map.cut, shapes[:, dose_map.canon],
                           _columns(eta, dose_map.canon), terms.log_cdf[0], terms.log_cdf[1:]),
    ))
    w = np.take(pair.reshape(n_sets, -1), layout.cell, axis=1)
    w = np.bincount(
        _set_offsets(layout.point, n_sets, n_points), w.ravel(), n_sets * n_points
    ).reshape(n_sets, n_points)
    live = w > 0.0
    with np.errstate(invalid="ignore"):
        return np.where(live, w * d_shape, 0.0), np.where(live, w * d_eta, 0.0)


def _every_marker(bundle):
    """Each of the bundle's stacks, with the indices of all its markers
    (see _passes)."""
    return [(stack, range(len(stack.plans))) for stack in bundle._stacks]


def _passes(chosen, sets, posteriors, assignments=None):
    """One pass over each stack of ``chosen``, pairs (stack, the indices
    of the markers asked about), at the one parameter set of ``sets``
    (see _ParameterSets), and for each marker asked about in turn:
    its plan, its rows of the step tables, its log L and (if
    ``posteriors``) its rows of the pair posteriors.

    Presence assignments, with one marker asked about, mask its rows of
    the step tables.  Raises InfeasibleConditioningError for the first
    marker asked about of no finite likelihood; the other markers of its
    stack may have none.
    """
    for stack, markers in chosen:
        tables = _step_tables(stack, _view_terms(stack, sets))
        if assignments:
            (i,) = markers
            tables[_marker_rows(stack, i)] += _presence_masks(
                stack.plans[i], assignments
            )
        result = _chain_pass(stack, tables, posteriors=posteriors)
        for i in markers:
            plan, loglik = stack.plans[i], float(result.loglik[i])
            if not np.isfinite(loglik):
                where = ""
                if assignments:
                    where = f" under conditioning {dict(assignments)!r}"
                raise InfeasibleConditioningError(
                    f"zero probability on marker {plan.marker!r}{where}"
                )
            rows = _marker_rows(stack, i)
            yield plan, tables[rows], loglik, result.pair[rows] if posteriors else None


def _marker_rows(stack, i):
    """The rows of a stack's step tables that hold its i-th marker's steps."""
    n_steps = stack.transition.shape[1]
    return slice(i * n_steps + stack.first[i], (i + 1) * n_steps)


def _summary(plan, loglik, pair, top_genotypes=()):
    """A marker's posterior from the pair posteriors of its steps."""
    # posterior of each step's draw: its pair posterior summed by draw
    joint, n_steps = plan.joint, len(pair)
    index = (np.arange(n_steps)[:, None] * joint.n_combos + joint.pair_draw).ravel()
    post = np.bincount(index, pair.ravel(), n_steps * joint.n_combos)
    post = post.reshape(n_steps, joint.n_combos)
    counts = [
        (post @ (joint.combo_counts[:, i, None] == np.arange(3))).tolist()
        for i in range(joint.n_unknown)
    ]
    known_any = plan.known_counts.sum(axis=0)
    presence, marginals = {}, {role: {} for role in plan.unknown_ids}
    for t in np.argsort(plan.order):  # ladder order
        lab = plan.internal_labels[t]
        if not plan.silent[t]:
            presence[lab] = (
                1.0 if known_any[t] > 0 else float(min(1.0, max(0.0, 1.0 - post[t, 0])))
            )
        for role, count in zip(plan.unknown_ids, counts):
            marginals[role][lab] = tuple(count[t])
    return MarkerChainPosterior(
        marker=plan.marker,
        log_likelihood=loglik,
        presence=presence,
        count_marginals=marginals,
        top_genotypes=top_genotypes,
    )


def _chain_posterior(bundle, marker, assignments=None, k=0):
    if not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    stack, i = _stack_of(bundle, marker)
    ((plan, tables, loglik, pair),) = _passes(
        [(stack, [i])], _sets_of(bundle), True, assignments
    )
    top = _kbest_paths(plan, tables, loglik, k) if k else ()
    return _summary(plan, loglik, pair, top)


def presence_posteriors(bundle: EvidenceBundle, marker: str) -> Mapping[str, float]:
    """P(Y_a = 1 | z) per visible allele: at least one contributor carries a.

    For an observed peak, P(stutter | z) = 1 - P(Y_a = 1 | z); for an
    unobserved allele, P(dropout | z) = P(Y_a = 1 | z).
    """
    return _chain_posterior(bundle, marker).presence


def conditioned_presence(
    bundle: EvidenceBundle, marker: str, assignments: Mapping[str, object]
) -> MarkerChainPosterior:
    """Posterior and likelihood conditioned on stated presence/absence values.

    assignments maps allele label to 'present'/'absent' (or a boolean, 0
    or 1); any other value raises ValueError.  Conditioning with zero
    posterior mass raises :class:`InfeasibleConditioningError`.
    """
    return _chain_posterior(bundle, marker, assignments=assignments)


def marker_posterior(
    bundle: EvidenceBundle, marker: str, k: int = 0,
    assignments: Mapping[str, object] | None = None,
) -> MarkerChainPosterior:
    """Full chain posterior for one marker, optionally with a list of its
    k best genotype combinations (k a non-negative integer)."""
    return _chain_posterior(bundle, marker, assignments=assignments, k=k)


def bundle_posteriors(bundle: EvidenceBundle) -> dict[str, MarkerChainPosterior]:
    """:func:`marker_posterior` of every covered marker, in table order, by
    one forward-backward pass over each of the bundle's stacks of markers.

    A marker of zero likelihood raises
    :class:`InfeasibleConditioningError`.
    """
    return {
        plan.marker: _summary(plan, loglik, pair)
        for plan, _, loglik, pair in _passes(
            _every_marker(bundle), _sets_of(bundle), True
        )
    }


def _top_genotypes(chosen, sets, k):
    """The k best genotype combinations of each marker asked about (see
    _passes): a value pass over each stack for the markers' log L, then
    one max-product sweep and one bounded beam per marker (see
    _kbest_paths)."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    return {
        plan.marker: _kbest_paths(plan, tables, loglik, k)
        for plan, tables, loglik, _ in _passes(chosen, sets, False)
    }


def top_k_marker_genotypes(bundle: EvidenceBundle, marker: str, k: int):
    """The k most probable unknown genotype combinations for one marker.

    Exact, computed by a beam over the chain's steps that keeps every
    prefix whose max-product bound reaches the k-th best; probabilities
    are normalized by the marker likelihood.  Asking for more combinations
    than exist returns every combination with positive posterior
    probability (impossible ones are omitted).  Combinations of equal
    probability come in the order of their genotypes, compared role by
    role as pairs of ladder indices, also where k cuts between them: the
    list for k is the start of the list for any larger k.
    """
    stack, i = _stack_of(bundle, marker)
    return _top_genotypes([(stack, [i])], _sets_of(bundle), k)[marker]


def bundle_top_genotypes(bundle: EvidenceBundle, k: int) -> dict[str, tuple]:
    """:func:`top_k_marker_genotypes` of every covered marker, in table
    order, with one likelihood pass over each of the bundle's stacks of
    markers.

    A marker of zero likelihood raises
    :class:`InfeasibleConditioningError`.
    """
    return _top_genotypes(_every_marker(bundle), _sets_of(bundle), k)


def _kbest_paths(plan, tables, loglik, k):
    """The k most probable combinations of one marker's unknown genotypes,
    with probabilities normalized by its likelihood exp(loglik).

    A combination is a path through the chain, valued by the sum, in step
    order, of its steps' exact log edge values (scaled weights that
    underflow would drop edges).  A sweep from the last step back gives
    best[t][s], the best value of the steps from t on out of state s, by
    max-product.  A beam then goes forward from state 0: it extends every
    prefix it keeps along its state's out-edges, bounds each extension by
    its value plus best[t + 1] at its target, and keeps those whose bound
    is within a rounding slack of the k-th largest, the M most probable
    configurations from max-propagation bounds (Nilsson 1998, Statistics
    and Computing 8).  A prefix's bound is the value of its best
    completion, so k prefixes bounded above v_k, the k-th best path value,
    would give k distinct paths above it: every prefix of a path valued at
    least v_k is kept, and the paths kept at the last step hold the k best
    and every path tied with the k-th.

    Each value and bound is a sum of the same terms, a transition and a
    table entry per step, in some order (a maximum of such sums where a
    bound reads best), so with u = 2^-53 it is within eps = 2 n u S (1 +
    O(n u)) of the exact sum, n the number of steps and S the sum of the
    steps' largest finite terms in magnitude.  A bound b among the k
    largest then has a completion valued at least b - 2 eps, so v_k is at
    least the k-th largest bound less 2 eps, and a prefix of a path valued
    at least v_k has a bound of at least v_k - 2 eps: the slack 4 eps
    suffices, and 8 n eps_machine S, twice that, also covers the rounding
    of the slack and of the cut.  Paths of zero probability are left out.
    Ties in probability are ordered by the genotypes, role by role, as
    pairs of ladder indices.
    """
    joint = plan.joint
    if joint.n_unknown == 0:
        return (({}, 1.0),)
    n_pos, edges = len(plan.order), joint.edges
    runs = _stacked_csr(joint.n_unknown, 1)[0]  # state s's out-edges: runs[s]:runs[s+1]
    # the sweep: best[t] from t = n - 1 down to 1 (best[n] = 0; best[0] is
    # not needed), every step in one pair of buffers
    best = [None] * n_pos + [np.zeros(joint.n_states)]
    out = np.empty((2, len(edges.src)))
    for t in range(n_pos - 1, 0, -1):
        through = _step_values(plan, t, tables[t], best[t + 1], out)
        best[t] = np.maximum.reduceat(through, runs[:-1])
    scale = sum(
        np.maximum.reduce(np.abs(terms), axis=1, where=np.isfinite(terms), initial=0.0).sum()
        for terms in (plan.state_lp, tables)
    )
    slack = 8 * n_pos * np.finfo(float).eps * scale

    # the first step's prefixes are its edges out of state 0; each kept
    # prefix holds its value, its state, and per step its parent and draw
    value, state, key = _step_values(plan, 0, tables[0]), joint.edges0.dst, joint.edges0.key
    parent = np.zeros(len(state), dtype=np.int64)
    degree = np.diff(runs)
    lowest = -np.finfo(float).max  # a bound of -inf: no path of positive probability
    trail = []
    for t in range(n_pos):
        if t:
            n_out = degree[state]
            parent = np.arange(len(state)).repeat(n_out)
            e = np.arange(len(parent))
            e += (runs[state] - n_out.cumsum() + n_out).repeat(n_out)
            state, key = edges.dst[e], edges.key[e]
            del e
            # the step's value, then the prefix's added to it (in either
            # order, the sum a path's value makes in step order)
            step = plan.state_lp[t][state]
            step += tables[t][key]
            step += value[parent]
            value = step
        bound = best[t + 1][state]
        bound += value
        cut = len(bound) - k
        kth = np.partition(bound, cut)[cut] if cut > 0 else -np.inf
        keep = (bound >= max(kth - slack, lowest)).nonzero()[0]
        del bound
        value, state = value[keep], state[keep]
        trail.append((parent[keep], joint.pair_draw[key[keep]]))

    # each path's draws, back through the parents; its genotypes as the
    # lowest and highest ladder index each role drew (two copies apiece)
    paths = np.empty((len(value), n_pos), dtype=np.int64)
    at = np.arange(len(value))
    for t in range(n_pos - 1, -1, -1):
        parent, draw = trail[t]
        paths[:, t] = draw[at]
        at = parent[at]
    drew = joint.combo_counts[paths] > 0  # (paths, steps, roles)
    ladder = plan.order[:, None]
    picks = np.stack([
        np.where(drew, ladder, n_pos).min(axis=1),
        np.where(drew, ladder, -1).max(axis=1),
    ], axis=2).reshape(len(value), -1)  # role by role: (low, high)
    top = np.lexsort((*picks.T[::-1], -value))[:k]
    labels = plan.labels
    return tuple(
        ({role: (labels[lo], labels[hi]) for role, lo, hi in zip(plan.unknown_ids, *pick)}, p)
        for pick, p in zip(
            picks[top].reshape(len(top), -1, 2).transpose(0, 2, 1).tolist(),
            np.exp(value[top] - loglik).tolist(),
        )
    )


class _PeakPosteriors(NamedTuple):
    """Every observed peak of a bundle, marker by marker, then trace by
    trace, then by internal position: its (trace, marker, allele), height
    and gamma scale; per factor entry, its gamma shape, log P(H >= C) if
    its observed status is kept (else None), and the entries' posterior
    given all other evidence (a row of NaN where that has no mass)."""

    names: list
    height: np.ndarray
    eta: np.ndarray
    shapes: np.ndarray  # (peaks, 6^U)
    survival: np.ndarray | None
    weights: np.ndarray


def _observed_peak_posteriors(bundle, truncate) -> _PeakPosteriors:
    """Every observed peak's entries weighted by everything but its height.

    One pass per stack of markers serves all its peaks.  A peak's factor
    enters the chain only at its emit step t, so the forward message into
    t and the backward message out of it do not depend on it.  The pass
    evaluates step t once more per peak it emits, with its table rebuilt
    without the peak's factor (see _tables_without_peaks), plus the
    survival term when ``truncate`` keeps the peak's observed status, and
    normalizes over the step.  The survival terms depend on a peak's
    trace and doses, not its height, so gamma_log_sf runs once per peak
    of the dose map (see _dose_map), one per trace and dose kind across
    the stack's markers where no override applies.
    """
    n_pairs = 6 ** len(bundle.hypothesis.unknown)
    names = []
    columns = [[np.zeros(0)], [np.zeros(0)]] + [
        [np.zeros((0, n_pairs))] for _ in range(3)
    ]
    sets = _sets_of(bundle)
    for stack in bundle._stacks:
        tables, peaks, eta, shapes, dose_map = _peak_terms(stack, sets)
        if not len(peaks.row):
            continue
        layout = stack.layout
        survival = np.zeros(shapes.shape)
        if truncate:
            at = dose_map.peaks
            threshold = layout.threshold[peaks.trace[at]]
            survival = gamma_log_sf(
                threshold[:, None], shapes[at], eta[at, None]
            )[dose_map.peak_spread]
        weights = _chain_pass(
            stack, tables, alt=(peaks.row, peaks.tables + survival)
        ).alt
        marker = peaks.row // stack.transition.shape[1]
        order = np.lexsort((peaks.trace, marker))
        for j in order.tolist():
            plan = stack.plans[marker[j]]
            names.append((layout.trace_ids[peaks.trace[j]], plan.marker,
                          plan.internal_labels[peaks.position[j]]))
        heights = layout.peak_heights[::n_pairs]
        for column, values in zip(columns, (heights, eta, shapes, survival, weights)):
            column.append(values[order])
    height, eta, shapes, survival, weights = (np.concatenate(c) for c in columns)
    return _PeakPosteriors(
        names, height, eta, shapes, survival if truncate else None, weights
    )


def _peak_terms(stack, sets):
    """A stack's step tables at the one parameter set of ``sets``, its
    observed peaks with their tables left out (see _tables_without_peaks),
    each peak's trace's eta and its shapes per (previous draw, draw)
    pair, run by run, and the dose map the pass runs through."""
    terms = _view_terms(stack, sets)
    n, n_pairs = stack.layout.n_observed, stack.joint.n_states
    rho, eta = _point_values(stack, sets)[:2]
    return (
        _step_tables(stack, terms), _tables_without_peaks(stack, terms),
        np.broadcast_to(eta, terms.doses.shape)[0, :n:n_pairs],
        (rho * terms.doses)[0, :n].reshape(-1, n_pairs), terms.dose_map,
    )


def top_k_joint_profiles(marker_lists, k: int):
    """Exact top-k full profiles from per-marker ranked genotype lists.

    marker_lists maps marker -> descending list of (assignment,
    probability).  The probability of a full profile is the product of
    its per-marker posteriors; the top-k of that product distribution is
    found by best-first search over the product lattice.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    markers = list(marker_lists)
    lists = []
    for m in markers:
        entries = list(marker_lists[m])
        if not entries:
            raise ValueError(f"empty ranked list for marker {m!r}")
        probs = [p for _, p in entries]
        if not all(math.isfinite(p) and p >= 0.0 for p in probs):
            raise ValueError(
                f"ranked list for marker {m!r} holds a probability that is not "
                f"finite and nonnegative: {probs}"
            )
        if any(b > a + 1e-12 for a, b in zip(probs, probs[1:])):
            raise ValueError(f"ranked list for marker {m!r} is not sorted descending")
        lists.append(entries)

    def log_prob(ix):
        total = 0.0
        for lst, i in zip(lists, ix):
            p = lst[i][1]
            if p <= 0.0:
                return -np.inf
            total += math.log(p)
        return total

    start = tuple(0 for _ in markers)
    heap = [(-log_prob(start), start)]
    seen = {start}
    out = []
    while heap and len(out) < k:
        neg, ix = heapq.heappop(heap)
        if not np.isfinite(-neg):
            break
        profile = {m: lists[j][ix[j]][0] for j, m in enumerate(markers)}
        out.append((profile, float(math.exp(-neg))))
        for j in range(len(markers)):
            if ix[j] + 1 < len(lists[j]):
                child = ix[:j] + (ix[j] + 1,) + ix[j + 1:]
                if child not in seen:
                    seen.add(child)
                    heapq.heappush(heap, (-log_prob(child), child))
    return out


# ---------------------------------------------------------------------------
# Brute-force oracle


def _unknown_genotype_space(freqs, marker):
    ladder = freqs.ladder(marker)
    n = len(ladder.alleles)
    counts, priors, pairs = [], [], []
    for i in range(n):
        for j in range(i, n):
            vec = [0] * n
            vec[i] += 1
            vec[j] += 1
            counts.append(vec)
            priors.append(genotype_prior(vec, freqs, marker))
            pairs.append((ladder.alleles[i], ladder.alleles[j]))
    return np.array(counts, dtype=np.int64), np.array(priors), pairs


def brute_force_log_likelihood(
    bundle: EvidenceBundle,
    marker: str,
    max_combinations: int = 10**6,
    presence: Mapping[str, object] | None = None,
) -> float:
    """Marker log likelihood by exhaustive enumeration of unknown genotypes.

    Verification oracle for :func:`marker_log_likelihood`: sums the
    per-combination likelihood times the Hardy-Weinberg prior directly,
    without the chain factorization.  ``presence`` optionally restricts
    the sum to combinations consistent with stated presence/absence
    values, mirroring :func:`conditioned_presence`.
    """
    freqs = bundle.frequencies
    ladder = freqs.ladder(marker)
    hypothesis = bundle.hypothesis
    params = bundle.parameters
    n_unknown = len(hypothesis.unknown)
    geno_counts, geno_priors, _ = _unknown_genotype_space(freqs, marker)
    n_geno = len(geno_priors)
    total = n_geno**n_unknown if n_unknown else 1
    if total > max_combinations:
        raise CombinationBudgetError(
            f"{total} combinations exceed the budget of {max_combinations}"
        )

    n_pos = len(ladder.alleles)
    if n_unknown:
        idx = np.array(
            list(itertools.product(range(n_geno), repeat=n_unknown)), dtype=np.int64
        )
    else:
        idx = np.zeros((1, 0), dtype=np.int64)

    known_ids = tuple(hypothesis.known)
    known_counts = np.zeros((len(known_ids), n_pos), dtype=np.int64)
    for kk, kid in enumerate(known_ids):
        known_counts[kk] = hypothesis.known[kid].counts(marker, ladder)

    succ = np.full(n_pos, -1, dtype=np.int64)
    for p, lab in enumerate(ladder.alleles):
        if lab == SILENT_LABEL:
            continue
        s = population.stutter_successor(freqs, marker, lab)
        if s is not None:
            succ[p] = s

    loglik = np.zeros(total)
    for u in range(n_unknown):
        loglik += np.log(geno_priors[idx[:, u]])

    for trace in bundle.traces:
        if marker not in trace.heights:
            continue
        roles = set(hypothesis.roles_for(trace.trace_id))
        rho = params.rho_for(trace.trace_id, marker)
        eta = params.eta_for(trace.trace_id)
        xi = params.xi_for_marker(trace.trace_id, marker)
        phi_map = params.phi[trace.trace_id]
        b = np.zeros((total, n_pos))
        for kk, kid in enumerate(known_ids):
            if kid in roles:
                b += phi_map[kid] * known_counts[kk]
        for u, role in enumerate(hypothesis.unknown):
            if role in roles:
                b += phi_map[role] * geno_counts[idx[:, u]]
        b_succ = np.zeros_like(b)
        has = succ >= 0
        b_succ[:, has] = b[:, succ[has]]
        d = (1.0 - xi) * b + xi * b_succ
        row = trace.heights[marker]
        for p, lab in enumerate(ladder.alleles):
            if lab == SILENT_LABEL:
                continue
            z = row.get(lab, 0.0)
            shapes = rho * d[:, p]
            if z >= trace.threshold:
                loglik += gamma_log_pdf(z, shapes, eta)
            else:
                loglik += gamma_log_cdf(trace.threshold, shapes, eta)

    if presence:
        carried = np.broadcast_to(
            known_counts.sum(axis=0), (total, n_pos)
        ).astype(np.int64).copy()
        for u in range(n_unknown):
            carried += geno_counts[idx[:, u]]
        keep = np.ones(total, dtype=bool)
        for allele, value in presence.items():
            p = ladder.index(allele)
            keep &= (carried[:, p] > 0) == _as_presence(allele, value)
        loglik = loglik[keep]
        if not keep.any() or not np.isfinite(logsumexp(loglik)):
            raise InfeasibleConditioningError(
                f"conditioning {dict(presence)!r} has zero probability on {marker!r}"
            )

    return float(logsumexp(loglik))
