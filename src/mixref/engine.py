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

Each marker's plan lays out every covering trace's factor entries on
the marker once, flattened (_TraceLayout): observed entries first, then
dropout entries.  Its parameter-free gathers give each observed entry,
and each distinct dropout dose, its cell of the pre-stutter dose table
and its stutter donor's (or a trailing zero cell), so a pass builds
every dose of a trace with one gather and calls each gamma kernel, and
its derivative, once per trace.  Dropout entries whose positions share
the known contributors' counts and whose draws match have the same dose
at every parameter value, so the gamma CDF is evaluated once per
distinct dropout dose and spread back.  A stack of several markers
concatenates its plans' layouts, marker by marker within each kind of
entry; a stack of one marker is its plan.

Several traces that share unknown contributors are coupled by multiplying
their per-allele factors inside the same chain pass.  The markers are
independent given the parameters, so one pass runs the chains of many
markers side by side, along a leading marker axis (a stack, _Stack).
The bundle splits its markers into stacks whose step holds at most
_BLOCK_EDGES edge values (up to 163 markers at U = 2, 16 at U = 3, one
at U >= 4), so a likelihood or gradient evaluation, and each query
over the whole bundle, is one pass per stack, one in all at U <= 2; a
query about one marker is one pass over its plan.  A stack front-pads
each marker to its longest with exact identity steps: state 0 to state
0, weight 1, log 0.  The step tables of all markers, per (previous
draw, draw) pair, are one np.bincount per trace over a plan-time index
(entry -> step row * 6^U + pair), and the gradient is one scatter per
trace.  Every query reads the same pass: the gradient, presence
posteriors and per-contributor count marginals read the posterior of
each step's (previous draw, draw) pair; exact k-best genotype
combinations come from best-first search over the sidetracks of the
steps' exact log edge values, after a pass for the marker likelihoods
alone; and the conditional CDF of each observed peak from re-evaluating
its emit step alone, with the peak's factor left out of an exact sum,
for every peak of a stack at once.  A brute-force enumerator serves as
the independent verification oracle.

The pass runs in scaled linear space (Rabiner 1989, Proc. IEEE 77).  A
step's edge weights are exp(value - the step's largest value), so every
weight is at most 1; forward messages are normalized by their sum and
backward messages by their maximum, and log L is the sum of the shifts
and the logs of the forward normalizers.  Steps are batched in blocks of
at most _BLOCK_EDGES edge values, counted over the stack's markers and
steps (one step of one marker at U >= 4), so a pass builds no array of
every step's edges at large U.

Each edge's product loses at most _TINY to underflow, so a step loses at
most E * _TINY against the mass it keeps, its normalizer; mass lost at
one step can grow at most 3^U-fold at each later one.  The pass carries
that bound through the forward and the backward recursion and into each
posterior, and where it exceeds _LOSS of the kept mass (for one step, a
normalizer below about 1e-200), or a step's largest value is NaN or
+inf, that marker alone is redone by the log-space recursion; the rest
of the stack keeps its scaled result.  A step whose largest value is
-inf has no path through it: the marker's log L is -inf, with no redo.
Factors as small as e^-700 apiece therefore do not underflow the result.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np
from scipy.special import logsumexp

from . import population
from .peakmodel import (
    ModelParameters,
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

# A pass batches whole steps into blocks of at most this many edge values:
# at small U one block shares each numpy call among all of a marker's
# steps, and at large U (one step per block) temporaries stay one step wide.
_BLOCK_EDGES = 2**14
# The most one edge's product can lose to underflow (four roundings of
# 2^-1074 each), and the largest bound on a scaled pass's loss, relative
# to the mass it keeps, that the pass accepts.  A single step then needs a
# normalizer of at least E * _TINY / _LOSS, about 1e-200.
_TINY = 2.0**-1072
_LOSS = 1e-120


# A one-marker stack's first real step: it has no padding.
_NO_PADDING = np.zeros(1, dtype=np.int64)
_NO_PADDING.setflags(write=False)


def _state_log_pmf(rate: float) -> np.ndarray:
    """log Bin(n; 2 - (S - n), rate) for each state (S, n) in _STATES.

    A step into (S, n) drew n copies from the 2 - (S - n) left before it,
    so its transition log-probability depends on the target state alone.
    """
    out = np.empty(len(_STATES))
    lr = math.log(rate) if rate > 0 else -math.inf
    lq = math.log1p(-rate) if rate < 1 else -math.inf
    for i, (s, m) in enumerate(_STATES):
        n = 2 - (s - m)
        val = math.log(math.comb(n, m))
        if m:
            val += m * lr
        if n - m:
            val += (n - m) * lq
        out[i] = val
    return out


def _fold(column: np.ndarray, n_unknown: int, base: int) -> np.ndarray:
    """sum_i column[r_i] * base^(U-1-i) over every U-tuple (r_1 .. r_U) of rows.

    Tuples come in lexicographic order, the first contributor most
    significant.  Base 6 or 3 packs per-contributor states, pairs or draws
    into joint indices; base 1 sums per-contributor log-probabilities.
    """
    out = np.zeros(1, dtype=column.dtype)
    for _ in range(n_unknown):
        out = np.add.outer(out * base, column).ravel()
    return out


def _logsumexp_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """log sum exp(values) over each group of ``index``, groups 0 .. size-1;
    the log-space pass's reduction.

    Each group is shifted by its own maximum; a group whose maximum is not
    finite (empty, all -inf, or holding NaN or +inf) gives -inf.
    """
    shift = np.full(size, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.maximum.at(shift, index, values)
        sums = np.bincount(index, np.exp(values - shift[index]), size)
        return np.where(np.isfinite(shift), shift + np.log(sums), -np.inf)


@dataclass(frozen=True)
class _EdgeSet:
    """Transitions of one chain step: source state and target state.

    key is the edge's joint (previous draw, draw) pair, the base-6 fold of
    its contributors' _PAIRS indices, which indexes the step's factors.
    """

    src: np.ndarray
    dst: np.ndarray
    key: np.ndarray


@functools.lru_cache(maxsize=None)
def _build_edges(n_unknown: int) -> tuple[_EdgeSet, _EdgeSet]:
    """The first step's and every later step's edges for U unknowns.

    The joint edges are the U-fold product of _STEPS in ``src``-major
    order, so each state's out-edges are one run; the first step leaves
    state 0, whose out-edges come first.
    They depend on U alone, so every marker plan shares one cached pair
    (one entry per U); the arrays are read-only.
    """
    src, dst, key = (_fold(column, n_unknown, 6) for column in _STEPS.T)
    order = np.argsort(src, kind="stable")
    src, dst, key = src[order], dst[order], key[order]
    for column in (src, dst, key):
        column.setflags(write=False)
    first = 3**n_unknown
    return _EdgeSet(src[:first], dst[:first], key[:first]), _EdgeSet(src, dst, key)


@dataclass(frozen=True)
class _TraceLayout:
    """One trace's factor entries over the markers of a plan or a stack,
    flattened.

    Observed entries come first, marker by marker, then dropout entries,
    marker by marker, so each gamma kernel is one call per trace.  A dose
    point is an observed entry or a distinct dropout dose (see
    _dose_gathers).  gather holds each point's two cells of the trace's
    pre-stutter doses B over the positions of the plan or stack, flattened
    with one trailing zero cell: dose = (1 - xi) B.flat[gather[0]] +
    xi B.flat[gather[1]].  spread maps each dropout entry to its distinct
    dose, and cell is each entry's cell in the step tables.  counts holds,
    per marker, its observed entries, distinct dropout doses and dropout
    entries.  position holds each emitted peak's internal position on its
    marker, in the order of the peaks' runs of entries (see
    _factor_blocks).
    """

    trace_id: str
    threshold: float
    known_contributes: np.ndarray  # bool per known role
    unknown_contributes: np.ndarray  # bool per unknown role
    markers: tuple[str, ...]
    counts: np.ndarray  # (3, markers)
    n_observed: int
    peak_heights: np.ndarray  # height of each observed entry
    gather: np.ndarray  # (2, points)
    cell: np.ndarray
    spread: np.ndarray
    position: np.ndarray


def _factor_blocks(observed, silent, coupled, n_pairs):
    """Layout of one trace's factor entries on a marker, flattened.

    A peak's factor is one run of n_pairs entries, one per (previous draw,
    draw) pair of its emit step: step p+1 for a stutter-coupled position
    p, step p for an uncoupled one.  Observed peaks come first, so each
    kind of factor is one contiguous run.  Maps each emitted position p to
    (its emit step, the slice of its entries); returns it with the number
    of observed entries.
    """
    emitted = sorted(
        (p for p in range(len(silent)) if not silent[p]), key=lambda p: not observed[p]
    )
    blocks = {
        p: (p + int(coupled[p]), slice(i * n_pairs, (i + 1) * n_pairs))
        for i, p in enumerate(emitted)
    }
    return blocks, n_pairs * int(observed[emitted].sum())


class _DoseCells(NamedTuple):
    """Per position of a marker, the cells of the flattened pre-stutter
    doses B (with one trailing zero cell) that its factor entries read.

    The entry of pair j at a stutter-coupled position p reads B[p, draw at
    t-1] (ends[0]) and its donor's B[p+1, draw at t] (ends[1]); at an
    uncoupled one B[p, draw at t] and the zero cell.  kind[p] is the
    known-count column of p, and of its donor if coupled: rows of B with equal columns
    are equal at every parameter value, so two dropout peaks of one kind
    have the same doses.  A kind has one distinct dose per pair if
    coupled, per draw if not (``distinct``, a pair of each); ``local``
    is each entry's dose among them.
    """

    ends: np.ndarray      # (2, P, 6^U)
    local: np.ndarray     # (P, 6^U)
    kind: list
    distinct: list


def _dose_cells(coupled, known_counts, pair_prev, pair_draw) -> _DoseCells:
    # the pairs in which no contributor drew at t-1: one per draw, in order
    first_of_draw = np.flatnonzero(pair_prev == 0)
    n_pos, n_combos = len(coupled), len(first_of_draw)
    pos = np.arange(n_pos)[:, None]
    linked = coupled[:, None]
    every_pair = np.arange(len(pair_prev))
    columns = {}  # known-count column -> its id
    column = [
        columns.setdefault(tuple(c), len(columns)) for c in known_counts.T.tolist()
    ]
    ends = np.empty((2, n_pos, len(pair_prev)), dtype=np.int64)
    ends[0] = pos * n_combos + np.where(linked, pair_prev, pair_draw)
    ends[1] = np.where(linked, (pos + 1) * n_combos + pair_draw, n_pos * n_combos)
    return _DoseCells(
        ends=ends,
        local=np.where(linked, every_pair, pair_draw),
        kind=[
            (column[p], column[p + 1]) if coupled[p] else (column[p],)
            for p in range(n_pos)
        ],
        distinct=[every_pair if c else first_of_draw for c in coupled],
    )


def _dose_gathers(cells, blocks, n_observed, n_pairs):
    """Parameter-free gathers of one trace's doses on a marker.

    The dose points are the observed entries, in layout order, then one
    entry per distinct dropout dose.  Returns each point's two cells (see
    _DoseCells) as rows of a (2, points) array, and spread, each dropout
    entry's index among the distinct doses.
    """
    pos = list(blocks)
    first = n_observed // n_pairs  # the first dropout peak's block
    points = [cells.ends[:, pos[:first]].reshape(2, -1)]
    slot, offsets, n_distinct = {}, [], 0
    for p in pos[first:]:
        kind = cells.kind[p]
        if kind not in slot:
            slot[kind] = n_distinct
            points.append(cells.ends[:, p, cells.distinct[p]])
            n_distinct += points[-1].shape[1]
        offsets.append(slot[kind])
    spread = np.array(offsets, dtype=np.int64)[:, None] + cells.local[pos[first:]]
    return np.concatenate(points, axis=1), spread.ravel()


@dataclass(frozen=True)
class _MarkerPlan:
    """Parameter-independent structure for one marker's chain.

    A plan is also the one-marker stack of its marker (see _Stack).
    """

    marker: str
    labels: tuple[str, ...]          # ladder order
    order: np.ndarray                # internal position -> ladder index
    internal_labels: tuple[str, ...]
    silent: np.ndarray               # bool per internal position
    coupled: np.ndarray              # stutter donor sits at internal position p+1
    state_lp: np.ndarray             # (P, 6^U): per step, joint transition per target
    known_ids: tuple[str, ...]
    unknown_ids: tuple[str, ...]
    known_counts: np.ndarray         # (K, P) in internal order
    n_unknown: int
    n_states: int
    n_combos: int
    n_pairs: int
    combo_counts: np.ndarray         # (C, U)
    pair_prev: np.ndarray            # joint pair -> joint draw at t-1
    pair_draw: np.ndarray            # joint pair -> joint draw at t
    edges0: _EdgeSet
    edges: _EdgeSet
    traces: tuple[_TraceLayout, ...]  # each covering trace's, in the marker's frame

    def edges_at(self, t: int) -> _EdgeSet:
        return self.edges0 if t == 0 else self.edges

    @property
    def plans(self):
        return (self,)

    @property
    def first(self):
        return _NO_PADDING

    @property
    def lp(self):
        return self.state_lp[None]


def _build_marker_plan(marker, freqs, hypothesis, traces):
    """One marker's plan, with the layout of every trace that covers it in
    the marker's own frame: its cells of B and of the step tables start at
    0, and its zero cell follows its P * 3^U cells of B."""
    ladder = freqs.ladder(marker)
    order, coupled = ladder.order, ladder.coupled
    n_pos = len(order)
    internal_labels = tuple(ladder.alleles[i] for i in order)
    silent = np.array([lab == SILENT_LABEL for lab in internal_labels])

    q = np.array([ladder.frequencies[i] for i in order], dtype=float)
    tails = np.cumsum(q[::-1])[::-1]
    n_unknown = len(hypothesis.unknown)
    state_lp = np.array([
        _fold(_state_log_pmf(min(q[p] / tails[p], 1.0)), n_unknown, 1)
        for p in range(n_pos)
    ])

    known_ids = tuple(hypothesis.known)
    known_counts = np.zeros((len(known_ids), n_pos), dtype=np.int64)
    for k, kid in enumerate(known_ids):
        counts = hypothesis.known[kid].counts(marker, ladder)
        known_counts[k] = [counts[i] for i in order]

    n_states = 6**n_unknown
    n_combos = 3**n_unknown
    n_pairs = 6**n_unknown
    # joint draw c -> each unknown's count: the base-3 digits of c
    combo_counts = np.arange(n_combos)[:, None] // 3 ** np.arange(n_unknown)[::-1] % 3
    pair_prev, pair_draw = (
        _fold(np.array(column), n_unknown, 3) for column in zip(*_PAIRS)
    )

    edges0, edges = _build_edges(n_unknown)
    # the first step leaves state 0 only: its transition row rules out
    # every state that no edge out of state 0 reaches
    unreached = np.ones(n_states, dtype=bool)
    unreached[edges0.dst] = False
    state_lp[0, unreached] = -np.inf
    layouts = []
    for trace in traces:
        if marker not in trace.heights:
            continue
        if not layouts:
            cells = _dose_cells(coupled, known_counts, pair_prev, pair_draw)
        row = trace.heights[marker]
        off_ladder = set(row) - set(ladder.alleles)
        if off_ladder:
            raise ValueError(
                f"trace {trace.trace_id!r} lists alleles {sorted(off_ladder)} "
                f"not on the {marker!r} ladder"
            )
        heights = np.array([row.get(lab, 0.0) for lab in internal_labels])
        roles = set(hypothesis.roles_for(trace.trace_id))
        observed = heights >= trace.threshold
        blocks, n_observed = _factor_blocks(observed, silent, coupled, n_pairs)
        gather, spread = _dose_gathers(cells, blocks, n_observed, n_pairs)
        peaks = [p for p in blocks if observed[p]]
        emit = np.array([t for t, _ in blocks.values()], dtype=np.int64)
        cell = (emit[:, None] * n_pairs + np.arange(n_pairs)).ravel()
        layouts.append(_TraceLayout(
            trace_id=trace.trace_id,
            threshold=trace.threshold,
            known_contributes=np.array([r in roles for r in known_ids]),
            unknown_contributes=np.array([r in roles for r in hypothesis.unknown]),
            markers=(marker,),
            counts=np.array(
                [[n_observed], [gather.shape[1] - n_observed], [len(cell) - n_observed]]
            ),
            n_observed=n_observed,
            peak_heights=np.repeat(heights[peaks], n_pairs),
            gather=gather,
            cell=cell,
            spread=spread,
            position=np.array(list(blocks), dtype=np.int64),
        ))

    return _MarkerPlan(
        marker=marker,
        labels=ladder.alleles,
        order=order,
        internal_labels=internal_labels,
        silent=silent,
        coupled=coupled,
        state_lp=state_lp,
        known_ids=known_ids,
        unknown_ids=tuple(hypothesis.unknown),
        known_counts=known_counts,
        n_unknown=n_unknown,
        n_states=n_states,
        n_combos=n_combos,
        n_pairs=n_pairs,
        combo_counts=combo_counts,
        pair_prev=pair_prev,
        pair_draw=pair_draw,
        edges0=edges0,
        edges=edges,
        traces=tuple(layouts),
    )


@dataclass(frozen=True)
class _Stack:
    """Markers whose chains one pass runs side by side.

    Each marker is front-padded to the longest: the steps before first[i]
    are exact identity steps (state 0 to state 0, weight 1, log 0), given
    by the transition row (0, -inf, ...) and a zero table.  lp is every
    marker's transition log-probability per step and target state,
    (G, T, 6^U), the step tables are (G * T, 6^U), marker by marker, and
    known_counts spans the markers' positions in turn.  traces holds each
    trace's layout over the markers it covers (see _TraceLayout).  A
    marker plan is the one-marker stack of its marker, with the same
    attributes.
    """

    plans: tuple[_MarkerPlan, ...]
    first: np.ndarray
    lp: np.ndarray
    traces: tuple[_TraceLayout, ...]
    known_ids: tuple[str, ...]
    unknown_ids: tuple[str, ...]
    known_counts: np.ndarray
    combo_counts: np.ndarray
    n_unknown: int
    n_states: int
    n_pairs: int
    edges0: _EdgeSet
    edges: _EdgeSet


def _build_stacks(freqs, hypothesis, traces):
    """Every marker's plan, and the covered markers (those whose plan holds
    a layout), in order, in stacks of at most _BLOCK_EDGES // 10^U (at
    least one), so that a stack's step holds at most _BLOCK_EDGES edge
    values.

    Each plan keeps its own layouts; a stack of several markers holds their
    concatenation, and a stack of one marker is its plan.
    """
    plans = {
        marker: _build_marker_plan(marker, freqs, hypothesis, traces)
        for marker in freqs.marker_names()
    }
    covered = [plan for plan in plans.values() if plan.traces]
    per_stack = max(1, _BLOCK_EDGES // 10 ** len(hypothesis.unknown))
    trace_ids = [trace.trace_id for trace in traces]
    stacks = tuple(
        _build_stack(covered[i:i + per_stack], trace_ids)
        for i in range(0, len(covered), per_stack)
    )
    return plans, stacks


def _build_stack(group, trace_ids):
    """The stack of ``group``'s plans: the plan itself if there is one, else
    each trace's layout the concatenation of the plans' layouts, in the
    order of ``trace_ids``.  Each marker's cells are offset to its place in
    the stack, and its zero cell becomes the stack's."""
    if len(group) == 1:
        return group[0]
    template = group[0]
    n_combos, n_pairs = template.n_combos, template.n_pairs
    length = np.array([len(plan.order) for plan in group])
    n_steps = int(length.max())
    first = n_steps - length
    zero = int(length.sum()) * n_combos
    dose_offset = (np.cumsum(length) - length) * n_combos
    cell_offset = (np.arange(len(group)) * n_steps + first) * n_pairs
    layouts = []
    for trace_id in trace_ids:
        mine = [
            (i, layout) for i, plan in enumerate(group)
            for layout in plan.traces if layout.trace_id == trace_id
        ]
        if not mine:
            continue
        gather = [
            np.where(e.gather == length[i] * n_combos, zero, e.gather + dose_offset[i])
            for i, e in mine
        ]
        cell = [e.cell + cell_offset[i] for i, e in mine]
        counts = np.concatenate([e.counts for _, e in mine], axis=1)
        distinct_start = np.cumsum(counts[1]) - counts[1]
        layouts.append(_TraceLayout(
            trace_id=trace_id,
            threshold=mine[0][1].threshold,
            known_contributes=mine[0][1].known_contributes,
            unknown_contributes=mine[0][1].unknown_contributes,
            markers=tuple(group[i].marker for i, _ in mine),
            counts=counts,
            n_observed=int(counts[0].sum()),
            peak_heights=np.concatenate([e.peak_heights for _, e in mine]),
            gather=np.concatenate(
                [g[:, :e.n_observed] for g, (_, e) in zip(gather, mine)]
                + [g[:, e.n_observed:] for g, (_, e) in zip(gather, mine)], axis=1,
            ),
            cell=np.concatenate(
                [c[:e.n_observed] for c, (_, e) in zip(cell, mine)]
                + [c[e.n_observed:] for c, (_, e) in zip(cell, mine)]
            ),
            spread=np.concatenate([
                e.spread + start for (_, e), start in zip(mine, distinct_start)
            ]),
            position=np.concatenate(
                [e.position[:e.n_observed // n_pairs] for _, e in mine]
                + [e.position[e.n_observed // n_pairs:] for _, e in mine]
            ),
        ))
    lp = np.full((len(group), n_steps, template.n_states), -np.inf)
    lp[:, :, 0] = 0.0
    for i, plan in enumerate(group):
        lp[i, first[i]:] = plan.state_lp
    return _Stack(
        plans=tuple(group),
        first=first,
        lp=lp,
        traces=tuple(layouts),
        known_ids=template.known_ids,
        unknown_ids=template.unknown_ids,
        known_counts=np.concatenate([plan.known_counts for plan in group], axis=1),
        combo_counts=template.combo_counts,
        n_unknown=template.n_unknown,
        n_states=template.n_states,
        n_pairs=template.n_pairs,
        edges0=template.edges0,
        edges=template.edges,
    )


# ---------------------------------------------------------------------------
# Bundle


@dataclass(frozen=True)
class EvidenceBundle:
    """Everything one likelihood evaluation needs, immutable once built.

    Chain structure is precomputed per marker, and the factor layout of
    every trace over all markers, at construction; bundles derived via
    :meth:`with_parameters` share them, so parameter sweeps and
    optimizer loops pay the structural cost once.  Evaluation is pure and
    safe for concurrent read-only use.
    """

    traces: tuple[Trace, ...]
    frequencies: FrequencyTable
    hypothesis: Hypothesis
    parameters: ModelParameters
    _plans: Mapping[str, _MarkerPlan] = field(
        init=False, repr=False, compare=False, default=None
    )
    _stacks: tuple[_Stack, ...] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
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
        _validate_parameters(self.parameters, self.hypothesis, self.traces)
        plans, stacks = _build_stacks(self.frequencies, self.hypothesis, self.traces)
        object.__setattr__(self, "_plans", plans)
        object.__setattr__(self, "_stacks", stacks)

    def with_parameters(self, parameters: ModelParameters) -> "EvidenceBundle":
        """Same evidence and hypothesis at new parameter values (shares structure)."""
        _validate_parameters(parameters, self.hypothesis, self.traces)
        clone = object.__new__(EvidenceBundle)
        object.__setattr__(clone, "traces", self.traces)
        object.__setattr__(clone, "frequencies", self.frequencies)
        object.__setattr__(clone, "hypothesis", self.hypothesis)
        object.__setattr__(clone, "parameters", parameters)
        object.__setattr__(clone, "_plans", self._plans)
        object.__setattr__(clone, "_stacks", self._stacks)
        return clone

    def covered_markers(self) -> tuple[str, ...]:
        """The markers some trace covers, in table order: those in a stack."""
        return tuple(plan.marker for stack in self._stacks for plan in stack.plans)

    def same_evidence(self, other: "EvidenceBundle") -> bool:
        return self.traces == other.traces and self.frequencies == other.frequencies


def _validate_parameters(params, hypothesis, traces):
    ids = {t.trace_id for t in traces}
    if set(params.rho) != ids:
        raise ValueError(
            f"parameters cover traces {sorted(params.rho)}, bundle has {sorted(ids)}"
        )
    for trace in traces:
        roles = hypothesis.roles_for(trace.trace_id)
        given = set(params.phi[trace.trace_id])
        if given != set(roles):
            raise ValueError(
                f"phi for trace {trace.trace_id!r} must cover exactly roles "
                f"{list(roles)}, got {sorted(given)}"
            )
    params.check_unknown_ordering(hypothesis.unknown)


# ---------------------------------------------------------------------------
# Evidence factors and chain sweeps


class _ViewTerms(NamedTuple):
    """One trace's parameters, doses and log factors on a stack's markers.

    rho and xi are one value, or one per dose point where the markers'
    values differ, and free holds their masks of non-overridden markers
    (see _trace_values).
    """

    rho: float | np.ndarray
    eta: float
    xi: float | np.ndarray
    free: tuple
    base: np.ndarray         # (the stack's positions, C) pre-stutter doses B
    doses: np.ndarray        # per dose point, after stutter
    log_factors: np.ndarray  # per factor entry
    log_cdf: np.ndarray      # per distinct dropout dose


def _per_point(layout, values):
    """One value per marker of ``layout``: one float where all agree, else
    spread over the dose points (observed entries, then distinct dropout
    doses, marker by marker)."""
    if all(v == values[0] for v in values):
        return float(values[0])
    return np.repeat(np.tile(values, 2), layout.counts[:2].ravel())


def _trace_values(layout, params):
    """A trace's rho and xi on a layout's markers, and for each 1 where a
    marker takes the trace's value, 0 where a per-marker override (a
    constant) replaces it."""
    tid, markers = layout.trace_id, layout.markers
    if not (params.marker_rho or params.marker_xi):
        return params.rho[tid], params.xi_for(tid), 1.0, 1.0
    rho_over, xi_over = params.marker_rho or {}, params.marker_xi or {}
    return tuple(_per_point(layout, values) for values in (
        [params.rho_for(tid, m) for m in markers],
        [params.xi_for_marker(tid, m) for m in markers],
        [float(tid not in rho_over.get(m, ())) for m in markers],
        [float(m not in xi_over) for m in markers],
    ))


def _trace_dose(stack, layout, params):
    """One trace's pre-stutter doses over the positions of a stack (or a
    plan) that holds its layout.

    B[p, c] = sum over the trace's roles of phi_r * n_r(p, c), where
    n_r(p, c) is a known contributor's count at position p or the count
    an unknown draws at joint draw c.
    """
    phi = params.phi[layout.trace_id]
    phi_known = np.array([
        phi[r] if c else 0.0
        for r, c in zip(stack.known_ids, layout.known_contributes)
    ])
    phi_unknown = np.array([
        phi[r] if c else 0.0
        for r, c in zip(stack.unknown_ids, layout.unknown_contributes)
    ])
    return (phi_known @ stack.known_counts)[:, None] + (
        stack.combo_counts @ phi_unknown
    )[None, :]


def _view_terms(stack, params) -> list[_ViewTerms]:
    """Every trace's doses and log factors on a stack's markers.

    At a stutter-coupled position p the dose of pair j is
    (1 - xi) B[p, draw at t-1] + xi B[p+1, draw at t]; at an uncoupled
    one it is (1 - xi) B[p, draw at t] (+ xi * 0, which is exact).  A
    trace's doses come from one gather, and its factors from one call of
    each gamma kernel: the observed entries', and the distinct dropout
    doses', spread back to their entries.
    """
    out = []
    for layout in stack.traces:
        rho, xi, rho_free, xi_free = _trace_values(layout, params)
        eta = params.eta_for(layout.trace_id)
        base = _trace_dose(stack, layout, params)
        ends = np.append(base, 0.0)[layout.gather]
        doses = (1.0 - xi) * ends[0] + xi * ends[1]
        shapes = rho * doses
        n = layout.n_observed
        log_pdf = gamma_log_pdf(layout.peak_heights, shapes[:n], eta)
        log_cdf = gamma_log_cdf(layout.threshold, shapes[n:], eta)
        out.append(_ViewTerms(
            rho, eta, xi, (rho_free, xi_free), base, doses,
            np.concatenate([log_pdf, log_cdf[layout.spread]]), log_cdf,
        ))
    return out


def _step_tables(stack, terms):
    """(G * T, 6^U) log evidence factors per step and (previous draw,
    draw) pair of a stack's G markers, summed over traces: one np.bincount
    of each trace's entries over their cells."""
    size = stack.lp.shape[0] * stack.lp.shape[1] * stack.n_pairs
    tables = np.zeros(size)
    for layout, term in zip(stack.traces, terms):
        tables += np.bincount(layout.cell, term.log_factors, size)
    return tables.reshape(-1, stack.n_pairs)


class _Peaks(NamedTuple):
    """A stack's observed peaks, each with its emit step's table with the
    peak's own factor left out (see _tables_without_peaks).

    layout indexes each peak's trace in stack.traces, position is its
    internal position on its marker and row its emit step's row of the
    step tables.  The peaks come trace by trace in layout order.
    """

    layout: np.ndarray
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
    n_pairs = stack.n_pairs
    factors, runs = [], []  # every run of entries: (row, layout, position)
    for index, (layout, term) in enumerate(zip(stack.traces, terms)):
        factors.append(term.log_factors.reshape(-1, n_pairs))
        row = layout.cell[::n_pairs] // n_pairs
        runs.append((row, np.full(len(row), index), layout.position))
    row, layout, position = (np.concatenate(c) for c in zip(*runs))
    first = np.cumsum([0] + [len(f) for f in factors[:-1]])  # each layout's first run
    factors = np.concatenate(factors + [np.zeros((1, n_pairs))])
    observed = np.concatenate([
        first[i] + np.arange(v.n_observed // n_pairs)
        for i, v in enumerate(stack.traces)
    ])
    order = np.lexsort((position, layout, row))  # each step's runs, in sum order
    start, stop = (
        np.searchsorted(row[order], row[observed], side) for side in ("left", "right")
    )
    tables = np.zeros((len(observed), n_pairs))
    zero = len(factors) - 1
    for slot in range(int((stop - start).max(initial=0))):
        at = np.minimum(start + slot, len(order) - 1)
        run = np.where((start + slot < stop) & (order[at] != observed), order[at], zero)
        tables += factors[run]
    return _Peaks(layout[observed], position[observed], row[observed], tables)


def _step_values(plan, t, tables):
    """Per-edge exact log(transition * factors) at step t, for one step
    table or a stack of them (one row each).

    The transition is read per target state, from the step's outer sum of
    per-contributor log-pmfs.
    """
    edges = plan.edges_at(t)
    return plan.state_lp[t][edges.dst] + tables[..., edges.key]


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
    _Stack; a plan's are (T, 6^U)).

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
            mine = alt[0] // stack.lp.shape[1] == i
            one_alt = (alt[0][mine] - rows.start, alt[1][mine])
        one = _log_pass(stack.plans[i], tables[rows], posteriors, one_alt)
        result.loglik[i] = one.loglik
        if posteriors:
            result.pair[rows] = one.pair
        if alt is not None:
            result.alt[mine] = one.alt
    return result


@functools.lru_cache(maxsize=64)
def _stacked_edges(n_unknown, n_rows):
    """The src and dst columns of every later step's edges, offset for
    n_rows stacked rows of 6^U states: row r's states are r * 6^U + s."""
    edges = _build_edges(n_unknown)[1]
    if n_rows == 1:
        return edges.src, edges.dst
    offsets = np.arange(n_rows)[:, None] * 6**n_unknown
    columns = tuple((offsets + c).ravel() for c in (edges.src, edges.dst))
    for column in columns:
        column.setflags(write=False)
    return columns


def _forward(stack, tables, keep, ended):
    """Scaled forward recursion over a stack's chains (see _Stack).

    Returns each marker's log L; the messages alpha (T+1, G, S) into each
    step, each summing to 1; a bound (T+1, G) on each one's loss to
    underflow, relative to its sum; and (if ``keep``) each block's edge
    weights (steps, G, E), exp(value - the step's largest value).  A state
    holds at most 3^U out-edges of weight at most 1, so earlier loss grows
    at most 3^U-fold per step before the step's normalizer divides it.

    A marker's pass ends at a step whose largest value is -inf, with log L
    -inf; or is NaN or +inf, or where its loss bound is too large.  It is
    marked in ``ended``, its numbers are no longer used, and the others go
    on; once all have ended the recursion stops.
    """
    edges, n_states, first = stack.edges, stack.n_states, stack.first
    n_markers, n_edges = len(first), len(edges.src)
    tables = tables.reshape(n_markers, -1, stack.n_pairs)
    n_steps = tables.shape[1]
    per_block = max(1, _BLOCK_EDGES // (n_markers * n_edges))
    src, dst = _stacked_edges(stack.n_unknown, n_markers)
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
            # (steps, G, E), C-contiguous: take, where indexing the
            # transposed view would keep its strides
            w = stack.lp[:, lo:hi].transpose(1, 0, 2).take(edges.dst, axis=2)
            w += tables[:, lo:hi].transpose(1, 0, 2).take(edges.key, axis=2)
            shift = np.maximum.reduce(w, axis=2)
            finite = np.isfinite(shift)
            if not finite.all():
                # a step with no finite edge gives log L -inf below; one
                # with a NaN or +inf edge a log L that is not -inf, for the
                # redo
                ended |= ~finite.all(axis=0)
            w -= shift[..., None]
            np.exp(w, out=w)
            # the block's shifts over each marker's own steps
            shift = np.ascontiguousarray(shift.T)
            sums = np.add.reduce(shift, axis=1)
            for i in (first > lo).nonzero()[0]:
                sums[i] = shift[i, first[i] - lo:].sum()
            shifts.append((hi - lo, sums))
            flat = w.reshape(hi - lo, -1)
            for t in range(lo, hi):
                mass = flat_alpha[t][src]
                mass *= flat[t - lo]
                mass = np.bincount(dst, mass, n_markers * n_states)
                mass = mass.reshape(n_markers, n_states)
                total = norms[t] = np.add.reduce(mass, axis=1)
                np.divide(mass, total[:, None], out=alpha[t + 1])
            if keep:
                weights.append(w)
    # each step's products lose at most E * _TINY; a padding step, whose
    # one product is exact, nothing (a later tiny normalizer would magnify
    # even 1e-320 past _LOSS)
    step_loss = np.full((n_steps, n_markers), n_edges * _TINY)
    if first.any():
        step_loss[np.arange(n_steps)[:, None] < first] = 0.0
    lost = np.zeros((n_steps + 1, n_markers))
    lost[1:] = _loss_bounds(norms, 3**stack.n_unknown, step_loss)
    ended |= ~(lost <= _LOSS).all(axis=0)
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
    from bound[0] = 0, for t = 0 .. T-1.  A normalizer that is not
    positive gives an infinite bound."""
    rows, bound = [], [0.0] * norms.shape[1]
    for norm, add in zip(norms.tolist(), added.tolist()):
        bound = [
            (fan_out * b + a) / n if n > 0 else math.inf
            for b, a, n in zip(bound, add, norm)
        ]
        rows.append(bound)
    return np.array(rows).reshape(norms.shape)


def _backward(stack, weights, ended):
    """Scaled backward messages beta (T, G, S) out of each step, each
    divided by its maximum, from the forward recursion's edge weights, and
    a bound (T, G) on each one's loss to underflow relative to its maximum
    (zero out of a padding step, whose posterior no query reads).

    A marker whose bound is too large is marked in ``ended``.
    """
    edges, n_states = stack.edges, stack.n_states
    fan_out = 3**stack.n_unknown
    steps = [row for w in weights for row in w.reshape(len(w), -1, w.shape[-1])]
    n_steps, n_markers = len(steps), len(steps[0])
    src, dst = _stacked_edges(stack.n_unknown, n_markers)
    beta = np.empty((n_steps, n_markers, n_states))
    beta[-1] = 1.0
    flat_beta = beta.reshape(n_steps, -1)
    tops = np.empty((n_steps - 1, n_markers))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n_steps - 1, 0, -1):
            mass = flat_beta[t][dst]
            mass *= steps[t].ravel()
            mass = np.bincount(src, mass, n_markers * n_states)
            mass = mass.reshape(n_markers, n_states)
            top = tops[t - 1] = np.maximum.reduce(mass, axis=1)
            np.divide(mass, top[:, None], out=beta[t - 1])
    lost = np.zeros((n_steps, n_markers))
    lost[-2::-1] = _loss_bounds(
        tops[::-1], fan_out, np.full(tops.shape, fan_out * _TINY)
    )
    if stack.first.any():  # the messages out of padding steps serve no posterior
        lost[np.arange(n_steps)[:, None] < stack.first] = 0.0
    ended |= ~(lost <= _LOSS).all(axis=0)
    return beta, lost


def _pair_posteriors(mass, keys, n_pairs, loss, ended):
    """Rows of edge masses (..., G, E) summed by the edges' pairs ``keys``,
    with one np.bincount for all rows, and normalized over the row.

    ``loss`` bounds each row's loss to underflow.  Axis -2 is the
    markers': one with a row that would lose too much is marked in
    ``ended``.
    """
    rows = mass.reshape(-1, mass.shape[-1])
    index = (np.arange(len(rows))[:, None] * n_pairs + keys).ravel()
    post = np.bincount(index, rows.ravel(), len(rows) * n_pairs)
    post = post.reshape(mass.shape[:-1] + (n_pairs,))
    total = np.add.reduce(post, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~(loss / total <= _LOSS)
    ended |= bad.reshape(-1, len(ended)).any(axis=0)
    total[bad] = 1.0
    return post / total[..., None]


def _scaled_pass(stack, tables, posteriors, alt, redo):
    """_chain_pass in scaled linear space.

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
        has_alt = np.bincount(alt[0] // stack.lp.shape[1], minlength=len(ended)) > 0
    if keep and not ended.all():
        beta, lost_after = _backward(stack, weights, ended)
        edges, n_pairs = stack.edges, stack.n_pairs
        # a posterior's mass alpha[src] * w * beta[dst] loses what alpha and
        # beta lost, each at most 3^U-fold, and its own products' underflow
        loss = 3**stack.n_unknown * (lost[:-1] + lost_after) + len(edges.src) * _TINY
        if posteriors:
            out = pair.reshape(len(stack.plans), -1, n_pairs)
            lo = 0
            for w in weights:
                hi = lo + len(w)
                mass = alpha[lo:hi][..., edges.src]
                mass *= w
                mass *= beta[lo:hi][..., edges.dst]
                post = _pair_posteriors(mass, edges.key, n_pairs, loss[lo:hi], ended)
                out[:, lo:hi] = post.transpose(1, 0, 2)
                lo = hi
            out[ended] = 0.0
        if alt is not None:
            _alternative_posteriors(stack, alt, alpha, beta, loss, others, ended)
    redo |= ended & ((loglik != -np.inf) | has_alt)
    return _Pass(loglik, pair, others)


def _alternative_posteriors(stack, alt, alpha, beta, loss, out, ended):
    """Pair posteriors of alternative rows (see _chain_pass) into ``out``,
    from the scaled messages around their steps, in blocks of at most
    _BLOCK_EDGES edge values.

    A row whose step has no finite value, or whose posterior would lose
    too much (``loss`` bounds each step's loss), marks its marker in
    ``ended``.
    """
    rows, tables = alt
    edges = stack.edges
    marker, step = np.divmod(rows, stack.lp.shape[1])
    per_block = max(1, _BLOCK_EDGES // len(edges.src))
    with np.errstate(invalid="ignore"):
        for lo in range(0, len(rows), per_block):
            block = slice(lo, lo + per_block)
            i, t = marker[block], step[block]
            vals = stack.lp[i, t][:, edges.dst] + tables[block][:, edges.key]
            shift = vals.max(axis=1)
            ended[i[~np.isfinite(shift)]] = True
            mass = alpha[t, i][:, edges.src] * np.exp(vals - shift[:, None])
            mass *= beta[t, i][:, edges.dst]
            bad = np.zeros(len(i), dtype=bool)
            out[block] = _pair_posteriors(
                mass[None], edges.key, stack.n_pairs, loss[t, i][None], bad
            )[0]
            ended[i[bad]] = True


class _Sweep(NamedTuple):
    """One log-space forward-backward pass over a marker's chain.

    vals[t] holds step t's per-edge log(transition * factors), fwd[t] the
    forward log message into step t (fwd[-1] the final one) and bwd[t] the
    backward log message out of it.
    """

    vals: list
    fwd: list
    bwd: list | None
    loglik: float


def _log_sweep(plan, tables, backward=True) -> _Sweep:
    """Forward and (optionally) backward pass in log space."""
    vals, fwd = [], [np.zeros(1)]
    for t, table in enumerate(tables):
        vals.append(_step_values(plan, t, table))
        edges = plan.edges_at(t)
        fwd.append(_logsumexp_by(edges.dst, fwd[t][edges.src] + vals[t], plan.n_states))
    bwd = _log_backward(plan, vals) if backward else None
    return _Sweep(vals, fwd, bwd, _log_total(fwd[-1]))


def _log_backward(plan, vals):
    """Backward log messages out of each step, from its edge values."""
    bwd = [None] * len(vals)
    bwd[-1] = np.zeros(plan.n_states)
    for t in range(len(vals) - 1, 0, -1):
        bwd[t - 1] = _logsumexp_by(
            plan.edges.src, vals[t] + bwd[t][plan.edges.dst], plan.n_states
        )
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
    edges = plan.edges_at(t)
    logw = sweep.fwd[t][edges.src] + vals + sweep.bwd[t][edges.dst]
    top = logw.max()
    if not np.isfinite(top):
        return None
    w = np.exp(logw - top)
    return np.bincount(edges.key, weights=w, minlength=plan.n_pairs) / w.sum()


def _log_pass(plan, tables, posteriors, alt):
    """One marker's pass by the log-space recursion, where the scaled one
    underflows.  Without a finite log L the pair posteriors are zero, and
    only alternative tables need the backward recursion."""
    sweep = _log_sweep(plan, tables, backward=False)
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
    masks = np.zeros((len(plan.order), plan.n_pairs))
    if not assignments:
        return masks
    label_pos = {lab: p for p, lab in enumerate(plan.internal_labels)}
    known_any = plan.known_counts.sum(axis=0)
    draw_total = plan.combo_counts.sum(axis=1)[plan.pair_draw]
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
        if present and plan.n_unknown == 0:
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


def _plan_for(bundle: EvidenceBundle, marker: str) -> _MarkerPlan:
    try:
        return bundle._plans[marker]
    except KeyError:
        raise KeyError(f"marker {marker!r} not in frequency table") from None


def marker_log_likelihood(bundle: EvidenceBundle, marker: str) -> float:
    """Exact log likelihood of one marker, marginalized over unknown genotypes."""
    plan = _plan_for(bundle, marker)
    tables = _step_tables(plan, _view_terms(plan, bundle.parameters))
    return float(_chain_pass(plan, tables).loglik[0])


def total_log_likelihood(bundle: EvidenceBundle) -> float:
    """Sum of marker log likelihoods over all markers covered by any trace,
    by one pass over each of the bundle's stacks of them (one stack at
    U <= 2)."""
    loglik = []
    for stack in bundle._stacks:
        tables = _step_tables(stack, _view_terms(stack, bundle.parameters))
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
    where log L is finite.
    """
    params = bundle.parameters
    grad = {}
    for trace in bundle.traces:
        tid = trace.trace_id
        for family in ("rho", "eta", "xi"):
            grad[(family, tid)] = 0.0
        for role in params.phi[tid]:
            grad[("phi", tid, role)] = 0.0
    loglik = []
    for stack in bundle._stacks:
        terms = _view_terms(stack, params)
        result = _chain_pass(stack, _step_tables(stack, terms), posteriors=True)
        loglik += result.loglik.tolist()
        _add_gradient(stack, terms, result.pair, grad)
    return float(sum(loglik)), grad


def _add_gradient(stack, terms, pair, grad):
    """Add d log L over a stack's markers to ``grad``, from the pair
    posteriors of every step (zero on markers of no finite likelihood).

    Each factor entry reads its posterior weight from its cell, and every
    dropout entry adds its weight to its distinct dose; the derivatives
    are one call of each gamma kernel's _grad per trace, and d log L / d B
    one np.bincount through every dose point's two cells.
    """
    pair = pair.ravel()
    for layout, term in zip(stack.traces, terms):
        tid, n = layout.trace_id, layout.n_observed
        shapes = term.rho * term.doses
        d_shape, d_eta = (np.concatenate(parts) for parts in zip(
            gamma_log_pdf_grad(layout.peak_heights, shapes[:n], term.eta),
            gamma_log_cdf_grad(layout.threshold, shapes[n:], term.eta, term.log_cdf),
        ))
        w = pair[layout.cell]
        w = np.concatenate((w[:n], np.bincount(layout.spread, w[n:], len(shapes) - n)))
        live = w > 0.0
        with np.errstate(invalid="ignore"):
            g = np.where(live, w * d_shape, 0.0)  # d log L / d shape, per dose point
            g_eta = np.where(live, w * d_eta, 0.0)
        rho_free, xi_free = term.free
        grad[("eta", tid)] += float(g_eta.sum())
        # sums of products by numpy's own loop: a BLAS dot may start threads
        grad[("rho", tid)] += float((g * term.doses * rho_free).sum())
        g = g * term.rho  # d log L / d dose
        ends = np.append(term.base, 0.0)[layout.gather]
        grad[("xi", tid)] += float((g * (ends[1] - ends[0]) * xi_free).sum())
        # d log L / d B through each point's two cells; the zero cell's sum
        # is dropped
        g_base = np.bincount(
            layout.gather.ravel(), np.concatenate(((1.0 - term.xi) * g, term.xi * g)),
            term.base.size + 1,
        )[:-1].reshape(term.base.shape)
        for roles, takes, values in (
            (stack.known_ids, layout.known_contributes,
             stack.known_counts @ g_base.sum(axis=1)),
            (stack.unknown_ids, layout.unknown_contributes,
             g_base.sum(axis=0) @ stack.combo_counts),
        ):
            for r, take, value in zip(roles, takes, values):
                if take:
                    grad[("phi", tid, r)] += float(value)


def _passes(stacks, params, posteriors, assignments=None):
    """Each of ``stacks`` with its step tables and one pass over them
    (presence assignments, on a one-marker stack, masking its tables).

    Raises InfeasibleConditioningError for a stack's first marker of no
    finite likelihood.
    """
    for stack in stacks:
        tables = _step_tables(stack, _view_terms(stack, params))
        if assignments:
            tables += _presence_masks(stack, assignments)
        result = _chain_pass(stack, tables, posteriors=posteriors)
        for plan, loglik in zip(stack.plans, result.loglik):
            if not np.isfinite(loglik):
                where = ""
                if assignments:
                    where = f" under conditioning {dict(assignments)!r}"
                raise InfeasibleConditioningError(
                    f"zero probability on marker {plan.marker!r}{where}"
                )
        yield stack, tables, result


def _marker_rows(stack, i):
    """The rows of a stack's step tables that hold its i-th marker's steps."""
    n_steps = stack.lp.shape[1]
    return slice(i * n_steps + stack.first[i], (i + 1) * n_steps)


def _summary(plan, loglik, pair, top_genotypes=()):
    """A marker's posterior from the pair posteriors of its steps."""
    # posterior of each step's draw: its pair posterior summed by draw
    n_steps = len(pair)
    index = (np.arange(n_steps)[:, None] * plan.n_combos + plan.pair_draw).ravel()
    post = np.bincount(index, pair.ravel(), n_steps * plan.n_combos)
    post = post.reshape(n_steps, plan.n_combos)
    counts = [
        (post @ (plan.combo_counts[:, i, None] == np.arange(3))).tolist()
        for i in range(plan.n_unknown)
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
    plan = _plan_for(bundle, marker)
    ((_, tables, result),) = _passes((plan,), bundle.parameters, True, assignments)
    loglik = float(result.loglik[0])
    top = _kbest_paths(plan, tables, loglik, k) if k else ()
    return _summary(plan, loglik, result.pair, top)


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
        plan.marker: _summary(
            plan, float(result.loglik[i]), result.pair[_marker_rows(stack, i)]
        )
        for stack, _, result in _passes(bundle._stacks, bundle.parameters, True)
        for i, plan in enumerate(stack.plans)
    }


def _top_genotypes(stacks, params, k):
    """Each marker's k best genotype combinations: a value pass over each
    stack for the markers' log L, then k-best search per marker."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    return {
        plan.marker: _kbest_paths(
            plan, tables[_marker_rows(stack, i)], float(result.loglik[i]), k
        )
        for stack, tables, result in _passes(stacks, params, False)
        for i, plan in enumerate(stack.plans)
    }


def top_k_marker_genotypes(bundle: EvidenceBundle, marker: str, k: int):
    """The k most probable unknown genotype combinations for one marker.

    Exact, computed by best-first search over the chain; probabilities
    are normalized by the marker likelihood.  Asking for more combinations
    than exist returns every combination with positive posterior
    probability (impossible ones are omitted).  Combinations of equal
    probability come in the order of their genotypes, compared role by
    role as pairs of ladder indices.
    """
    plan = _plan_for(bundle, marker)
    return _top_genotypes((plan,), bundle.parameters, k)[marker]


def bundle_top_genotypes(bundle: EvidenceBundle, k: int) -> dict[str, tuple]:
    """:func:`top_k_marker_genotypes` of every covered marker, in table
    order, with one likelihood pass over each of the bundle's stacks of
    markers.

    A marker of zero likelihood raises
    :class:`InfeasibleConditioningError`.
    """
    return _top_genotypes(bundle._stacks, bundle.parameters, k)


def _kbest_paths(plan, tables, loglik, k):
    """The k most probable combinations of one marker's unknown genotypes,
    with probabilities normalized by its likelihood exp(loglik).

    A combination is a path through the chain, valued by the sum of its
    steps' exact log edge values (scaled weights that underflow would drop
    edges).  Max-product bounds pick out of every state, at every step,
    one edge on a best path to the end, its tree edge, and cost each other
    edge e out of state s at step t what a path loses by taking it:
    best[t-1][s] - vals[t][e] - best[t][dst] >= 0, where best[t][s] is the
    best value of the steps after t from state s.  A path is the sequence
    of its other edges (sidetracks), with tree edges in between, and its
    value is the best path's less their costs (Eppstein 1998, SIAM J.
    Comput. 28).  The sidetracks that can follow one are those out of the
    states on the tree path from its target, sorted by cost.  A
    sequence's children replace its last sidetrack by the next one in
    that order, or append the cheapest one that can follow it; neither is
    worth more than it, so best-first search pops one sequence per
    combination, and sorts out-edges only at the states it reaches.
    Paths of zero probability are left out.  Ties in probability are
    ordered by the genotypes, role by role, as pairs of ladder indices.
    """
    if plan.n_unknown == 0:
        return (({}, 1.0),)
    n_pos, edges = len(plan.order), plan.edges
    n_edges, draw = len(edges.src), plan.pair_draw[edges.key]
    runs = np.searchsorted(edges.src, np.arange(plan.n_states + 1))  # src-major
    # through[t][e]: the best value of the steps from t on through edge e
    through, best = [None] * n_pos, np.zeros(plan.n_states)
    for t in range(n_pos - 1, -1, -1):
        through[t] = _step_values(plan, t, tables[t])
        through[t] += best[plan.edges_at(t).dst]
        if t:
            best = np.maximum.reduceat(through[t], runs[:-1])

    bounds, dst, n_first = runs.tolist(), edges.dst.tolist(), len(through[0])

    def value(t, e):
        # edge e's exact log value at step t, as _step_values sums it
        return float(plan.state_lp[t][dst[e]] + tables[t][edges.key[e]])

    def out_edges(t, s):
        # the edges out of state s entering step t: edges[lo:hi]
        return (0, n_first) if t == 0 else (bounds[s], bounds[s + 1])

    trees, owns, lists = {}, {}, {}

    def tree(t, s):
        # the tree path from state s entering step t: its first edge, and
        # each step's edge value and draw, as Python numbers
        walk = []
        while t < n_pos and (t, s) not in trees:
            lo, hi = out_edges(t, s)
            e = lo + int(through[t][lo:hi].argmax())
            walk.append((t, s, e))
            t, s = t + 1, dst[e]
        path = trees[(t, s)] if t < n_pos else (None, (), ())
        for t, s, e in reversed(walk):
            path = trees[(t, s)] = (
                e, (value(t, e),) + path[1], (int(draw[e]),) + path[2]
            )
        return path

    def own(t, s):
        # the costs of the edges out of state s entering step t, inf for
        # the tree edge, and their codes t * n_edges + edge; and the tree
        # edge's target
        if (t, s) not in owns:
            e = tree(t, s)[0]
            lo, hi = out_edges(t, s)
            cost = through[t][e] - through[t][lo:hi]
            cost[e - lo] = math.inf
            owns[(t, s)] = (cost, t * n_edges + np.arange(lo, hi), dst[e])
        return owns[(t, s)]

    def sidetracks(t, s):
        # the codes of the sidetracks off the tree path from state s
        # entering step t, cheapest first
        if (t, s) not in lists:
            parts, v = [], s
            for u in range(t, n_pos):
                cost, codes, v = own(u, v)
                parts.append((cost, codes))
            cost, codes = (np.concatenate(c) for c in zip(*parts))
            # the finite costs sort first: inf and NaN last
            order = cost.argsort(kind="stable")[:int(np.isfinite(cost).sum())]
            lists[(t, s)] = codes[order].tolist()
        return lists[(t, s)]

    # sequence q: (its base, the index of its last sidetrack among those
    # that can follow the base, its path's values and draws up to that
    # sidetrack, its head: the state after it); sequence 0, the best path,
    # has no sidetrack
    sequences, queue = [], []

    def push(base, index, values, draws, head):
        _, rest_values, rest_draws = tree(*head)
        g = 0.0
        for v in values + rest_values:  # in step order, as a path is valued
            g += v
        heapq.heappush(queue, (-g, len(sequences), draws + rest_draws))
        sequences.append((base, index, values, draws, head))

    def extend(base, index):
        # base's path to its head, one sidetrack off the tree path from
        # there, and tree edges after it
        values, draws, head = sequences[base][2:]
        t, e = divmod(lists[head][index], n_edges)
        _, tree_values, tree_draws = tree(*head)
        n = t - head[0]
        push(base, index, values + tree_values[:n] + (value(t, e),),
             draws + tree_draws[:n] + (int(draw[e]),), (t + 1, dst[e]))

    # pop past the k-th while a tie with the worst one found may remain
    push(None, None, (), (), (0, 0))
    found, floor = [], math.inf
    while queue and (len(found) < k or -queue[0][0] >= floor):
        neg, q, path = heapq.heappop(queue)
        found.append((neg, path))
        floor = min(floor, -neg)
        base, index, _, _, head = sequences[q]
        if base is not None and index + 1 < len(lists[sequences[base][4]]):
            extend(base, index + 1)
        if head[0] < n_pos and sidetracks(*head):
            extend(q, 0)

    # each path's genotypes, as sorted ladder indices per role
    ladder, counts = plan.order.tolist(), plan.combo_counts.tolist()
    ranked = []
    for neg, path in found:
        picks = [[] for _ in plan.unknown_ids]
        for t, c in enumerate(path):
            for pick, n in zip(picks, counts[c]):
                pick += [ladder[t]] * n
        picks = [sorted(pick) for pick in picks]
        assignment = {
            role: tuple(plan.labels[j] for j in pick)
            for role, pick in zip(plan.unknown_ids, picks)
        }
        ranked.append((neg, sum(picks, []), assignment))
    ranked.sort(key=lambda r: r[:2])
    return tuple((a, float(np.exp(-neg - loglik))) for neg, _, a in ranked[:k])


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
    normalizes over the step.
    """
    n_pairs = 6 ** len(bundle.hypothesis.unknown)
    names = []
    columns = [[np.zeros(0)], [np.zeros(0)]] + [
        [np.zeros((0, n_pairs))] for _ in range(3)
    ]
    for stack in bundle._stacks:
        terms = _view_terms(stack, bundle.parameters)
        peaks = _tables_without_peaks(stack, terms)
        if not len(peaks.row):
            continue
        layouts = stack.traces
        eta = np.array([term.eta for term in terms])[peaks.layout]
        shapes = np.concatenate([
            (term.rho * term.doses)[:v.n_observed] for v, term in zip(layouts, terms)
        ]).reshape(-1, n_pairs)
        survival = np.zeros(shapes.shape)
        if truncate:
            threshold = np.array([v.threshold for v in layouts])[peaks.layout]
            survival = gamma_log_sf(threshold[:, None], shapes, eta[:, None])
        weights = _chain_pass(
            stack, _step_tables(stack, terms), alt=(peaks.row, peaks.tables + survival)
        ).alt
        marker = peaks.row // stack.lp.shape[1]
        order = np.lexsort((peaks.layout, marker))
        for j in order.tolist():
            plan = stack.plans[marker[j]]
            names.append((layouts[peaks.layout[j]].trace_id, plan.marker,
                           plan.internal_labels[peaks.position[j]]))
        heights = np.concatenate([v.peak_heights[::n_pairs] for v in layouts])
        for column, values in zip(columns, (heights, eta, shapes, survival, weights)):
            column.append(values[order])
    height, eta, shapes, survival, weights = (np.concatenate(c) for c in columns)
    return _PeakPosteriors(
        names, height, eta, shapes, survival if truncate else None, weights
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
