"""Population-genetics layer: allele ladders, genotype priors, silent alleles.

Genotypes at a marker are unordered allele pairs drawn under
Hardy-Weinberg equilibrium, equivalently a multinomial count vector over
the ladder with total 2.  The multinomial decomposes sequentially into
binomials over partial sums, which is the Markov-chain form the inference
engine marginalizes over.

Which allele donates stutter to which is a fact of the ladder: a
MarkerLadder fixes each allele's donor, and the traversal order the
inference engine walks, once when it is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "SILENT_LABEL",
    "canonical_allele",
    "allele_repeat",
    "FrequencyTable",
    "GenotypeProfile",
    "chain_conditional",
    "genotype_prior",
    "match_probability",
    "with_silent",
    "stutter_successor",
]

SILENT_LABEL = "0"

_FREQ_SUM_TOL = 1e-9


def canonical_allele(label) -> str:
    """Normalize an allele label: '16.0' -> '16', '9.30' -> '9.3'.

    Non-numeric labels (AMEL X/Y) pass through stripped.
    """
    s = str(label).strip()
    if "." in s:
        whole, _, frac = s.partition(".")
        frac = frac.rstrip("0")
        if whole and frac and whole.lstrip("-").isdigit() and frac.isdigit():
            return f"{whole}.{frac}"
        if whole and not frac and whole.lstrip("-").isdigit():
            return whole
    return s


# A repeat number is a decimal numeral: sign, whole repeats, and an
# optional point with the partial repeat's digits.
_REPEAT_NUMBER = re.compile(r"([+-]?\d+)(?:(\.)(\d*))?")


def _parse_labels(labels):
    """Each label's key and stutter donor label, from one parse.

    The key is (kind, partial repeat, repeat): kind 0 for the silent
    allele, 1 for a repeat number and 2 for any other label.  A repeat
    number's value x, and x - int(x), are exact integers scaled by 10^D,
    D the most digits after a point among ``labels``, so the keys of one
    call compare as the numbers do; the other kinds have zeros.  The donor
    of x.y is (x+1).y; other labels have none.
    """
    matches = [_REPEAT_NUMBER.fullmatch(label) for label in labels]
    places = max((len(m[3] or "") for m in matches if m), default=0)
    keys, donors = [], []
    for label, m in zip(labels, matches):
        if label == SILENT_LABEL or m is None:
            keys.append((0 if label == SILENT_LABEL else 2, 0, 0))
            donors.append(None)
            continue
        whole = int(m[1])
        part = int((m[3] or "").ljust(places, "0") or "0")
        if m[1].startswith("-"):
            part = -part
        keys.append((1, part, whole * 10**places + part))
        donors.append(f"{whole + 1}{m[2] or ''}{m[3] or ''}")
    return keys, donors


def allele_repeat(label: str) -> Fraction | None:
    """Repeat number of a canonical allele label, or None for non-numeric ones.

    A repeat number is a decimal numeral, such as '9', '9.3' or '-1'.
    """
    m = _REPEAT_NUMBER.fullmatch(label)
    if m is None:
        return None
    part = m[3] or ""
    sign = -1 if m[1].startswith("-") else 1
    return int(m[1]) + sign * Fraction(int(part or "0"), 10 ** len(part))


def _ladder_sort(labels):
    """The indices of ``labels`` in ladder order, with the keys and donor
    labels of _parse_labels in that order: the silent allele first, repeat
    numbers ascending (ties keep their input order), other labels last,
    by label."""
    keys, donors = _parse_labels(labels)
    rank = sorted(
        range(len(labels)),
        key=lambda i: (keys[i][0], keys[i][2], labels[i] if keys[i][0] == 2 else ""),
    )
    return rank, [keys[i] for i in rank], [donors[i] for i in rank]


def _stutter_structure(alleles, keys, donor_labels):
    """A ladder's (donor, order, coupled), from its labels' keys and donor
    labels (see _parse_labels and MarkerLadder).

    Stutter loses one full repeat word: the donor of stutter into x.y is
    (x+1).y, preserving any partial-word suffix; silent and non-numeric
    alleles take no part.  Ordering silent first, numeric alleles by
    (fractional part, repeat, index) and non-numeric ones last puts each
    donor directly after its recipient.
    """
    index = {label: i for i, label in enumerate(alleles)}
    donor = np.array(
        [-1 if d is None else index.get(d, -1) for d in donor_labels], dtype=np.int64
    )
    order = np.array(
        sorted(range(len(alleles)), key=lambda i: keys[i] + (i,)), dtype=np.int64
    )
    coupled = np.zeros(len(alleles), dtype=bool)
    coupled[:-1] = donor[order[:-1]] == order[1:]
    if np.count_nonzero(coupled) != np.count_nonzero(donor >= 0):
        raise ValueError(
            f"allele labels {alleles} give stutter donors that do not follow "
            "their recipients in the ladder's traversal order"
        )
    return donor, order, coupled


@dataclass(frozen=True)
class MarkerLadder:
    """Ordered allele labels and population frequencies for one marker.

    Construction derives the marker's stutter structure from the labels:
    ``donor`` is each allele's stutter donor as a ladder index (-1 for
    none), ``order`` the traversal order (internal position -> ladder
    index) in which every donor directly follows its recipient, and
    ``coupled`` marks the internal positions whose donor sits at the
    next one.  The arrays are read-only.
    """

    alleles: tuple[str, ...]
    frequencies: tuple[float, ...]
    donor: np.ndarray = field(init=False, repr=False, compare=False)
    order: np.ndarray = field(init=False, repr=False, compare=False)
    coupled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._derive(*_parse_labels(self.alleles))

    @classmethod
    def _parsed(cls, alleles, frequencies, keys, donors):
        """The ladder of ``alleles``, given their parse (see _parse_labels)."""
        ladder = cls.__new__(cls)
        object.__setattr__(ladder, "alleles", alleles)
        object.__setattr__(ladder, "frequencies", frequencies)
        ladder._derive(keys, donors)
        return ladder

    def _derive(self, keys, donors):
        """Check the ladder and set its stutter structure."""
        if len(self.alleles) != len(self.frequencies):
            raise ValueError("alleles and frequencies differ in length")
        if not self.alleles:
            raise ValueError("empty allele ladder")
        if len(set(self.alleles)) != len(self.alleles):
            raise ValueError(f"duplicate allele labels: {self.alleles}")
        for q in self.frequencies:
            if not q > 0:
                raise ValueError(f"allele frequencies must be positive: {q}")
        if abs(sum(self.frequencies) - 1.0) > _FREQ_SUM_TOL:
            raise ValueError(
                f"frequencies sum to {sum(self.frequencies)!r}, not 1"
            )
        for name, value in zip(("donor", "order", "coupled"),
                               _stutter_structure(self.alleles, keys, donors)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def index(self, allele: str) -> int:
        try:
            return self.alleles.index(canonical_allele(allele))
        except ValueError:
            raise KeyError(f"allele {allele!r} not on ladder {self.alleles}") from None

    def frequency(self, allele: str) -> float:
        return self.frequencies[self.index(allele)]

    @property
    def has_silent(self) -> bool:
        return self.alleles[0] == SILENT_LABEL


@dataclass(frozen=True)
class FrequencyTable:
    """Per-marker allele ladders with population frequencies.

    Ladders are stored sorted ascending by repeat number (a silent allele,
    label '0', comes first; non-numeric labels last).
    """

    markers: Mapping[str, MarkerLadder]

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, float]]) -> "FrequencyTable":
        """Build from {marker: {allele label: frequency}}."""
        ladders = {}
        for marker, freqs in data.items():
            labels = [canonical_allele(a) for a in freqs]
            values = [float(q) for q in freqs.values()]
            rank, keys, donors = _ladder_sort(labels)
            ladders[marker] = MarkerLadder._parsed(
                tuple(labels[i] for i in rank), tuple(values[i] for i in rank),
                keys, donors,
            )
        return cls(markers=ladders)

    def ladder(self, marker: str) -> MarkerLadder:
        try:
            return self.markers[marker]
        except KeyError:
            raise KeyError(f"marker {marker!r} not in frequency table") from None

    def marker_names(self) -> tuple[str, ...]:
        return tuple(self.markers)


@dataclass(frozen=True)
class GenotypeProfile:
    """Genotype of one individual: marker -> unordered allele pair.

    Markers absent from the mapping are untyped.
    """

    genotypes: Mapping[str, tuple[str, str]]

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, Iterable[str]]) -> "GenotypeProfile":
        cleaned = {}
        for marker, alleles in pairs.items():
            labels = [canonical_allele(a) for a in alleles]
            labels = tuple(labels[i] for i in _ladder_sort(labels)[0])
            if len(labels) != 2:
                raise ValueError(
                    f"genotype for {marker!r} must have exactly two alleles: {labels}"
                )
            cleaned[marker] = labels
        return cls(genotypes=cleaned)

    def typed_markers(self) -> tuple[str, ...]:
        return tuple(self.genotypes)

    def counts(self, marker: str, ladder: MarkerLadder) -> tuple[int, ...]:
        """Allele-count vector over the ladder; entries in {0, 1, 2}, sum 2."""
        if marker not in self.genotypes:
            raise KeyError(f"profile untyped on marker {marker!r}")
        counts = [0] * len(ladder.alleles)
        for a in self.genotypes[marker]:
            counts[ladder.index(a)] += 1
        return tuple(counts)


def chain_conditional(position: int, s_prev: int, freqs: FrequencyTable,
                      marker: str) -> dict[int, float]:
    """Distribution of the allele count at a ladder position given the partial sum.

    Counts of successive ladder alleles follow
    n_a | S_{a-1} ~ Bin(2 - S_{a-1}, q_a / sum_{b>=a} q_b); at the last
    position the rate is 1, so the count is degenerate at 2 - S_{a-1}.

    Returns {count: probability} over the support {0, ..., 2 - s_prev}.
    """
    if not 0 <= s_prev <= 2:
        raise ValueError(f"partial sum must lie in {{0,1,2}}: {s_prev}")
    ladder = freqs.ladder(marker)
    if not 0 <= position < len(ladder.alleles):
        raise ValueError(f"position {position} out of range for {marker!r}")
    tail = sum(ladder.frequencies[position:])
    if tail <= 0.0:
        if s_prev < 2:
            raise ValueError(
                f"zero tail frequency at position {position} with {2 - s_prev} alleles left"
            )
        return {0: 1.0}
    rate = min(ladder.frequencies[position] / tail, 1.0)
    n = 2 - s_prev
    return {k: math.comb(n, k) * rate**k * (1.0 - rate) ** (n - k)
            for k in range(n + 1)}


def genotype_prior(counts, freqs: FrequencyTable, marker: str) -> float:
    """Hardy-Weinberg probability of an allele-count vector (sum 2).

    q_a^2 for a homozygote, 2*q_a*q_b for a heterozygote; equals the
    product of :func:`chain_conditional` factors along the ladder.
    """
    ladder = freqs.ladder(marker)
    counts = tuple(counts)
    if len(counts) != len(ladder.alleles):
        raise ValueError("count vector does not match ladder length")
    if sum(counts) != 2 or any(c not in (0, 1, 2) for c in counts):
        raise ValueError(f"counts must be in {{0,1,2}} and sum to 2: {counts}")
    carried = [i for i, c in enumerate(counts) if c > 0]
    if len(carried) == 1:
        return ladder.frequencies[carried[0]] ** 2
    qa, qb = (ladder.frequencies[i] for i in carried)
    return 2.0 * qa * qb


def match_probability(profile: GenotypeProfile, freqs: FrequencyTable) -> float:
    """Probability that a random population member has this profile.

    Product of genotype priors over the profile's typed markers;
    -log10 of the result bounds the attainable weight of evidence.
    """
    markers = profile.typed_markers()
    if not markers:
        raise ValueError("profile is untyped on every marker")
    pi = 1.0
    for marker in markers:
        ladder = freqs.ladder(marker)
        pi *= genotype_prior(profile.counts(marker, ladder), freqs, marker)
    return pi


def with_silent(freqs: FrequencyTable, q0: float) -> FrequencyTable:
    """Extend every marker with a silent allele of frequency q0.

    The silent allele (label '0') is prepended to each ladder and visible
    frequencies are rescaled so a random allele is visible type a with
    probability (1 - q0) * q_a.  It never donates or receives stutter and
    has no observation factor.
    """
    if not 0.0 <= q0 < 1.0:
        raise ValueError(f"silent frequency must lie in [0, 1): {q0}")
    if q0 == 0.0:
        return freqs
    ladders = {}
    for marker, ladder in freqs.markers.items():
        if ladder.has_silent:
            raise ValueError(f"marker {marker!r} already has a silent allele")
        ladders[marker] = MarkerLadder(
            alleles=(SILENT_LABEL,) + ladder.alleles,
            frequencies=(q0,) + tuple((1.0 - q0) * q for q in ladder.frequencies),
        )
    return FrequencyTable(markers=ladders)


def stutter_successor(freqs: FrequencyTable, marker: str, allele: str) -> int | None:
    """Ladder index of the allele one repeat unit above, or None if absent.

    That allele is the donor of stutter into ``allele``; conversely
    ``allele`` loses stutter to the allele one repeat below.  Silent and
    non-numeric alleles take no part in stutter.
    """
    ladder = freqs.ladder(marker)
    donor = ladder.donor[ladder.index(allele)]
    return int(donor) if donor >= 0 else None
