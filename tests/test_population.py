"""Allele ladders, genotype priors, chain conditionals, silent alleles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

import mixref as mx
from mixref.population import canonical_allele

from conftest import ladder_labels


def table(*pairs):
    return mx.FrequencyTable.from_dict({"M": dict(pairs)})


class TestLabels:
    def test_canonicalization(self):
        assert canonical_allele("16.0") == "16"
        assert canonical_allele("9.30") == "9.3"
        assert canonical_allele(" 9.3 ") == "9.3"
        assert canonical_allele("X") == "X"

    def test_ladder_sorted_by_repeat(self):
        t = table(("10", 0.2), ("9.3", 0.3), ("9", 0.5))
        assert t.ladder("M").alleles == ("9", "9.3", "10")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            mx.FrequencyTable.from_dict({"M": {"16": 0.5, "16.0": 0.5}})


class TestChainConditional:
    def test_equifrequent_first_position(self):
        t = table(("8", 0.5), ("9", 0.5))
        dist = mx.chain_conditional(0, 0, t, "M")
        assert dist == pytest.approx({0: 0.25, 1: 0.5, 2: 0.25})

    def test_exhausted_sum_is_point_mass(self):
        t = table(("8", 0.5), ("9", 0.5))
        assert mx.chain_conditional(1, 2, t, "M") == pytest.approx({0: 1.0})

    def test_binomial_rate_from_tail(self):
        t = table(("8", 0.2), ("9", 0.3), ("10", 0.5))
        dist = mx.chain_conditional(1, 1, t, "M")
        assert dist == pytest.approx({0: 0.625, 1: 0.375})

    def test_last_position_degenerate(self):
        t = table(("8", 0.2), ("9", 0.3), ("10", 0.5))
        assert mx.chain_conditional(2, 0, t, "M") == pytest.approx(
            {0: 0.0, 1: 0.0, 2: 1.0}
        )


class TestGenotypePrior:
    def test_homozygote(self):
        t = table(("8", 0.5), ("9", 0.5))
        assert mx.genotype_prior((2, 0), t, "M") == pytest.approx(0.25)

    def test_heterozygote(self):
        t = table(("8", 0.5), ("9", 0.5))
        assert mx.genotype_prior((1, 1), t, "M") == pytest.approx(0.5)

    def test_three_allele_het(self):
        t = table(("8", 0.1), ("9", 0.2), ("10", 0.7))
        assert mx.genotype_prior((1, 0, 1), t, "M") == pytest.approx(0.14)

    def test_rejects_bad_counts(self):
        t = table(("8", 0.5), ("9", 0.5))
        with pytest.raises(ValueError):
            mx.genotype_prior((1, 0), t, "M")

    @given(stn.integers(2, 6), stn.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_chain_product_equals_prior_and_sums_to_one(self, n, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        q = rng.dirichlet(np.ones(n))
        labels = [str(7 + i) for i in range(n)]
        t = mx.FrequencyTable.from_dict({"M": dict(zip(labels, q))})
        total = 0.0
        for i in range(n):
            for j in range(i, n):
                counts = [0] * n
                counts[i] += 1
                counts[j] += 1
                prior = mx.genotype_prior(counts, t, "M")
                # chain product over positions
                prod, s = 1.0, 0
                for pos in range(n):
                    dist = mx.chain_conditional(pos, s, t, "M")
                    prod *= dist.get(counts[pos], 0.0)
                    s += counts[pos]
                assert prod == pytest.approx(prior, rel=1e-12)
                total += prior
        assert total == pytest.approx(1.0, abs=1e-10)


class TestMatchProbability:
    def test_single_marker_homozygote(self):
        t = table(("8", 0.1), ("9", 0.9))
        profile = mx.GenotypeProfile.from_pairs({"M": ("8", "8")})
        pi = mx.match_probability(profile, t)
        assert pi == pytest.approx(0.01)
        assert -math.log10(pi) == pytest.approx(2.0)

    def test_product_over_markers(self):
        freqs = mx.FrequencyTable.from_dict(
            {"M1": {"8": 0.5, "9": 0.1, "10": 0.4},
             "M2": {"8": 0.5, "9": 0.1, "10": 0.4}}
        )
        profile = mx.GenotypeProfile.from_pairs(
            {"M1": ("8", "9"), "M2": ("8", "9")}
        )
        assert mx.match_probability(profile, freqs) == pytest.approx(0.01)

    def test_untyped_profile_rejected(self):
        t = table(("8", 1.0))
        with pytest.raises(ValueError):
            mx.match_probability(mx.GenotypeProfile(genotypes={}), t)


class TestSilent:
    def test_identity_at_zero(self):
        t = table(("8", 0.25), ("9", 0.75))
        assert mx.with_silent(t, 0.0) is t

    def test_single_allele(self):
        t = table(("8", 1.0))
        s = mx.with_silent(t, 0.5).ladder("M")
        assert s.alleles == ("0", "8")
        assert s.frequencies == pytest.approx((0.5, 0.5))

    def test_rescaling(self):
        t = table(("8", 0.25), ("9", 0.75))
        s = mx.with_silent(t, 0.02).ladder("M")
        assert s.alleles == ("0", "8", "9")
        assert s.frequencies == pytest.approx((0.02, 0.245, 0.735))

    @given(stn.floats(0.001, 0.9), stn.integers(2, 5),
           stn.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_mass_and_ratios_preserved(self, q0, n, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        q = rng.dirichlet(np.ones(n))
        labels = [str(7 + i) for i in range(n)]
        t = mx.FrequencyTable.from_dict({"M": dict(zip(labels, q))})
        s = mx.with_silent(t, q0).ladder("M")
        assert sum(s.frequencies) == pytest.approx(1.0, abs=1e-12)
        vis = s.frequencies[1:]
        for i in range(n - 1):
            assert vis[i] / vis[i + 1] == pytest.approx(q[i] / q[i + 1], rel=1e-9)


class TestStutterSuccessor:
    def test_plain_successor(self):
        t = mx.FrequencyTable.from_dict(
            {"M": {"22": 0.3, "23": 0.3, "24": 0.4}}
        )
        ladder = t.ladder("M")
        idx = mx.stutter_successor(t, "M", "23")
        assert ladder.alleles[idx] == "24"

    def test_top_of_ladder(self):
        t = mx.FrequencyTable.from_dict(
            {"M": {"22": 0.3, "23": 0.3, "24": 0.4}}
        )
        assert mx.stutter_successor(t, "M", "24") is None

    def test_fractional_repeats(self):
        t = mx.FrequencyTable.from_dict(
            {"M": {"7": 0.1, "8": 0.2, "9": 0.2, "9.3": 0.3, "10": 0.2}}
        )
        ladder = t.ladder("M")
        # integer alleles skip over the fractional one
        assert ladder.alleles[mx.stutter_successor(t, "M", "9")] == "10"
        # 9.3's donor would be 10.3, absent here
        assert mx.stutter_successor(t, "M", "9.3") is None

    def test_fractional_donor_present(self):
        t = mx.FrequencyTable.from_dict({"M": {"9.3": 0.5, "10.3": 0.5}})
        ladder = t.ladder("M")
        assert ladder.alleles[mx.stutter_successor(t, "M", "9.3")] == "10.3"

    def test_ladder_gap_breaks_stutter(self):
        t = mx.FrequencyTable.from_dict({"M": {"7": 0.5, "9": 0.5}})
        assert mx.stutter_successor(t, "M", "7") is None

    def test_silent_takes_no_part(self):
        t = mx.with_silent(table(("8", 0.5), ("9", 0.5)), 0.1)
        assert mx.stutter_successor(t, "M", "0") is None

    def test_unknown_allele_rejected(self):
        t = table(("8", 0.5), ("9", 0.5))
        with pytest.raises(KeyError):
            mx.stutter_successor(t, "M", "12")


@stn.composite
def stutter_ladders(draw):
    """Tables whose one ladder has gaps, microvariants, X/Y and maybe a silent allele."""
    repeats = draw(stn.lists(stn.integers(5, 20), min_size=1, max_size=8, unique=True))
    labels = []
    for r in repeats:
        if draw(stn.booleans()):
            labels.append(str(r))
        suffixes = draw(stn.lists(stn.sampled_from("123"), unique=True, max_size=2))
        labels += [f"{r}.{f}" for f in suffixes]
    labels += draw(stn.lists(stn.sampled_from(["X", "Y"]), unique=True))
    labels = draw(stn.permutations(labels or [str(repeats[0])]))
    freqs = table(*((lab, 1.0 / len(labels)) for lab in labels))
    return mx.with_silent(freqs, 0.05) if draw(stn.booleans()) else freqs


def expected_donor(alleles, i):
    """The donor of x.y is (x+1).y; silent and non-numeric alleles have none."""
    label = alleles[i]
    if label in ("0", "X", "Y"):
        return -1
    whole, dot, frac = label.partition(".")
    donor = f"{int(whole) + 1}{dot}{frac}"
    return alleles.index(donor) if donor in alleles else -1


def expected_position_key(alleles, i):
    """Silent first, numeric by (fractional part, repeat, index), then the rest."""
    label = alleles[i]
    if label == "0":
        return (0,)
    if label in ("X", "Y"):
        return (2, i)
    rep = Fraction(label)
    return (1, rep - int(rep), rep, i)


def reference_ladder_key(label):
    """The ladder sort key as repeat numbers were once read, by Fraction."""
    try:
        rep = Fraction(label)
    except (ValueError, ZeroDivisionError):
        rep = None
    if label == "0":
        return (0, Fraction(0), "")
    if rep is None:
        return (2, Fraction(0), label)
    return (1, rep, "")


def reference_structure(alleles):
    """(donor, order, coupled) with every label parsed by Fraction."""
    index = {label: i for i, label in enumerate(alleles)}
    donor = [-1] * len(alleles)
    silent, numeric, other = [], [], []
    for i, label in enumerate(alleles):
        if label == "0":
            silent.append(i)
            continue
        try:
            rep = Fraction(label)
        except ValueError:
            other.append(i)
            continue
        numeric.append((rep - int(rep), rep, i))
        whole, dot, frac = label.partition(".")
        donor[i] = index.get(f"{int(whole) + 1}{dot}{frac}", -1)
    numeric.sort()
    order = silent + [i for _, _, i in numeric] + other
    coupled = [donor[order[p]] == order[p + 1] for p in range(len(order) - 1)]
    return donor, order, coupled + [False]


class TestLaddersAgainstFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(ladder_labels(), stn.data())
    def test_table_and_ladder_match_the_fraction_parse(self, labels, data):
        weights = data.draw(stn.lists(stn.floats(0.1, 1.0), min_size=len(labels),
                                      max_size=len(labels)))
        freqs = dict(zip(labels, np.array(weights) / sum(weights)))
        ranked = sorted(labels, key=reference_ladder_key)
        donor, order, coupled = reference_structure(ranked)
        if sum(coupled) != sum(d >= 0 for d in donor):
            with pytest.raises(ValueError, match="traversal order"):
                mx.FrequencyTable.from_dict({"M": freqs})
            return
        ladder = mx.FrequencyTable.from_dict({"M": freqs}).ladder("M")
        assert ladder.alleles == tuple(ranked)
        assert ladder.frequencies == tuple(freqs[a] for a in ranked)
        assert ladder.donor.tolist() == donor
        assert ladder.order.tolist() == order
        assert ladder.coupled.tolist() == coupled
        # a ladder built directly, in any order, parses its labels alike
        mixed = data.draw(stn.permutations(ranked))
        direct = mx.population.MarkerLadder(
            alleles=tuple(mixed), frequencies=tuple(freqs[a] for a in mixed)
        )
        donor, order, coupled = reference_structure(mixed)
        assert direct.donor.tolist() == donor
        assert direct.order.tolist() == order
        assert direct.coupled.tolist() == coupled
        for label in labels:
            assert mx.population.allele_repeat(label) == (
                None if reference_ladder_key(label)[0] == 2 else Fraction(label)
            )

    def test_profile_alleles_sorted_as_the_ladder(self):
        profile = mx.GenotypeProfile.from_pairs({"M": ("X", "9.3"), "N": ("10", "9.12")})
        assert profile.genotypes == {"M": ("9.3", "X"), "N": ("9.12", "10")}


class TestLadderStutterStructure:
    @settings(max_examples=200, deadline=None)
    @given(stutter_ladders())
    def test_every_donor_follows_its_recipient(self, freqs):
        ladder = freqs.ladder("M")
        n = len(ladder.alleles)
        order = ladder.order.tolist()
        assert sorted(order) == list(range(n))
        assert order == sorted(
            range(n), key=lambda i: expected_position_key(ladder.alleles, i)
        )
        position = {i: p for p, i in enumerate(order)}
        for i, donor in enumerate(ladder.donor.tolist()):
            assert donor == expected_donor(ladder.alleles, i)
            if donor >= 0:
                assert position[donor] == position[i] + 1
            successor = mx.stutter_successor(freqs, "M", ladder.alleles[i])
            assert successor == (donor if donor >= 0 else None)
        assert ladder.coupled.tolist() == [
            p + 1 < n and ladder.donor[order[p]] == order[p + 1] for p in range(n)
        ]

    @pytest.mark.parametrize("freqs, donors", [
        (table(("22", 0.3), ("23", 0.3), ("24", 0.4)),
         {"22": "23", "23": "24", "24": None}),
        (table(("7", 0.1), ("8", 0.2), ("9", 0.2), ("9.3", 0.3), ("10", 0.2)),
         {"7": "8", "8": "9", "9": "10", "9.3": None, "10": None}),
        (table(("9.3", 0.5), ("10.3", 0.5)), {"9.3": "10.3", "10.3": None}),
        (table(("7", 0.5), ("9", 0.5)), {"7": None, "9": None}),
        (mx.with_silent(table(("8", 0.5), ("9", 0.5)), 0.1),
         {"0": None, "8": "9", "9": None}),
    ])
    def test_donor_matches_pinned_successors(self, freqs, donors):
        ladder = freqs.ladder("M")
        got = {
            lab: ladder.alleles[d] if d >= 0 else None
            for lab, d in zip(ladder.alleles, ladder.donor.tolist())
        }
        assert got == donors

    def test_structure_is_read_only(self):
        ladder = table(("8", 0.5), ("9", 0.5)).ladder("M")
        for array in (ladder.donor, ladder.order, ladder.coupled):
            with pytest.raises(ValueError):
                array[0] = array[-1]

    def test_donor_out_of_traversal_order_rejected(self):
        # "09" and "9" have the same repeat, so the donor "9" of "8" cannot
        # follow it directly
        with pytest.raises(ValueError, match="traversal order"):
            table(("8", 0.3), ("09", 0.3), ("9", 0.2), ("10", 0.2))
