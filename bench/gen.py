"""Seeded casework inputs for the mixref benchmark.

Writes each case as the files the ``mixref`` command line reads: a
frequency CSV, a profile CSV, a trace CSV, a case JSON and a parameter
JSON holding the parameters the peaks were drawn under.

Peak heights are drawn here, with numpy, from the model stated in
PAPER.md, and not with ``mixref.simulate_trace``: a later change to the
package's simulator must not change the benchmark's inputs.  At each
allele the height is Gamma(rho * d, eta) with

    d = (1 - xi) * B(a) + xi * B(a + 1),   B(a) = sum_i phi_i * n_i(a),

so a contributor with n copies of allele a at DNA fraction phi adds
shape rho * phi * n, of which a proportion xi moves to the allele one
repeat unit below.  Heights under the detection threshold C drop out.

The shape of a case (markers, ladder size, traces, contributors) is
fixed by its :class:`CaseShape`; the seed draws only the frequencies,
genotypes, parameters and heights.  The amount of chain work per case
is therefore the same for every seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THRESHOLD = 50.0
_MIN_FREQ = 0.01
_MIN_FRACTION = 0.04


@dataclass(frozen=True)
class CaseShape:
    """Size of a generated case; the seed never changes it."""

    markers: int
    alleles: int  # ladder size of every marker
    traces: int
    known: int
    unknown: int
    hypothesis: str  # id of the hypothesis the case JSON states


@dataclass(frozen=True)
class CaseFiles:
    """Paths of one case's input files, as passed to the command line."""

    freqs: Path
    profiles: Path
    traces: Path
    case: Path
    params: Path  # the parameters the case is queried at with --params
    hypothesis: str  # the hypothesis the case's jobs run under

    @classmethod
    def in_directory(cls, directory: Path, hypothesis: str) -> "CaseFiles":
        return cls(
            freqs=directory / "freqs.csv",
            profiles=directory / "profiles.csv",
            traces=directory / "traces.csv",
            case=directory / "case.json",
            params=directory / "params.json",
            hypothesis=hypothesis,
        )

    def input_args(self) -> list[str]:
        return [
            "--freqs", str(self.freqs),
            "--profiles", str(self.profiles),
            "--trace", str(self.traces),
            "--hypothesis", str(self.case),
        ]


def ladder(marker: int, size: int) -> list[str]:
    """Allele labels of one marker: consecutive repeats, one microvariant.

    Every third marker carries a '.3' microvariant in the middle of its
    ladder, which takes no part in stutter, so both the stutter-coupled
    and the uncoupled factor paths of the engine are exercised.
    """
    base = 8 + (marker % 5)
    labels = [str(base + i) for i in range(size)]
    if marker % 3 == 2:
        mid = size // 2
        labels[mid] = f"{base + mid - 1}.3"
    return labels


def _frequencies(rng, size):
    q = rng.dirichlet(np.full(size, 2.0))
    q = np.maximum(q, _MIN_FREQ)
    return q / q.sum()


def _fractions(rng, shape):
    """DNA fractions: knowns first, unknowns non-increasing, none tiny."""
    n = shape.known + shape.unknown
    w = _MIN_FRACTION + (1.0 - _MIN_FRACTION * n) * rng.dirichlet(np.full(n, 4.0))
    phi = list(w[: shape.known]) + sorted(w[shape.known:], reverse=True)
    phi[-1] = 1.0 - sum(phi[:-1])
    return phi


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def generate(shape: CaseShape, seed: int, directory: Path) -> CaseFiles:
    """Draw one case from ``seed`` and write its files into ``directory``."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    markers = [f"M{m + 1:02d}" for m in range(shape.markers)]
    ladders = {name: ladder(m, shape.alleles) for m, name in enumerate(markers)}
    freqs = {name: _frequencies(rng, shape.alleles) for name in markers}

    known = [f"K{i + 1}" for i in range(shape.known)]
    unknown = [f"U{i + 1}" for i in range(shape.unknown)]
    people = known + unknown
    genotypes = {
        who: {
            name: sorted(rng.choice(shape.alleles, size=2, p=freqs[name]))
            for name in markers
        }
        for who in people
    }

    eta = float(rng.uniform(20.0, 40.0))
    xi = float(rng.uniform(0.04, 0.09))
    phi = dict(zip(people, _fractions(rng, shape)))
    trace_ids = [f"T{i + 1}" for i in range(shape.traces)]
    rho = {tid: float(rng.uniform(800.0, 1600.0)) / eta for tid in trace_ids}

    peaks = []
    for tid in trace_ids:
        for name in markers:
            labels = ladders[name]
            dose = np.zeros(shape.alleles)
            for who in people:
                for a in genotypes[who][name]:
                    dose[a] += phi[who]
            donor = [
                labels.index(str(int(lab) + 1))
                if "." not in lab and str(int(lab) + 1) in labels else -1
                for lab in labels
            ]
            d = (1.0 - xi) * dose
            for p, s in enumerate(donor):
                if s >= 0:
                    d[p] += xi * dose[s]
            shapes = rho[tid] * d
            heights = np.where(shapes > 0, rng.gamma(np.maximum(shapes, 1e-300), eta), 0.0)
            row = [
                (labels[p], round(float(h), 1))
                for p, h in enumerate(heights)
                if round(float(h), 1) >= THRESHOLD
            ]
            # an empty marker stays covered through an explicit zero row
            peaks.extend((tid, name, lab, h) for lab, h in row or [(labels[0], 0.0)])

    files = CaseFiles.in_directory(directory, shape.hypothesis)
    _write_csv(
        files.freqs, ["marker", "allele", "frequency"],
        [(name, lab, _fmt(q)) for name in markers
         for lab, q in zip(ladders[name], freqs[name])],
    )
    _write_csv(
        files.profiles, ["individual", "marker", "allele1", "allele2"],
        [(who, name, ladders[name][g[0]], ladders[name][g[1]])
         for who in known for name, g in genotypes[who].items()],
    )
    _write_csv(files.traces, ["trace_id", "marker", "allele", "height"], peaks)
    case = {
        "hypotheses": {
            shape.hypothesis: {"known": known, "unknowns": shape.unknown},
        },
        "traces": {tid: {"threshold": THRESHOLD} for tid in trace_ids},
        "share": ["eta", "xi"],
    }
    files.case.write_text(json.dumps(case, indent=1) + "\n", encoding="utf-8")
    params = {
        "eta": eta,
        "xi": xi,
        "traces": {tid: {"rho": rho[tid], "phi": phi} for tid in trace_ids},
    }
    files.params.write_text(json.dumps(params, indent=1) + "\n", encoding="utf-8")
    return files


def _write_csv(path, header, rows):
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
