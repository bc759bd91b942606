"""CSV and JSON ingestion and report rendering.

File formats (UTF-8, with or without a leading byte-order mark):

* frequency CSV: marker, allele, frequency
* profile CSV: individual, marker, allele1, allele2
* trace CSV: trace_id, marker, allele, height
* case JSON: hypotheses (known ids, unknown count or labels, optional
  per-trace roles), per-trace thresholds, optional silent frequency and
  sharing constraints
* parameter JSON: xi and eta (global or per trace), per-trace mu/sigma
  or rho, and per-trace phi

Each CSV starts with a header naming at least its columns, in any order,
and every row holds exactly one field per header column; blank lines are
skipped.  A row of another length or with a malformed value is a
LoadError naming the file and the line the row starts on, and bytes that
are not UTF-8 are one naming the file alone (see _csv_rows).  A JSON
document may hold only the keys named here, at each level; any other key
is a LoadError naming its path.  The CLI reports a LoadError as
``load_error`` with exit code 2.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .engine import Hypothesis, Trace, check_unknown_count
from .peakmodel import ModelParameters
from .population import FrequencyTable, GenotypeProfile, canonical_allele

__all__ = [
    "LoadError",
    "read_json",
    "load_frequency_table",
    "load_profiles",
    "read_trace_rows",
    "build_traces",
    "write_trace_csv",
    "CaseDefinition",
    "load_case_definition",
    "parameters_from_json",
    "parameters_to_json",
    "fit_report",
    "render_fit_table",
]


class LoadError(ValueError):
    """A data file is missing, malformed, or internally inconsistent."""


def _open_input(path, what):
    """The input file ``path`` (``what`` names it) opened as UTF-8 text,
    less a leading byte-order mark; a LoadError naming the path where it
    is missing or cannot be opened, such as a directory or a file that
    may not be read."""
    path = Path(path)
    try:
        return path.open(newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise LoadError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise LoadError(f"{what} {path} cannot be read: {exc.strerror}") from None


def read_json(path, what):
    """The JSON document in the input file ``path`` (see _open_input); text
    that is not JSON, or not UTF-8, is a LoadError naming the path."""
    with _open_input(path, what) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
            raise LoadError(f"{path}: invalid JSON: {exc}") from None


def _csv_rows(path, what, columns):
    """The rows of the CSV input ``path`` (``what`` names it), each as
    (line, {column: field}), ``line`` being the line the row starts on;
    blank lines are skipped.

    The header must name every one of ``columns`` (surrounding spaces
    aside) and no column twice, and every row must hold exactly one field
    per header column.  Any other file is a LoadError naming the path
    and, for a row, its line; text that is not UTF-8 one naming the path
    alone (the decoder reads ahead of the rows).
    """
    with _open_input(path, what) as handle:
        reader, line = csv.reader(handle), 1
        try:
            header = next(reader, None)
            if header is None:
                raise LoadError(f"{what} {path} is empty")
            header = [c.strip() for c in header]
            missing = set(columns) - set(header)
            if missing:
                raise LoadError(f"{path}: missing columns {sorted(missing)}")
            twice = sorted({c for c in header if header.count(c) > 1})
            if twice:
                raise LoadError(f"{path}: columns named more than once {twice}")
            line = reader.line_num + 1
            for fields in reader:
                if fields:
                    if len(fields) != len(header):
                        raise LoadError(
                            f"{path}:{line}: {len(fields)} fields where the header "
                            f"has {len(header)}: {fields}"
                        )
                    yield line, dict(zip(header, fields))
                line = reader.line_num + 1
        except csv.Error as exc:
            raise LoadError(f"{path}:{line}: malformed CSV: {exc}") from None
        except UnicodeDecodeError as exc:
            raise LoadError(f"{what} {path} is not UTF-8 text: {exc.reason}") from None


def load_frequency_table(path) -> FrequencyTable:
    """Read a frequency CSV; per-marker frequencies are normalized to sum 1.

    A deviation of the raw sum from 1 beyond 5% is an error; smaller
    deviations are rescaled (with a warning beyond 1e-6).
    """
    data: dict[str, dict[str, float]] = {}
    for i, row in _csv_rows(path, "frequency table", ("marker", "allele", "frequency")):
        try:
            marker = row["marker"].strip()
            allele = canonical_allele(row["allele"])
            freq = float(row["frequency"])
        except ValueError as exc:
            raise LoadError(f"{path}:{i}: bad frequency row: {row}") from exc
        if not (math.isfinite(freq) and freq > 0):
            raise LoadError(f"{path}:{i}: frequency must be positive and finite: {freq}")
        if allele in data.setdefault(marker, {}):
            raise LoadError(f"{path}:{i}: duplicate allele {allele} for {marker}")
        data[marker][allele] = freq
    if not data:
        raise LoadError(f"frequency table {path} has no rows")
    for marker, freqs in data.items():
        total = sum(freqs.values())
        if abs(total - 1.0) > 0.05:
            raise LoadError(
                f"frequencies for {marker!r} sum to {total:.4f}; not a distribution"
            )
        if abs(total - 1.0) > 1e-6:
            warnings.warn(
                f"frequencies for {marker!r} sum to {total:.6f}; rescaling to 1",
                stacklevel=2,
            )
        data[marker] = {a: q / total for a, q in freqs.items()}
    return FrequencyTable.from_dict(data)


def load_profiles(path) -> dict[str, GenotypeProfile]:
    """Read a profile CSV into {individual: GenotypeProfile}."""
    rows: dict[str, dict[str, tuple[str, str]]] = {}
    columns = ("individual", "marker", "allele1", "allele2")
    for i, row in _csv_rows(path, "profile file", columns):
        who, marker = row["individual"].strip(), row["marker"].strip()
        if marker in rows.setdefault(who, {}):
            raise LoadError(f"{path}:{i}: duplicate marker {marker} for {who}")
        rows[who][marker] = (row["allele1"], row["allele2"])
    return {
        who: GenotypeProfile.from_pairs(markers) for who, markers in rows.items()
    }


def read_trace_rows(path) -> dict[str, dict[str, dict[str, float]]]:
    """Read a trace CSV into {trace_id: {marker: {allele: height}}}."""
    rows: dict[str, dict[str, dict[str, float]]] = {}
    for i, row in _csv_rows(path, "trace file", ("trace_id", "marker", "allele", "height")):
        try:
            tid = row["trace_id"].strip()
            marker = row["marker"].strip()
            allele = canonical_allele(row["allele"])
            height = float(row["height"])
        except ValueError as exc:
            raise LoadError(f"{path}:{i}: bad trace row: {row}") from exc
        if not math.isfinite(height) or height < 0:
            raise LoadError(
                f"{path}:{i}: height must be finite and nonnegative, got {height}"
            )
        marker_rows = rows.setdefault(tid, {}).setdefault(marker, {})
        if allele in marker_rows:
            raise LoadError(f"{path}:{i}: duplicate height for {tid}/{marker}/{allele}")
        marker_rows[allele] = height
    return rows


def build_traces(
    rows: Mapping[str, Mapping[str, Mapping[str, float]]],
    thresholds: Mapping[str, float],
) -> tuple[Trace, ...]:
    """Assemble Trace records, zeroing sub-threshold heights with a warning."""
    traces = []
    for tid, markers in rows.items():
        if tid not in thresholds:
            raise LoadError(f"no detection threshold given for trace {tid!r}")
        c = float(thresholds[tid])
        cleaned = {}
        for marker, peaks in markers.items():
            row = {}
            for allele, h in peaks.items():
                if 0.0 < h < c:
                    warnings.warn(
                        f"{tid}/{marker}/{allele}: height {h} below threshold "
                        f"{c}; treated as dropout (height 0)",
                        stacklevel=2,
                    )
                    h = 0.0
                row[allele] = h
            cleaned[marker] = row
        traces.append(Trace(trace_id=tid, threshold=c, heights=cleaned))
    return tuple(traces)


def write_trace_csv(traces: Sequence[Trace], path) -> None:
    """Emit traces in the ingestion schema, one row per recorded peak."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trace_id", "marker", "allele", "height"])
        for trace in traces:
            for marker in trace.markers():
                for allele, h in trace.heights[marker].items():
                    writer.writerow([trace.trace_id, marker, allele, h])


# ---------------------------------------------------------------------------
# Case definition JSON


_CASE_KEYS = frozenset({"hypotheses", "traces", "share", "q0"})
_CASE_TRACE_KEYS = frozenset({"threshold"})
_HYPOTHESIS_KEYS = frozenset({"known", "unknowns", "trace_roles"})
_PARAMETER_KEYS = frozenset({"traces", "eta", "xi", "marker_rho", "marker_xi"})
_PARAMETER_TRACE_KEYS = frozenset({"rho", "eta", "mu", "sigma", "xi", "phi"})
_AGREEMENT = 1e-9  # relative tolerance of values stated more than once


def _known_keys(doc, allowed, document, at=""):
    """Refuse keys of the JSON object ``doc`` outside ``allowed``: a
    LoadError naming each by its path in ``document``, ``at`` being the
    object's own path."""
    unknown = [k for k in doc if k not in allowed]
    if unknown:
        paths = ", ".join(f"{at}[{k!r}]" if at else repr(k) for k in unknown)
        raise LoadError(
            f"{document}: unknown key {paths} (allowed: {', '.join(sorted(allowed))})"
        )


@dataclass(frozen=True)
class CaseDefinition:
    """Parsed case JSON: hypotheses by id plus per-trace thresholds."""

    hypotheses: Mapping[str, Mapping[str, object]]
    thresholds: Mapping[str, float]
    q0: float
    share: tuple[str, ...] | None


def load_case_definition(path) -> CaseDefinition:
    """Read a case JSON; a value of the wrong type is a LoadError naming its key."""
    doc = read_json(path, "hypothesis file")
    if not isinstance(doc, Mapping) or not isinstance(doc.get("hypotheses"), Mapping):
        raise LoadError(f"{path}: needs a 'hypotheses' object")
    document = f"case JSON {path}"
    _known_keys(doc, _CASE_KEYS, document)
    for hid, spec in doc["hypotheses"].items():
        _known_keys(_object(spec, f"hypothesis {hid!r}"), _HYPOTHESIS_KEYS, document,
                    f"['hypotheses'][{hid!r}]")
    thresholds = {}
    for tid, spec in _object(doc.get("traces") or {}, "'traces'").items():
        spec = _object(spec, f"trace {tid!r}")
        _known_keys(spec, _CASE_TRACE_KEYS, document, f"['traces'][{tid!r}]")
        if "threshold" in spec:
            thresholds[tid] = _number(spec["threshold"], f"trace {tid!r}: threshold")
    share = doc.get("share")
    return CaseDefinition(
        hypotheses=doc["hypotheses"],
        thresholds=thresholds,
        q0=_number(doc.get("q0", 0.0), "q0"),
        share=_strings(share, "share") if share is not None else None,
    )


def build_hypothesis(
    spec: Mapping[str, object], profiles: Mapping[str, GenotypeProfile]
) -> Hypothesis:
    """Instantiate one hypothesis block against loaded profiles.

    known is a list of individuals; unknowns a count or a list of labels;
    trace_roles, optional, maps trace ids to the roles they hold.
    """
    _known_keys(_object(spec, "hypothesis"), _HYPOTHESIS_KEYS, "hypothesis")
    known_ids = _strings(spec.get("known", []), "hypothesis: known")
    missing = [k for k in known_ids if k not in profiles]
    if missing:
        raise LoadError(f"hypothesis references unknown individuals {missing}")
    repeated = sorted({k for k in known_ids if known_ids.count(k) > 1})
    if repeated:
        raise LoadError(f"hypothesis lists known individuals more than once: {repeated}")
    unknowns = spec.get("unknowns", 0)
    is_list = isinstance(unknowns, (list, tuple))
    if not is_list and not (
        isinstance(unknowns, int) and not isinstance(unknowns, bool) and unknowns >= 0
    ):
        raise LoadError(
            "hypothesis: unknowns must be a count of at least 0 or a list of labels, "
            f"got {unknowns!r}"
        )
    try:
        check_unknown_count(len(unknowns) if is_list else unknowns)
    except ValueError as exc:
        raise LoadError(f"hypothesis: {exc}") from None
    if is_list:
        labels = _strings(unknowns, "hypothesis: unknowns")
    else:
        labels = tuple(f"U{i+1}" for i in range(unknowns))
    trace_roles = _object(spec.get("trace_roles") or {}, "hypothesis: trace_roles")
    return Hypothesis(
        known={k: profiles[k] for k in known_ids},
        unknown=labels,
        trace_roles={
            t: _strings(r, f"hypothesis: trace_roles[{t}]")
            for t, r in trace_roles.items()
        } or None,
    )


# ---------------------------------------------------------------------------
# Parameter JSON


def _number(value, where):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise LoadError(f"{where} must be a number, got {value!r}")


def _object(value, where):
    if not isinstance(value, Mapping):
        raise LoadError(f"{where} must be a JSON object, got {value!r}")
    return value


def _strings(value, where):
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise LoadError(f"{where} must be a list of strings, got {value!r}")


def parameters_from_json(doc: Mapping[str, object]) -> ModelParameters:
    """Parse a parameter document, or the 'parameters' block of a fit report.

    Per trace, rho may be given directly, or derived as mu/eta when eta is
    stated (globally or per trace), or as 1/sigma^2 with eta = mu*sigma^2.
    Values stated beyond those needed (mu = rho eta, sigma = rho^(-1/2))
    must agree with them to a relative 1e-9, as a fit report's do.  A
    value of the wrong type, an unknown key or a disagreement is a
    LoadError naming its trace and key.
    """
    at = ""
    if isinstance(doc, Mapping) and "parameters" in doc:
        doc, at = doc["parameters"], "['parameters']"
    doc = _object(doc, "parameter JSON")
    if "traces" not in doc:
        raise LoadError("parameter JSON needs a 'traces' object")
    _known_keys(doc, _PARAMETER_KEYS, "parameter JSON", at)
    global_eta = doc.get("eta")
    global_xi = doc.get("xi")
    rho, eta, xi, phi = {}, {}, {}, {}
    for tid, tr in _object(doc["traces"], "'traces'").items():
        tr = _object(tr, f"trace {tid!r}")
        _known_keys(tr, _PARAMETER_TRACE_KEYS, "parameter JSON", f"{at}['traces'][{tid!r}]")

        def num(key, value=None):
            return _number(tr[key] if value is None else value, f"trace {tid!r}: {key}")

        def positive(key, value=None):  # a divisor below
            x = num(key, value)
            if not x > 0:
                raise LoadError(f"trace {tid!r}: {key} must be positive, got {x}")
            return x

        t_eta = tr.get("eta", global_eta)
        if t_eta is None and "mu" in tr and "sigma" in tr:
            t_eta = num("mu") * num("sigma") ** 2
        if t_eta is None:
            raise LoadError(f"trace {tid!r}: no eta (directly or via mu, sigma)")
        t_eta = positive("eta", t_eta)
        if "rho" in tr:
            t_rho = num("rho")
        elif "mu" in tr:
            t_rho = num("mu") / t_eta
        elif "sigma" in tr:
            t_rho = 1.0 / positive("sigma") ** 2
        else:
            raise LoadError(f"trace {tid!r}: no rho, mu, or sigma")
        implied = {"mu": t_rho * t_eta,
                   "sigma": 1.0 / math.sqrt(t_rho) if t_rho > 0 else math.nan}
        for key, value in implied.items():
            if key in tr and not math.isclose(num(key), value, rel_tol=_AGREEMENT):
                raise LoadError(
                    f"trace {tid!r}: {key} {num(key)} disagrees with the {value} "
                    f"its other values give (relative tolerance {_AGREEMENT})"
                )
        t_xi = tr.get("xi", global_xi)
        if t_xi is None:
            raise LoadError(f"trace {tid!r}: no xi (directly or globally)")
        if "phi" not in tr:
            raise LoadError(f"trace {tid!r}: no phi")
        rho[tid] = t_rho
        eta[tid] = t_eta
        xi[tid] = num("xi", t_xi)
        phi[tid] = {
            str(r): num(f"phi[{r}]", v)
            for r, v in _object(tr["phi"], f"trace {tid!r}: phi").items()
        }
    marker_rho = {
        m: {t: _number(v, f"marker_rho[{m}][{t}]")
            for t, v in _object(over, f"marker_rho[{m}]").items()}
        for m, over in _object(doc.get("marker_rho") or {}, "marker_rho").items()
    }
    marker_xi = {
        m: _number(v, f"marker_xi[{m}]")
        for m, v in _object(doc.get("marker_xi") or {}, "marker_xi").items()
    }
    return ModelParameters(
        rho=rho,
        eta=eta,
        xi=xi,
        phi=phi,
        marker_rho=marker_rho or None,
        marker_xi=marker_xi or None,
    )


def parameters_to_json(params: ModelParameters) -> dict:
    out = {"traces": {}}
    for tid in params.rho:
        out["traces"][tid] = {
            "rho": params.rho[tid],
            "eta": params.eta_for(tid),
            "mu": params.mu_for(tid),
            "sigma": params.sigma_for(tid),
            "xi": params.xi_for(tid),
            "phi": dict(params.phi[tid]),
        }
    if params.marker_rho:
        out["marker_rho"] = {m: dict(v) for m, v in params.marker_rho.items()}
    if params.marker_xi:
        out["marker_xi"] = dict(params.marker_xi)
    return out


# ---------------------------------------------------------------------------
# Fit reports


def fit_report(result, hypothesis_id=None) -> dict:
    """JSON-serializable report: estimate/SE/boundary per parameter per trace."""
    ses = result.standard_errors
    report = {
        "hypothesis": hypothesis_id or result.hypothesis_id,
        "log10_likelihood": result.log10_likelihood,
        "converged": result.converged,
        "iterations": result.iterations,
        "evaluations": result.n_evaluations,
        "gradient_norm": result.final_gradient_norm,
        "traces": {},
    }
    for tid, est in result.estimates.items():
        se = (ses or {}).get(tid, {})
        flags = result.boundary.get(tid, {})
        block = {}
        for name in ("mu", "sigma", "xi"):
            block[name] = {
                "estimate": est[name],
                "se": se.get(name),
                "boundary": bool(flags.get(name, False)),
            }
        block["phi"] = {
            role: {
                "estimate": val,
                "se": (se.get("phi") or {}).get(role),
                "boundary": bool((flags.get("phi") or {}).get(role, False)),
            }
            for role, val in est["phi"].items()
        }
        report["traces"][tid] = block
    report["parameters"] = parameters_to_json(result.parameters)
    return report


def _fmt(x, kind="estimate"):
    if x is None:
        return "-"
    if kind == "prob":
        return f"{x:.3f}"
    if kind == "bans":
        return f"{x:.1f}"
    return f"{float(x):.3g}"


def render_fit_table(report: Mapping[str, object]) -> str:
    """Text table (Parameter / Est. / SE per trace) from a fit report dict."""
    traces = list(report["traces"])
    rows = []
    param_names = ["mu", "sigma", "xi"]
    roles = []
    for tid in traces:
        for role in report["traces"][tid]["phi"]:
            if role not in roles:
                roles.append(role)
    header = ["Parameter"]
    for tid in traces:
        header += [f"{tid} Est.", f"{tid} SE"]
    rows.append(header)
    for name in param_names:
        row = [name]
        for tid in traces:
            cell = report["traces"][tid].get(name)
            row += [_fmt(cell["estimate"]), _fmt(cell["se"])]
            if cell.get("boundary"):
                row[-2] += "*"
        rows.append(row)
    for role in roles:
        row = [f"phi[{role}]"]
        for tid in traces:
            cell = (report["traces"][tid]["phi"] or {}).get(role)
            if cell is None:
                row += ["-", "-"]
            else:
                row += [_fmt(cell["estimate"]), _fmt(cell["se"])]
                if cell.get("boundary"):
                    row[-2] += "*"
        rows.append(row)
    rows.append(
        ["log10 L", _fmt(report["log10_likelihood"], "bans")]
        + [""] * (2 * len(traces) - 1)
    )
    widths = [max(len(str(r[i])) for r in rows if i < len(r)) for i in range(len(header))]
    lines = []
    for r in rows:
        line = "  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
        lines.append(line)
    note = "* at or near a parameter-space boundary (restricted-model SE or none)"
    if any("*" in str(c) for r in rows for c in r):
        lines.append(note)
    return "\n".join(lines)
