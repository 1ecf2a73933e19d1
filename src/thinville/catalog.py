"""Catalog of concrete groups and the full analysis report.

Entries come from two sources: builtin constructions (elementary
abelian squares, homocyclic squares, Heisenberg groups) and
presentation files shipped under data/.  Ingested files carry
provenance and expectation headers; the structural expectations are
recomputed and enforced at load time, so a stale or corrupted file
fails fast.  The Beauville expectation involves a search, so it is
recorded on the entry and checked by the theorem suites rather than on
every load.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib.resources import files as _package_files

from .pcgroup import PcPresentation, parse_presentation
from .structure import (
    agemo,
    center,
    exponent_p_maximal_count,
    frattini_quotient,
    is_maximal_class,
    is_metabelian,
    is_thin,
    lattice_profile,
    lower_central_series,
    nilpotency_class,
    place_depth,
)
from .beauville import beauville, classify_theorem_a


class CatalogError(ValueError):
    """Unknown id, bad file, or an expectation that fails on load."""


class UnknownTargetError(CatalogError):
    """The requested id names nothing: not a builtin, not a shipped
    entry, not a readable file.  Callers treat this as a usage error."""


# ----------------------------------------------------------------------
# builtin constructions

_BUILTIN_RE = re.compile(
    r"^(?:(elab)-(\d+)|(heisenberg)-(\d+)|(cpk2)-(\d+)-(\d+))$")


def _elementary_abelian(p):
    return PcPresentation(p, 2)


def _heisenberg(p):
    if p == 2:
        raise CatalogError("the exponent-p Heisenberg construction "
                           "needs an odd prime")
    return PcPresentation(p, 3, commutators={(2, 1): [(3, 1)]})


def _homocyclic_square(p, k):
    # two power chains of length k: g1 -> g3 -> g5 ... , g2 -> g4 -> ...
    powers = {}
    for step in range(k - 1):
        powers[2 * step + 1] = [(2 * step + 3, 1)]
        powers[2 * step + 2] = [(2 * step + 4, 1)]
    return PcPresentation(p, 2 * k, powers=powers)


def builtin(entry_id: str) -> PcPresentation:
    m = _BUILTIN_RE.match(entry_id)
    if not m:
        raise CatalogError(f"unknown builtin id: {entry_id!r}")
    try:
        if m.group(1):
            return _elementary_abelian(int(m.group(2)))
        if m.group(3):
            return _heisenberg(int(m.group(4)))
        p, k = int(m.group(6)), int(m.group(7))
        if k < 1:
            raise CatalogError("tower height must be at least 1")
        return _homocyclic_square(p, k)
    except CatalogError:
        raise
    except ValueError as err:
        raise CatalogError(f"bad builtin id {entry_id!r}: {err}") from err


def is_builtin_id(entry_id: str) -> bool:
    return bool(_BUILTIN_RE.match(entry_id))


#: the fixed builtin set the suites iterate over
BUILTIN_IDS = (
    "elab-3", "elab-5", "elab-7",
    "heisenberg-3", "heisenberg-5", "heisenberg-7",
    "cpk2-3-2", "cpk2-5-2",
)


# ----------------------------------------------------------------------
# entries and ingestion

@dataclass
class CatalogEntry:
    id: str
    source: str                  # "builtin" or the file path
    provenance: str
    expects: dict                # key -> int | bool
    presentation: PcPresentation


_EXPECT_INT_KEYS = ("order", "class", "center_order")
_EXPECT_BOOL_KEYS = ("metabelian", "maximal_class", "thin", "beauville")


def _parse_expects(text):
    out = {}
    for token in text.split():
        if "=" not in token:
            raise CatalogError(f"malformed expect token: {token!r}")
        key, raw = token.split("=", 1)
        if key in _EXPECT_INT_KEYS:
            out[key] = int(raw)
        elif key in _EXPECT_BOOL_KEYS:
            if raw not in ("true", "false"):
                raise CatalogError(f"expect {key} must be true/false, "
                                   f"got {raw!r}")
            out[key] = raw == "true"
        else:
            raise CatalogError(f"unknown expect key: {key!r}")
    return out


def _structural_value(pres, key, budget=None):
    if key == "order":
        return pres.order
    if key == "class":
        return nilpotency_class(pres)
    if key == "center_order":
        return center(pres).order
    if key == "metabelian":
        return is_metabelian(pres)
    if key == "maximal_class":
        return is_maximal_class(pres)
    if key == "thin":
        return bool(is_thin(pres, budget).thin)
    raise AssertionError(key)


def check_structural_expects(entry: CatalogEntry, budget=None):
    """Recompute every non-search expectation; raise on mismatch.  The
    budget reaches the thinness test."""
    for key, want in sorted(entry.expects.items()):
        if key == "beauville":
            continue
        got = _structural_value(entry.presentation, key, budget)
        if got != want:
            raise CatalogError(
                f"{entry.id}: expected {key}={want}, presentation "
                f"has {key}={got}")


def ingest(path: str, check: bool = True, budget=None) -> CatalogEntry:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise CatalogError(f"cannot read {path}: {err}") from None
    provenance = ""
    expects = {}
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("# provenance:"):
            provenance = s[len("# provenance:"):].strip()
        elif s.startswith("# expect:"):
            expects = _parse_expects(s[len("# expect:"):])
    try:
        pres = parse_presentation(text)
    except ValueError as err:
        raise CatalogError(f"{path}: {err}") from None
    report = pres.consistency_report()
    if not report.consistent:
        raise CatalogError(
            f"{path}: presentation fails its consistency check "
            f"({len(report.failures)} overlap relations disagree)")
    stem = path.rsplit("/", 1)[-1]
    if stem.endswith(".pc"):
        stem = stem[:-3]
    entry = CatalogEntry(stem, path, provenance, expects, pres)
    if check:
        check_structural_expects(entry, budget)
    return entry


def data_entry_paths():
    """Shipped .pc files, sorted by id."""
    root = _package_files("thinville").joinpath("data")
    if not root.is_dir():
        return []
    return sorted(str(f) for f in root.iterdir() if f.name.endswith(".pc"))


def catalog_entries(budget=None):
    """All shipped entries: the builtin set, then the data files; the
    budget reaches the load-time checks of the data files."""
    out = []
    for entry_id in BUILTIN_IDS:
        out.append(CatalogEntry(entry_id, "builtin", "builtin construction",
                                {}, builtin(entry_id)))
    for path in data_entry_paths():
        out.append(ingest(path, budget=budget))
    return out


def resolve(target: str, budget=None) -> CatalogEntry:
    """Find a target by builtin id, shipped-file id, or filesystem path;
    the budget reaches the load-time checks of an ingested file."""
    if is_builtin_id(target):
        return CatalogEntry(target, "builtin", "builtin construction",
                            {}, builtin(target))
    for path in data_entry_paths():
        stem = path.rsplit("/", 1)[-1][:-3]
        if stem == target:
            return ingest(path, budget=budget)
    try:
        with open(target):
            pass
    except OSError:
        raise UnknownTargetError(
            f"unknown catalog target: {target!r}") from None
    return ingest(target, budget=budget)


# ----------------------------------------------------------------------
# analysis report

@dataclass
class AnalysisReport:
    entry_id: str
    order: int
    log_order: int
    prime: int
    nilpotency_class: int
    widths: tuple
    metabelian: bool
    maximal_class: bool
    thin: bool
    power_subgroup_order: int
    place_depth: int
    profile_tags: tuple | None       # None for a group that is not thin
    ends_with_chain: bool | None
    exponent_p_maximals: int | None
    case_label: str | None
    case_reason: str
    beauville_status: str
    beauville_method: str
    beauville_detail: str
    certificate: object = None
    presentation: PcPresentation = field(repr=False, default=None)


def analyze(entry: CatalogEntry, mode: str = "auto",
            budget=None) -> AnalysisReport:
    pres = entry.presentation
    series = lower_central_series(pres)
    r, project, lift = frattini_quotient(pres)
    exp_p_count = None
    if r == 2:
        exp_p_count = exponent_p_maximal_count(pres, budget)
    cls = classify_theorem_a(pres, budget)
    thin = bool(is_thin(pres, budget).thin)
    profile = lattice_profile(pres, budget) if thin else None
    verdict = beauville(pres, mode=mode, budget=budget)
    return AnalysisReport(
        entry_id=entry.id,
        order=pres.order,
        log_order=sum(series.widths),
        prime=pres.p,
        nilpotency_class=nilpotency_class(pres),
        widths=tuple(series.widths),
        metabelian=is_metabelian(pres),
        maximal_class=is_maximal_class(pres),
        thin=thin,
        power_subgroup_order=agemo(pres, budget).order,
        place_depth=place_depth(pres),
        profile_tags=(tuple(layer.tag for layer in profile.layers)
                      if thin else None),
        ends_with_chain=profile.ends_with_chain if thin else None,
        exponent_p_maximals=exp_p_count,
        case_label=cls.case_label if cls.in_scope else None,
        case_reason=cls.reason if not cls.in_scope else "",
        beauville_status=verdict.status,
        beauville_method=verdict.method,
        beauville_detail=verdict.detail,
        certificate=verdict.certificate,
        presentation=pres,
    )


def _certificate_walk(pres, cert):
    """(name, (x, y, xy), their orders, fingerprint size) for each pair."""
    for name, (x, y), socles in (
            ("first", cert.first_pair, cert.first_socles),
            ("second", cert.second_pair, cert.second_socles)):
        triple = (x, y, pres.multiply(x, y))
        yield (name, triple, [pres.element_order(v) for v in triple],
               len(socles))


def certificate_lines(pres, cert):
    """Human-readable certificate block: triples, orders, summary sizes."""
    out = []
    for name, triple, orders, size in _certificate_walk(pres, cert):
        out.append(f"{name}-triple: " + "  ".join(str(v) for v in triple))
        out.append(f"{name}-orders: " + " ".join(str(o) for o in orders))
        out.append(f"{name}-fingerprint-size: {size}")
    return out


def certificate_kv(pres, cert):
    out = {}
    for name, triple, orders, size in _certificate_walk(pres, cert):
        for label, v, order in zip(("x", "y", "xy"), triple, orders):
            out[f"certificate.{name}.{label}"] = ",".join(str(e) for e in v)
            out[f"certificate.{name}.{label}.order"] = order
        out[f"certificate.{name}.fingerprint_size"] = size
    return out


def report_lines(report: AnalysisReport):
    lines = [
        f"id: {report.entry_id}",
        f"order: {report.prime}^{report.log_order} = {report.order}",
        f"class: {report.nilpotency_class}",
        "widths: " + " ".join(str(w) for w in report.widths),
        f"metabelian: {str(report.metabelian).lower()}",
        f"maximal-class: {str(report.maximal_class).lower()}",
        f"thin: {str(report.thin).lower()}",
        f"power-subgroup-order: {report.power_subgroup_order}",
        f"place-depth: {report.place_depth}",
    ]
    if report.thin:
        lines.append("lattice-profile: " + (", ".join(report.profile_tags)
                                            if report.profile_tags
                                            else "(trivial)"))
        lines.append(f"ends-with-chain: "
                     f"{str(report.ends_with_chain).lower()}")
    if report.exponent_p_maximals is not None:
        lines.append(f"exponent-p-maximals: {report.exponent_p_maximals}")
    if report.case_label is not None:
        lines.append(f"classification-case: {report.case_label}")
    elif report.case_reason:
        lines.append(f"classification: out of scope ({report.case_reason})")
    lines.append(f"beauville: {report.beauville_status} "
                 f"({report.beauville_method})")
    if report.beauville_detail:
        lines.append(f"beauville-detail: {report.beauville_detail}")
    if report.certificate is not None:
        lines.extend(certificate_lines(report.presentation,
                                       report.certificate))
    return lines


def report_kv(report: AnalysisReport):
    out = {
        "id": report.entry_id,
        "order": report.order,
        "prime": report.prime,
        "log_order": report.log_order,
        "class": report.nilpotency_class,
        "widths": ",".join(str(w) for w in report.widths),
        "metabelian": report.metabelian,
        "maximal_class": report.maximal_class,
        "thin": report.thin,
        "power_subgroup_order": report.power_subgroup_order,
        "place_depth": report.place_depth,
    }
    if report.thin:
        out["lattice_profile"] = ",".join(report.profile_tags)
        out["ends_with_chain"] = report.ends_with_chain
    out["beauville_status"] = report.beauville_status
    out["beauville_method"] = report.beauville_method
    if report.exponent_p_maximals is not None:
        out["exponent_p_maximals"] = report.exponent_p_maximals
    if report.case_label is not None:
        out["classification_case"] = report.case_label
    if report.certificate is not None:
        out.update(certificate_kv(report.presentation, report.certificate))
    return out
