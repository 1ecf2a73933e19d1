"""Command line driver.

Subcommands: analyze, beauville, lattice, formulas, verify-theorems.
Exit codes: 0 all checks pass, 1 assertion failure, 2 usage error,
3 inconclusive where a definite answer was required, and for any budget
overrun that escapes a subcommand.  Output carries
no timestamps or machine-specific content, so fixed inputs and flags
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (
    CatalogError,
    UnknownTargetError,
    analyze,
    certificate_kv,
    certificate_lines,
    check_structural_expects,
    data_entry_paths,
    ingest,
    report_kv,
    report_lines,
    resolve,
)
from .congruence import (
    coefficient_closed_form,
    coefficient_integer,
    geometric_half_sum,
    is_quadratic_residue,
    rational_exponent,
    smallest_nonresidue,
)
from .pcgroup import _is_prime
from .structure import BudgetExceededError, check_budget, \
    lattice_profile, lattice_nodes, center, is_thin, is_metabelian
from .beauville import beauville, classify_theorem_a


EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _search_mode(args):
    if getattr(args, "exhaustive", False):
        return "exhaustive"
    if getattr(args, "guided", False):
        return "guided"
    return "auto"


def _emit(lines):
    for line in lines:
        print(line)


def _check_beauville_expect(entry, status):
    """None if fine, otherwise an error line.  Inconclusive never
    contradicts an expectation."""
    want = entry.expects.get("beauville")
    if want is None or status == "inconclusive":
        return None
    got = status == "found"
    if got != want:
        return (f"{entry.id}: expected beauville={str(want).lower()}, "
                f"search said {status}")
    return None


# ----------------------------------------------------------------------
# analyze / beauville / lattice

def cmd_analyze(args):
    entry = resolve(args.target, args.budget)
    report = analyze(entry, mode=_search_mode(args), budget=args.budget)
    if args.json:
        print(json.dumps(report_kv(report)))
    else:
        _emit(report_lines(report))
    err = _check_beauville_expect(entry, report.beauville_status)
    if err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_beauville(args):
    entry = resolve(args.target, args.budget)
    pres = entry.presentation
    verdict = beauville(pres, mode=_search_mode(args), budget=args.budget)
    if args.json:
        out = {"id": entry.id, "status": verdict.status,
               "method": verdict.method}
        if verdict.detail:
            out["detail"] = verdict.detail
        if verdict.certificate is not None:
            out.update(certificate_kv(pres, verdict.certificate))
        print(json.dumps(out))
    else:
        print(f"id: {entry.id}")
        print(f"beauville: {verdict.status} ({verdict.method})")
        if verdict.detail:
            print(f"detail: {verdict.detail}")
        if verdict.certificate is not None:
            _emit(certificate_lines(pres, verdict.certificate))
    err = _check_beauville_expect(entry, verdict.status)
    if err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_lattice(args):
    entry = resolve(args.target, args.budget)
    pres = entry.presentation
    try:
        profile = lattice_profile(pres, args.budget)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if not args.dot:
        print(f"id: {entry.id}")
        for layer in profile.layers:
            print(f"layer {layer.index}: width {layer.width}, "
                  f"{layer.count} normal subgroups, {layer.tag}")
        print(f"ends-with-chain: {str(profile.ends_with_chain).lower()}")
        return EXIT_OK
    nodes, edges = lattice_nodes(pres, args.budget)
    print("digraph lattice {")
    for idx, (sub, layer) in enumerate(nodes):
        print(f'  n{idx} [label="N{sub.order}@layer{layer}"];')
    for a, b in edges:
        print(f"  n{a} -> n{b};")
    print("}")
    return EXIT_OK


# ----------------------------------------------------------------------
# formulas

def _formula_battery(p):
    """(name, checks, failures) rows for the identity table."""
    rows = []
    checks = failures = 0
    for i in range(1, p):
        for j in range(1, p):
            if i + j > p - 1:
                continue
            checks += 1
            if coefficient_closed_form(p, i, j) != \
                    coefficient_integer(p, i, j) % p:
                failures += 1
    rows.append(("coefficient-closed-form", checks, failures))
    checks = failures = 0
    for h in range(2, p):
        if is_quadratic_residue(p, h):
            continue
        for t in range(1, p):
            checks += 1
            if geometric_half_sum(p, h, t) != \
                    rational_exponent(2, 1 - h * t * t, p):
                failures += 1
    rows.append(("geometric-half-sum", checks, failures))
    checks = failures = 0
    h = smallest_nonresidue(p)
    checks += 1
    if is_quadratic_residue(p, h):
        failures += 1
    rows.append(("smallest-nonresidue", checks, failures))
    return rows


def _run_formulas(p, as_json=False, budget=None):
    if p < 3 or not _is_prime(p):
        raise UnknownTargetError(f"need an odd prime, got {p}")
    # (p-1)(p-2)/2 coefficient pairs, each a sum of p-1 binomial products
    check_budget((p - 1) ** 2 * (p - 2) // 2, budget,
                 "identity battery needs {} coefficient terms")
    rows = _formula_battery(p)
    failed = sum(f for _, _, f in rows)
    if as_json:
        print(json.dumps({
            "p": p,
            "identities": [
                {"name": name, "checks": checks, "failures": fails}
                for name, checks, fails in rows],
            "status": "pass" if failed == 0 else "fail"}))
    else:
        print(f"p: {p}")
        for name, checks, fails in rows:
            status = "pass" if fails == 0 else f"FAIL ({fails})"
            print(f"{name}: {checks} checks, {status}")
        print("status: " + ("pass" if failed == 0 else "fail"))
    return EXIT_OK if failed == 0 else EXIT_ASSERTION


def cmd_formulas(args):
    return _run_formulas(args.p, args.json)


# ----------------------------------------------------------------------
# theorem suites

def _suite_line(ok, text):
    return ("PASS " if ok else "FAIL ") + text


def _shipped_entries(p, budget):
    """The shipped data entries of prime p, loaded unchecked and then
    checked against their structural expectations: the files of other
    primes are loaded, not checked."""
    entries = [e for e in (ingest(path, check=False)
                           for path in data_entry_paths())
               if e.presentation.p == p]
    for entry in entries:
        check_structural_expects(entry, budget)
    return entries


def _suite_p3(budget):
    """The complete-catalog statement for the 3-groups: among the
    shipped metabelian thin 3-group entries, exactly the three named
    ones admit a Beauville structure, each settled exhaustively; the
    fourth named entry is the non-thin Beauville group with center of
    order 9."""
    lines = []
    ok_all = True
    inconclusive = False
    entries = _shipped_entries(3, budget)
    found_ids = set()
    for entry in entries:
        pres = entry.presentation
        verdict = beauville(pres, "exhaustive", budget)
        if verdict.status == "inconclusive":
            lines.append(_suite_line(False, f"{entry.id}: inconclusive "
                                            f"({verdict.detail})"))
            inconclusive = True
            continue
        thin = bool(is_thin(pres, budget).thin)
        meta = is_metabelian(pres)
        if verdict.status == "found":
            found_ids.add(entry.id)
        expect_err = _check_beauville_expect(entry, verdict.status)
        ok = expect_err is None
        ok_all &= ok
        lines.append(_suite_line(
            ok, f"{entry.id}: metabelian={str(meta).lower()} "
                f"thin={str(thin).lower()} beauville={verdict.status} "
                f"(exhaustive)"))
    thin_beauville = {e.id for e in entries
                      if e.id in found_ids
                      and bool(is_thin(e.presentation, budget).thin)
                      and is_metabelian(e.presentation)}
    want = {"sg-3_5-3", "sg-3_6-34", "sg-3_6-37"}
    ok = thin_beauville == want
    ok_all &= ok
    lines.append(_suite_line(
        ok, "metabelian thin Beauville 3-groups in catalog: "
            + ", ".join(sorted(thin_beauville))))
    by_id = {e.id: e for e in entries}
    if "sg-3_6-40" in by_id:
        pres = by_id["sg-3_6-40"].presentation
        zc = center(pres).order
        ok = (not is_thin(pres, budget).thin) and zc == 9 \
            and "sg-3_6-40" in found_ids
        ok_all &= ok
        lines.append(_suite_line(
            ok, f"sg-3_6-40: thin=false center-order={zc} "
                f"beauville=found"))
    else:
        ok_all = False
        lines.append(_suite_line(False, "sg-3_6-40: entry missing"))
    return lines, ok_all, inconclusive


def _suite_p5(budget):
    """Classification agreement on the 5-group entries: the predicted
    verdict per case equals the guided search outcome, with a verified
    certificate for the positive cases and the order-p element
    refutation for the negative one."""
    lines = []
    ok_all = True
    inconclusive = False
    entries = _shipped_entries(5, budget)
    seen_cases = {}
    for entry in entries:
        pres = entry.presentation
        cls = classify_theorem_a(pres, budget)
        if not cls.in_scope or cls.case_label is None:
            ok_all = False
            lines.append(_suite_line(
                False, f"{entry.id}: not classified ({cls.reason})"))
            continue
        verdict = beauville(pres, "guided", budget)
        if verdict.status == "inconclusive":
            lines.append(_suite_line(
                False, f"{entry.id}: inconclusive ({verdict.detail})"))
            inconclusive = True
            continue
        agreed = (verdict.status == "found") == cls.predicted_beauville
        expect_err = _check_beauville_expect(entry, verdict.status)
        ok = agreed and expect_err is None
        ok_all &= ok
        key = cls.case_label
        if key == "A4":
            key = "A4-pos" if cls.predicted_beauville else "A4-neg"
        seen_cases[key] = entry.id
        lines.append(_suite_line(
            ok, f"{entry.id}: case={cls.case_label} predicted="
                f"{str(cls.predicted_beauville).lower()} "
                f"search={verdict.status} ({verdict.method})"))
    for needed in ("A1", "A2", "A3", "A4-pos", "A4-neg"):
        ok = needed in seen_cases
        ok_all &= ok
        lines.append(_suite_line(
            ok, f"case {needed}: " + seen_cases.get(needed, "no entry")))
    return lines, ok_all, inconclusive


def cmd_verify_theorems(args):
    if args.suite == "formulas":
        return _run_formulas(args.p if args.p else 5, False, args.budget)
    budget = args.budget
    if args.suite == "p3":
        lines, ok, inconclusive = _suite_p3(budget)
    else:
        lines, ok, inconclusive = _suite_p5(budget)
    _emit(lines)
    if inconclusive:
        print("status: inconclusive")
        return EXIT_INCONCLUSIVE
    print("status: " + ("pass" if ok else "fail"))
    return EXIT_OK if ok else EXIT_ASSERTION


# ----------------------------------------------------------------------
# parser

def build_parser():
    ap = argparse.ArgumentParser(
        prog="thinville",
        description="finite p-group engine: analysis, Beauville "
                    "structures, catalog suites")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_target(p):
        p.add_argument("target", help="builtin id, catalog id, or "
                                      "presentation file path")
        p.add_argument("--budget", type=int, default=None,
                       help="enumeration cap (also THINVILLE_BUDGET)")

    pa = sub.add_parser("analyze", help="full structural report")
    add_target(pa)
    pa.add_argument("--exhaustive", action="store_true")
    pa.add_argument("--guided", action="store_true")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pb = sub.add_parser("beauville", help="search for a structure")
    add_target(pb)
    pb.add_argument("--exhaustive", action="store_true")
    pb.add_argument("--guided", action="store_true")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_beauville)

    pl = sub.add_parser("lattice", help="normal-subgroup lattice layers")
    add_target(pl)
    pl.add_argument("--dot", action="store_true")
    pl.set_defaults(func=cmd_lattice)

    pf = sub.add_parser("formulas", help="identity table at a prime")
    pf.add_argument("--p", type=int, required=True)
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=cmd_formulas)

    pv = sub.add_parser("verify-theorems", help="reproduction suites")
    pv.add_argument("--suite", choices=("p3", "p5", "formulas"),
                    required=True)
    pv.add_argument("--p", type=int, default=None)
    pv.add_argument("--budget", type=int, default=None)
    pv.set_defaults(func=cmd_verify_theorems)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UnknownTargetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CatalogError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except BudgetExceededError as err:
        # the work a verdict rests on did not fit the budget
        print(f"inconclusive: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
