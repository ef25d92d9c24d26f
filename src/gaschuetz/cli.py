"""Command-line surface: verdicts, complements, classification, witnesses.

Exit codes: 0 success, 1 engine error (budget, size, hypothesis), memory
exhausted or standard output closed early, 2 usage error (unknown names,
bad flags, unreadable or malformed catalog files, malformed GASCHUETZ_*
values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .autgroups import aut_group, is_complete, rose_criterion
from .catalog import (
    classify,
    load_bundled_catalog,
    load_catalog,
    numeral,
    report_consistent,
    resolve_group,
)
from .complements import find_complement
from .engine import explain, verdict
from .errors import CatalogError, ConfigError, GroupError, UnknownNameError, quoted
from .group import FiniteGroup, is_normal
from .isomorphism import is_isomorphic
from .lattice import frattini, normal_subgroups_fast
from .structure import center, derived_subgroup, sylow
from .witness import baer_bundle, build_znthm, verify_znthm


def _selector_number(selector: str, prefix: str) -> int:
    digits = selector[len(prefix):]
    if not digits.isdecimal():
        raise UnknownNameError(
            f"bad selector {quoted(selector)}: expected {prefix}<number>"
        )
    return numeral(digits)


def _resolve_normal(G: FiniteGroup, selector: str) -> FiniteGroup:
    """A normal subgroup of G named by keyword, order, or isomorphism type."""
    if selector == "derived":
        return derived_subgroup(G)
    if selector == "center":
        return center(G)
    if selector == "frattini":
        return frattini(G)
    if selector.startswith("sylow"):
        return sylow(G, _selector_number(selector, "sylow"))
    if selector.startswith("order:"):
        want = _selector_number(selector, "order:")
        matches = [N for N in normal_subgroups_fast(G) if N.order == want]
        if len(matches) != 1:
            raise UnknownNameError(
                f"{len(matches)} normal subgroups of order {want}; "
                "specify differently"
            )
        return matches[0]
    target = resolve_group(selector)
    matches = [
        N for N in normal_subgroups_fast(G)
        if N.order == target.order and is_isomorphic(N, target)
    ]
    if not matches:
        raise UnknownNameError(f"no normal subgroup isomorphic to {quoted(selector)}")
    if len(matches) > 1:
        raise UnknownNameError(
            f"{len(matches)} normal subgroups isomorphic to {quoted(selector)}; "
            "use order:<m> or a keyword"
        )
    return matches[0]


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_verdict(args) -> int:
    entries = None
    if os.path.exists(args.target):
        entries = load_catalog(args.target)
        names = [e.name for e in entries]
    else:
        names = [args.target]
    for name in names:
        G = resolve_group(name, entries)
        v = verdict(G)
        payload = {
            "group": name,
            "order": G.order,
            "verdict": v.status,
            "rule": v.rule,
            "evidence": list(v.evidence),
            "notes": list(v.notes),
        }
        _emit(args, payload, f"{name} (order {G.order})\n{explain(v)}")
    return 0


def _cmd_complement(args) -> int:
    G = resolve_group(args.group)
    N = _resolve_normal(G, args.normal)
    if not is_normal(N, G):
        raise GroupError("the chosen subgroup is not normal")
    r = find_complement(G, N)
    payload = {
        "group": args.group,
        "normal_order": N.order,
        "exists": r.exists,
        "complement_order": r.complement.order if r.complement else None,
        "search_space": r.search_space,
        "examined": r.examined,
        "method": r.method,
    }
    text = (
        f"complement of order-{N.order} normal subgroup in {args.group}: "
        f"{'exists (order %d)' % r.complement.order if r.exists else 'none'} "
        f"[space {r.search_space}, examined {r.examined}]"
    )
    _emit(args, payload, text)
    return 0


def _cmd_classify(args) -> int:
    entries = load_catalog(args.catalog) if args.catalog else load_bundled_catalog()
    report = classify(
        entries, max_order=args.max_order, check_exclusion=not args.no_exclusion
    )
    if not report_consistent(report):
        raise GroupError("internal: summary tallies disagree with the group list")
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for g in report["groups"]:
            print(
                f"{g['name']:>16} order {g['order']:>4} "
                f"{g['status']:<10} {g['rule'] or '-'}"
            )
        s = report["summary"]
        print(
            f"summary: {s['holds']} hold, {s['fails']} fail, "
            f"{s['undecided']} undecided, contradictions: {s['contradictions']}"
        )
    return 0


def _cmd_witness_znthm(args) -> int:
    N = resolve_group(args.group)
    bundle = build_znthm(N, args.q)
    if args.verify or args.full_search:
        bundle = verify_znthm(bundle, full_search=args.full_search)
    b = bundle
    payload = json.loads(b.to_json())
    text = (
        f"orders: |G| = {b.embedding.G.order}, |H| = {b.embedding.H.order}, "
        f"|N| = {b.embedding.N.order}, index q = {b.q}\n"
        f"complement in H: order {b.complement_in_h.order}\n"
        f"verified: {b.verified}"
    )
    if b.nonexistence is not None:
        text += (
            f"\ncomplement in G: none "
            f"({b.nonexistence.method}, space {b.nonexistence.search_space})"
        )
    _emit(args, payload, text)
    return 0


def _cmd_witness_baer(args) -> int:
    b = baer_bundle()
    payload = json.loads(b.to_json())
    text = (
        f"orders: |G| = {b.embedding.G.order}, |H| = {b.embedding.H.order}, "
        f"|N| = {b.embedding.N.order}\n"
        f"complement in H: yes (order {b.complement_in_h.order}); in G: no "
        f"(exhaustive, space {b.nonexistence.search_space})"
    )
    _emit(args, payload, text)
    return 0


def _cmd_aut(args) -> int:
    G = resolve_group(args.group)
    a = aut_group(G)
    payload = {
        "group": args.group,
        "aut_order": a.carrier.order,
        "inn_order": a.inn.order,
        "out_order": a.out_order,
    }
    _emit(
        args,
        payload,
        f"|Aut| = {a.carrier.order}, |Inn| = {a.inn.order}, |Out| = {a.out_order}",
    )
    return 0


def _cmd_rose(args) -> int:
    G = resolve_group(args.group)
    value = rose_criterion(G)
    complete = is_complete(G) if value else False
    payload = {"group": args.group, "rose": value, "complete": complete}
    text = f"splitting criterion: {value}" + (" (complete group)" if complete else "")
    _emit(args, payload, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaschuetz",
        description=(
            "Finite-group complement engine. Group names use the constructor "
            "grammar: C12, D8, Q8, S5, A6, SL23, products AxB, powers C3^2, "
            "canonical semidirects C5^2:Q8 and C5^2:D8, wreaths S3wrC2; "
            "catalog entry names are accepted wherever a group is expected."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verdict", help="splitting verdict for a group or catalog")
    p.add_argument("target", help="group name or catalog path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("complement", help="decide complement existence")
    p.add_argument("--group", required=True)
    p.add_argument(
        "--normal",
        required=True,
        help="derived | center | frattini | sylow<p> | order:<m> | <group name>",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("classify", help="batch verdicts over a catalog")
    p.add_argument("--catalog", help="path; defaults to the bundled catalog")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument(
        "--no-exclusion",
        action="store_true",
        help="skip the mutual-exclusion soundness check",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="counterexample bundles")
    wsub = p.add_subparsers(dest="witness_kind", required=True)
    pz = wsub.add_parser("znthm", help="wreath/central-product construction")
    pz.add_argument("--group", required=True)
    pz.add_argument("--q", type=int, required=True)
    pz.add_argument("--verify", action="store_true")
    pz.add_argument(
        "--full-search",
        action="store_true",
        help="also run the unreduced lift search in G (implies --verify)",
    )
    pz.add_argument("--json", action="store_true")
    pz.set_defaults(func=_cmd_witness_znthm)
    pb = wsub.add_parser("baer", help="the order-48 central-product example")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_witness_baer)

    p = sub.add_parser("aut", help="automorphism group orders")
    p.add_argument("group")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("rose", help="splitting criterion on Aut/Inn")
    p.add_argument("group")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rose)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader is gone; send the interpreter's final flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UnknownNameError, CatalogError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GroupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
