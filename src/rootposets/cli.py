"""Command-line front end.

Exit codes: 0 success, 1 reproduced-claim mismatch, 2 usage error,
3 resource cap exceeded.  All outputs are deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from . import __version__
from . import census as cns
from . import families as fam
from . import weakorder as wo
from .errors import ContractViolationError, ResourceCapError, RootPosetError
from .rootset import format_set_literal, parse_set_literal
from .rootsys import build_from_label
from .weyl import weyl_group

DEFAULT_TABLE1_FAMILIES = [level.value for level in wo.Level
                           if level is not wo.Level.ALL] + [
    "WOEP", "WOIP", "WOFP", "COEP", "COIP(lin)", "COIP(bip)", "COFP",
    "BOEP", "BOIP",
]


def _emit(payload, out_path=None):
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise ContractViolationError(
                f"cannot write {out_path}: {exc.strerror}") from None
    else:
        print(text)


def _json_result(system_label, family, result):
    return {
        "tool_version": __version__,
        "system": system_label,
        "family": family,
        "result": result,
    }


def _expand_types(spec):
    """Parse 'A1..A4,B2,B3' into a label list."""
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            m = re.fullmatch(r"([A-Z])(\d+)\.\.([A-Z])(\d+)", chunk)
            if m is None or m[1] != m[3] or int(m[2]) > int(m[4]):
                raise ContractViolationError(
                    f"bad type range {chunk!r}; expected e.g. A1..A4")
            for rank in range(int(m[2]), int(m[4]) + 1):
                out.append(f"{m[1]}{rank}")
        elif chunk:
            out.append(chunk)
    if not out:
        raise ContractViolationError(f"no types in {spec!r}")
    return out


def cmd_rootsys_info(args):
    system = build_from_label(args.system)
    payload = _json_result(system.label, None, {
        "root_count": system.num_roots,
        "positive_count": system.num_positive,
        "cartan": [[str(c) for c in row] for row in system.cartan],
        "degrees": system.degrees,
        "weyl_order": system.weyl_order(),
        "crystallographic": system.crystallographic,
    })
    _emit(payload, args.out)
    return 0


def _family_id(name, coxeter):
    """FamilyId of a --family value; only the tag is case-insensitive, so
    a printed name such as COIP(bip) reads back."""
    tag, paren, spec = name.partition("(")
    return fam.FamilyId.parse(tag.upper() + paren + spec, coxeter)


def cmd_families_build(args):
    system = build_from_label(args.system)
    group = weyl_group(system)
    family = _family_id(args.family, args.coxeter)
    if fam.family_count(group, family) > wo.BUILD_CAP:  # before any listing
        raise ResourceCapError(f"{family} family of {system.label} has more "
                               f"than {wo.BUILD_CAP} sets")
    members = fam.construct_family(group, family)
    payload = _json_result(system.label, str(family),
                           [format_set_literal(r) for r in members])
    _emit(payload, args.out)
    return 0


def cmd_order_compare(args):
    system = build_from_label(args.system)
    r = parse_set_literal(system, args.left)
    s = parse_set_literal(system, args.right)
    result = {"le": wo.weak_le(r, s), "ge": wo.weak_le(s, r)}
    if args.level:
        level = wo.Level(args.level)
        result["meet"] = format_set_literal(wo.lattice_op(level, "meet", r, s))
        result["join"] = format_set_literal(wo.lattice_op(level, "join", r, s))
    _emit(_json_result(system.label, None, result), args.out)
    return 0


def _members(system, name, coxeter, cap):
    """The sets a --family name denotes, and the level it names (or None).

    A level or family of more than ``cap`` sets is refused before it is
    built in full.
    """
    level = wo.Level.named(name)
    if level is not None:
        return cns.level_members(system, level, cap), level
    family = _family_id(name, coxeter)
    return fam.construct_family(weyl_group(system), family, cap), None


def cmd_lattice_verify(args):
    system = build_from_label(args.system)
    members, level = _members(system, args.family, args.coxeter, args.cap)
    formula = None
    if args.formula:
        formula = wo.Level(args.formula)
    elif level is not None and level is not wo.Level.CLOSED:
        formula = level
    report = wo.verify_lattice(members, formula, cap=args.cap)
    result = {
        "family_size": report.family_size,
        "is_lattice": report.is_lattice,
        "formula_matches_bruteforce": report.formula_matches_bruteforce,
        "graded": report.graded,
        "cover_count": report.cover_count,
        "witness": None if report.witness is None else
        [format_set_literal(r) for r in report.witness],
    }
    _emit(_json_result(system.label, args.family, result), args.out)
    return 0 if report.is_lattice and report.formula_matches_bruteforce in (
        None, True) else 1


def cmd_hasse(args):
    system = build_from_label(args.system)
    members, _ = _members(system, args.family, args.coxeter, wo.HASSE_CAP)
    doc = wo.export_hasse(members, args.format)
    _emit(doc, args.out)
    return 0


def cmd_census_table1(args):
    labels = _expand_types(args.types)
    families = (args.families.split(",") if args.families
                else list(DEFAULT_TABLE1_FAMILIES))
    rows = cns.table1_rows(labels, families)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["type", "family", "count", "reference_count", "match"])
    mismatch = False
    for row in rows:
        if isinstance(row.reference, dict):
            ref = "/".join(str(v) for v in row.reference.values())
            if row.match:
                ref += f" ({row.variant} variant)"
        else:
            ref = "" if row.reference is None else str(row.reference)
        ok = "" if row.match is None else ("match" if row.match else "MISMATCH")
        if row.match is False:
            mismatch = True
        writer.writerow([row.system, row.family, row.count, ref, ok])
    _emit(buf.getvalue().rstrip("\n"), args.out)
    return 1 if mismatch else 0


def cmd_check_conjecture(args):
    system = build_from_label(args.system)
    report = cns.check_conjecture(args.conjecture, system, args.coxeter,
                                  rank_cap=args.rank_cap)
    payload = _json_result(system.label, None, {
        "conjecture": report.conjecture,
        "coxeter": report.coxeter,
        "verified": report.verified,
        "detail": report.detail,
    })
    _emit(payload, args.out)
    return 0 if report.verified else 1


def cmd_counterexample(args):
    report = cns.reproduce_counterexample(args.case)
    payload = {
        "tool_version": __version__,
        "case": report.case,
        "reproduced": report.reproduced,
        "checks": [{"claim": c, "ok": ok} for c, ok in report.details],
    }
    _emit(payload, args.out)
    return 0 if report.reproduced else 1


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 with one line, as for other bad input
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="rootposets",
        description="Weak order on subsets of finite root systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rootsys", help="root system utilities")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    pi = rsub.add_parser("info", help="print root count, Cartan matrix, |W|")
    pi.add_argument("system")
    pi.add_argument("--out")
    pi.set_defaults(func=cmd_rootsys_info)

    p = sub.add_parser("families", help="family construction")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pb = fsub.add_parser("build", help="build a family as set literals")
    pb.add_argument("--type", dest="system", required=True)
    pb.add_argument("--family", required=True)
    pb.add_argument("--coxeter", default="lin")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_families_build)

    p = sub.add_parser("order", help="weak order queries")
    osub = p.add_subparsers(dest="subcommand", required=True)
    pc = osub.add_parser("compare", help="compare two set literals")
    pc.add_argument("--type", dest="system", required=True)
    negative = "; put -- before the literals when one starts with '-'"
    pc.add_argument("left", help="set literal, e.g. '+[1,0],-[0,1]'" + negative)
    pc.add_argument("right", help="set literal" + negative)
    pc.add_argument("--level", choices=[l.value for l in wo.Level])
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_order_compare)

    p = sub.add_parser("lattice", help="lattice verification")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pv = lsub.add_parser("verify", help="certify a family as a lattice")
    pv.add_argument("--type", dest="system", required=True)
    pv.add_argument("--family", required=True,
                    help="level name (" + "/".join(l.value for l in wo.Level)
                         + ") or family tag (WOEP, COIP, ...)")
    pv.add_argument("--coxeter", default="lin")
    pv.add_argument("--formula", choices=[l.value for l in wo.Level])
    pv.add_argument("--cap", type=nonnegative_int, default=wo.VERIFY_CAP)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_lattice_verify)

    p = sub.add_parser("hasse", help="Hasse diagram export")
    p.add_argument("--type", dest="system", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--coxeter", default="lin")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("census", help="counting and Table 1 reproduction")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pt = csub.add_parser("table1", help="reproduce reference counts as CSV")
    pt.add_argument("--types", required=True, help="e.g. A1..A4,B2,B3")
    pt.add_argument("--families", help="comma-separated; default all rows")
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_census_table1)

    p = sub.add_parser("check-conjecture", help="exhaustive conjecture checks")
    p.add_argument("conjecture", choices=list(cns.CONJECTURE_IDS))
    p.add_argument("--type", dest="system", required=True)
    p.add_argument("--coxeter", default="lin")
    p.add_argument("--rank-cap", type=nonnegative_int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_conjecture)

    p = sub.add_parser("counterexample", help="reproduce published failures")
    p.add_argument("case", choices=list(cns.COUNTEREXAMPLE_IDS))
    p.add_argument("--out")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ContractViolationError, RootPosetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
