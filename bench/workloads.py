"""The benchmark's three workloads: set-up, timed jobs and output checks.

Library functions are always called through their module (``cns.count_family``,
not a name imported from it), so that the traced run's wrappers see them.
Every expected value comes from ``oracle`` (formulas, OEIS terms, the
paper's Table 1, coordinate arithmetic) or from ``expected.json`` (values
with no outside source, frozen with the command that recomputes them).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from rootposets import census as cns
from rootposets import cli as rp_cli
from rootposets import families as fam
from rootposets import rootset as rset
from rootposets import rootsys as rsys
from rootposets import weakorder as wo
from rootposets import weyl as wy

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FROZEN = json.loads((HERE / "expected.json").read_text())
CLI_OUT = HERE / "results" / "cli"
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

# Values of the paper's Table 1 that the workloads reproduce.
TABLE1 = {
    "A3 posets": 219, "A3 closed": 355, "B2 semiclosed": 144,
    "B3 WOIP": 457, "A4 COIP(lin)": 399, "B3 COIP(lin)": 132,
    "A4 closed": 6942, "A4 posets": 4231, "D4 closed": 18291,
    "B4 semiclosed": 5310 ** 2, "C4 semiclosed": 5318 ** 2,
}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    quick: Callable[[object], bool]            # checked on every round's output
    checks: Callable[[object, object], list]   # (output, rng) -> [(label, ok)], once
    small: bool = False                        # part of the self-test's smallest run


@dataclass
class Workload:
    name: str
    setup: list                # [(name, step)]; the steps fill a fresh context dict
    setup_repeats: int
    min_rounds: int
    jobs: Callable[[dict, bool], list]         # (context, in_process) -> [Job]
    checks: Callable[[dict], list] = lambda ctx: []
    children: bool = False                     # jobs are child processes
    layer_metrics: Callable[[dict, Callable], dict] = lambda ctx, sample: {}


def _expect(value, *sources):
    """[(label, ok)] comparing one value against each (source, expected)."""
    return [(source, value == want) for source, want in sources]


def _table_checks(ctx):
    return [(f"{label} root table", oracle.Coords(s, label).matches)
            for label, s in ctx["systems"].items()]


def _build(labels, group=False):
    """Set-up step: new RootSystems (and Weyl groups), so no table is reused."""
    def step(ctx):
        for label in labels:
            system = rsys.build_from_label(label)
            ctx.setdefault("systems", {})[label] = system
            if group:
                wy.weyl_group(system)
    return "build " + " ".join(labels), step


# -- certify -------------------------------------------------------------------
#
# name, system, members, formula checked, graded expected (None: not
# asserted), size source, where the expected cover count comes from.
CERTIFY = [
    ("posets A3", "A3", "posets", wo.Level.POSETS, True,
     ("A001035", oracle.LABELED_POSETS[4]), "oracle"),
    ("posets G2", "G2", "posets", wo.Level.POSETS, True,
     ("frozen", FROZEN["certify"]["posets G2 size"]), "oracle"),
    ("semiclosed B2", "B2", "semiclosed", wo.Level.SEMICLOSED, True,
     ("Table 1", TABLE1["B2 semiclosed"]), "oracle"),
    ("closed A3", "A3", "closed", None, None,
     ("Table 1", TABLE1["A3 closed"]), "frozen"),
    ("closed G2", "G2", "closed", None, None,
     ("frozen", FROZEN["certify"]["closed G2 size"]), "frozen"),
    ("WOIP B3", "B3", "WOIP", None, True,
     ("Table 1", TABLE1["B3 WOIP"]), "oracle"),
    ("COIP(lin) A4", "A4", "COIP(lin)", None, None,
     ("Table 1", TABLE1["A4 COIP(lin)"]), "frozen"),
    ("WOFP A4", "A4", "WOFP", None, None,
     ("sum |W|/|W_I|", oracle.wofp_count("A4")), "frozen"),
    ("COIP(lin) B3", "B3", "COIP(lin)", wo.Level.POSETS, None,
     ("Table 1", TABLE1["B3 COIP(lin)"]), "frozen"),
]
# hasse_edges jobs, on the families the CLI's hasse command serves (levels)
# and on COIP(lin) B3; those under 0.1 s each share one job.
HASSE = [["closed A3"],
         ["posets A3", "posets G2", "semiclosed B2", "closed G2", "COIP(lin) B3"]]


def _family_id(name):
    tag, _, coxeter = name.partition("(")
    return fam.FamilyId(tag, coxeter.rstrip(")") or None)


def _members(system, kind):
    if kind == "posets":
        return cns.enumerate_posets(system)
    if kind in ("closed", "semiclosed"):
        return [rset.RootSet(system, b) for b in range(1 << system.num_roots)
                if getattr(rset.classify(rset.RootSet(system, b)), kind)]
    return fam.construct_family(wy.weyl_group(system), _family_id(kind))


def _family_step(name, label, kind):
    def step(ctx):
        system = ctx["systems"][label]
        ctx.setdefault("families", {})[name] = _members(system, kind)
    return "members " + name, step


CERTIFY_SETUP = ([_build(("A3", "G2", "B2", "B3", "A4"))]
                 + [_family_step(name, label, kind)
                    for name, label, kind, *_ in CERTIFY])


def certify_jobs(ctx, in_process):
    systems, families = ctx["systems"], ctx["families"]
    coords = {label: oracle.Coords(s, label) for label, s in systems.items()}
    expected = {}   # name -> (coords, sorted bits, cover source)
    for name, label, _, _, _, _, covers in CERTIFY:
        bits = [r.bits for r in wo.canonical_sort(families[name])]
        expected[name] = (coords[label], bits, covers)

    def cover_source(name):
        c, bits, covers = expected[name]
        if covers == "oracle":
            return "pairs one grade apart", c.graded_covers(bits)
        return "frozen", FROZEN["certify"][f"{name} covers"]

    jobs = []
    for name, label, _, formula, graded, size, _ in CERTIFY:
        def quick(report, formula=formula, graded=graded):
            return (report.is_lattice
                    and (formula is None or report.formula_matches_bruteforce is True)
                    and (graded is None or report.graded == graded))

        def checks(report, rng, name=name, size=size):
            return ([(f"{name} size {src}", ok)
                     for src, ok in _expect(report.family_size, size)]
                    + [(f"{name} covers {src}", ok)
                       for src, ok in _expect(report.cover_count, cover_source(name))])

        jobs.append(Job(f"verify {name}",
                        lambda m=families[name], f=formula: wo.verify_lattice(m, f),
                        quick, checks, small=label == "G2"))

    for names in HASSE:
        def run(names=names):
            return {n: wo.hasse_edges(families[n])[1] for n in names}

        def checks(out, rng):
            found = []
            for name, edges in out.items():
                c, bits, _ = expected[name]
                src, want = cover_source(name)
                found.append((f"{name} hasse edges = covers {src}", len(edges) == want))
                found.append((f"{name} hasse edges go up", all(
                    c.le(bits[j], bits[i]) for j, i in edges)))
            return found

        jobs.append(Job("hasse " + (names[0] if len(names) == 1 else "small families"),
                        run, lambda out: all(out.values()), checks,
                        small=len(names) > 1))
    return jobs


# -- census --------------------------------------------------------------------

def _census_expected():
    """Key -> [(source, value)]; every source is one checked operation."""
    frozen = FROZEN["census"]
    exp = {key: [("frozen", v)] for key, v in frozen.items()}
    for key in ("A4 closed", "A4 posets", "D4 closed",
                "B4 semiclosed", "C4 semiclosed"):
        exp.setdefault(key, []).append(("Table 1", TABLE1[key]))
    exp["A4 posets"].append(("A001035", oracle.LABELED_POSETS[5]))
    exp["A5 posets"] = [("A001035", oracle.LABELED_POSETS[6])]
    exp["A5 WOIP"] = [("A007767", oracle.WEAK_ORDER_INTERVALS[6])]
    exp["A5 COIP(lin)"] = [("Tamari intervals", oracle.tamari_intervals(6))]
    exp["A5 COFP"] = [("A001003", oracle.little_schroeder(6))]
    for label in ("A5", "F4", "D5"):
        exp[f"{label} WOFP"] = [("sum |W|/|W_I|", oracle.wofp_count(label))]
    exp["A5 WOFP"].append(("A000670", oracle.fubini(6)))
    for label in ("A5", "F4"):
        exp[f"{label} COEP"] = [("Coxeter-Catalan", oracle.coxeter_catalan(label))]
    return exp


CENSUS_EXPECTED = _census_expected()
# One job per row group; rows under 0.1 s share a job.
CENSUS_COUNTS = [
    [("A4", "closed"), ("A4", "posets"), ("D4", "closed"), ("D4", "posets")],
    [("B4", "closed"), ("B4", "semiclosed")], [("B4", "posets")],
    [("C4", "closed"), ("C4", "semiclosed")], [("C4", "posets")],
    [("A5", "closed")], [("A5", "posets")],
    [("A5", "WOIP"), ("A5", "WOFP")], [("A5", "COEP")], [("A5", "COIP(lin)")],
    [("A5", "COIP(bip)")], [("A5", "COFP")],
    [("F4", "WOIP")], [("F4", "WOFP"), ("F4", "COEP")], [("F4", "COIP(lin)")],
    [("F4", "COIP(bip)")], [("F4", "COFP")],
    [("D5", "WOFP")], [("D5", "COIP(lin)")], [("D5", "COFP")],
]
# coep-sublattice takes ~15 ms, so it shares a job with coip-sublattice.
CONJECTURE_JOBS = [["coep-characterization"], ["coep-sublattice", "coip-sublattice"]]


CENSUS_SETUP = ([_build((label,)) for label in ("A4", "D4", "B4", "C4")]
                + [_build((label,), group=True) for label in ("A5", "F4", "D5", "B3")])


def census_jobs(ctx, in_process):
    systems = ctx["systems"]
    jobs = []
    for rows in CENSUS_COUNTS:
        def run(rows=rows):
            out = {}
            for label, family in rows:
                out[f"{label} {family}"] = cns.count_family(systems[label], family).count
            return out

        def quick(out):
            return all(v == CENSUS_EXPECTED[k][0][1] for k, v in out.items())

        def checks(out, rng):
            return [(f"{key} {label}", ok) for key, v in out.items()
                    for label, ok in _expect(v, *CENSUS_EXPECTED[key])]

        name = "count " + ", ".join(f"{label} {family}" for label, family in rows)
        jobs.append(Job(name, run, quick, checks, small=rows[0][0] == "A4"))

    b4 = oracle.Coords(systems["B4"], "B4")
    jobs.append(Job(
        "enumerate posets B4",
        lambda: cns.enumerate_posets(systems["B4"]),
        lambda out: len(out) == FROZEN["census"]["B4 posets"],
        lambda out, rng: _enumeration_checks(b4, [r.bits for r in out], rng),
        small=True))

    for coxeter in ("lin", "bip"):
        for conjectures in CONJECTURE_JOBS:
            def run(coxeter=coxeter, conjectures=conjectures):
                return [cns.check_conjecture(c, systems["B3"], coxeter)
                        for c in conjectures]

            jobs.append(Job(
                f"{' + '.join(conjectures)} B3 {coxeter}", run,
                lambda out: all(r.verified for r in out),
                lambda out, rng, coxeter=coxeter: [
                    (f"{r.conjecture} ({coxeter}) verified", r.verified is True)
                    for r in out]))
    return jobs


def _enumeration_checks(coords, bits_list, rng, sample=200):
    """Properties of an enumerated level that share no code with the DFS."""
    have = set(bits_list)
    grades = {}
    for b in bits_list:
        g = coords.grade(b)
        grades[g] = grades.get(g, 0) + 1
    negate = coords.permuter(coords.negation)
    found = [
        ("B4 posets distinct", len(have) == len(bits_list)),
        ("B4 posets count", len(bits_list) == FROZEN["census"]["B4 posets"]),
        ("B4 grade counts symmetric",
         all(grades.get(-g) == n for g, n in grades.items())),
        ("B4 posets stable under R -> -R", all(negate(b) in have for b in bits_list)),
    ]
    picks = rng.sample(bits_list, min(sample, len(bits_list)))
    found.append(("B4 sample closed and antisymmetric", all(
        oracle.is_closed(vs, coords.own) and oracle.is_antisymmetric(vs)
        for vs in map(coords.members, picks))))
    for i, images in enumerate(coords.reflections):
        apply = coords.permuter(images)
        found.append((f"B4 posets stable under s{i + 1}",
                      all(apply(b) in have for b in bits_list)))
    return found


# -- cli -----------------------------------------------------------------------
#
# name, argv, exit code the README's contract gives, part of the smallest run.
CLI = [
    ("info A2", ["rootsys", "info", "A2"], 0, True),
    ("compare A2", ["order", "compare", "--type", "A2", "+[1,0],+[1,1]",
                    "+[0,1],+[1,1]", "--level", "posets"], 0, True),
    ("counterexample h3", ["counterexample", "h3-closed-lattice"], 0, True),
    ("counterexample b3", ["counterexample", "b3-convex-lattice"], 0, False),
    ("info E7", ["rootsys", "info", "E7"], 0, False),
    ("table1", ["census", "table1", "--types", "A1..A4,B2,B3,C2,C3,D4"], 1, False),
    ("woip A5", ["families", "build", "--type", "A5", "--family", "woip"], 0, False),
    ("hasse A3", ["hasse", "--type", "A3", "--family", "posets"], 0, False),
    ("verify B3 semiclosed", ["lattice", "verify", "--type", "B3",
                              "--family", "semiclosed"], 3, False),
]


def _child(args, **kwargs):
    return subprocess.run([sys.executable, *args], env=CHILD_ENV, check=False, **kwargs)


def _cli_import(ctx):
    """Set-up step: a child process starts the interpreter and imports the CLI."""
    proc = _child(["-c", "import rootposets.cli"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"importing rootposets.cli failed: {proc.stderr}")
    ctx["stdout_bytes"] = 0


def cli_jobs(ctx, in_process):
    """Each command writes its stdout and stderr to files, not to pipes the
    benchmark holds: a child's peak RSS includes its parent's at the fork,
    so the parent must stay smaller than the commands it measures."""
    CLI_OUT.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, argv, code, small in CLI:
        paths = tuple(CLI_OUT / f"{name.replace(' ', '-')}.{ext}" for ext in ("out", "err"))
        if in_process:
            def run(argv=argv, paths=paths):
                with open(paths[0], "w") as out, open(paths[1], "w") as err:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = rp_cli.main(argv)
                ctx["stdout_bytes"] += paths[0].stat().st_size
                return (rc,) + paths
        else:
            def run(argv=argv, paths=paths):
                with open(paths[0], "w") as out, open(paths[1], "w") as err:
                    proc = _child(["-m", "rootposets.cli", *argv], stdout=out, stderr=err)
                return (proc.returncode,) + paths
        jobs.append(Job(name, run, lambda out, code=code: out[0] == code,
                        lambda out, rng, name=name, code=code:
                        _cli_checks(name, code, out, rng), small))
    return jobs


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _cli_checks(name, code, out, rng):
    rc, stdout, stderr = out[0], out[1].read_text(), out[2].read_text()
    found = [(f"{name} exit {code}", rc == code)]
    doc = _json(stdout) if name != "hasse A3" and name != "table1" else None
    if name.startswith("info"):
        label = name.split()[1]
        result = (doc or {}).get("result", {})
        found += [
            (f"{name} JSON", doc is not None),
            (f"{name} root count", result.get("root_count") == len(oracle.roots(label))),
            (f"{name} |W|", result.get("weyl_order") == oracle.weyl_order(label)),
        ]
    elif name == "compare A2":
        # R = {a1, a1+a2}, S = {a2, a1+a2}: incomparable; the posets meet is
        # cl(R+ | S+) = all positive roots, the join is R+ & S+ = {a1+a2}.
        result = (doc or {}).get("result", {})
        found += [
            (f"{name} JSON", doc is not None),
            (f"{name} incomparable", result.get("le") is False and result.get("ge") is False),
            (f"{name} meet", oracle.parse_literal(result.get("meet", ""))
             == {(1, 0), (0, 1), (1, 1)}),
            (f"{name} join", oracle.parse_literal(result.get("join", "")) == {(1, 1)}),
        ]
    elif name.startswith("counterexample"):
        found += [
            (f"{name} JSON", doc is not None),
            (f"{name} reproduced", (doc or {}).get("reproduced") is True
             and all(c["ok"] for c in doc["checks"])),
        ]
    elif name == "table1":
        rows = list(csv.reader(io.StringIO(stdout)))
        body = rows[1:]
        found += [
            (f"{name} CSV header", rows[:1] == [["type", "family", "count",
                                                  "reference_count", "match"]]),
            (f"{name} 9 types x 13 families", len(body) == 117
             and all(len(r) == 5 for r in body)),
            (f"{name} only the D4 posets erratum mismatches",
             [r for r in body if r[4] != "match"]
             == [["D4", "posets", "12361", "219", "MISMATCH"]]),
        ]
    elif name == "woip A5":
        literals = (doc or {}).get("result", [])
        all_roots = oracle.roots("A5")
        picks = rng.sample(literals, min(50, len(literals)))
        found += [
            (f"{name} JSON", doc is not None),
            (f"{name} A007767 literals",
             len(literals) == oracle.WEAK_ORDER_INTERVALS[6]
             and len(set(literals)) == len(literals)),
            (f"{name} sample is antisymmetric and closed", all(
                oracle.is_antisymmetric(vs) and oracle.is_closed(vs, all_roots)
                for vs in map(oracle.parse_literal, picks))),
        ]
    elif name == "hasse A3":
        labels = re.findall(r'^  n\d+ \[label="([^"]*)"\];$', stdout, re.M)
        edges = re.findall(r"^  n(\d+) -> n(\d+);$", stdout, re.M)
        sets = [frozenset(oracle.parse_literal(t)) for t in labels]
        all_roots = oracle.roots("A3")
        found += [
            (f"{name} A001035 nodes", len(sets) == oracle.LABELED_POSETS[4]),
            (f"{name} nodes are posets", all(
                oracle.is_antisymmetric(s) and oracle.is_closed(s, all_roots)
                for s in sets)),
            (f"{name} edges are the covers", len(edges) == oracle.covers_one_grade_apart(
                [(oracle.grade(s), s) for s in sets], oracle.le)),
            (f"{name} edges go up", all(
                oracle.le(sets[int(a)], sets[int(b)]) for a, b in edges)),
        ]
    elif name == "verify B3 semiclosed":
        found.append((f"{name} cap message",
                      stdout == "" and "resource cap" in stderr))
    return found


def cli_layer_metrics(ctx, sample, repeats=5):
    """Import time of rootposets.cli above a bare interpreter start, and the
    bytes the in-process commands printed."""
    def median_of(args):
        return statistics.median(sample(lambda: _child(args, capture_output=True))[2]
                                 for _ in range(repeats))
    return {"cli.import_s": median_of(["-c", "import rootposets.cli"])
            - median_of(["-c", "pass"]),
            "cli.stdout_bytes": ctx["stdout_bytes"]}


WORKLOADS = {
    "certify": Workload("certify", CERTIFY_SETUP, 5, 3, certify_jobs,
                        checks=_table_checks),
    "census": Workload("census", CENSUS_SETUP, 3, 3, census_jobs,
                       checks=_table_checks),
    # cli samples are child processes of up to ~3 s, the ones the calibration
    # loops bracket least tightly, so the median takes one more round.
    "cli": Workload("cli", [("import rootposets.cli", _cli_import)], 5, 4, cli_jobs,
                    children=True,
                    layer_metrics=cli_layer_metrics),
}
