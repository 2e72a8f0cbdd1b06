"""Command-line surface: decide / color / verify / chromatic, the
check-theorems harness, and batch tables.

Instances come from an edge-list file, standard input (``-``), or a
``family:NAME:p1,p2,...`` generator spec.  Output is human text by
default; ``--json`` emits a run report validating against the schema
shipped in ``equiforest/data/run_report_schema.json`` (``--no-timing``
drops the timing field so identical invocations produce identical
bytes).  Counterexamples always carry a replayable edge list.

Exit codes: 0 success/yes, 1 no/invalid/counterexamples found, 2 input
or usage error, 3 construction step failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from importlib import resources

from .constructor import (
    EquitableColoring,
    NotColorableError,
    ProofStepError,
    construct,
    format_coloring,
    parse_coloring_text,
    realize2,
    verify,
)
from .equitable import (
    DecisionProfile,
    decide1,
    decide2,
    decide_any,
    equitable_chromatic_number,
)
from .forest import Forest, ForestError, parse_forest
from .generators import FamilySpec, format_family, gen_family, parse_family
from .harness import SUITE_MAX_N, SUITES, run_checks
from .stability import lower_bound

SHARDS_ENV = "EQUIFOREST_SHARDS"


def run_report_schema() -> dict:
    """The JSON schema that --json reports conform to."""
    path = resources.files("equiforest.data").joinpath("run_report_schema.json")
    return json.loads(path.read_text())


def _load_instance(spec: str) -> tuple[Forest, str]:
    if spec.startswith("family:"):
        return gen_family(parse_family(spec)), spec
    if spec == "-":
        return parse_forest(sys.stdin.read()), "<stdin>"
    with open(spec, "r", encoding="utf-8") as handle:
        return parse_forest(handle.read()), spec


def _emit(args, report: dict, human_lines: list[str]) -> None:
    if getattr(args, "json", False):
        if not getattr(args, "no_timing", False):
            report = dict(report, timing_seconds=time.perf_counter() - args._t0)
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _base_report(args, instance: str | None, result: dict,
                 counterexamples: list | None = None) -> dict:
    return {
        "command": args._argv,
        "instance": instance,
        "result": result,
        "counterexamples": counterexamples or [],
    }


def cmd_decide(args) -> int:
    forest, name = _load_instance(args.input)
    outcome = decide_any(forest, args.k)
    result = {
        "k": outcome.k,
        "colorable": outcome.colorable,
        "threshold": outcome.threshold,
        "witness_vertex": outcome.witness_vertex,
        "witness_alpha": outcome.witness_alpha,
        "orientation": None if outcome.orientation is None
        else [int(f) for f in outcome.orientation],
        "note": outcome.note,
        "n": forest.n,
    }
    lines = [f"{name}: equitably {args.k}-colorable: {'yes' if outcome.colorable else 'no'}"]
    if not outcome.colorable and outcome.witness_vertex is not None and args.k >= 3:
        lines.append(
            f"  witness: vertex {outcome.witness_vertex} has stability"
            f" {outcome.witness_alpha} < floor(n/k) = {outcome.threshold}"
        )
    _emit(args, _base_report(args, name, result), lines)
    return 0 if outcome.colorable else 1


def cmd_color(args) -> int:
    if args.k < 1:
        raise ValueError("k must be >= 1")
    forest, name = _load_instance(args.input)
    if args.k == 1:
        outcome = decide1(forest)
        if not outcome.colorable:
            print(f"{name}: not equitably 1-colorable", file=sys.stderr)
            return 1
        coloring = EquitableColoring(1, (1,) * forest.n)
        branch = "edgeless"
    elif args.k == 2:
        outcome = decide2(forest)
        if not outcome.colorable:
            print(f"{name}: not equitably 2-colorable", file=sys.stderr)
            return 1
        coloring = realize2(forest, outcome)
        branch = "two-sides"
    else:
        try:
            coloring, trace = construct(forest, args.k)
        except NotColorableError:
            print(f"{name}: not equitably {args.k}-colorable", file=sys.stderr)
            return 1
        except ProofStepError as exc:
            print(f"{name}: construction step failed: {exc}", file=sys.stderr)
            if exc.trace is not None:
                print(f"  trace: {exc.trace}", file=sys.stderr)
            return 3
        branch = trace.branch
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(format_coloring(coloring))
    result = {
        "k": coloring.k,
        "n": forest.n,
        "branch": branch,
        "fallback_used": False,  # always false; kept for report readers
        "sizes": sorted(coloring.sizes()),
        "assignment": list(coloring.assignment),
    }
    lines = [f"{name}: equitable {coloring.k}-coloring"
             f" (branch {branch}, sizes {sorted(coloring.sizes())})"]
    if not args.output and not args.json:
        lines.append(format_coloring(coloring).rstrip("\n"))
    _emit(args, _base_report(args, name, result), lines)
    return 0


def cmd_verify(args) -> int:
    forest, name = _load_instance(args.input)
    with open(args.coloring, "r", encoding="utf-8") as handle:
        coloring = parse_coloring_text(handle.read(), forest.n, args.k)
    outcome = verify(forest, coloring)
    result = {
        "valid": outcome.ok,
        "k": coloring.k,
        "monochromatic_edges": [list(e) for e in outcome.monochromatic_edges],
        "size_violations": [list(v) for v in outcome.size_violations],
    }
    lines = [f"{name}: coloring {'valid' if outcome.ok else 'INVALID'}"]
    for u, v in outcome.monochromatic_edges:
        lines.append(f"  monochromatic edge ({u}, {v})")
    for ci, si, cj, sj in outcome.size_violations:
        lines.append(f"  classes {ci} and {cj} have sizes {si} and {sj}")
    _emit(args, _base_report(args, name, result), lines)
    return 0 if outcome.ok else 1


def cmd_chromatic(args) -> int:
    forest, name = _load_instance(args.input)
    bound = lower_bound(forest)
    value = equitable_chromatic_number(forest, bound)
    result = {
        "equitable_chromatic_number": value,
        "lower_bound": bound.value,
        "lower_bound_vertex": bound.vertex,
        "n": forest.n,
        "empty": forest.n == 0,
    }
    lines = [f"{name}: equitable chromatic number = {value}"
             + (" (empty forest, by convention)" if forest.n == 0 else "")]
    _emit(args, _base_report(args, name, result), lines)
    return 0


def cmd_check_theorems(args) -> int:
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    reports = run_checks(which, max_n=args.max_n, shards=args.shards,
                         shard_index=args.shard_index)
    counterexamples = []
    result = {}
    lines = []
    for name, rep in reports.items():
        result[name] = {
            "max_n": rep.max_n,
            "checked": rep.checked,
            "counterexamples": len(rep.counterexamples),
            "notes": rep.notes,
        }
        for entry in rep.counterexamples:
            counterexamples.append(dict(entry, suite=name))
        lines.append(
            f"{name}: checked={rep.checked}"
            f" counterexamples={len(rep.counterexamples)}"
            f" -> {'ok' if rep.ok else 'FAIL'}"
        )
    for entry in counterexamples[:20]:
        lines.append(f"  [{entry['suite']}] {entry['detail']}")
        if "edges" in entry:
            lines.append("    replay: " + entry["edges"].replace("\n", " / "))
    _emit(args, _base_report(args, None, result, counterexamples), lines)
    return 0 if not counterexamples else 1


def _table_rows(family: str, lo: int, hi: int):
    for value in range(lo, hi + 1):
        spec = FamilySpec(family, (value,))
        forest = gen_family(spec)
        profile = DecisionProfile(forest)
        side = profile.bipartition
        bound = lower_bound(forest)
        chi = equitable_chromatic_number(forest, bound)
        if chi >= 3:
            _, trace = construct(forest, chi, profile)
            branch = trace.branch
        elif chi == 2:
            branch = "two-sides"
        elif chi == 1:
            branch = "edgeless"
        else:
            branch = "empty"
        yield {
            "instance": format_family(spec),
            "n": forest.n,
            "max_degree": forest.max_degree,
            "a": side.a,
            "b": side.b,
            "lower_bound": bound.value,
            "chi_eq": chi,
            "branch": branch,
        }


def cmd_table(args) -> int:
    family, _, span = args.range_spec.partition(":")
    if family.startswith("family:"):
        family = family[len("family:"):]
    lo_text, sep, hi_text = span.partition("..")
    if not sep:
        raise ValueError("range spec must look like FAMILY:LO..HI")
    rows = list(_table_rows(family, int(lo_text), int(hi_text)))
    fields = ["instance", "n", "max_degree", "a", "b", "lower_bound", "chi_eq", "branch"]
    if args.json and args.csv:
        raise ValueError("--json and --csv are mutually exclusive")
    if args.json:
        _emit(args, _base_report(args, args.range_spec, {"rows": rows}), [])
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        print(buffer.getvalue(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiforest",
        description="Equitable k-colorings of forests: decide, construct, verify.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON run report")
        p.add_argument("--no-timing", action="store_true",
                       help="omit timing from JSON output (golden-test mode)")

    p = sub.add_parser("decide", help="is the instance equitably k-colorable?")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("input", help="edge-list file, '-' for stdin, or family:SPEC")
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("color", help="construct an equitable k-coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", help="write the coloring to this file")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against an instance")
    p.add_argument("--k", type=int, default=None,
                   help="class count (default: largest class in the file)")
    p.add_argument("input")
    p.add_argument("coloring", help="file of 'vertex class' lines")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chromatic", help="equitable chromatic number")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("check-theorems", help="exhaustive property suites")
    p.add_argument("--max-n", type=int, default=None,
                   help="largest tree order (clamped per suite: "
                        + ", ".join(f"{k}<={v}" for k, v in SUITE_MAX_N.items()) + ")")
    p.add_argument("--which", default=",".join(SUITES),
                   help="comma-separated subset of " + ",".join(SUITES))
    # argparse converts a string default with `type` only when this
    # subcommand is chosen, so a bad value is a usage error here alone
    p.add_argument("--shards", type=int,
                   default=os.environ.get(SHARDS_ENV, "1"),
                   help=f"split enumeration into this many ranges (env {SHARDS_ENV})")
    p.add_argument("--shard-index", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_check_theorems)

    p = sub.add_parser("table", help="CSV table over a one-parameter family range")
    p.add_argument("range_spec", help="e.g. star:3..8 or paper3path:3..6")
    p.add_argument("--csv", action="store_true",
                   help="force CSV output (the default unless --json)")
    common(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except (ForestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
