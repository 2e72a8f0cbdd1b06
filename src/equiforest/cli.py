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

``main(argv)`` may be called many times in one process: the argument
parser is built on the first call and reused, while the
``EQUIFOREST_SHARDS`` default is read on every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from importlib import resources

from .constructor import (
    NotColorableError,
    ProofStepError,
    construct,
    format_coloring,
    parse_coloring_text,
    verify,
)
from .equitable import DecisionProfile, decide, equitable_chromatic_number
from .forest import Forest, parse_forest
from .generators import FamilySpec, format_family, gen_family, parse_family
from .harness import SUITE_MAX_N, SUITES, run_checks

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


def _render(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With an indent, json.dumps walks the value in pure Python; here only
    the containers are walked, each scalar and key goes through the C
    encoder, and a list of plain ints is joined in one C-level pass.  When
    its ints lie in 0..len(list), as a coloring's ``assignment`` and an
    ``orientation`` do, each is looked up in a table of the strings for
    0..max, built once, in place of a ``str()`` per element; any other
    list of ints (``sizes``, say) takes ``str()``.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        parts = [f"{json.dumps(key if isinstance(key, str) else json.dumps(key))}:"
                 f" {_render(item, inner)}" for key, item in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if set(map(type, value)) != {int}:  # bools are not plain ints
            parts = [_render(item, inner) for item in value]
        elif min(value) >= 0 and (top := max(value)) <= len(value):
            parts = map(list(map(str, range(top + 1))).__getitem__, value)
        else:
            parts = map(str, value)
        brackets = "[]"
    else:
        return json.dumps(value)
    body = (",\n" + inner).join(parts)
    if not body:
        return brackets
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _emit(args, instance: str | None, result: dict, lines: list[str],
          counterexamples: list | None = None) -> None:
    if args.json:
        report = {"command": args._argv, "instance": instance, "result": result,
                  "counterexamples": counterexamples or []}
        if not args.no_timing:
            report["timing_seconds"] = time.perf_counter() - args._t0
        print(_render(report))
    else:
        for line in lines:
            print(line)


def cmd_decide(args) -> int:
    forest, name = _load_instance(args.input)
    outcome = decide(forest, args.k)
    orientation = outcome.orientation
    result = dict(vars(outcome), n=forest.n, orientation=None if orientation is None
                  else list(map(int, orientation)))
    lines = [f"{name}: equitably {args.k}-colorable: {'yes' if outcome.colorable else 'no'}"]
    if not outcome.colorable and outcome.witness_vertex is not None and args.k >= 3:
        lines.append(
            f"  witness: vertex {outcome.witness_vertex} has stability"
            f" {outcome.witness_alpha} < floor(n/k) = {outcome.threshold}"
        )
    _emit(args, name, result, lines)
    return 0 if outcome.colorable else 1


def cmd_color(args) -> int:
    forest, name = _load_instance(args.input)
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
    sizes = sorted(coloring.sizes())
    result = {
        "k": coloring.k,
        "n": forest.n,
        "branch": branch,
        "fallback_used": False,  # always false; kept for report readers
        "sizes": sizes,
        "assignment": coloring.assignment,
    }
    lines = [f"{name}: equitable {coloring.k}-coloring"
             f" (branch {branch}, sizes {sizes})"]
    if not args.output and not args.json:
        lines.append(format_coloring(coloring).rstrip("\n"))
    _emit(args, name, result, lines)
    return 0


def cmd_verify(args) -> int:
    forest, name = _load_instance(args.input)
    with open(args.coloring, "r", encoding="utf-8") as handle:
        coloring = parse_coloring_text(handle.read(), forest.n, args.k)
    outcome = verify(forest, coloring)
    result = {
        "valid": outcome.ok,
        "k": coloring.k,
        "monochromatic_edges": outcome.monochromatic_edges,
        "size_violations": outcome.size_violations,
    }
    lines = [f"{name}: coloring {'valid' if outcome.ok else 'INVALID'}"]
    for u, v in outcome.monochromatic_edges:
        lines.append(f"  monochromatic edge ({u}, {v})")
    for ci, si, cj, sj in outcome.size_violations:
        lines.append(f"  classes {ci} and {cj} have sizes {si} and {sj}")
    _emit(args, name, result, lines)
    return 0 if outcome.ok else 1


def cmd_chromatic(args) -> int:
    forest, name = _load_instance(args.input)
    profile = DecisionProfile(forest)
    value = equitable_chromatic_number(forest, profile)
    bound = profile.lower_bound
    result = {
        "equitable_chromatic_number": value,
        "lower_bound": bound.value,
        "lower_bound_vertex": bound.vertex,
        "n": forest.n,
        "empty": forest.n == 0,
    }
    lines = [f"{name}: equitable chromatic number = {value}"
             + (" (empty forest, by convention)" if forest.n == 0 else "")]
    _emit(args, name, result, lines)
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
    _emit(args, None, result, lines, counterexamples)
    return 0 if not counterexamples else 1


def _table_rows(family: str, lo: int, hi: int):
    for value in range(lo, hi + 1):
        spec = FamilySpec(family, (value,))
        forest = gen_family(spec)
        profile = DecisionProfile(forest)
        side = profile.bipartition
        chi = equitable_chromatic_number(forest, profile)
        # chi is 0 only for the empty forest, which every k >= 3 colors
        _, trace = construct(forest, chi or 3, profile)
        yield {
            "instance": format_family(spec),
            "n": forest.n,
            "max_degree": forest.max_degree,
            "a": side.a,
            "b": side.b,
            "lower_bound": profile.lower_bound.value,
            "chi_eq": chi,
            "branch": trace.branch,
        }


def cmd_table(args) -> int:
    if args.json and args.csv:
        raise ValueError("--json and --csv are mutually exclusive")
    family, _, span = args.range_spec.removeprefix("family:").partition(":")
    lo_text, sep, hi_text = span.partition("..")
    if not sep:
        raise ValueError("range spec must look like FAMILY:LO..HI")
    rows = list(_table_rows(family, int(lo_text), int(hi_text)))
    fields = ["instance", "n", "max_degree", "a", "b", "lower_bound", "chi_eq", "branch"]
    if args.json:
        _emit(args, args.range_spec, {"rows": rows}, [])
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        print(buffer.getvalue(), end="")
    return 0


@functools.cache
def _build_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    # the parser and its check-theorems subparser, whose --shards default
    # main() refreshes on every call
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

    p = check_parser = sub.add_parser("check-theorems", help="exhaustive property suites")
    p.add_argument("--max-n", type=int, default=None,
                   help="largest tree order (clamped per suite: "
                        + ", ".join(f"{k}<={v}" for k, v in SUITE_MAX_N.items()) + ")")
    p.add_argument("--which", default=",".join(SUITES),
                   help="comma-separated subset of " + ",".join(SUITES))
    p.add_argument("--shards", type=int,
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

    return parser, check_parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, check_parser = _build_parsers()
    # argparse converts a string default with `type` only when its
    # subcommand is chosen, so a bad value is a usage error there alone
    check_parser.set_defaults(shards=os.environ.get(SHARDS_ENV, "1"))
    args = parser.parse_args(argv)
    args._argv = argv
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        reason = "out of memory for this input" if isinstance(exc, MemoryError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
