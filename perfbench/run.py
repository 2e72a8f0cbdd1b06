#!/usr/bin/env python3
"""Benchmark of the equiforest library and CLI.

    python3 perfbench/run.py --workload big-trees --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One client in one process runs a workload's operation list in a closed
loop (the next operation starts when the previous one returns), pass
after pass, until --seconds have elapsed.  Operations are in-process CLI
calls (`equiforest.cli.main` with --json --no-timing, stdout captured) on
edge-list files written at set-up, or harness calls in the sweep.  Every
output is checked; see workloads.py.

Times are reported in reference seconds: a fixed calibration loop runs
before every operation, and each pass's latencies are scaled by the
loop's reference time over its mean time in that pass (see README.md).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see spans.py), each as the last line of stdout in JSON.
--workload all runs each workload in a fresh interpreter, one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import layers
import summary
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("sweep", "big-trees", "many-components")
SETUP_REPEATS = 3
SETUP_CALIBRATIONS = 20  # loop runs before and after each set-up
CALIBRATION_LOOP = 5_000
CALIBRATION_REF_S = 1e-3  # the loop's time, by definition, on the reference host


class ProgramMissing(RuntimeError):
    """The checkout holds no equiforest sources to benchmark."""


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop with a small working set;
    its changes track the host's speed, not the program's."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(CALIBRATION_LOOP):
        table[i & 255] = i
        acc += len(str(i))
    return time.perf_counter() - start


def import_program() -> SimpleNamespace:
    """Import equiforest afresh from the checkout's src/ (never from an
    installed copy), dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "equiforest" or m.startswith("equiforest.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        modules = {name: importlib.import_module(f"equiforest.{name}")
                   for name in ("cli", "harness", "constructor", "equitable",
                                "forest", "generators")}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import equiforest from {SRC}: {exc}") from None
    origin = os.path.realpath(modules["cli"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ProgramMissing(f"equiforest resolved outside {SRC}: {origin}")
    return SimpleNamespace(**modules)


def build_groups(program, workload: str, seed: int, workdir: str) -> list:
    """Generate the workload's instances, write them as edge-list files
    and attach each instance's operations."""
    if workload == "sweep":
        return [workloads.Group(None, [op]) for op in workloads.sweep_ops()]
    gen = program.generators
    forest_mod = program.forest
    groups = []
    for spec in workloads.SPECS[workload](seed):
        forest = gen.gen_family(gen.parse_family(spec.family))
        if spec.extra_edges:
            forest = forest_mod.Forest.from_edges(
                forest.n + len(spec.extra_edges), list(forest.edges) + list(spec.extra_edges))
        path = os.path.join(workdir, spec.label + ".txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(forest_mod.serialize_forest(forest))
        groups.append(workloads.Group((spec.series, forest.n), workloads.cli_ops(spec),
                                      spec, forest, path))
    return groups


def setup(workload: str, seed: int, workdir: str, repeats: int):
    """Import plus instance generation and writing, `repeats` times;
    returns the median scaled time and the last set-up's program and
    groups."""
    times = []
    for _ in range(repeats):
        loops = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        start = time.perf_counter()
        program = import_program()
        groups = build_groups(program, workload, seed, workdir)
        elapsed = time.perf_counter() - start
        loops += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        times.append(elapsed * summary.speed_factor(loops, CALIBRATION_REF_S))
    return statistics.median(times), program, groups


def run_op(program, group, op):
    """Execute one operation; only this call is timed."""
    if op.kind == "check_main":
        return program.harness.check_main(
            workloads.MAIN_MAX_N, shards=workloads.MAIN_SHARDS,
            shard_index=op.shard, construct_yes=True)
    if op.kind == "check_lemma":
        return program.harness.check_lemma(workloads.LEMMA_MAX_N)
    argv = [op.kind] + ([] if op.k is None else ["--k", str(op.k)])
    argv += [group.path, "--json", "--no-timing"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@dataclass
class Pass:
    """One pass over the operation list: raw latencies in list order, the
    calibration times taken before each operation, and the outcome."""

    latencies: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)

    @property
    def factor(self) -> float:
        return summary.speed_factor(self.loops, CALIBRATION_REF_S)

    def scaled(self) -> list:
        factor = self.factor
        return [t * factor for t in self.latencies]


def run_pass(program, groups, checker, tracer=None) -> Pass:
    result = Pass()
    for group in groups:
        if tracer is not None:
            tracer.tag = group.tag
        outcomes = {}
        for op in group.ops:
            result.loops.append(calibrate())
            start = time.perf_counter()
            try:
                outcome = run_op(program, group, op)
            except Exception as exc:  # a failed operation must not end the run
                traceback.print_exc(file=sys.stderr)
                outcome = exc
            result.latencies.append(time.perf_counter() - start)
            if isinstance(outcome, dict):
                try:
                    outcome["report"] = json.loads(outcome["stdout"])
                except ValueError:  # no report, or not JSON: the checks flag it
                    outcome["report"] = None
            outcomes[op.op_id] = outcome
            if group.spec is not None:
                result.summaries[op.op_id] = workloads.summarize(op, outcome)
        guard = tracer.paused() if tracer is not None else contextlib.nullcontext()
        with guard:
            for op_id, found in checker.check_group(group, outcomes).items():
                if found:
                    result.problems[op_id] = found
    for op_id, found in sorted(result.problems.items()):
        for text in found:
            print(f"FAIL {op_id}: {text}", file=sys.stderr)
    return result


def end_to_end(setup_s: float, passes: list, failed: int) -> tuple[dict, list]:
    """The end-to-end metrics over whole passes, plus human lines."""
    scaled = [p.scaled() for p in passes]
    ops = len(scaled[0])
    per_op = [statistics.median(s[i] for s in scaled) for i in range(ops)]
    wall_s = statistics.median(sum(s) for s in scaled)
    tail = summary.tail(per_op)
    if tail is None:
        tail = (100.0, max(per_op), 0)
    attempted = ops * len(passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (ops / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail[1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines[4] += (f" (p{tail[0]:.4g} of {ops} per-operation medians, {tail[2]} beyond;"
                 f" {len(passes)} passes)")
    lines.append(f"error_rate = {summary.error_rate(failed, attempted):.6g} ratio"
                 f" ({failed} of {attempted} operations)")
    raw = statistics.median(sum(p.latencies) for p in passes)
    factor = statistics.median(p.factor for p in passes)
    lines.append(f"unscaled wall = {raw:.6g} s; host speed factor {factor:.4g}"
                 f" (calibration loop {CALIBRATION_REF_S / factor * 1e3:.4g} ms)")
    return metrics, lines


def measure(args, workdir: str) -> dict:
    expected = None
    if (args.seed == workloads.DEFAULT_SEED and args.workload != "sweep"
            and not args.record_expected):
        with open(EXPECTED, "r", encoding="utf-8") as handle:
            expected = json.load(handle)[args.workload]
    repeats = 1 if args.trace or args.record_expected else SETUP_REPEATS
    setup_s, program, groups = setup(args.workload, args.seed, workdir, repeats)
    # A CLI process holds one instance; this one holds them all.  Keep the
    # collector from rescanning them during every operation.
    gc.freeze()
    checker = workloads.Checker(program, expected)
    if args.record_expected:
        return record_expected(program, groups, checker, args.workload)

    passes = []
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(program, groups, checker))
        metrics, lines = end_to_end(setup_s, passes, sum(len(p.problems) for p in passes))
    else:
        tracer = Tracer()
        tracer.install(layers.TARGETS, "equiforest", layers.OBSERVERS)
        groups = build_groups(program, args.workload, args.seed, workdir)
        tracer.uninstall()
        gc.freeze()
        setup_spans = tracer.take()
        plain, traced, pass_spans = [], [], []
        while not traced or time.perf_counter() < deadline:
            plain.append(run_pass(program, groups, checker))
            tracer.install(layers.TARGETS, "equiforest", layers.OBSERVERS)
            traced.append(run_pass(program, groups, checker, tracer))
            tracer.uninstall()
            pass_spans.append((traced[-1].factor, tracer.take()))
        overhead = (statistics.median(sum(p.scaled()) for p in traced)
                    - statistics.median(sum(p.scaled()) for p in plain))
        metrics, lines = layers.per_layer(tracer, setup_spans, pass_spans, groups, overhead)
        passes = plain + traced
    for line in lines:
        print(line)
    failed = sum(len(p.problems) for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record_expected(program, groups, checker, workload: str) -> dict:
    """Rewrite this workload's entry of the expected-results table from
    one checked pass at the default seed."""
    result = run_pass(program, groups, checker)
    table = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, "r", encoding="utf-8") as handle:
            table = json.load(handle)
    table[workload] = result.summaries
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(result.summaries)} expected results for {workload}")
    return {"correct": not result.problems, "attempted": len(result.latencies),
            "failed": len(result.problems), "metrics": {}}


def run_all(args) -> dict:
    """Each workload in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"  {line}")
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json for this workload at the default seed")
    args = parser.parse_args(argv)
    if args.record_expected and (args.seed != workloads.DEFAULT_SEED or args.workload == "all"):
        parser.error("--record-expected needs one workload at the default seed")
    if args.workload == "all":
        result = run_all(args)
    else:
        workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            result = measure(args, workdir)
        except ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
