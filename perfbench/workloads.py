"""The three workloads: their instances, their operation lists and the
checks on every operation's output.

sweep            check_main(6, construct_yes=True) in contiguous shards,
                 plus check_lemma(6): millions of tiny calls per run.
big-trees        single-component instances: parse-bound decide/color at
                 large n, the all-vertex stability scan under `chromatic`,
                 and the pivot branches' knapsack.
many-components  random forests with c = n/2 and c = n components: the
                 side-choice tables of select_bipartition and decide2.

Random instances take their generator seeds from the benchmark seed; the
program receives only the edge-list files written at set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1

MAIN_MAX_N = 6
MAIN_SHARDS = 99
MAIN_PAIRS = 5_594  # (tree, k) pairs, k in 3..n, over labeled trees n = 3..6
LEMMA_MAX_N = 6
LEMMA_TREES = 1_442  # labeled trees n = 1..6

TREE_COMMANDS = (("decide", 3), ("decide", 2), ("color", 3), ("color", 4))

# The 15-vertex pivot-multi witness: caterpillar 5,7,0,1,0,1 plus a
# pendant vertex on the hub's neighbour.  Each extra edge joins a new
# vertex to the generated forest.
PIVOT_MULTI = ("caterpillar:5,7,0,1,0,1", ((1, 14),))


@dataclass(frozen=True)
class InstanceSpec:
    """One generated instance and the CLI commands run on it.

    `series` groups the sizes of one family for the log-log slope.
    """

    label: str
    series: str
    family: str
    commands: tuple
    extra_edges: tuple = ()


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation on an instance file, or one call
    into the harness."""

    op_id: str
    kind: str  # decide | color | chromatic | check_main | check_lemma
    k: int | None = None
    shard: int | None = None


@dataclass
class Group:
    """Operations that share an instance; checked together after the last
    one returns, so decide and color on one instance back each other."""

    tag: tuple | None
    ops: list
    spec: InstanceSpec | None = None
    forest: object = None
    path: str | None = None


def _caterpillar(counts) -> str:
    return "caterpillar:" + ",".join(str(c) for c in [len(counts), *counts])


def big_tree_specs(seed: int) -> list[InstanceSpec]:
    rng = random.Random(seed)
    specs = []
    for n in (5_000, 20_000):
        spine = n // 3
        harvest_spine = 2 * n // 5
        specs += [
            InstanceSpec(f"path-{n}", "path", f"path:{n}", TREE_COMMANDS),
            InstanceSpec(f"caterpillar-{n}", "caterpillar",
                         _caterpillar([2] * spine), TREE_COMMANDS),
            InstanceSpec(f"random_tree-{n}", "random_tree",
                         f"random_tree:{n},{rng.randrange(2**31)}", TREE_COMMANDS),
            InstanceSpec(f"harvest-{n}", "harvest",
                         _caterpillar([3, 0] * (harvest_spine // 2)), TREE_COMMANDS),
            InstanceSpec(f"star-{n}", "star", f"star:{n - 1}", (("decide", 3),)),
        ]
    for n in (125, 500):
        specs += [
            InstanceSpec(f"chromatic-random_tree-{n}", "chromatic-random_tree",
                         f"random_tree:{n},{rng.randrange(2**31)}", (("chromatic", None),)),
            InstanceSpec(f"chromatic-star-{n}", "chromatic-star",
                         f"star:{n - 1}", (("chromatic", None),)),
        ]
    for spine in (181, 363):  # n = 276 and 549
        counts = [5] + [1 - i % 2 for i in range(1, spine)]
        specs.append(InstanceSpec(f"pivot-single-{spine}", "pivot-single",
                                  _caterpillar(counts), (("color", 3),)))
    specs.append(InstanceSpec("pivot-multi-15", "pivot-multi", PIVOT_MULTI[0],
                              (("color", 3),), PIVOT_MULTI[1]))
    return specs


def many_component_specs(seed: int) -> list[InstanceSpec]:
    rng = random.Random(seed)
    specs = []
    tiers = (
        ("color3", (300, 600, 1200), (("color", 3),)),
        ("chromatic", (100, 200, 400), (("chromatic", None),)),
        ("two", (5_000, 10_000, 20_000), (("decide", 2), ("color", 2))),
    )
    for tier, sizes, commands in tiers:
        for n in sizes:
            for rep in range(2):
                specs.append(InstanceSpec(
                    f"{tier}-half{rep}-{n}", f"{tier}-half{rep}",
                    f"random_forest:{n},{n // 2},{rng.randrange(2**31)}", commands))
            specs.append(InstanceSpec(
                f"{tier}-edgeless-{n}", f"{tier}-edgeless",
                f"random_forest:{n},{n},{rng.randrange(2**31)}", commands))
    return specs


# sweep has no instances: its operations are harness calls (sweep_ops)
SPECS = {
    "big-trees": big_tree_specs,
    "many-components": many_component_specs,
}


def cli_ops(spec: InstanceSpec) -> list[Op]:
    return [Op(f"{spec.label}/{cmd}{'' if k is None else k}", cmd, k)
            for cmd, k in spec.commands]


def sweep_ops() -> list[Op]:
    ops = [Op(f"main-{i:02d}", "check_main", shard=i) for i in range(MAIN_SHARDS)]
    ops.append(Op("lemma", "check_lemma"))
    return ops


def shard_pairs(shard: int, shards: int = MAIN_SHARDS, max_n: int = MAIN_MAX_N) -> int:
    """(tree, k >= 3) pairs in one contiguous shard of the main sweep:
    each level's n^(n-2) Prufer indices split into ceil-sized ranges."""
    pairs = 0
    for n in range(3, max_n + 1):
        total = n ** (n - 2)
        step = -(-total // shards)
        lo = min(step * shard, total)
        hi = min(lo + step, total)
        pairs += (hi - lo) * (n - 2)
    return pairs


def pairs_per_pass(groups) -> int:
    """(forest, k >= 3) decisions a pass asks for: the main sweep's
    checked pairs, or the decide/color operations with k >= 3."""
    total = 0
    for group in groups:
        for op in group.ops:
            if op.kind == "check_main":
                total += shard_pairs(op.shard)
            elif op.kind in ("decide", "color") and op.k >= 3:
                total += 1
    return total


# ----------------------------------------------------------------- checks

def valid_coloring(forest, k: int, assignment) -> str | None:
    """Independent check of an equitable k-coloring: every class index
    in 1..k, no edge inside a class, class sizes within one of each
    other.  Returns the problem, or None."""
    if len(assignment) != forest.n:
        return f"assignment covers {len(assignment)} of {forest.n} vertices"
    counts = [0] * (k + 1)
    for c in assignment:
        if not 1 <= c <= k:
            return f"class {c} outside 1..{k}"
        counts[c] += 1
    for u, v in forest.edges:
        if assignment[u] == assignment[v]:
            return f"edge ({u}, {v}) inside class {assignment[u]}"
    if k and max(counts[1:]) - min(counts[1:]) > 1:
        return f"class sizes {sorted(counts[1:])} differ by more than one"
    return None


def _adjacency(forest) -> list:
    adjacency = [[] for _ in range(forest.n)]
    for u, v in forest.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def alpha_containing(forest, x: int) -> int:
    """Size of a largest stable set through x: 1 plus a take/skip tree DP
    over the forest without x's closed neighbourhood.  Written apart from
    the program's stability code so that it can check a "no"."""
    n = forest.n
    adjacency = _adjacency(forest)
    alive = bytearray([1]) * n
    alive[x] = 0
    for w in adjacency[x]:
        alive[w] = 0
    take = [1] * n
    skip = [0] * n
    parent = [-1] * n
    total = 1
    for root in range(n):
        if not alive[root]:
            continue
        alive[root] = 0
        order = [root]
        for u in order:
            for w in adjacency[u]:
                if alive[w]:
                    alive[w] = 0
                    parent[w] = u
                    order.append(w)
        for u in reversed(order[1:]):
            p = parent[u]
            take[p] += skip[u]
            skip[p] += max(take[u], skip[u])
        total += max(take[root], skip[root])
    return total


def reaches_half(forest) -> bool:
    """Whether one side per component can be chosen to sum to floor(n/2),
    i.e. whether an equitable 2-coloring exists."""
    n = forest.n
    adjacency = _adjacency(forest)
    side = [-1] * n
    reach = 1
    for root in range(n):
        if side[root] >= 0:
            continue
        side[root] = 0
        counts = [1, 0]
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    counts[side[w]] += 1
                    stack.append(w)
        reach = (reach << counts[0]) | (reach << counts[1])
    return bool(reach >> (n // 2) & 1)


def summarize(op: Op, outcome) -> dict:
    """The part of an output the expected table records: verdicts,
    chromatic numbers and branches, never coloring bytes."""
    if isinstance(outcome, BaseException):
        return {"error": type(outcome).__name__}
    code, report = outcome["code"], outcome["report"]
    result = report["result"] if report else {}
    if op.kind == "decide":
        return {"code": code, "colorable": result.get("colorable")}
    if op.kind == "color":
        return {"code": code, "branch": result.get("branch")}
    return {"code": code, "chi": result.get("equitable_chromatic_number")}


class Checker:
    """Checks each operation's output; `program` gives the library calls
    that back a verdict with a coloring."""

    def __init__(self, program, expected: dict | None):
        self.program = program
        self.expected = expected

    def check_group(self, group: Group, outcomes: dict) -> dict:
        """Map each op id of the group to a list of problems."""
        problems = {op.op_id: [] for op in group.ops}
        for op in group.ops:
            outcome = outcomes[op.op_id]
            found = problems[op.op_id]
            if isinstance(outcome, BaseException):
                found.append(f"raised {type(outcome).__name__}: {outcome}")
                continue
            if op.kind == "check_main":
                want = shard_pairs(op.shard)
                self._check_report(outcome, want, found)
            elif op.kind == "check_lemma":
                self._check_report(outcome, LEMMA_TREES, found)
            else:
                self._check_cli(group, op, outcome, outcomes, found)
            if self.expected is not None and op.kind not in ("check_main", "check_lemma"):
                want = self.expected.get(op.op_id)
                got = summarize(op, outcome)
                if want != got:
                    found.append(f"expected {want}, got {got}")
        return problems

    @staticmethod
    def _check_report(report, checked: int, found: list) -> None:
        if report.counterexamples:
            found.append(f"{len(report.counterexamples)} counterexamples,"
                         f" first: {report.counterexamples[0].get('detail')}")
        if report.checked != checked:
            found.append(f"checked {report.checked}, expected {checked}")
        if report.certified or report.sampled:
            found.append("sweep was not exhaustive")

    def _check_cli(self, group, op, outcome, outcomes, found) -> None:
        forest = group.forest
        code, report = outcome["code"], outcome["report"]
        if op.kind == "chromatic":
            if code != 0 or report is None:
                found.append(f"exit {code}")
                return
            chi = report["result"]["equitable_chromatic_number"]
            self._back_yes(forest, chi, found)
            if chi >= 2:
                self._back_no(forest, chi - 1, None, found)
            return
        if code not in (0, 1):
            found.append(f"exit {code}: {outcome['stderr'].strip()[:200]}")
            return
        yes = code == 0
        if yes and report is None:
            found.append("no JSON report")
            return
        partner_kind = "color" if op.kind == "decide" else "decide"
        partner = next((o for o in group.ops if o.kind == partner_kind and o.k == op.k), None)
        if partner is not None:
            other = outcomes[partner.op_id]
            if not isinstance(other, BaseException) and other["code"] in (0, 1):
                if (other["code"] == 0) != yes:
                    found.append(f"{op.kind} and {partner_kind} disagree at k={op.k}")
        if op.kind == "decide":
            result = report["result"] if report else None
            if result is None or result["colorable"] != yes:
                found.append("verdict and exit code disagree")
            elif yes and partner is None:
                self._back_yes(forest, op.k, found)
            elif not yes:
                self._back_no(forest, op.k, result["witness_vertex"], found)
            return
        if yes:
            result = report["result"]
            if result["k"] != op.k:
                found.append(f"coloring has k={result['k']}")
            if result["fallback_used"]:
                found.append("construction used the fallback search")
            self._accept(forest, op.k, result["assignment"], found)
        elif partner is None:
            self._back_no(forest, op.k, None, found)

    def _back_no(self, forest, k: int, witness, found: list) -> None:
        """A negative answer at k must come with a certificate that this
        file checks on its own: an edge for k = 1, side sizes that cannot
        reach floor(n/2) for k = 2, and for k >= 3 a vertex whose largest
        stable set is smaller than floor(n/k)."""
        if k == 1:
            if not forest.edges:
                found.append("no at k=1 on an edgeless forest")
        elif k == 2:
            if reaches_half(forest):
                found.append("no at k=2, yet component sides reach floor(n/2)")
        else:
            if witness is None:
                decision = self.program.equitable.decide(forest, k)
                if decision.colorable:
                    found.append(f"no at k={k}, yet the decision says yes")
                    return
                witness = decision.witness_vertex
            if witness is None:
                found.append(f"no at k={k} without a witness vertex")
            elif alpha_containing(forest, witness) >= forest.n // k:
                found.append(f"witness vertex {witness} does not certify no at k={k}")

    def _back_yes(self, forest, k: int, found: list) -> None:
        """A positive answer at k must come with a coloring at k."""
        lib = self.program
        if k == 1:
            assignment = [1] * forest.n
        elif k == 2:
            decision = lib.equitable.decide2(forest)
            if not decision.colorable:
                found.append("no 2-coloring behind a yes")
                return
            assignment = list(lib.constructor.realize2(forest, decision).assignment)
        else:
            coloring, trace = lib.constructor.construct(forest, k)
            if trace.fallback_used:
                found.append("construction used the fallback search")
            assignment = list(coloring.assignment)
        self._accept(forest, k, assignment, found)

    def _accept(self, forest, k: int, assignment, found: list) -> None:
        problem = valid_coloring(forest, k, assignment)
        if problem is not None:
            found.append(f"invalid {k}-coloring: {problem}")
            return
        lib = self.program.constructor
        if not lib.verify(forest, lib.EquitableColoring(k, tuple(assignment))).ok:
            found.append(f"verify rejects a valid {k}-coloring")
