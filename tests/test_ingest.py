"""Differential tests of edge-list ingest against the reference readers.

Every input must give the same stored fields (n, edges, adjacency,
component_id), or the same error class, message and reported cycle, from
``parse_forest``/``Forest.from_edges`` and from the reference loop they
replaced (tests/reference_ingest.py), and every Forest field the same as
the edge-key build that came after that loop.  The plain reader's layout check
must accept exactly what the pattern it replaced accepted, its JSON
decode must give the ids that ``split`` and ``int`` give or refuse the
slice, and a build must leave the cyclic collector as it found it.
"""

import collections
import gc
import itertools
import os
import random
import re
import subprocess
import sys
import threading
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equiforest
from equiforest import CycleError, Forest, ForestError, forest, parse_forest, serialize_forest
from equiforest.generators import gen_family, parse_family, random_forest, random_tree

from conftest import seeded_random_forests
from ingest_corpus import CORPUS
from reference_ingest import (
    REFERENCE_PLAIN_PAIRS,
    reference_from_edges,
    reference_key_from_edges,
    reference_key_parse_forest,
    reference_parse_forest,
)


Built = namedtuple("Built", "n edges adjacency component_id")


def stored(f):
    """The fields the reference builds, read from a Forest."""
    return Built(f.n, f.edges, f.adjacency, f.component_id)


def outcome(build, *args):
    try:
        result = build(*args)
    except ForestError as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)
    return stored(result) if isinstance(result, Forest) else Built(*result)


def assert_same_parse(text):
    expected = outcome(reference_parse_forest, text)
    assert outcome(parse_forest, text) == expected, repr(text)
    return expected


def assert_same_build(n, pairs):
    expected = outcome(reference_from_edges, n, pairs)
    assert outcome(Forest.from_edges, n, pairs) == expected, (n, pairs)
    return expected


def edge_text(n, pairs, sep=" ", end="\n"):
    return f"{n}{end}" + "".join(f"{u}{sep}{v}{end}" for u, v in pairs)


def shuffled(pairs, rng):
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(out)
    return out


class TestAgainstReference:
    def test_every_edge_subset_up_to_seven_vertices(self):
        # every set of fewer than n edges of K_n, 1 <= n <= 7: all 40,232
        # labeled forests, each also shuffled with random orientations, and
        # the subsets with a cycle (at n = 7 one in eight of them reordered)
        rng = random.Random(0)
        forests = 0
        for n in range(1, 8):
            pairs = list(itertools.combinations(range(n), 2))
            for count in range(n):
                for subset in itertools.combinations(pairs, count):
                    expected = assert_same_build(n, subset)
                    mixed = shuffled(subset, rng)
                    if isinstance(expected, Built):
                        forests += 1
                        assert stored(parse_forest(edge_text(n, subset))) == expected
                        assert stored(Forest.from_edges(n, mixed)) == expected
                        assert stored(parse_forest(edge_text(n, mixed))) == expected
                    elif n < 7 or rng.random() < 0.125:
                        assert_same_parse(edge_text(n, subset))
                        assert_same_build(n, mixed)
                        assert_same_parse(edge_text(n, mixed))
        assert forests == 40_232

    def test_seeded_random_forests(self):
        rng = random.Random(1)
        for f in seeded_random_forests():
            assert assert_same_parse(serialize_forest(f)) == stored(f)
            mixed = shuffled(f.edges, rng)
            assert assert_same_build(f.n, mixed) == stored(f)
            assert assert_same_parse(edge_text(f.n, mixed, "\t", "\r\n")) == stored(f)

    @pytest.mark.parametrize("name,text", CORPUS, ids=[name for name, _ in CORPUS])
    def test_corpus(self, name, text):
        assert_same_parse(text)

    def test_random_defective_edge_lists(self):
        # ids from -1 to n, so every defect kind occurs, alone and mixed
        rng = random.Random(2)
        for _ in range(20_000):
            n = rng.randrange(9)
            pairs = [(rng.randint(-1, n), rng.randint(-1, n))
                     for _ in range(rng.randrange(n + 3))]
            assert_same_build(n, pairs)
            assert_same_parse(edge_text(n, pairs))

    def test_random_layouts(self):
        # lines of 0 to 3 tokens, mostly small ids, with assorted spacing,
        # line ends and the odd comment or malformed token
        rng = random.Random(4)
        tokens = [str(i) for i in range(8)] * 4 + ["x", "-1", "+2", "01", "#", "1#"]
        for _ in range(20_000):
            lines = [str(rng.randrange(8))] if rng.random() < 0.9 else []
            for _ in range(rng.randrange(8)):
                count = rng.choice((0, 1, 2, 2, 2, 2, 2, 3))
                sep = rng.choice((" ", " ", "\t", "  "))
                lines.append(rng.choice(("", " ")) + sep.join(rng.choice(tokens) for _ in range(count)))
            end = rng.choice(("\n", "\n", "\r\n", "\r", "\x0c"))
            assert_same_parse(end.join(lines) + rng.choice(("", end)))

    def test_random_cycles_in_large_forests(self):
        # one extra edge closes a long cycle; the report names its path
        rng = random.Random(3)
        for f in itertools.islice(seeded_random_forests(), 0, 400, 10):
            for _ in range(3):
                u, v = rng.randrange(f.n), rng.randrange(f.n)
                pairs = shuffled(f.edges, rng) + [(u, v)] + shuffled(f.edges[:5], rng)
                assert_same_build(f.n, pairs)
                assert_same_parse(edge_text(f.n, pairs))


class TestFromEdges:
    def test_accepts_any_iterable_of_pairs(self):
        expected = reference_from_edges(4, [(0, 1), (3, 1)])
        assert stored(Forest.from_edges(4, ((u, v) for u, v in [(0, 1), (3, 1)]))) == expected
        assert stored(Forest.from_edges(4, [[0, 1], [3, 1]])) == expected

    def test_item_that_is_not_a_pair_is_a_forest_error(self):
        # the first such item in input order is named, also one without a
        # length or with an id that is no int; a defect before it comes
        # first, as any earlier defect does
        for pairs, named in (([(0, 1, 2)], "(0, 1, 2)"), ([(0,)], "(0,)"),
                             ([(0, 1), (2,)], "(2,)"), ([(0,), (1, 2, 3)], "(0,)"),
                             ([[0, 1], [1, 2, 0]], "(1, 2, 0)"), ([(0, 1), ()], "()"),
                             ([5], "5"), ([None], "None"), ([(0, 1), 5], "5"),
                             (["ab"], "'ab'"), ([(0, "x")], "(0, 'x')"),
                             ([(0, 1.0)], "(0, 1.0)"), ([(0, 1), 5, (0,)], "5")):
            with pytest.raises(ForestError) as exc:
                Forest.from_edges(3, pairs)
            assert type(exc.value) is ForestError
            assert str(exc.value) == f"edge {named} is not a pair of vertex ids"
        with pytest.raises(ForestError, match=r"^edge \(0, 3\) out of range for n=3$"):
            Forest.from_edges(3, [(0, 3), (1,)])
        with pytest.raises(CycleError):
            Forest.from_edges(3, [(0, 1), (1, 2), (2, 0), (1, 0, 2)])
        with pytest.raises(CycleError, match=r"^cycle closed by edge \(0, 2\)$"):
            Forest.from_edges(3, [(0, 1), (1, 2), (0, 2), 5])

    def test_neighbours_in_increasing_order(self):
        f = Forest.from_edges(6, [(5, 2), (2, 0), (4, 2), (1, 2), (3, 5)])
        assert f.adjacency[2] == (0, 1, 4, 5)
        assert f.adjacency[5] == (2, 3)
        assert f.edges == ((0, 2), (1, 2), (2, 4), (2, 5), (3, 5))


def full_outcome(build, *args):
    """Every field of the Forest built, or the error's class, message and
    reported cycle."""
    try:
        result = build(*args)
    except ForestError as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)
    return vars(result)  # n, adjacency, component_id, sides, order, parent


def assert_same_as_key_build(n, pairs, **spelling):
    expected = full_outcome(reference_key_from_edges, n, pairs)
    assert full_outcome(Forest.from_edges, n, pairs) == expected, (n, pairs)
    text = edge_text(n, pairs, **spelling)
    assert full_outcome(parse_forest, text) == full_outcome(reference_key_parse_forest, text), text
    return expected


def defect_kind(outcome):
    if isinstance(outcome, dict):
        return "forest"
    return outcome[0].__name__ + ": " + " ".join(re.sub(r"\(.*?\)|-?\d+", "", outcome[1]).split())


class TestAgainstKeyBuild:
    """The build that fills the per-vertex lists straight from the ids
    against the edge-key build it replaced: the same Forest, field by
    field, or the same error, from both from_edges and parse_forest."""

    def test_every_edge_set_up_to_six_vertices(self):
        # every set of up to n + 1 edges of K_n, n <= 6, shuffled with
        # about half its pairs flipped, with now and then a random pair
        # added (a self-loop, duplicate, cycle or bad id)
        rng = random.Random(5)
        kinds = collections.Counter()
        for n in range(7):
            pairs = list(itertools.combinations(range(n), 2))
            for count in range(min(n + 1, len(pairs)) + 1):
                for subset in itertools.combinations(pairs, count):
                    mixed = shuffled(subset, rng)
                    if rng.random() < 0.25:
                        extra = rng.randint(-1, n), rng.randint(-1, n)
                        mixed.insert(rng.randrange(len(mixed) + 1), extra)
                    kinds[defect_kind(assert_same_as_key_build(n, mixed))] += 1
        assert set(kinds) == {
            "forest", "ForestError: edge out of range for n=",
            "ForestError: self-loop at vertex", "ForestError: duplicate edge",
            "CycleError: cycle closed by edge"}, kinds

    def test_seeded_random_forests(self):
        rng = random.Random(6)
        for f in seeded_random_forests():
            assert assert_same_as_key_build(f.n, f.edges) == vars(f)
            assert assert_same_as_key_build(f.n, shuffled(f.edges, rng)) == vars(f)

    def test_many_slices(self):
        # texts of several layout-check slices each, in both decoders'
        # spellings, with a defect placed late
        rng = random.Random(7)
        for n, c in ((3000, 1), (3000, 40), (5000, 2500)):
            f = random_forest(n, c, n + c)
            mixed = shuffled(f.edges, rng)
            assert len(edge_text(n, mixed)) > 4 * forest._CHUNK
            assert assert_same_as_key_build(n, mixed) == vars(f)
            assert assert_same_as_key_build(n, mixed, sep="\t", end="\r\n") == vars(f)
            for extra in ((0, n), (1, 1), mixed[0], (mixed[0][0], mixed[-1][1])):
                assert_same_as_key_build(n, mixed[:-1] + [extra] + mixed[-1:])


# a child interpreter capped at 1 GiB of address space parses argv[1],
# and prints the error and its tracemalloc peak in bytes
_CAPPED_PARSE = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from equiforest import ParseError, parse_forest
tracemalloc.start()
try:
    parse_forest(sys.argv[1])
except ParseError as exc:
    print(exc)
print(tracemalloc.get_traced_memory()[1])
"""
# the directory the tested equiforest was imported from
_SRC = os.path.dirname(os.path.dirname(equiforest.__file__))


class TestHugeVertexCount:
    """A syntax error after a vertex count of 10^15 is reported at once:
    every slice passes the layout check before the build allocates its
    per-vertex lists."""

    @pytest.mark.parametrize("line,message", [
        ("0 x", "line 3: vertex ids are not integers"),
        ("1 2 3", "line 3: expected 'u v'"),
    ])
    def test_syntax_error_before_anything_of_size_n(self, line, message):
        text = f"{10**15}\n0 1\n{line}\n"
        child = subprocess.run([sys.executable, "-c", _CAPPED_PARSE, text],
                               capture_output=True, text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": _SRC})
        assert child.returncode == 0, child.stderr
        error, peak = child.stdout.splitlines()
        assert error == message
        assert int(peak) < 1 << 20


def same_verdict(text):
    return (forest._PLAIN_PAIRS.fullmatch(text) is None) == (
        REFERENCE_PLAIN_PAIRS.fullmatch(text) is None)


class TestPlainLayout:
    """The plain reader's layout check against the pattern it replaced,
    and the inputs that must (and must not) take the plain reader."""

    def test_same_language_on_every_short_string(self):
        # all 335,923 strings of length <= 7 over six characters
        accepted = 0
        for length in range(8):
            for chars in itertools.product("1 \t\r\nx", repeat=length):
                text = "".join(chars)
                assert same_verdict(text), repr(text)
                accepted += REFERENCE_PLAIN_PAIRS.fullmatch(text) is not None
        assert accepted == 9_558

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(
        ["0", "17", " ", "\t", "\r", "\n", "\r\n", "x", "#", "3 4", "5\t6 \n", " 7  8\r\n"]),
        max_size=40).map("".join))
    def test_same_language_on_longer_strings(self, text):
        assert same_verdict(text), repr(text)

    @pytest.mark.parametrize("text", [
        "3\n0 1\n1 2\n",
        "3\r\n0 1\r\n1 2\r\n",
        "3\n0\t1\n\t1 \t 2\t\n",
        "\n  \n3\n\n0 1\n \t\n1 2\n\n\n",
        "3 \t\n0 1  \n1 2 \t",
        "3\r\n2 1\r\n\r\n1 0",
    ])
    def test_plain_layouts_take_the_plain_reader(self, text):
        built = forest._read_plain(text)
        assert isinstance(built, Forest)
        assert stored(built) == outcome(reference_parse_forest, text)

    def test_serialized_forests_take_the_plain_reader(self):
        for f in itertools.islice(seeded_random_forests(), 0, 400, 7):
            assert forest._read_plain(serialize_forest(f)) == f

    @pytest.mark.parametrize("text", [
        "3\n0 1 # an edge\n1 2\n",
        "# a forest\n3\n0 1\n1 2\n",
        "3\n+0 1\n1 2\n",
        "3\n0 1\n1 -2\n",
        "3\n0 \u0661\n1 2\n",  # ARABIC-INDIC DIGIT ONE
        "\uff13\n0 1\n1 2\n",  # FULLWIDTH DIGIT THREE
        "3\n0 1\n2\n",
        "3\n0 1 2\n",
    ])
    def test_other_layouts_fall_back_to_the_line_reader(self, text):
        assert forest._read_plain(text) is None


def split_ids(text):
    """The ids that C-level split and int read from a slice, or ValueError
    when int refuses one of them."""
    try:
        return list(map(int, text.split()))
    except ValueError:
        return ValueError


# the serializer's spelling: one space between ids, bare line ends
_SERIALIZED = re.compile(r"(?:(?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)(?:\n|\Z))*")
_ID = st.integers(0, 10**6).map(str) | st.sampled_from(["0", "00", "01", "007"])
_BLANKS = st.sampled_from([" ", " ", " ", "\t", "  ", " \t", "\t "])
_LINE = st.tuples(
    st.sampled_from(["", "", "", " ", "\t"]),
    st.one_of(st.just(()), st.tuples(_ID, _BLANKS, _ID, st.sampled_from(["", "", " ", "\t"]))),
).map(lambda t: t[0] + "".join(t[1]))
# slices of whole lines in the plain layout; the last may lack its line end
_PLAIN_SLICES = st.tuples(
    st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\n", "\r\n"])).map("".join),
             max_size=12),
    st.one_of(st.just(""), _LINE),
).map(lambda t: "".join(t[0]) + t[1])
_LONG_ID = "1" * (sys.get_int_max_str_digits() + 1)


class TestJsonDecode:
    """A plain slice decodes, in one call of the C JSON scanner, to the ids
    that split and int read, or is refused and takes split and int."""

    @settings(max_examples=1000, deadline=None)
    @given(_PLAIN_SLICES)
    def test_same_ids_as_split_or_refused(self, text):
        assert forest._PLAIN_PAIRS.fullmatch(text), repr(text)
        decoded = forest._json_ids(text)
        if _SERIALIZED.fullmatch(text):
            assert decoded is not None, repr(text)
        assert decoded is None or decoded == split_ids(text), repr(text)

    @pytest.mark.parametrize("text,decoded,split", [
        ("0 1\n12 3\n", [0, 1, 12, 3], [0, 1, 12, 3]),
        ("00 01\n", None, [0, 1]),
        ("1 \t2\n", [1, 2], [1, 2]),
        ("1\t 2\n", [1, 2], [1, 2]),
        ("1\t2\n", None, [1, 2]),
        ("1 2\r\n3 4\r\n", [1, 2, 3, 4], [1, 2, 3, 4]),
        ("1 2\n\n3 4\n", None, [1, 2, 3, 4]),
        ("\n1 2\n", None, [1, 2]),
        (" 1 2\n", None, [1, 2]),
        ("1 2 \n3 4\n", None, [1, 2, 3, 4]),
        ("1 2  \n\n", [1, 2], [1, 2]),
        ("", [], []),
        (f"1 {_LONG_ID}\n", None, ValueError),
    ])
    def test_spellings(self, text, decoded, split):
        assert forest._PLAIN_PAIRS.fullmatch(text)
        assert forest._json_ids(text) == decoded
        assert split_ids(text) == split
        assert_same_parse(f"5\n{text}")

    def test_serialized_forests_never_fall_back(self, monkeypatch):
        # a refused slice still parses, only slower, so count the refusals
        decodes = []
        real = forest._json_ids

        def counted(lines):
            ids = real(lines)
            decodes.append(ids is not None)
            return ids

        monkeypatch.setattr(forest, "_json_ids", counted)
        # the seeded forests, and each family of the big-trees benchmark
        # workload at its larger size
        families = [gen_family(parse_family(f"family:{spec}")) for spec in (
            "path:20000", "caterpillar:6666," + ",".join(["2"] * 6666),
            "random_tree:20000,7", "caterpillar:8000," + ",".join(["3,0"] * 4000),
            "star:19999", "caterpillar:363,5," + ",".join(["0,1"] * 181),
            "caterpillar:5,7,0,1,0,1")]
        for f in [*seeded_random_forests(), *families]:
            assert parse_forest(serialize_forest(f)) == f
        assert len(decodes) > 400 and all(decodes)


@pytest.fixture
def collector_state():
    """Restore the collector's state after the test, whatever it did."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.usefixtures("collector_state")
class TestCollectorPause:
    """A build pauses the cyclic collector and leaves its state as it
    found it: after a return or a raise, alone, nested or concurrent."""

    TEXT = serialize_forest(random_tree(200, 1))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_a_parse(self, enabled):
        (gc.enable if enabled else gc.disable)()
        assert parse_forest(self.TEXT).n == 200
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_a_rejected_forest(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(CycleError):
            Forest.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_a_raise_inside_the_walk(self, monkeypatch, enabled):
        def failing_walk(*args):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(forest, "_walk", failing_walk)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="walk failed"):
            parse_forest(self.TEXT)
        assert gc.isenabled() is enabled

    def test_collector_off_during_the_walk(self, monkeypatch):
        seen = []
        walk = forest._walk

        def recording_walk(*args):
            seen.append(gc.isenabled())
            return walk(*args)

        monkeypatch.setattr(forest, "_walk", recording_walk)
        gc.enable()
        parse_forest(self.TEXT)
        assert seen == [False] and gc.isenabled()

    def test_nested_pauses_hold_until_the_outermost_exits(self, monkeypatch):
        gc.enable()
        walk = forest._walk
        inner = []

        def nesting_walk(*args):  # one build inside another
            monkeypatch.setattr(forest, "_walk", walk)
            inner.append(parse_forest(self.TEXT).n)
            inner.append(gc.isenabled())
            return walk(*args)

        with forest._collector_paused:
            with forest._collector_paused:
                assert not gc.isenabled()
            assert not gc.isenabled()
            monkeypatch.setattr(forest, "_walk", nesting_walk)
            parse_forest(self.TEXT)
            assert inner == [200, False]
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_concurrent_builds_restore_the_state(self, enabled):
        text = serialize_forest(random_tree(20_000, 2))
        expected = parse_forest(text)
        start = threading.Barrier(8, timeout=60)
        results = []

        def parse_five_times():
            start.wait()
            results.extend(parse_forest(text) == expected for _ in range(5))

        (gc.enable if enabled else gc.disable)()
        threads = [threading.Thread(target=parse_five_times) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many more thread switches inside each build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 40
        assert gc.isenabled() is enabled
