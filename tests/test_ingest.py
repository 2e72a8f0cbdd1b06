"""Differential tests of edge-list ingest against the reference reader.

Every input must give the same stored fields (n, edges, adjacency,
component_id), or the same error class, message and reported cycle, from
``parse_forest``/``Forest.from_edges`` and from the reference loop they
replaced (tests/reference_ingest.py).
"""

import itertools
import random
from collections import namedtuple

import pytest

from equiforest import Forest, ForestError, parse_forest, serialize_forest

from conftest import seeded_random_forests
from ingest_corpus import CORPUS
from reference_ingest import reference_from_edges, reference_parse_forest


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

    def test_pair_of_wrong_length_is_rejected_as_before(self):
        for pairs in ([(0, 1, 2)], [(0, 1), (2,)], [(0,), (1, 2, 3)]):
            with pytest.raises(ValueError) as exc:
                Forest.from_edges(4, pairs)
            with pytest.raises(ValueError) as ref:
                reference_from_edges(4, pairs)
            assert str(exc.value) == str(ref.value)

    def test_neighbours_in_increasing_order(self):
        f = Forest.from_edges(6, [(5, 2), (2, 0), (4, 2), (1, 2), (3, 5)])
        assert f.adjacency[2] == (0, 1, 4, 5)
        assert f.adjacency[5] == (2, 3)
        assert f.edges == ((0, 2), (1, 2), (2, 4), (2, 5), (3, 5))
