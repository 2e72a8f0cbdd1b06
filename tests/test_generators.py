"""Instance families: shapes, determinism, uniformity, spec parsing."""

import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equiforest.generators as generators
from equiforest import Forest, lower_bound, decide2, equitable_chromatic_number
from equiforest.generators import (
    FamilySpec,
    SplitMix64,
    format_family,
    gen_family,
    parse_family,
    random_forest,
)

from reference_generators import (
    reference_double_star,
    reference_paper3path,
    reference_random_forest,
    reference_random_tree,
    reference_star,
)


class TestShapes:
    def test_leafy_path_degrees(self):
        f = gen_family(FamilySpec("paper3path", (3,)))
        assert f.n == 12
        assert f.max_degree == 5
        assert f.degree(0) == 4 and f.degree(2) == 4 and f.degree(1) == 5

    def test_star(self):
        f = gen_family(FamilySpec("star", (6,)))
        assert f.n == 7
        assert f.edges == tuple((0, i) for i in range(1, 7))

    def test_path(self):
        f = gen_family(FamilySpec("path", (5,)))
        assert f.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_double_star(self):
        f = gen_family(FamilySpec("double_star", (2, 3)))
        assert f.n == 7
        assert f.degree(0) == 3 and f.degree(1) == 4

    def test_spider(self):
        f = gen_family(FamilySpec("spider", (3, 2)))
        assert f.n == 7
        assert f.degree(0) == 3
        assert sorted(f.degree(v) for v in range(1, 7)) == [1, 1, 1, 2, 2, 2]

    def test_caterpillar(self):
        f = gen_family(FamilySpec("caterpillar", (3, 1, 2, 0)))
        assert f.n == 6
        assert f.degree(0) == 2 and f.degree(1) == 4 and f.degree(2) == 1

    def test_random_forest_component_count(self):
        for seed in range(50):
            f = gen_family(FamilySpec("random_forest", (15, 1 + seed % 5), seed))
            assert f.num_components == 1 + seed % 5

    def test_all_families_validate(self):
        specs = [
            FamilySpec("path", (7,)),
            FamilySpec("star", (5,)),
            FamilySpec("double_star", (3, 4)),
            FamilySpec("spider", (4, 3)),
            FamilySpec("caterpillar", (4, 2, 0, 1, 3)),
            FamilySpec("paper3path", (4,)),
            FamilySpec("random_tree", (17,), 9),
            FamilySpec("random_forest", (23, 4), 10),
        ]
        for spec in specs:
            gen_family(spec).validate()

    def test_small_leafy_path_warns(self):
        with pytest.warns(UserWarning):
            gen_family(FamilySpec("paper3path", (2,)))

    def test_bad_parameters(self):
        for spec in (
            FamilySpec("path", ()),
            FamilySpec("star", (-1,)),
            FamilySpec("spider", (2, 0)),
            FamilySpec("caterpillar", (2, 1)),
            FamilySpec("random_tree", (5,)),  # missing seed
            FamilySpec("nosuch", (1,)),
        ):
            with pytest.raises(ValueError):
                gen_family(spec)


class TestDeterminism:
    def test_random_tree_repeatable(self):
        a = gen_family(FamilySpec("random_tree", (10,), 42))
        b = gen_family(FamilySpec("random_tree", (10,), 42))
        assert a.edges == b.edges

    def test_random_forest_repeatable(self):
        a = gen_family(FamilySpec("random_forest", (25, 3), 7))
        b = gen_family(FamilySpec("random_forest", (25, 3), 7))
        assert a == b

    def test_seeds_differ(self):
        edges = {gen_family(FamilySpec("random_tree", (10,), s)).edges for s in range(30)}
        assert len(edges) > 25

    def test_splitmix_reference_values(self):
        # first outputs of the well-known stream for seed 0
        rng = SplitMix64(0)
        assert rng.next64() == 0xE220A8397B1DCDAF
        assert rng.next64() == 0x6E789E6AA1B965F4


class TestReferenceRandomForest:
    """``random_forest`` against the generator as it was before its two
    shortcuts: every field of every Forest equal."""

    def test_every_small_forest(self):
        # every n <= 40, every c in 1..n, seeds 0-11: 9,840 forests
        for n in range(1, 41):
            for c in range(1, n + 1):
                for seed in range(12):
                    assert vars(random_forest(n, c, seed)) == vars(
                        reference_random_forest(n, c, seed)), (n, c, seed)

    @pytest.mark.parametrize("c", [2_000, 1_999, 1_000])
    def test_many_components(self, c):
        for seed in range(3):
            assert vars(random_forest(2_000, c, seed)) == vars(
                reference_random_forest(2_000, c, seed)), (c, seed)

    def test_edgeless_forest_draws_nothing(self, monkeypatch):
        def no_draw(self):
            raise AssertionError("random_forest drew at c = n")

        monkeypatch.setattr(SplitMix64, "next64", no_draw)
        for seed in range(5):
            assert vars(random_forest(50, 50, seed)) == vars(Forest.from_edges(50, ()))

    def test_two_vertex_components_skip_decoding(self, monkeypatch):
        sizes = []
        real = generators.decode_prufer

        def counted(size, word):
            sizes.append(size)
            return real(size, word)

        monkeypatch.setattr(generators, "decode_prufer", counted)
        f = random_forest(60, 25, 4)
        assert vars(f) == vars(reference_random_forest(60, 25, 4))
        assert 2 in Counter(f.component_id).values()
        assert sizes and 2 not in sizes


def _outcome(build, *args):
    """Every field of build(*args), or its ValueError message, plus the
    warnings it issued with the line they point at."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("forest", vars(build(*args)))
        except ValueError as error:
            result = ("error", str(error))
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


class TestReferenceDelegation:
    """``star``, ``double_star`` and ``paper3path``, which build as
    caterpillars, and ``random_tree``, a one-component ``random_forest``,
    against their own edge loops as they were: the same Forest in every
    field, the same ValueError, the same warning."""

    def test_star(self):
        for d in range(-1, 61):
            assert _outcome(generators.star, d) == _outcome(reference_star, d), d

    def test_double_star(self):
        for p in range(-1, 13):
            for q in range(-1, 13):
                assert _outcome(generators.double_star, p, q) == _outcome(
                    reference_double_star, p, q), (p, q)

    def test_paper3path(self):
        for ell in range(-1, 13):
            outcome = _outcome(generators.paper3path, ell)
            assert outcome == _outcome(reference_paper3path, ell), ell
            assert len(outcome[1]) == (0 <= ell < 3), ell

    def test_random_tree(self):
        for n in range(201):
            for seed in range(25):
                assert _outcome(generators.random_tree, n, seed) == _outcome(
                    reference_random_tree, n, seed), (n, seed)

    def test_large_random_tree(self):
        assert vars(generators.random_tree(20_000, 7)) == vars(
            reference_random_tree(20_000, 7))


class TestUniformity:
    def test_random_tree_hits_all_small_trees_uniformly(self):
        # 10^5 seeded draws at n=5: all 125 labeled trees, each within
        # 5 sigma of the uniform expectation
        samples = 100_000
        counts = Counter()
        for seed in range(samples):
            counts[gen_family(FamilySpec("random_tree", (5,), seed)).edges] += 1
        assert len(counts) == 125
        expected = samples / 125
        sigma = (samples * (1 / 125) * (124 / 125)) ** 0.5
        for edges, count in counts.items():
            assert abs(count - expected) <= 5 * sigma, (edges, count)


class TestFamilyStrings:
    @pytest.mark.parametrize(
        "text,family,params,seed",
        [
            ("family:star:5", "star", (5,), None),
            ("star:5", "star", (5,), None),
            ("family:caterpillar:3,1,2,0", "caterpillar", (3, 1, 2, 0), None),
            ("family:random_tree:10,42", "random_tree", (10,), 42),
            ("family:random_forest:12,3,7", "random_forest", (12, 3), 7),
        ],
    )
    def test_parse(self, text, family, params, seed):
        spec = parse_family(text)
        assert (spec.family, spec.params, spec.seed) == (family, params, seed)

    def test_format_roundtrip(self):
        for text in ("family:star:5", "family:random_tree:10,42", "family:path:9"):
            assert format_family(parse_family(text)) == text

    def test_parse_errors(self):
        for text in ("family:", "family:star:one", "family:a:1:2", "family:random_tree"):
            with pytest.raises(ValueError):
                parse_family(text)

    @settings(max_examples=60)
    @given(st.integers(1, 40), st.integers(0, 2**63))
    def test_spec_identity(self, n, seed):
        spec = FamilySpec("random_tree", (n,), seed)
        assert gen_family(spec) == gen_family(spec)


class TestLeafyPathFamilyProperties:
    def test_clamp_is_real_for_documented_range(self):
        # lower bound stays 2 but three classes are genuinely needed
        for ell in range(3, 9):
            f = gen_family(FamilySpec("paper3path", (ell,)))
            assert f.n == 3 * ell + 3
            assert lower_bound(f).value == 2
            assert not decide2(f).colorable
            assert equitable_chromatic_number(f) == 3
