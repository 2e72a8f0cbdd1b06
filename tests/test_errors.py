"""Documented errors and edge returns that no other test reaches, each
raised through the public function that documents it, and the errors of
the tests' bipartition checker."""

import pytest

from equiforest import (
    Bipartition,
    EquitableColoring,
    ForestError,
    class_sizes,
    parse_forest,
    realize2,
    select_bipartition,
    verify,
)
from equiforest.constructor import parse_coloring_text
from equiforest.equitable import DecisionReport
from equiforest.generators import SplitMix64
from equiforest.oracle import oracle_alpha
from equiforest.stability import stable_set_of_size_min_b

from conftest import check_bipartition

PATH3 = parse_forest("3\n0 1\n1 2")


@pytest.mark.parametrize("call, error, message", [
    (lambda: verify(PATH3, EquitableColoring(0, (1, 1, 1))),
     ValueError, "k must be >= 1"),
    (lambda: parse_coloring_text("0 1\n1 2 3\n", 2),
     ValueError, "line 2: expected 'vertex class'"),
    (lambda: realize2(PATH3, DecisionReport(k=2, colorable=True)),
     ValueError, "decision report lacks its orientation witness"),
    (lambda: realize2(PATH3, DecisionReport(k=2, colorable=True, orientation=(True, False))),
     ValueError, "decision report does not match the forest"),
    (lambda: class_sizes(-1, 2), ValueError, "n must be >= 0"),
    (lambda: check_bipartition(Bipartition((True, False), 1, 1), PATH3),
     ForestError, "side flags do not cover the vertex set"),
    (lambda: check_bipartition(Bipartition((True, False, True), 1, 2), PATH3),
     ForestError, "side counts inconsistent with flags"),
    (lambda: check_bipartition(Bipartition((False, True, False), 1, 2), PATH3),
     ForestError, "side A must be at least as large as side B"),
    (lambda: SplitMix64(0).below(0), ValueError, "bound must be >= 1"),
], ids=["verify-k", "coloring-line", "realize2-witness", "realize2-forest",
        "class-sizes-n", "check-cover", "check-counts", "check-a-ge-b", "below-bound"])
def test_documented_error(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_empty_forest_stability_number():
    assert oracle_alpha(parse_forest("0")) == 0


def test_stable_set_larger_than_forest():
    side = select_bipartition(PATH3)
    assert stable_set_of_size_min_b(PATH3, 0, 4, side) is None
