"""The package's public names, pinned so that one is added or dropped only
on purpose."""

import pytest

import equiforest
import equiforest.stability as stability
from equiforest import Bipartition, EquitableColoring, Forest

PUBLIC = [
    "Bipartition", "ConstructionTrace", "CycleError", "DecisionProfile",
    "DecisionReport", "EquitableColoring", "FamilySpec", "Forest",
    "ForestError", "LowerBoundReport", "MajorVertexReport",
    "NotColorableError", "OracleLimitError", "ParseError", "ProofStepError",
    "SideProfile", "SplitMix64", "VerificationReport", "alpha",
    "alpha_profile", "alpha_x", "class_sizes", "construct", "decide",
    "decide1", "decide2", "equitable_chromatic_number", "gen_family",
    "labeled_trees_in_range", "leaves_in", "lower_bound",
    "major_vertex_check", "num_labeled_trees", "oracle_alpha",
    "oracle_alpha_x", "oracle_exists", "parse_family", "parse_forest",
    "realize2", "select_bipartition", "serialize_forest",
    "stable_set_of_size_min_b", "verify",
]


def test_public_names_are_pinned():
    namespace = {}
    exec("from equiforest import *", namespace)  # raises if a name is missing
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(equiforest.__all__) == PUBLIC
    assert len(PUBLIC) == 43


@pytest.mark.parametrize("owner, name", [
    (Forest, "degree"), (Forest, "num_components"), (Forest, "validate"),
    (Bipartition, "from_flags"), (Bipartition, "side_a"), (Bipartition, "side_b"),
    (Bipartition, "check"), (EquitableColoring, "class_vertices"),
    (stability, "max_stable_set"), (stability, "max_stable_set_containing"),
    (stability, "_witness"),
])
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(owner, name)
