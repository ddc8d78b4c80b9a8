"""Loop-nest model: parsing, transformation semantics, configurations."""

import json
from pathlib import Path

import pytest

from pragmatune.errors import (
    DuplicateLoopIdError,
    InvalidTargetError,
    NestParseError,
)
from pragmatune.loops import (
    Configuration,
    Interchange,
    Loop,
    LoopNest,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Unroll,
    anchor_id,
    apply,
    apply_all,
    is_floor_lineage,
    load_loop_nest,
    perfect_nests,
    pragma_identity,
    step_key,
    target_loop,
)

from helpers import chain_nest


REPO = Path(__file__).resolve().parent.parent


def nest_doc(**kwargs) -> str:
    return json.dumps(kwargs)


def ids(nest: LoopNest) -> list[str]:
    return [loop.id for loop in nest.walk()]


class TestLoadLoopNest:
    def test_simple_chain(self):
        nest = load_loop_nest(
            nest_doc(
                loops=[{"id": "i", "children": [{"id": "j"}]}],
                arrays=["A", "B"],
            )
        )
        assert ids(nest) == ["i", "j"]
        assert nest.arrays == ("A", "B")
        assert all(l.transformable for l in nest.walk())
        assert all(l.unrollable and l.reversible for l in nest.walk())
        assert all(l.packed == frozenset() for l in nest.walk())

    def test_multiple_roots_and_flags(self):
        nest = load_loop_nest(
            nest_doc(loops=[{"id": "i"}, {"id": "j", "transformable": False}])
        )
        assert [r.id for r in nest.roots] == ["i", "j"]
        assert nest.find("i").transformable
        assert not nest.find("j").transformable
        assert nest.arrays == ()

    def test_invalid_json(self):
        with pytest.raises(NestParseError):
            load_loop_nest("{not json")

    def test_missing_loops_key(self):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(arrays=["A"]))

    def test_loops_must_be_list(self):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops={"id": "i"}))

    def test_loop_entry_needs_id(self):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"children": []}]))

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateLoopIdError):
            load_loop_nest(nest_doc(loops=[{"id": "i", "children": [{"id": "i"}]}]))

    def test_dot_in_id_rejected(self):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"id": "i.t"}]))

    def test_empty_id_rejected(self):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"id": ""}]))

    def test_a_key_colliding_id_or_array_name_is_rejected(self):
        # With loops x, y and "x)|reverse(y", reversing the third had the
        # key of reversing x then y, so the session answered one
        # configuration with the other's record.
        assert Configuration((Reverse("x)|reverse(y"),)).key == Configuration(
            (Reverse("x"), Reverse("y"))
        ).key
        with pytest.raises(NestParseError, match="ASCII identifier"):
            load_loop_nest(nest_doc(loops=[{"id": "x"}, {"id": "y"}, {"id": "x)|reverse(y"}]))
        with pytest.raises(NestParseError, match="ASCII identifiers"):
            load_loop_nest(nest_doc(loops=[{"id": "i"}], arrays=["A;x"]))

    @pytest.mark.parametrize("loop_id", ["1i", "i-j", "i j", "\u00ef"])
    def test_an_id_that_is_not_an_ascii_identifier_is_rejected(self, loop_id):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"id": loop_id}]))

    def test_children_must_be_list(self):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"id": "i", "children": {"id": "j"}}]))

    def test_arrays_must_be_unique_nonempty_strings(self):
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"id": "i"}], arrays=["A", "A"]))
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"id": "i"}], arrays=[""]))
        with pytest.raises(NestParseError):
            load_loop_nest(nest_doc(loops=[{"id": "i"}], arrays="AB"))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"loops": [{"id": "i", "transformable": "no"}]}, "'transformable' must be bool"),
            ({"loops": [{"id": "i", "transformable": 0}]}, "'transformable' must be bool"),
            ({"loops": [{"id": "i", "childern": [{"id": "j"}]}]}, "'childern'"),
            ({"loops": [{"id": "i", "transformible": False}]}, "'transformible'"),
            ({"loops": [{"id": "i"}], "array": ["A"]}, "'array'"),
        ],
    )
    def test_every_field_follows_the_config_type_rule(self, doc, message):
        # Each of these parsed at the parent: a truthy string or a 0 set
        # the flag, and a misspelt key was ignored (dropping a subtree,
        # or every pack step for a misspelt "arrays").
        with pytest.raises(NestParseError, match=message):
            load_loop_nest(json.dumps(doc))

    def test_committed_nests_parse_as_before(self):
        j = Loop("j")
        assert load_loop_nest((REPO / "demos" / "matscale_nest.json").read_text()) == LoopNest(
            (Loop("i", (j,)),), ("A",)
        )
        k = Loop("k")
        chain3 = (REPO / "bench" / "workloads" / "chain3_nest.json").read_text()
        assert load_loop_nest(chain3) == LoopNest((Loop("i", (Loop("j", (k,)),)),), ("A", "B"))


class TestPerfectNests:
    def test_single_loop(self):
        assert perfect_nests(chain_nest(1)) == [["i0"]]

    def test_chain_of_three(self):
        assert perfect_nests(chain_nest(3)) == [["i0", "i1", "i2"]]

    def test_branch_splits_chains(self):
        nest = LoopNest(
            (Loop("i", children=(Loop("j"), Loop("k", children=(Loop("l"),)))),)
        )
        assert perfect_nests(nest) == [["i"], ["j"], ["k", "l"]]

    def test_frozen_loop_splits_chain(self):
        inner = Loop("k")
        mid = Loop("j", children=(inner,), transformable=False)
        nest = LoopNest((Loop("i", children=(mid,)),))
        assert perfect_nests(nest) == [["i"], ["k"]]

    def test_fully_frozen_nest(self):
        nest = LoopNest((Loop("i", transformable=False),))
        assert perfect_nests(nest) == []


class TestTile:
    def test_tile_depth_two_chain(self):
        body = Loop("b", transformable=False)
        nest = LoopNest((Loop("i", children=(Loop("j", children=(body,)),)),))
        tiled = apply(nest, Tile("i", 32))
        assert ids(tiled) == ["i.f", "j.f", "i.t", "j.t", "b"]
        floors_then_tiles = list(tiled.walk())
        # Rendering reads a tiled loop's lineage from its id alone.
        lineage = [is_floor_lineage(l.id) for l in floors_then_tiles[:4]]
        assert lineage == [True, True, False, False]
        assert all(l.transformable for l in floors_then_tiles[:4])
        # The chain body moves under the innermost tile loop unchanged.
        assert tiled.find("j.t").children == (body,)

    def test_tile_single_loop(self):
        tiled = apply(chain_nest(1), Tile("i0", 8, peel=True))
        assert ids(tiled) == ["i0.f", "i0.t"]

    def test_tiled_loops_are_fresh(self):
        tiled = apply(chain_nest(1), Tile("i0", 8))
        for loop in tiled.walk():
            assert loop.transformable and loop.unrollable and loop.reversible
            assert loop.packed == frozenset()

    def test_retiling_covers_the_new_chain(self):
        # After tiling, floor and tile loops form one perfect chain, so a
        # second tile transforms both of them.
        tiled = apply(chain_nest(1), Tile("i0", 8))
        again = apply(tiled, Tile("i0.f", 4))
        assert ids(again) == ["i0.f.f", "i0.t.f", "i0.f.t", "i0.t.t"]

    def test_tile_requires_chain_head(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(2), Tile("i1", 32))

    def test_tile_requires_positive_size(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(1), Tile("i0", 0))

    def test_tile_missing_loop(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(1), Tile("zz", 32))


class TestInterchange:
    def test_swap_two(self):
        swapped = apply(chain_nest(2, arrays=("A",)), Interchange("i0", (1, 0)))
        assert ids(swapped) == ["i1", "i0"]
        assert swapped.arrays == ("A",)

    def test_rotation_of_three_keeps_body(self):
        body = Loop("b", transformable=False)
        nest = LoopNest(
            (Loop("i", children=(Loop("j", children=(Loop("k", children=(body,)),)),)),)
        )
        rotated = apply(nest, Interchange("i", (2, 0, 1)))
        # Position p of the new chain holds old chain[perm[p]].
        assert ids(rotated) == ["k", "i", "j", "b"]
        assert rotated.find("j").children == (body,)

    def test_identity_rejected(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(2), Interchange("i0", (0, 1)))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(2), Interchange("i0", (1, 2, 0)))

    def test_non_head_rejected(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(3), Interchange("i1", (1, 0)))


class TestParallelizeThread:
    def test_freezes_whole_subtree(self):
        nest = chain_nest(3)
        frozen = apply(nest, ParallelizeThread("i1"))
        assert ids(frozen) == ["i0", "i1", "i2"]
        assert frozen.find("i0").transformable
        assert not frozen.find("i1").transformable
        assert not frozen.find("i2").transformable

    def test_frozen_loop_rejects_everything(self):
        frozen = apply(chain_nest(2), ParallelizeThread("i0"))
        for step in (
            ParallelizeThread("i1"),
            Unroll("i1", 2),
            Reverse("i1"),
            Tile("i1", 8),
        ):
            with pytest.raises(InvalidTargetError):
                apply(frozen, step)


class TestUnroll:
    def test_full_unroll_splices_children(self):
        nest = chain_nest(3)
        spliced = apply(nest, Unroll("i1"))
        assert ids(spliced) == ["i0", "i2"]
        assert spliced.find("i0").children == (nest.find("i2"),)

    def test_full_unroll_of_leaf_removes_it(self):
        spliced = apply(chain_nest(2), Unroll("i1", None))
        assert ids(spliced) == ["i0"]
        assert spliced.find("i0").children == ()

    def test_full_unroll_of_only_root_empties_nest(self):
        spliced = apply(chain_nest(1), Unroll("i0"))
        assert spliced.roots == ()

    def test_partial_unroll_consumes_eligibility(self):
        once = apply(chain_nest(1), Unroll("i0", 4))
        assert ids(once) == ["i0"]
        assert not once.find("i0").unrollable
        assert once.find("i0").transformable
        with pytest.raises(InvalidTargetError):
            apply(once, Unroll("i0", 2))
        with pytest.raises(InvalidTargetError):
            apply(once, Unroll("i0", None))

    def test_factor_below_two_rejected(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(1), Unroll("i0", 1))


class TestReverse:
    def test_reverse_consumes_eligibility(self):
        once = apply(chain_nest(1), Reverse("i0"))
        assert not once.find("i0").reversible
        assert once.find("i0").transformable
        with pytest.raises(InvalidTargetError):
            apply(once, Reverse("i0"))


class TestPack:
    def test_pack_records_array(self):
        nest = chain_nest(2, arrays=("A", "B"))
        packed = apply(nest, Pack("i1", "A"))
        assert packed.find("i1").packed == frozenset({"A"})
        assert packed.find("i0").packed == frozenset()

    def test_same_array_same_loop_rejected(self):
        nest = apply(chain_nest(1, arrays=("A",)), Pack("i0", "A"))
        with pytest.raises(InvalidTargetError):
            apply(nest, Pack("i0", "A"))

    def test_other_array_still_allowed(self):
        nest = apply(chain_nest(1, arrays=("A", "B")), Pack("i0", "A"))
        packed = apply(nest, Pack("i0", "B"))
        assert packed.find("i0").packed == frozenset({"A", "B"})

    def test_unknown_array_rejected(self):
        with pytest.raises(InvalidTargetError):
            apply(chain_nest(1, arrays=("A",)), Pack("i0", "Z"))


class TestConfiguration:
    def test_key_depth_extended(self):
        config = Configuration()
        assert config.key == "" and config.depth == 0
        config = config.extended(Tile("i", 32)).extended(Unroll("i.t", None))
        assert config.key == "tile(i;32;nopeel)|unroll(i.t;full)"
        assert config.depth == 2

    def test_key_is_joined_once_and_ignored_by_equality(self):
        config = Configuration((Tile("i", 32), Unroll("i.t", None)))
        assert config.key is config.key
        fresh = Configuration(config.steps)
        assert fresh == config and hash(fresh) == hash(config)
        assert {config: 1}[fresh] == 1

    def test_apply_all_matches_stepwise(self):
        nest = chain_nest(2, arrays=("A",))
        config = Configuration((Tile("i0", 8), ParallelizeThread("i0.f")))
        assert apply_all(nest, config) == apply(apply(nest, config.steps[0]), config.steps[1])

    def test_apply_all_empty_is_identity(self):
        nest = chain_nest(2)
        assert apply_all(nest, Configuration()) == nest


class TestStepText:
    def test_step_keys_are_distinct(self):
        steps = [
            Tile("i", 32, False),
            Tile("i", 32, True),
            Tile("i", 2, False),
            Tile("j", 32, False),
            Interchange("i", (1, 0)),
            Interchange("i", (1, 2, 0)),
            ParallelizeThread("i"),
            Unroll("i", None),
            Unroll("i", 4),
            Reverse("i"),
            Pack("i", "A"),
            Pack("i", "B"),
        ]
        keys = [step_key(s) for s in steps]
        assert len(set(keys)) == len(keys)
        assert step_key(Tile("i", 32)) == "tile(i;32;nopeel)"
        assert step_key(Unroll("i")) == "unroll(i;full)"

    def test_pragma_identity_ignores_loop_ids(self):
        assert pragma_identity(Tile("i", 32, True)) == pragma_identity(Tile("q.f", 32, True))
        assert pragma_identity(Tile("i", 32, True)) != pragma_identity(Tile("i", 32, False))
        assert pragma_identity(Unroll("i", None)) != pragma_identity(Unroll("i", 2))
        assert pragma_identity(Pack("i", "A")) != pragma_identity(Pack("i", "B"))
        assert pragma_identity(ParallelizeThread("i")) == ("parallelize",)

    def test_target_loop(self):
        assert target_loop(Tile("i", 4)) == "i"
        assert target_loop(Interchange("j", (1, 0))) == "j"
        assert target_loop(Pack("k", "A")) == "k"
        assert target_loop(Unroll("m", 2)) == "m"

    def test_non_transformations_raise_type_error(self):
        nest = chain_nest(1)
        for call in (target_loop, step_key, pragma_identity, lambda s: apply(nest, s)):
            for step in ("x", None, Loop("i0")):
                with pytest.raises(TypeError, match="not a transformation"):
                    call(step)


class TestIdLineage:
    def test_anchor_id(self):
        assert anchor_id("i") == "i"
        assert anchor_id("i.f.t") == "i"

    def test_is_floor_lineage(self):
        assert is_floor_lineage("i")
        assert is_floor_lineage("i.f")
        assert is_floor_lineage("i.f.f")
        assert not is_floor_lineage("i.t")
        assert not is_floor_lineage("i.f.t")
