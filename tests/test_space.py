"""Sparse space enumeration checked against an exhaustive oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragmatune import space
from pragmatune.errors import InvalidTargetError
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
    apply,
    perfect_nests,
    step_key,
    target_loop,
)
from pragmatune.space import (
    SpaceParams,
    child,
    child_count,
    child_index,
    child_transformation,
    level_counts,
    random_walk,
    root_node,
)

from helpers import chain_nest, oracle_children, random_nest, random_params


def assert_node_agrees(node, depth_left):
    expected = oracle_children(node.nest, node.params)
    assert child_count(node) == len(expected)
    for i, step in enumerate(expected):
        assert child_transformation(node, i) == step
        assert child_index(node, step) == i
    if depth_left == 0:
        return
    for i in range(len(expected)):
        assert_node_agrees(child(node, i), depth_left - 1)


class TestFrozenCounts:
    def test_single_loop_no_arrays_default_params(self):
        # 10 sizes x 2 peels = 20 tiles, no interchange, 1 parallelize,
        # full + 3 factors = 4 unrolls, 1 reverse, no packs.
        root = root_node(chain_nest(1), SpaceParams())
        assert child_count(root) == 26
        assert len(oracle_children(root.nest, root.params)) == 26

    def test_two_loop_chain_with_array(self):
        # 20 tiles + 1 swap + 2 parallelize + 8 unrolls + 2 reverses + 2 packs.
        root = root_node(chain_nest(2, arrays=("A",)), SpaceParams())
        assert child_count(root) == 35
        assert child_count(root_node(chain_nest(2), SpaceParams())) == 33

    def test_section_layout_two_loop_chain(self):
        root = root_node(chain_nest(2, arrays=("A",)), SpaceParams())
        assert child_transformation(root, 0) == Tile("i0", 2, False)
        assert child_transformation(root, 1) == Tile("i0", 2, True)
        assert child_transformation(root, 19) == Tile("i0", 256, True)
        assert child_transformation(root, 20) == Interchange("i0", (1, 0))
        assert child_transformation(root, 21) == ParallelizeThread("i0")
        assert child_transformation(root, 22) == ParallelizeThread("i1")
        assert child_transformation(root, 23) == Unroll("i0", None)
        assert child_transformation(root, 24) == Unroll("i0", 2)
        assert child_transformation(root, 30) == Unroll("i1", 8)
        assert child_transformation(root, 31) == Reverse("i0")
        assert child_transformation(root, 32) == Reverse("i1")
        assert child_transformation(root, 33) == Pack("i0", "A")
        assert child_transformation(root, 34) == Pack("i1", "A")

    def test_deep_chain_uses_adjacent_swaps(self):
        params = SpaceParams(tile_sizes=(2,), peel_variants=(False,), unroll_factors=())
        counted = child_count(root_node(chain_nest(5), params))
        # 1 tile + 4 adjacent swaps + 5 parallelize + 5 full unrolls + 5 reverses.
        assert counted == 20
        swaps = [
            child_transformation(root_node(chain_nest(5), params), 1 + j) for j in range(4)
        ]
        assert swaps[0] == Interchange("i0", (1, 0, 2, 3, 4))
        assert swaps[3] == Interchange("i0", (0, 1, 2, 4, 3))

    def test_depth_four_chain_has_all_permutations(self):
        params = SpaceParams(tile_sizes=(2,), peel_variants=(False,), unroll_factors=())
        root = root_node(chain_nest(4), params)
        # 1 tile + 23 permutations + 4 + 4 + 4.
        assert child_count(root) == 36
        assert child_transformation(root, 1) == Interchange("i0", (0, 1, 3, 2))


class TestOracleAgreement:
    def test_random_nests_to_depth_two(self):
        rng = random.Random(20260814)
        for _ in range(6):
            nest = random_nest(rng)
            assert_node_agrees(root_node(nest, random_params(rng)), depth_left=2)

    def test_everything_frozen_means_no_children(self):
        nest = LoopNest((Loop("i", transformable=False),), arrays=("A",))
        assert child_count(root_node(nest, SpaceParams())) == 0

    def test_space_grows_after_tiling(self):
        params = SpaceParams(
            tile_sizes=(2, 4), peel_variants=(False,), unroll_factors=(2,)
        )
        root = root_node(chain_nest(2), params)
        before = child_count(root)
        tiled = child(root, child_index(root, Tile("i0", 2, False)))
        after = child_count(tiled)
        # Tiling a 2-chain yields a 4-chain: more loops, more children.
        assert after > before
        assert [l.id for l in tiled.nest.walk()] == ["i0.f", "i1.f", "i0.t", "i1.t"]


class TestIndexing:
    def test_out_of_range_raises(self):
        root = root_node(chain_nest(1), SpaceParams())
        with pytest.raises(IndexError):
            child_transformation(root, -1)
        with pytest.raises(IndexError):
            child_transformation(root, 26)

    def test_foreign_step_raises(self):
        root = root_node(chain_nest(2), SpaceParams())
        with pytest.raises(ValueError, match="not a child"):
            child_index(root, Tile("i1", 32, False))  # not a chain head
        with pytest.raises(ValueError, match="not a child"):
            child_index(root, Tile("i0", 7, False))  # size not in params
        with pytest.raises(ValueError, match="not a child"):
            child_index(root, Pack("i0", "A"))  # no such array
        # An unhashable step is no child either: still a ValueError.
        message = r"interchange\(i0;1,0\) is not a child of configuration ''"
        with pytest.raises(ValueError, match=message):
            child_index(root, Interchange("i0", [1, 0]))
        for not_a_step in ("tile(i0;2;nopeel)", ["tile"]):
            with pytest.raises(TypeError, match="not a transformation"):
                child_index(root, not_a_step)

    def test_child_extends_configuration(self):
        root = root_node(chain_nest(1), SpaceParams())
        node = child(root, 0)
        assert node.depth == 1
        assert node.key == "tile(i0;2;nopeel)"
        grand = child(node, 0)
        assert grand.depth == 2
        assert grand.config.steps[0] == Tile("i0", 2, False)


class TestLazyNest:
    def test_child_applies_its_step_on_the_first_nest_read_only(self, monkeypatch):
        calls = []

        def counting_apply(nest, step, apply=space.apply):
            calls.append(step)
            return apply(nest, step)

        root = root_node(chain_nest(2, arrays=("A",)), SpaceParams())
        parent = child(root, child_index(root, Tile("i0", 4, True)))
        parent_nest = parent.nest
        monkeypatch.setattr(space, "apply", counting_apply)
        for i in range(child_count(parent)):
            step = child_transformation(parent, i)
            node = child(parent, i)
            assert calls == []
            first = node.nest
            assert calls == [step]
            assert node.nest is first and calls == [step]
            assert first == apply(parent_nest, step)
            calls.clear()


class TestRandomWalk:
    def test_reaches_requested_depth(self):
        rng = random.Random(7)
        node = random_walk(root_node(chain_nest(2, arrays=("A",)), SpaceParams()), 4, rng)
        assert node.depth == 4

    def test_deterministic_for_same_seed(self):
        walks = [
            random_walk(root_node(chain_nest(2), SpaceParams()), 3, random.Random(99)).key
            for _ in range(2)
        ]
        assert walks[0] == walks[1]

    def test_stops_at_dead_end(self):
        root = root_node(chain_nest(1), SpaceParams())
        frozen = child(root, child_index(root, ParallelizeThread("i0")))
        assert child_count(frozen) == 0
        walked = random_walk(frozen, 5, random.Random(0))
        assert walked is frozen


class TestLevelCounts:
    def test_matches_breadth_first_materialization(self):
        params = SpaceParams(
            tile_sizes=(2,), peel_variants=(False,), unroll_factors=()
        )
        nest = chain_nest(1)
        counts = [1]
        level = [nest]
        for _ in range(3):
            level = [
                apply(n, t) for n in level for t in oracle_children(n, params)
            ]
            counts.append(len(level))
        assert level_counts(root_node(nest, params), 3) == list(enumerate(counts))

    def test_stops_after_empty_level(self):
        nest = LoopNest((Loop("i", transformable=False),))
        assert level_counts(root_node(nest, SpaceParams()), 4) == [(0, 1), (1, 0)]


class TestSpaceParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceParams(d_max=0)
        with pytest.raises(ValueError):
            SpaceParams(tile_sizes=(0,))
        with pytest.raises(ValueError):
            SpaceParams(unroll_factors=(1,))
        with pytest.raises(ValueError):
            SpaceParams(peel_variants=())
        with pytest.raises(ValueError):
            SpaceParams(peel_variants=(True, True))
        with pytest.raises(ValueError):
            SpaceParams(max_permutation_depth=1)


@st.composite
def random_nodes(draw):
    """A random nest of 1-5 loops and 0-2 arrays, often one step deep.

    The step, when taken, is a uniform child of the root, so derived
    loop ids such as ``a.f``/``a.t`` appear in the nest.
    """
    # A seeded Random keeps random_nest's intended mix; hypothesis' own
    # random skews toward one- or two-loop, mostly frozen nests.
    rng = draw(st.randoms(use_true_random=True))
    params = random_params(rng)
    node = root_node(random_nest(rng, max_loops=5), params)
    n = child_count(node)
    if n and draw(st.booleans()):
        node = child(node, rng.randrange(n))
    return node


@st.composite
def walked_nodes(draw):
    """A node 2-4 uniform steps below the root of a random nest (fewer at a dead end).

    Its loops may already be unrolled, reversed, packed, parallelized,
    tiled twice or interchanged.
    """
    rng = draw(st.randoms(use_true_random=True))
    params = random_params(rng)
    node = root_node(random_nest(rng, max_loops=5), params)
    return random_walk(node, draw(st.integers(2, 4)), rng)


def path_to(loops, loop_id):
    """The loops from a root down to ``loop_id``; empty when it is absent."""
    for loop in loops:
        if loop.id == loop_id:
            return [loop]
        below = path_to(loop.children, loop_id)
        if below:
            return [loop] + below
    return []


def untouched(nest, step):
    """Input subtrees ``apply(nest, step)`` must share, not copy.

    These are the siblings of the target and of each of its ancestors,
    plus the body the step leaves alone: the loops below a tiled or
    interchanged chain, and the children of an unrolled, reversed or
    packed loop. Parallelization rebuilds the target's whole subtree.
    """
    path = path_to(nest.roots, target_loop(step))
    levels = [nest.roots] + [loop.children for loop in path[:-1]]
    kept = [s for level, on_path in zip(levels, path) for s in level if s is not on_path]
    body = path[-1]
    if isinstance(step, (Tile, Interchange)):
        while len(body.children) == 1 and body.children[0].transformable:
            body = body.children[0]
    if not isinstance(step, ParallelizeThread):
        kept.extend(body.children)
    return kept


class TestRandomNestProperties:
    @settings(max_examples=150)
    @given(random_nodes())
    def test_tile_applies_exactly_at_chain_heads(self, node):
        heads = {chain[0] for chain in perfect_nests(node.nest)}
        for loop in node.nest.walk():
            try:
                apply(node.nest, Tile(loop.id, 2))
            except InvalidTargetError:
                assert loop.id not in heads
            else:
                assert loop.id in heads

    @settings(max_examples=150)
    @given(random_nodes())
    def test_apply_shares_every_untouched_subtree(self, node):
        for i in range(child_count(node)):
            step = child_transformation(node, i)
            result = apply(node.nest, step)
            present = {id(loop) for loop in result.walk()}
            for subtree in untouched(node.nest, step):
                assert id(subtree) in present, (step, subtree.id)

    @settings(max_examples=100)
    @given(walked_nodes())
    def test_the_census_agrees_with_the_oracle_steps_deep(self, node):
        assert_node_agrees(node, 0)

    @settings(max_examples=100)
    @given(walked_nodes())
    def test_extended_builds_the_joined_key(self, node):
        config = node.config
        assert config.key == "|".join(step_key(s) for s in config.steps)
        assert config == Configuration(config.steps)

    @settings(max_examples=150)
    @given(random_nodes())
    def test_child_index_inverts_child_transformation(self, node):
        for i in range(child_count(node)):
            child(node, i).nest  # every enumerated child applies
            assert child_index(node, child_transformation(node, i)) == i
