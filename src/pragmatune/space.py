"""Sparse enumeration of the transformation search space.

A node is a configuration plus the nest it produces. Children are
indexed 0..child_count-1 in a fixed order so the tree never has to be
materialized: kinds are ordered tile < interchange < parallelize <
unroll < reverse < pack, and within a kind children follow loop-id
order, then parameter-list order (tile sizes outer, peel variants
inner; full unrolling before the partial factors). That order is
written once, in ``child_transformation``; ``child_index`` inverts it
by scanning a node's children for the step. A space is bound to its
``SpaceParams`` once, at ``root_node``; every node below carries them,
so no query takes them again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .errors import DuplicateLoopIdError, NestParseError, check_fields
from .loops import (
    ID_SEP,
    Configuration,
    Interchange,
    LoopNest,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Transformation,
    Unroll,
    _chain_from,
    _collect_transformable,
    apply,
    distinct_identifiers,
    is_identifier,
    step_key,
)


@dataclass(frozen=True)
class SpaceParams:
    """Knobs bounding the enumerated space.

    Chains deeper than ``max_permutation_depth`` enumerate only adjacent
    pair swaps instead of all permutations.
    """

    tile_sizes: tuple[int, ...] = (2, 3, 4, 5, 8, 16, 32, 64, 128, 256)
    unroll_factors: tuple[int, ...] = (2, 4, 8)
    peel_variants: tuple[bool, ...] = (False, True)
    d_max: int = 5
    max_permutation_depth: int = 4

    def __post_init__(self) -> None:
        check_fields(self)
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        if any(s < 1 for s in self.tile_sizes):
            raise ValueError("tile sizes must be positive")
        if any(f < 2 for f in self.unroll_factors):
            raise ValueError("unroll factors must be >= 2")
        # A repeated value would enumerate one step under two child indices.
        lists = (self.tile_sizes, self.unroll_factors, self.peel_variants)
        if not self.peel_variants or any(len(set(v)) != len(v) for v in lists):
            raise ValueError("peel_variants must be non-empty, and no size, factor or peel repeats")
        if self.max_permutation_depth < 2:
            raise ValueError("max_permutation_depth must be >= 2")


class SpaceNode:
    """A configuration, the nest it yields from the root nest, and the space's params.

    A child holds its parent's nest until ``nest`` is first read, which
    applies its last step, so a node whose children are never counted
    never pays for an apply. The node keeps its census, built on the
    first child query and shared by ``child_count``, ``child`` and
    ``child_index``.
    """

    __slots__ = ("config", "params", "_nest", "_pending", "census", "__weakref__")

    def __init__(
        self, config: Configuration, params: SpaceParams, nest: LoopNest, pending: bool = False
    ):
        self.config = config
        self.params = params
        self._nest = nest  # the parent's nest while ``pending``
        self._pending = pending
        self.census: _Census | None = None

    @property
    def nest(self) -> LoopNest:
        if self._pending:
            self._nest = apply(self._nest, self.config.steps[-1])
            self._pending = False
        return self._nest

    @property
    def depth(self) -> int:
        return self.config.depth

    @property
    def key(self) -> str:
        return self.config.key


def root_node(nest: LoopNest, params: SpaceParams) -> SpaceNode:
    """The space of ``nest`` bounded by ``params``; every node below shares them.

    Loop ids are ASCII identifiers joined by ``ID_SEP`` and array names
    ASCII identifiers, none repeated, so each configuration keeps a key of
    its own, in Python-built nests too.
    """
    if not distinct_identifiers(nest.arrays):
        names = list(nest.arrays)
        raise NestParseError(f"array names must be ASCII identifiers, none repeated: {names}")
    seen: set[str] = set()
    for loop in nest.walk():
        if not all(map(is_identifier, loop.id.split(ID_SEP))):
            raise NestParseError(f"loop id parts must be ASCII identifiers: {loop.id!r}")
        if loop.id in seen:
            raise DuplicateLoopIdError(f"duplicate loop id {loop.id!r}")
        seen.add(loop.id)
    return SpaceNode(Configuration(), params, nest)


@cache
def _chain_permutations(k: int, max_permutation_depth: int) -> tuple[tuple[int, ...], ...]:
    """Non-identity orders of a k-deep chain; one shared tuple per argument pair."""
    if k < 2:
        return ()
    if k <= max_permutation_depth:
        # permutations() is lexicographic and the identity comes first
        return tuple(permutations(range(k)))[1:]
    swaps = []
    for j in range(k - 1):
        perm = list(range(k))
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
        swaps.append(tuple(perm))
    return tuple(swaps)


class _Census:
    """Per-nest loop bookkeeping behind the child-index arithmetic.

    It keeps the chain heads and their permutations, the transformable
    loops (the nest's own objects), both sorted by id, and the six
    section sizes. Unrollable, reversible and packable loops are only
    counted; ``child_transformation`` finds its target among ``loops``.
    """

    __slots__ = ("heads", "perms", "loops", "section_sizes", "total")

    def __init__(self, nest: LoopNest, params: SpaceParams):
        self.loops = loops = []
        heads = []
        for root in nest.roots:
            _collect_transformable(root, None, loops, heads)
        # Loop ids are unique in a nest, so loops sort by id.
        loops.sort()
        heads.sort()
        self.heads = [head.id for head in heads]
        depth = params.max_permutation_depth
        self.perms = [_chain_permutations(len(_chain_from(head)), depth) for head in heads]
        arrays = nest.arrays
        unrollable = reversible = 0
        packs = len(arrays) * len(loops)
        for loop in loops:
            unrollable += loop.unrollable
            reversible += loop.reversible
            if loop.packed:
                packs -= sum(a in loop.packed for a in arrays)
        self.section_sizes = (
            len(heads) * len(params.tile_sizes) * len(params.peel_variants),
            sum(map(len, self.perms)),
            len(loops),
            unrollable * (1 + len(params.unroll_factors)),
            reversible,
            packs,
        )
        self.total = sum(self.section_sizes)


def _census(node: SpaceNode) -> _Census:
    """The node's census, built once and kept on the node."""
    census = node.census
    if census is None:
        census = node.census = _Census(node.nest, node.params)
    return census


def child_count(node: SpaceNode) -> int:
    """Number of children, computed arithmetically from the nest."""
    return _census(node).total


def child_transformation(node: SpaceNode, index: int) -> Transformation:
    """The transformation behind child ``index`` without applying it."""
    census = _census(node)
    if not 0 <= index < census.total:
        raise IndexError(f"child index {index} out of range 0..{census.total - 1}")
    offset = index
    sizes = census.section_sizes
    params = node.params

    if offset < sizes[0]:
        peels = len(params.peel_variants)
        head, rest = divmod(offset, len(params.tile_sizes) * peels)
        size, peel = params.tile_sizes[rest // peels], params.peel_variants[rest % peels]
        return Tile(census.heads[head], size, peel)
    offset -= sizes[0]

    if offset < sizes[1]:
        for head, perms in zip(census.heads, census.perms):
            if offset < len(perms):
                return Interchange(head, perms[offset])
            offset -= len(perms)
    offset -= sizes[1]

    if offset < sizes[2]:
        return ParallelizeThread(census.loops[offset].id)
    offset -= sizes[2]

    if offset < sizes[3]:
        nth, rest = divmod(offset, 1 + len(params.unroll_factors))
        loop = [l for l in census.loops if l.unrollable][nth]
        return Unroll(loop.id, None if rest == 0 else params.unroll_factors[rest - 1])
    offset -= sizes[3]

    if offset < sizes[4]:
        return Reverse([l for l in census.loops if l.reversible][offset].id)
    offset -= sizes[4]

    arrays = node.nest.arrays
    for loop in census.loops:
        for array in arrays:
            if array not in loop.packed:
                if offset == 0:
                    return Pack(loop.id, array)
                offset -= 1
    raise AssertionError("unreachable: index inside total but not in any section")


def child(node: SpaceNode, index: int) -> SpaceNode:
    """Child ``index``: the extended configuration, its step applied on first read of ``nest``."""
    step = child_transformation(node, index)
    return SpaceNode(node.config.extended(step), node.params, node.nest, pending=True)


def child_index(node: SpaceNode, step: Transformation) -> int:
    """Inverse of child_transformation: the first child index whose step equals ``step``."""
    for index in range(child_count(node)):
        if child_transformation(node, index) == step:
            return index
    raise ValueError(f"{step_key(step)} is not a child of configuration {node.key!r}")


def random_walk(node: SpaceNode, depth: int, rng: random.Random) -> SpaceNode:
    """Descend ``depth`` uniform-random children, stopping early at dead ends."""
    for _ in range(depth):
        n = child_count(node)
        if n == 0:
            break
        node = child(node, rng.randrange(n))
    return node


def level_counts(node: SpaceNode, max_depth: int) -> list[tuple[int, int]]:
    """(depth, node count) pairs from ``node`` down, materializing each level.

    Level sizes grow fast; keep ``max_depth`` small.
    """
    out = [(0, 1)]
    level = [node]
    for depth in range(1, max_depth + 1):
        level = [child(parent, i) for parent in level for i in range(child_count(parent))]
        out.append((depth, len(level)))
        if not level:
            break
    return out
