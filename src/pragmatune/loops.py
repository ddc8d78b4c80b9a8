"""Loop-nest model: loops, transformations, and configurations.

A nest is an immutable tree of loops plus the array names available for
packing. Loop bodies are not modeled; a nest records only the nesting
structure and per-loop transformability flags; a loop created by tiling
is named after the loop it came from (see ``ID_SEP``). Applying a
transformation returns a new nest and never mutates its input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, NamedTuple, Union

from .errors import (
    DuplicateLoopIdError,
    InvalidTargetError,
    NestParseError,
    check_fields,
    from_json,
)

# Joins a loop id with the suffix tiling gives each loop it makes from
# it, "f" (floor) or "t" (tile), so document ids may not contain it.
ID_SEP = "."


class Loop(NamedTuple):
    """One loop in a nest.

    ``transformable`` gates every transformation and is cleared for a
    whole subtree by thread parallelization. ``unrollable`` and
    ``reversible`` are consumed by partial unrolling and by reversal.
    ``packed`` holds array names already packed at this loop. A named
    tuple, so ``apply`` builds and ``_replace``s loops at tuple cost.
    """

    id: str
    children: tuple[Loop, ...] = ()
    transformable: bool = True
    unrollable: bool = True
    reversible: bool = True
    packed: frozenset[str] = frozenset()

    def walk(self) -> Iterator[Loop]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class LoopNest:
    """A forest of loops and the arrays that Pack may copy."""

    roots: tuple[Loop, ...]
    arrays: tuple[str, ...] = ()

    def walk(self) -> Iterator[Loop]:
        for root in self.roots:
            yield from root.walk()

    def find(self, loop_id: str) -> Loop:
        for loop in self.walk():
            if loop.id == loop_id:
                return loop
        raise InvalidTargetError(f"no loop with id {loop_id!r} in nest")


@dataclass(frozen=True)
class Tile:
    """Tile the perfect nest headed by ``nest_top`` with one square size."""

    nest_top: str
    size: int
    peel: bool = False


@dataclass(frozen=True)
class Interchange:
    """Reorder the perfect nest headed by ``nest_top`` by a permutation."""

    nest_top: str
    permutation: tuple[int, ...]


@dataclass(frozen=True)
class ParallelizeThread:
    loop: str


@dataclass(frozen=True)
class Unroll:
    """Unroll a loop; ``factor`` None means full unrolling."""

    loop: str
    factor: int | None = None


@dataclass(frozen=True)
class Reverse:
    loop: str


@dataclass(frozen=True)
class Pack:
    loop: str
    array: str


Transformation = Union[Tile, Interchange, ParallelizeThread, Unroll, Reverse, Pack]


def target_loop(step: Transformation) -> str:
    """The loop id a transformation acts on (the chain head for Tile/Interchange)."""
    if isinstance(step, (Tile, Interchange)):
        return step.nest_top
    if isinstance(step, (ParallelizeThread, Unroll, Reverse, Pack)):
        return step.loop
    raise TypeError(f"not a transformation: {step!r}")


def step_key(step: Transformation) -> str:
    """Injective text form of one transformation, used in configuration keys."""
    kind = type(step)
    if kind is Tile:
        return f"tile({step.nest_top};{step.size};{'peel' if step.peel else 'nopeel'})"
    if kind is Unroll:
        return f"unroll({step.loop};{'full' if step.factor is None else step.factor})"
    if kind is Pack:
        return f"pack({step.loop};{step.array})"
    if kind is Interchange:
        return f"interchange({step.nest_top};{','.join(map(str, step.permutation))})"
    if kind is Reverse:
        return f"reverse({step.loop})"
    if kind is ParallelizeThread:
        return f"parallelize({step.loop})"
    raise TypeError(f"not a transformation: {step!r}")


def pragma_identity(step: Transformation) -> tuple:
    """Kind and parameters of a step, ignoring loop ids.

    Loop ids differ across branches of the search tree, so history
    comparisons (penalty filtering, the synthetic landscape's tables)
    key on this identity instead. Dispatches on the exact type: a class
    pattern ``match`` costs about four times as much, and history
    transfer computes one identity per step of every record.
    """
    kind = type(step)
    if kind is Tile:
        return ("tile", step.size, step.peel)
    if kind is Unroll:
        return ("unroll", step.factor)
    if kind is Pack:
        return ("pack", step.array)
    if kind is Interchange:
        return ("interchange", step.permutation)
    if kind is Reverse:
        return ("reverse",)
    if kind is ParallelizeThread:
        return ("parallelize",)
    raise TypeError(f"not a transformation: {step!r}")


@dataclass(frozen=True, slots=True)
class Configuration:
    """An ordered transformation sequence; the empty sequence is the root.

    ``key`` joins the steps' ``step_key``s with "|"; equality ignores it.
    """

    steps: tuple[Transformation, ...] = ()
    key: str = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(self, "key", "|".join(map(step_key, self.steps)))

    @property
    def depth(self) -> int:
        return len(self.steps)

    def extended(self, step: Transformation) -> Configuration:
        """One more step; the key is this one's plus the step's, one ``step_key``."""
        key = f"{self.key}|{step_key(step)}" if self.steps else step_key(step)
        return Configuration(self.steps + (step,), key)


def anchor_id(loop_id: str) -> str:
    """Template loop a (possibly tiled) loop id descends from."""
    return loop_id.split(ID_SEP, 1)[0]


def is_floor_lineage(loop_id: str) -> bool:
    """True for a template loop or a loop reached from one by floor loops only."""
    return all(part == "f" for part in loop_id.split(ID_SEP)[1:])


@dataclass(frozen=True)
class _LoopEntry:
    """One loop entry of a nest document; its children are entries too."""

    id: str
    children: tuple[dict, ...] = ()
    transformable: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        if not (self.id.isascii() and self.id.isidentifier()):
            raise ValueError(f"loop id must be an ASCII identifier: {self.id!r}")


@dataclass(frozen=True)
class _NestDocument:
    loops: tuple[dict, ...]
    arrays: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self)
        names = self.arrays
        if not all(a.isascii() and a.isidentifier() for a in names) or len(set(names)) < len(names):
            raise ValueError(f"'arrays' must be ASCII identifiers, none repeated: {list(names)}")


def _parsed_loop(doc: object, seen: set[str]) -> Loop:
    """One loop entry and its children; ``seen`` collects the ids parsed so far."""
    entry = from_json(_LoopEntry, doc, "loop entry", NestParseError)
    if entry.id in seen:
        raise DuplicateLoopIdError(f"duplicate loop id {entry.id!r}")
    seen.add(entry.id)
    children = tuple(_parsed_loop(c, seen) for c in entry.children)
    return Loop(entry.id, children, entry.transformable)


def load_loop_nest(text: str) -> LoopNest:
    """Parse a nest description document (JSON with ``loops`` and ``arrays``).

    Each loop entry holds ``id``, optional ``children`` (nested entries),
    and an optional ``transformable`` flag (default true). Ids must be
    unique; ids and array names are ASCII identifiers, so every
    configuration keeps a key of its own. Every field follows the config
    type rule (``errors.check_fields``), and an unknown key is an error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NestParseError(f"invalid nest document: {exc}") from exc
    doc = from_json(_NestDocument, doc, "nest document", NestParseError)
    seen: set[str] = set()
    return LoopNest(tuple(_parsed_loop(entry, seen) for entry in doc.loops), doc.arrays)


def _continues_chain(loop: Loop, parent: Loop | None) -> bool:
    """True when ``loop`` extends its parent's perfect chain instead of heading one."""
    return (
        loop.transformable
        and parent is not None
        and parent.transformable
        and len(parent.children) == 1
    )


def _chain_from(head: Loop) -> list[Loop]:
    """``head`` and the single transformable children below it."""
    chain = [head]
    while len(chain[-1].children) == 1 and chain[-1].children[0].transformable:
        chain.append(chain[-1].children[0])
    return chain


def _collect_transformable(
    loop: Loop, parent: Loop | None, loops: list[Loop], heads: list[Loop]
) -> None:
    """Append, in preorder, this subtree's transformable loops and those that start a chain."""
    if loop.transformable:
        loops.append(loop)
        if not _continues_chain(loop, parent):
            heads.append(loop)
    for child in loop.children:
        _collect_transformable(child, loop, loops, heads)


def _chains(nest: LoopNest) -> list[list[Loop]]:
    """Maximal perfect chains of transformable loops, in preorder."""
    heads: list[Loop] = []
    for root in nest.roots:
        _collect_transformable(root, None, [], heads)
    return [_chain_from(head) for head in heads]


def perfect_nests(nest: LoopNest) -> list[list[str]]:
    """Loop-id chains of the maximal perfect nests of transformable loops.

    A fully frozen nest yields an empty list; a loop with two children
    ends its own chain and each child starts a new one.
    """
    return [[loop.id for loop in chain] for chain in _chains(nest)]


def _freeze(loop: Loop) -> Loop:
    return loop._replace(transformable=False, children=tuple(_freeze(c) for c in loop.children))


def _replacement(step: Transformation, loop: Loop, parent: Loop | None, arrays) -> tuple[Loop, ...]:
    """Check ``step`` at its target ``loop`` and return the loops replacing it."""
    if not loop.transformable:
        raise InvalidTargetError(f"loop {loop.id!r} is not transformable")
    match step:
        case Tile(_, size) if size < 1:
            raise InvalidTargetError(f"tile size must be positive, got {size}")
        case Tile() | Interchange() if _continues_chain(loop, parent):
            raise InvalidTargetError(
                f"loop {loop.id!r} does not head a perfect nest of transformable loops"
            )
        case Tile():
            chain = _chain_from(loop)
            inner = chain[-1].children
            for orig in reversed(chain):
                inner = (Loop(orig.id + ID_SEP + "t", inner),)
            for orig in reversed(chain):
                inner = (Loop(orig.id + ID_SEP + "f", inner),)
            return inner
        case Interchange(_, perm):
            chain = _chain_from(loop)
            k = len(chain)
            if sorted(perm) != list(range(k)):
                raise InvalidTargetError(
                    f"permutation {perm!r} does not fit a perfect nest of depth {k}"
                )
            if perm == tuple(range(k)):
                raise InvalidTargetError("identity permutation is not a transformation")
            inner = chain[-1].children
            for pos in reversed(perm):
                inner = (chain[pos]._replace(children=inner),)
            return inner
        case ParallelizeThread():
            return (_freeze(loop),)
        case Unroll(_, factor):
            if not loop.unrollable:
                raise InvalidTargetError(f"loop {loop.id!r} may not be unrolled again")
            if factor is None:
                return loop.children
            if factor < 2:
                raise InvalidTargetError(f"unroll factor must be >= 2, got {factor}")
            return (loop._replace(unrollable=False),)
        case Reverse():
            if not loop.reversible:
                raise InvalidTargetError(f"loop {loop.id!r} may not be reversed again")
            return (loop._replace(reversible=False),)
        case Pack(_, array):
            if array not in arrays:
                raise InvalidTargetError(f"unknown array {array!r}")
            if array in loop.packed:
                raise InvalidTargetError(
                    f"array {array!r} is already packed at loop {loop.id!r}"
                )
            return (loop._replace(packed=loop.packed | {array}),)


def _rebuilt(loops: tuple[Loop, ...], parent: Loop | None, step, target_id: str, arrays):
    """``loops`` with the target of ``step`` swapped for its replacement.

    None when the target is neither among ``loops`` nor below them. Only
    the target's ancestors are rebuilt; every other subtree is shared.
    """
    for k, loop in enumerate(loops):
        if loop.id == target_id:
            new = _replacement(step, loop, parent, arrays)
        else:
            children = _rebuilt(loop.children, loop, step, target_id, arrays)
            if children is None:
                continue
            new = (loop._replace(children=children),)
        return loops[:k] + new + loops[k + 1 :]
    return None


def apply(nest: LoopNest, step: Transformation) -> LoopNest:
    """Apply one transformation and return the resulting nest.

    One descent from the roots finds the target, checks it and rebuilds
    its ancestors; subtrees the step does not touch are shared with
    ``nest``, not copied. Raises TypeError for a non-transformation and
    InvalidTargetError when the target is missing, frozen, or fails the
    kind-specific rules (chain headship, permutation shape, consumed
    unroll/reverse/pack eligibility), checked in that order.
    """
    target_id = target_loop(step)
    roots = _rebuilt(nest.roots, None, step, target_id, nest.arrays)
    if roots is None:
        raise InvalidTargetError(f"no loop with id {target_id!r} in nest")
    return LoopNest(roots, nest.arrays)


def apply_all(nest: LoopNest, config: Configuration) -> LoopNest:
    """Fold a whole configuration over a nest."""
    return reduce(apply, config.steps, nest)
