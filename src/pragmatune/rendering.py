"""Render a configuration as pragma lines in an annotated source template.

Templates mark each tunable loop with an anchor comment of the form
``/*@loop:<id>*/`` on its own line directly above the loop header. Each
transformation becomes one ``#pragma clang loop ...`` line inserted
under the anchor of the template loop its target descends from;
later-applied transformations end up textually above earlier ones, the
order the pragma stack is consumed in.
"""

from __future__ import annotations

import re
from functools import cache

from .errors import MissingAnchorError
from .loops import (
    Configuration,
    Interchange,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Transformation,
    Unroll,
    anchor_id,
    is_floor_lineage,
    target_loop,
)

_ANCHOR_LINE = re.compile(r"^(\s*)/\*@loop:([^*\s]+)\*/\s*$")


@cache
def pragma_clause(step: Transformation) -> str:
    """The directive text of one transformation, without the ``#pragma`` prefix.

    Targets outside the anchor's floor lineage (the template loop or the
    floor loops tiled out of it) carry an explicit ``id(...)`` clause;
    the default target needs none, matching how stacked pragmas read.
    Computed once per distinct step: every fresh record renders each of
    its steps, and a step recurs in every configuration below it.
    """
    target = target_loop(step)
    match step:
        case Tile(_, size, peel):
            clause = f"tile sizes({size})"
            if peel:
                clause += " peel(rectangular)"
        case Interchange(_, perm):
            clause = f"interchange permutation({','.join(map(str, perm))})"
        case ParallelizeThread(_):
            clause = "parallelize_thread"
        case Unroll(_, None):
            clause = "unrolling full"
        case Unroll(_, factor):
            clause = f"unrolling factor({factor})"
        case Reverse(_):
            clause = "reverse"
        case Pack(_, array):
            clause = f"pack array({array})"
    if not is_floor_lineage(target):
        clause += f" id({target})"
    return clause


def pragma_lines(config: Configuration) -> list[str]:
    """Pragma line texts in application order (no anchors, no indentation)."""
    return [f"#pragma clang loop {pragma_clause(s)}" for s in config.steps]


def render_pragmas(config: Configuration, template: str) -> str:
    """Insert a configuration's pragma lines into an annotated template.

    The empty configuration returns the template unchanged. A step whose
    target descends from a loop with no anchor in the template raises
    MissingAnchorError.
    """
    lines = template.split("\n")
    anchors: dict[str, int] = {}
    indents: dict[str, str] = {}
    for lineno, line in enumerate(lines):
        found = _ANCHOR_LINE.match(line)
        if found and found.group(2) not in anchors:
            anchors[found.group(2)] = lineno
            indents[found.group(2)] = found.group(1)

    stacks: dict[str, list[Transformation]] = {}
    for step in config.steps:
        anchor = anchor_id(target_loop(step))
        if anchor not in anchors:
            raise MissingAnchorError(
                f"template has no anchor /*@loop:{anchor}*/ for {step!r}"
            )
        stacks.setdefault(anchor, []).append(step)

    out: list[str] = []
    for lineno, line in enumerate(lines):
        out.append(line)
        for anchor, steps in stacks.items():
            if anchors[anchor] == lineno:
                indent = indents[anchor]
                for step in reversed(steps):
                    out.append(f"{indent}#pragma clang loop {pragma_clause(step)}")
    return "\n".join(out)
