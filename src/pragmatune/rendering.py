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


def template_anchors(template: str) -> dict[str, tuple[int, str]]:
    """Loop id -> (line number, indent) of its anchor; the first anchor of an id wins."""
    anchors: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(template.split("\n")):
        found = _ANCHOR_LINE.match(line)
        if found:
            anchors.setdefault(found.group(2), (lineno, found.group(1)))
    return anchors


def render_pragmas(config: Configuration, template: str) -> str:
    """Insert a configuration's pragma lines into an annotated template.

    The empty configuration returns the template unchanged. A step whose
    target descends from a loop with no anchor in the template raises
    MissingAnchorError.
    """
    anchors = template_anchors(template)
    inserted: dict[int, list[str]] = {}  # anchor line -> its pragma lines, in step order
    for step in config.steps:
        anchor = anchor_id(target_loop(step))
        if anchor not in anchors:
            raise MissingAnchorError(f"template has no anchor /*@loop:{anchor}*/ for {step!r}")
        lineno, indent = anchors[anchor]
        inserted.setdefault(lineno, []).append(f"{indent}#pragma clang loop {pragma_clause(step)}")

    out: list[str] = []
    for lineno, line in enumerate(template.split("\n")):
        out.append(line)
        out.extend(reversed(inserted.get(lineno, ())))
    return "\n".join(out)
