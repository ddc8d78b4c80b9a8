"""
Enumerating the configuration space without materializing it
============================================================

Every node of the space is a configuration; its children append one
legal transformation in a fixed deterministic order. The space is bound
to its SpaceParams once, at the root, and every node below carries them. Child counts and
child-at-index come from closed-form census arithmetic, so the search
can index into trillions of configurations while only ever building the
nodes it visits.
"""

import random

from pragmatune import (
    SpaceParams,
    child,
    child_count,
    child_index,
    child_transformation,
    level_counts,
    load_loop_nest,
    random_walk,
    root_node,
)
from pathlib import Path

HERE = Path(__file__).parent

nest = load_loop_nest((HERE / "matscale_nest.json").read_text())
root = root_node(nest, SpaceParams())  # ten tile sizes, three unroll factors, d_max=5

# The root's children in enumeration order: tiles first (size-major,
# peel-minor per head loop), then interchanges, parallelize, unroll,
# reverse, pack.
n = child_count(root)
print(f"root fan-out: {n}")
for index in (0, 1, n - 2, n - 1):
    print(f"  child {index:2d}: {child_transformation(root, index)}")

# child_index inverts child_transformation: it scans the node's
# children for the first one whose step equals the given step.
step = child_transformation(root, 21)
assert child_index(root, step) == 21

# Applying a tile grows the space: the four fresh loops admit more
# follow-up transformations than the two originals did.
tiled = child(root, 0)
print(f"after {tiled.config.key!r}: fan-out {child_count(tiled)}")

# Per-depth node counts, materializing each level (keep the depth low).
print("depth\tnodes")
for depth, count in level_counts(root, max_depth=2):
    print(f"{depth}\t{count}")

# Random walks are how the search probes attainable depths cheaply.
rng = random.Random(1)
for _ in range(3):
    node = random_walk(root, 4, rng)
    print(f"walk to depth {node.depth}: {node.config.key}")
