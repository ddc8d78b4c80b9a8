"""Span tracing from outside the program, by rebinding its public functions.

A target such as ``space.child`` or ``reward.TargetState.update`` names a
function of a ``pragmatune`` module. Installing the tracer replaces each
target in every place the package binds it: the defining module, each
module that imported it by name, and each class attribute that aliases
it (``SyntheticLandscape.__call__ = evaluate``, for example). Calls
through any of those bindings are then recorded, and ``uninstall`` puts
the originals back.

Spans live in one flat in-memory array of four integers each (name id,
parent span index, start ns, end ns) and are written out only by
``dump``. The program is single-threaded, so one stack gives every span
its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

PACKAGE = "pragmatune"


def _package_owners() -> list[object]:
    """Every loaded module of the package and every class defined in one."""
    owners: list[object] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        owners.append(module)
        owners.extend(
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        )
    return owners


def resolve(target: str) -> object:
    """The function behind ``module.function`` or ``module.Class.method``."""
    module_name, *path = target.split(".")
    owner: object = sys.modules[f"{PACKAGE}.{module_name}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return vars(owner)[path[-1]]


class Tracer:
    """Spans around some targets, plain call counts for others.

    Register targets with ``span`` and ``count``, then bracket the traced
    work with ``install`` and ``uninstall``; spans and counts accumulate
    over every installed interval.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._wrappers: list[tuple[str, Callable[[Callable], Callable]]] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(
        self,
        name: str,
        target: str | None = None,
        observe: Callable[[object], None] | None = None,
    ) -> None:
        """Record a span per call of ``target`` (default ``name``) under ``name``.

        ``observe`` is handed each call's return value.
        """
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                index = len(spans) >> 2
                spans.extend((name_id, stack[-1] if stack else -1, clock(), 0))
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[4 * index + 3] = clock()
                if observe is not None:
                    observe(result)
                return result

            return traced

        self._wrappers.append((target or name, make))

    def count(self, name: str, target: str) -> None:
        """Count calls of ``target`` under ``name`` without recording spans."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        self._wrappers.append((target, make))

    def install(self) -> None:
        owners = _package_owners()
        self.missing = []
        for target, make in self._wrappers:
            try:
                original = resolve(target)
            except (KeyError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = functools.wraps(original)(make(original))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self ms), self time excluding child spans."""
        spans = self.spans
        n = len(spans) >> 2
        child_ns = [0] * n
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0:
                child_ns[parent] += spans[4 * i + 3] - spans[4 * i + 2]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            name_id = spans[4 * i]
            calls[name_id] += 1
            self_ns[name_id] += spans[4 * i + 3] - spans[4 * i + 2] - child_ns[i]
        return {
            name: (calls[k], self_ns[k] / 1e6) for k, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        """Write the spans as raw int64 quadruples, names beside them as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            self.spans.tofile(out)
        header = {
            "format": "native int64 quadruples: name id, parent span index "
            "(-1 for none), start ns, end ns",
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
