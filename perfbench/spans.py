"""Span recorder that traces cyclicblocks from outside the library.

`Tracer.instrument` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent, op id) and restores
the originals afterwards.  The wrapper is installed under every module
attribute that holds the function, so calls made through `from .x import f`
names are traced too.  Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "cyclotomic",
    "local_reps",
    "brauer_tree",
    "characters",
    "classification",
    "oracle",
    "cli",
)

# Private cli helpers that are stage boundaries: json.load plus
# descriptor_from_obj, which the public functions do not separate.
EXTRA_BOUNDARIES = {"cli": ("_load_descriptor",)}

# The cli spans that count as its parsing stage.
PARSE_SPANS = ("cli._load_descriptor", "cli.build_parser")

# Spans whose result length is added to a per-op counter.
RESULT_COUNTERS = {
    "classification.candidate_paths": "classification.candidates",
    "classification.enumerate_trivial_source": "classification.admitted",
}


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "cyclicblocks" or name.startswith("cyclicblocks.")
    ]


def find_caches() -> list:
    """Every functools cache among the attributes of the cyclicblocks
    modules, found generically so that caches added later are reset too."""
    caches = {}
    for mod in package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(
                value, "cache_info"
            ):
                caches[id(value)] = value
    return list(caches.values())


def _boundaries(layer: str, mod) -> dict:
    out = {}
    for name, value in vars(mod).items():
        is_boundary = name in EXTRA_BOUNDARIES.get(layer, ()) or (
            not name.startswith("_")
        )
        if not is_boundary or inspect.isclass(value) or not callable(value):
            continue
        if getattr(value, "__module__", None) == mod.__name__:
            out[name] = value
    return out


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[int, dict[str, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def start(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent, op)
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if counter is not None:
                counts = tracer.counts.setdefault(tracer.op, {})
                counts[counter] = counts.get(counter, 0) + len(result)
            return result

        return wrapper

    def instrument(self) -> None:
        """Wrap the public functions of every layer module."""
        modules = {mod.__name__: mod for mod in package_modules()}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"cyclicblocks.{layer}"]
            for name, fn in _boundaries(layer, mod).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )


def op_summary(spans: list, root: int) -> dict:
    """Per-op totals below one root span: total time and call count per
    span name, self time per layer, and the sum of the stage spans (the
    outermost spans outside cli, plus cli's own parsing)."""
    children: dict[int, list[int]] = {}
    members = []
    # one thread, so the descendants of root are the spans that start
    # before it ends
    for index in range(root + 1, len(spans)):
        if spans[index][1] >= spans[root][2]:
            break
        members.append(index)
        children.setdefault(spans[index][3], []).append(index)

    def duration(index: int) -> float:
        return (spans[index][2] - spans[index][1]) / 1e9

    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    stage_sum = 0.0
    for index in members:
        name = spans[index][0]
        dur = duration(index)
        totals[name] = totals.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        own = dur - sum(duration(c) for c in children.get(index, ()))
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if _is_stage(spans, index, root):
            stage_sum += dur
    return {
        "total_s": duration(root),
        "totals": totals,
        "calls": calls,
        "layer_self": layer_self,
        "stage_sum": stage_sum,
    }


def _is_stage(spans: list, index: int, root: int) -> bool:
    name = spans[index][0]
    if name in PARSE_SPANS:
        return True
    if name.startswith("cli."):
        return False
    parent = spans[index][3]
    while parent != root:
        if not spans[parent][0].startswith("cli."):
            return False
        parent = spans[parent][3]
    return True
