"""In-memory spans recorded around the benchmark's own calls into each layer.

A span is one call: its name (``<layer>.<function>``), start and end in
nanoseconds, the op span that caused it, the op id shared by every span of
that op, the input size and any counts the caller attaches.  Nothing inside
the program is traced: the benchmark wraps its own calls to public
functions.  Spans stay in memory until :meth:`Tracer.dump` writes them out
at the end of the run.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; when disabled it only forwards calls."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._op: dict | None = None

    @contextmanager
    def op(self, name: str, op_id: str):
        """Span of one whole op; layer spans recorded inside it are its children."""
        if not self.enabled:
            yield
            return
        span = self._open(name, op_id, None, 0, None)
        self._op = span
        try:
            yield
        finally:
            span["end"] = time.perf_counter_ns()
            self._op = None

    def call(self, name: str, fn, *args, size: int = 0, tag: str | None = None, **kwargs):
        """Call ``fn(*args, **kwargs)``, recording a span named ``name`` if enabled.

        ``tag`` marks calls made for a different purpose than the layer's
        main use in the op, so aggregates can leave them out.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        op = self._op
        span = self._open(name, op["op"] if op else "", op["id"] if op else None, size, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter_ns()

    def note(self, **counts) -> None:
        """Attach counts to the most recent span (no-op when disabled)."""
        if self.enabled:
            self.spans[-1]["counts"].update(counts)

    def _open(self, name: str, op_id: str, parent, size: int, tag) -> dict:
        span = {
            "id": len(self.spans),
            "parent": parent,
            "op": op_id,
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "size": size,
            "weight": 1.0,
            "counts": {},
            "tag": tag,
        }
        self.spans.append(span)
        return span

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, reach = 0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def growth_exponent(sizes: list[float], seconds: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    points = [(math.log(s), math.log(t)) for s, t in zip(sizes, seconds) if s > 0 and t > 0]
    if len({x for x, _ in points}) < 2:
        raise ValueError("a growth fit needs at least two distinct sizes")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


class LayerStats:
    """Per-name aggregates over layer spans, each weighted by its span's weight."""

    def __init__(self, spans: list[dict]) -> None:
        selfs = self_times(spans)
        self._layer = [(s, selfs[s["id"]]) for s in spans if s["parent"] is not None]

    def _select(self, name: str, untagged: bool = False):
        found = [
            (s, t) for s, t in self._layer
            if s["name"] == name and not (untagged and s["tag"] is not None)
        ]
        if not found:
            raise KeyError(f"no spans named {name!r}")
        return found

    def busy_ms(self, name: str, untagged: bool = False) -> float:
        """Weighted self time; ``untagged`` leaves out spans that carry a tag."""
        return sum(s["weight"] * t for s, t in self._select(name, untagged)) / 1e6

    def count(self, name: str, key: str) -> int:
        """Weighted sum of one count; passes repeat exactly, so it is whole."""
        return round(sum(s["weight"] * s["counts"].get(key, 0) for s, _ in self._select(name)))

    def growth(self, name: str) -> float:
        found = self._select(name)
        return growth_exponent(
            [s["size"] for s, _ in found], [(s["end"] - s["start"]) / 1e9 for s, _ in found]
        )

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) / 1e6 for s, _ in self._select(name)]
