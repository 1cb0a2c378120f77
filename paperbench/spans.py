"""Outside-in span recorder for the paper benchmark.

The benchmark never edits the program: it wraps the public functions of
each layer from outside, records one span per call (name, start, end,
parent), keeps the spans in memory and writes them out when the run ends.
A layer's *self time* is its span's duration minus the time its direct
child spans cover; the root span of a timed iteration has no layer of its
own, so its self time is the part of ``verdict_s`` no layer explains
(``unaccounted_s``).

Functions are patched in every loaded ``repro.*`` module that binds them:
``evaluator.py`` and ``periodic.py`` import the G-test functions by name,
so patching ``gtest.py`` alone would record nothing on those paths.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Nested spans of one process, kept in memory.

    Spans are stored as ``[name_index, parent, start, end]`` rows in
    begin order, so a parent always precedes its children.  ``counts``
    holds event counters keyed by ``(root, name)``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.spans: List[List] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        #: wrappers call straight through while this is false.
        self.active = True

    # ------------------------------------------------------------- recording

    def begin(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        span_id = len(self.spans)
        self.spans.append([index, parent, self.clock(), None])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        if not self._stack or self._stack[-1] != span_id:
            raise RuntimeError("spans must end in reverse begin order")
        self._stack.pop()
        self.spans[span_id][3] = self.clock()

    def root(self) -> Optional[int]:
        """The outermost open span, or None outside any span."""
        return self._stack[0] if self._stack else None

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        index = self._name_index.get(name)
        return index is not None and any(
            self.spans[s][0] == index for s in self._stack
        )

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the current root span."""
        self.counts[(self.root(), name)] += amount

    def wrap(self, fn: Callable, name: str,
             counter: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``.

        ``counter(self, args, kwargs)`` runs before the call to add event
        counts; it may return replacement ``(args, kwargs)``, e.g. to count
        the items of an iterable argument as the callee consumes them.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter is not None:
                replaced = counter(self, args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            span_id = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span_id)

        return wrapper

    # ------------------------------------------------------------- analysis

    def duration(self, span_id: int) -> float:
        _, _, start, end = self.spans[span_id]
        return end - start

    def self_times(self, root: int) -> Dict[str, float]:
        """Self seconds per layer name over the spans below ``root``.

        The root's own self time is returned under ``None``: with it, the
        values sum exactly to the root's duration.
        """
        child_sum = defaultdict(float)
        root_of: Dict[int, int] = {}
        totals: Dict[Optional[str], float] = defaultdict(float)
        for span_id, (_, parent, start, end) in enumerate(self.spans):
            if end is None:
                continue
            top = span_id if parent < 0 else root_of.get(parent)
            if top is None:
                continue
            root_of[span_id] = top
            if parent >= 0:
                child_sum[parent] += end - start
        for span_id, top in root_of.items():
            if top != root:
                continue
            index, _, start, end = self.spans[span_id]
            own = (end - start) - child_sum[span_id]
            key = None if span_id == root else self.names[index]
            totals[key] += own
        return dict(totals)

    def calls(self, root: int) -> Counter:
        """Number of spans per layer name below ``root``."""
        below = {root}
        out: Counter = Counter()
        for span_id, (index, parent, _, end) in enumerate(self.spans):
            if parent in below and end is not None:
                below.add(span_id)
                out[self.names[index]] += 1
        return out

    def counters(self, root: int) -> Dict[str, float]:
        """Event counters recorded while ``root`` was the outermost span."""
        return {
            name: value
            for (top, name), value in self.counts.items()
            if top == root
        }

    def dump(self, path: str, meta: Dict) -> None:
        """Write every span (gzip JSON) for offline inspection."""
        payload = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "parent", "start", "end"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class Patcher:
    """Installs span wrappers and restores the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []
        #: span names of every installed wrapper.
        self.names: set = set()
        #: targets that no longer exist in the program; their metrics
        #: read zero, so the run reports them instead of hiding it.
        self.missing: List[str] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str,
                 counter: Optional[Callable] = None) -> None:
        """Wrap a module-level function wherever a repro module binds it."""
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self.recorder.wrap(original, name, counter)
        self.names.add(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def method(self, module: str, cls_name: str, attr: str, name: str,
               counter: Optional[Callable] = None) -> None:
        """Wrap a method on its defining class."""
        try:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        self._set(cls, attr, self.recorder.wrap(original, name, counter))
        self.names.add(name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
