"""In-memory layer spans recorded around calls into the program's layers.

The traced run replaces selected public functions and methods of each
layer with thin wrappers (:meth:`Tracer.install`) and restores them
afterwards (:meth:`Tracer.uninstall`); nothing under ``src/`` changes.
Every wrapped call records one span: name, start, end, parent span and
the id of the unit it ran in.  Spans live in flat arrays in memory and
are written out once, when the run ends (:meth:`Tracer.dump`).

Self time is a span's duration minus the time its direct children
cover.  It is summed per span name within each unit, together with call
counts, failures (calls that raised) and, where a wrapper measures
them, bytes.  The time covered by top-level spans gives the share of a
unit's wall that no layer span explains.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Raw spans kept per run; past this, spans still count in the per-unit
#: totals but are not stored (the dump records how many were dropped).
SPAN_CAP = 1_500_000


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_unit = array("i")
        self.dropped = 0
        #: Open spans: [span index or -1, child seconds, start].
        self._stack: List[list] = []
        self.unit = -1
        self._patches: List[Tuple[object, str, object]] = []
        self._reset_unit()

    # -- units --------------------------------------------------------------

    def _reset_unit(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.failures: Dict[str, int] = defaultdict(int)
        self.nbytes: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.covered_s = 0.0
        #: Start of the unit's first and end of its last top-level span.
        self.busy_from: Optional[float] = None
        self.busy_to = 0.0

    def begin_unit(self) -> None:
        """Start the next unit: its spans get the next unit id."""
        if self._stack:
            raise RuntimeError("a unit began inside an open span")
        self.unit += 1
        self._reset_unit()

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> None:
        started = perf_counter()
        index = len(self.span_start)
        if index < SPAN_CAP:
            self.span_name.append(name_id)
            self.span_start.append(started)
            self.span_end.append(0.0)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_unit.append(self.unit)
        else:
            index = -1
            self.dropped += 1
        if self.busy_from is None:
            self.busy_from = started
        self._stack.append([index, 0.0, started])

    def exit(self, name: str, failed: bool = False, nbytes: int = 0,
             sample: bool = False, missed: bool = False) -> float:
        """Close the innermost span; returns its duration."""
        ended = perf_counter()
        index, child_s, started = self._stack.pop()
        duration = ended - started
        if index >= 0:
            self.span_end[index] = ended
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.covered_s += duration
            self.busy_to = ended
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if failed:
            self.failures[name] += 1
        if nbytes:
            self.nbytes[name] += nbytes
        if missed:
            self.misses[name] += 1
        if sample:
            self.samples[name].append(duration)
        return duration

    def wrap(self, name: str, fn: Callable, *,
             nbytes: Optional[Callable[[Sequence, object], int]] = None,
             miss: Optional[Callable[[object], bool]] = None,
             sample: bool = False) -> Callable:
        """``fn`` recording one span per call under ``name``.

        ``nbytes(args, result)`` measures bytes moved by the call;
        ``miss(result)`` counts calls that found nothing (cache misses);
        ``sample`` keeps every duration for percentiles.
        """
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(name, failed=True, sample=sample)
                raise
            self.exit(name, nbytes=nbytes(args, result) if nbytes else 0,
                      missed=miss(result) if miss else False, sample=sample)
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A coroutine function recording one span per awaited call.

        Spans stay properly nested only while one such coroutine is in
        flight at a time (one request per connection, one connection).
        """
        name_id = self._id(name)

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            self.enter(name_id)
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                self.exit(name, failed=True)
                raise
            self.exit(name)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, patches: Sequence[tuple]) -> None:
        """Wrap ``(owner, attribute, span name[, wrap options])`` entries.

        ``owner`` is a class or a module; class-level ``classmethod``
        objects are unwrapped and re-wrapped so bound calls still work.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, *options in patches:
            kwargs = options[0] if options else {}
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, **kwargs))
            else:
                wrapped = self.wrap(name, raw, **kwargs)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def install_one(self, owner: object, attr: str, wrapped: object) -> None:
        """Replace one attribute with a ready-made wrapper (restored later)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    # -- output -------------------------------------------------------------

    def unit_totals(self, names: Sequence[str]) -> Dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for each listed name."""
        totals: Dict[str, float] = {}
        for name in names:
            totals[f"{name}.calls"] = float(self.calls.get(name, 0))
            totals[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        return totals

    def dump(self, path: Path, meta: Dict[str, object]) -> None:
        """Write every stored span plus ``meta`` to ``path`` (``.npz``)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, names=self.names, dropped=self.dropped)
        np.savez_compressed(
            path,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            unit=np.frombuffer(self.span_unit, dtype=np.int32),
        )
