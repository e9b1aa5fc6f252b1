"""Span tracer the benchmark installs around the program's public calls.

Only traced runs (``--trace 1``) install it; untraced runs never import
this module's wrappers, so the end-to-end numbers carry no tracing cost.

Every wrapper records a span with a name, a layer, a start, an end and
the span that was open on the same thread when it started.  Spans nest:
a layer's *self time* is its span durations minus the time of the spans
opened inside them, so a heartbeat fired from inside ``decompose`` is
charged to the scheduler and not a second time to the framework.  The
tracer's own bookkeeping is timed as well and charged to the pseudo
layer ``tracer``; whatever the measured window holds outside every
top-level span is the unattributed remainder.

Hot leaf calls (kernel steps, Theorem-3 hooks) are aggregated per name
instead of being kept as records; every other span is kept in memory
and written out by :meth:`Tracer.write_jsonl` when the run ends.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter


class _ThreadState:
    """Per-thread span stack and accumulators (no locking on the hot path)."""

    __slots__ = (
        "stack", "self_s", "incl_s", "count", "errors", "book_s", "top_s",
    )

    def __init__(self) -> None:
        self.stack = []                      # open frames: [id, child_s]
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.incl_s = defaultdict(float)     # span name -> inclusive seconds
        self.count = defaultdict(int)        # span name -> calls
        self.errors = defaultdict(int)       # span name -> calls that raised
        self.book_s = 0.0                    # tracer bookkeeping seconds
        self.top_s = 0.0                     # top-level span seconds


class Tracer:
    """Wraps attributes of program modules/classes with timing spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self._next_id = 0
        self.records = []   # (id, parent_id, thread, name, layer, start, end)
        self.values = defaultdict(float)     # free-form observed sums

    # -- state ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def add(self, key: str, amount: float = 1.0) -> None:
        """Accumulate an observed value (called from observe hooks)."""
        with self._lock:
            self.values[key] += amount

    # -- wrapping ------------------------------------------------------

    def patch(self, owner, attr, value) -> None:
        """Set ``owner.attr`` to ``value``; :meth:`restore` undoes it."""
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        self._patches.append((owner, attr, original if owned else None))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, layer, **options) -> None:
        """Replace ``owner.attr`` with ``traced(owner.attr, ...)``."""
        self.patch(owner, attr,
                   self.traced(getattr(owner, attr), name, layer, **options))

    def traced(self, fn, name, layer, *, leaf=False, before=None,
               observe=None):
        """``fn`` wrapped in a span of ``name`` charged to ``layer``.

        ``before(args, kwargs)`` runs ahead of the call and its return
        value reaches ``observe(token, args, kwargs, result, seconds)``,
        which runs after it; both count as tracer bookkeeping.  A
        ``leaf`` span keeps no record and opens no frame, so it must not
        enclose other traced calls.
        """
        if leaf:
            return self._leaf_wrapper(fn, name, layer, before, observe)
        return self._span_wrapper(fn, name, layer, before, observe)

    def _leaf_wrapper(self, original, name, layer, before, observe):
        tracer = self

        def traced(*args, **kwargs):
            enter = perf_counter()
            state = tracer._state()
            token = before(args, kwargs) if before is not None else None
            ok = False
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                seconds = end - start
                state.self_s[layer] += seconds
                state.incl_s[name] += seconds
                state.count[name] += 1
                if not ok:
                    state.errors[name] += 1
                elif observe is not None:
                    observe(token, args, kwargs, result, seconds)
                done = perf_counter()
                state.book_s += (start - enter) + (done - end)
                if state.stack:
                    state.stack[-1][1] += done - enter
                else:
                    state.top_s += done - enter
            return result

        return traced

    def _span_wrapper(self, original, name, layer, before, observe):
        tracer = self

        def traced(*args, **kwargs):
            enter = perf_counter()
            state = tracer._state()
            stack = state.stack
            parent = stack[-1][0] if stack else 0
            frame = [tracer._new_id(), 0.0]
            token = before(args, kwargs) if before is not None else None
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                state.self_s[layer] += seconds - frame[1]
                state.incl_s[name] += seconds
                state.count[name] += 1
                with tracer._lock:
                    tracer.records.append(
                        (frame[0], parent, threading.get_ident(), name,
                         layer, start, end)
                    )
                if not ok:
                    state.errors[name] += 1
                elif observe is not None:
                    observe(token, args, kwargs, result, seconds)
                done = perf_counter()
                state.book_s += (start - enter) + (done - end)
                if stack:
                    stack[-1][1] += done - enter
                else:
                    state.top_s += done - enter
            return result

        return traced

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- reporting -----------------------------------------------------

    def totals(self):
        """Merged ``(self_s, incl_s, count, errors, book_s, top_s)``."""
        self_s, incl_s = defaultdict(float), defaultdict(float)
        count, errors = defaultdict(int), defaultdict(int)
        book_s = top_s = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.self_s.items():
                self_s[key] += value
            for key, value in state.incl_s.items():
                incl_s[key] += value
            for key, value in state.count.items():
                count[key] += value
            for key, value in state.errors.items():
                errors[key] += value
            book_s += state.book_s
            top_s += state.top_s
        return self_s, incl_s, count, errors, book_s, top_s

    def write_jsonl(self, path) -> None:
        """Write the kept span records, one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, parent, thread, name, layer, start, end in (
                self.records
            ):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "thread": thread,
                    "name": name, "layer": layer,
                    "start": start, "end": end,
                }) + "\n")
