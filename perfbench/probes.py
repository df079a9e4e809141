"""Outside-in timing of the program's public calls, for the traced run.

:class:`Recorder` replaces a public function or method with a wrapper that
times each call and records it as a span: name, start, duration, the span
that was open on the same thread when it began (its parent), and the step
or request it belongs to.  Spans stay in memory and are written once, at
the end, as Chrome trace-event JSON.  Every wrapper is removed again by
:meth:`Recorder.restore`, so the program is left as it was found.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


class Recorder:
    """Per-name call counts and busy time, plus one span per call."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.events: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``owner`` may be an instance (the wrapper shadows the bound method
        on that object only) or a class or module (the wrapper replaces the
        attribute for every caller until :meth:`restore`).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self.patch(owner, attr, timed)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        had_own = attr in getattr(owner, "__dict__", {})
        saved = owner.__dict__[attr] if had_own else None
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, had_own, saved))

    def tag(self, **tags) -> None:
        """Attach ``tags`` (a step or request id) to this thread's next spans."""
        self._local.tags = tags

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.monotonic() - start
            stack.pop()
            self.add_span(name, start, duration, span_id=span_id, parent=parent)

    def add_span(self, name: str, start: float, duration: float, *,
                 span_id: Optional[int] = None, parent: Optional[int] = None,
                 count: bool = True, **args) -> None:
        """Record one complete span (monotonic seconds)."""
        if span_id is None:
            span_id = next(self._ids)
        event_args = {"id": span_id}
        if parent is not None:
            event_args["parent"] = parent
        event_args.update(getattr(self._local, "tags", None) or {})
        event_args.update(args)
        event = {"name": name, "cat": "perfbench", "ph": "X",
                 "ts": start * 1e6, "dur": max(duration, 0.0) * 1e6,
                 "pid": self._pid, "tid": threading.get_ident(),
                 "args": event_args}
        with self._lock:
            if count:
                self.seconds[name] += duration
                self.calls[name] += 1
            self.events.append(event)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._patched:
            owner, attr, had_own, saved = self._patched.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    def ms(self, name: str) -> float:
        return self.seconds.get(name, 0.0) * 1e3


def write_chrome_trace(path, events: List[dict]) -> dict:
    """Write ``events`` as one Chrome trace-event JSON file; returns it."""
    payload = {"traceEvents": sorted(events, key=lambda e: e["ts"]),
               "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return payload
