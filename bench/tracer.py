"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``ldpvol`` from the outside: it
replaces the attribute in every ``ldpvol`` module that holds the same
function object (so re-exports such as ``ldpvol.cli.itilde_terminal`` are
caught too) and restores the originals on ``uninstall``.  Nothing under
``src/`` knows about it, and an untraced run never installs it.

A span is ``{id, parent, name, start, end, thread, attrs}``; the parent is
the innermost open span of the same thread.  Spans stay in memory and are
written out as JSON lines at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the span
        (row counts, iteration counts); it runs outside the timed interval.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._id_lock:
                span_id = self._next_id
                self._next_id += 1
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "thread": threading.get_ident(),
            }
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            self.spans.append(span)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install_function(self, module, attr: str, name: str, attrs=None):
        """Wrap ``module.attr`` wherever an ``ldpvol`` module re-exports it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ldpvol" or mod_name.startswith("ldpvol.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install_method(self, cls, attr: str, name: str, attrs=None):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, attrs))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of its interval its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_a = cur_b = None
            for a, b in sorted(children.get(s["id"], ())):
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write_jsonl(self, path, t0: float):
        """Spans as JSON lines, times in seconds relative to ``t0``."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                row = dict(s)
                row["start"] = s["start"] - t0
                row["end"] = s["end"] - t0
                row["self"] = selfs[s["id"]]
                fh.write(json.dumps(row, default=float) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - t - bare, 0.0) / calls
