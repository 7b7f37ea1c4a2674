"""Span recording around mgres's public functions, from outside the package.

A ``Tracer`` swaps wrappers into the modules and classes of a loaded
package for the length of a ``with`` block and puts every original back on
exit.  A module-level function is replaced under every name that refers to
it in every module of the package, so a call through ``cli``'s or
``systems``'s own import is recorded too.  Spans stay in memory as tuples
``(name, start, end, parent index, op id)`` until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Timing spans (``timed=True``) or call hooks only (``timed=False``)."""

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.spans: list = []
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list = []

    # -------------------------------------------------------------- recording

    def span(self, name: str, fn, hook=None):
        """A wrapper around fn that records one span per call.

        Calls made outside an operation (set-up, oracles) pass straight
        through.  ``hook(args, kwargs, result)`` runs only when the tracer
        is not timed, so the counting it does is charged to no layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if not tracer.timed:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op_id)

        return wrapper

    def run_op(self, op_id, name: str, fn):
        """Call fn() as the root span of one operation."""
        self.op_id = op_id
        try:
            return self.span(name, fn)()
        finally:
            self.op_id = None

    # --------------------------------------------------------------- patching

    def patch_method(self, cls, attr: str, name: str, hook=None) -> None:
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.span(name, orig, hook))

    def patch_function(self, package: str, fn, name: str, hook=None) -> None:
        """Replace fn under every name bound to it in the package's modules."""
        wrapper = self.span(name, fn, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def patched(self) -> list:
        """(owner, attribute, original) for every swap made so far."""
        return list(self._patches)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged first, so
    overlapping or out-of-range children are not subtracted twice.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, tuple[int, float]]:
    """name -> (call count, summed self time in seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (name, *_), st in zip(spans, self_times(spans)):
        out[name][0] += 1
        out[name][1] += st
    return {k: (v[0], v[1]) for k, v in out.items()}
