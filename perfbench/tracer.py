"""Spans and probes installed on the package from outside, without touching it.

A package module often imports a function by name (``from .latency import
member_responses``), so replacing the attribute on the defining module alone
would miss those calls. :func:`rebind` therefore replaces the function object
at every module that binds it, and undoes the change on request.
"""

from __future__ import annotations

import inspect
import time
from array import array


def rebind(modules, old, new) -> list:
    """Point every binding of ``old`` in ``modules`` at ``new``; return the undo list."""
    undo = []
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is old:
                setattr(module, name, new)
                undo.append((module, name, old))
    return undo


def restore(undo) -> None:
    for module, name, old in reversed(undo):
        setattr(module, name, old)


def public_functions(module) -> list:
    """(name, function) for each public function the module itself defines."""
    return [
        (name, fn)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Records one span per call of every public function of the ``traced`` modules.

    Each function is replaced at every module of ``bindings`` that binds it.

    Spans live in memory as parallel arrays (function id, parent span, start,
    end). Time spent in the tracer's own bookkeeping and hooks is excluded
    from every span through a running offset on the clock, so a parent's self
    time is not inflated by the wrappers of its children.

    ``hooks`` maps a qualified name (``"latency.member_responses"``) to a pair
    ``(before, after)``: ``before(tracer, args, kwargs)`` returns a token,
    ``after(tracer, args, kwargs, result, token)`` updates ``tracer.counts``
    from the arguments and result at the boundary. Either may be None.
    """

    def __init__(self, bindings, traced, hooks):
        self.names = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.context = {}
        self._stack = []
        self._lost = 0.0
        self._undo = []
        targets = [
            (f"{module.__name__.rsplit('.', 1)[-1]}.{name}", fn)
            for module in traced
            for name, fn in public_functions(module)
        ]
        for qualname, fn in targets:
            wrapper = self._wrap(len(self.names), fn, *hooks.get(qualname, (None, None)))
            self.names.append(qualname)
            self._undo += rebind(bindings, fn, wrapper)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fid, fn, before, after):
        clock = time.perf_counter
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            token = before(self, args, kwargs) if before is not None else None
            t1 = clock()
            self._lost += t1 - t0
            starts[idx] = t1 - self._lost
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t2 = clock()
                ends[idx] = t2 - self._lost
                stack.pop()
                if ok and after is not None:
                    after(self, args, kwargs, result, token)
                self._lost += clock() - t2
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per function: calls, total span time and self time (span minus children)."""
        import numpy as np

        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        width = len(self.names)
        calls = np.bincount(fid, minlength=width)
        total = np.bincount(fid, weights=dur, minlength=width)
        self_time = np.bincount(fid, weights=dur - child_time, minlength=width)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_time[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write the raw spans (names, function id, parent, start, end) as .npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class FirstCallProbe:
    """Notes the monotonic time of the first call to any of some functions.

    Each probed function is replaced at every binding by a wrapper; the first
    wrapper to run records ``time.monotonic()`` and puts every binding back,
    so later calls pay nothing.
    """

    def __init__(self, bindings, functions):
        self.fired_at = None
        self._undo = []
        for fn in functions:
            self._undo += rebind(bindings, fn, self._wrap(fn))

    def _wrap(self, fn):
        def probe(*args, **kwargs):
            if self.fired_at is None:
                self.fired_at = time.monotonic()
                restore(self._undo)
                self._undo = []
            return fn(*args, **kwargs)

        return probe
