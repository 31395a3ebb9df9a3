"""In-memory span recorder for the traced benchmark run.

A traced run replaces a few module attributes of probin (for example
``probin.shoot.rk4_path``) with wrappers that record one span per call:
name, start, end, parent span and operation id.  Nothing inside the
program is edited, the callers inside probin look the names up in their
module globals and so reach the wrappers, and ``restore`` puts the
originals back.  The untraced run never constructs a Tracer.

Spans live in flat ``array`` columns rather than objects: the Rayleigh
quotient alone is called hundreds of thousands of times per run, and a
column store keeps that at 28 bytes and about a microsecond per call.
"""

from __future__ import annotations

import array
import functools
import json
import time

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.op_id = -1
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace module.attr by a recording wrapper until restore().

        note(span_index, args, result) runs after a call that returned,
        for counters that need the arguments or the result."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                note(idx, args, result)
            return result

        self._restore.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span as columns of an .npz file, names as JSON."""
        cols = self.columns()
        np.savez(path, names=np.array(json.dumps(self.names)), **cols)


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a
    span are disjoint and inside it; their summed duration is exactly the
    part of the parent's interval that they cover."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def totals_by_name(names, name, start, end, parent) -> dict:
    """{span name: (calls, total seconds, self seconds)}."""
    name = np.asarray(name, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = self_times(start, end, parent)
    n = len(names)
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=dur, minlength=n)
    self_s = np.bincount(name, weights=own, minlength=n)
    return {
        names[i]: (int(calls[i]), float(total[i]), float(self_s[i]))
        for i in range(n)
    }
