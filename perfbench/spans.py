"""Outside-in span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `Tracer.installed()`
replaces the public functions named in `BOUNDARIES` by timing wrappers on
their module objects and restores the originals on exit.  Every anosovlab
module calls its siblings through module attribute lookups (`sysmod.flow`,
`comod.oseledets_splitting`, ...) and its own functions through module
globals, so a wrapper on the module attribute also sees the internal calls.

A span is (boundary, parent span, task id, start ns, end ns).  Spans stay in
memory in flat arrays and are summarised, or written out, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

#: layer module -> public functions timed at its boundary
BOUNDARIES = {
    "systems": ("flow", "tangent_flow", "lattice_reduce", "unstable_shift",
                "leaf_translate"),
    "cocycle": ("oseledets_splitting", "lyapunov_spectrum", "decompose"),
    "leafgeom": ("leaf_chart", "stable_projection", "local_hausdorff", "qni_exponent"),
    "factorize": ("build_transfer", "stopping_time", "holonomy_limit", "t2_solve",
                  "bilipschitz_check"),
    "measures": ("lln_average", "correlation_decay", "birkhoff_equidistribution"),
    "expcli": ("run", "parse_config", "payload_bytes"),
}

BOUNDARY_NAMES = tuple(f"{m}.{f}" for m, fns in BOUNDARIES.items() for f in fns)


def _point_key(bound):
    return bound.arguments["x"].coords.tobytes()


def _chart_key(bound):
    a = bound.arguments
    return (a["x"].coords.tobytes(), a["kind"], int(a["order"]))


#: boundaries whose distinct-input ratio is measured, with their input key
DISTINCT_KEYS = {
    "cocycle.oseledets_splitting": _point_key,
    "leafgeom.leaf_chart": _chart_key,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, package="anosovlab", boundaries=BOUNDARIES):
        self.names = []
        self.name_id = array("i")
        self.parent = array("q")
        self.task = array("i")
        self.start = array("q")
        self.end = array("q")
        self.task_id = -1
        self.inputs = {}  # boundary id -> set of (task id, input key)
        self._stack = []
        self._targets = []  # (module, attribute, original, wrapper)
        for mod_name, fns in boundaries.items():
            module = importlib.import_module(f"{package}.{mod_name}")
            for fn_name in fns:
                original = getattr(module, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(name, original, DISTINCT_KEYS.get(name))
                self._targets.append((module, fn_name, original, wrapper))

    def _wrap(self, name, fn, key):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_id, parent, task = self.name_id, self.parent, self.task
        start, end = self.start, self.end
        clock = time.perf_counter_ns
        if key is not None:
            sig = inspect.signature(fn)
            seen = self.inputs.setdefault(nid, set())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            task.append(self.task_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                if key is not None:  # inside the span: billed to it, not to a parent
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    seen.add((self.task_id, key(bound)))
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self, task_id):
        """Trace the calls made inside the block under `task_id`."""
        self.task_id = task_id
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._targets:
                setattr(module, attr, original)
            self._stack.clear()

    def arrays(self):
        """Spans as numpy arrays (name id, parent, task, start ns, end ns)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self, tasks):
        """Per-boundary calls and self seconds over the spans of `tasks`."""
        sp = self.arrays()
        return summarise(self.names, sp["name_id"], sp["parent"], sp["task"],
                         sp["start_ns"], sp["end_ns"], tasks)

    def distinct(self, name, tasks):
        """(distinct inputs, calls) of a keyed boundary over `tasks`.

        Inputs are distinct per task: separate tasks are separate CLI runs and
        cannot share work."""
        nid = self.names.index(name)
        tasks = set(tasks)
        keys = sum(1 for t, _ in self.inputs[nid] if t in tasks)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        owner = np.frombuffer(self.task, dtype=np.int32)
        calls = int(np.sum((ids == nid) & np.isin(owner, list(tasks))))
        return keys, calls


def self_times(parent, start_ns, end_ns):
    """Self time of each span: its duration minus what its children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other."""
    dur = (np.asarray(end_ns) - np.asarray(start_ns)).astype(np.int64)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarise(names, name_id, parent, task, start_ns, end_ns, tasks):
    """{boundary: (calls, self seconds)} restricted to spans of `tasks`."""
    own = self_times(parent, start_ns, end_ns)
    keep = np.isin(task, list(tasks))
    calls = np.bincount(name_id[keep], minlength=len(names))
    self_ns = np.bincount(name_id[keep], weights=own[keep], minlength=len(names))
    return {n: (int(calls[i]), float(self_ns[i]) * 1e-9) for i, n in enumerate(names)}
