"""Span tracing for the traced run, applied from outside the program.

Each layer's public functions are wrapped where their caller looks them up:
a ``from … import`` binds a name in the importing module at import time, so
``repro.core.tree_index.partial_quality`` is wrapped, not only
``repro.core.quality.partial_quality``.  Spans (name, start, end, parent,
solve id) stay in memory and are written out when the run ends.  Only
driver-side calls are seen: the functions Spark runs in its Python workers
are not wrapped.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path

import numpy as np

#: Span recorded around the tracer's own work inside a solve, so that the
#: enclosing span's self time excludes it.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder; records only while a solve id is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve_ids = array("i")
        self._stack: list[int] = []
        self.solve_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_ids.append(self.solve_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def solve(self, solve_id: int):
        """Record layer spans for one solve, under a root span."""
        self.solve_id = solve_id
        idx = self._open(self._intern("bench.solve"))
        try:
            yield
        finally:
            self._close(idx)
            self.solve_id = -1

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)``
        runs once the span has closed, inside a bookkeeping span."""
        nid, book = self._intern(name), self._intern(BOOKKEEPING)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.solve_id < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                b = tracer._open(book)
                try:
                    after(args, kwargs, result)
                finally:
                    tracer._close(b)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> bool:
        """Replace ``owner.attr`` by its traced version until :meth:`unpatch`.

        Returns False (and patches nothing) when ``owner`` has no ``attr``.
        """
        if isinstance(owner, type):  # only what the class itself defines
            orig = owner.__dict__.get(attr)
        else:
            orig = getattr(owner, attr, None)
        if orig is None:
            return False
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, after))
        return True

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s`` (the span's
        duration minus the time its direct children cover)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        par = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur))
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            solve=np.frombuffer(self.solve_ids, dtype=np.int32),
        )


def patch_layers(tracer: Tracer) -> list[str]:
    """Wrap every benchmarked layer's public functions; returns the targets
    that could not be found (they read as zero)."""
    from repro.core import assignment, quality, tree_index, multi_greedy
    from repro.sparkpar import task_parallel
    from repro.stcc import spatio_temporal

    targets = [
        # core.assignment — the benchmark's own solves and task-parallel.
        (assignment, "build_task_contexts", "assignment.build"),
        (task_parallel, "build_task_contexts", "assignment.build"),
        # core.quality — wherever a caller bound the name.
        (quality, "knn_distances", "quality.knn_distances"),
        (quality, "partial_quality", "quality.partial_quality"),
        (tree_index, "knn_distances", "quality.knn_distances"),
        (tree_index, "partial_quality", "quality.partial_quality"),
        (spatio_temporal, "knn_distances", "quality.knn_distances"),
        (spatio_temporal, "partial_quality", "quality.partial_quality"),
        (task_parallel, "p_vector", "quality.p_vector"),
        (task_parallel, "quality_from_p", "quality.quality_from_p"),
        # core.tree_index
        (tree_index, "solve_sqm_approx_star", "tree_index.solve_sqm_approx_star"),
        (tree_index.VoronoiTreeIndex, "__init__", "tree_index.init"),
        (tree_index.VoronoiTreeIndex, "best_candidate", "tree_index.best_candidate"),
        (tree_index.VoronoiTreeIndex, "exact_heuristic", "tree_index.exact_heuristic"),
        (tree_index.VoronoiTreeIndex, "commit", "tree_index.commit"),
        (tree_index.VoronoiTreeIndex, "update_cost", "tree_index.update_cost"),
        # core.multi_greedy
        (multi_greedy, "solve_msqm_serial", "multi_greedy.solve_msqm_serial"),
        # sparkpar.task_parallel (its Spark calls are wrapped by sparkenv)
        (task_parallel, "solve_msqm_task_parallel",
         "task_parallel.solve_msqm_task_parallel"),
        # stcc.spatio_temporal
        (spatio_temporal, "solve_stcc_greedy", "stcc.solve_stcc_greedy"),
        (spatio_temporal, "stcc_quality", "stcc.stcc_quality"),
        (spatio_temporal, "stcc_p_matrix", "stcc.stcc_p_matrix"),
    ]
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, name in targets
        if not tracer.patch(owner, attr, name)
    ]
