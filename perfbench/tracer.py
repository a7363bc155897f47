"""Span recording around gossipvote's functions, installed from outside at run time.

Tracer.install() replaces every public function of the package's modules (and
the public methods of classes defined there, plus a few named private
functions the layer metrics need) with a wrapper that records one span per
call: function id, parent span, start, end, and an optional size taken from
the call. Every name another module imported is rebound too (engine.step is
also forecast.step), so no source file changes. Tracer.restore() puts every
original back.

Spans stay in memory, in flat arrays, and flush() writes them to one .npz file
per process when it ends. A worker started by multiprocessing (the program's
process pool) drops what it inherited from its parent and flushes when its
process exits, so the parent can read every worker's spans once the pool has
shut down.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing.util
import os
import sys
import time
from array import array
from functools import wraps

import numpy as np

MODULES = ("model", "engine", "integration", "metrics", "scenario", "forecast", "cli")

# Private functions the layer metrics read: the job bodies that run in worker
# processes, the pool fan-out, the sweep's gap pass and the forecast's days.
PRIVATE = {
    "scenario": ("_run_replication", "_sweep_job", "_map_jobs", "_mean_gap"),
    "forecast": ("_gossip_day", "_integrate_day"),
}


def _step_size(args, result, counters):
    for key in ("sent", "delivered", "integrations", "changed"):
        counters[f"engine.{key}"] = counters.get(f"engine.{key}", 0) + getattr(result, key)
    return args[0].config.n


def _nbytes(args, result, counters):
    return result.nbytes


def _length(args, result, counters):
    return len(result)


# Per-span sizes: agents in a stepped state, bytes in a snapshot or a CSV text.
SIZES = {
    "engine.step": _step_size,
    "engine.SimState.snapshot": _nbytes,
    "scenario.trajectory_csv": _length,
    "scenario.metrics_csv": _length,
}


class Tracer:
    def __init__(self, out_dir: str, only: tuple[str, ...] = ()):
        self.out_dir = out_dir
        self.only = set(only)
        self.names: list[str] = []
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.sizes = array("d")
        self.counters: dict[str, float] = {}
        self.stack = [-1]
        self.import_s = 0.0
        self.missing: list[str] = []
        self.patches: list[tuple[object, str, object]] = []
        self.in_worker = False
        self.active = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's functions and rebind every name that refers to them."""
        __import__("gossipvote")
        for short in MODULES:
            __import__(f"gossipvote.{short}")
        wrapped: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"gossipvote.{short}"]
            for owner, attr, fn, name in self._targets(short, module):
                if self.only and name not in self.only:
                    continue
                wrapper = wrapped.get(id(fn)) or self._wrap(fn, name)
                wrapped[id(fn)] = wrapper
                self._patch(owner, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if name == "gossipvote" or name.startswith("gossipvote."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and id(value) in wrapped and value is not wrapped[id(value)]:
                        self._patch(module, attr, wrapped[id(value)])
        self.active = True
        multiprocessing.util.register_after_fork(self, Tracer._start_worker)

    def _targets(self, short, module):
        private = PRIVATE.get(short, ())
        for name in private:
            if not inspect.isfunction(getattr(module, name, None)):
                self.missing.append(f"{short}.{name}")
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                if not attr.startswith("_") or attr in private:
                    yield module, attr, value, f"{short}.{attr}"
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for meth, fn in list(vars(value).items()):
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        yield value, meth, fn, f"{short}.{value.__name__}.{meth}"

    def _patch(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original function, in reverse order of patching."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        self.active = False

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        size = SIZES.get(name)
        fids, parents, starts, ends, sizes = (
            self.fids, self.parents, self.starts, self.ends, self.sizes)
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            sizes.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if size is not None:
                sizes[index] = size(args, result, counters)
            return result

        return wrapper

    # -- processes and output ----------------------------------------------

    def _start_worker(self) -> None:
        """Runs in every process multiprocessing starts, before its first job."""
        if not self.active:
            return
        for buf in (self.fids, self.parents, self.starts, self.ends, self.sizes):
            del buf[:]
        del self.stack[1:]
        self.counters.clear()
        self.import_s = 0.0
        self.in_worker = True
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans to <out_dir>/spans-<pid>-<role>.npz."""
        role = "worker" if self.in_worker else "main"
        meta = {"names": self.names, "counters": self.counters, "import_s": self.import_s,
                "missing": self.missing, "role": role, "pid": os.getpid()}
        np.savez(
            os.path.join(self.out_dir, f"spans-{os.getpid()}-{role}.npz"),
            fid=np.array(self.fids, dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int32),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
            size=np.array(self.sizes, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def load_spans(trace_dir: str) -> list[dict]:
    """The spans of every process that wrote to a trace directory, one dict each."""
    procs = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("spans-") and entry.endswith(".npz"):
            with np.load(os.path.join(trace_dir, entry)) as data:
                spans = {key: data[key] for key in ("fid", "parent", "start", "end", "size")}
                spans.update(json.loads(str(data["meta"])))
            procs.append(spans)
    return procs
