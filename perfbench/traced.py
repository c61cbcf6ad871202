"""Traced run of one ``repro`` command, in this process.

Usage::

    python3 perfbench/traced.py OUT.json -- <repro CLI arguments...>

Imports the program, wraps the public functions of each layer with span
or counter probes, then runs ``repro.cli.main`` on the given arguments in
this process.  The command's stdout is the program's own, so the caller
can compare it with an untraced run of the same command.  Spans are kept
in memory and written to ``OUT.json`` when the command returns.

Layer names follow the program's modules (``setsystem.shards``,
``engine.transport``, ...).  A probe whose target no longer exists is
skipped and listed under ``"missing"`` in the output, so a refactor of
the program degrades the per-layer numbers instead of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

_END = object()


class Recorder:
    """Thread-safe in-memory store of spans, counters and gauges.

    A span is ``[name, thread_id, start, end, parent]`` with ``parent``
    the index of the enclosing span on the same thread (or ``None``).  A
    call into a layer that is already open on the same thread is not
    recorded again, so a layer's spans never overlap within a thread and
    their durations add up to the layer's busy time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list = []
        self.counters: dict = {}
        self.gauges: dict = {}
        self.missing: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        """Open a span; returns a token for :meth:`end`, or ``None``."""
        stack = self._stack()
        if any(open_name == name for open_name, _ in stack):
            return None
        parent = stack[-1][1] if stack else None
        record = [name, threading.get_ident(), time.perf_counter(), None, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append((name, index))
        return record

    def end(self, record) -> None:
        if record is None:
            return
        record[3] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ----------------------------------------------------------
    def spanned(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs on return.

        ``after`` runs on nested calls too, whose span is not recorded.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(record)
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name: str, fn, amount=None):
        """``fn`` wrapped in a call counter (or ``amount(args, result)``)."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            recorder.count(name, 1 if amount is None else amount(args, result))
            return result

        return traced

    def iterated(self, name: str, fn, on_exhaust=None):
        """``fn`` returns an iterator; each ``next`` on it is one span.

        This times what the caller waits for, however the iterator does
        its work (inline, on a prefetch thread or on remote workers).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return recorder._timed(name, iter(fn(*args, **kwargs)), args,
                                   on_exhaust)

        return traced

    def _timed(self, name, iterator, args, on_exhaust):
        try:
            while True:
                record = self.begin(name)
                try:
                    item = next(iterator, _END)
                finally:
                    self.end(record)
                if item is _END:
                    if on_exhaust is not None:
                        on_exhaust(args)
                    return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def dump(self) -> dict:
        with self._lock:
            return {
                "spans": [list(span) for span in self.spans],
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "missing": list(self.missing),
            }


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module name bound to ``original`` at ``replacement``.

    Functions imported by name (``from repro.setsystem import load``)
    are looked up in the importing module, so each binding is patched.
    """
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(recorder, module_name, attr, make):
    try:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
    except (ImportError, AttributeError):
        recorder.missing.append(f"{module_name}.{attr}")
        return
    _rebind(original, make(original))


def _patch_method(recorder, module_name, class_name, attr, make):
    try:
        cls = getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError):
        recorder.missing.append(f"{module_name}.{class_name}.{attr}")
        return
    _patch_own(recorder, cls, attr, make, f"{module_name}.{class_name}")


def _patch_own(recorder, cls, attr, make, label) -> None:
    """Wrap ``cls.attr`` when ``cls`` itself defines it."""
    original = vars(cls).get(attr)
    if original is None:
        recorder.missing.append(f"{label}.{attr}")
    elif isinstance(original, (classmethod, staticmethod)):
        setattr(cls, attr, type(original)(make(original.__func__)))
    else:
        setattr(cls, attr, make(original))


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _directory_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    r = recorder
    span = r.spanned
    fn, meth = _patch_function, _patch_method

    fn(r, "repro.setsystem.io", "load",
       lambda f: span("setsystem.io.load", f))

    shards = "repro.setsystem.shards"
    write = "setsystem.shards.write"
    fn(r, shards, "write_shards", lambda f: span(write, f))
    meth(r, shards, "ShardWriter", "append", lambda f: span(write, f))
    meth(r, shards, "ShardWriter", "extend", lambda f: span(write, f))

    closed = set()

    def count_bytes(args, path):
        if path not in closed:  # close() is idempotent; count once
            closed.add(path)
            r.count("setsystem.shards.bytes_written", _directory_bytes(path))

    meth(r, shards, "ShardWriter", "close",
         lambda f: span(write, f, after=count_bytes))
    for module, cls in ((shards, "ShardedRepository"),
                        ("repro.setsystem.deltas", "MergedShardView")):
        meth(r, module, cls, "decode_chunk",
             lambda f: span("setsystem.shards.decode", f))
        meth(r, module, cls, "scan_decoded",
             lambda f: span("setsystem.shards.scan", f))
        meth(r, module, cls, "scan_shard",
             lambda f: span("setsystem.shards.scan", f))

    # Reading an ops file: the CLI's loader and the script parser under it.
    fn(r, "repro.cli", "_load_delta_batches",
       lambda f: span("workloads.churn.load", f))
    meth(r, "repro.workloads.churn", "ChurnScript", "from_json",
         lambda f: span("workloads.churn.load", f))
    deltas = "repro.setsystem.deltas"
    fn(r, deltas, "apply_delta", lambda f: span("setsystem.deltas.apply", f))
    fn(r, deltas, "compact", lambda f: span("setsystem.deltas.compact", f))
    for name in ("fsync_file", "fsync_dir"):
        fn(r, "repro.setsystem.durability", name,
           lambda f: span("setsystem.durability.fsync", f))

    meth(r, "repro.setsystem.set_system", "SetSystem", "__init__",
         lambda f: r.counted("setsystem.set_system.builds", f))
    packed = importlib.import_module("repro.setsystem.packed")
    for cls in _subclasses(packed.BitmapKernel):
        if "to_indices" in vars(cls):
            _patch_own(r, cls, "to_indices",
                       lambda f: r.counted("setsystem.packed.to_indices_calls", f),
                       cls.__qualname__)

    _install_transport(r)

    merge = "repro.engine.merge"
    reorder = "engine.merge.reorder"
    meth(r, merge, "ReorderWindow", "push", lambda f: span(reorder, f))
    meth(r, merge, "ReorderWindow", "pop_ready",
         lambda f: r.iterated(reorder, f))
    fn(r, merge, "merge_scan_parts", lambda f: span(reorder, f))
    fn(r, merge, "simulate_accepts", lambda f: span(reorder, f))

    base = importlib.import_module("repro.offline.base")
    _patch_own(r, base.OfflineSolver, "solve_partial",
               lambda f: span("offline.solve", f), "OfflineSolver")
    importlib.import_module("repro.offline")
    for cls in _subclasses(base.OfflineSolver):
        if "solve" in vars(cls) and not getattr(
            vars(cls)["solve"], "__isabstractmethod__", False
        ):
            _patch_own(r, cls, "solve", lambda f: span("offline.solve", f),
                       cls.__qualname__)

    meth(r, "repro.core.iter_set_cover", "IterSetCover", "solve",
         lambda f: span("core.iter", f))
    meth(r, "repro.baselines.greedy_stream", "ThresholdGreedy", "solve",
         lambda f: span("baselines.threshold", f))
    meth(r, "repro.streaming.sharded", "ShardedSetStream", "close",
         lambda f: _snapshot_on_close(r, f))


def _install_transport(r: Recorder) -> None:
    base = importlib.import_module("repro.engine.transport.base")
    for module in ("serial", "thread", "process", "remote"):
        importlib.import_module(f"repro.engine.transport.{module}")

    def note_placement(args):
        ledger = getattr(args[0], "placement_ledger", None)
        if ledger is None:
            return
        delivered = r.gauges.setdefault("placement", {})
        for worker, row in ledger().items():
            delivered[worker] = delivered.get(worker, 0) + int(
                row.get("delivered", 0)
            )

    for cls in _subclasses(base.ScanExecutor):
        for attr in ("iter_scan_repository", "iter_accept_repository"):
            if attr in vars(cls):
                _patch_own(
                    r, cls, attr,
                    lambda f: r.iterated("engine.transport.wait", f,
                                         on_exhaust=note_placement),
                    cls.__qualname__,
                )

    remote = "repro.engine.transport.remote"
    for name in ("send_json", "send_bytes", "recv_json", "recv_bytes"):
        _patch_function(
            r, remote, name,
            lambda f: r.counted("engine.transport.remote.frames", f),
        )
    module = importlib.import_module(remote)
    header = getattr(getattr(module, "_FRAME_HEADER", None), "size", 0)
    _patch_function(
        r, remote, "_send_frame",
        lambda f: r.counted("engine.transport.remote.bytes", f,
                            amount=lambda args, _: header + len(args[2])),
    )
    _patch_function(
        r, remote, "_recv_frame",
        lambda f: r.counted("engine.transport.remote.bytes", f,
                            amount=lambda args, out: header + len(out[1])),
    )


def _snapshot_on_close(r: Recorder, close):
    """Read the stream's executor counters before the stream releases it."""

    @functools.wraps(close)
    def traced(stream):
        executor = getattr(stream, "_executor", None)
        if executor is not None:
            r.gauges["jobs"] = executor.jobs
            stats = executor.cache_stats or {}
            r.gauges["cache_hits"] = int(stats.get("hits", 0))
            r.gauges["cache_misses"] = int(stats.get("misses", 0))
            fault_log = getattr(executor, "fault_log", None)
            r.gauges["faults"] = len(fault_log.events) if fault_log else 0
        return close(stream)

    return traced


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <repro arguments...>",
              file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    started = time.perf_counter()
    cli = importlib.import_module("repro.cli")
    import_s = time.perf_counter() - started
    recorder = Recorder()
    install(recorder)
    begin = time.perf_counter()
    try:
        status = cli.main(command)
    finally:
        end = time.perf_counter()
        sys.stdout.flush()
        payload = recorder.dump()
        payload.update(import_s=import_s, command=[begin, end])
        with open(out_path, "w") as handle:
            json.dump(payload, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
