"""Transport backends for the scan engine.

One module per execution substrate, all implementing the
:class:`~repro.engine.transport.base.ScanExecutor` protocol:

========= ======================================================= ==========
backend   substrate                                               module
========= ======================================================= ==========
serial    inline, with optional prefetch/decode-ahead pipeline    serial.py
thread    shared thread pool: in-memory repositories, offline     thread.py
process   shared local process pool, worker-owned ``mmap``        process.py
remote    TCP worker fleet (``python -m repro worker serve``)     remote.py
========= ======================================================= ==========

Every backend scans a repository through the one
:meth:`~repro.engine.transport.base.ScanExecutor.iter_scan_repository`
primitive.  The process and remote backends re-open it by path in their
workers, so in-memory repositories (which have none) scan serially or
on threads.

:func:`executor_for` picks the backend a ``jobs`` / ``transport`` /
``workers`` knob combination asks for; :func:`shutdown_pools` reaps
every shared pool (tests and interpreter exit).  All backends share the
plan (:mod:`repro.engine.plan`) and merge (:mod:`repro.engine.merge`)
layers, which is why a new backend is a one-file addition and results
are bit-identical across all of them.
"""

from __future__ import annotations

import atexit

from repro.engine.plan import JOBS_AUTO, resolve_jobs
from repro.engine.transport.base import ScanExecutor
from repro.engine.transport.process import (
    ProcessScanExecutor,
    _shutdown_process_pools,
)
from repro.engine.transport.remote import (
    RemoteScanExecutor,
    StaleRepositoryError,
    WorkerFaultError,
    WorkerServer,
    ping_worker,
    spawn_local_worker,
)
from repro.engine.transport.serial import (
    SerialScanExecutor,
    _shutdown_prefetch_pool,
)
from repro.engine.transport.thread import (
    ThreadScanExecutor,
    _shutdown_thread_pools,
    thread_map,
)

__all__ = [
    "ProcessScanExecutor",
    "RemoteScanExecutor",
    "StaleRepositoryError",
    "ScanExecutor",
    "SerialScanExecutor",
    "ThreadScanExecutor",
    "TRANSPORTS",
    "WorkerFaultError",
    "WorkerServer",
    "executor_for",
    "ping_worker",
    "shutdown_pools",
    "spawn_local_worker",
    "thread_map",
]

#: The transport families :func:`executor_for` accepts.  ``"local"``
#: (and ``None``) picks serial-or-process from the resolved ``jobs``
#: count — the pre-engine behaviour, and the CLI's default.
TRANSPORTS = ("local", "serial", "thread", "process", "remote")


def executor_for(
    jobs=JOBS_AUTO,
    *,
    repository_words: int = 0,
    planner: bool = True,
    transport: "str | None" = None,
    workers=None,
    retry=None,
) -> ScanExecutor:
    """Build the executor a knob combination asks for.

    ``transport`` picks the backend family (:data:`TRANSPORTS`);
    ``None`` or ``"local"`` resolves ``jobs`` and picks serial
    (``jobs == 1``) or the process pool, exactly as before the engine
    existed.  ``workers`` with ``transport`` omitted implies
    ``"remote"``; combined with any explicit non-remote family it is a
    ``ValueError`` (silently scanning locally while the caller believes
    a fleet is working would be worse).  ``thread`` and ``process``
    degrade to the serial executor when ``jobs`` resolves to 1 (a
    one-lane pool is pure overhead).
    ``planner`` toggles the adaptive schedule (cost-balanced batches,
    prefetch pipeline) on every backend; ``retry`` (anything
    :meth:`repro.engine.fault.RetryPolicy.resolve` accepts) sets the
    remote transport's failure handling and errors on every other
    backend — local faults are crashes, not retriable events.  Results
    never depend on any of these knobs.

    >>> executor_for(1).jobs
    1
    >>> executor_for(3).jobs
    3
    >>> executor_for(2, transport="thread").transport
    'thread'
    >>> executor_for(workers="127.0.0.1:9041").transport
    'remote'
    """
    if workers is not None and transport is None:
        transport = "remote"
    if transport == "remote":
        if workers is None:
            raise ValueError(
                "transport 'remote' needs workers (the --workers flag "
                "supplies host:port pairs)"
            )
        if jobs not in (None, JOBS_AUTO):
            # Same policy as dropped workers below: a knob that cannot
            # take effect must error, not silently mean something else.
            raise ValueError(
                f"jobs does not apply to the remote transport (got "
                f"jobs={jobs!r}); parallelism is one lane per --workers "
                "entry"
            )
        return RemoteScanExecutor(workers, planner=planner, retry=retry)
    if retry is not None:
        # A retry policy that cannot take effect must error: only the
        # remote transport has recoverable faults to apply it to.
        raise ValueError(
            f"retry only applies with transport='remote', got "
            f"transport={transport!r} (the --retry-* flags pair with "
            "--workers the same way)"
        )
    if workers is not None:
        # Dropping a worker list silently would run every scan locally
        # while the caller believes a fleet is doing the work.
        raise ValueError(
            f"workers only apply with transport='remote', got "
            f"transport={transport!r} (the --transport/--workers flags "
            "pair the same way)"
        )
    if transport not in (None, "local", "serial", "thread", "process"):
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS} "
            "(the --transport flag takes the same values)"
        )
    count = resolve_jobs(jobs, repository_words=repository_words)
    if transport == "serial":
        if jobs not in (None, JOBS_AUTO) and count != 1:
            raise ValueError(
                f"jobs does not apply to the serial transport (got "
                f"jobs={jobs!r}); use transport='thread' or 'process' "
                "for parallel lanes"
            )
        return SerialScanExecutor(prefetch=planner)
    if count == 1:
        return SerialScanExecutor(prefetch=planner)
    if transport == "thread":
        return ThreadScanExecutor(count)
    return ProcessScanExecutor(count, planner=planner)


def shutdown_pools() -> None:
    """Shut down every cached pool (tests and interpreter exit)."""
    _shutdown_process_pools()
    _shutdown_thread_pools()
    _shutdown_prefetch_pool()


atexit.register(shutdown_pools)
