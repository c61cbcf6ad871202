"""The remote transport backend: parity, wire protocol, crash hygiene.

The contract under test (DESIGN.md §9): a two-worker localhost fleet
produces **bit-identical** covers, pass counts, captures and accounting
to the serial executor, at every encoding and planner setting — and a
worker that dies mid-batch surfaces as a loud ``RuntimeError`` with no
SharedMemory leak and no partial state (the remote twin of the
``REPRO_TEST_CRASH_SCAN`` regression test).

In-process :class:`~repro.engine.transport.remote.WorkerServer` threads
back the parity sweeps (cheap, no subprocess spawn); the crash tests use
real ``python -m repro worker serve`` subprocesses via
:func:`~repro.engine.transport.remote.spawn_local_worker`, because the
worker SIGKILLs itself mid-scan.
"""

from __future__ import annotations

import collections
import os
import socket
import threading

import numpy as np
import pytest

from repro.baselines import MultiPassGreedy, ThresholdGreedy
from repro.core import iter_set_cover
from repro.engine import (
    ChaosProxy,
    RemoteScanExecutor,
    RetryPolicy,
    WorkerServer,
    executor_for,
    resolve_workers,
    shutdown_pools,
)
from repro.engine.transport import remote as remote_mod
from repro.engine.transport.remote import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    manifest_token,
    recv_json,
    send_json,
    spawn_local_worker,
)
from repro.setsystem import SetSystem
from repro.setsystem.shards import write_shards
from repro.streaming import SetStream, ShardedSetStream

ENCODINGS_UNDER_TEST = ("dense", "auto")
PLANNER_UNDER_TEST = (True, False)


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def worker_fleet(tmp_path_factory):
    """Two in-process workers serving the whole pytest tmp tree."""
    root = tmp_path_factory.getbasetemp()
    servers = [WorkerServer(root).start(), WorkerServer(root).start()]
    yield [server.address for server in servers]
    for server in servers:
        server.stop()


def _random_system(rng: np.random.Generator) -> SetSystem:
    n = int(rng.integers(1, 50))
    m = int(rng.integers(1, 30))
    sets = []
    for _ in range(m):
        size = int(rng.integers(0, n + 1))
        sets.append(rng.choice(n, size=size, replace=False).tolist())
    return SetSystem(n, sets)


def _fingerprint(result, stream):
    return (
        result.selection,
        result.passes,
        result.feasible,
        result.peak_memory_words,
        stream.resident_words,
    )


# ----------------------------------------------------------------------
# Knob resolution and executor construction
# ----------------------------------------------------------------------
def test_resolve_workers_validation():
    assert resolve_workers("a:1,b:2") == [("a", 1), ("b", 2)]
    assert resolve_workers(" a:1 , b:2 ") == [("a", 1), ("b", 2)]
    assert resolve_workers(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
    for bad in (None, "", "a", ":80", "a:", "a:0", "a:-1", "a:65536",
                "a:http", "a:1,,b:2", [("a",)], [("a", "x")]):
        # The message names the CLI flag that feeds this knob.
        with pytest.raises(ValueError, match="--workers"):
            resolve_workers(bad)


def test_executor_for_builds_remote():
    executor = executor_for(workers="h:1,h:2")
    assert isinstance(executor, RemoteScanExecutor)
    assert executor.transport == "remote"
    assert executor.jobs == 2  # one lane per worker
    assert executor_for(workers="h:1", planner=False).planner is False
    assert isinstance(
        executor_for(transport="remote", workers=[("h", 1)]),
        RemoteScanExecutor,
    )
    with pytest.raises(ValueError, match="workers"):
        executor_for(transport="remote")
    with pytest.raises(ValueError, match="--workers"):
        executor_for(workers="nonsense")
    # Workers must never be silently dropped for a local family.
    for transport in ("local", "serial", "thread", "process"):
        with pytest.raises(ValueError, match="transport='remote'"):
            executor_for(2, transport=transport, workers="h:1")
    # ... and an explicit jobs count must never be silently dropped for
    # the remote family (parallelism there is one lane per worker).
    with pytest.raises(ValueError, match="one lane per"):
        executor_for(8, workers="h:1,h:2")
    assert executor_for("auto", workers="h:1,h:2").jobs == 2


def test_remote_refuses_in_memory_chunk_scans(worker_fleet):
    """Path-based transports refuse an in-memory family at construction."""
    system = SetSystem(8, [[0, 1], [2]])
    with pytest.raises(ValueError, match="shard repositories only"):
        SetStream(system, transport="remote", workers=worker_fleet)
    with pytest.raises(ValueError, match="shard repositories only"):
        SetStream(system, transport="process", jobs=2)


# ----------------------------------------------------------------------
# Scan- and algorithm-level parity: the acceptance property test
# ----------------------------------------------------------------------
def test_remote_scan_gains_match_serial(tmp_path, worker_fleet):
    rng = np.random.default_rng(101)
    for case in range(15):
        system = _random_system(rng)
        mask_int = sum(1 << e for e in range(0, system.n, 2)) | 1
        for encoding in ENCODINGS_UNDER_TEST:
            path = write_shards(tmp_path / f"g{case}-{encoding}", system,
                                chunk_rows=int(rng.integers(1, 6)),
                                encoding=encoding)
            serial = ShardedSetStream(path, jobs=1)
            reference = serial.scan_gains(mask_int, min_capture_gain=1)
            serial.close()
            for planner in PLANNER_UNDER_TEST:
                stream = ShardedSetStream(
                    path, transport="remote", workers=worker_fleet,
                    planner=planner,
                )
                scan = stream.scan_gains(mask_int, min_capture_gain=1)
                assert [int(g) for g in scan.gains] == [
                    int(g) for g in reference.gains
                ], (case, encoding, planner)
                assert scan.captured == reference.captured
                assert stream.passes == 1
                stream.close()


def test_remote_algorithm_parity_on_random_instances(tmp_path, worker_fleet):
    """Covers/passes/accounting: remote == serial, the §9 guarantee."""
    rng = np.random.default_rng(103)
    algorithms = [
        ("threshold", lambda stream: ThresholdGreedy().solve(stream)),
        ("multipass", lambda stream: MultiPassGreedy(max_passes=4).solve(stream)),
        (
            "iter",
            lambda stream: iter_set_cover(
                stream, delta=0.5, seed=13,
                use_polylog_factors=False, include_rho=False,
            ),
        ),
    ]
    for case in range(20):
        system = _random_system(rng)
        chunk_rows = int(rng.integers(1, 6))
        encoding = ENCODINGS_UNDER_TEST[case % 2]
        path = write_shards(tmp_path / f"a{case}", system,
                            chunk_rows=chunk_rows, encoding=encoding)
        algo_name, run = algorithms[case % len(algorithms)]
        serial_stream = ShardedSetStream(path, jobs=1)
        reference = _fingerprint(run(serial_stream), serial_stream)
        serial_stream.close()
        planner = PLANNER_UNDER_TEST[case % 2]
        stream = ShardedSetStream(path, transport="remote",
                                  workers=worker_fleet, planner=planner)
        fingerprint = _fingerprint(run(stream), stream)
        assert fingerprint == reference, (case, algo_name, encoding, planner)
        stream.close()


def test_remote_accepts_fuse_worker_side(tmp_path, worker_fleet):
    """scan_accepts_chunked ships the simulation to remote workers."""
    system = SetSystem(8, [[0, 1, 2], [2, 3], [4, 5, 6, 7], [0]])
    path = write_shards(tmp_path / "acc", system, chunk_rows=2)
    serial = list(ShardedSetStream(path, jobs=1).scan_accepts_chunked(
        (1 << 8) - 1, 2
    ))
    remote = list(
        ShardedSetStream(path, transport="remote", workers=worker_fleet)
        .scan_accepts_chunked((1 << 8) - 1, 2)
    )
    assert len(remote) == len(serial) == 2
    for (s_start, s_cap, s_batch), (r_start, r_cap, r_batch) in zip(
        serial, remote
    ):
        assert (r_start, r_cap) == (s_start, s_cap)
        assert (r_batch.ids, r_batch.removed, r_batch.touched) == (
            s_batch.ids, s_batch.removed, s_batch.touched,
        )


def test_remote_single_worker_and_abandoned_scan(tmp_path, worker_fleet):
    """One worker serves everything; an abandoned pass leaves no wreckage."""
    system = SetSystem(16, [[i % 16] for i in range(20)])
    path = write_shards(tmp_path / "one", system, chunk_rows=2)
    stream = ShardedSetStream(path, transport="remote",
                              workers=worker_fleet[:1])
    parts = stream.scan_gains_chunked((1 << 16) - 1)
    next(parts)
    parts.close()  # abandon mid-pass
    assert stream.passes == 1
    full = stream.scan_gains((1 << 16) - 1)
    assert len(full.gains) == 20
    stream.close()


# ----------------------------------------------------------------------
# Wire-protocol failure modes
# ----------------------------------------------------------------------
def test_manifest_token_mismatch_is_refused(tmp_path, worker_fleet):
    """A worker never scans a repository whose manifest content differs
    from what the driver's token promises (a stale or divergent mount)."""
    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "tok", system)
    stale = manifest_token(path)
    stale = [stale[0] + 1, stale[1] ^ 0xDEAD]  # a token from "elsewhere"
    host, port = worker_fleet[0]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_json(sock)["op"] == "hello"
        send_json(sock, {
            "op": "scan", "path": str(path), "token": stale, "n": 8,
            "shards": [0], "min_capture_gain": None, "capture_ids": None,
            "best_only": False, "include_gains": True,
            "accept_threshold": None,
        })
        from repro.engine.transport.remote import send_bytes

        send_bytes(sock, (255).to_bytes(1, "little"))  # the mask frame
        reply = recv_json(sock)
        assert reply["op"] == "error"
        assert "token mismatch" in reply["message"]
    # The full driver path reports the same failure loudly.
    stream = ShardedSetStream(path, transport="remote", workers=worker_fleet)
    real = stream.scan_gains((1 << 8) - 1)  # sanity: matching token works
    assert len(real.gains) == 2
    stream.close()


def test_paths_outside_worker_root_are_rejected(tmp_path):
    system = SetSystem(8, [[0, 1], [2, 3]])
    inside = tmp_path / "root"
    inside.mkdir()
    outside = write_shards(tmp_path / "outside", system)
    with WorkerServer(inside) as server:
        server.start()
        stream = ShardedSetStream(outside, transport="remote",
                                  workers=[server.address])
        with pytest.raises(RuntimeError, match="outside the serving root"):
            stream.scan_gains((1 << 8) - 1)
        stream.close()


def test_protocol_version_mismatch_is_loud(worker_fleet):
    host, port = worker_fleet[0]
    # A driver older than the worker's floor is refused loudly.
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": MIN_PROTOCOL_VERSION - 1})
        reply = recv_json(sock)
        assert reply["op"] == "error"
        assert "protocol mismatch" in reply["message"]


def test_protocol_version_negotiates_down(worker_fleet):
    host, port = worker_fleet[0]
    # A *newer* driver is not refused: the worker echoes the newest
    # version it speaks and both sides proceed at that version.
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION + 1})
        reply = recv_json(sock)
        assert reply["op"] == "hello"
        assert reply["protocol"] == PROTOCOL_VERSION
    # An old-protocol driver gets old-protocol replies: no hot/cache
    # fields ride the wire at the negotiated floor version.
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": MIN_PROTOCOL_VERSION})
        reply = recv_json(sock)
        assert reply["op"] == "hello"
        assert reply["protocol"] == MIN_PROTOCOL_VERSION
        send_json(sock, {"op": "ping"})
        pong = recv_json(sock)
        assert pong["op"] == "pong"
        assert "cache" not in pong


def test_ping_pong(worker_fleet):
    host, port = worker_fleet[0]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_json(sock)["op"] == "hello"
        send_json(sock, {"op": "ping"})
        assert recv_json(sock)["op"] == "pong"


def test_unreachable_worker_fails_before_any_request(tmp_path):
    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "unreach", system)
    # Grab a port that is certainly closed by binding and releasing it.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    stream = ShardedSetStream(
        path, transport="remote", workers=[("127.0.0.1", dead_port)]
    )
    with pytest.raises(RuntimeError, match="cannot reach remote worker"):
        stream.scan_gains((1 << 8) - 1)
    stream.close()


# ----------------------------------------------------------------------
# Crash hygiene: a worker killed mid-batch is loud, leak-free, recoverable
# ----------------------------------------------------------------------
def test_worker_crash_mid_batch_is_loud_and_leak_free(tmp_path):
    """The remote twin of the REPRO_TEST_CRASH_SCAN regression test.

    A real subprocess worker SIGKILLs itself after its first shard
    result; the driver must raise a RuntimeError naming the worker (not
    hang, not return a short scan), leave /dev/shm clean, and a fresh
    worker must serve the same repository immediately afterwards.
    """
    system = SetSystem(64, [[i % 64, (i * 3) % 64] for i in range(30)])
    path = write_shards(tmp_path / "crash", system, chunk_rows=4)
    mask_int = (1 << 64) - 1
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()

    process, address = spawn_local_worker(
        tmp_path, extra_env={remote_mod._CRASH_TEST_ENV: "1"}
    )
    try:
        stream = ShardedSetStream(path, transport="remote", workers=[address])
        with pytest.raises(RuntimeError, match="remote worker .* failed"):
            stream.scan_gains(mask_int)
        stream.close()
    finally:
        process.terminate()
        process.wait(timeout=10)

    if os.path.isdir(shm_dir):  # no leaked SharedMemory segments
        leaked = {
            entry for entry in set(os.listdir(shm_dir)) - before
            if entry.startswith("psm_")
        }
        assert not leaked, leaked

    # No partial state anywhere: a fresh worker reproduces the serial scan.
    process, address = spawn_local_worker(tmp_path)
    try:
        recovered = ShardedSetStream(path, transport="remote",
                                     workers=[address])
        serial = ShardedSetStream(path, jobs=1)
        assert (
            [int(g) for g in recovered.scan_gains(mask_int).gains]
            == [int(g) for g in serial.scan_gains(mask_int).gains]
        )
        recovered.close()
        serial.close()
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_spawned_worker_round_trip(tmp_path):
    """The subprocess worker (the CLI path) serves a real solve."""
    system = SetSystem(24, [[i % 24, (i * 5) % 24] for i in range(18)])
    path = write_shards(tmp_path / "spawn", system, chunk_rows=3)
    reference = ThresholdGreedy().solve(ShardedSetStream(path, jobs=1))
    process, address = spawn_local_worker(tmp_path)
    try:
        stream = ShardedSetStream(path, transport="remote", workers=[address])
        result = ThresholdGreedy().solve(stream)
        assert result.selection == reference.selection
        assert result.passes == reference.passes
        assert result.peak_memory_words == reference.peak_memory_words
        stream.close()
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_repo_cache_eviction_defers_while_busy(tmp_path):
    """Evicting a repository a scan still holds must not close its mmaps.

    The server's cache may be asked to drop an entry (same-path rewrite,
    LRU overflow) while another connection thread is mid-scan on it;
    the close must defer to the last release (regression for the
    use-after-close race)."""
    from repro.setsystem.shards import ShardFormatError

    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "busy", system)
    server = WorkerServer(tmp_path)
    try:
        token = manifest_token(path)
        key, repo = server._open_repository(str(path), token)  # refs = 1
        with server._repo_lock:
            server._evict_locked(key)  # busy: doomed, NOT closed
        assert repo.row_mask(0) == 0b11  # still scannable
        server._release_repository(key)  # last holder gone: now closed
        with pytest.raises(ShardFormatError, match="closed"):
            repo.row_mask(0)

        # A cache hit on a doomed-but-busy entry revives it: the entry
        # is hot again, so draining to zero holders keeps it cached.
        key, repo = server._open_repository(str(path), token)
        with server._repo_lock:
            server._evict_locked(key)
        key2, repo2 = server._open_repository(str(path), token)
        assert key2 == key and repo2 is repo
        server._release_repository(key)
        server._release_repository(key)
        assert repo.row_mask(1) == 0b1100  # revived: stays open, cached

        # Idle eviction closes immediately.
        with server._repo_lock:
            server._evict_locked(key)
        with pytest.raises(ShardFormatError, match="closed"):
            repo.row_mask(0)
    finally:
        server.stop()


def test_manifest_token_is_content_keyed(tmp_path):
    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "t1", system)
    token = manifest_token(path)
    assert token == manifest_token(path)  # stable
    other = write_shards(tmp_path / "t2", SetSystem(8, [[0], [1, 2, 3]]))
    assert token != manifest_token(other)


# ----------------------------------------------------------------------
# Stale repositories: typed wire error, precise eviction, driver salvage
# ----------------------------------------------------------------------
def _churn_and_fold(path):
    """Land one delta and fold it, rewriting the base manifest."""
    from repro.setsystem.deltas import apply_delta, compact

    apply_delta(path, [{"op": "insert", "elements": [0, 1]}])
    compact(path)


def test_stale_repository_error_is_typed_and_keeps_connection(
    tmp_path, worker_fleet
):
    """A cold worker whose disk moved past the driver's token reports the
    typed retriable ``stale-repository`` error — and keeps the
    connection, because the repository moved, not the worker failed."""
    from repro.engine.transport.remote import send_bytes

    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "stale-wire", system)
    old = manifest_token(path)
    _churn_and_fold(path)
    assert manifest_token(path) != old
    host, port = worker_fleet[0]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_json(sock)["op"] == "hello"
        send_json(sock, {
            "op": "scan", "path": str(path), "token": list(old), "n": 8,
            "shards": [0], "min_capture_gain": None, "capture_ids": None,
            "best_only": False, "include_gains": True,
            "accept_threshold": None,
        })
        send_bytes(sock, (255).to_bytes(1, "little"))  # the mask frame
        reply = recv_json(sock)
        assert reply["op"] == "error"
        assert reply["kind"] == "stale-repository"
        assert "rewritten" in reply["message"]
        # The connection survived the typed error: the worker still
        # serves, and its pong carries the eviction counters.
        send_json(sock, {"op": "ping"})
        pong = recv_json(sock)
        assert pong["op"] == "pong"
        assert set(pong["evictions"]) == {"stale", "overflow"}


def test_worker_cache_eviction_is_precise_and_counted(tmp_path):
    """Opening a path's *new* generation sweeps exactly the superseded
    cache entries for that path — never unrelated repositories — and
    every eviction is counted by cause."""
    from repro.engine import StaleRepositoryError

    path_a = write_shards(tmp_path / "gen-a", SetSystem(8, [[0, 1], [2, 3]]))
    path_b = write_shards(tmp_path / "gen-b", SetSystem(8, [[4, 5], [6, 7]]))
    server = WorkerServer(tmp_path)
    try:
        token_a = manifest_token(path_a)
        token_b = manifest_token(path_b)
        key_a, _ = server._open_repository(str(path_a), token_a)
        key_b, _ = server._open_repository(str(path_b), token_b)
        server._release_repository(key_a)
        server._release_repository(key_b)

        # A token matching neither the cache nor the disk is the typed
        # stale error — and evicts nothing (the cached generation may
        # still be serving another driver).
        with pytest.raises(StaleRepositoryError, match="rewritten"):
            server._open_repository(
                str(path_a), [token_a[0] + 1, token_a[1] ^ 1]
            )
        assert server._evictions == {"stale": 0, "overflow": 0}
        assert key_a in server._repos and key_b in server._repos

        _churn_and_fold(path_a)
        token_a2 = manifest_token(path_a)
        assert token_a2 != token_a
        # Warm cache: the superseded generation is still served on a
        # cache hit (the driver that opened it must finish its scan on
        # exactly those bits).
        key_hit, _ = server._open_repository(str(path_a), token_a)
        assert key_hit == key_a
        server._release_repository(key_hit)
        assert server._evictions["stale"] == 0

        # First sight of the NEW generation sweeps the old entry for
        # this path — and only this path.
        key_a2, _ = server._open_repository(str(path_a), token_a2)
        assert key_a2 != key_a
        assert server._evictions == {"stale": 1, "overflow": 0}
        assert key_a not in server._repos
        assert key_b in server._repos  # unrelated repository untouched
        server._release_repository(key_a2)
    finally:
        server.stop()


def test_driver_salvages_when_every_worker_reports_stale(tmp_path):
    """An online compaction lands mid-stream: cold workers report the
    typed stale error for the driver's generation, and the driver
    salvages the scan through its own open handle — bit-identically to
    the generation it opened, with the whole episode in the fault log."""
    from repro.setsystem.deltas import apply_delta, compact

    system = SetSystem(32, [[i % 32, (i * 7) % 32] for i in range(24)])
    path = write_shards(tmp_path / "salvage", system, chunk_rows=3)
    mask_int = (1 << 32) - 1
    servers = [WorkerServer(tmp_path).start(), WorkerServer(tmp_path).start()]
    try:
        stream = ShardedSetStream(
            path, transport="remote",
            workers=[server.address for server in servers],
        )
        baseline = [int(g) for g in stream.scan_gains(mask_int).gains]
        serial = ShardedSetStream(path, jobs=1)
        assert baseline == [
            int(g) for g in serial.scan_gains(mask_int).gains
        ]
        serial.close()

        # The repository moves underneath the open stream...
        apply_delta(path, [{"op": "insert", "elements": [0, 1, 2]},
                           {"op": "delete", "id": 3}])
        compact(path, online=True)
        # ...and the workers lose their cached copy of the old family,
        # so the driver's token can no longer be served remotely at all.
        for server in servers:
            with server._repo_lock:
                for key in list(server._repos):
                    server._evict_locked(key)

        again = [int(g) for g in stream.scan_gains(mask_int).gains]
        assert again == baseline  # the opened generation, bit-for-bit
        kinds = {event.kind for event in stream.fault_log.events}
        assert "stale-repository" in kinds
        assert "stale-salvage" in kinds
        stream.close()
    finally:
        for server in servers:
            server.stop()


class TestThroughputPlacement:
    """The EWMA placement model (DESIGN.md §14.2), without sockets.

    ``_place_batches`` is pure given the health table, so the model is
    pinned directly: cold fleets place deterministically and balanced,
    observed throughput shifts load to fast lanes, and cache affinity
    discounts a batch's cost at its home worker.  The end-to-end skew
    (a delay-proxied worker delivering fewer shards) is asserted by the
    chaos-smoke CI job on the placement ledger.
    """

    def _executor(self):
        return RemoteScanExecutor(["a:1", "b:2"])

    def _batches(self, costs):
        from repro.engine.transport.remote import _Batch

        shards = 0
        batches = []
        for index, cost in enumerate(costs):
            batches.append(_Batch(index, [shards], cost=cost))
            shards += 1
        return batches

    def _load(self, assignment, batches):
        load: dict = {}
        for batch in batches:
            worker = assignment[batch.index]
            load[worker] = load.get(worker, 0) + batch.cost
        return load

    def test_cold_fleet_is_deterministic_and_balanced(self):
        executor = self._executor()
        batches = self._batches([8, 7, 5, 4, 2, 1])
        first = executor._place_batches(batches, executor.workers, None)
        assert first == executor._place_batches(
            batches, executor.workers, None
        )
        load = self._load(first, batches)
        # LPT over equal (fleet-average) rates: 8+4+1 vs 7+5+2.
        assert sorted(load.values()) == [13, 14]

    def test_observed_throughput_shifts_load(self):
        executor = self._executor()
        fast, slow = executor.workers
        # Same elapsed wall-clock, 4x the delivered units.
        executor._note_throughput(fast, 400, 1.0)
        executor._note_throughput(slow, 100, 1.0)
        batches = self._batches([8, 7, 5, 4, 2, 1])
        assignment = executor._place_batches(
            batches, executor.workers, None
        )
        load = self._load(assignment, batches)
        assert load[fast] > load[slow]
        # The 4x lane should carry roughly 4/5 of the total cost.
        assert load[fast] >= 20

    def test_cache_affinity_discounts_the_home_worker(self):
        executor = self._executor()
        home, other = executor.workers
        key = ("/repo", (1, 2))
        # Every shard's last delivery came hot from ``home``.
        executor._affinity = (key, {shard: home for shard in range(4)})
        batches = self._batches([4, 4, 4, 4])
        with_affinity = self._load(
            executor._place_batches(batches, executor.workers, key), batches
        )
        stale_key = ("/repo", (9, 9))
        without = self._load(
            executor._place_batches(
                batches, executor.workers, stale_key
            ),
            batches,
        )
        # A different scan's affinity map must not leak in: the stale
        # key splits the equal-cost batches evenly...
        assert sorted(without.values()) == [8, 8]
        # ...while the matching key leans on the warm lane (discounted
        # cost makes home's projected finish earlier at equal load).
        assert with_affinity.get(home, 0) > with_affinity.get(other, 0)


# ----------------------------------------------------------------------
# Latency: no Nagle on any transport socket, lanes that wake on events
# ----------------------------------------------------------------------
def _nodelay_on(sock) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_transport_sockets_disable_nagle(tmp_path):
    """Driver, worker and both chaos-proxy legs all set TCP_NODELAY.

    Small frames written back to back would otherwise each wait for the
    peer's delayed ACK — a fixed stall per pass (DESIGN.md §16).
    """
    server = WorkerServer(tmp_path)
    accepted = []
    serve = server._serve_connection

    def spy(conn):
        accepted.append(conn)
        serve(conn)

    server._serve_connection = spy
    server.start()
    try:
        sock, hello = remote_mod._connect(server.address)
        try:
            assert hello["op"] == "hello"
            assert _nodelay_on(sock)
            # The worker set the option before it answered the hello.
            assert len(accepted) == 1 and _nodelay_on(accepted[0])
        finally:
            sock.close()
        with ChaosProxy(server.address, mode="delay", delay=0.0) as proxy:
            sock, _ = remote_mod._connect(proxy.address)
            try:
                with proxy._lock:
                    legs = list(proxy._live)
                assert len(legs) == 2
                assert all(_nodelay_on(leg) for leg in legs)
            finally:
                sock.close()
    finally:
        server.stop()


class TestScanStateWakeups:
    """``_ScanState.take`` blocks without polling; each event wakes it.

    The blocked thread passes no timeout (heartbeat disabled), so only a
    notification can return it.  Each trigger runs only once the thread
    is inside ``Condition.wait`` — the spy below signals that while the
    lock is still held, so no wake-up can be lost to a race.
    """

    def _state(self, batches=1, assignment=None):
        batch_list = [remote_mod._Batch(i, [i]) for i in range(batches)]
        state = remote_mod._ScanState(batches, batch_list, assignment)
        state.roster = {"lane", "peer"}
        return state, batch_list

    def _blocked_take(self, state, worker="lane"):
        waiting = threading.Event()
        wait = state._cond.wait

        def spy(timeout=None):
            waiting.set()
            return wait(timeout)

        state._cond.wait = spy
        out = []
        thread = threading.Thread(
            target=lambda: out.append(state.take(worker)), daemon=True
        )
        thread.start()
        assert waiting.wait(timeout=10)
        return thread, out

    def _joined(self, thread):
        thread.join(timeout=10)
        return not thread.is_alive()

    @pytest.mark.parametrize("trigger, expected", [
        ("batch_done", None),   # the last batch finishes the scan
        ("stop", None),         # the driver ends the scan
        ("requeue", "batch"),   # a faulted peer hands the batch back
    ])
    def test_event_wakes_an_idle_lane(self, trigger, expected):
        state, (batch,) = self._state()
        assert state.take("peer") is batch
        thread, out = self._blocked_take(state)
        if trigger == "stop":
            state.stop()
        else:
            getattr(state, trigger)(batch)
        assert self._joined(thread)
        assert out == [batch if expected == "batch" else None]
        assert state.finished() == (trigger == "batch_done")

    def test_peer_exit_spill_wakes_an_idle_lane(self):
        state, (first, second) = self._state(2)
        assert state.take("peer") is first
        assert state.take("peer") is second
        thread, out = self._blocked_take(state)
        # Work lands in the exiting peer's deque without a notification
        # (as if dealt to it before it died); only its spill may wake us.
        with state._cond:
            state._local["peer"] = collections.deque([second])
        state.note_exit("peer")
        assert self._joined(thread)
        assert out == [second]

    def test_stale_batch_is_never_handed_back(self):
        state, (batch,) = self._state()
        assert state.take("lane") is batch
        assert state.mark_stale(batch, "lane") is False  # peer still may
        assert state.take("lane", timeout=0) is None
        assert state.take("peer", timeout=0) is batch
        # The peer reports stale too: quorum, so the driver salvages it.
        assert state.mark_stale(batch, "peer") is True
        assert state.results.get_nowait() == ("stale", batch)

    def test_exit_completes_the_stale_quorum_of_a_queued_batch(self):
        state, (batch,) = self._state()
        assert state.take("lane") is batch
        # The report requeues in the same locked step, so the one lane
        # that could still serve the batch may exit right after it: the
        # remaining lane never gets the batch back, the driver salvages it.
        assert state.mark_stale(batch, "lane") is False
        state.note_exit("peer")
        assert state.results.get_nowait() == ("stale", batch)
        assert state.take("lane", timeout=0) is None

    def test_peer_exit_right_after_a_lane_stale_report_salvages(
        self, monkeypatch,
    ):
        """A real lane reports its batch stale and the only other lane
        exits the instant ``mark_stale`` returns — before the lane does
        anything else.  The driver must still get the batch to salvage;
        a requeue issued after the report would land after the peer's
        quorum re-check and leave the scan waiting forever."""
        worker = ("127.0.0.1", 9)  # never dialled: no retries, no pings
        state, (batch,) = self._state()
        state.roster = {worker, "peer"}
        executor = RemoteScanExecutor([worker], retry=RetryPolicy(attempts=1))
        lane = remote_mod._WorkerLane(
            executor, worker, state, {}, b"\x00", None, True,
        )

        def stale(todo):
            raise remote_mod._LaneFault("stale-repository", "compacted")

        monkeypatch.setattr(lane, "_run_batch", stale)
        mark_stale = state.mark_stale

        def then_peer_exits(*args):
            salvaged = mark_stale(*args)
            state.note_exit("peer")
            return salvaged

        monkeypatch.setattr(state, "mark_stale", then_peer_exits)
        lane.start()
        assert state.results.get(timeout=10) == ("stale", batch)
        state.batch_done(batch)  # the driver's local salvage
        assert self._joined(lane)
        assert state.results.get_nowait() == ("lane_exit", worker)
