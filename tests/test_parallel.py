"""The local scan-engine backends: jobs x encoding x planner parity, SHM.

The contract under test (DESIGN.md §6, §8, §9.2): for every algorithm,
every repository encoding, every ``jobs`` setting, every transport
backend and planner on/off, covers, pass counts and the resident-buffer
accounting are **bit-identical** — the engine (and its adaptive
schedule) is an execution detail, never an observable one.  Crash
hygiene is part of the contract: a worker dying mid-scan must fail
loudly, leak no SharedMemory, and leave the pool machinery able to
serve the next scan.  The remote backend's half of the contract lives
in ``tests/test_remote.py``.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.baselines import MultiPassGreedy, ThresholdGreedy
from repro.bench import SCALES, build_instance
from repro.core import IterSetCoverConfig, iter_set_cover
from repro.engine import (
    ProcessScanExecutor,
    SerialScanExecutor,
    ThreadScanExecutor,
    executor_for,
    plan_batches,
    resolve_jobs,
    shutdown_pools,
    simulate_accepts,
)
from repro.engine.transport import process as process_mod
from repro.engine.transport import serial as serial_mod
from repro.partial.streaming import PartialIterSetCover
from repro.setsystem import SetSystem
from repro.setsystem.shards import write_shards
from repro.streaming import SetStream, ShardedSetStream

ENCODINGS_UNDER_TEST = ("dense", "auto")
JOBS_UNDER_TEST = (1, 2, 4)
PLANNER_UNDER_TEST = (True, False)
#: The local transport families swept by the parity property tests (the
#: remote family is swept in tests/test_remote.py, which owns workers).
LOCAL_TRANSPORTS = (None, "thread")


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_pools()


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
# Knob resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_validation():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs("4") == 4  # CLI plumbing
    assert resolve_jobs("auto", repository_words=0) == 1
    assert resolve_jobs(None) == resolve_jobs("auto")
    for bad in (0, -1, "zero", 1.5, "many"):
        # The message names the CLI flag that feeds this knob.
        with pytest.raises(ValueError, match="--jobs"):
            resolve_jobs(bad)


def test_executor_for_picks_backend():
    assert isinstance(executor_for(1), SerialScanExecutor)
    executor = executor_for(3)
    assert isinstance(executor, ProcessScanExecutor)
    assert executor.jobs == 3
    assert executor.planner
    assert not executor_for(3, planner=False).planner
    assert executor_for(1, planner=True).prefetch
    assert not executor_for(1, planner=False).prefetch
    with pytest.raises(ValueError):
        ProcessScanExecutor(1)
    with pytest.raises(ValueError):
        ThreadScanExecutor(1)


def test_executor_for_transport_dispatch():
    """The transport knob picks the backend family; jobs sizes it."""
    assert executor_for(2, transport="thread").transport == "thread"
    assert executor_for(2, transport="process").transport == "process"
    assert executor_for(1, transport="serial").transport == "serial"
    assert executor_for("auto", transport="serial").transport == "serial"
    # A jobs count that cannot take effect errors instead of silently
    # meaning one lane (same policy as workers with a local family).
    with pytest.raises(ValueError, match="serial transport"):
        executor_for(4, transport="serial")
    with pytest.raises(ValueError, match="--jobs"):
        executor_for(0, transport="serial")  # still validated
    # One-lane pools are pure overhead: thread/process degrade to serial.
    assert isinstance(executor_for(1, transport="thread"), SerialScanExecutor)
    assert isinstance(executor_for(1, transport="process"), SerialScanExecutor)
    # local (and None) keep the pre-engine serial-or-process behaviour.
    assert isinstance(executor_for(1, transport="local"), SerialScanExecutor)
    assert isinstance(executor_for(3, transport="local"), ProcessScanExecutor)
    with pytest.raises(ValueError, match="--transport"):
        executor_for(2, transport="carrier-pigeon")
    with pytest.raises(ValueError, match="workers"):
        executor_for(2, transport="remote")


def test_plan_batches_partitions_contiguously():
    rng = np.random.default_rng(2)
    for _ in range(50):
        costs = [int(c) for c in rng.integers(1, 100, size=int(rng.integers(0, 40)))]
        for jobs in (1, 2, 4):
            batches = plan_batches(costs, jobs)
            flat = sorted(index for batch in batches for index in batch)
            assert flat == list(range(len(costs)))  # exact partition
            for batch in batches:
                assert batch == list(range(batch[0], batch[0] + len(batch)))
            assert len(batches) <= max(1, jobs * 4)
            # deterministic: same inputs, same plan
            assert plan_batches(costs, jobs) == batches


def test_plan_batches_isolates_stragglers_in_chunk_order():
    batches = plan_batches([1, 1, 50, 1, 1, 1], jobs=2, batches_per_worker=2)
    # The straggler chunk gets its own batch, but submission stays in
    # chunk order so streaming consumers drain as completions arrive.
    assert [2] in batches
    assert [batch[0] for batch in batches] == sorted(b[0] for b in batches)


def test_streams_expose_resolved_jobs(tmp_path):
    system = SetSystem(8, [[0, 1], [2]])
    assert SetStream(system).jobs == 1  # auto stays serial on tiny inputs
    assert SetStream(system, jobs=2).jobs == 2
    path = write_shards(tmp_path / "r", system)
    stream = ShardedSetStream(path, jobs=3)
    assert stream.jobs == 3
    stream.close()


# ----------------------------------------------------------------------
# Scan-level parity: gains, captures, both stream kinds, SHM transport
# ----------------------------------------------------------------------
def test_scan_gains_identical_across_jobs_and_encodings(tmp_path):
    rng = np.random.default_rng(11)
    for case in range(25):
        system = _random_system(rng)
        mask_int = int(rng.integers(0, 2 ** system.n)) if system.n < 60 else (
            sum(1 << e for e in range(0, system.n, 2))
        )
        reference = None
        streams = [
            lambda j, t=transport: SetStream(system, jobs=j, transport=t)
            for transport in LOCAL_TRANSPORTS
        ]
        for encoding in ENCODINGS_UNDER_TEST:
            path = write_shards(
                tmp_path / f"{case}-{encoding}", system,
                chunk_rows=int(rng.integers(1, 8)), encoding=encoding,
            )
            streams.append(
                lambda j, p=path: ShardedSetStream(p, jobs=j)
            )
        for make in streams:
            for jobs in JOBS_UNDER_TEST:
                stream = make(jobs)
                scan = stream.scan_gains(mask_int, min_capture_gain=1)
                got = ([int(g) for g in scan.gains], scan.captured)
                if reference is None:
                    reference = got
                else:
                    assert got == reference
                assert stream.passes == 1


def test_shared_memory_mask_transport(tmp_path, monkeypatch):
    """Force the SHM path (normally only for huge masks) and check parity."""
    monkeypatch.setattr(process_mod, "_SHM_MIN_MASK_BYTES", 0)
    system = SetSystem(100, [[i, (i * 7) % 100] for i in range(40)])
    path = write_shards(tmp_path / "shm", system, chunk_rows=6)
    mask_int = sum(1 << e for e in range(0, 100, 3))
    serial = ShardedSetStream(path, jobs=1).scan_gains(mask_int, min_capture_gain=1)
    parallel = ShardedSetStream(path, jobs=2).scan_gains(mask_int, min_capture_gain=1)
    assert [int(g) for g in serial.gains] == [int(g) for g in parallel.gains]
    assert serial.captured == parallel.captured


def test_best_only_capture_is_the_global_first_max(tmp_path):
    system = SetSystem(12, [[0, 1], [2, 3, 4], [5, 6, 7], [8]])
    path = write_shards(tmp_path / "best", system, chunk_rows=1)
    for jobs in (1, 2):
        stream = ShardedSetStream(path, jobs=jobs)
        scan = stream.scan_gains((1 << 12) - 1, best_only=True)
        from repro.setsystem.packed import first_argmax

        best = first_argmax(scan.gains)
        assert best == 1  # first of the two 3-gain rows
        assert any(i == best for i, _ in scan.captured)
        stream.close()


def test_planner_off_matches_planner_on(tmp_path, monkeypatch):
    """Scheduling is invisible: planner on/off x jobs gives equal scans."""
    monkeypatch.setattr(serial_mod, "_PIPELINE_MIN_CPUS", 1)  # force pipeline
    rng = np.random.default_rng(47)
    for case in range(10):
        system = _random_system(rng)
        path = write_shards(tmp_path / f"p{case}", system,
                            chunk_rows=int(rng.integers(1, 6)))
        mask_int = (sum(1 << e for e in range(0, system.n, 2)) | 1)
        reference = None
        for jobs in JOBS_UNDER_TEST:
            for planner in PLANNER_UNDER_TEST:
                stream = ShardedSetStream(path, jobs=jobs, planner=planner)
                scan = stream.scan_gains(mask_int, min_capture_gain=1)
                got = ([int(g) for g in scan.gains], scan.captured)
                if reference is None:
                    reference = got
                assert got == reference, (case, jobs, planner)
                stream.close()


def test_abandoned_thread_scan_leaves_stream_usable(tmp_path):
    """Early-exiting a thread-transport pass settles its in-flight work.

    The finally block must cancel/await the remaining futures so no pool
    thread is still scanning when the caller closes the repository."""
    system = SetSystem(16, [[i % 16] for i in range(20)])
    path = write_shards(tmp_path / "tabandon", system, chunk_rows=2)
    stream = ShardedSetStream(path, jobs=2, transport="thread")
    parts = stream.scan_gains_chunked((1 << 16) - 1)
    next(parts)
    parts.close()  # abandon mid-pass
    assert stream.passes == 1
    full = stream.scan_gains((1 << 16) - 1)
    assert len(full.gains) == 20
    stream.close()  # no background thread left to race this


def test_abandoned_prefetch_scan_leaves_stream_usable(tmp_path, monkeypatch):
    """Early-exiting a prefetched pass never wedges or orphans work."""
    monkeypatch.setattr(serial_mod, "_PIPELINE_MIN_CPUS", 1)  # force pipeline
    system = SetSystem(16, [[i % 16] for i in range(20)])
    path = write_shards(tmp_path / "abandon", system, chunk_rows=2)
    stream = ShardedSetStream(path, jobs=1, planner=True)
    parts = stream.scan_gains_chunked((1 << 16) - 1)
    next(parts)
    parts.close()  # abandon mid-pass; the pending prefetch must settle
    assert stream.passes == 1
    full = stream.scan_gains((1 << 16) - 1)
    assert len(full.gains) == 20
    stream.close()


# ----------------------------------------------------------------------
# Worker-side residual fusion (scan_accepts_chunked, DESIGN.md §8.4)
# ----------------------------------------------------------------------
def test_simulate_accepts_walks_candidates_sequentially():
    batch = simulate_accepts(0b1111, 2, [(3, 0b0011), (5, 0b0110), (9, 0b1100)])
    assert batch.ids == [3, 9]  # 5's live hit shrank below the threshold
    assert batch.removed == 0b1111
    assert batch.touched == 0b1111
    empty = simulate_accepts(0b1111, 2, [])
    assert (empty.ids, empty.removed, empty.touched) == ([], 0, 0)


def test_scan_accepts_chunked_fuses_worker_side(tmp_path):
    system = SetSystem(8, [[0, 1, 2], [2, 3], [4, 5, 6, 7], [0]])
    path = write_shards(tmp_path / "acc", system, chunk_rows=2)
    for jobs in (1, 2):
        stream = ShardedSetStream(path, jobs=jobs)
        parts = list(stream.scan_accepts_chunked((1 << 8) - 1, 2))
        assert stream.passes == 1
        (s0, cap0, b0), (s1, cap1, b1) = parts
        assert (s0, s1) == (0, 2)
        # Both chunk-0 rows clear the pass-start threshold and are
        # captured, but the in-chunk simulation rejects row 1: row 0's
        # accept leaves it only element 3.
        assert [i for i, _ in cap0] == [0, 1]
        assert b0.ids == [0] and b0.removed == 0b111 and b0.touched == 0b1111
        assert [i for i, _ in cap1] == [2]
        assert b1.ids == [2] and b1.removed == 0b11110000
        stream.close()
    with pytest.raises(ValueError, match="threshold"):
        ShardedSetStream(path).scan_accepts_chunked(1, 0)


def _threshold_replay_reference(stream, shrink=2.0):
    """The PR 3 ThresholdGreedy loop: driver-side replay of captures.

    Kept verbatim as the executable reference the fused worker-side
    accept path must match pick for pick.
    """
    from repro.setsystem.packed import bitmap_kernel

    n = stream.n
    kernel = bitmap_kernel(n, "auto")
    uncovered = kernel.full()
    count = n
    selection = []
    threshold = float(n)
    while count and threshold >= 1.0:
        threshold = max(1.0, threshold / shrink)
        parts = stream.scan_gains_chunked(
            kernel.to_mask_int(uncovered),
            min_capture_gain=math.ceil(threshold),
            include_gains=False,
        )
        for _, _, captured in parts:
            for set_id, projection in captured:
                hit = kernel.intersect(kernel.from_mask_int(projection), uncovered)
                hit_count = kernel.count(hit)
                if hit_count >= threshold:
                    selection.append(set_id)
                    uncovered = kernel.subtract(uncovered, hit)
                    count -= hit_count
        if threshold <= 1.0:
            break
    return selection


def test_fused_accepts_match_the_replay_reference(tmp_path):
    rng = np.random.default_rng(53)
    for case in range(40):
        system = _random_system(rng)
        path = write_shards(tmp_path / f"f{case}", system,
                            chunk_rows=int(rng.integers(1, 5)))
        reference_stream = ShardedSetStream(path)
        reference = _threshold_replay_reference(reference_stream)
        reference_passes = reference_stream.passes
        reference_stream.close()
        for jobs in (1, 2):
            stream = ShardedSetStream(path, jobs=jobs)
            result = ThresholdGreedy().solve(stream)
            assert result.selection == reference, (case, jobs)
            assert result.passes == reference_passes, (case, jobs)
            stream.close()


# ----------------------------------------------------------------------
# Crash hygiene: a dead worker is loud, leak-free and recoverable
# ----------------------------------------------------------------------
def test_worker_crash_is_loud_leak_free_and_recoverable(tmp_path, monkeypatch):
    system = SetSystem(64, [[i % 64, (i * 3) % 64] for i in range(30)])
    path = write_shards(tmp_path / "crash", system, chunk_rows=4)
    mask_int = (1 << 64) - 1
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()

    # Force the mask through SharedMemory and build a fresh pool whose
    # workers inherit the crash hook.
    monkeypatch.setattr(process_mod, "_SHM_MIN_MASK_BYTES", 0)
    shutdown_pools()
    monkeypatch.setenv(process_mod._CRASH_TEST_ENV, "1")
    stream = ShardedSetStream(path, jobs=2)
    with pytest.raises(RuntimeError, match="worker died"):
        stream.scan_gains(mask_int)
    stream.close()
    monkeypatch.delenv(process_mod._CRASH_TEST_ENV)

    if os.path.isdir(shm_dir):  # no leaked SharedMemory segments
        leaked = {
            entry for entry in set(os.listdir(shm_dir)) - before
            if entry.startswith("psm_")
        }
        assert not leaked, leaked
    # The broken pool was discarded: the same jobs count works again.
    recovered = ShardedSetStream(path, jobs=2)
    serial = ShardedSetStream(path, jobs=1)
    assert (
        [int(g) for g in recovered.scan_gains(mask_int).gains]
        == [int(g) for g in serial.scan_gains(mask_int).gains]
    )
    recovered.close()
    serial.close()


# ----------------------------------------------------------------------
# Algorithm-level parity: the satellite property test
# ----------------------------------------------------------------------
def test_threshold_parity_on_100_random_instances(tmp_path):
    """covers/passes/resident_words identical across jobs x encoding x planner."""
    rng = np.random.default_rng(23)
    for case in range(105):
        system = _random_system(rng)
        chunk_rows = int(rng.integers(1, 8))
        reference = None
        for encoding in ENCODINGS_UNDER_TEST:
            path = write_shards(tmp_path / f"t{case}-{encoding}", system,
                                chunk_rows=chunk_rows, encoding=encoding)
            jobs_axis = (1, 2) if case % 5 else JOBS_UNDER_TEST
            planner_axis = PLANNER_UNDER_TEST if case % 7 == 0 else (True,)
            transport_axis = LOCAL_TRANSPORTS if case % 3 == 0 else (None,)
            for jobs in jobs_axis:
                for planner in planner_axis:
                    for transport in transport_axis:
                        if transport == "thread" and jobs < 2:
                            continue  # degenerates to serial, covered above
                        stream = ShardedSetStream(
                            path, jobs=jobs, planner=planner,
                            transport=transport,
                        )
                        result = ThresholdGreedy().solve(stream)
                        fingerprint = _fingerprint(result, stream)
                        if reference is None:
                            reference = fingerprint
                        else:
                            assert fingerprint == reference, (
                                case, encoding, jobs, planner, transport,
                            )
                        stream.close()
        # The in-memory stream agrees too (modulo its zero buffer).
        memory = ThresholdGreedy().solve(SetStream(system))
        assert memory.selection == reference[0]
        assert memory.passes == reference[1]


def test_iter_set_cover_parity_on_random_instances(tmp_path):
    rng = np.random.default_rng(31)
    for case in range(20):
        system = _random_system(rng)
        seed = int(rng.integers(0, 2**31))
        kwargs = dict(delta=0.5, seed=seed, use_polylog_factors=False,
                      include_rho=False)
        chunk_rows = int(rng.integers(1, 6))  # same geometry for every config
        reference = None
        for encoding in ENCODINGS_UNDER_TEST:
            path = write_shards(tmp_path / f"i{case}-{encoding}", system,
                                chunk_rows=chunk_rows, encoding=encoding)
            for jobs in (1, 2):
                stream = ShardedSetStream(path, jobs=jobs)
                result = iter_set_cover(stream, **kwargs)
                fingerprint = _fingerprint(result, stream)
                if reference is None:
                    reference = fingerprint
                else:
                    assert fingerprint == reference, (case, encoding, jobs)
                stream.close()


@pytest.mark.parametrize("name,workload,params", SCALES["paper"])
def test_paper_roster_parity_across_jobs_and_encodings(
    tmp_path, name, workload, params
):
    """The paper bench roster, full algorithm set, jobs in {1, 2, 4}."""
    system, _ = build_instance(workload, params, seed=0)
    algorithms = [
        ("threshold", lambda stream: ThresholdGreedy().solve(stream)),
        ("multipass", lambda stream: MultiPassGreedy(max_passes=4).solve(stream)),
        (
            "iter",
            lambda stream: iter_set_cover(
                stream, delta=0.5, seed=7,
                use_polylog_factors=False, include_rho=False,
            ),
        ),
        (
            "partial-iter",
            lambda stream: PartialIterSetCover(
                eps=0.1, seed=7,
                config=IterSetCoverConfig(
                    use_polylog_factors=False, include_rho=False
                ),
            ).solve(stream),
        ),
    ]
    fingerprints: dict[str, tuple] = {}
    for encoding in ENCODINGS_UNDER_TEST:
        path = write_shards(tmp_path / f"{name}-{encoding}", system,
                            encoding=encoding)
        for jobs in JOBS_UNDER_TEST:
            for algo_name, run in algorithms:
                stream = ShardedSetStream(path, jobs=jobs)
                result = run(stream)
                fingerprint = _fingerprint(result, stream)
                reference = fingerprints.setdefault(algo_name, fingerprint)
                assert fingerprint == reference, (algo_name, encoding, jobs)
                stream.close()


def test_capture_only_scans_omit_the_gains_vector(tmp_path):
    system = SetSystem(16, [[0, 1], [2]])
    path = write_shards(tmp_path / "nog", system)
    stream = ShardedSetStream(path)
    scan = stream.scan_gains((1 << 16) - 1, min_capture_gain=1,
                             include_gains=False)
    assert scan.gains is None
    assert [i for i, _ in scan.captured] == [0, 1]
    from repro.engine import capture_words

    assert capture_words(scan.captured) == (2 + 1) + (1 + 1)
    stream.close()


def test_capture_scratch_is_chunk_bounded(tmp_path):
    """Replays hold at most one chunk's captured projections.

    Regression: m near-duplicate heavy sets all clear the pass-start
    threshold.  With one big chunk their projections are co-resident
    (and reported); with small chunks the chunk-streamed replay caps
    the scratch at a chunk's worth — it must never scale with m."""
    n, m = 64, 50
    system = SetSystem(n, [list(range(n)) for _ in range(m)])

    coarse = write_shards(tmp_path / "coarse", system, chunk_rows=m)
    result = ThresholdGreedy().solve(ShardedSetStream(coarse))
    assert result.extra["scan_capture_peak_words"] >= m * (n + 1)

    fine = write_shards(tmp_path / "fine", system, chunk_rows=2)
    bounded = ThresholdGreedy().solve(ShardedSetStream(fine))
    assert bounded.extra["scan_capture_peak_words"] <= 2 * (n + 1)
    assert bounded.selection == result.selection == [0]


def test_set_stream_algorithms_with_thread_jobs():
    """In-memory streams accept jobs too (row slices scan on threads)."""
    system, _ = build_instance("planted", dict(n=100, m=200, opt=8), seed=1)
    for algo in (
        lambda s: ThresholdGreedy().solve(s),
        lambda s: iter_set_cover(s, delta=0.5, seed=3,
                                 use_polylog_factors=False, include_rho=False),
    ):
        baseline = algo(SetStream(system, jobs=1))
        parallel = algo(SetStream(system, jobs=2))
        assert parallel.selection == baseline.selection
        assert parallel.passes == baseline.passes
        assert parallel.peak_memory_words == baseline.peak_memory_words


# ----------------------------------------------------------------------
# Offline hot paths through the thread executor (DESIGN.md §8.5)
# ----------------------------------------------------------------------
def test_greedy_cover_jobs_parity():
    from repro.offline.greedy import greedy_cover

    rng = np.random.default_rng(77)
    for case in range(15):
        n = int(rng.integers(1, 100))
        m = int(rng.integers(1, 50))
        sets = [
            rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
            for _ in range(m)
        ]
        sets.append(list(range(n)))  # keep the instance feasible
        system = SetSystem(n, sets)
        reference = greedy_cover(system, backend="numpy", jobs=1)
        for jobs in (2, 3):
            assert greedy_cover(system, backend="numpy", jobs=jobs) == reference, case
        # The big-int strategy agrees too, as always.
        assert greedy_cover(system, backend="python") == reference


def test_without_dominated_sets_jobs_parity():
    rng = np.random.default_rng(79)
    for case in range(15):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, 60))
        sets = [
            rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
            for _ in range(m)
        ]
        sets.extend(sets[: m // 3])  # duplicates exercise the tie-break
        system = SetSystem(n, sets)
        reference = system.without_dominated_sets(backend="numpy", jobs=1)[1]
        for jobs in (2, 4):
            assert (
                system.without_dominated_sets(backend="numpy", jobs=jobs)[1]
                == reference
            ), case
        assert system.without_dominated_sets(backend="frozenset")[1] == reference


def test_unstarted_scan_iterator_allocates_nothing(tmp_path, monkeypatch):
    """Obtaining (then dropping) a scan iterator must not leak SHM.

    Task construction — including the mask's SharedMemory segment —
    happens inside the generator body, so a never-started iterator
    allocates nothing to clean up."""
    monkeypatch.setattr(process_mod, "_SHM_MIN_MASK_BYTES", 0)
    system = SetSystem(32, [[i % 32] for i in range(12)])
    path = write_shards(tmp_path / "unstarted", system, chunk_rows=3)
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()
    stream = ShardedSetStream(path, jobs=2)
    parts = stream.scan_gains_chunked((1 << 32) - 1)  # opened, never consumed
    del parts
    stream.close()
    if os.path.isdir(shm_dir):
        leaked = {
            entry for entry in set(os.listdir(shm_dir)) - before
            if entry.startswith("psm_")
        }
        assert not leaked, leaked
