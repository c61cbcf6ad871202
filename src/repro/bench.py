"""Kernel benchmark harness: ``python -m repro bench``.

Times the three packed-kernel primitives (coverage union, residual gains,
residual projection), the two preprocessing/solver hot paths built on them
(``without_dominated_sets``, ``greedy_cover``) and the end-to-end
``iterSetCover`` run, for every backend, across instance scales — and
emits a machine-readable JSON report (default ``BENCH_kernels.json`` at
the repo root) that seeds the performance trajectory tracked across PRs.

Report schema (``repro.bench_kernels/v1``)::

    {
      "schema": "repro.bench_kernels/v1",
      "scale": "paper",
      "repeats": 3,
      "jobs_sweep": [1, 2, 4],
      "environment": {"python": ..., "numpy": ..., "platform": ...},
      "instances": [{"name", "workload", "n", "m", "opt", "seed"}, ...],
      "results": [
        {"benchmark", "instance", "backend", "seconds", "repeats",
         "peak_rss_bytes"}, ...
      ],
      "encodings": {
        "<instance>": {"dense_bytes", "auto_bytes", "reduction"}, ...
      },
      "cache": {
        "<instance>": {"hits", "misses", "evictions", "entries", "bytes",
                       "max_bytes", "hit_rate"}, ...
      },
      "remote_transport": {"workers": 2, "error": null},
      "parallel_parity": {"instances": ..., "identical": true},
      "summary": {
        "<benchmark>": {
          "<instance>": {
            "frozenset_seconds": ...,
            "python_seconds": ..., "python_speedup": ...,
            "numpy_seconds": ...,  "numpy_speedup": ...,
            "best_speedup": ...
          }
        }
      }
    }

``*_speedup`` is relative to the seed's frozenset path on the same
instance (>1 means the packed backend is faster), except for the
``scan_parallel_gains`` benchmark, whose baseline is the ``rows``
backend — the per-row big-int scan of a dense repository, i.e. the
pre-executor pass cost (DESIGN.md §6.3) — and ``scan_cached_pass``,
whose baseline is its own ``cold`` row so ``warm_speedup`` prices the
cross-pass chunk cache (DESIGN.md §14).  Packed timings are
taken with warm memoized views (``SetSystem.packed`` caches per backend,
by design); the one-off packing cost is reported separately as the
``pack_build`` benchmark (``encode_write`` plays the same role for the
sharded repositories).  ``summary.best_speedup`` for ``greedy_cover``
and ``without_dominated_sets`` on the planted n=2000/m=4000 instance and
for ``scan_parallel_gains`` on the ``large`` roster are the headline
numbers the repo tracks (DESIGN.md §4.3, §6.3, §8.6).

Beyond the (overwritten) report, every run appends one line of schema
``repro.bench_history/v1`` to ``BENCH_history.jsonl`` in the report's
directory — the cross-PR perf trajectory, including each benchmark's
peak RSS so the resident-memory claims of DESIGN.md §3.6 are checked
against the process high-water mark.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

try:  # POSIX high-water RSS; Windows runs without the memory column
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms only
    resource = None

from repro.core import IterSetCoverConfig, iter_set_cover
from repro.offline.greedy import greedy_cover
from repro.setsystem.packed import pack
from repro.setsystem.set_system import SetSystem
from repro.streaming.stream import SetStream
from repro.workloads import (
    planted_instance,
    sparse_uniform_instance,
    uniform_random_instance,
    zipf_instance,
)

__all__ = [
    "run_benchmarks",
    "render_summary",
    "build_instance",
    "SCHEMA",
    "HISTORY_SCHEMA",
    "HISTORY_NAME",
    "SCALES",
]

SCHEMA = "repro.bench_kernels/v1"

#: One JSON line per ``run_benchmarks`` call, appended next to the main
#: report so the perf trajectory survives report overwrites.  Each line
#: carries the run's headline speedups and the per-benchmark peak RSS
#: (``ru_maxrss`` high-water, bytes) — the machine check behind the
#: memory claims of DESIGN.md §3.6.
HISTORY_SCHEMA = "repro.bench_history/v1"

#: File name of the benchmark trajectory, in the report's directory.
HISTORY_NAME = "BENCH_history.jsonl"

PACKED_BACKENDS = ("python", "numpy")
ALL_BACKENDS = ("frozenset",) + PACKED_BACKENDS
#: Backends reported in the summary speedup columns.  ``auto`` rows show
#: what the default knob actually delivers (it resolves per call site).
SUMMARY_BACKENDS = PACKED_BACKENDS + ("auto",)
#: Cost-only benchmarks: no frozenset-relative speedup is meaningful.
_COST_ONLY = {
    "pack_build", "encode_write",
    "delta_apply", "delta_compact", "dynamic_maintain",
}
#: The parallel-executor benchmark: one full gains scan per backend row.
#: Its summary baseline is the ``rows`` backend — the per-row big-int
#: scan over a dense repository, i.e. what every pass cost before the
#: executor existed — so ``best_speedup`` captures the whole engine
#: (chunk kernels + compressed encodings + workers).
_PARALLEL_BENCH = "scan_parallel_gains"
#: The cross-pass cache benchmark (DESIGN.md §14): the same serial gains
#: scan under three cache states — ``off`` (disabled), ``cold`` (first
#: pass through a fresh cache) and ``warm`` (the repeat pass every
#: additional iterSetCover sweep gets for free).  The summary baseline
#: is ``cold``, so ``best_speedup`` is the warm-pass amortization and
#: ``payload["cache"]`` carries the hit/miss counters behind it.
_CACHED_BENCH = "scan_cached_pass"
#: The jobs sweep recorded when ``jobs="auto"``.
_DEFAULT_JOBS_SWEEP = (1, 2, 4)

#: Instance roster per scale: (name, workload, params).  The planted
#: n=2000/m=4000 instance is the acceptance instance of PR 1.
SCALES = {
    "smoke": [
        ("planted_n64_m48", "planted",
         dict(n=64, m=48, opt=4,
              dynamic=dict(topics=40, blogs=80, generations=3, batch=4))),
    ],
    "paper": [
        ("planted_n100_m200", "planted",
         dict(n=100, m=200, opt=8,
              dynamic=dict(topics=60, blogs=120, generations=8, batch=6))),
        ("uniform_n500_m1000", "uniform", dict(n=500, m=1000, density=0.02)),
        # The acceptance instance: dense decoys (as large as the planted
        # parts) put greedy in its hard, churn-heavy regime.
        ("planted_n2000_m4000", "planted",
         dict(n=2000, m=4000, opt=8, decoy_fraction_of_part=1.0)),
    ],
    "full": [
        ("planted_n100_m200", "planted", dict(n=100, m=200, opt=8)),
        ("uniform_n500_m1000", "uniform", dict(n=500, m=1000, density=0.02)),
        ("planted_n2000_m4000", "planted",
         dict(n=2000, m=4000, opt=8, decoy_fraction_of_part=1.0)),
        ("planted_n8000_m8000", "planted",
         dict(n=8000, m=8000, opt=16, decoy_fraction_of_part=1.0)),
    ],
    # The out-of-core regime: instances at the n ~ 5*10^4, m ~ 2*10^5
    # scale of the streaming literature, exercised exclusively through the
    # sharded repository (DESIGN.md §5) — written to disk once, then
    # scanned per backend and solved end-to-end via ShardedSetStream.
    # ``sharded=True`` routes the instance to the sharded benchmark set
    # (shard_write / shard_scan / threshold_sharded); the in-memory family
    # benchmarks (and the O(m^2) frozenset baselines) are skipped.
    "large": [
        ("planted_n50000_m200000", "planted",
         dict(n=50_000, m=200_000, opt=100, decoy_fraction_of_part=0.05,
              sharded=True)),
        ("sparse_n50000_m200000", "sparse_uniform",
         dict(n=50_000, m=200_000, expected_size=12, sharded=True)),
        ("zipf_n50000_m200000", "zipf",
         dict(n=50_000, m=200_000, exponent=1.2, max_set_fraction=0.005,
              sharded=True)),
    ],
}

#: The frozenset reference is O(m^2) on domination and O(m n) per pass on
#: the end-to-end run; above these sizes it is timed with a single repeat.
_SLOW_BASELINE_M = 1000


def build_instance(workload: str, params: dict, seed: int) -> tuple[SetSystem, "int | None"]:
    """Materialize one roster entry; returns ``(system, known_opt_or_None)``.

    Shared by the bench harness and the ``repro experiments``
    orchestrator so both run the exact same instances for a given
    ``(workload, params, seed)`` triple.
    """
    if workload == "planted":
        planted = planted_instance(
            params["n"],
            params["m"],
            opt=params["opt"],
            seed=seed,
            decoy_fraction_of_part=params.get("decoy_fraction_of_part", 0.6),
        )
        return planted.system, planted.opt
    if workload == "uniform":
        return (
            uniform_random_instance(
                params["n"], params["m"], density=params["density"], seed=seed
            ),
            None,
        )
    if workload == "sparse_uniform":
        return (
            sparse_uniform_instance(
                params["n"],
                params["m"],
                expected_size=params.get("expected_size", 10.0),
                seed=seed,
            ),
            None,
        )
    if workload == "zipf":
        return (
            zipf_instance(
                params["n"],
                params["m"],
                exponent=params.get("exponent", 1.2),
                max_set_fraction=params.get("max_set_fraction", 0.3),
                seed=seed,
            ),
            None,
        )
    raise ValueError(f"unknown workload {workload!r}")


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_rss_bytes() -> "int | None":
    """Process high-water resident set size, in bytes (None off-POSIX).

    ``ru_maxrss`` is monotone over the process lifetime, so a benchmark
    row records the high-water mark *as of the end of that benchmark* —
    a run whose row matches its predecessors allocated nothing new,
    which is exactly the §3.6 claim the history file machine-checks for
    the out-of-core benchmarks.
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms only
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak * 1024 if sys.platform.startswith("linux") else peak


class _Runner:
    def __init__(self, repeats: int):
        self.repeats = repeats
        self.results: list[dict] = []

    def record(
        self,
        benchmark: str,
        instance: str,
        backend: str,
        fn,
        repeats: "int | None" = None,
    ) -> float:
        repeats = max(1, self.repeats if repeats is None else repeats)
        seconds = _best_time(fn, repeats)
        self.results.append(
            {
                "benchmark": benchmark,
                "instance": instance,
                "backend": backend,
                "seconds": seconds,
                "repeats": repeats,
                "peak_rss_bytes": _peak_rss_bytes(),
            }
        )
        return seconds


def _bench_instance(runner: _Runner, name: str, system: SetSystem) -> None:
    n, m = system.n, system.m
    sets = system.sets
    selection = list(range(0, m, 7)) or [0]
    slow_repeats = 1 if m > _SLOW_BASELINE_M else None

    # One-off packing cost (everything below runs on warm memoized views).
    for backend in ALL_BACKENDS:
        runner.record(
            "pack_build", name, backend, lambda b=backend: pack(sets, n, b)
        )

    families = {backend: system.packed(backend) for backend in ALL_BACKENDS}
    residuals = {
        backend: family.kernel.full() for backend, family in families.items()
    }
    half = range(n // 2)
    half_bitmaps = {
        backend: family.kernel.from_indices(half)
        for backend, family in families.items()
    }

    for backend, family in families.items():
        kernel = family.kernel
        runner.record(
            "union", name, backend, lambda f=family: f.union(selection)
        )
        runner.record(
            "gains", name, backend,
            lambda f=family, r=residuals[backend]: f.gains(r),
        )
        runner.record(
            "is_cover", name, backend, lambda f=family: f.covers(range(m))
        )
        runner.record(
            "project", name, backend,
            lambda f=family, h=half_bitmaps[backend]: f.project(h),
        )
        runner.record(
            "without_dominated_sets", name, backend,
            lambda f=family: f.non_dominated(),
            repeats=slow_repeats if backend == "frozenset" else None,
        )
        runner.record(
            "greedy_cover", name, backend,
            lambda s=system, b=backend: greedy_cover(s, backend=b),
            repeats=slow_repeats if backend == "frozenset" else None,
        )

    # What the default knob delivers (resolves per instance size).  Same
    # operation as the per-backend rows (the pruning kernel alone, not the
    # subfamily rebuild) so the speedup columns stay comparable.
    runner.record(
        "without_dominated_sets", name, "auto",
        lambda s=system: s.packed("auto").non_dominated(),
    )
    runner.record(
        "greedy_cover", name, "auto",
        lambda s=system: greedy_cover(s, backend="auto"),
    )


def _bench_end_to_end(
    runner: _Runner, name: str, system: SetSystem, seed: int
) -> None:
    def run(backend: str):
        stream = SetStream(system)
        return iter_set_cover(
            stream,
            delta=0.5,
            seed=seed,
            backend=backend,
            use_polylog_factors=False,
            include_rho=False,
        )

    slow_repeats = 1 if system.m > _SLOW_BASELINE_M else None
    for backend in ALL_BACKENDS + ("auto",):
        runner.record(
            "iter_set_cover", name, backend, lambda b=backend: run(b),
            repeats=slow_repeats if backend == "frozenset" else None,
        )


def _bench_parallel_and_encodings(
    runner: _Runner,
    name: str,
    system: SetSystem,
    tmpdir: Path,
    jobs_sweep: tuple,
    parity: dict,
    remote_workers: list,
    caches: "dict | None" = None,
) -> dict:
    """The executor + codec benchmark set for one instance.

    Writes the instance twice — ``encoding="dense"`` (the v1 raw block
    layout) and ``encoding="auto"`` (per-row codecs) — records the
    ``encode_write`` cost and on-disk sizes, then times one full gains
    scan per backend row of :data:`_PARALLEL_BENCH`:

    * ``rows`` — the pre-executor baseline: per-row big-int scan of the
      dense repository (exactly a PR 2 streaming pass);
    * ``serial`` / ``jobs=k`` — the scan executor over the ``auto``
      repository at each sweep setting;
    * ``remote workers=2`` — the **transport dimension** (DESIGN.md §9):
      the same scan spread over two localhost ``repro worker serve``
      subprocesses, so the trajectory records the first multi-node
      numbers alongside the local sweep;
    * ``fault_recovery`` — the **robustness dimension** (DESIGN.md §10):
      the same remote scan with one worker's connection killed mid-batch
      (a chaos drop proxy) and retries enabled, so the report prices
      batch re-dispatch against the clean ``remote workers=2`` row —
      and the parity assertion proves the recovered scan bit-identical.

    Both repositories are opened **once** and every row above scans
    through the same handle — re-opening per row would re-stat and
    re-mmap the manifest inside the timed region, and would defeat the
    cross-pass chunk cache that the closing :data:`_CACHED_BENCH` rows
    measure on purpose: ``off`` (cache disabled), ``cold`` (first pass
    through a fresh cache) and ``warm`` (the pass the O(1/δ) sweeps of
    iterSetCover actually repeat) all run the serial executor over the
    ``auto`` repository, and the cache's hit/miss counters land in
    ``caches[name]`` for the report.  The executor-sweep rows themselves
    run cache-off so they keep pricing the executors and codecs, not
    cache residency.

    Every backend's gains vector is compared against the baseline's;
    a mismatch raises (and is recorded in ``payload["parallel_parity"]``).
    Returns the encoding size summary for ``payload["encodings"]``.
    """
    import shutil

    from repro.engine import CACHE_ENV, configure_cache, get_cache
    from repro.setsystem.shards import ShardedRepository, write_shards
    from repro.streaming.sharded import ShardedSetStream

    paths, sizes = {}, {}
    for encoding in ("dense", "auto"):
        path = tmpdir / f"{name}-{encoding}"

        def build(encoding=encoding, path=path):
            if path.exists():
                shutil.rmtree(path)
            write_shards(path, system, encoding=encoding)

        runner.record("encode_write", name, encoding, build, repeats=1)
        paths[encoding] = path

    mask_int = (1 << system.n) - 1 if system.n else 0
    observed: dict[str, list[int]] = {}

    configured = os.environ.get(CACHE_ENV)
    repos = {
        encoding: ShardedRepository(path) for encoding, path in paths.items()
    }
    try:
        for encoding, repo in repos.items():
            sizes[encoding] = repo.disk_bytes

        configure_cache("off")

        def rows_scan():
            stream = ShardedSetStream(repos["dense"])
            gains = []
            for _, mask in stream.iterate_packed("python"):
                gains.append((mask & mask_int).bit_count())
            observed["rows"] = gains

        runner.record(_PARALLEL_BENCH, name, "rows", rows_scan, repeats=1)

        # Planner on for the whole sweep, plus planner-off control rows at
        # the sweep's endpoints (the PR 3 schedule: per-shard tasks in index
        # order, no prefetch) — the parity assertion spans all of them.
        planner_axis = [(jobs, True) for jobs in jobs_sweep]
        planner_axis += [
            (jobs, False) for jobs in sorted({min(jobs_sweep), max(jobs_sweep)})
        ]
        for jobs, planner in planner_axis:
            backend = "serial" if jobs == 1 else f"jobs={jobs}"
            if not planner:
                backend += " planner=off"

            def scan(jobs=jobs, planner=planner, backend=backend):
                stream = ShardedSetStream(
                    repos["auto"], jobs=jobs, planner=planner
                )
                result = stream.scan_gains(mask_int)
                observed[backend] = [int(g) for g in result.gains]

            runner.record(_PARALLEL_BENCH, name, backend, scan, repeats=1)

        # The transport dimension: the run's localhost worker fleet (spawned
        # once in run_benchmarks, serving every instance's tmpdir) scans the
        # same repository over the remote backend.  Timings include the wire
        # protocol but not worker startup.
        if remote_workers:
            label = f"remote workers={len(remote_workers)}"

            def remote_scan():
                stream = ShardedSetStream(
                    repos["auto"], transport="remote", workers=remote_workers
                )
                result = stream.scan_gains(mask_int)
                observed[label] = [int(g) for g in result.gains]

            runner.record(_PARALLEL_BENCH, name, label, remote_scan, repeats=1)

            # The robustness dimension: worker 0's first connection is cut
            # mid-batch (drop proxy, one sabotaged connection) and the retry
            # policy re-dispatches the lost shards.  The fleet itself stays
            # alive for the next instance; the delta against the clean
            # remote row above is the price of one mid-scan worker loss.
            def fault_scan():
                from repro.engine.fault import ChaosProxy

                with ChaosProxy(
                    remote_workers[0], mode="drop", after_frames=2, times=1,
                    seed=0,
                ) as proxy:
                    fleet = [proxy.address] + list(remote_workers[1:])
                    stream = ShardedSetStream(
                        repos["auto"], transport="remote", workers=fleet,
                        retry={"attempts": 3, "backoff": 0.05, "seed": 0},
                    )
                    result = stream.scan_gains(mask_int)
                    observed["fault_recovery"] = [int(g) for g in result.gains]

            runner.record(
                _PARALLEL_BENCH, name, "fault_recovery", fault_scan, repeats=1
            )

        # The cross-pass cache rows (DESIGN.md §14): same serial scan,
        # three cache states.  ``off`` runs while the cache is still
        # disabled from the sweep above; ``cold`` is the first pass
        # through a freshly configured cache (fills it); ``warm`` is the
        # repeat pass every additional iterSetCover sweep gets for free.
        def cached_scan(label):
            stream = ShardedSetStream(repos["auto"], jobs=1)
            result = stream.scan_gains(mask_int)
            observed[label] = [int(g) for g in result.gains]

        runner.record(
            _CACHED_BENCH, name, "off", lambda: cached_scan("off"), repeats=1
        )
        configure_cache(configured)
        runner.record(
            _CACHED_BENCH, name, "cold", lambda: cached_scan("cold"), repeats=1
        )
        runner.record(
            _CACHED_BENCH, name, "warm", lambda: cached_scan("warm"), repeats=1
        )
        if caches is not None:
            stats = get_cache().stats()
            lookups = stats["hits"] + stats["misses"]
            caches[name] = dict(
                stats,
                hit_rate=round(stats["hits"] / lookups, 4) if lookups else 0.0,
            )
    finally:
        configure_cache(configured)
        for repo in repos.values():
            repo.close()

    expected = observed["rows"]
    for backend, gains in observed.items():
        if gains != expected:
            parity["identical"] = False
            raise AssertionError(
                f"parallel scan parity failure on {name}: backend {backend} "
                "returned different gains than the serial row scan"
            )
    parity["instances"] += 1
    reduction = sizes["dense"] / sizes["auto"] if sizes["auto"] else 1.0
    return {
        "dense_bytes": sizes["dense"],
        "auto_bytes": sizes["auto"],
        "reduction": round(reduction, 2),
    }


def _bench_sharded_instance(
    runner: _Runner,
    name: str,
    system: SetSystem,
    jobs_sweep: tuple,
    parity: dict,
    encodings: dict,
    remote_workers: list,
    work_root: "Path | None" = None,
    caches: "dict | None" = None,
) -> None:
    """Out-of-core benchmark set: write shards once, then scan/solve them.

    All timings use a single repeat — one full pass over a multi-hundred-MB
    repository is already a stable measurement, and the frozenset row
    decodes are far too slow to repeat.
    """
    import shutil
    import tempfile

    from repro.baselines.greedy_stream import ThresholdGreedy
    from repro.setsystem.shards import ShardedRepository
    from repro.streaming.sharded import ShardedSetStream

    tmpdir = Path(tempfile.mkdtemp(prefix="repro-shards-", dir=work_root))
    try:
        encodings[name] = _bench_parallel_and_encodings(
            runner, name, system, tmpdir, jobs_sweep, parity, remote_workers,
            caches,
        )

        # Row-granular wire-format scans stay on the dense (v1-layout)
        # repository: they measure the raw mmap row path, not the codec.
        repo = ShardedRepository(tmpdir / f"{name}-dense")
        try:
            # One full sequential pass per wire format.  Every row is
            # folded into a cardinality total so lazy decodes cannot hide:
            # the numpy path's zero-copy mmap views must actually fault
            # their pages and popcount, like the other backends.
            def scan(backend: str):
                stream = ShardedSetStream(repo)
                total = 0
                if backend == "frozenset":
                    for _, row in stream.iterate_packed(backend):
                        total += len(row)
                elif backend == "python":
                    for _, row in stream.iterate_packed(backend):
                        total += row.bit_count()
                else:  # numpy
                    from repro.setsystem.packed import _popcount_total

                    for _, row in stream.iterate_packed(backend):
                        total += _popcount_total(row)
                return total

            for backend in ALL_BACKENDS:
                runner.record(
                    "shard_scan", name, backend,
                    lambda b=backend: scan(b), repeats=1,
                )
        finally:
            repo.close()

        # End-to-end out-of-core solve (threshold greedy: O(log n)
        # passes, O(n + chunk) resident words) through the full new
        # engine: compressed repository + executor-driven scan passes.
        repo = ShardedRepository(tmpdir / f"{name}-auto")
        try:
            selections = {}

            def solve(jobs):
                stream = ShardedSetStream(repo, jobs=jobs)
                result = ThresholdGreedy().solve(stream)
                assert result.feasible, f"threshold greedy failed on {name}"
                selections[jobs] = result.selection
                return result

            max_jobs = max(jobs_sweep) if jobs_sweep else 1
            for jobs in sorted({1, max_jobs}):
                runner.record(
                    "threshold_sharded", name, f"jobs={jobs}",
                    lambda j=jobs: solve(j), repeats=1,
                )
            if len(set(map(tuple, selections.values()))) != 1:
                parity["identical"] = False
                raise AssertionError(
                    f"threshold_sharded covers diverged across jobs on {name}"
                )
            parity["instances"] += 1
        finally:
            repo.close()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _bench_dynamic(
    runner: _Runner, name: str, spec: dict, seed: int, work_root: Path
) -> None:
    """Churn-path cost rows: delta append, compaction, incremental cover.

    All three are cost-only rows (no frozenset baseline exists for a
    mutation): ``delta_apply`` times appending a full churn script as
    delta generations to a fresh copy of the base repository,
    ``delta_compact`` times folding that chain into a flat repository
    (output mode, so the timed chain is reused across repeats), and
    ``dynamic_maintain`` times :class:`repro.dynamic.DynamicCover`
    absorbing the same script in memory.
    """
    import itertools
    import shutil
    import tempfile

    from repro.dynamic import DynamicCover
    from repro.setsystem import SetSystem
    from repro.setsystem.deltas import apply_delta, compact
    from repro.setsystem.shards import write_shards
    from repro.workloads.churn import rolling_blog_watch

    script = rolling_blog_watch(
        topics=spec["topics"], blogs=spec["blogs"],
        generations=spec["generations"], batch=spec["batch"], seed=seed,
    )
    tmpdir = Path(tempfile.mkdtemp(prefix="repro-dynamic-", dir=work_root))
    counter = itertools.count()
    try:
        base = write_shards(
            tmpdir / "base", SetSystem(script.n, script.base), chunk_rows=32
        )

        def apply_chain() -> Path:
            root = tmpdir / f"chain-{next(counter)}"
            shutil.copytree(base, root)
            for batch in script.batches:
                apply_delta(root, batch)
            return root

        runner.record("delta_apply", name, "chain", apply_chain, repeats=1)
        chained = apply_chain()
        runner.record(
            "delta_compact", name, "rewrite",
            lambda: compact(chained, output=tmpdir / f"out-{next(counter)}"),
            repeats=1,
        )

        def maintain():
            dyn = DynamicCover(script.n, enumerate(script.base), theta=2.0)
            for batch in script.batches:
                dyn.apply(batch)
            assert dyn.is_valid_cover()

        runner.record("dynamic_maintain", name, "levels", maintain)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _summarize(results: list[dict]) -> dict:
    by_key: dict[tuple[str, str], dict[str, float]] = {}
    for row in results:
        by_key.setdefault((row["benchmark"], row["instance"]), {})[
            row["backend"]
        ] = row["seconds"]
    summary: dict = {}
    for (benchmark, instance), timings in sorted(by_key.items()):
        entry: dict = {}
        if benchmark == _CACHED_BENCH:
            # The cache benchmark measures warm-pass amortization against
            # its own cold pass (first fill of a fresh cache).
            baseline = timings.get("cold")
            if baseline is not None:
                entry["cold_seconds"] = baseline
            best = 0.0
            for backend, seconds in sorted(timings.items()):
                if backend == "cold":
                    continue
                entry[f"{backend}_seconds"] = seconds
                if baseline and seconds > 0:
                    speedup = baseline / seconds
                    entry[f"{backend}_speedup"] = round(speedup, 2)
                    if backend == "warm":
                        best = max(best, speedup)
            if best:
                entry["best_speedup"] = round(best, 2)
            summary.setdefault(benchmark, {})[instance] = entry
            continue
        if benchmark == _PARALLEL_BENCH:
            # The executor benchmark measures against the per-row scan
            # ("rows"), not the frozenset kernels.
            baseline = timings.get("rows")
            if baseline is not None:
                entry["rows_seconds"] = baseline
            best = 0.0
            for backend, seconds in sorted(timings.items()):
                if backend == "rows":
                    continue
                entry[f"{backend}_seconds"] = seconds
                if baseline and seconds > 0:
                    speedup = baseline / seconds
                    entry[f"{backend}_speedup"] = round(speedup, 2)
                    best = max(best, speedup)
            if best:
                entry["best_speedup"] = round(best, 2)
            summary.setdefault(benchmark, {})[instance] = entry
            continue
        baseline = timings.get("frozenset")
        if baseline is not None:
            entry["frozenset_seconds"] = baseline
        best = 0.0
        for backend in SUMMARY_BACKENDS:
            seconds = timings.get(backend)
            if seconds is None:
                continue
            entry[f"{backend}_seconds"] = seconds
            if benchmark not in _COST_ONLY and baseline and seconds > 0:
                speedup = baseline / seconds
                entry[f"{backend}_speedup"] = round(speedup, 2)
                best = max(best, speedup)
        if best:
            entry["best_speedup"] = round(best, 2)
        summary.setdefault(benchmark, {})[instance] = entry
    return summary


def _append_history(payload: dict, report_path: Path) -> Path:
    """Append one ``repro.bench_history/v1`` line next to the report.

    The trajectory file keeps what report overwrites destroy: when each
    run happened, its headline speedups, the full executor-sweep summary
    and the per-benchmark peak RSS (so the §3.6 "resident memory = one
    chunk + state" claims are checked against actual process high-water
    marks, not just the word-count meters).
    """
    peak_rss: dict[str, int] = {}
    for row in payload["results"]:
        rss = row.get("peak_rss_bytes")
        if rss is not None:
            peak_rss[row["benchmark"]] = max(peak_rss.get(row["benchmark"], 0), rss)
    best_speedups = {
        benchmark: {
            instance: entry["best_speedup"]
            for instance, entry in instances.items()
            if "best_speedup" in entry
        }
        for benchmark, instances in payload["summary"].items()
    }
    line = {
        "schema": HISTORY_SCHEMA,
        "recorded_unix": int(time.time()),
        "scale": payload["scale"],
        "seed": payload["seed"],
        "repeats": payload["repeats"],
        "jobs_sweep": payload["jobs_sweep"],
        "environment": payload["environment"],
        "parallel_parity": payload["parallel_parity"],
        "peak_rss_bytes": peak_rss,
        "best_speedups": best_speedups,
        "scan_parallel": payload["summary"].get(_PARALLEL_BENCH, {}),
        "scan_cached_pass": payload["summary"].get(_CACHED_BENCH, {}),
        "cache": payload.get("cache", {}),
    }
    history = report_path.resolve().parent / HISTORY_NAME
    with history.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return history


def run_benchmarks(
    scale: str = "paper",
    repeats: int = 3,
    seed: int = 0,
    output: "str | Path | None" = "BENCH_kernels.json",
    jobs="auto",
) -> dict:
    """Run the kernel benchmark suite and (optionally) write the JSON report.

    ``scale`` may be a single roster name or a comma-joined list
    (``"paper,large"``) to record several rosters in one report — the
    committed ``BENCH_kernels.json`` carries ``paper`` (in-memory kernels)
    plus ``large`` (the out-of-core sharded path) this way.

    ``jobs`` shapes the parallel-scan sweep: ``"auto"`` records the full
    ``serial / jobs=2 / jobs=4`` sweep, an explicit ``k`` records
    ``serial / jobs=k``; planner-off control rows (the PR 3 schedule)
    are recorded at the sweep's endpoints, and a ``remote workers=2``
    transport row runs the same scan over two localhost
    ``repro worker serve`` subprocesses (DESIGN.md §9).  Every sweep
    row's gains are asserted identical to the serial per-row scan and
    the verdict lands in ``payload["parallel_parity"]``.

    Unless ``output`` is ``None``, every run also appends one
    ``repro.bench_history/v1`` line (headline speedups, executor-sweep
    seconds, per-benchmark peak RSS) to ``BENCH_history.jsonl`` in the
    report's directory, so the perf trajectory accumulates instead of
    being overwritten.
    """
    scales = [part.strip() for part in scale.split(",") if part.strip()]
    unknown = [part for part in scales if part not in SCALES]
    if not scales or unknown:
        raise ValueError(
            f"unknown scale {scale!r}; expected names from {sorted(SCALES)} "
            "(optionally comma-joined)"
        )
    if jobs == "auto":
        jobs_sweep = _DEFAULT_JOBS_SWEEP
    else:
        from repro.engine import resolve_jobs

        jobs_sweep = tuple(sorted({1, resolve_jobs(jobs)}))
    runner = _Runner(repeats)
    parity = {"instances": 0, "identical": True}
    encodings: dict[str, dict] = {}
    caches: dict[str, dict] = {}
    instances_meta = []
    # One localhost worker fleet serves the whole run — two subprocess
    # startups per run, not per instance.  Every instance's shard tmpdir
    # is created under one run-scoped directory and the workers serve
    # only that root (the narrowest-root guidance of the protocol: an
    # unauthenticated loopback worker must not expose all of /tmp).
    import shutil
    import tempfile

    from repro.engine import spawn_local_worker

    remote_procs = []
    work_root = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    try:
        # Best-effort: a box that cannot spawn subprocesses or bind
        # loopback sockets still benches everything else — the remote
        # row is one backend of many, and CI (which can) asserts its
        # presence.  Append as each worker spawns, so a failed second
        # spawn still leaves the first in remote_procs for the reap.
        # The fleet serves with its chunk cache off: the remote and
        # fault_recovery rows price the wire protocol and re-dispatch,
        # and a warm worker cache would silently discount the fault
        # row's recovery scan against the clean row it is compared to.
        from repro.engine import CACHE_ENV

        remote_error = None
        try:
            for _ in range(2):
                remote_procs.append(
                    spawn_local_worker(work_root, extra_env={CACHE_ENV: "off"})
                )
        except (RuntimeError, OSError) as exc:
            remote_error = f"{type(exc).__name__}: {exc}"
        remote_workers = (
            [address for _, address in remote_procs]
            if remote_error is None
            else []
        )
        for part in scales:
            for name, workload, params in SCALES[part]:
                system, opt = build_instance(workload, params, seed)
                instances_meta.append(
                    {
                        "name": name,
                        "workload": workload,
                        "n": system.n,
                        "m": system.m,
                        "opt": opt,
                        "seed": seed,
                        "sharded": bool(params.get("sharded")),
                    }
                )
                if params.get("sharded"):
                    _bench_sharded_instance(
                        runner, name, system, jobs_sweep, parity, encodings,
                        remote_workers, work_root, caches,
                    )
                else:
                    _bench_instance(runner, name, system)
                    _bench_end_to_end(runner, name, system, seed)
                    # The executor + codec sweep runs for in-memory rosters
                    # too, through a temporary sharded copy of the instance.
                    tmpdir = Path(tempfile.mkdtemp(
                        prefix="repro-scan-", dir=work_root
                    ))
                    try:
                        encodings[name] = _bench_parallel_and_encodings(
                            runner, name, system, tmpdir, jobs_sweep, parity,
                            remote_workers, caches,
                        )
                    finally:
                        shutil.rmtree(tmpdir, ignore_errors=True)
                if params.get("dynamic"):
                    _bench_dynamic(
                        runner, name, params["dynamic"], seed, work_root
                    )
    finally:
        for process, _ in remote_procs:
            process.terminate()
        for process, _ in remote_procs:
            try:
                process.wait(timeout=10)
            except Exception:  # pragma: no cover - stuck worker
                process.kill()
        shutil.rmtree(work_root, ignore_errors=True)

    payload = {
        "schema": SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "seed": seed,
        "jobs_sweep": list(jobs_sweep),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "instances": instances_meta,
        "results": runner.results,
        "encodings": encodings,
        "cache": caches,
        "remote_transport": {
            "workers": len(remote_workers),
            "error": remote_error,
        },
        "parallel_parity": parity,
        "summary": _summarize(runner.results),
    }
    if output is not None:
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
        _append_history(payload, Path(output))
    return payload


def render_summary(payload: dict) -> str:
    """Human-readable view of the speedup summary (printed by the CLI)."""
    lines = [
        f"kernel benchmarks — scale={payload['scale']} "
        f"(best-of-{payload['repeats']}, seconds; speedup vs frozenset)",
        "",
    ]
    header = (
        f"{'benchmark':<24}{'instance':<22}{'frozenset':>11}{'python':>11}"
        f"{'numpy':>11}{'auto':>11}{'best x':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for benchmark, instances in payload["summary"].items():
        for instance, entry in instances.items():
            def fmt(key):
                value = entry.get(key)
                return f"{value:.4g}" if value is not None else "-"

            lines.append(
                f"{benchmark:<24}{instance:<22}"
                f"{fmt('frozenset_seconds'):>11}{fmt('python_seconds'):>11}"
                f"{fmt('numpy_seconds'):>11}{fmt('auto_seconds'):>11}"
                f"{entry.get('best_speedup', '-'):>9}"
            )
    return "\n".join(lines)
