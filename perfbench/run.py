"""End-to-end benchmark of the ``repro`` command line, with a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload planted-iter --seed 1 --seconds 36 --trace 0

Each workload is a sequence of user-facing ``python -m repro`` commands
(see ``perfbench/WORKLOADS.md``).  The benchmark generates the inputs
of one or more instances from ``--seed`` (cached under
``.perfbench/inputs``, never timed), then runs the sequence again and
again, cycling through the instances, one command at a time (a closed
loop with one client), each command in a fresh child process, for about
``--seconds`` seconds.  Every command's exit code and stdout are checked.

``--trace 0`` reports the end-to-end metrics: each is the mean over the
instances of the instance's median over its sequences, with each
child's CPU time and peak RSS taken from ``os.wait4`` for that child
alone.  ``--trace 1`` follows each untraced sequence with a traced one
on the same instance, in which every program command runs under
``perfbench/traced.py``, and reports the per-layer metrics.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when a result was printed and 1 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (sibling module of this script)

TRACED = HERE / "traced.py"
STATE = Path(".perfbench")
CHILD_TIMEOUT_S = 150.0
WORKER_START_TIMEOUT_S = 60.0

#: Workload parameters; part of the input cache key.  ``instances`` is
#: how many instances a run draws from its seed.  Sequences cycle
#: through them, and each end-to-end metric is the mean over the
#: instances of that instance's median.  Pass counts depend on the
#: instance (blog-churn takes 8 to 10 passes), and averaging two
#: instances narrows that part of the spread across seeds.  Planted uses
#: opt=20 because at opt=10 whether iterSetCover needs its cleanup pass
#: (5 passes instead of 4) is a coin flip per instance.
PARAMS = {
    "planted-iter": {
        "instances": 2, "n": 2000, "m": 8000, "opt": 20, "chunk_rows": 2000,
    },
    "sparse-remote-threshold": {
        "instances": 1, "n": 2500, "m": 10000, "expected_size": 12,
        "chunk_rows": 200,
    },
    "blog-churn": {
        "instances": 2, "topics": 600, "blogs": 4800, "generations": 8,
        "batch": 120,
    },
}

END_TO_END = {
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "solve_s": "s",
    "solve_cpu_s": "s",
    "solve_rss_mb": "MB",
    "flow_s": "s",
    "passes": "count",
    "space_words": "words",
    "cover_size": "sets",
}

_SOLVE_LINES = {
    "cover_size": re.compile(r"^result\s*: cover with (\d+) sets$", re.M),
    "passes": re.compile(r"^passes\s*: (\d+)$", re.M),
    "space_words": re.compile(r"^space\s*: (\d+) words$", re.M),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, bad inputs)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """One finished child: exit code, wall, CPU and peak RSS, output."""

    def __init__(self, returncode, wall, cpu, rss_mb, out, err):
        self.returncode = returncode
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.out = out
        self.err = err
        self.trace = None  # layers.summarize() output of a traced child


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_child(argv: list, log_dir: Path) -> Child:
    """Run ``argv`` to completion; resources come from ``wait4`` on it."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=child_env(),
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        process.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def repro(*args) -> list:
    return [sys.executable, "-m", "repro", *map(str, args)]


class Fleet:
    """Two fresh ``repro worker serve`` processes for one remote solve."""

    def __init__(self, root: Path, log_dir: Path):
        self.root = root
        self.log_dir = log_dir
        self.processes: list = []
        self.addresses: list = []

    def start(self) -> None:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        for index in range(2):
            log = open(self.log_dir / f"worker{index}.txt", "w+")
            self.processes.append((subprocess.Popen(
                repro("worker", "serve", "--root", self.root, "--port", 0),
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=child_env(),
            ), log))
        deadline = time.monotonic() + WORKER_START_TIMEOUT_S
        for process, log in self.processes:
            while True:
                log.seek(0)
                match = re.search(r"listening on (\S+)", log.read())
                if match:
                    self.addresses.append(match.group(1))
                    break
                if process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker did not start (exit {process.returncode})"
                    )
                time.sleep(0.005)

    def cpu_seconds(self) -> float:
        """CPU time the workers have used so far, from /proc/<pid>/stat."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for process, _ in self.processes:
            with open(f"/proc/{process.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / ticks

    def stop(self) -> None:
        for process, _ in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process, log in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            log.close()
        self.processes = []


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def instance_seed(seed: int, index: int) -> int:
    """The generator seed of instance ``index`` of a run seeded ``seed``."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).hexdigest()
    return int(digest[:8], 16)


def generate_args(workload: str, seed: int, out: Path) -> list:
    """``repro`` arguments that write one instance's inputs into ``out``."""
    p = PARAMS[workload]
    if workload == "planted-iter":
        return ["generate", "planted", out / "instance.json", "--n", p["n"],
                "--m", p["m"], "--opt", p["opt"], "--seed", seed]
    if workload == "sparse-remote-threshold":
        return ["generate", "sparse-uniform", out / "instance.json",
                "--n", p["n"], "--m", p["m"],
                "--expected-size", p["expected_size"], "--seed", seed]
    return ["shard", "churn-script", "rolling-blog-watch",
            out / "churn.json", "--topics", p["topics"],
            "--blogs", p["blogs"], "--generations", p["generations"],
            "--batch", p["batch"], "--seed", seed,
            "--base-instance", out / "instance.json"]


def ensure_inputs(workload: str, seed: int) -> list:
    """Generate (once per workload, parameters and seed) the input files.

    Returns one directory per instance.  All instances are generated by
    one child that runs ``repro.cli.main`` once per instance.
    """
    key = json.dumps([workload, PARAMS[workload], seed], sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    target = STATE / "inputs" / f"{workload}-s{seed}-{digest}"
    count = PARAMS[workload]["instances"]
    dirs = [target / f"instance{index}" for index in range(count)]
    if (target / "READY").exists():
        return dirs
    staging = target.with_name(target.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    calls = []
    for index in range(count):
        out = staging / f"instance{index}"
        out.mkdir(parents=True)
        args = generate_args(workload, instance_seed(seed, index), out)
        calls.append([str(arg) for arg in args])
    argv = [sys.executable, "-c",
            "import json, sys\n"
            "from repro.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    if main(args):\n"
            "        sys.exit(f'failed: {args}')\n",
            json.dumps(calls)]
    child = run_child(argv, staging / "log")
    if child.returncode != 0:
        raise BenchmarkError(f"input generation failed:\n{child.err}")
    (staging / "READY").write_text("")
    staging.rename(target)
    return dirs


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    """Repeats one workload's command sequence and checks every command."""

    def __init__(self, workload: str, seed: int, instances: list):
        self.workload = workload
        self.seed = seed
        self.instances = instances
        self.index = 0  # the instance of the current sequence
        self.inputs = instances[0]
        self.work = STATE / "work" / workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.samples: dict = {}
        self.sequences = 0
        self.traced_passes: list = []
        self.untraced_walls: dict = {}
        self.untimed = 0.0  # seconds of reference solves, outside the window

    # -- checks ------------------------------------------------------------
    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def expect(self, key: str, text: str) -> bool:
        """Same stdout as every earlier run of this seed (stored on first use)."""
        path = self.inputs / f"expected-{key}.txt"
        if not path.exists():
            path.write_text(text)
            return True
        return path.read_text() == text

    def command(self, step: str, args: list, traced: bool = False) -> Child:
        """Run one ``repro`` command (or its traced twin) and check it."""
        log_dir = self.work / "log" / step
        if traced:
            argv = [sys.executable, str(TRACED),
                    str(log_dir / "trace.json"), "--", *map(str, args)]
        else:
            argv = repro(*args)
        child = run_child(argv, log_dir)
        self.attempted += 1
        label = f"{'traced ' if traced else ''}{step}"
        if child.returncode != 0:
            self.fail(f"{label}: exit {child.returncode}: {child.err[-500:]}")
        elif args[0] == "solve" and not _SOLVE_LINES["cover_size"].search(
            child.out
        ):
            self.fail(f"{label}: no 'result    : cover' line")
        elif re.search(r"^faults\s*:", child.err, re.M):
            self.fail(f"{label}: fault log not empty: {child.err[-500:]}")
        elif step != "ping" and not self.expect(step, child.out):
            self.fail(f"{label}: stdout differs from earlier runs of seed "
                      f"{self.seed}")
        else:
            if traced:
                child.trace = layers.summarize(
                    json.loads((log_dir / "trace.json").read_text())
                )
            return child
        return None

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(
            self.index, []
        ).append(value)

    # -- the workload sequences ---------------------------------------------
    def sequence(self, index: int, traced: bool) -> None:
        """Run the workload's whole command sequence once on one instance."""
        self.index = index
        self.inputs = self.instances[index]
        # Each sequence starts from an empty directory: the repository
        # and everything the program keeps beside it (reader leases).
        workdir = self.work / "sequence"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        repo = workdir / "repo"
        steps: dict = {}
        flow = 0.0
        worker_cpu = 0.0

        def run(step, args, program=True):
            nonlocal flow
            child = self.command(step, args, traced=traced and program)
            if child is None:
                raise _SequenceFailed()
            steps[step] = child
            flow += child.wall
            return child

        fleet = None
        try:
            chunk = PARAMS[self.workload].get("chunk_rows")
            create = run("create", ["shard", "create",
                                    self.inputs / "instance.json", repo]
                         + (["--chunk-rows", chunk] if chunk else []))
            setup = create.wall
            if self.workload == "planted-iter":
                run("solve", ["solve", repo, "--algorithm", "iter",
                              "--no-polylog"])
            elif self.workload == "sparse-remote-threshold":
                self.reference(repo)
                fleet = Fleet(workdir, self.work / "log" / "workers")
                started = time.perf_counter()
                try:
                    fleet.start()
                except RuntimeError as exc:
                    self.attempted += 1
                    self.fail(f"workers: {exc}")
                    raise _SequenceFailed() from None
                spawn = time.perf_counter() - started
                setup += spawn
                flow += spawn
                for address in fleet.addresses:
                    setup += run("ping", ["worker", "ping", address,
                                          "--count", 1], program=False).wall
                before = fleet.cpu_seconds()
                run("solve", ["solve", repo, "--algorithm", "threshold",
                              "--transport", "remote", "--workers",
                              ",".join(fleet.addresses)])
                worker_cpu = fleet.cpu_seconds() - before
                if steps["solve"].out != self.reference_out:
                    self.fail("remote solve differs from the local "
                              "--jobs 1 reference")
            else:
                run("apply_delta", ["shard", "apply-delta", repo,
                                    self.inputs / "churn.json"])
                run("solve", ["solve", repo, "--algorithm", "threshold"])
                run("compact", ["shard", "compact", repo])
                run("solve_compacted", ["solve", repo, "--algorithm",
                                        "threshold"])
                if steps["solve"].out != steps["solve_compacted"].out:
                    self.fail("merged-view solve differs from the "
                              "compacted solve")
        except _SequenceFailed:
            return
        finally:
            if fleet is not None:
                fleet.stop()
        self.sequences += 1
        if traced:
            self.traced_passes.append((index, steps, worker_cpu))
            return
        for step, child in steps.items():
            self.untraced_walls.setdefault((index, step), []).append(child.wall)
        solve = steps["solve"]
        self.sample("setup_s", setup)
        self.sample("setup_rss_mb", create.rss_mb)
        self.sample("solve_s", solve.wall)
        self.sample("solve_cpu_s", solve.cpu)
        self.sample("solve_rss_mb", solve.rss_mb)
        self.sample("flow_s", flow)
        for metric, pattern in _SOLVE_LINES.items():
            self.sample(metric, int(pattern.search(solve.out).group(1)))
        for step in ("apply_delta", "compact", "solve_compacted"):
            if step in steps:
                self.sample(f"{step}_s", steps[step].wall)

    def reference(self, repo: Path) -> None:
        """Local ``--jobs 1`` solve of the same repository, once per seed."""
        path = self.inputs / "reference-jobs1.txt"
        if not path.exists():
            child = self.command("reference", ["solve", repo, "--algorithm",
                                               "threshold", "--jobs", 1])
            if child is None:
                raise _SequenceFailed()
            self.untimed += child.wall
            path.write_text(child.out)
        self.reference_out = path.read_text()

    # -- reports -------------------------------------------------------------
    def value(self, name: str) -> float:
        """Mean over the instances of each instance's median of ``name``."""
        return statistics.fmean(
            statistics.median(values)
            for values in self.samples[name].values()
        )

    def end_to_end(self) -> dict:
        return {
            name: {"value": self.value(name), "unit": unit}
            for name, unit in END_TO_END.items()
        }

    def untraced_medians(self, index: int) -> dict:
        """Median untraced wall of each step on instance ``index``."""
        return {
            step: statistics.median(walls)
            for (where, step), walls in self.untraced_walls.items()
            if where == index
        }

    def per_layer(self) -> dict:
        passes = []
        for index, steps, worker_cpu in self.traced_passes:
            medians = self.untraced_medians(index)
            overhead = {
                step: child.wall / medians[step] - 1.0
                for step, child in steps.items() if step in medians
            }
            programs = {
                step: child.trace for step, child in steps.items()
                if child.trace is not None
            }
            timed = [s for s in programs if s in medians]
            overhead["pass"] = (
                sum(steps[s].wall for s in timed)
                / sum(medians[s] for s in timed) - 1.0
            ) if timed else 0.0
            passes.append(layers.pass_metrics(programs, overhead, worker_cpu))
        return {
            name: {
                "value": statistics.median(p[name] for p in passes),
                "unit": unit,
            }
            for name, unit in layers.metric_units().items()
        }

    def describe(self, trace: int) -> None:
        print(f"{self.workload} seed={self.seed} trace={trace}: "
              f"{self.sequences} sequence(s) over {len(self.instances)} "
              f"instance(s), {self.attempted} command(s)")
        units = dict(END_TO_END, apply_delta_s="s", compact_s="s",
                     solve_compacted_s="s")
        for name, per_instance in self.samples.items():
            values = [v for vs in per_instance.values() for v in vs]
            print(f"  {name:<20} value {self.value(name):<12.6g} "
                  f"{units[name]:<6} n={len(values)} "
                  f"min {min(values):.6g} max {max(values):.6g}")
        frac = self.failed / self.attempted if self.attempted else 0.0
        print(f"  {'failed_frac':<20} {frac:.4f} "
              f"({self.failed}/{self.attempted} commands)")
        for problem in self.problems:
            print(f"  FAILED: {problem}")
        for index, steps, _ in self.traced_passes[:1]:
            medians = self.untraced_medians(index)
            for step, child in steps.items():
                summary = child.trace
                if summary is None:
                    continue
                overhead = (
                    f"{child.wall / medians[step] - 1:+.1%}"
                    if step in medians else "n/a"
                )
                print(f"  traced {step}: in-process wall "
                      f"{summary['wall']:.3f}s, unattributed "
                      f"{summary['unattributed_frac']:.1%}, overhead "
                      f"{overhead} against the untraced median")
                busy = sorted(summary["busy"].items(), key=lambda kv: -kv[1])
                for name, value in busy:
                    print(f"    {name:<28} {value:9.3f} s "
                          f"{value / summary['wall']:7.1%}")
                if summary["missing"]:
                    print(f"    probes not installed: {summary['missing']}")


class _SequenceFailed(Exception):
    """A command of the sequence failed; the sequence stops there."""


def measure(workload: str, seed: int, seconds: float, trace: int) -> Run:
    """Repeat the workload's sequence for about ``seconds`` seconds."""
    run = Run(workload, seed, ensure_inputs(workload, seed))
    count = len(run.instances)
    started = time.perf_counter()
    # With tracing, each instance's untraced sequence is followed by a
    # traced one on the same instance, whose overhead it measures.
    kinds = [False, True] if trace else [False]
    # Start another sequence while it is expected to end no more than
    # half a sequence past the measuring window, which excludes the
    # reference solves.  Untraced, always run at least three sequences,
    # so that each median has three samples where a sequence is long, and
    # at least one on every instance; traced, at least one pair.
    minimum = 2 if trace else max(3, count)
    sequence = 0
    while True:
        elapsed = time.perf_counter() - started - run.untimed
        mean = elapsed / sequence if sequence else 0.0
        if sequence >= minimum and elapsed + mean / 2 > seconds:
            break
        run.sequence((sequence // len(kinds)) % count,
                     kinds[sequence % len(kinds)])
        sequence += 1
        if run.failed and not run.samples:
            break
    run.describe(trace)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*PARAMS, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring window per workload (default 36)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so workers and children are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not Path("src/repro/cli.py").is_file():
        print("error: run from the root of a repro checkout (src/repro "
              "not found)", file=sys.stderr)
        return 1
    workloads = list(PARAMS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            run = measure(workload, args.seed, args.seconds, args.trace)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not run.samples or (args.trace and not run.traced_passes):
            print(f"error: no {workload} command sequence completed",
                  file=sys.stderr)
            return 1
        metrics = run.per_layer() if args.trace else run.end_to_end()
        prefix = f"{workload}/" if args.workload == "all" else ""
        result["correct"] = result["correct"] and run.failed == 0
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        result["metrics"].update(
            {prefix + name: value for name, value in metrics.items()}
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
