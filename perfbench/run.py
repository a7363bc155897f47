"""gossipvote benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gossipvote checkout; the program is imported from
./src. The workload's inputs are generated from --seed into a scratch
directory (.perfbench_work/), and every run of the program is a fresh process
calling gossipvote.cli.main on them, repeated until --seconds have passed.
Every run's outputs are checked and digested; all runs of one seed must
produce identical bytes.

--trace 0 reports the end-to-end metrics: wall_s (mean run wall time),
setup_s (median of fresh processes that import gossipvote and parse the
inputs, one after each timed run), agent_ticks_per_s (exact agent-ticks of
one run / wall_s) and peak_rss_mb (the run process plus its workers). The
two times are scaled by the host's speed, measured with calibrate.py's
reference loop between the runs. failed_frac is reported as
failed / attempted.

--trace 1 alternates plain runs with runs under the span tracer (traced_cli.py),
once with every function wrapped and once with engine.step alone, and reports
the per-layer metrics of layers.py, with the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S, reference_loop  # noqa: E402
from tracer import load_spans  # noqa: E402

SETUP_REPEATS = 7
# Reference-loop time per second of program time. The scaled time's noise is
# the program's jitter plus the loop's; more loop time lowers the loop's
# share, less lowers the program's.
LOOP_SHARE = 0.6
REP_TIMEOUT_S = 150.0
RSS_POLL_S = 0.02
DIGESTS_PATH = os.path.join(HERE, "digests.json")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "agent_ticks_per_s": "1/s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or set-up itself fails)."""


@dataclass
class Rep:
    """One run of the program."""

    wall_s: float
    peak_rss_mb: float
    digest: str = ""
    agent_ticks: int | None = None
    error: str = ""
    trace_dir: str = ""


@dataclass
class Outcome:
    workload: str
    seed: int
    trace: int
    metrics: dict[str, float]
    attempted: int
    failed: int
    agent_ticks: int
    digest: str
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


# ---------------------------------------------------------------------------
# running the program


def _child_env(root: str, scratch: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = scratch
    return env


class _RssSampler(threading.Thread):
    """Polls the peak resident set (VmHWM) of a process and its descendants."""

    def __init__(self, proc: subprocess.Popen, deadline: float):
        super().__init__(daemon=True)
        self.proc = proc
        self.deadline = deadline
        self.peaks_kb: dict[int, int] = {}
        self.stopped = threading.Event()
        self.timed_out = False

    def run(self) -> None:
        while not self.stopped.wait(RSS_POLL_S):
            for pid in _tree(self.proc.pid):
                kb = _hwm_kb(pid)
                if kb > self.peaks_kb.get(pid, 0):
                    self.peaks_kb[pid] = kb
            if time.perf_counter() > self.deadline and not self.timed_out:
                self.timed_out = True
                self.proc.kill()


def _tree(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        try:
            for tid in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    todo.extend(int(child) for child in fh.read().split())
        except OSError:
            continue
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_program(cmd: list[str], cwd: str, env: dict[str, str]) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS in MiB).

    The peak is the process's own maximum RSS when it started no workers,
    else the sum of every process's sampled peak.
    """
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        sampler = _RssSampler(proc, start + REP_TIMEOUT_S)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            sampler.stopped.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    workers = [pid for pid in sampler.peaks_kb if pid != proc.pid]
    peak_kb = sum(sampler.peaks_kb.values()) if workers else usage.ru_maxrss
    code = -9 if sampler.timed_out else proc.returncode
    return code, wall, peak_kb / 1024.0


def _digest(rep_dir: str) -> str:
    sha = hashlib.sha256()
    with open(os.path.join(rep_dir, "stdout.txt"), "rb") as fh:
        sha.update(fh.read())
    out_dir = os.path.join(rep_dir, "out")
    for base, dirs, files in sorted(os.walk(out_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            sha.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                sha.update(fh.read())
    return sha.hexdigest()


class Runner:
    """Runs one prepared workload repeatedly under a scratch directory."""

    def __init__(self, root: str, scratch: str, prepared: workloads.Prepared):
        self.root = root
        self.scratch = scratch
        self.prepared = prepared
        self.env = _child_env(root, scratch)
        self.count = 0
        # The CPUs that the program and the reference loops run on.
        self.cpus = sorted(os.sched_getaffinity(0))

    def rep(self, trace: tuple[str, ...] | None = None) -> Rep:
        """One run; trace None runs the plain CLI, else the tracer restricted to
        `trace` (empty: every function)."""
        self.count += 1
        rep_dir = os.path.join(self.scratch, f"rep{self.count:03d}")
        os.makedirs(rep_dir)
        env = self.env
        if trace is None:
            cmd = [sys.executable, "-m", "gossipvote", *self.prepared.argv]
        else:
            env = {**env, "PERFBENCH_TRACE_DIR": os.path.join(rep_dir, "trace")}
            os.makedirs(env["PERFBENCH_TRACE_DIR"])
            only = [arg for name in trace for arg in ("--only", name)]
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), *only, "--",
                   *self.prepared.argv]
        code, wall, peak = run_program(cmd, rep_dir, env)
        rep = Rep(wall_s=wall, peak_rss_mb=peak)
        if trace is not None:
            rep.trace_dir = env["PERFBENCH_TRACE_DIR"]
        if code != 0:
            with open(os.path.join(rep_dir, "stderr.txt"), errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:] or [""]
            rep.error = f"exit code {code}: {tail[0]}"
            return rep
        with open(os.path.join(rep_dir, "stdout.txt")) as fh:
            stdout = fh.read()
        try:
            rep.agent_ticks = self.prepared.check(os.path.join(rep_dir, "out"), stdout)
        except workloads.CheckFailed as exc:
            rep.error = f"check failed: {exc}"
        rep.digest = _digest(rep_dir)
        shutil.rmtree(os.path.join(rep_dir, "out"), ignore_errors=True)
        return rep

    def setup(self) -> float:
        """Wall time of one fresh process that imports gossipvote and parses the inputs."""
        src = os.path.join(self.root, "src")
        code = (f"import gossipvote, sys\n"
                f"if not gossipvote.__file__.startswith({src!r}): sys.exit(3)\n"
                f"{self.prepared.load}\n")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=self.scratch, env=self.env,
                              capture_output=True, timeout=60)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError("set-up failed: "
                             + (done.stderr.decode(errors="replace").strip()
                                or f"gossipvote not imported from {src}"))
        return wall


# ---------------------------------------------------------------------------
# one workload run


def run_workload(root: str, name: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> Outcome:
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "src", "gossipvote", "cli.py")):
        raise BenchError(f"no gossipvote sources under {os.path.join(root, 'src')}; "
                         "run from the root of a gossipvote checkout")
    scratch = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    allowed = os.sched_getaffinity(0)
    try:
        prepared = workloads.prepare(name, seed, os.path.join(scratch, "inputs"), tiny=tiny)
        runner = Runner(root, scratch, prepared)
        if prepared.workers == 1:
            # Each vCPU of a shared host changes speed on its own. On one CPU,
            # the reference loops time the CPU that the program runs on.
            runner.cpus = runner.cpus[-1:]
            os.sched_setaffinity(0, set(runner.cpus))
        if trace:
            return _traced(runner, name, seed, seconds)
        return _timed(runner, name, seed, seconds)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass


def _timed(runner: Runner, name: str, seed: int, seconds: float) -> Outcome:
    """Timed runs, each followed by one set-up sample and reference loops.

    The first run is not measured: it warms the caches and, traced with
    engine.step alone, counts the agent-ticks, which sweep and forecast
    outputs do not state. The reference loop (calibrate.py) runs before the
    first timed run and after every run and set-up sample, for LOOP_SHARE
    of their time. Each run and sample is scaled by REFERENCE_S over the
    mean of the loops just before and just after it, which takes out the
    host's changes of speed that last longer than a run; wall_s and setup_s
    are the medians of the scaled times.
    """
    started = time.perf_counter()
    counted = runner.rep(trace=("engine.step",))
    if not counted.error:
        stats = layers.span_stats(load_spans(counted.trace_dir))
        counted.agent_ticks = int(stats.get("engine.step", {}).get("bytes", 0))
        shutil.rmtree(counted.trace_dir)
    before = _reference_loops(0.0, runner.cpus)
    reps: list[Rep] = []
    walls: list[float] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    rounds: list[float] = []
    # At least two runs, so that every run's bytes are compared with another's.
    while len(reps) < 2 or _room(started, seconds, rounds):
        round_start = time.perf_counter()
        rep = runner.rep()
        setup = runner.setup()
        after = _reference_loops(LOOP_SHARE * (time.perf_counter() - round_start), runner.cpus)
        rounds.append(time.perf_counter() - round_start)
        scale = REFERENCE_S / statistics.mean(before + after)
        reps.append(rep)
        if not rep.error:
            walls.append(rep.wall_s * scale)
        setups.append(setup * scale)
        raw_setups.append(setup)
        before = after
    while len(setups) < SETUP_REPEATS:
        setup = runner.setup()
        after = _reference_loops(LOOP_SHARE * setup, runner.cpus)
        setups.append(setup * REFERENCE_S / statistics.mean(before + after))
        raw_setups.append(setup)
        before = after
    out = _outcome(name, seed, 0, [counted] + reps)
    ok = [rep for rep in reps if not rep.error] or reps
    wall = statistics.median(walls or [rep.wall_s for rep in reps])
    out.metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "agent_ticks_per_s": out.agent_ticks / wall,
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in ok),
    }
    raw_wall = statistics.median(rep.wall_s for rep in ok)
    out.notes.append(f"{len(reps)} timed runs and {len(setups)} set-up samples; unscaled "
                     f"wall_s {raw_wall:.4f} s, setup_s {statistics.median(raw_setups):.4f} s; "
                     f"CPUs {', '.join(map(str, runner.cpus))}")
    return out


def _traced(runner: Runner, name: str, seed: int, seconds: float) -> Outcome:
    """Rounds of three runs: plain, every function traced, engine.step alone traced."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    step_only: list[Rep] = []
    runs: list[dict[str, float]] = []
    step_runs = []
    missing: set[str] = set()
    started = time.perf_counter()
    while not traced or _room(started, seconds, [a.wall_s + b.wall_s + c.wall_s
                                                 for a, b, c in zip(plain, traced, step_only)]):
        plain.append(runner.rep())
        rep = runner.rep(trace=())
        traced.append(rep)
        step_rep = runner.rep(trace=("engine.step",))
        step_only.append(step_rep)
        if rep.error or step_rep.error:
            continue
        procs = load_spans(rep.trace_dir)
        shutil.rmtree(rep.trace_dir)
        metrics = layers.derive(procs)
        runs.append(metrics)
        step_runs.append(layers.step_timing(load_spans(step_rep.trace_dir)))
        shutil.rmtree(step_rep.trace_dir)
        for proc in procs:
            missing.update(proc["missing"])
        if rep.agent_ticks is not None and rep.agent_ticks != metrics["engine.agent_ticks"]:
            rep.error = (f"traced agent-ticks {metrics['engine.agent_ticks']:.0f} differ "
                         f"from the outputs' {rep.agent_ticks}")
    out = _outcome(name, seed, 1, plain + traced + step_only)
    if runs:
        out.metrics = layers.combine(runs, step_runs, [r.wall_s for r in traced],
                                     [r.wall_s for r in plain])
        samples = sum(us.size for _, us in step_runs)
        out.agent_ticks = int(out.metrics["engine.agent_ticks"])
        out.notes.append(f"{len(traced)} fully traced, {len(step_only)} step-only traced "
                         f"and {len(plain)} plain runs; "
                         f"engine.step.us_per_agent_tick.tail is p{layers.tail_level(samples):g} "
                         f"of {samples} steps")
    else:
        out.metrics = {metric[0]: 0.0 for metric in layers.LAYER_METRICS}
    if missing:
        out.notes.append("not found, so not traced: " + ", ".join(sorted(missing)))
    return out


def _reference_loops(seconds: float, cpus: list[int]) -> list[float]:
    """Reference loops, taking turns on `cpus`, at least one on each, until
    they have taken `seconds`."""
    allowed = os.sched_getaffinity(0)
    loops: list[float] = []
    try:
        while len(loops) < len(cpus) or sum(loops) < seconds:
            os.sched_setaffinity(0, {cpus[len(loops) % len(cpus)]})
            loops.append(reference_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return loops


def _room(started: float, seconds: float, rounds: list[float]) -> bool:
    """Whether one more round, as long as the median so far, ends within `seconds`."""
    return time.perf_counter() - started + statistics.median(rounds) <= seconds


def _outcome(name: str, seed: int, trace: int, reps: list[Rep]) -> Outcome:
    """Failure counts, digest agreement and the agent-tick count over all runs."""
    errors = []
    good = [rep for rep in reps if not rep.error]
    digest = good[0].digest if good else ""
    for rep in good:
        if rep.digest != digest:
            rep.error = f"output digest {rep.digest[:16]} differs from {digest[:16]}"
    ticks = {rep.agent_ticks for rep in reps if not rep.error and rep.agent_ticks is not None}
    if len(ticks) > 1:
        errors.append(f"agent-tick counts differ between runs: {sorted(ticks)}")
    failed = [rep for rep in reps if rep.error]
    errors.extend(sorted({rep.error for rep in failed}))
    return Outcome(workload=name, seed=seed, trace=trace, metrics={}, attempted=len(reps),
                   failed=len(failed), agent_ticks=min(ticks) if ticks else 0,
                   digest=digest, errors=errors)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


# ---------------------------------------------------------------------------
# digests


def load_digests() -> dict:
    try:
        with open(DIGESTS_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def digest_status(outcome: Outcome, record: bool) -> str:
    digests = load_digests()
    known = digests.get(outcome.workload, {}).get(str(outcome.seed))
    if record and outcome.correct:
        digests.setdefault(outcome.workload, {})[str(outcome.seed)] = outcome.digest
        with open(DIGESTS_PATH, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if known is None:
        return "no digest recorded for this seed"
    if known == outcome.digest:
        return "unchanged from the recorded digest"
    return f"CHANGED: recorded {known[:16]}"


# ---------------------------------------------------------------------------
# command line


def report(outcome: Outcome, digest_note: str) -> list[str]:
    lines = [f"workload {outcome.workload}  seed {outcome.seed}  trace {outcome.trace}"]
    for name, value in outcome.metrics.items():
        unit = END_TO_END_UNITS.get(name) or next(
            m[1] for m in layers.LAYER_METRICS if m[0] == name)
        lines.append(f"  {name:<42} {value:>16.6g} {unit}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    lines.append(f"  {'failed_frac':<42} {frac:>16.6g} ratio ({outcome.failed}/{outcome.attempted} runs)")
    lines.append(f"  agent_ticks {outcome.agent_ticks}")
    lines.append(f"  output digest {outcome.digest[:16]}: {digest_note}")
    lines.extend(f"  note: {note}" for note in outcome.notes)
    lines.extend(f"  error: {error}" for error in outcome.errors)
    return lines


def result_json(outcome: Outcome) -> str:
    units = dict(END_TO_END_UNITS, **{m[0]: m[1] for m in layers.LAYER_METRICS})
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this seed's output digest in digests.json")
    args = parser.parse_args(argv)
    try:
        outcome = run_workload(os.getcwd(), args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report(outcome, digest_status(outcome, args.record_digest)):
        print(line)
    print(result_json(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
