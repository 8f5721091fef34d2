"""jjtune benchmark: CLI campaigns timed end to end, layers timed from a trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The gated workloads are listed in
BENCHMARK.json; ``for w in wafer-anneal tune-campaign defect-survey; do
python3 perfbench/run.py --workload $w; done`` covers them all.
``tls-longscan`` also runs, by hand: it is too noisy to gate (see
predictions.json). The benchmark makes the workload's inputs from
``--seed``, then:

* ``--trace 0`` times fresh interpreters importing ``jjtune.cli``
  (``setup_s``), then runs passes of the workload's ``jjtune`` commands as
  subprocesses, one after the other (a closed loop with one client), for
  about ``--seconds``. It reports medians over passes. A fixed calibration
  kernel runs after every command, and each subprocess's start and work
  times are rescaled to a reference host speed by the kernel runs just
  before and after it (see hostspeed.py); the raw medians are in the stamp.
* ``--trace 1`` runs one CLI pass, then pairs of in-process passes of the
  same commands, untraced and traced, for about ``--seconds``; the traced
  pass gives the per-layer metrics (see layers.py).

Every command's outputs are checked: exit code 0, no traceback, the same
bytes in every pass and in the traced pass, the digests pinned for the
default seed, and the workload's physics check. The last line of standard
output is one JSON object: correct, attempted, failed (commands), metrics.
Spans and the full result are also written to .perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from hostspeed import Calibrated
from layers import LAYERS, install, layer_metrics
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
KERNEL = os.path.join(HERE, "kernel.py")
MIN_PASSES = 3
# A command's child writes the seconds main() took to the file named first.
CLI = ("import sys, time; from jjtune.cli import main; start = time.perf_counter(); "
       "code = main(sys.argv[2:]); open(sys.argv[1], 'w').write(repr(time.perf_counter() - start)); "
       "sys.exit(code)")
WORK_FILE = "work_s.txt"
CLI_LABELS = ("simulate_wafer", "plan", "tune", "tls_scan", "fit_tls")


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    code: int
    stderr: str
    work_s: float = 0.0  # seconds after the imports, as the child wrote to WORK_FILE

    @property
    def start_s(self) -> float:
        """Interpreter start, imports and exit: the wall time outside the work."""
        return self.wall_s - self.work_s


def run_child(argv: list[str], cwd: str, env: dict) -> Child:
    """Run one subprocess to completion; wall time and its own peak RSS.

    ``os.wait4`` returns the rusage of this child alone, unlike
    RUSAGE_CHILDREN, which keeps the maximum over every child ever reaped.
    A child that writes WORK_FILE in ``cwd`` reports its work time there.
    """
    work_file = os.path.join(cwd, WORK_FILE)
    with contextlib.suppress(FileNotFoundError):
        os.remove(work_file)
    with open(os.path.join(cwd, "stderr.log"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    child = Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, text)
    if os.path.exists(work_file):
        with open(work_file, encoding="utf-8") as handle:
            child.work_s = min(float(handle.read()), wall)
    return child


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(work: str, setup) -> list[dict[str, str | None]]:
    return [
        {f: sha256(os.path.join(work, f)) if os.path.exists(os.path.join(work, f)) else None
         for f in command.outputs}
        for command in setup.commands
    ]


def clear_outputs(work: str) -> None:
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)


class Judge:
    """Counts commands and the checks they fail, across every pass."""

    def __init__(self, workload, setup, work: str, pinned: dict | None) -> None:
        self.workload, self.setup, self.work, self.pinned = workload, setup, work, pinned
        self.reference: list[dict] | None = None
        self.physics: dict[int, list[str]] = {}
        self.facts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, where: str, codes: list[int], stderrs: list[str]) -> None:
        """Check the outputs now in the work directory, one pass's worth."""
        digests = output_digests(self.work, self.setup)
        if self.reference is None:
            self.reference = digests
            if all(code == 0 for code in codes):
                try:
                    self.physics, self.facts = self.workload.check(self.work, self.setup)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    self.physics = {0: [f"outputs unreadable: {exc!r}"]}
        for i, command in enumerate(self.setup.commands):
            found = []
            if codes[i] != 0:
                found.append(f"exit code {codes[i]}")
            if "Traceback (most recent call last)" in stderrs[i]:
                found.append("traceback on stderr")
            if None in digests[i].values():
                found.append("missing output")
            elif digests[i] != self.reference[i]:
                found.append("outputs differ from the first pass")
            if self.pinned is not None and digests[i] != {f: self.pinned.get(f) for f in digests[i]}:
                found.append("outputs differ from the pinned digests")
            found += self.physics.get(i, [])
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems.append(f"{where} {command.label}#{i}: " + "; ".join(found))


def cli_pass(setup, work: str, env: dict, clock: Calibrated) -> list[tuple[Child, int]]:
    """One pass of the workload's commands, each followed by the calibration kernel.

    Returns each child and its place on the clock.
    """
    clear_outputs(work)
    timed = []
    for command in setup.commands:
        timed.append(clock.run(lambda: run_child([sys.executable, "-c", CLI, WORK_FILE, *command.args],
                                                 work, env)))
        clock.mark()
    return timed


def inprocess_pass(setup, work: str, tracer=None) -> tuple[float, list[int], list[str]]:
    """Run the commands through ``jjtune.cli.main`` in this process.

    With a tracer, a root span covers the pass and a ``cli.<label>`` span
    covers each command. Returns wall time, exit codes and error texts.
    """
    from jjtune.cli import main

    clear_outputs(work)
    codes, errors = [], []
    sink = io.StringIO()
    outer = tracer.span("trace.pass") if tracer else contextlib.nullcontext()
    old_cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            with outer:
                for command in setup.commands:
                    inner = tracer.span(f"cli.{command.label}") if tracer else contextlib.nullcontext()
                    try:
                        with inner:
                            codes.append(main(list(command.args)))
                        errors.append("")
                    except Exception:  # a crash is a failed command, reported below
                        codes.append(-1)
                        errors.append(traceback.format_exc())
            wall = time.perf_counter() - start
    finally:
        os.chdir(old_cwd)
    return wall, codes, errors


def kernel_time(work: str, env: dict) -> tuple[float, float]:
    """Start and work seconds of one run of the calibration kernel."""
    child = run_child([sys.executable, KERNEL, WORK_FILE, "kernel.out"], work, env)
    if child.code != 0 or not child.work_s:
        raise SystemExit(f"calibration kernel failed:\n{child.stderr}")
    return child.start_s, child.work_s


def import_child(work: str, env: dict, clock: Calibrated) -> tuple[Child, int]:
    """A fresh interpreter importing jjtune.cli, and its place on the clock."""
    child, place = clock.run(lambda: run_child([sys.executable, "-c", "import jjtune.cli"], work, env))
    if child.code != 0:
        raise SystemExit(f"import jjtune.cli failed:\n{child.stderr}")
    return child, place


def measure_end_to_end(setup, work: str, env: dict, seconds: float, judge: Judge):
    start = time.perf_counter()
    clock = Calibrated(lambda: kernel_time(work, env))
    import_child(work, env, clock)  # the first import writes the .pyc files; not counted
    imports = [import_child(work, env, clock) for _ in range(SETUP_REPEATS)]
    clock.mark()
    passes, raw_walls, rss, laps = [], [], [], []
    while True:
        lap = time.perf_counter()
        # One more import per pass spreads the set-up samples over the run.
        imports.append(import_child(work, env, clock))
        timed = cli_pass(setup, work, env, clock)
        laps.append(time.perf_counter() - lap)
        children = [child for child, _ in timed]
        passes.append(timed)
        raw_walls.append(sum(c.wall_s for c in children))
        rss.append(max(c.peak_rss_mb for c in children))
        judge.judge(f"pass {len(passes)}", [c.code for c in children], [c.stderr for c in children])
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(laps) > seconds:
            break
    import_s = [clock.scaled(child.wall_s, 0.0, place) for child, place in imports]
    walls = [sum(clock.scaled(child.start_s, child.work_s, place) for child, place in timed)
             for timed in passes]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(import_s),
        "wall_s": wall,
        "units_per_s": setup.units / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"setup_s": len(imports), "wall_s": len(walls), "units_per_s": len(walls),
               "peak_rss_mb": len(rss)}
    extra = {
        "raw_setup_s": statistics.median(child.wall_s for child, _ in imports),
        "raw_wall_s": statistics.median(raw_walls),
        "import_s": import_s,
        "pass_wall_s": walls,
        "pass_raw_wall_s": raw_walls,
        "pass_raw_work_s": [sum(child.work_s for child, _ in timed) for timed in passes],
        "pass_peak_rss_mb": rss,
        "kernel_start_work_s": clock.kernels,
    }
    return metrics, samples, extra


def measure_layers(setup, work: str, env: dict, seconds: float, judge: Judge):
    start = time.perf_counter()
    clock = Calibrated(lambda: kernel_time(work, env))
    timed = cli_pass(setup, work, env, clock)
    children = [child for child, _ in timed]
    judge.judge("cli pass", [c.code for c in children], [c.stderr for c in children])
    cli_s: dict[str, float] = {}
    for command, (child, place) in zip(setup.commands, timed):
        cli_s[command.label] = cli_s.get(command.label, 0.0) + clock.scaled(child.start_s, child.work_s, place)
    def sizes(names):
        paths = [os.path.join(work, n) for n in names]
        return sum(os.path.getsize(p) for p in paths if os.path.exists(p))

    bytes_in = sum(sizes(c.inputs) for c in setup.commands)
    bytes_out = sum(sizes(c.outputs) for c in setup.commands)

    runs, overheads, all_spans, missing = [], [], [], []
    while not runs or time.perf_counter() - start + plain_s + traced_s < seconds:
        plain_s, codes, errors = inprocess_pass(setup, work)
        judge.judge("in-process pass", codes, errors)
        tracer = Tracer()
        missing = install(tracer)
        try:
            traced_s, codes, errors = inprocess_pass(setup, work, tracer)
        finally:
            tracer.restore()
        judge.judge("traced pass", codes, errors)
        overheads.append(traced_s / plain_s - 1.0)
        run = layer_metrics(tracer.spans, judge.facts)
        attributed = sum(run[f"{name}.self_s"] for name in LAYERS) + run["trace.unattributed_s"]
        if abs(attributed - run["trace.pass_s"]) > 1e-6 * run["trace.pass_s"]:
            judge.problems.append(f"layer self times add up to {attributed} s, "
                                  f"not the traced pass's {run['trace.pass_s']} s")
        runs.append(run)
        all_spans.append(tracer.spans)

    metrics = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    samples = {name: len(runs) for name in metrics}
    from_cli_pass = {f"cli.{label}_s": cli_s.get(label, 0.0) for label in CLI_LABELS}
    from_cli_pass.update({"io.bytes_in": bytes_in, "io.bytes_out": bytes_out})
    metrics.update(from_cli_pass)
    samples.update(dict.fromkeys(from_cli_pass, 1))
    with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "note"], "passes": all_spans},
                  handle, default=str)
    return metrics, samples, {"unwrapped": missing}


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "jjtune", "cli.py")):
        print(f"no jjtune sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "in"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)

    setup = workload.generate(args.seed, work)
    pinned = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
            pinned = json.load(handle)["workloads"].get(workload.name)
    judge = Judge(workload, setup, work, pinned)
    measure = measure_layers if args.trace else measure_end_to_end
    values, samples, extra = measure(setup, work, env, args.seconds, judge)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise SystemExit(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                         "are not both declared in BENCHMARK.json and measured")
    failed_frac = judge.failed / judge.attempted
    print(f"workload {workload.name}  seed {args.seed}  {setup.units} {workload.unit} per pass"
          f"  {len(setup.commands)} commands per pass")
    print(f"{'metric':32} {'value':>16} {'unit':>8} {'samples':>8}")
    for m in declared:
        print(f"{m['name']:32} {values[m['name']]:16.6g} {m['unit']:>8} {samples[m['name']]:8d}")
    print(f"{'failed_frac':32} {failed_frac:16.6g} {'frac':>8} {judge.attempted:8d}")
    for problem in judge.problems:
        print(f"FAILED {problem}")
    stamp = {
        "commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": workload.unit,
        "units_per_pass": setup.units,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "samples": samples | {"failed_frac": judge.attempted},
        "failed_frac": failed_frac,
        **extra,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": judge.failed == 0 and not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"stamp": stamp, "result": result}, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
