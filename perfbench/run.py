"""The repository's benchmark: four workloads, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload fleet-1k --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with layer timing off:
set-up time in cold interpreters, then executions of the workload for
``--seconds`` seconds (after one untimed warm-up), reporting medians.
Times are in reference seconds, corrected for the host's speed while
they were measured (see ``calibrate``).
``--trace 1`` alternates layer-traced and untraced executions for
``--seconds`` seconds and reports the per-layer metrics (medians over
the traced executions), the tracing overhead, and one ``tracemalloc``
pass for bytes per client.

Every execution's outputs are checked, and its deterministic
fingerprint must match the run's first execution and every earlier run
in ``perfbench/history.jsonl`` with the same workload, seed, size and
source. Each run appends one line, tagged with the host and the source,
to that history; a ``--trace 1`` run also writes the spans of its last
traced execution to ``perfbench/layer-trace-<workload>.json``. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HISTORY = HERE / "history.jsonl"

#: Cold-interpreter set-ups per ``--trace 0`` run (the median is
#: reported).
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, bad input)."""


# ----------------------------------------------------------------------
# Provenance.
# ----------------------------------------------------------------------

def host_tag() -> Dict[str, Any]:
    """CPU model, core count and Python version: numbers are only
    comparable between runs with the same tag."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def tree_digest(root: Path) -> str:
    """Content hash of every ``.py`` file under ``root``."""
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_history() -> List[Dict[str, Any]]:
    if not HISTORY.exists():
        return []
    entries = []
    for line in HISTORY.read_text().splitlines():
        try:
            entries.append(json.loads(line))
        except ValueError:
            continue
    return entries


# ----------------------------------------------------------------------
# Executions.
# ----------------------------------------------------------------------

class Execution(NamedTuple):
    """One setup + execute + check of a workload."""

    wall_s: float
    result: Any
    #: Reference seconds per measured second around the execution.
    scale: float


class Runner:
    """Drives one workload at one seed inside a private work directory."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.executions = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.fingerprint: Optional[str] = None
        self.first_outputs: Dict[str, Any] = {}
        #: Per-execution samples of the timed executions, for the history.
        self.samples: Dict[str, List[float]] = {}

    def execute(self, calibrated: bool = False) -> Execution:
        """One execution; when ``calibrated``, a ``SpeedProbe`` runs
        during the timed part."""
        outdir = self.work / f"exec-{self.executions}"
        self.executions += 1
        outdir.mkdir(parents=True)
        gc.collect()
        ready = self.workload.setup(self.seed)
        probe = calibrate.SpeedProbe(self.work / "speed")
        with probe if calibrated else contextlib.nullcontext():
            started = time.perf_counter()
            result = self.workload.execute(ready, outdir)
            wall = time.perf_counter() - started
        scale = probe.reference_s(wall) / wall if calibrated else 1.0
        shutil.rmtree(probe.spill, ignore_errors=True)
        del ready
        attempted, failed = self.workload.check(result, outdir)
        shutil.rmtree(outdir)
        fingerprint = digest(self.workload.fingerprint(result))
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            self.first_outputs = result.outputs
        elif fingerprint != self.fingerprint:
            result.problems.append(
                f"fingerprint {fingerprint} != first execution's "
                f"{self.fingerprint}")
            failed = attempted
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(result.problems)
        return Execution(wall, result, scale)


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cold_setup_s(workload: str, seed: int, size: str) -> float:
    """Set-up time of one cold interpreter, in reference seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         size], capture_output=True, text=True, cwd=str(ROOT), timeout=120)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["reference_s"]


def end_to_end(runner: Runner, seconds: float, size: str) -> Dict[str, float]:
    """End-to-end metrics in reference seconds (see ``calibrate``)."""
    runner.execute()                        # warm-up, untimed
    executions = []
    deadline = time.perf_counter() + seconds
    while not executions or time.perf_counter() < deadline:
        executions.append(runner.execute(calibrated=True))
    rss = peak_rss_mb()
    setups = [cold_setup_s(runner.workload.name, runner.seed, size)
              for _ in range(SETUP_REPEATS)]
    runner.samples.update(wall_s=[e.wall_s for e in executions],
                          run_s=[e.result.run_s for e in executions],
                          scale=[e.scale for e in executions],
                          setup_s=setups)
    run_s = [e.result.run_s * e.scale for e in executions]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(e.wall_s * e.scale for e in executions),
        "rounds_per_s": statistics.median(
            e.result.rounds / run for e, run in zip(executions, run_s)),
        "trials_per_s": statistics.median(
            e.result.worlds / run for e, run in zip(executions, run_s)),
        "peak_rss_mb": rss,
    }


def layered(runner: Runner, seconds: float) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics and the layer fingerprint of the run."""
    import layers

    runner.execute()                        # warm-up, untimed
    spill = runner.work / "spill"
    traced: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    plain_walls: List[float] = []
    fingerprints = set()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        with layers.LayerTracer(spill) as tracer:
            execution = runner.execute()
        tracer.collect()
        result = execution.result
        if layers.span_stats(tracer.span_sets()).get(
                "campaign.trial", (0,))[0] not in (0, result.worlds):
            print("warning: some worker processes left no spans "
                  "(not forked?)", file=sys.stderr)
        traced.append(layers.layer_metrics(
            tracer, result.counters, result.outputs.get("trace_spans", 0)))
        traced_walls.append(execution.wall_s)
        fingerprints.add(digest(layers.layer_fingerprint(tracer)))
        last_spans = tracer.span_sets()
        del tracer
        plain_walls.append(runner.execute().wall_s)
    # The spans of the last traced execution, one list per process
    # (``[name, start, end, parent index]``), for inspection.
    (HERE / f"layer-trace-{runner.workload.name}.json").write_text(
        json.dumps({"seed": runner.seed, "processes": last_spans}))
    with layers.LayerTracer(spill, memory=True) as tracer:
        runner.execute()
    tracer.collect()
    metrics = {name: statistics.median(sample[name] for sample in traced)
               for name in traced[0]}
    metrics.update(layers.memory_metrics(tracer))
    metrics["layer_trace.overhead"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls))
    if len(fingerprints) != 1:
        runner.problems.append("layer fingerprints differ between executions")
        runner.failed = runner.attempted
    return metrics, sorted(fingerprints)[0]


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

def check_against_fleet(runner: Runner, size: str, work: Path) -> None:
    """The sharded population must reproduce ``fleet-1k``'s victim
    fraction at the same seed. Every execution has the first one's
    fingerprint, which holds the victim fraction, so one check covers
    the run."""
    import workloads

    reference = Runner(workloads.make("fleet-1k", size), runner.seed, work)
    expected = reference.execute().result.outputs["victim_fraction"]
    victim = runner.first_outputs["victim_fraction"]
    if abs(victim - expected) > workloads.VICTIM_TOLERANCE:
        runner.problems.append(
            f"victim fraction {victim:.4f} not within "
            f"{workloads.VICTIM_TOLERANCE} of fleet-1k's {expected:.4f}")
        runner.failed = runner.attempted


def load_units() -> Dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for group in ("end_to_end", "per_layer")
            for metric in declared[group]}


def check_history(entry: Dict[str, Any], runner: Runner) -> None:
    """Fingerprints must match every earlier run of the same code,
    workload, seed and size."""
    for old in read_history():
        if any(old.get(key) != entry[key] for key in
               ("workload", "seed", "size", "source_digest", "bench_digest")):
            continue
        for key in ("fingerprint", "layer_fingerprint"):
            if entry.get(key) and old.get(key) and old[key] != entry[key]:
                runner.problems.append(
                    f"{key} {entry[key]} != {old[key]} of the run at "
                    f"{old.get('time')}")
                runner.failed = runner.attempted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full",
                        help="size profile: full (default) or smoke")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    if args.size not in workloads.SIZES:
        raise BenchError(f"unknown size {args.size!r}")
    units = load_units()

    workload = workloads.make(args.workload, args.size)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, work)
        layer_fingerprint = None
        if args.trace == 0:
            metrics = end_to_end(runner, args.seconds, args.size)
        else:
            metrics, layer_fingerprint = layered(runner, args.seconds)
        if isinstance(workload, workloads.MegafleetSharded):
            check_against_fleet(runner, args.size, work / "reference")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    entry = {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": host_tag(), "git_sha": git_sha(),
        "source_digest": tree_digest(SRC), "bench_digest": tree_digest(HERE),
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "executions": runner.executions,
        "fingerprint": runner.fingerprint,
        "layer_fingerprint": layer_fingerprint,
    }
    check_history(entry, runner)
    if args.trace == 0:
        metrics["ok_fraction"] = 1.0 - runner.failed / runner.attempted
    entry.update(attempted=runner.attempted, failed=runner.failed,
                 problems=runner.problems[:20], metrics=metrics,
                 samples=runner.samples)
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
