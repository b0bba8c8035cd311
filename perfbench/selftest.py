"""Self-test of the benchmark, at smoke size.

Run with ``python3 perfbench/selftest.py`` or
``python3 -m pytest perfbench/selftest.py``. The file name keeps it out
of the repository's default test collection: it runs the benchmark
itself, which takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

#: The sleep injected into every ``Message.decode`` call.
SLEEP_S = 0.002


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_self_times(work: Path, slow_decode: bool):
    """Layer self times of one layer-traced smoke ``fleet-1k``
    execution, and how many decode calls were slowed."""
    from repro.dns.message import Message

    original = Message.__dict__["decode"]
    slowed = [0]
    if slow_decode:
        decode = original.__func__

        def sleepy(cls, data):
            slowed[0] += 1
            time.sleep(SLEEP_S)
            return decode(cls, data)

        Message.decode = classmethod(sleepy)
    try:
        workload = workloads.make("fleet-1k", "smoke")
        outdir = work / "out"
        outdir.mkdir()
        with layers.LayerTracer(work / "spill") as tracer:
            workload.execute(workload.setup(1), outdir)
        tracer.collect()
    finally:
        Message.decode = original
    return layers.self_times(tracer.span_sets()), slowed[0]


def test_added_decode_time_lands_in_dns_codec_only():
    with tempfile.TemporaryDirectory() as base, \
            tempfile.TemporaryDirectory() as slow:
        baseline, _ = _traced_self_times(Path(base), slow_decode=False)
        slowed, calls = _traced_self_times(Path(slow), slow_decode=True)
    added = calls * SLEEP_S
    assert calls > 100
    assert slowed["dns.codec"] - baseline["dns.codec"] >= 0.9 * added
    for name in layers.SPAN_NAMES:
        if name != "dns.codec":
            grew = slowed.get(name, 0.0) - baseline.get(name, 0.0)
            assert grew < 0.1 * added, (name, grew, added)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


def test_every_declared_metric_is_printed_with_its_unit():
    declared = _declared()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        units = {metric["name"]: metric["unit"] for metric in declared[group]}
        for workload in declared["workloads"]:
            done = _run(ROOT, workload["name"], trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            assert printed == units, (workload["name"], trace)


def test_layer_trace_attributes_campaign_time_to_dh():
    """On the attack campaign, DH key generation and shared secrets
    are most of a trial, as profiling shows."""
    workload = workloads.make("attack-campaign", "smoke")
    with tempfile.TemporaryDirectory() as work:
        outdir = Path(work) / "out"
        outdir.mkdir()
        with layers.LayerTracer(Path(work) / "spill") as tracer:
            result = workload.execute(workload.setup(1), outdir)
        tracer.collect()
    metrics = layers.layer_metrics(tracer, result.counters, 0)
    assert metrics["campaign.trials"] == result.worlds
    dh = metrics["doh.keygen_s"] + metrics["doh.shared_secret_s"]
    assert dh >= 0.8 * metrics["campaign.trial_s"]


def test_reference_seconds_keep_program_changes():
    """The calibration slices follow the host, not the program: twice
    the work reads as about twice the reference time, and the slices
    import nothing from ``repro``."""
    import calibrate

    def timed(count: int) -> float:
        with calibrate.SpeedProbe() as probe:
            started = time.perf_counter()
            total = 0
            for index in range(count):
                total += index % 7
            wall = time.perf_counter() - started
        return probe.reference_s(wall)

    ratios = sorted(timed(4_000_000) / timed(2_000_000) for _ in range(5))
    assert 1.6 < ratios[2] < 2.5, ratios
    done = subprocess.run(
        [sys.executable, "-c", "import sys, calibrate; calibrate.slice_s(); "
         "sys.exit(any(name.split('.')[0] == 'repro' for name in sys.modules))"],
        cwd=str(HERE))
    assert done.returncode == 0


def _busy(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_forked_workers_probe_themselves():
    import multiprocessing

    import calibrate

    with tempfile.TemporaryDirectory() as work:
        with calibrate.SpeedProbe(Path(work) / "speed") as probe:
            with multiprocessing.get_context("fork").Pool(1) as pool:
                pool.apply(_busy, (0.4,))
        assert len(probe.worker_slices()) >= 3


def test_predictions_cover_every_per_layer_metric():
    predictions = json.loads((HERE / "predictions.json").read_text())
    names = {metric["name"] for metric in _declared()["per_layer"]}
    assert set(predictions["predictions"]) == names
    workload_names = {w["name"] for w in _declared()["workloads"]}
    end_to_end = {m["name"] for m in _declared()["end_to_end"]}
    for moves in predictions["predictions"].values():
        for move in moves:
            metric, _, workload = move.partition(" on ")
            assert metric in end_to_end and workload in workload_names, move


def test_refuses_to_run_without_program_source():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns(
                            "history.jsonl", "layer-trace-*", "__pycache__"))
        done = _run(Path(bare), "fleet-1k", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_mixed_hosts():
    import compare

    def entry(cpu, sha):
        return {"host": {"cpu": cpu, "nproc": 2, "python": "3.11.7"},
                "git_sha": sha, "source_digest": sha, "trace": 0,
                "workload": "fleet-1k", "seed": 1, "size": "full",
                "fingerprint": "f", "metrics": {"wall_s": 1.0}}

    with tempfile.TemporaryDirectory() as work:
        history = Path(work) / "history.jsonl"
        history.write_text(json.dumps(entry("cpu-a", "aaa")) + "\n"
                           + json.dumps(entry("cpu-b", "bbb")) + "\n")
        assert compare.main(["--history", str(history), "--base", "aaa",
                             "--head", "bbb"]) == 2


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as error:
                failures += 1
                print(f"FAIL {name}: {error!r}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failures else 0)
