"""Tests of the benchmark itself: python3 -m pytest perfbench/test_bench.py"""

from __future__ import annotations

import json
import time

import pytest

import run
import tracer

SMALL_SWEEP = 6


def small_sweep(seed: int, mode: str = "verify") -> run.Command:
    args = ("sweep", f"--d-max={SMALL_SWEEP}", f"--mode={mode}", f"--seed={seed}")
    return run.Command(args, mode, d_max=SMALL_SWEEP)


def launch(command: run.Command, tmp_path, traced: bool = False) -> tuple[run.Launch, bytes]:
    tmp_path.mkdir(exist_ok=True)
    runner = run.Runner(tmp_path, time.perf_counter() + 120)
    result = runner.launch(command, traced)
    (stdout,) = [path.read_bytes() for path in runner.outputs.values()]
    return result, stdout


def gate_failures(command: run.Command, stdout: bytes, returncode: int = 0) -> int:
    attempted, failed = run.count_failures(command, returncode, stdout, run.load_reference())
    assert attempted == len(command.expected())
    return failed


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_counts_repeat_exactly_and_self_times_add_up(tmp_path):
    first, _ = launch(small_sweep(1), tmp_path / "a", traced=True)
    second, _ = launch(small_sweep(2), tmp_path / "b", traced=True)
    (a, absent), (b, _) = run.layer_values([first]), run.layer_values([second])
    assert absent == []
    counts = [
        k
        for k in a
        if k.endswith((".calls", ".rows", ".cells", "_ratio", "_per_partition")) or k == "trace.spans"
    ]
    assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["oracle.verify.calls"] == len(small_sweep(1).expected())
    self_total = sum(a[f"{layer}.self_s"] for layer in run.LAYERS)
    assert self_total == pytest.approx(a["cli.s"], rel=1e-9)


def test_gate_counts_every_bad_verify_record(tmp_path):
    command = small_sweep(3)
    _, good = launch(command, tmp_path)
    lines = good.splitlines()
    assert gate_failures(command, good) == 0
    assert gate_failures(command, good, returncode=1) == len(command.expected())

    record = json.loads(lines[4])
    record["measured"]["hilbert"][0] += 1
    record["predicted"]["hilbert"][0] += 1
    record["report_field_added_later"] = True  # new fields alone never fail
    tampered = lines[:4] + [json.dumps(record).encode()] + lines[5:]
    assert gate_failures(command, b"\n".join(tampered)) == 1

    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert gate_failures(command, b"\n".join(swapped)) == 2
    assert gate_failures(command, b"\n".join(lines[:-3])) == 2  # drops two records and the summary


def test_gate_rederives_classify_records(tmp_path):
    command = small_sweep(0, mode="classify")
    _, good = launch(command, tmp_path)
    assert gate_failures(command, good) == 0
    lines = good.splitlines()
    record = json.loads(lines[-1])
    record["delta2"] += 1
    assert gate_failures(command, b"\n".join(lines[:-1] + [json.dumps(record).encode()])) == 1


def test_missing_function_reads_absent_and_zero(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    recorder = tracer.Recorder()
    recorder.install([("secantlines.oracle", "no_such_function", "oracle.tangent_slice", None)])
    assert recorder.absent == ["oracle.tangent_slice"]
    trace_path = tmp_path / "trace.json"
    recorder.dump(str(trace_path))
    crashed = run.Launch(1.0, 1.0, 1.0, 1, 0, tmp_path / "never-written.json")
    values, absent = run.layer_values([run.Launch(1.0, 1.0, 1.0, 0, 0, trace_path), crashed])
    assert absent == ["oracle.tangent_slice"]
    assert values["trace.absent_layers"] == 1
    assert values["oracle.tangent_slice.calls"] == 0


def test_yardstick_checks_its_output(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 60)
    assert runner.yardstick() > 0
