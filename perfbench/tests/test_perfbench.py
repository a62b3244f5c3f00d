"""Self-test of the benchmark.  From the checkout root:

    python3 -m pytest perfbench/tests -q

Runs a two-command slice of the chain-classify workload, untraced and traced.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))

SLICE = [
    ["compare", "configs/vietoris2.cfg", "configs/quads.cfg"],
    ["classify", "configs/rt.cfg"],
]


def spec():
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_slice(reference, trace, tmp_path):
    # seconds=0: exactly one pass per mode
    return bench.run_workload(SLICE, reference, 0, 0, trace, tmp_path)


@pytest.fixture
def reference():
    return bench.load_reference("chain-classify")


def test_workloads_match_benchmark_json_and_references():
    workloads = bench.load_workloads()
    assert [w["name"] for w in spec()["workloads"]] == list(workloads)
    for name, workload in workloads.items():
        commands = {tuple(argv) for argv in workload["commands"]}
        assert set(bench.load_reference(name)) == commands


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(reference, tmp_path, trace, section):
    metrics, attempted, failed, _ = run_slice(reference, trace, tmp_path)
    assert failed == 0 and attempted >= len(SLICE)
    expected = {m["name"]: m["unit"] for m in spec()[section]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected


def test_corrupted_reference_is_reported(reference, tmp_path):
    argv_a, argv_b = (tuple(argv) for argv in SLICE)
    exit_code, report = reference[argv_a]
    reference[argv_a] = (exit_code, report.replace("success: true", "success: false"))
    exit_code, report = reference[argv_b]
    reference[argv_b] = (exit_code + 1, report)
    _, _, failed, notes = run_slice(reference, False, tmp_path)
    assert failed == 2
    assert "failed_frac: 1.0 ratio" in notes


def test_traced_and_untraced_passes_run_the_same_commands(reference, tmp_path, monkeypatch):
    calls = {False: [], True: []}
    real = bench.run_command

    def recording(argv, work_dir, deadline, traced):
        calls[traced].append(tuple(argv))
        return real(argv, work_dir, deadline, traced)

    monkeypatch.setattr(bench, "run_command", recording)
    _, _, failed, _ = run_slice(reference, True, tmp_path)
    assert failed == 0
    assert sorted(calls[False]) == sorted(calls[True]) == sorted(map(tuple, SLICE))
