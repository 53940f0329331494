"""Self-test of the benchmark at toy sizes.

Run from the repository root::

    python3 -m pytest benchmarks/test_bench.py -q

Every workload runs once per mode; the test checks that every metric is
printed with its unit and that the correctness gates trip on corrupted
artifacts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import (
    GOLDEN_REPORT,
    WORKLOADS,
    golden_gate,
    identity_gate,
    read_sweep,
    sweep_gate,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the per-layer metrics the benchmark was specified with
LAYER_METRICS = """
cli.import_s cli.self_s
routing_trace.ingest_calls routing_trace.ingest_records routing_trace.ingest_s
routing_trace.ingest_records_per_s routing_trace.ingest_rss_mb routing_trace.write_s
routing_trace.write_mb routing_trace.build_s
signatures.bundle_calls signatures.bundle_s
transport.exact_calls transport.perms_evaluated transport.spec_exact_s transport.collab_exact_s
transport.spec_heuristic_s transport.collab_heuristic_s
transport.heuristic_gap_spec_mean transport.heuristic_gap_spec_max
transport.heuristic_gap_collab_mean transport.heuristic_gap_collab_max
detector.detect_calls detector.self_s detector.ties
detector.accuracy.rho0.3 detector.accuracy.rho0.5 detector.accuracy.rho0.9 detector.accuracy.rho1.0
shadow_moe.fits shadow_moe.train_s shadow_moe.steps shadow_moe.step_ms shadow_moe.train_self_s
shadow_moe.predict_s shadow_moe.export_s shadow_moe.save_s
synthgen.scenarios synthgen.generate_s synthgen.self_s
trace.overhead_pct
""".split()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = {line.split(" ", 1)[0]: line for line in lines[:-1]}
    for m in declared:
        assert printed[m["name"]].endswith(f" {m['unit']}")
    if trace:
        assert set(LAYER_METRICS) <= set(result["metrics"])
    else:
        item = WORKLOADS[workload].item
        assert printed[f"{item}_per_s"].endswith(f" {item}/s")
        assert printed["accuracy"].endswith(" fraction")
        assert printed["failed_ops"] == "failed_ops 0/{} operations".format(result["attempted"])


def test_golden_gate_trips_on_a_corrupted_report(tmp_path):
    report = tmp_path / "report.csv"
    shutil.copyfile(ROOT / GOLDEN_REPORT, report)
    assert golden_gate(report, ROOT / GOLDEN_REPORT) == []
    data = bytearray(report.read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    report.write_bytes(bytes(data))
    assert golden_gate(report, ROOT / GOLDEN_REPORT)


def test_identity_gate_trips_on_a_changed_artifact(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text('{"predicted": "cand1"}\n')
    second.write_text('{"predicted": "cand1"}\n')
    assert identity_gate([first], [second]) == []
    second.write_text('{"predicted": "cand2"}\n')
    assert identity_gate([first], [second])


def test_sweep_gate_trips_when_rho_one_is_missed(tmp_path):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(
        "# tool_version=0.1.0\n"
        "rho,seed,correct\n"
        "0.3,1,0\n"
        "1.0,1,1\n"
        "1.0,2,1\n"
    )
    assert sweep_gate(read_sweep(sweep), 3) == []
    sweep.write_text(sweep.read_text().replace("1.0,2,1", "1.0,2,0"))
    assert sweep_gate(read_sweep(sweep), 3)
    assert sweep_gate(read_sweep(sweep)[:2], 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-e8", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
