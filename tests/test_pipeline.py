"""The reference pipeline at toy size: determinism across runs and worker counts, failures."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from moesig import _pool, pipeline
from moesig.cli import dispatch

REPO_ROOT = Path(__file__).resolve().parent.parent


def toy_config(path: Path, **proxy) -> Path:
    doc = json.loads((REPO_ROOT / "configs" / "reference_pipeline.json").read_text())
    doc.update(num_domains=3, n_per_domain=10, candidate_epochs=2)
    doc["proxy"].update(epochs=2, **proxy)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run_with_cpus(monkeypatch, cpus: int, config: Path, out: Path) -> dict[str, bytes]:
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
    assert dispatch(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 0
    return tree_bytes(out)


def test_pipeline_reruns_byte_identical_on_any_worker_count(tmp_path, monkeypatch):
    config = toy_config(tmp_path / "toy.json")
    first = run_with_cpus(monkeypatch, 2, config, tmp_path / "a")
    second = run_with_cpus(monkeypatch, 2, config, tmp_path / "b")
    serial = run_with_cpus(monkeypatch, 1, config, tmp_path / "c")
    # teacher proxy plus a candidate and its proxy per (domain, kind)
    assert sum(name.startswith("models/") for name in first) == 1 + 3 * 2 * 2
    assert sum(name.startswith("traces/") for name in first) == 1 + 3 * 2
    assert {"queries.jsonl", "manifest.json", "report.csv", "report.json"} <= set(first)
    assert second == first
    assert serial == first


def test_pipeline_out_dir_does_not_depend_on_stack_split(tmp_path, monkeypatch):
    # proxies train in stacks, one contiguous run of fits per CPU; the artifacts must not
    # depend on how the fits are cut into stacks
    config = toy_config(tmp_path / "toy.json")
    three = run_with_cpus(monkeypatch, 3, config, tmp_path / "three")
    serial = run_with_cpus(monkeypatch, 1, config, tmp_path / "serial")

    cuts = []

    def uneven(items, _parts):
        # runs of 1, 2, 3, ... fits, whatever the CPU count
        items, runs = list(items), []
        while items:
            runs.append(items[: len(runs) + 1])
            items = items[len(runs[-1]) :]
        cuts.append([len(run) for run in runs])
        return runs

    monkeypatch.setattr(_pool, "split_runs", uneven)
    uneven_tree = run_with_cpus(monkeypatch, 2, config, tmp_path / "uneven")
    # the 6 candidates and the 7 proxies were cut as 1 + 2 + 3 and 1 + 2 + 3 + 1
    assert cuts == [[1, 2, 3], [1, 2, 3, 1]]
    assert three == serial
    assert uneven_tree == serial


def test_candidate_proxy_is_train_proxy_on_the_saved_candidate(tmp_path, monkeypatch):
    # a candidate's proxy sees the candidate only as a black box read from its model file, so
    # train-proxy with a shadow-model oracle on that file and the run's proxy config fits it again
    config = toy_config(tmp_path / "toy.json")
    run = tmp_path / "run"
    run_with_cpus(monkeypatch, 2, config, run)
    doc = json.loads(config.read_text())
    proxy = {**doc["proxy"], "input_dim": doc["input_dim"], "output_dim": doc["output_dim"],
             "seed": pipeline._sub_seed(doc["seed"], "proxy-shared-init")}
    (tmp_path / "proxy.json").write_text(json.dumps(proxy), encoding="utf-8")
    (tmp_path / "oracle.json").write_text(json.dumps({"kind": "shadow-model", "path": "run/models/d1_kd.bin"}),
                                          encoding="utf-8")
    assert dispatch(["train-proxy", "--oracle", str(tmp_path / "oracle.json"), "--queries",
                     str(run / "queries.jsonl"), "--config", str(tmp_path / "proxy.json"),
                     "--out", str(tmp_path / "proxy.bin"), "--traces", str(tmp_path / "traces.jsonl")]) == 0
    assert (tmp_path / "proxy.bin").read_bytes() == (run / "models" / "proxy_d1_kd.bin").read_bytes()
    (header, *records), (run_header, *run_records) = (
        path.read_text(encoding="utf-8").splitlines() for path in (tmp_path / "traces.jsonl",
                                                                    run / "traces" / "d1_kd.jsonl"))
    assert records == run_records
    header, run_header = json.loads(header), json.loads(run_header)
    assert run_header.pop("model_id") == "d1-kd-proxy"
    header.pop("model_id")
    assert header == run_header


def test_pipeline_config_missing_field(tmp_path, caplog):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 1, "num_domains": 2}), encoding="utf-8")
    code = dispatch(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    (message,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "missing field(s)" in message and "n_per_domain" in message


def test_diverging_proxy_in_worker_fails_with_one_error(tmp_path, monkeypatch, caplog, capfd):
    config = toy_config(tmp_path / "diverge.json", learning_rate=1e6)
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    code = dispatch(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    (message,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "non-finite" in message or "diverged" in message
    # nothing reached the stderr file descriptor from the workers either
    assert capfd.readouterr().err == ""


def test_diverging_pipeline_cli_prints_one_stderr_line(tmp_path):
    config = toy_config(tmp_path / "diverge.json", learning_rate=1e6)
    proc = subprocess.run(
        [sys.executable, "-m", "moesig.cli", "pipeline", "--config", str(config),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("ERROR")] == lines[-1:], proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
