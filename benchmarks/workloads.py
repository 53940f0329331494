"""The three benchmark workloads: inputs, commands, artifacts and correctness gates.

Each workload is built from the benchmark seed into a work directory before
anything is timed. One *operation* is the command sequence a client runs per
loop iteration; every operation of a run gets the same inputs, so its
artifacts must be byte-identical to the first operation's.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REFERENCE_CONFIG = Path("configs/reference_pipeline.json")
GOLDEN_REPORT = Path("tests/data/golden_report.csv")
REFERENCE_SEED = 20250809


def golden_gate(report: Path, golden: Path) -> list[str]:
    """The reference-seed pipeline report must equal the golden report byte for byte."""
    if report.read_bytes() != golden.read_bytes():
        return [f"{report.name} differs from {golden}"]
    return []


def identity_gate(first: list[Path], current: list[Path]) -> list[str]:
    """Artifacts of a repeated operation must be byte-identical to the first operation's."""
    return [
        f"{b.name} differs from the first operation's copy"
        for a, b in zip(first, current)
        if a.read_bytes() != b.read_bytes()
    ]


def read_sweep(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def sweep_accuracy(rows: list[dict]) -> dict[float, float]:
    """Fraction of scenarios per rho in which the distilled member won."""
    by_rho: dict[float, list[int]] = {}
    for row in rows:
        by_rho.setdefault(float(row["rho"]), []).append(int(row["correct"]))
    return {rho: sum(v) / len(v) for rho, v in sorted(by_rho.items())}


def sweep_gate(rows: list[dict], expected_rows: int) -> list[str]:
    """Row count matches the grid, and rho = 1.0 is detected every time (criterion 6)."""
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"sweep wrote {len(rows)} rows, expected {expected_rows}")
    acc = sweep_accuracy(rows).get(1.0)
    if acc != 1.0:
        errors.append(f"sweep accuracy at rho=1.0 is {acc}, must be exactly 1.0")
    return errors


class Workload:
    """Defaults shared by the workloads; subclasses set name, item, items."""

    min_ops = 2  # operations a run makes even when the first ones use up its time

    def prepare_commands(self) -> list[list[str]]:
        """CLI commands that generate inputs before timing starts."""
        return []


class PipelineRef(Workload):
    """``moesig pipeline`` on the reference config, reseeded from the benchmark seed."""

    name = "pipeline-ref"
    item = "fits"
    # an operation takes 12 to 19 s, so a third would never fit into a run;
    # the median of three drops one slow operation
    min_ops = 3

    def __init__(self, root: Path, work: Path, seed: int, toy: bool):
        doc = json.loads((root / REFERENCE_CONFIG).read_text(encoding="utf-8"))
        doc["seed"] = seed
        if toy:
            doc.update(num_domains=3, n_per_domain=10, candidate_epochs=2)
            doc["proxy"]["epochs"] = 2
        self.config = work / "pipeline.json"
        self.config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        # teacher proxy, then per domain: kd and scratch models plus their two proxies
        self.items = 1 + 4 * int(doc["num_domains"])
        reference = seed == REFERENCE_SEED and not toy
        self.golden = root / GOLDEN_REPORT if reference else None

    def commands(self, out: Path) -> list[list[str]]:
        return [["pipeline", "--config", str(self.config), "--out-dir", str(out)]]

    def artifacts(self, out: Path) -> list[Path]:
        return [out / "report.csv", out / "report.json"]

    def check(self, out: Path) -> list[str]:
        return golden_gate(out / "report.csv", self.golden) if self.golden else []

    def accuracy(self, out: Path) -> dict[str, float]:
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return {"": float(doc["accuracy"])}


class SweepE8(Workload):
    """``moesig sweep`` in auto (exact, E = 8) mode over a criterion-6 shaped grid."""

    name = "sweep-e8"
    item = "scenarios"
    rhos = (0.3, 0.5, 0.9, 1.0)

    def __init__(self, root: Path, work: Path, seed: int, toy: bool):
        base = {
            "num_experts": 5 if toy else 8,
            "num_layers": 1,
            "top_k": 2,
            "num_domains": 9,
            "n_per_domain": 40 if toy else 200,
            "permute_labels": True,
        }
        seeds = [seed + i for i in range(1 if toy else 2)]
        self.grid = work / "grid.json"
        self.grid.write_text(
            json.dumps({"base": base, "rho": list(self.rhos), "seeds": seeds}, indent=2) + "\n",
            encoding="utf-8",
        )
        self.items = len(self.rhos) * len(seeds)

    def commands(self, out: Path) -> list[list[str]]:
        return [["sweep", "--grid", str(self.grid), "--out", str(out / "sweep.csv")]]

    def artifacts(self, out: Path) -> list[Path]:
        return [out / "sweep.csv"]

    def check(self, out: Path) -> list[str]:
        return sweep_gate(read_sweep(out / "sweep.csv"), self.items)

    def accuracy(self, out: Path) -> dict[str, float]:
        rows = read_sweep(out / "sweep.csv")
        acc = {"": sum(int(r["correct"]) for r in rows) / len(rows)}
        acc.update({f"rho{rho}": value for rho, value in sweep_accuracy(rows).items()})
        return acc


class TraceE64(Workload):
    """``moesig ingest`` on the teacher, then ``moesig detect``, at real MoE shape."""

    name = "trace-e64"
    item = "records"

    def __init__(self, root: Path, work: Path, seed: int, toy: bool):
        shape = (16, 4, 4, 30) if toy else (64, 8, 16, 500)
        experts, top_k, layers, n_per_domain = shape
        self.scenario_config = {
            "num_experts": experts,
            "num_layers": layers,
            "top_k": top_k,
            "num_domains": 9,
            "n_per_domain": n_per_domain,
            "relatedness": 0.5,
            "seed": seed,
        }
        (work / "scenario.json").write_text(json.dumps(self.scenario_config) + "\n", encoding="utf-8")
        self.scenario = work / "scenario"
        self.records_per_file = 9 * n_per_domain * layers
        # ingest reads the teacher file; detect reads teacher and both candidates
        self.items = 4 * self.records_per_file

    def prepare_commands(self) -> list[list[str]]:
        # synthgen writes teacher/cand1/cand2 JSONL
        work = self.scenario.parent
        return [["synth", "--config", str(work / "scenario.json"), "--out-dir", str(self.scenario)]]

    def commands(self, out: Path) -> list[list[str]]:
        s = self.scenario
        return [
            ["ingest", "--input", str(s / "teacher.jsonl"), "--out", str(out / "teacher.canonical.jsonl")],
            [
                "detect",
                "--teacher", str(s / "teacher.jsonl"),
                "--cand1", str(s / "cand1.jsonl"),
                "--cand2", str(s / "cand2.jsonl"),
                "--out", str(out / "verdict.json"),
            ],
        ]

    def artifacts(self, out: Path) -> list[Path]:
        return [out / "teacher.canonical.jsonl", out / "verdict.json"]

    def check(self, out: Path) -> list[str]:
        errors = []
        with (out / "teacher.canonical.jsonl").open(encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != self.records_per_file + 1:
            errors.append(f"canonical trace has {lines} lines, expected {self.records_per_file + 1}")
        verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
        if verdict.get("predicted") not in ("cand1", "cand2"):
            errors.append(f"verdict names no candidate: {verdict.get('predicted')!r}")
        return errors

    def accuracy(self, out: Path) -> dict[str, float]:
        manifest = json.loads((self.scenario / "manifest.json").read_text(encoding="utf-8"))
        verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
        return {"": float(verdict["predicted"] == manifest["distilled"])}


WORKLOADS = {w.name: w for w in (PipelineRef, SweepE8, TraceE64)}
