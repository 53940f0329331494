"""The reference pipeline in the fully black-box setting, and its benchmark directory.

A pipeline run builds a synthetic teacher function and, per domain, a
genuinely distilled candidate (trained on teacher outputs) and a scratch
candidate (trained on an unrelated function). All models are then treated
as black boxes: a proxy is trained to mimic each one, every proxy starting
from the same initialization (the toy analog of building all proxies from
one shared pretrained checkpoint), the proxies' routing traces are exported
on the shared calibration queries, and the per-domain benchmark report is
emitted.

The fits form independent jobs: the teacher proxy, and one chain per
(domain, kind) that trains the candidate and then its proxy. Every job
rebuilds its oracles from the seed, so the jobs run on a process pool and
the artifacts do not depend on the number of workers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from moesig import __version__
from moesig._meta import (
    artifact_meta,
    config_digest,
    format_float,
    meta_comment,
    read_json,
    write_csv,
    write_json,
)
from moesig._pool import parallel_map
from moesig._rng import substream
from moesig.detector import BenchmarkReport, run_benchmark
from moesig.errors import MoesigError
from moesig.routing_trace import RoutingTraceSet, ingest_traces, write_traces
from moesig.shadow_moe import (
    Oracle,
    QuerySet,
    ShadowMoeConfig,
    _field_int,
    _field_number,
    export_traces,
    gaussian_domain_queries,
    mlp_oracle,
    train_proxy,
    write_queries,
)
from moesig.signatures import parse_layer_policy, resolve_layer
from moesig.transport import _resolve_mode

log = logging.getLogger("moesig")

REQUIRED_FIELDS = ("seed", "num_domains", "n_per_domain", "input_dim", "output_dim", "proxy")
KINDS = ("kd", "scratch")
REPORT_COLUMNS = (
    "domain", "d_spec_kd", "d_spec_scratch", "d_collab_kd", "d_collab_scratch",
    "spec_reduction_pct", "collab_reduction_pct", "margin", "verdict", "tie",
)


def emit_report(
    report: BenchmarkReport,
    path: str | Path,
    fmt: str = "csv",
    meta: dict | None = None,
) -> None:
    """Write a benchmark report with stable column order.

    The per-metric percent-reduction columns are negative when the distilled
    member sits closer to the teacher, matching the bar-chart annotation
    convention. CSV output carries the provenance block as a single leading
    comment line; JSON output embeds it as a ``meta`` object.
    """
    meta = dict(meta or {})
    meta.setdefault("tool_version", __version__)
    rows = [{c: getattr(r, c) for c in REPORT_COLUMNS} for r in report.rows]
    if fmt == "json":
        write_json(
            {
                "format": "moesig-benchmark-report",
                "version": 1,
                "accuracy": report.accuracy,
                "mean_margin": report.mean_margin,
                "layer_policy": report.layer_policy,
                "mode": report.mode,
                "rows": rows,
                "meta": meta,
            },
            path,
        )
        return
    if fmt != "csv":
        raise MoesigError(f"unknown report format {fmt!r} (expected csv or json)")
    comment = (
        f"accuracy={format_float(report.accuracy)} layer_policy={report.layer_policy} "
        f"mode={report.mode} {meta_comment(meta)}"
    )
    cells = [{**row, "tie": str(row["tie"]).lower()}.values() for row in rows]
    write_csv(path, comment, REPORT_COLUMNS, cells)


def _sub_seed(seed: int, name: str) -> int:
    return int(substream(seed, name).integers(0, 2**31))


@dataclass(frozen=True)
class _Setup:
    """Plain data every job rebuilds its oracles and models from."""

    seed: int
    queries: QuerySet
    oracle_hidden: int
    oracle_scale: float
    proxy: ShadowMoeConfig
    candidate_epochs: int
    models_dir: Path

    def oracle(self, name: str) -> Oracle:
        return mlp_oracle(
            _sub_seed(self.seed, name),
            input_dim=self.proxy.input_dim,
            output_dim=self.proxy.output_dim,
            hidden_dim=self.oracle_hidden,
            scale=self.oracle_scale,
        )

    def train(self, oracle: Oracle, x: np.ndarray, name: str, seed: int, epochs: int):
        """Fit on inputs ``x``, save as ``models/<name>.bin``; returns the model and its log line."""
        model, losses = train_proxy(oracle, x, replace(self.proxy, seed=seed, epochs=epochs))
        model.save(self.models_dir / f"{name}.bin")
        return model, f"{name}: distill loss {losses[0]:.5g} -> {losses[-1]:.5g}"


@dataclass(frozen=True)
class _Job:
    """The teacher proxy (kind ``teacher``, no domain) or one (domain, kind) candidate chain."""

    setup: _Setup
    domain: str | None
    kind: str


def _emphasize(queries: QuerySet, domain: str) -> np.ndarray:
    # domain-specific training mix: the pair's task domain appears twice
    repeat = np.array(queries.domains) == domain
    return np.concatenate([queries.inputs, queries.inputs[repeat]])


def _run_job(job: _Job) -> tuple[RoutingTraceSet, list[str]]:
    """Fit a job's models and export its proxy's traces; returns them with the log lines."""
    s, domain, kind = job.setup, job.domain, job.kind
    proxy_seed = _sub_seed(s.seed, "proxy-shared-init")
    teacher_fn = s.oracle("teacher-oracle")
    if kind == "teacher":
        proxy, line = s.train(teacher_fn, s.queries.inputs, "proxy_teacher", proxy_seed, s.proxy.epochs)
        return export_traces(proxy, s.queries, model_id="teacher-proxy"), [line]
    oracle = teacher_fn if kind == "kd" else s.oracle(f"unrelated-oracle-{domain}")
    candidate, cand_line = s.train(
        oracle, _emphasize(s.queries, domain), f"{domain}_{kind}",
        _sub_seed(s.seed, f"candidate-{kind}-{domain}"), s.candidate_epochs,
    )
    proxy, proxy_line = s.train(
        candidate.predict, s.queries.inputs, f"proxy_{domain}_{kind}", proxy_seed, s.proxy.epochs,
    )
    traces = export_traces(proxy, s.queries, model_id=f"{domain}-{kind}-proxy")
    return traces, [cand_line, proxy_line]


def run_pipeline(doc: dict, out_dir: str | Path) -> BenchmarkReport:
    """Run the reference pipeline for a parsed config and write every artifact to ``out_dir``.

    Writes ``queries.jsonl``, ``models/*.bin``, ``traces/*.jsonl``,
    ``manifest.json`` and ``report.csv``/``report.json``; returns the report.
    The whole config is checked before anything is written: a missing or
    malformed field raises MoesigError.
    """
    what = "pipeline config"
    if not isinstance(doc, dict):
        raise MoesigError(f"{what} must be a JSON object")
    missing = [key for key in REQUIRED_FIELDS if key not in doc]
    if missing:
        raise MoesigError(f"{what} is missing field(s) {missing}")
    oracle = doc.get("oracle", {})
    if not isinstance(doc["proxy"], dict) or not isinstance(oracle, dict):
        raise MoesigError(f"{what} needs 'proxy' and 'oracle' to be JSON objects")
    if "epochs" not in doc["proxy"]:
        raise MoesigError(f"{what} is missing field(s) ['proxy.epochs']")
    seed = _field_int(doc, "seed", what)
    input_dim = _field_int(doc, "input_dim", what, minimum=1)
    output_dim = _field_int(doc, "output_dim", what, minimum=1)
    num_domains = _field_int(doc, "num_domains", what, minimum=1)
    n_per_domain = _field_int(doc, "n_per_domain", what, minimum=1)
    separation = _field_number(doc, "separation", what, 2.5)
    spread = _field_number(doc, "spread", what, 0.6)
    proxy = ShadowMoeConfig.from_dict({**doc["proxy"], "input_dim": input_dim, "output_dim": output_dim})
    candidate_epochs = _field_int(doc, "candidate_epochs", what, proxy.epochs, minimum=1)
    oracle_hidden = _field_int(oracle, "hidden_dim", "pipeline oracle", 16, minimum=1)
    oracle_scale = _field_number(oracle, "scale", "pipeline oracle", 1.5)
    layer_policy = parse_layer_policy(str(doc.get("layer_policy", "last")))
    mode = doc.get("mode", "auto")
    # an unknown mode, or exact mode above the enumeration cap, would fail only after every fit
    _resolve_mode(mode, proxy.experts_per_layer[resolve_layer(layer_policy, proxy.num_layers)])

    out = Path(out_dir)
    (out / "models").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    digest = config_digest(doc)
    queries = gaussian_domain_queries(
        seed=_sub_seed(seed, "pipeline-queries"),
        num_domains=num_domains,
        n_per_domain=n_per_domain,
        input_dim=input_dim,
        separation=separation,
        spread=spread,
    )
    write_queries(queries, out / "queries.jsonl", meta=artifact_meta(seed, digest))

    setup = _Setup(
        seed=seed,
        queries=queries,
        oracle_hidden=oracle_hidden,
        oracle_scale=oracle_scale,
        proxy=proxy,
        candidate_epochs=candidate_epochs,
        models_dir=out / "models",
    )
    domains = queries.domain_labels()
    jobs = [_Job(setup, None, "teacher")] + [_Job(setup, domain, kind) for domain in domains for kind in KINDS]
    results = parallel_map(_run_job, jobs)
    for _traces, lines in results:
        for line in lines:
            log.info("%s", line)

    (teacher_traces, _), *chains = results
    write_traces(teacher_traces, out / "traces" / "teacher.jsonl")
    pairs = {}
    pairs_manifest = {}
    for i, domain in enumerate(domains):
        (kd_traces, _), (scratch_traces, _) = chains[2 * i : 2 * i + 2]
        write_traces(kd_traces, out / "traces" / f"{domain}_kd.jsonl")
        write_traces(scratch_traces, out / "traces" / f"{domain}_scratch.jsonl")
        pairs[domain] = (kd_traces, scratch_traces)
        pairs_manifest[domain] = {
            "kd": f"traces/{domain}_kd.jsonl",
            "scratch": f"traces/{domain}_scratch.jsonl",
        }

    manifest = {
        "format": "moesig-benchmark",
        "version": 1,
        "teacher": "traces/teacher.jsonl",
        "pairs": pairs_manifest,
        "meta": artifact_meta(seed, digest),
    }
    write_json(manifest, out / "manifest.json")

    report = run_benchmark(teacher_traces, pairs, layer_policy=layer_policy, mode=mode)
    emit_report(report, out / "report.csv", fmt="csv", meta=artifact_meta(seed, digest))
    emit_report(report, out / "report.json", fmt="json", meta=artifact_meta(seed, digest))
    return report


def read_benchmark(
    bench_dir: str | Path,
) -> tuple[RoutingTraceSet, dict[str, tuple[RoutingTraceSet, RoutingTraceSet]], dict]:
    """Read a benchmark directory laid out as :func:`run_pipeline` writes it.

    Returns the teacher traces, the (kd, scratch) traces per domain and the
    manifest's provenance block. A manifest without a string ``teacher``, a
    ``pairs`` object whose entries name string ``kd`` and ``scratch`` files,
    or with a ``meta`` that is not an object raises MoesigError.
    """
    bench = Path(bench_dir)
    path = bench / "manifest.json"
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise MoesigError(f"{path}: manifest must be a JSON object")
    teacher, pairs, meta = manifest.get("teacher"), manifest.get("pairs"), manifest.get("meta", {})
    if not isinstance(teacher, str):
        raise MoesigError(f"{path}: manifest needs a string 'teacher' trace file, got {teacher!r}")
    if not isinstance(pairs, dict):
        raise MoesigError(f"{path}: manifest needs a 'pairs' object, got {pairs!r}")
    for domain, entry in pairs.items():
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in KINDS):
            raise MoesigError(f"{path}: pair {domain!r} needs string 'kd' and 'scratch' files")
    if not isinstance(meta, dict):
        raise MoesigError(f"{path}: manifest meta must be a JSON object")
    teacher_traces = ingest_traces(bench / teacher)
    pair_traces = {
        domain: (ingest_traces(bench / entry["kd"]), ingest_traces(bench / entry["scratch"]))
        for domain, entry in pairs.items()
    }
    return teacher_traces, pair_traces, meta
