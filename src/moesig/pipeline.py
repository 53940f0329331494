"""The reference pipeline in the fully black-box setting, and its benchmark directory.

A pipeline run builds a synthetic teacher function and, per domain, a
genuinely distilled candidate (trained on teacher outputs) and a scratch
candidate (trained on an unrelated function). All models are then treated
as black boxes: a proxy is trained to mimic each one, every proxy starting
from the same initialization (the toy analog of building all proxies from
one shared pretrained checkpoint), the proxies' routing traces are exported
on the shared calibration queries, and the per-domain benchmark report is
emitted.

The fits run in two rounds: first every (domain, kind) candidate, then
the teacher proxy and one proxy per candidate. Every fit is a plain
record whose black box is an oracle spec, as ``train-proxy`` takes it:
the teacher and unrelated functions are seeded ``mlp`` specs, and each
candidate proxy's is a ``shadow-model`` spec that reads the candidate
back from the model file of the first round, so no model crosses the
pool. Within a round the fits share a config apart from the seed, so
each round is cut into one contiguous run per usable CPU and every run
is trained as one stacked model on a process pool by the same runner.
A stacked fit is bitwise the fit alone, so the artifacts depend neither
on the number of workers nor on how the fits are cut into stacks. A fit's
log line reads only its first and last distillation loss, so the fits
skip the full-data loss pass of every epoch in between; ``train-proxy
--losses`` writes a whole curve.

The run scores its benchmark from the signatures of the trace sets it has
just written; :func:`read_benchmark` reads the same signatures back for
``report``, one file at a time, so only signatures reach the detector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from moesig import __version__
from moesig._meta import (artifact_meta, check_fields, config_digest, field_int, field_number, format_float,
                          is_version, meta_comment, read_json, write_csv, write_json)
from moesig._pool import parallel_map_runs
from moesig._rng import substream
from moesig.detector import KINDS, BenchmarkReport, run_benchmark
from moesig.errors import MoesigError
from moesig.routing_trace import MAX_EXPERTS, RoutingTraceSet, write_traces
from moesig.shadow_moe import (
    QuerySet,
    ShadowMoeConfig,
    build_oracle,
    export_traces,
    gaussian_domain_queries,
    train_proxies,
    write_queries,
)
from moesig.signatures import (LayerPolicy, SignatureBundle, parse_layer_policy, read_signatures,
                               resolve_layer, signature_bundle)
from moesig.transport import _resolve_mode

log = logging.getLogger("moesig")

REQUIRED_FIELDS = ("seed", "num_domains", "n_per_domain", "input_dim", "output_dim", "proxy")
OPTIONAL_FIELDS = ("separation", "spread", "oracle", "candidate_epochs", "layer_policy", "mode")
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
class _Fit:
    """One fit, saved as ``models/<name>.bin``: a proxy of the black box ``oracle``.

    ``oracle`` is a :func:`build_oracle` spec with model paths relative to
    ``models/``; ``domain`` names the domain the training mix repeats (None:
    the plain queries); ``config`` carries the fit's seed and epochs. A fit
    with a ``model_id`` also exports its traces.
    """

    name: str
    oracle: dict
    domain: str | None
    config: ShadowMoeConfig
    model_id: str | None = None


def _fit_run(run: list[_Fit], queries: QuerySet, models_dir: Path) -> list[tuple[RoutingTraceSet | None, str]]:
    """Train a run of fits as one stack and save each model; returns each fit's traces (or None)
    with its log line, which gives the first and last loss only."""
    stack = []
    for fit in run:
        x = queries.inputs
        if fit.domain is not None:  # a candidate's training mix: the pair's task domain appears twice
            x = np.concatenate([x, x[np.array(queries.domains) == fit.domain]])
        stack.append((build_oracle(fit.oracle, models_dir, fit.config), x, fit.config))
    results = []
    for fit, (model, losses) in zip(run, train_proxies(stack, curve=False)):
        model.save(models_dir / f"{fit.name}.bin")
        traces = None if fit.model_id is None else export_traces(model, queries, model_id=fit.model_id)
        results.append((traces, f"{fit.name}: distill loss {losses[0]:.5g} -> {losses[-1]:.5g}"))
    return results


@dataclass(frozen=True)
class _Plan:
    """A checked pipeline config: what the fits need, and the calibration queries."""

    seed: int
    digest: str
    proxy: ShadowMoeConfig
    candidate_epochs: int
    teacher: dict  # the teacher oracle's spec
    layer_policy: LayerPolicy
    mode: str
    queries: QuerySet


def _pipeline_plan(doc) -> _Plan:
    """Check a parsed pipeline config and build its calibration queries, before anything is
    written: a missing, unknown or malformed field, or queries that are not finite, raise
    MoesigError."""
    what = "pipeline config"
    check_fields(doc, REQUIRED_FIELDS + OPTIONAL_FIELDS, MoesigError, what, REQUIRED_FIELDS)
    oracle = doc.get("oracle", {})
    if not isinstance(doc["proxy"], dict) or not isinstance(oracle, dict):
        raise MoesigError(f"{what} needs 'proxy' and 'oracle' to be JSON objects")
    check_fields(oracle, ("hidden_dim", "scale"), MoesigError, "pipeline oracle")
    if "epochs" not in doc["proxy"]:
        raise MoesigError(f"{what} is missing field(s) ['proxy.epochs']")
    derived = [f"proxy.{key}" for key in ("seed", "input_dim", "output_dim") if key in doc["proxy"]]
    if derived:
        raise MoesigError(f"{what} field(s) {derived} are derived: each fit's seed from 'seed', "
                          "input_dim and output_dim from the top level")
    seed = field_int(doc, "seed", MoesigError)
    input_dim = field_int(doc, "input_dim", MoesigError, minimum=1)
    output_dim = field_int(doc, "output_dim", MoesigError, minimum=1)
    num_domains = field_int(doc, "num_domains", MoesigError, minimum=1)
    n_per_domain = field_int(doc, "n_per_domain", MoesigError, minimum=1)
    separation = field_number(doc, "separation", MoesigError, 2.5)
    spread = field_number(doc, "spread", MoesigError, 0.6)
    proxy = ShadowMoeConfig.from_dict({**doc["proxy"], "input_dim": input_dim, "output_dim": output_dim})
    candidate_epochs = field_int(doc, "candidate_epochs", MoesigError, proxy.epochs, minimum=1)
    oracle_hidden = field_int(oracle, "hidden_dim", MoesigError, 16, minimum=1)
    oracle_scale = field_number(oracle, "scale", MoesigError, 1.5)
    layer_policy = parse_layer_policy(str(doc.get("layer_policy", "last")))
    mode = doc.get("mode", "auto")
    # an unknown mode, or exact mode above the enumeration cap, would fail only after every fit
    _resolve_mode(mode, proxy.experts_per_layer[resolve_layer(layer_policy, proxy.num_layers)])
    # and so would a layer past the trace format's expert cap, when the fits' traces are exported
    most = max(proxy.experts_per_layer)
    if most > MAX_EXPERTS:
        raise MoesigError(f"experts_per_layer must be at most {MAX_EXPERTS}, got {most}")
    queries = gaussian_domain_queries(
        seed=_sub_seed(seed, "pipeline-queries"),
        num_domains=num_domains,
        n_per_domain=n_per_domain,
        input_dim=input_dim,
        separation=separation,
        spread=spread,
    )
    teacher = {"kind": "mlp", "seed": _sub_seed(seed, "teacher-oracle"), "hidden_dim": oracle_hidden,
               "scale": oracle_scale}
    return _Plan(seed, config_digest(doc), proxy, candidate_epochs, teacher, layer_policy, mode, queries)


def run_pipeline(plan: _Plan, out_dir: str | Path) -> BenchmarkReport:
    """Run the reference pipeline of a checked config (:func:`_pipeline_plan`) and write every
    artifact to ``out_dir``: ``queries.jsonl``, ``models/*.bin``, ``traces/*.jsonl``,
    ``manifest.json`` and ``report.csv``/``report.json``; returns the report."""
    seed, digest, proxy, queries = plan.seed, plan.digest, plan.proxy, plan.queries
    out = Path(out_dir)
    (out / "models").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    write_queries(queries, out / "queries.jsonl", meta=artifact_meta(seed, digest))

    teacher = plan.teacher
    domains = queries.domain_labels()
    pairs = [(domain, kind) for domain in domains for kind in KINDS]
    # round 1: the candidates; round 2: the teacher proxy and a proxy per candidate, which reads
    # the candidate back from its model file as a black box
    candidates = [
        _Fit(f"{domain}_{kind}",
             teacher if kind == "kd" else {**teacher, "seed": _sub_seed(seed, f"unrelated-oracle-{domain}")},
             domain, replace(proxy, seed=_sub_seed(seed, f"candidate-{kind}-{domain}"), epochs=plan.candidate_epochs))
        for domain, kind in pairs
    ]
    shared = replace(proxy, seed=_sub_seed(seed, "proxy-shared-init"))
    proxies = [_Fit("proxy_teacher", teacher, None, shared, "teacher-proxy")] + [
        _Fit(f"proxy_{domain}_{kind}", {"kind": "shadow-model", "path": f"{domain}_{kind}.bin"}, None, shared,
             f"{domain}-{kind}-proxy")
        for domain, kind in pairs
    ]
    fit_run = partial(_fit_run, queries=queries, models_dir=out / "models")
    trained = parallel_map_runs(fit_run, candidates)
    results = parallel_map_runs(fit_run, proxies)
    log.info("%s", results[0][1])
    for (_, cand_line), (_, proxy_line) in zip(trained, results[1:]):
        log.info("%s", cand_line)
        log.info("%s", proxy_line)

    # the teacher, then per domain its kd and scratch candidates, as the proxies were fitted
    names = ["teacher"] + [f"{domain}_{kind}" for domain, kind in pairs]
    for name, (traces, _) in zip(names, results):
        write_traces(traces, out / "traces" / f"{name}.jsonl")
    manifest = {
        "format": "moesig-benchmark",
        "version": 1,
        "teacher": "traces/teacher.jsonl",
        "pairs": {domain: {kind: f"traces/{domain}_{kind}.jsonl" for kind in KINDS} for domain in domains},
        "meta": artifact_meta(seed, digest),
    }
    write_json(manifest, out / "manifest.json")

    teacher_sig, *sigs = (signature_bundle(traces, plan.layer_policy) for traces, _ in results)
    pairs = {domain: (sigs[2 * i], sigs[2 * i + 1]) for i, domain in enumerate(domains)}
    report = run_benchmark(teacher_sig, pairs, layer_policy=plan.layer_policy, mode=plan.mode)
    emit_report(report, out / "report.csv", fmt="csv", meta=artifact_meta(seed, digest))
    emit_report(report, out / "report.json", fmt="json", meta=artifact_meta(seed, digest))
    return report


def read_benchmark(
    bench_dir: str | Path, layer_policy: LayerPolicy = "last",
) -> tuple[SignatureBundle, dict[str, tuple[SignatureBundle, SignatureBundle]], dict]:
    """Read a benchmark directory laid out as :func:`run_pipeline` writes it.

    Returns the teacher's signatures at ``layer_policy``, the (kd, scratch)
    signatures per domain and the manifest's provenance block. The files
    are read one at a time through :func:`read_signatures`, the teacher
    first and then the pairs in manifest order, so the first faulty file
    in that order gives the fault. A manifest whose ``format`` or
    ``version``, where given, is not ``moesig-benchmark`` or 1, without a string
    ``teacher``, a ``pairs`` object whose entries name string ``kd`` and
    ``scratch`` files, or with a ``meta`` that is not an object raises
    MoesigError.
    """
    bench = Path(bench_dir)
    path = bench / "manifest.json"
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise MoesigError(f"{path}: manifest must be a JSON object")
    if (manifest.get("format", "moesig-benchmark") != "moesig-benchmark"
            or not is_version(manifest.get("version", 1), 1)):
        raise MoesigError(f"{path}: not a version-1 benchmark manifest")
    teacher, pairs, meta = manifest.get("teacher"), manifest.get("pairs"), manifest.get("meta", {})
    if not isinstance(teacher, str):
        raise MoesigError(f"{path}: manifest needs a string 'teacher' trace file, got {teacher!r}")
    if not isinstance(pairs, dict):
        raise MoesigError(f"{path}: manifest needs a 'pairs' object, got {pairs!r}")
    if not pairs:
        raise MoesigError(f"{path}: manifest needs at least one candidate pair")
    for domain, entry in pairs.items():
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in KINDS):
            raise MoesigError(f"{path}: pair {domain!r} needs string 'kd' and 'scratch' files")
    if not isinstance(meta, dict):
        raise MoesigError(f"{path}: manifest meta must be a JSON object")
    teacher_sig = read_signatures(bench / teacher, layer_policy)[1]
    pair_sigs = {domain: tuple(read_signatures(bench / entry[kind], layer_policy)[1] for kind in KINDS)
                 for domain, entry in pairs.items()}
    return teacher_sig, pair_sigs, meta
