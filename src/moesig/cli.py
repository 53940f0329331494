"""Command-line interface: the full pipeline as composable subcommands.

Numeric results go to files; logs go to stderr and are never meant to be
parsed. Every artifact embeds the seed it was produced under, a digest of
the effective configuration, and the tool version, so re-running a command
with identical inputs reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from moesig import __version__
from moesig._meta import artifact_meta, config_digest
from moesig._rng import substream
from moesig.detector import BenchmarkReport, detect_pair, run_benchmark
from moesig.errors import MoesigError
from moesig.routing_trace import ingest_traces, write_traces
from moesig.signatures import (
    dump_bundle_csv,
    load_bundle,
    save_bundle,
    signature_bundle,
)
from moesig.shadow_moe import (
    QuerySet,
    ShadowMoeConfig,
    ShadowMoeModel,
    export_traces,
    gaussian_domain_queries,
    linear_oracle,
    mlp_oracle,
    model_oracle,
    read_queries,
    train_proxy,
    write_queries,
)
from moesig.synthgen import ScenarioConfig, generate_scenario, sweep, write_scenario
from moesig.transport import signature_distance

log = logging.getLogger("moesig")


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _layer_policy(raw: str):
    return int(raw) if raw.lstrip("+-").isdigit() else raw


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value) + 0.0)


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
    rows = [
        {
            "domain": r.domain,
            "d_spec_kd": r.d_spec_kd,
            "d_spec_scratch": r.d_spec_scratch,
            "d_collab_kd": r.d_collab_kd,
            "d_collab_scratch": r.d_collab_scratch,
            "spec_reduction_pct": r.spec_reduction_pct,
            "collab_reduction_pct": r.collab_reduction_pct,
            "margin": r.margin,
            "verdict": r.verdict,
            "tie": r.tie,
        }
        for r in report.rows
    ]
    if fmt == "json":
        _write_json(
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
    meta_items = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# accuracy={_fmt(report.accuracy)} layer_policy={report.layer_policy} "
            f"mode={report.mode} {meta_items}\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "domain",
                "d_spec_kd",
                "d_spec_scratch",
                "d_collab_kd",
                "d_collab_scratch",
                "spec_reduction_pct",
                "collab_reduction_pct",
                "margin",
                "verdict",
                "tie",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row["domain"],
                    _fmt(row["d_spec_kd"]),
                    _fmt(row["d_spec_scratch"]),
                    _fmt(row["d_collab_kd"]),
                    _fmt(row["d_collab_scratch"]),
                    _fmt(row["spec_reduction_pct"]),
                    _fmt(row["collab_reduction_pct"]),
                    _fmt(row["margin"]),
                    row["verdict"],
                    str(row["tie"]).lower(),
                ]
            )


def _cmd_ingest(args) -> int:
    traces = ingest_traces(args.input)
    out = replace(
        traces,
        meta={**dict(traces.meta), **artifact_meta(None, _file_digest(Path(args.input)))},
    )
    write_traces(out, args.out)
    log.info("ingested %d queries, %d layers -> %s", out.num_queries, out.num_layers, args.out)
    return 0


def _cmd_profile(args) -> int:
    traces = ingest_traces(args.input)
    bundle = signature_bundle(traces, _layer_policy(args.layer_policy))
    meta = artifact_meta(None, _file_digest(Path(args.input)))
    meta["model_id"] = traces.model_id
    if args.format == "csv":
        meta_line = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
        dump_bundle_csv(bundle, args.out, meta_line=meta_line)
    else:
        save_bundle(bundle, args.out, meta=meta)
    log.info(
        "profiled layer %d of %s (%d experts, %d domains) -> %s",
        bundle.spec.layer,
        traces.model_id,
        bundle.spec.num_experts,
        bundle.spec.num_domains,
        args.out,
    )
    return 0


def _cmd_distance(args) -> int:
    teacher = load_bundle(args.teacher)
    student = load_bundle(args.student)
    dist = signature_distance(teacher, student, mode=args.mode)
    doc = {
        "format": "moesig-distance",
        "version": 1,
        "d_spec": dist.d_spec,
        "d_collab": dist.d_collab,
        "spec_permutation": list(dist.spec_permutation.mapping),
        "collab_permutation": (
            list(dist.collab_permutation.mapping) if dist.collab_permutation else None
        ),
        "method": dist.method,
        "meta": artifact_meta(
            None, config_digest({"teacher": _file_digest(Path(args.teacher)),
                                 "student": _file_digest(Path(args.student)),
                                 "mode": args.mode})
        ),
    }
    _write_json(doc, args.out)
    log.info("d_spec=%.6g d_collab=%s method=%s", dist.d_spec, dist.d_collab, dist.method)
    return 0


def _cmd_detect(args) -> int:
    teacher = ingest_traces(args.teacher)
    cand1 = ingest_traces(args.cand1)
    cand2 = ingest_traces(args.cand2)
    policy = _layer_policy(args.layer)
    t_sig = signature_bundle(teacher, policy)
    verdict = detect_pair(
        t_sig,
        signature_bundle(cand1, policy),
        signature_bundle(cand2, policy),
        mode=args.mode,
        candidate_ids=(cand1.model_id or "cand1", cand2.model_id or "cand2"),
    )
    s1, s2 = verdict.scores
    doc = {
        "format": "moesig-verdict",
        "version": 1,
        "predicted": verdict.chosen.candidate_id,
        "predicted_index": verdict.predicted_index,
        "margin": verdict.margin,
        "tie": verdict.tie,
        "layer_policy": str(policy),
        "mode": args.mode,
        "scores": [
            {
                "candidate_id": s.candidate_id,
                "score": s.score,
                "d_spec": s.d_spec,
                "d_collab": s.d_collab,
            }
            for s in (s1, s2)
        ],
        "meta": artifact_meta(None, None),
    }
    _write_json(doc, args.out)
    log.info("predicted %s (margin %.6g, tie=%s)", doc["predicted"], verdict.margin, verdict.tie)
    return 0


def _build_oracle(spec: dict, base_dir: Path, config: ShadowMoeConfig):
    kind = spec.get("kind")
    if kind == "mlp":
        return mlp_oracle(
            seed=int(spec["seed"]),
            input_dim=config.input_dim,
            output_dim=config.output_dim,
            hidden_dim=int(spec.get("hidden_dim", 16)),
            scale=float(spec.get("scale", 1.0)),
        )
    if kind == "linear":
        return linear_oracle(
            seed=int(spec["seed"]),
            input_dim=config.input_dim,
            output_dim=config.output_dim,
            scale=float(spec.get("scale", 1.0)),
        )
    if kind == "shadow-model":
        return model_oracle(ShadowMoeModel.load(base_dir / spec["path"]))
    raise MoesigError(f"unknown oracle kind {kind!r} (expected mlp, linear, or shadow-model)")


def _cmd_train_proxy(args) -> int:
    config = ShadowMoeConfig.from_dict(_read_json(args.config))
    oracle_spec = _read_json(args.oracle)
    oracle = _build_oracle(oracle_spec, Path(args.oracle).parent, config)
    queries = read_queries(args.queries)
    model, losses = train_proxy(oracle, queries, config)
    model.save(args.out)
    log.info("trained proxy: loss %.6g -> %.6g over %d epochs", losses[0], losses[-1], config.epochs)
    if args.losses:
        _write_json(
            {
                "format": "moesig-loss-curve",
                "version": 1,
                "losses": losses,
                "meta": artifact_meta(config.seed, config.digest()),
            },
            args.losses,
        )
    if args.traces:
        traces = export_traces(model, queries)
        write_traces(traces, args.traces)
        log.info("exported %d trace records -> %s", len(traces.traces), args.traces)
    return 0


def _cmd_make_queries(args) -> int:
    doc = _read_json(args.config)
    if doc.get("kind") != "gaussian-domains":
        raise MoesigError(f"unknown query-set kind {doc.get('kind')!r}")
    queries = gaussian_domain_queries(
        seed=int(doc["seed"]),
        num_domains=int(doc["num_domains"]),
        n_per_domain=int(doc["n_per_domain"]),
        input_dim=int(doc["input_dim"]),
        separation=float(doc.get("separation", 2.0)),
        spread=float(doc.get("spread", 0.5)),
    )
    write_queries(queries, args.out, meta=artifact_meta(int(doc["seed"]), config_digest(doc)))
    log.info("generated %d queries in %d domains -> %s", len(queries), doc["num_domains"], args.out)
    return 0


def _cmd_synth(args) -> int:
    config = ScenarioConfig.from_dict(_read_json(args.config))
    scenario = generate_scenario(config)
    manifest = write_scenario(scenario, args.out_dir)
    log.info(
        "scenario seed=%d rho=%.3g: distilled member is %s",
        config.seed,
        config.relatedness,
        manifest["distilled"],
    )
    return 0


def _expand_grid(doc: dict) -> list[ScenarioConfig]:
    if "configs" in doc:
        return [ScenarioConfig.from_dict(c) for c in doc["configs"]]
    base = dict(doc["base"])
    rhos = doc.get("rho", [base.get("relatedness", 1.0)])
    seeds = doc.get("seeds", [base.get("seed", 0)])
    configs = []
    for rho in rhos:
        for seed in seeds:
            merged = {**base, "relatedness": rho, "seed": seed}
            configs.append(ScenarioConfig.from_dict(merged))
    return configs


def _cmd_sweep(args) -> int:
    doc = _read_json(args.grid)
    configs = _expand_grid(doc)
    rows = sweep(configs, mode=args.mode, layer_policy=_layer_policy(args.layer))
    fields = [
        "rho",
        "num_experts",
        "num_layers",
        "top_k",
        "num_domains",
        "n_per_domain",
        "seed",
        "correct",
        "tie",
        "margin",
        "d_spec_distilled",
        "d_spec_scratch",
        "d_collab_distilled",
        "d_collab_scratch",
        "method",
    ]
    meta = artifact_meta(None, config_digest(doc))
    meta_items = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    with Path(args.out).open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {meta_items}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(
                [
                    _fmt(row[f]) if isinstance(row[f], float) else row[f]
                    for f in fields
                ]
            )
    log.info("swept %d configs -> %s", len(configs), args.out)
    return 0


def _cmd_report(args) -> int:
    bench_dir = Path(args.benchmark)
    manifest = _read_json(bench_dir / "manifest.json")
    teacher = ingest_traces(bench_dir / manifest["teacher"])
    pairs = {}
    for domain, entry in manifest["pairs"].items():
        pairs[domain] = (
            ingest_traces(bench_dir / entry["kd"]),
            ingest_traces(bench_dir / entry["scratch"]),
        )
    report = run_benchmark(teacher, pairs, layer_policy=_layer_policy(args.layer), mode=args.mode)
    meta = dict(manifest.get("meta", {}))
    emit_report(report, args.out, fmt=args.format, meta=meta)
    log.info("benchmark accuracy %.3f over %d domains -> %s", report.accuracy, len(report.rows), args.out)
    return 0


def _sub_seed(seed: int, name: str) -> int:
    return int(substream(seed, name).integers(0, 2**31))


def _cmd_pipeline(args) -> int:
    """End-to-end reference run in the fully black-box setting.

    Builds a synthetic teacher function and, per domain, a genuinely
    distilled candidate (trained on teacher outputs) and a scratch candidate
    (trained on an unrelated function). All models are then treated as black
    boxes: a proxy is trained to mimic each one, every proxy starting from
    the same initialization (the toy analog of building all proxies from one
    shared pretrained checkpoint), the proxies' routing traces are exported
    on the shared calibration queries, and the per-domain benchmark report
    is emitted.
    """
    doc = _read_json(args.config)
    out = Path(args.out_dir)
    (out / "models").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    seed = int(doc["seed"])
    digest = config_digest(doc)
    input_dim = int(doc["input_dim"])
    output_dim = int(doc["output_dim"])

    queries = gaussian_domain_queries(
        seed=_sub_seed(seed, "pipeline-queries"),
        num_domains=int(doc["num_domains"]),
        n_per_domain=int(doc["n_per_domain"]),
        input_dim=input_dim,
        separation=float(doc.get("separation", 2.5)),
        spread=float(doc.get("spread", 0.6)),
    )
    write_queries(queries, out / "queries.jsonl", meta=artifact_meta(seed, digest))

    oracle_doc = dict(doc.get("oracle", {}))
    oracle_hidden = int(oracle_doc.get("hidden_dim", 16))
    oracle_scale = float(oracle_doc.get("scale", 1.5))

    def _oracle(name: str):
        return mlp_oracle(
            _sub_seed(seed, name),
            input_dim=input_dim,
            output_dim=output_dim,
            hidden_dim=oracle_hidden,
            scale=oracle_scale,
        )

    proxy_base = dict(doc["proxy"])
    proxy_base["input_dim"] = input_dim
    proxy_base["output_dim"] = output_dim
    candidate_epochs = int(doc.get("candidate_epochs", proxy_base.get("epochs", 60)))
    proxy_seed = _sub_seed(seed, "proxy-shared-init")

    def _train(oracle, train_queries: QuerySet, name: str, model_seed: int, epochs: int) -> ShadowMoeModel:
        cfg = ShadowMoeConfig.from_dict({**proxy_base, "seed": model_seed, "epochs": epochs})
        model, losses = train_proxy(oracle, train_queries, cfg)
        log.info("%s: distill loss %.5g -> %.5g", name, losses[0], losses[-1])
        model.save(out / "models" / f"{name}.bin")
        return model

    def _emphasize(domain: str) -> QuerySet:
        # domain-specific training mix: the pair's task domain appears twice
        ids, xs, doms = list(queries.query_ids), list(queries.inputs), list(queries.domains)
        for qid, x, d in zip(queries.query_ids, queries.inputs, queries.domains):
            if d == domain:
                ids.append(f"{qid}+")
                xs.append(x)
                doms.append(d)
        return QuerySet(query_ids=tuple(ids), inputs=np.array(xs), domains=tuple(doms))

    teacher_fn = _oracle("teacher-oracle")
    g_teacher = _train(teacher_fn, queries, "proxy_teacher", proxy_seed, proxy_base["epochs"])
    teacher_traces = export_traces(g_teacher, queries, model_id="teacher-proxy")
    write_traces(teacher_traces, out / "traces" / "teacher.jsonl")

    pairs_manifest = {}
    pairs = {}
    for domain in queries.domain_labels():
        mix = _emphasize(domain)
        kd_model = _train(
            teacher_fn, mix, f"{domain}_kd",
            _sub_seed(seed, f"candidate-kd-{domain}"), candidate_epochs,
        )
        scratch_model = _train(
            _oracle(f"unrelated-oracle-{domain}"), mix, f"{domain}_scratch",
            _sub_seed(seed, f"candidate-scratch-{domain}"), candidate_epochs,
        )
        kd_proxy = _train(
            model_oracle(kd_model), queries, f"proxy_{domain}_kd", proxy_seed,
            proxy_base["epochs"],
        )
        scratch_proxy = _train(
            model_oracle(scratch_model), queries, f"proxy_{domain}_scratch", proxy_seed,
            proxy_base["epochs"],
        )
        kd_traces = export_traces(kd_proxy, queries, model_id=f"{domain}-kd-proxy")
        scratch_traces = export_traces(scratch_proxy, queries, model_id=f"{domain}-scratch-proxy")
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
    _write_json(manifest, out / "manifest.json")

    layer_policy = _layer_policy(str(doc.get("layer_policy", "last")))
    mode = str(doc.get("mode", "auto"))
    report = run_benchmark(teacher_traces, pairs, layer_policy=layer_policy, mode=mode)
    emit_report(report, out / "report.csv", fmt="csv", meta=artifact_meta(seed, digest))
    emit_report(report, out / "report.json", fmt="json", meta=artifact_meta(seed, digest))
    log.info("pipeline benchmark accuracy %.3f -> %s", report.accuracy, out / "report.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moesig",
        description="Detect knowledge distillation between MoE models from routing signatures.",
    )
    parser.add_argument("--version", action="version", version=f"moesig {__version__}")
    parser.add_argument(
        "--log-level",
        default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="stderr log verbosity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a trace file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("profile", help="compute routing signatures from traces")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layer-policy", default="last", help="first|median|last|<index>")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("distance", help="permutation-invariant distance between signature files")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "heuristic"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("detect", help="pick the distilled member of a candidate pair")
    p.add_argument("--teacher", required=True)
    p.add_argument("--cand1", required=True)
    p.add_argument("--cand2", required=True)
    p.add_argument("--layer", default="last")
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "heuristic"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("train-proxy", help="fit a toy MoE proxy to a black-box oracle")
    p.add_argument("--oracle", required=True, help="oracle spec JSON")
    p.add_argument("--queries", required=True, help="query-set JSONL")
    p.add_argument("--config", required=True, help="proxy config JSON")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--traces", default=None, help="optionally export routing traces here")
    p.add_argument("--losses", default=None, help="optionally write the loss curve here")
    p.set_defaults(func=_cmd_train_proxy)

    p = sub.add_parser("make-queries", help="generate a seeded domain-labeled query set")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_queries)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sweep", help="run scenario grids and tabulate detection results")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "heuristic"])
    p.add_argument("--layer", default="last")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="evaluate a per-domain benchmark directory")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--layer", default="last")
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "heuristic"])
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="pinned-seed reference run: models, proxies, benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand.

    Exit codes: 0 success, 1 runtime failure (diagnostic on stderr),
    2 usage error (argparse usage text).
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return int(args.func(args))
    except MoesigError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
