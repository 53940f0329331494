"""Command-line interface: the full pipeline as composable subcommands.

Numeric results go to files; logs go to stderr and are never meant to be
parsed. Every artifact embeds the seed it was produced under, a digest of
the effective configuration, and the tool version, so re-running a command
with identical inputs reproduces identical bytes. Each handler imports what
it runs, so ``--version``, ``--help`` and usage errors load no numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from pathlib import Path

from moesig import __version__
from moesig._meta import artifact_meta, config_digest, meta_comment, read_json, write_csv, write_json
from moesig.errors import MoesigError

log = logging.getLogger("moesig")


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def _read_config(path: str, parse, *args):
    """``parse(doc, *args)`` of the JSON file ``doc`` at ``path``; a fault it raises names the file."""
    doc = read_json(path)
    try:
        return parse(doc, *args)
    except MoesigError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _cmd_ingest(args) -> int:
    from dataclasses import replace

    from moesig.routing_trace import ingest_traces, write_traces

    traces = ingest_traces(args.input)
    out = replace(
        traces,
        meta={**dict(traces.meta), **artifact_meta(None, _file_digest(Path(args.input)))},
    )
    write_traces(out, args.out)
    log.info("ingested %d queries, %d layers -> %s", out.num_queries, out.num_layers, args.out)
    return 0


def _cmd_profile(args) -> int:
    from moesig.signatures import dump_bundle_csv, parse_layer_policy, read_signatures, save_bundle

    policy = parse_layer_policy(args.layer_policy)
    model_id, bundle = read_signatures(args.input, policy)
    meta = artifact_meta(None, _file_digest(Path(args.input)))
    meta["model_id"] = model_id
    if args.format == "csv":
        dump_bundle_csv(bundle, args.out, meta_line=meta_comment(meta))
    else:
        save_bundle(bundle, args.out, meta=meta)
    log.info(
        "profiled layer %d of %s (%d experts, %d domains) -> %s",
        bundle.spec.layer,
        model_id,
        bundle.spec.num_experts,
        bundle.spec.num_domains,
        args.out,
    )
    return 0


def _cmd_distance(args) -> int:
    from moesig.signatures import load_bundle
    from moesig.transport import signature_distance

    teacher = load_bundle(args.teacher)
    student = load_bundle(args.student)
    dist = signature_distance(teacher, student, mode=args.mode)
    doc = {
        "format": "moesig-distance",
        "version": 1,
        "d_spec": dist.d_spec,
        "d_collab": dist.d_collab,
        "spec_permutation": dist.spec_permutation,
        "collab_permutation": dist.collab_permutation,
        "method": dist.method,
        "meta": artifact_meta(
            None, config_digest({"teacher": _file_digest(Path(args.teacher)),
                                 "student": _file_digest(Path(args.student)),
                                 "mode": args.mode})
        ),
    }
    write_json(doc, args.out)
    log.info("d_spec=%.6g d_collab=%s method=%s", dist.d_spec, dist.d_collab, dist.method)
    return 0


def _cmd_detect(args) -> int:
    from functools import partial

    from moesig._pool import parallel_map
    from moesig.detector import detect_pair, score
    from moesig.signatures import parse_layer_policy, read_signatures

    policy = parse_layer_policy(args.layer)
    # each file is read and profiled on the pool, in this order, so the earliest file that
    # fails gives the diagnostic, and only signatures come back
    (_, t_sig), (id1, sig1), (id2, sig2) = parallel_map(
        partial(read_signatures, layer_policy=policy), [args.teacher, args.cand1, args.cand2])
    verdict = detect_pair(t_sig, sig1, sig2, mode=args.mode)
    ids = (id1 or "cand1", id2 or "cand2")
    doc = {
        "format": "moesig-verdict",
        "version": 1,
        "predicted": ids[verdict.predicted_index - 1],
        "predicted_index": verdict.predicted_index,
        "margin": verdict.margin,
        "tie": verdict.tie,
        "layer_policy": str(policy),
        "mode": args.mode,
        "scores": [
            {
                "candidate_id": candidate_id,
                "score": score(dist),
                "d_spec": dist.d_spec,
                "d_collab": dist.d_collab,
            }
            for candidate_id, dist in zip(ids, verdict.distances)
        ],
        "meta": artifact_meta(None, None),
    }
    write_json(doc, args.out)
    log.info("predicted %s (margin %.6g, tie=%s)", doc["predicted"], verdict.margin, verdict.tie)
    return 0


def _cmd_train_proxy(args) -> int:
    from moesig.routing_trace import write_traces
    from moesig.shadow_moe import ShadowMoeConfig, build_oracle, export_traces, read_queries, train_proxy

    config = _read_config(args.config, ShadowMoeConfig.from_dict)
    oracle = _read_config(args.oracle, build_oracle, Path(args.oracle).parent, config)
    queries = read_queries(args.queries)
    model, losses = train_proxy(oracle, queries.inputs, config)
    model.save(args.out)
    log.info("trained proxy: loss %.6g -> %.6g over %d epochs", losses[0], losses[-1], config.epochs)
    if args.losses:
        write_json(
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
        records = sum(int((counts > 0).sum()) for counts in traces.counts)
        log.info("exported %d trace records -> %s", records, args.traces)
    return 0


def _cmd_make_queries(args) -> int:
    from moesig.shadow_moe import make_queries

    queries = _read_config(args.config, make_queries, args.out)
    domains = len(queries.domain_labels())
    log.info("generated %d queries in %d domains -> %s", len(queries), domains, args.out)
    return 0


def _cmd_synth(args) -> int:
    from moesig.synthgen import ScenarioConfig, generate_scenario, write_scenario

    config = _read_config(args.config, ScenarioConfig.from_dict)
    scenario = generate_scenario(config)
    manifest = write_scenario(scenario, args.out_dir)
    log.info(
        "scenario seed=%d rho=%.3g: distilled member is %s",
        config.seed,
        config.relatedness,
        manifest["distilled"],
    )
    return 0


def _cmd_sweep(args) -> int:
    from moesig.signatures import parse_layer_policy
    from moesig.synthgen import expand_grid, sweep

    policy = parse_layer_policy(args.layer)
    doc, configs = _read_config(args.grid, lambda doc: (doc, expand_grid(doc)))
    rows = sweep(configs, mode=args.mode, layer_policy=policy)
    meta = artifact_meta(None, config_digest(doc))
    write_csv(args.out, meta_comment(meta), list(rows[0]), [row.values() for row in rows])
    log.info("swept %d configs -> %s", len(configs), args.out)
    return 0


def _cmd_report(args) -> int:
    from moesig.detector import run_benchmark
    from moesig.pipeline import emit_report, read_benchmark
    from moesig.signatures import parse_layer_policy

    policy = parse_layer_policy(args.layer)
    teacher, pairs, meta = read_benchmark(args.benchmark, policy)
    report = run_benchmark(teacher, pairs, layer_policy=policy, mode=args.mode)
    emit_report(report, args.out, fmt=args.format, meta=meta)
    log.info("benchmark accuracy %.3f over %d domains -> %s", report.accuracy, len(report.rows), args.out)
    return 0


def _cmd_pipeline(args) -> int:
    from moesig.pipeline import _pipeline_plan, run_pipeline

    out = Path(args.out_dir)
    report = run_pipeline(_read_config(args.config, _pipeline_plan), out)
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
    except (MoesigError, OSError) as exc:
        log.error("%s", exc)
        return 1
    except MemoryError:
        log.error("%s ran out of memory", args.command)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
