"""Span tracing of one moesig command, recorded from outside the program.

Run as a script, this file imports ``moesig.cli``, wraps the module-level
bindings through which the layers call each other, runs one command
in-process through ``moesig.cli.dispatch`` and writes the spans to a JSON
file when the command ends::

    python3 benchmarks/tracing.py SPANS.json pipeline --config c.json --out-dir out/

No program file changes: the wrappers replace names in the imported modules
only. Each span records name, layer, start, end, parent and a few
attributes; ``layer_metrics`` (used by ``run.py``) turns spans into the
per-layer metrics. Next to every exact matching call the traced run also
calls the same matcher in heuristic mode (the heuristic-gap probe); probe
spans are children of the caller's span, so they are excluded from every
layer's self time and from the overhead estimate. Span serialisation is
part of the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("cli", "routing_trace", "signatures", "transport", "detector", "shadow_moe", "synthgen")
PROBE = "probe"


class Tracer:
    """In-memory span recorder; spans are ``[name, layer, start, end, parent, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def run(self, name: str, layer: str, fn, *args, rss: bool = False, **kwargs):
        idx = len(self.spans)
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(rec)
        self._stack.append(idx)
        if rss:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
        if rss:
            rec[5]["rss_growth_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        return result, rec[5]

    def wrap(self, fn, name: str, layer: str, attrs=None, rss: bool = False, after=None):
        """A span-recording stand-in for ``fn``; ``attrs`` and ``after`` see its result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, rec_attrs = self.run(name, layer, fn, *args, rss=rss, **kwargs)
            if attrs is not None:
                rec_attrs.update(attrs(args, result))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Replace the layer-crossing bindings of the imported moesig modules with wrappers."""
    from moesig import cli, detector, routing_trace, shadow_moe, signatures, synthgen, transport

    def records(_args, traces):
        return {"records": sum(len(t.selections) for t in traces.traces)}

    def written(args, _result):
        return {"bytes": Path(args[1]).stat().st_size}

    def matched(_args, result):
        return {"method": result.method, "experts": len(result.permutation), "value": result.value}

    def tie(_args, verdict):
        return {"tie": bool(verdict.tie)}

    def probe(kind, fn):
        def after(args, kwargs, result):
            if not result.method.startswith("exact"):
                return
            heuristic, rec = tracer.run(f"{kind}_heuristic_probe", PROBE, fn, args[0], args[1], mode="heuristic")
            rec.update(kind=kind, exact=result.value, heuristic=heuristic.value)

        return after

    spans = {
        # (defining module, name): (layer, span name, attrs, rss, after)
        (routing_trace, "ingest_traces"): ("routing_trace", "ingest", records, True, None),
        (routing_trace, "write_traces"): ("routing_trace", "write", written, False, None),
        (routing_trace, "build_trace_set"): ("routing_trace", "build", None, False, None),
        (signatures, "signature_bundle"): ("signatures", "bundle", None, False, None),
        (transport, "signature_distance"): ("transport", "signature_distance", None, False, None),
        (transport, "spec_distance"): (
            "transport", "spec", matched, False, probe("spec", transport.spec_distance)),
        (transport, "collab_distance"): (
            "transport", "collab", matched, False, probe("collab", transport.collab_distance)),
        (detector, "detect_pair"): ("detector", "detect", tie, False, None),
        (detector, "run_benchmark"): ("detector", "run_benchmark", None, False, None),
        (shadow_moe, "train_proxy"): ("shadow_moe", "train", None, False, None),
        (shadow_moe, "export_traces"): ("shadow_moe", "export", None, False, None),
        (synthgen, "generate_scenario"): ("synthgen", "generate", None, False, None),
        (synthgen, "sweep"): ("synthgen", "sweep", None, False, None),
    }
    wrappers = {
        name: tracer.wrap(getattr(module, name), span, layer, attrs, rss, after)
        for (module, name), (layer, span, attrs, rss, after) in spans.items()
    }
    # one wrapper per function, bound into every module that imported it
    for module in (cli, detector, synthgen, transport, shadow_moe):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                setattr(module, name, wrapper)
    model = shadow_moe.ShadowMoeModel
    for method in ("loss_and_grads", "predict", "save"):
        setattr(model, method, tracer.wrap(getattr(model, method), method, "shadow_moe"))


def main(argv: list[str]) -> int:
    spans_out, command = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    import moesig.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code, _ = tracer.run("dispatch", "cli", moesig.cli.dispatch, command)
    doc = {"import_s": import_s, "exit_code": code, "spans": tracer.spans}
    spans_out.write_text(json.dumps(doc), encoding="utf-8")
    return code


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part covered by its child spans (children never overlap)."""
    own = [end - start for _name, _layer, start, end, _parent, _attrs in spans]
    for _name, _layer, start, end, parent, _attrs in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _gaps(probes: list[dict], kind: str) -> list[float]:
    # candidates whose exact distance is 0 (exact copies) have no relative gap
    return [p["heuristic"] / p["exact"] - 1.0 for p in probes if p["kind"] == kind and p["exact"] > 0]


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer counts and times summed over the traced command processes of one operation."""
    spans = [s for run in runs for s in run["spans"]]
    selfs = [t for run in runs for t in self_times(run["spans"])]

    def total(name: str, layer: str) -> float:
        return sum(e - s for n, lay, s, e, _p, _a in spans if n == name and lay == layer)

    def count(name: str, layer: str) -> int:
        return sum(1 for n, lay, *_ in spans if n == name and lay == layer)

    def self_of(layer: str, name: str | None = None) -> float:
        return sum(t for (n, lay, *_), t in zip(spans, selfs) if lay == layer and name in (None, n))

    def matched(kind: str, exact: bool) -> list[dict]:
        return [
            dict(a, s=e - s)
            for n, lay, s, e, _p, a in spans
            if lay == "transport" and n == kind and a["method"].startswith("exact") == exact
        ]

    ingest = [(a["records"], e - s) for n, lay, s, e, _p, a in spans if (n, lay) == ("ingest", "routing_trace")]
    ingest_s = sum(t for _, t in ingest)
    ingest_records = sum(r for r, _ in ingest)
    rss_growth = max(
        sum(a["rss_growth_kb"] for n, lay, *_rest, a in run["spans"] if (n, lay) == ("ingest", "routing_trace"))
        for run in runs
    )
    writes = [a["bytes"] for n, lay, *_rest, a in spans if (n, lay) == ("write", "routing_trace")]
    exact = matched("spec", True) + matched("collab", True)
    probes = [a for _n, lay, *_rest, a in spans if lay == PROBE]
    spec_gaps, collab_gaps = _gaps(probes, "spec"), _gaps(probes, "collab")
    steps = count("loss_and_grads", "shadow_moe")

    metrics = {
        "cli.import_s": statistics.median(run["import_s"] for run in runs),
        "routing_trace.ingest_calls": len(ingest),
        "routing_trace.ingest_records": ingest_records,
        "routing_trace.ingest_s": ingest_s,
        "routing_trace.ingest_records_per_s": ingest_records / ingest_s if ingest_s else 0.0,
        "routing_trace.ingest_rss_mb": rss_growth / 1024.0,
        "routing_trace.write_s": total("write", "routing_trace"),
        "routing_trace.write_mb": sum(writes) / 2**20,
        "routing_trace.build_s": total("build", "routing_trace"),
        "signatures.bundle_calls": count("bundle", "signatures"),
        "signatures.bundle_s": total("bundle", "signatures"),
        "transport.exact_calls": len(exact),
        "transport.heuristic_calls": len(matched("spec", False) + matched("collab", False)),
        "transport.perms_evaluated": sum(math.factorial(a["experts"]) for a in exact),
        "transport.spec_exact_s": sum(a["s"] for a in matched("spec", True)),
        "transport.collab_exact_s": sum(a["s"] for a in matched("collab", True)),
        "transport.spec_heuristic_s": sum(a["s"] for a in matched("spec", False)),
        "transport.collab_heuristic_s": sum(a["s"] for a in matched("collab", False)),
        "transport.heuristic_gap_spec_mean": statistics.fmean(spec_gaps) if spec_gaps else 0.0,
        "transport.heuristic_gap_spec_max": max(spec_gaps, default=0.0),
        "transport.heuristic_gap_collab_mean": statistics.fmean(collab_gaps) if collab_gaps else 0.0,
        "transport.heuristic_gap_collab_max": max(collab_gaps, default=0.0),
        "detector.detect_calls": count("detect", "detector"),
        "detector.ties": sum(1 for n, lay, *_rest, a in spans if (n, lay) == ("detect", "detector") and a["tie"]),
        "shadow_moe.fits": count("train", "shadow_moe"),
        "shadow_moe.train_s": total("train", "shadow_moe"),
        "shadow_moe.steps": steps,
        "shadow_moe.step_ms": 1000.0 * total("loss_and_grads", "shadow_moe") / steps if steps else 0.0,
        "shadow_moe.train_self_s": self_of("shadow_moe", "train"),
        "shadow_moe.predict_s": total("predict", "shadow_moe"),
        "shadow_moe.export_s": total("export", "shadow_moe"),
        "shadow_moe.save_s": total("save", "shadow_moe"),
        "synthgen.scenarios": count("generate", "synthgen"),
        "synthgen.generate_s": total("generate", "synthgen"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_of(layer)
    return metrics


def probe_seconds(runs: list[dict]) -> float:
    """Time spent in heuristic-gap probes, which the traced wall time excludes."""
    return sum(e - s for run in runs for _n, lay, s, e, _p, _a in run["spans"] if lay == PROBE)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
