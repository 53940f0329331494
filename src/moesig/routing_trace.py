"""Routing-trace data model and line-delimited trace file IO.

A trace file is UTF-8 JSON lines. The first line is a header declaring the
schema version and model shape; every following line is one routing record,
one per (query, layer):

    {"schema_version": 1, "model_id": "m", "num_layers": 2,
     "experts_per_layer": [8, 8], "domains": ["math", "code"]}
    {"query_id": "q0", "domain": "math", "layer": 0, "selected": [1, 5]}
    ...

In memory a trace set is flat: one ``QueryTrace(query_id, domain,
selections)`` per query, where ``selections[layer]`` is the sorted tuple of
experts the query chose at that layer and ``()`` marks a layer the file did
not record. Files and programmatic records reach that form through one
merge-and-validate path, so every record is checked exactly once.

Records carrying a ``gate_probs`` field are accepted; the field is ignored
because all downstream signatures are built from binary activations only.
Shared (always-active) experts are excluded from traces by convention; only
routed experts appear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from moesig._meta import is_int
from moesig.errors import TraceError

SCHEMA_VERSION = 1


class QueryTrace(NamedTuple):
    """All per-layer selections recorded for a single query.

    ``domain`` is a dense 1-based index into the owning trace set's domain
    label list. ``selections[layer]`` is the sorted top-k expert tuple chosen
    at that layer, or ``()`` if the layer was not recorded.
    """

    query_id: str
    domain: int
    selections: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RoutingTraceSet:
    """Validated, immutable collection of query traces for one model.

    Built by :func:`build_trace_set` or :func:`ingest_traces`, which do all
    validation; the constructor itself checks nothing.
    """

    model_id: str
    num_layers: int
    experts_per_layer: tuple[int, ...]
    domains: tuple[str, ...]
    traces: tuple[QueryTrace, ...]
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def num_queries(self) -> int:
        return len(self.traces)

    def domain_label(self, domain: int) -> str:
        return self.domains[domain - 1]


def _at(lineno: int | None) -> str:
    return "" if lineno is None else f"line {lineno}: "


def _check_shape(
    num_layers: int, experts_per_layer: Sequence[int], domains: Sequence[str], where: str
) -> None:
    if num_layers < 1:
        raise TraceError(f"{where}num_layers must be >= 1, got {num_layers}")
    if len(experts_per_layer) != num_layers:
        raise TraceError(
            f"{where}experts_per_layer has {len(experts_per_layer)} entries "
            f"for {num_layers} layers"
        )
    if any(e < 1 for e in experts_per_layer):
        raise TraceError(f"{where}every layer must have at least one expert")
    if len(set(domains)) != len(domains):
        raise TraceError(f"{where}domain labels must be unique")


def _merge(
    records: Iterable[tuple[str, int, int, Sequence[int], int | None]],
    num_layers: int,
    experts_per_layer: Sequence[int],
) -> tuple[QueryTrace, ...]:
    """Validate (query_id, domain, layer, selected, lineno) records and merge them by query id.

    Queries keep first-occurrence order. ``lineno`` is the record's line in
    a trace file, or None for programmatic records; it prefixes every
    diagnostic as ``line N: ``.
    """
    merged: dict[str, tuple[int, list[tuple[int, ...]]]] = {}
    for qid, dom, layer, selected, lineno in records:
        if not 0 <= layer < num_layers:
            raise TraceError(
                f"{_at(lineno)}layer {layer} out of range (model has {num_layers} layers)"
            )
        selected = tuple(sorted(selected))
        if not selected:
            raise TraceError(f"{_at(lineno)}selected expert set must be nonempty")
        if len(set(selected)) != len(selected):
            raise TraceError(f"{_at(lineno)}duplicate expert index in selected {selected}")
        limit = experts_per_layer[layer]
        if selected[0] < 0 or selected[-1] >= limit:
            bad = selected[0] if selected[0] < 0 else selected[-1]
            raise TraceError(
                f"{_at(lineno)}expert index {bad} out of range at layer {layer} "
                f"(valid 0..{limit - 1})"
            )
        entry = merged.get(qid)
        if entry is None:
            entry = merged[qid] = (dom, [()] * num_layers)
        elif entry[0] != dom:
            raise TraceError(
                f"{_at(lineno)}query {qid!r} re-appears with a different domain label"
            )
        if entry[1][layer]:
            raise TraceError(f"{_at(lineno)}duplicate (query_id={qid!r}, layer={layer}) record")
        entry[1][layer] = selected
    return tuple(QueryTrace(qid, dom, tuple(layers)) for qid, (dom, layers) in merged.items())


def _parse_header(line: str, lineno: int) -> dict:
    """Decode and fully validate the header line before any record is read."""
    where = _at(lineno)
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{where}header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or "schema_version" not in header:
        raise TraceError(f"{where}first line must be a header with a schema_version field")
    version = header["schema_version"]
    if not is_int(version) or version != SCHEMA_VERSION:
        raise TraceError(
            f"{where}unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})"
        )
    for key in ("model_id", "num_layers", "experts_per_layer"):
        if key not in header:
            raise TraceError(f"{where}header is missing required field {key!r}")
    if not isinstance(header["model_id"], str):
        raise TraceError(f"{where}header model_id must be a string")
    num_layers = header["num_layers"]
    if not is_int(num_layers):
        raise TraceError(f"{where}header num_layers must be an integer, got {num_layers!r}")
    experts = header["experts_per_layer"]
    if not isinstance(experts, list) or not all(is_int(e) for e in experts):
        raise TraceError(f"{where}header experts_per_layer must be a list of integers")
    domains = header.get("domains")
    if domains is not None and (
        not isinstance(domains, list) or not all(isinstance(d, str) for d in domains)
    ):
        raise TraceError(f"{where}header domains must be a list of strings")
    if not isinstance(header.get("meta", {}), dict):
        raise TraceError(f"{where}header meta must be a JSON object")
    _check_shape(num_layers, experts, domains or [], f"{where}header ")
    return header


def _file_records(
    lines: Iterator[tuple[int, str]], domain_index: dict[str, int], declared: bool
) -> Iterator[tuple[str, int, int, list[int], int]]:
    """Decode record lines, check field types and map domain labels to indices.

    Without declared domains, new labels are numbered in first-occurrence
    order by adding them to ``domain_index``.
    """
    for lineno, line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: malformed record: {exc}") from None
        if not isinstance(rec, dict):
            raise TraceError(f"line {lineno}: record must be a JSON object")
        for key in ("query_id", "domain", "layer", "selected"):
            if key not in rec:
                raise TraceError(f"line {lineno}: record is missing required field {key!r}")
        qid, label, layer, selected = rec["query_id"], rec["domain"], rec["layer"], rec["selected"]
        if not isinstance(qid, str) or not isinstance(label, str):
            raise TraceError(f"line {lineno}: query_id and domain must be strings")
        if not is_int(layer):
            raise TraceError(f"line {lineno}: layer must be an integer")
        if not isinstance(selected, list) or not all(map(is_int, selected)):
            raise TraceError(f"line {lineno}: selected must be a list of integers")
        dom = domain_index.get(label)
        if dom is None:
            if declared:
                raise TraceError(
                    f"line {lineno}: unknown domain label {label!r} "
                    f"(declared: {list(domain_index)})"
                )
            dom = domain_index[label] = len(domain_index) + 1
        yield qid, dom, layer, selected, lineno


def ingest_traces(path: str | Path) -> RoutingTraceSet:
    """Read and validate a trace file into a RoutingTraceSet.

    Records sharing a query_id are merged into one QueryTrace. If the header
    declares ``domains``, labels outside that list are rejected; otherwise
    the label-to-index mapping follows first occurrence order.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = ((n, raw.strip()) for n, raw in enumerate(fh, start=1))
            lines = ((n, line) for n, line in lines if line)
            first = next(lines, None)
            if first is None:
                raise TraceError(f"trace file {path} is empty (missing header line)")
            header = _parse_header(first[1], first[0])
            declared = header.get("domains")
            domain_index = {label: i + 1 for i, label in enumerate(declared or [])}
            traces = _merge(
                _file_records(lines, domain_index, declared is not None),
                header["num_layers"],
                header["experts_per_layer"],
            )
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace file {path} is not UTF-8 text: {exc}") from None
    return RoutingTraceSet(
        model_id=header["model_id"],
        num_layers=header["num_layers"],
        experts_per_layer=tuple(header["experts_per_layer"]),
        domains=tuple(domain_index),
        traces=traces,
        meta=dict(header.get("meta", {})),
    )


def write_traces(trace_set: RoutingTraceSet, path: str | Path) -> None:
    """Write a trace set in the canonical line-delimited format.

    Output is byte-deterministic: header first, then one record per recorded
    (query, layer) in trace order with layers ascending, sorted expert
    indices, and compact JSON separators.
    """
    path = Path(path)
    header = {
        "schema_version": SCHEMA_VERSION,
        "model_id": trace_set.model_id,
        "num_layers": trace_set.num_layers,
        "experts_per_layer": list(trace_set.experts_per_layer),
        "domains": list(trace_set.domains),
    }
    if trace_set.meta:
        header["meta"] = dict(trace_set.meta)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), ensure_ascii=False) + "\n")
        for trace in trace_set.traces:
            label = trace_set.domain_label(trace.domain)
            for layer, selected in enumerate(trace.selections):
                if not selected:
                    continue
                rec = {
                    "query_id": trace.query_id,
                    "domain": label,
                    "layer": layer,
                    "selected": list(selected),
                }
                fh.write(json.dumps(rec, separators=(",", ":"), ensure_ascii=False) + "\n")


def build_trace_set(
    model_id: str,
    num_layers: int,
    experts_per_layer: Sequence[int],
    domains: Sequence[str],
    records: Iterable[tuple[str, int, int, Sequence[int]]],
    meta: Mapping[str, object] | None = None,
) -> RoutingTraceSet:
    """Assemble a RoutingTraceSet from (query_id, domain, layer, selected) tuples.

    ``domain`` is a 1-based index into ``domains``. Used by the trace
    exporters and the synthetic generator; records are merged and validated
    by the same path as file ingestion.
    """
    experts = tuple(int(e) for e in experts_per_layer)
    domains = tuple(domains)
    _check_shape(num_layers, experts, domains, "")
    traces = _merge(
        ((qid, dom, layer, selected, None) for qid, dom, layer, selected in records),
        num_layers,
        experts,
    )
    for trace in traces:
        if not 1 <= trace.domain <= len(domains):
            raise TraceError(
                f"query {trace.query_id!r} has domain index {trace.domain} "
                f"but {len(domains)} domains are declared"
            )
    return RoutingTraceSet(
        model_id=model_id,
        num_layers=num_layers,
        experts_per_layer=experts,
        domains=domains,
        traces=traces,
        meta=dict(meta or {}),
    )
