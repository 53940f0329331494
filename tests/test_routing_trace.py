from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesig.errors import SignatureError, TraceError
from moesig.routing_trace import (
    build_trace_set,
    ingest_traces,
    write_traces,
)
from moesig.signatures import compute_specialization

from helpers import domain_counts, random_trace_set

HEADER = {
    "schema_version": 1,
    "model_id": "m",
    "num_layers": 1,
    "experts_per_layer": [4],
    "domains": ["math", "code"],
}


def write_lines(path, header, records):
    lines = [json.dumps(header)]
    lines += [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_two_queries_single_layer(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(
        path,
        HEADER,
        [
            {"query_id": "a", "domain": "math", "layer": 0, "selected": [0, 1]},
            {"query_id": "b", "domain": "code", "layer": 0, "selected": [2, 3]},
        ],
    )
    ts = ingest_traces(path)
    assert ts.num_queries == 2
    assert ts.num_layers == 1
    assert ts.experts_per_layer == (4,)
    assert ts.domains == ("math", "code")
    assert ts.traces[0].selections[0] == (0, 1)
    assert domain_counts(ts) == [1, 1]


def test_out_of_range_expert_names_line(tmp_path):
    path = tmp_path / "t.jsonl"
    header = {**HEADER, "experts_per_layer": [64]}
    write_lines(
        path,
        header,
        [
            {"query_id": "a", "domain": "math", "layer": 0, "selected": [0, 63]},
            {"query_id": "b", "domain": "math", "layer": 0, "selected": [64]},
        ],
    )
    with pytest.raises(TraceError, match=r"line 3.*64.*range"):
        ingest_traces(path)


def test_duplicate_query_layer_pair(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(
        path,
        HEADER,
        [
            {"query_id": "a", "domain": "math", "layer": 0, "selected": [0]},
            {"query_id": "a", "domain": "math", "layer": 0, "selected": [1]},
        ],
    )
    with pytest.raises(TraceError, match="line 3.*duplicate"):
        ingest_traces(path)


def test_unknown_domain_label(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, [{"query_id": "a", "domain": "poetry", "layer": 0, "selected": [0]}])
    with pytest.raises(TraceError, match="unknown domain label 'poetry'"):
        ingest_traces(path)


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(HEADER) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(TraceError, match="line 2"):
        ingest_traces(path)


def test_unsupported_schema_version(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, {**HEADER, "schema_version": 2}, [])
    with pytest.raises(TraceError, match="unsupported schema_version"):
        ingest_traces(path)


def test_missing_header(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        json.dumps({"query_id": "a", "domain": "x", "layer": 0, "selected": [0]}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceError, match="header"):
        ingest_traces(path)


def test_empty_file(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(TraceError, match="empty"):
        ingest_traces(path)


def test_missing_file(tmp_path):
    with pytest.raises(TraceError, match="not found"):
        ingest_traces(tmp_path / "nope.jsonl")


def test_non_utf8_file(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(json.dumps(HEADER).encode() + b"\n\xff\xfe\n")
    with pytest.raises(TraceError, match="not UTF-8"):
        ingest_traces(path)


def test_duplicate_expert_in_selected(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, [{"query_id": "a", "domain": "math", "layer": 0, "selected": [1, 1]}])
    with pytest.raises(TraceError, match="duplicate expert"):
        ingest_traces(path)


def test_query_domain_conflict(tmp_path):
    path = tmp_path / "t.jsonl"
    header = {**HEADER, "num_layers": 2, "experts_per_layer": [4, 4]}
    write_lines(
        path,
        header,
        [
            {"query_id": "a", "domain": "math", "layer": 0, "selected": [0]},
            {"query_id": "a", "domain": "code", "layer": 1, "selected": [0]},
        ],
    )
    with pytest.raises(TraceError, match="different domain"):
        ingest_traces(path)


def test_first_occurrence_domain_mapping(tmp_path):
    path = tmp_path / "t.jsonl"
    header = {k: v for k, v in HEADER.items() if k != "domains"}
    write_lines(
        path,
        header,
        [
            {"query_id": "a", "domain": "zebra", "layer": 0, "selected": [0]},
            {"query_id": "b", "domain": "apple", "layer": 0, "selected": [1]},
            {"query_id": "c", "domain": "zebra", "layer": 0, "selected": [2]},
        ],
    )
    ts = ingest_traces(path)
    assert ts.domains == ("zebra", "apple")
    assert [t.domain for t in ts.traces] == [1, 2, 1]


def test_gate_probs_field_accepted_and_ignored(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(
        path,
        HEADER,
        [
            {
                "query_id": "a",
                "domain": "math",
                "layer": 0,
                "selected": [0, 1],
                "gate_probs": [0.7, 0.2, 0.05, 0.05],
            }
        ],
    )
    ts = ingest_traces(path)
    assert ts.traces[0].selections[0] == (0, 1)


def test_binary_activation_membership():
    trace = build_trace_set("m", 1, (4,), ("d1",), [("a", 1, 0, (1, 0))]).traces[0]
    assert 0 in trace.selections[0]
    assert 3 not in trace.selections[0]
    assert sum(i in trace.selections[0] for i in range(4)) == len(trace.selections[0])


def test_binary_activation_missing_layer(tmp_path):
    ts = build_trace_set("m", 3, (4, 4, 4), ("d1",), [("a", 1, 0, (0,)), ("a", 1, 2, (1,))])
    assert ts.traces[0].selections == ((0,), (), (1,))
    with pytest.raises(SignatureError, match="no selection at layer 1"):
        compute_specialization(ts, 1)
    path = tmp_path / "t.jsonl"
    write_traces(ts, path)
    assert len(path.read_text().splitlines()) == 3  # header + the two recorded layers
    assert ingest_traces(path) == ts


def test_expert_selection_validation():
    with pytest.raises(TraceError, match="nonempty"):
        build_trace_set("m", 1, (4,), ("d1",), [("a", 1, 0, ())])
    with pytest.raises(TraceError, match="duplicate expert"):
        build_trace_set("m", 1, (4,), ("d1",), [("a", 1, 0, (1, 1))])
    with pytest.raises(TraceError, match="out of range"):
        build_trace_set("m", 1, (4,), ("d1",), [("a", 1, 0, (-1,))])
    sel = build_trace_set("m", 1, (4,), ("d1",), [("a", 1, 0, (3, 1, 2))]).traces[0].selections[0]
    assert sel == (1, 2, 3)
    assert len(sel) == 3


def test_trace_set_bounds_checked():
    with pytest.raises(TraceError, match="out of range"):
        build_trace_set("m", 1, (2,), ("d1",), [("a", 1, 0, (0, 2))])
    with pytest.raises(TraceError, match="layer"):
        build_trace_set("m", 1, (2,), ("d1",), [("a", 1, 1, (0,))])
    with pytest.raises(TraceError, match="domain"):
        build_trace_set("m", 1, (2,), ("d1",), [("a", 2, 0, (0,))])


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(0)
    ts = random_trace_set(rng, num_layers=2)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_traces(ts, p1)
    back = ingest_traces(p1)
    assert back == ts
    write_traces(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_roundtrip_idempotent_random(seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rt")
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, max_queries=12, num_layers=int(rng.integers(1, 3)))
    path = tmp / f"{seed}.jsonl"
    write_traces(ts, path)
    assert ingest_traces(path) == ts


def test_domain_counts_sum():
    rng = np.random.default_rng(1)
    ts = random_trace_set(rng)
    counts = domain_counts(ts)
    assert all(c >= 0 for c in counts)
    assert sum(counts) == ts.num_queries


HEADER_REQUIRED = ("schema_version", "model_id", "num_layers", "experts_per_layer")
RECORD_FIELDS = ("query_id", "domain", "layer", "selected")
# wrong-typed values per field; every one makes the file invalid
RETYPES = {
    "schema_version": ["1", True, None, 1.5],
    "model_id": [7, None, ["m"]],
    "num_layers": ["1", 1.5, True, None, [1]],
    "experts_per_layer": [4, "4", None, [1.5], [True]],
    "domains": ["d1", 3, {"d1": 1}, [1]],
    "meta": [[], "x", 3, None],
    "query_id": [7, None, ["q0"]],
    "domain": [7, None, ["d1"]],
    "layer": ["0", 1.5, True, None],
    "selected": ["0", 0, None, [], [1.5], [True]],
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_single_mutation_raises_trace_error(data, tmp_path_factory):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
    ts = random_trace_set(rng, max_queries=6, num_layers=int(rng.integers(1, 3)))
    path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    write_traces(ts, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    row = data.draw(st.integers(1, len(lines) - 1), label="record line")
    record = json.loads(lines[row])

    kind = data.draw(
        st.sampled_from(["drop", "retype", "truncate", "bad_layer", "bad_expert"]), label="kind"
    )
    if kind == "truncate":
        row = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[row] = lines[row][: data.draw(st.integers(1, len(lines[row]) - 1), label="cut")]
    elif kind == "bad_layer":
        record["layer"] = data.draw(st.sampled_from([-1, ts.num_layers]), label="layer")
        lines[row] = json.dumps(record)
    elif kind == "bad_expert":
        limit = ts.experts_per_layer[record["layer"]]
        record["selected"][0] = data.draw(st.sampled_from([-1, limit]), label="expert")
        lines[row] = json.dumps(record)
    else:
        on_header = data.draw(st.booleans(), label="on header")
        doc, at = (header, 0) if on_header else (record, row)
        if kind == "drop":
            del doc[data.draw(st.sampled_from(HEADER_REQUIRED if on_header else RECORD_FIELDS))]
        else:
            fields = (*HEADER_REQUIRED, "domains", "meta") if on_header else RECORD_FIELDS
            key = data.draw(st.sampled_from(fields), label="field")
            doc[key] = data.draw(st.sampled_from(RETYPES[key]), label="value")
        lines[at] = json.dumps(doc)

    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceError):
        ingest_traces(path)
