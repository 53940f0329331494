from __future__ import annotations

import functools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moesig import routing_trace
from moesig.errors import SignatureError, TraceError
from moesig.routing_trace import (
    build_trace_set,
    ingest_traces,
    write_traces,
)
from moesig.signatures import compute_specialization
from moesig.synthgen import ScenarioConfig, generate_scenario

from _oracles import canonical_captures, naive_write_traces, query_traces
from helpers import domain_counts, random_trace_set, reference_write_traces

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
    assert query_traces(ts)[0].selections[0] == (0, 1)
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


@pytest.mark.parametrize("line", [1, 2])
def test_lone_surrogate_escape_names_file_and_line(tmp_path, line):
    path = tmp_path / "t.jsonl"
    record = {"query_id": "a", "domain": "math", "layer": 0, "selected": [0]}
    if line == 1:
        write_lines(path, {**HEADER, "meta": {"note": ["\udc80"]}}, [record])
    else:
        write_lines(path, HEADER, [{**record, "query_id": "\ud800"}])
    with pytest.raises(TraceError, match=re.escape(f"{path}: line {line}: a lone surrogate")):
        ingest_traces(path)
    # a surrogate pair escape is one character
    write_lines(path, HEADER, [{**record, "query_id": "\U0001f600"}])
    assert ingest_traces(path).query_ids == ("\U0001f600",)


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


def test_non_utf8_header(tmp_path):
    # a first line that is not UTF-8 is decoded as text from byte 0
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"\xff" + json.dumps(HEADER).encode() + b"\n")
    with pytest.raises(TraceError) as exc:
        ingest_traces(path)
    assert str(exc.value) == (f"{path}: line 1: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                              "in position 0: invalid start byte")


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
    assert [t.domain for t in query_traces(ts)] == [1, 2, 1]


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
    assert query_traces(ts)[0].selections[0] == (0, 1)


def test_binary_activation_membership():
    (trace,) = query_traces(build_trace_set("m", 1, (4,), ("d1",), [("a", 1, 0, (1, 0))]))
    assert 0 in trace.selections[0]
    assert 3 not in trace.selections[0]
    assert sum(i in trace.selections[0] for i in range(4)) == len(trace.selections[0])


def test_binary_activation_missing_layer(tmp_path):
    ts = build_trace_set("m", 3, (4, 4, 4), ("d1",), [("a", 1, 0, (0,)), ("a", 1, 2, (1,))])
    assert query_traces(ts)[0].selections == ((0,), (), (1,))
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
    (trace,) = query_traces(build_trace_set("m", 1, (4,), ("d1",), [("a", 1, 0, (3, 1, 2))]))
    sel = trace.selections[0]
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

    # compact records keep the canonical layout, so the column checks see the mutation too
    compact = data.draw(st.booleans(), label="compact")
    dump = functools.partial(json.dumps, separators=(",", ":")) if compact else json.dumps
    kind = data.draw(
        st.sampled_from(["drop", "retype", "truncate", "bad_layer", "bad_expert"]), label="kind"
    )
    if kind == "truncate":
        row = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[row] = lines[row][: data.draw(st.integers(1, len(lines[row]) - 1), label="cut")]
    elif kind == "bad_layer":
        record["layer"] = data.draw(st.sampled_from([-1, ts.num_layers]), label="layer")
        lines[row] = dump(record)
    elif kind == "bad_expert":
        limit = ts.experts_per_layer[record["layer"]]
        record["selected"][0] = data.draw(st.sampled_from([-1, limit]), label="expert")
        lines[row] = dump(record)
    else:
        on_header = data.draw(st.booleans(), label="on header")
        doc, at = (header, 0) if on_header else (record, row)
        if kind == "drop":
            del doc[data.draw(st.sampled_from(HEADER_REQUIRED if on_header else RECORD_FIELDS))]
        else:
            fields = (*HEADER_REQUIRED, "domains", "meta") if on_header else RECORD_FIELDS
            key = data.draw(st.sampled_from(fields), label="field")
            doc[key] = data.draw(st.sampled_from(RETYPES[key]), label="value")
        lines[at] = dump(doc)

    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceError):
        ingest_traces(path)


ODD_IDS = ("q", "naïve", "日本語", "sep\u2028", 'say "hi"', "back\\slash", "tab\tstop")
ODD_LABELS = ("数学", "código", "plain", 'quo"te')


def odd_trace_set(rng: np.random.Generator):
    """Random trace set with mixed k, missing layers, meta, and non-ASCII ids and labels.

    Some ids and labels hold a quote, a backslash or a tab, which JSON escapes.
    """
    num_layers = int(rng.integers(1, 4))
    num_experts = int(rng.integers(2, 9))
    num_domains = int(rng.integers(1, len(ODD_LABELS) + 1))
    records = []
    for q in range(int(rng.integers(1, 15))):
        dom = int(rng.integers(1, num_domains + 1))
        qid = f"{ODD_IDS[int(rng.integers(len(ODD_IDS)))]}{q}"
        for layer in range(num_layers):
            if layer and rng.random() < 0.3:
                continue
            k = int(rng.integers(1, min(num_experts, 4) + 1))
            records.append((qid, dom, layer, rng.choice(num_experts, k, replace=False).tolist()))
    labels = tuple(rng.permutation(ODD_LABELS)[:num_domains].tolist())
    experts = tuple(int(e) for e in rng.integers(num_experts, 2 * num_experts, num_layers))
    return build_trace_set("mödel", num_layers, experts, labels, records, meta={"seed": 3, "n": "ü"})


def read_both_ways(path):
    """ingest_traces with and without the canonical path: each a trace set or a TraceError message."""
    outcomes = []
    for canonical in (routing_trace._canonical_block, lambda *_args: None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(routing_trace, "_canonical_block", canonical)
            try:
                ts = ingest_traces(path)
                outcomes.append((ts, ts.meta))
            except TraceError as exc:
                outcomes.append(str(exc))
    return outcomes


def spy_on_reader(patch):
    """Log every block ``_canonical_block`` takes, with the rows it returns, and every record
    ``_file_records`` decodes."""
    blocks, records = [], []
    canonical_block, file_records = routing_trace._canonical_block, routing_trace._file_records

    def block_spy(block, *args):
        blocks.append((block, canonical_block(block, *args)))
        return blocks[-1][1]

    def records_spy(*args):
        for record in file_records(*args):
            records.append(record)
            yield record

    patch.setattr(routing_trace, "_canonical_block", block_spy)
    patch.setattr(routing_trace, "_file_records", records_spy)
    return blocks, records


def read_canonically(path) -> bool:
    """Whether the file reads without error and ``_canonical_block`` parses every record of it."""
    with pytest.MonkeyPatch.context() as patch:
        blocks, _ = spy_on_reader(patch)
        try:
            ts = ingest_traces(path)
        except TraceError:
            return False
    return sum(len(rows[0]) for _, rows in blocks if rows is not None) == sum(map(np.count_nonzero, ts.counts))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), shuffle=st.booleans(), declared=st.booleans())
def test_canonical_path_matches_validating_path(seed, shuffle, declared, tmp_path_factory):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("diff") / "t.jsonl"
    write_traces(odd_trace_set(rng), path)
    # str.splitlines would also split at the U+2028 some ids hold
    header, *records = (line + "\n" for line in path.read_text(encoding="utf-8").split("\n")[:-1])
    if shuffle:
        records = [records[i] for i in rng.permutation(len(records))]
    if not declared:
        doc = {k: v for k, v in json.loads(header).items() if k != "domains"}
        header = json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"
    path.write_text(header + "".join(records), encoding="utf-8")
    fast, validating = read_both_ways(path)
    assert fast == validating
    # a canonical record holds a backslash only where JSON escaped a character
    escaped = any("\\" in line for line in records)
    assert (not read_canonically(path)) == escaped


TWO_QUERIES = build_trace_set(
    "m", 2, (4, 4), ("math", "code"),
    [("a", 1, 0, (0, 1)), ("a", 1, 1, (2, 3)), ("b", 2, 0, (1, 3)), ("b", 2, 1, (0, 2))],
)
B_LAYER_1 = '{"query_id":"b","domain":"code","layer":1,"selected":[0,2]}\n'
# (case, edit of the canonical file's text, whether the canonical path still takes the file)
CANONICAL_EDITS = [
    ("unchanged", lambda t: t, True),
    ("unsorted-experts", lambda t: t.replace("[1,3]", "[3,1]"), True),
    ("interleaved-queries",
     lambda t: t.replace(B_LAYER_1, "").replace("[0,1]}\n", "[0,1]}\n" + B_LAYER_1), True),
    ("bad-layer", lambda t: t.replace('"layer":1,"selected":[0,2]', '"layer":2,"selected":[0,2]'),
     False),
    ("bad-expert", lambda t: t.replace("[1,3]", "[1,4]"), False),
    ("duplicate-expert", lambda t: t.replace("[1,3]", "[3,3]"), False),
    ("duplicate-pair", lambda t: t.replace('"code","layer":1', '"code","layer":0'), False),
    ("domain-change", lambda t: t.replace('"math","layer":1', '"code","layer":1'), False),
    ("unknown-domain", lambda t: t.replace('"code","layer":1', '"poetry","layer":1'), False),
    ("escaped-string", lambda t: t.replace('"query_id":"b"', '"query_id":"\\u0062"'), False),
    ("minus-zero", lambda t: t.replace("[0,1]", "[-0,1]"), False),
    ("ten-digit-integer", lambda t: t.replace("[1,3]", "[1,3000000000]"), False),
    ("crlf", lambda t: t.replace("\n", "\r\n"), False),
    ("cr-in-header", lambda t: t.replace('"model_id"', '\r"model_id"'), False),
    ("empty-declared-domains", lambda t: t.replace('["math","code"]', "[]"), False),
    ("blank-line", lambda t: t.replace("[2,3]}\n", "[2,3]}\n\n"), False),
    ("no-final-newline", lambda t: t[:-1], False),
    ("leading-blank-line", lambda t: "\n" + t, False),
]


@pytest.mark.parametrize(
    "edit, canonical", [c[1:] for c in CANONICAL_EDITS], ids=[c[0] for c in CANONICAL_EDITS]
)
def test_canonical_edit_gives_same_outcome_on_both_paths(tmp_path, edit, canonical):
    path = tmp_path / "t.jsonl"
    write_traces(TWO_QUERIES, path)
    text = path.read_text(encoding="utf-8")
    edited = edit(text)
    assert (edited == text) == (edit is CANONICAL_EDITS[0][1])  # every other edit hits the file
    path.write_bytes(edited.encode("utf-8"))
    fast, validating = read_both_ways(path)
    assert fast == validating
    assert read_canonically(path) == canonical


ORACLE_IDS = ("q0", "q1", "", "0", "naïve", "日本", "sep\u2028", "del\x7f")
ORACLE_LABELS = ("d1", "é", "")
# bytes a mutation inserts or writes over one byte; b"\xff" is never UTF-8
MUTATION_BYTES = [c.encode() for c in '"\\,[]{}:-0123456789 \r\t\x00\x7fé\u2028'] + [b"\xff"]
# odd text for one string field, and for the layer or the selected list
STRING_FUZZ = st.text('"\\,[]{}:-09 \r\t\x00\x7fé\u2028q', max_size=6)
NUMBER_FUZZ = st.lists(st.sampled_from(["", "0", "7", "999999999", "00", "01", "-0", "-3", "1000000000"]),
                       min_size=1, max_size=3).map(",".join)


@st.composite
def mutated_canonical_block(draw):
    """Canonical record lines, maybe one field of one line as odd text, then up to three
    byte insertions, deletions or replacements at evenly drawn offsets."""
    values = st.one_of(st.integers(0, 40), st.integers(100_000_000, 999_999_999)).map(str)
    records = [[draw(st.sampled_from(ORACLE_IDS)), draw(st.sampled_from(ORACLE_LABELS)), draw(values),
                ",".join(draw(st.lists(values, min_size=1, max_size=4)))]
               for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        record, field = draw(st.sampled_from(records)), draw(st.integers(0, 3))
        record[field] = draw(STRING_FUZZ if field < 2 else NUMBER_FUZZ)
    block = bytearray("".join(
        f'{{"query_id":"{qid}","domain":"{label}","layer":{layer},"selected":[{selected}]}}\n'
        for qid, label, layer, selected in records).encode())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(range(len(block) + 1)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        block[at:at + (kind != "insert")] = b"" if kind == "delete" else draw(st.sampled_from(MUTATION_BYTES))
    return bytes(block)


ORACLE_LINE = '{"query_id":"q0","domain":"d1","layer":3,"selected":[5,9]}\n'


@settings(max_examples=400, deadline=None)
@given(block=mutated_canonical_block(), declared=st.sampled_from([None, ["d1", "é"]]))
@example(block=ORACLE_LINE.encode() * 2, declared=None)
@example(block=ORACLE_LINE.replace("q0", "q\t0").encode(), declared=None)
@example(block=ORACLE_LINE.replace(":3,", ":3,4,").encode(), declared=None)
@example(block=ORACLE_LINE.replace("[5,", "[05,").encode(), declared=None)
@example(block=ORACLE_LINE.replace("[5,", "[1234567890,").encode(), declared=None)
def test_canonical_block_accepts_exactly_the_oracle_language(block, declared):
    assert_block_parses_as_the_oracle(block, declared)


def assert_block_parses_as_the_oracle(block, declared):
    """``_canonical_block`` gives None exactly where the oracle does, and otherwise the rows
    and numbering the oracle's captures give."""
    query_index, domain_index = {}, {label: i for i, label in enumerate(declared or [], 1)}
    got_queries, got_domains = {}, dict(domain_index)
    rows = routing_trace._canonical_block(block, got_queries, got_domains, declared)
    captures = canonical_captures(block)
    if captures is not None and declared is not None and any(c[1] not in declared for c in captures):
        captures = None  # an undeclared label
    assert (rows is None) == (captures is None)
    if rows is None:
        return
    qids, labels, layers, selected = zip(*captures)
    want = ([query_index.setdefault(qid, len(query_index)) for qid in qids],
            [domain_index.setdefault(label, len(domain_index) + 1) for label in labels],
            list(layers), [len(s) for s in selected],
            [min(v, routing_trace.MAX_EXPERTS) for s in selected for v in s])
    assert [r.dtype for r in rows] == [np.int32] * 4 + [np.int16]
    assert [r.tolist() for r in rows] == list(want)
    assert (got_queries, got_domains) == (query_index, domain_index)


# integers of 1 to 9 digits, for the layers and experts of the word-boundary blocks below
WIDE_INTEGERS = [0, 12, 345, 6789, 12345, 123456, 1234567, 12345678, 123456789]


def word_boundary_block(width: int) -> bytes:
    """Canonical lines whose query id and label hold ``width`` bytes between them, so that
    their key (id, '","domain":"', label) holds width + 12. Two lines per run, and every other
    run's key differs from the first's in one byte: the key's last, or its first past an
    8-byte word boundary. Layers and experts have 1 to 9 digits."""
    text = "".join(chr(ord("a") + i % 26) for i in range(width))
    qid, label = text[:width // 2], text[width // 2:]
    keys = [(qid, label)]
    for at in sorted({width + 11, 8, 16, 24, 32}):
        if at < len(qid):
            keys += [(qid[:at] + "Z" + qid[at + 1:], label), (qid, label)]
        elif len(qid) + 12 <= at < width + 12:
            cut = at - len(qid) - 12
            keys += [(qid, label[:cut] + "Z" + label[cut + 1:]), (qid, label)]
    lines = []
    for r, (key_qid, key_label) in enumerate(keys):
        for i in range(2):
            layer = WIDE_INTEGERS[(2 * r + i) % 9]
            selected = ",".join(map(str, WIDE_INTEGERS[(r + i) % 9:][:3]))
            lines.append(f'{{"query_id":"{key_qid}","domain":"{key_label}","layer":{layer},'
                         f'"selected":[{selected}]}}\n')
    return "".join(lines).encode()


@pytest.mark.parametrize("width", [0, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 23, 24])
def test_canonical_block_at_key_word_boundaries(width):
    # keys of 12 to 36 bytes: an id and a label of 7, 8, 9, 15, 16, 17, 23 or 24 bytes
    # together, and keys of 15, 16, 17, 23, 24 and 25 bytes, a word boundary and one byte
    # to either side of it
    block = word_boundary_block(width)
    assert canonical_captures(block) is not None
    assert_block_parses_as_the_oracle(block, None)


E64_SHAPE = ScenarioConfig(num_experts=64, num_layers=16, top_k=8, num_domains=9, n_per_domain=12,
                           relatedness=0.5, seed=20250809)


@pytest.fixture(scope="module")
def e64_scenario():
    return generate_scenario(E64_SHAPE)


@pytest.mark.parametrize("block_bytes", [routing_trace._BLOCK_BYTES, 4096, 333])
def test_trace_at_real_shape_reads_the_same_both_ways(tmp_path, monkeypatch, e64_scenario, block_bytes):
    # E = 64, k = 8 and 16 layers: experts and layers of one and two digits
    monkeypatch.setattr(routing_trace, "_BLOCK_BYTES", block_bytes)
    for name in ("teacher", "distilled", "scratch"):
        built = getattr(e64_scenario, name)
        path = tmp_path / f"{name}.jsonl"
        write_traces(built, path)
        assert read_canonically(path)
        fast, validating = read_both_ways(path)
        assert fast == validating and fast[0] == built


@pytest.mark.parametrize("block_bytes", [7, 64, 333])
def test_block_cuts_inside_records_keep_the_canonical_path(tmp_path, monkeypatch, block_bytes):
    # multi-byte ids and labels put some cuts inside a character; one record is longer than a block
    ids = ["naïve", "日本語", "q" * 400, *map(str, range(9))]
    records = [(qid, 1 + q % 2, layer, (q % 5, 5 + layer)) for q, qid in enumerate(ids) for layer in range(2)]
    built = build_trace_set("m", 2, (8, 8), ("数学", "plain"), records)
    path = tmp_path / "t.jsonl"
    write_traces(built, path)
    monkeypatch.setattr(routing_trace, "_BLOCK_BYTES", block_bytes)
    assert read_canonically(path)
    fast, validating = read_both_ways(path)
    assert fast == validating and fast[0] == built


# 400 records of about 60 bytes, read in 1 KB blocks in the tests below
MANY_QUERIES = build_trace_set("m", 2, (8, 8), ("math", "code"), [
    (f"q{q}", 1 + q % 2, layer, (q % 8, (q + 3 + layer) % 8)) for q in range(200) for layer in range(2)])


def test_row_fault_after_canonical_records_decodes_nothing_as_text(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    write_traces(MANY_QUERIES, path)
    with path.open("ab") as fh:  # the first record again
        fh.write(path.read_bytes().split(b"\n")[1] + b"\n")
    monkeypatch.setattr(routing_trace, "_BLOCK_BYTES", 1024)
    _, records = spy_on_reader(monkeypatch)
    with pytest.raises(TraceError) as exc:
        ingest_traces(path)
    assert str(exc.value) == f"{path}: line 402: duplicate (query_id='q0', layer=0) record"
    assert records == []


@pytest.mark.parametrize("at", [-1, 200])
def test_text_decoding_starts_at_the_refused_block(tmp_path, monkeypatch, at):
    # record ``at`` carries a gate_probs field, which the canonical layout does not hold
    path = tmp_path / "t.jsonl"
    write_traces(MANY_QUERIES, path)
    header, *records = path.read_bytes().split(b"\n")[:-1]
    records[at] = records[at][:-1] + b',"gate_probs":[0.6,0.4]}'
    path.write_bytes(b"\n".join([header, *records, b""]))
    monkeypatch.setattr(routing_trace, "_BLOCK_BYTES", 1024)
    fast, text_only = read_both_ways(path)
    blocks, decoded = spy_on_reader(monkeypatch)
    ts = ingest_traces(path)
    assert ts == fast[0] == text_only[0] == MANY_QUERIES and ts.domain.dtype == MANY_QUERIES.domain.dtype
    # no block after the refused one is parsed as bytes, and no record before it is decoded as text
    assert [rows is None for _, rows in blocks] == [False] * (len(blocks) - 1) + [True]
    assert len(decoded) == len(records) - sum(len(rows[0]) for _, rows in blocks[:-1])
    assert len(decoded) < 20 if at == -1 else len(decoded) > 190


def test_row_fault_before_a_later_bad_byte_is_reported(tmp_path, monkeypatch):
    # the repeated pair (line 102) is read as canonical bytes, the bad byte (line 122) as text;
    # both lie in the first 8 KB, so re-reading line 102 must not stop at the bad byte
    path = tmp_path / "t.jsonl"
    write_traces(MANY_QUERIES, path)
    header, *records = path.read_bytes().split(b"\n")[:-1]
    records[100] = records[0]
    records[120] = records[120].replace(b"[", b"[\xff", 1)
    body = b"\n".join([header, *records, b""])
    assert body.rindex(records[0]) + 1024 < body.index(b"\xff") < 8192  # in a later block
    path.write_bytes(body)
    monkeypatch.setattr(routing_trace, "_BLOCK_BYTES", 1024)
    with pytest.raises(TraceError) as exc:
        ingest_traces(path)
    assert str(exc.value) == f"{path}: line 102: duplicate (query_id='q0', layer=0) record"


@pytest.mark.parametrize("gap", [0, 9000])
def test_row_fault_before_a_non_utf8_line_in_the_text_part_is_reported(tmp_path, gap):
    # records with spaces after the commas are read as text; the first one repeats at line 12,
    # and the bad byte follows within the same 8 KB of text or after it
    records = [{"query_id": f"q{q}", "domain": "math", "layer": 0, "selected": [q % 4]} for q in range(10)]
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, records + records[:1])
    with path.open("ab") as fh:
        fh.write(b"\n" * gap + b"\xff\n")
    with pytest.raises(TraceError) as exc:
        ingest_traces(path)
    assert str(exc.value) == f"{path}: line 12: duplicate (query_id='q0', layer=0) record"


def test_non_utf8_line_is_reported_at_its_own_line(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, [{"query_id": "a", "domain": "math", "layer": 0, "selected": [1]}])
    with path.open("ab") as fh:
        fh.write(b'{"query_id": "b\xff"}\n' + json.dumps({"query_id": "a"}).encode() + b"\n")
    with pytest.raises(TraceError) as exc:
        ingest_traces(path)
    assert str(exc.value) == (f"{path}: line 3: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                              "in position 15: invalid start byte")


@pytest.mark.parametrize("fault", [None, "crlf", "cr"])
def test_text_after_canonical_records_numbers_lines_as_text_mode_does(tmp_path, monkeypatch, fault):
    # the last four records end in \r\n, \r, \r\n and \r; a fault repeats the first record's pair
    path = tmp_path / "t.jsonl"
    write_traces(MANY_QUERIES, path)
    header, *records = path.read_bytes().split(b"\n")[:-1]
    if fault:
        records[-4 if fault == "crlf" else -3] = records[0]
    ends = [b"\n"] * (len(records) - 4) + [b"\r\n", b"\r", b"\r\n", b"\r"]
    path.write_bytes(header + b"\n" + b"".join(record + end for record, end in zip(records, ends)))
    monkeypatch.setattr(routing_trace, "_BLOCK_BYTES", 1024)
    fast, text_only = read_both_ways(path)
    assert fast == text_only
    if fault:
        line = 398 if fault == "crlf" else 399
        assert fast == f"{path}: line {line}: duplicate (query_id='q0', layer=0) record"
    else:
        _, decoded = spy_on_reader(monkeypatch)
        assert ingest_traces(path) == MANY_QUERIES and len(decoded) < 20


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_write_traces_matches_per_record_oracle(seed, tmp_path_factory):
    # escapes, U+2028, non-ASCII ids and labels, missing layers and mixed k
    ts = odd_trace_set(np.random.default_rng(seed))
    tmp = tmp_path_factory.mktemp("writer")
    write_traces(ts, tmp / "fast.jsonl")
    naive_write_traces(ts, tmp / "naive.jsonl")
    reference_write_traces(ts, tmp / "reference.jsonl")
    assert (tmp / "fast.jsonl").read_bytes() == (tmp / "naive.jsonl").read_bytes()
    assert (tmp / "fast.jsonl").read_bytes() == (tmp / "reference.jsonl").read_bytes()


def test_write_traces_matches_reference_writer_at_pipeline_and_e64_shapes(tmp_path, e64_scenario):
    # one layer of 270 queries (E = 4, k = 2) as the pipeline exports, E = 64, k = 8 at 16
    # layers, and empty, NUL-holding and escaped ids and labels
    rng = np.random.default_rng(5)
    pipeline = build_trace_set("proxy", 1, (4,), tuple(f"d{j}" for j in range(1, 10)), [
        ([f"q{q:04d}" for q in range(270)], np.arange(270) % 9 + 1, 0,
         np.argsort(rng.random((270, 4)), axis=1)[:, :2])])
    edges = build_trace_set("m", 2, (12, 12), ("", 'quo"te\u2028'), [
        ("", 1, 0, (11,)), ("", 1, 1, (0, 10)), ("nul\x00", 2, 1, (3,)), ("\\é", 2, 0, (1, 2, 9))])
    for name, ts in (("pipeline", pipeline), ("teacher", e64_scenario.teacher), ("scratch", e64_scenario.scratch),
                     ("edges", edges)):
        array, reference = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.reference.jsonl"
        write_traces(ts, array)
        reference_write_traces(ts, reference)
        assert array.read_bytes() == reference.read_bytes()


def test_expert_count_beyond_int16_rejected(tmp_path):
    with pytest.raises(TraceError, match="at most 32767 experts"):
        build_trace_set("m", 1, (40000,), ("d1",), [("a", 1, 0, (0,))])
    path = tmp_path / "t.jsonl"
    write_lines(path, {**HEADER, "experts_per_layer": [40000]},
                [{"query_id": "a", "domain": "math", "layer": 0, "selected": [39999]}])
    with pytest.raises(TraceError, match="line 1: header a layer may have at most 32767 experts"):
        ingest_traces(path)


# values no int16 expert or int32 layer column holds (65537 and 2**32 would wrap to 1 and 0)
# still fail their range check on the validating path, printed as the file holds them
WIDE_VALUES = [
    ({"layer": 0, "selected": [1, 40000]}, "expert index 40000 out of range at layer 0 (valid 0..3)"),
    ({"layer": 0, "selected": [50000, 40000]}, "expert index 50000 out of range at layer 0 (valid 0..3)"),
    ({"layer": 0, "selected": [-40000, 1]}, "expert index -40000 out of range at layer 0 (valid 0..3)"),
    ({"layer": 0, "selected": [2**70, 0]}, f"expert index {2**70} out of range at layer 0 (valid 0..3)"),
    ({"layer": 0, "selected": [40000, 40000]}, "duplicate expert index in selected (40000, 40000)"),
    ({"layer": 0, "selected": [65537]}, "expert index 65537 out of range at layer 0 (valid 0..3)"),
    ({"layer": 2**31 - 1, "selected": [0]}, "layer 2147483647 out of range (model has 1 layers)"),
    ({"layer": 2**32, "selected": [0]}, f"layer {2**32} out of range (model has 1 layers)"),
    ({"layer": 2**40, "selected": [0]}, f"layer {2**40} out of range (model has 1 layers)"),
    ({"layer": -(2**70), "selected": [0]}, f"layer {-(2**70)} out of range (model has 1 layers)"),
]


@pytest.mark.parametrize("record, message", WIDE_VALUES)
def test_wide_values_reach_the_range_checks(tmp_path, record, message):
    path = tmp_path / "t.jsonl"
    write_lines(path, HEADER, [{"query_id": "a", "domain": "math", "layer": 0, "selected": [0, 1]},
                               {"query_id": "b", "domain": "code", **record}])
    with pytest.raises(TraceError) as exc:
        ingest_traces(path)
    assert str(exc.value) == f"{path}: line 3: {message}"


def test_validating_reader_memory_is_bounded(tmp_path, monkeypatch):
    # 20000 records of 16 experts in the non-canonical layout; batches are narrowed to
    # int16 experts and 32-bit rows once converted, and freed before the column checks:
    # the tracemalloc peak is about 4.6 MB, against 10.2 MB with int64 rows kept twice
    monkeypatch.setattr(routing_trace, "_CHUNK_ROWS", 1024)
    header = {**HEADER, "num_layers": 8, "experts_per_layer": [64] * 8}
    records = [
        {"query_id": f"q{q}", "domain": "math", "layer": layer, "selected": list(range(layer, layer + 16))}
        for q in range(2500) for layer in range(8)
    ]
    path = tmp_path / "t.jsonl"
    write_lines(path, header, records)
    tracemalloc.start()
    try:
        ts = ingest_traces(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.num_queries == 2500 and all(len(e) == 2500 * 16 for e in ts.experts)
    assert peak < 6.5e6


def test_canonical_reader_memory_is_bounded(tmp_path, monkeypatch):
    # 20000 canonical records of 16 experts; each 256 KB block is parsed as bytes into
    # int32 rows and int16 experts, and the blocks are freed before the column checks:
    # the tracemalloc peak is about 3.8 MB, against 9.3 MB with a regular expression's
    # string captures, 1 MB blocks and int64 rows
    monkeypatch.setattr(routing_trace, "_CHUNK_ROWS", 1024)
    header = {**HEADER, "num_layers": 8, "experts_per_layer": [64] * 8}
    records = [
        {"query_id": f"q{q}", "domain": "math", "layer": layer, "selected": list(range(layer, layer + 16))}
        for q in range(2500) for layer in range(8)
    ]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([json.dumps(header)] + [json.dumps(r, separators=(",", ":")) for r in records])
                    + "\n", encoding="utf-8")
    assert read_canonically(path)
    tracemalloc.start()
    try:
        ts = ingest_traces(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.num_queries == 2500 and all(len(e) == 2500 * 16 for e in ts.experts)
    assert peak < 6.5e6


def test_column_checks_memory_is_bounded():
    # 64000 rows of 8 experts (4000 queries at 16 layers, 2.05 MB of rows): the experts are
    # sorted in place with int32 keys and repeated (query, layer) pairs are found one layer at
    # a time, from each layer's rows put in query order once, so past the 1.30 MB of outputs
    # the tracemalloc peak adds about 1.8 MB, 0.5 MB of it those orders; int64 pair keys
    # argsorted over all rows and a second expert array added 6.5 MB
    n, layers, k = 4000, 16, 8
    query = np.arange(n, dtype=np.int32)
    rows = (np.repeat(query, layers), np.repeat(query % 9 + 1, layers),
            np.tile(np.arange(layers, dtype=np.int32), n), np.full(n * layers, k, np.int32),
            ((np.arange(n * layers)[:, None] * 5 + np.arange(k) * 7) % 64).astype(np.int16).ravel())
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        domain, counts, selected = routing_trace._columns(rows, n, (64,) * layers)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert [len(e) for e in selected] == [n * k] * layers and domain.tolist() == (np.arange(n) % 9 + 1).tolist()
    assert peak < 4e6


def test_write_memory_is_bounded(tmp_path):
    # 4000 queries at 16 layers (64000 records, 1.28 MB of columns) are written in blocks of
    # at most 2048 records: the tracemalloc peak is about 1.0 MB, against 7.2 MB for blocks
    # of 512 queries over whole-file expert and int64 offset arrays
    n, layers = 4000, 16
    ids, doms = [f"q{i:06d}" for i in range(n)], np.arange(n) % 9 + 1
    records = [(ids, doms, layer, (np.arange(n)[:, None] * 5 + np.arange(8) * 7 + layer) % 64)
               for layer in range(layers)]
    ts = build_trace_set("m", layers, (64,) * layers, tuple(f"d{j}" for j in range(1, 10)), records)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        write_traces(ts, tmp_path / "t.jsonl")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert ingest_traces(tmp_path / "t.jsonl") == ts
    assert peak < 3e6


@st.composite
def shuffled_records(draw):
    """Records with missing layers, mixed k and unsorted selections, in shuffled order."""
    experts = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    num_domains = draw(st.integers(1, 3))
    records = []
    for q in range(draw(st.integers(1, 8))):
        dom = draw(st.integers(1, num_domains))
        for layer in sorted(draw(st.sets(st.sampled_from(range(len(experts))), min_size=1))):
            selected = st.lists(st.integers(0, experts[layer] - 1), min_size=1, unique=True)
            records.append((f"q{q}", dom, layer, draw(selected)))
    return experts, num_domains, draw(st.permutations(records))


@settings(max_examples=60, deadline=None)
@given(case=shuffled_records())
def test_entry_points_give_equal_columns(case, tmp_path_factory):
    experts, num_domains, records = case
    labels = tuple(f"d{j}" for j in range(1, num_domains + 1))
    built = build_trace_set("m", len(experts), experts, labels, records)
    header = {**HEADER, "num_layers": len(experts), "experts_per_layer": experts, "domains": list(labels)}
    lines = [json.dumps(header)] + [
        json.dumps({"query_id": qid, "domain": labels[dom - 1], "layer": layer, "selected": selected},
                   separators=(",", ":"))
        for qid, dom, layer, selected in records
    ]
    tmp = tmp_path_factory.mktemp("entry")
    canonical, spaced = tmp / "canonical.jsonl", tmp / "spaced.jsonl"
    canonical.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # a space after a comma is valid JSON but not the canonical layout
    spaced.write_text("\n".join(lines).replace(',"domain"', ', "domain"') + "\n", encoding="utf-8")
    assert read_canonically(canonical)
    assert not read_canonically(spaced)
    assert ingest_traces(canonical) == built
    assert ingest_traces(spaced) == built
    recorded = {(t.query_id, layer): s for t in query_traces(built) for layer, s in enumerate(t.selections) if s}
    assert recorded == {(qid, layer): tuple(sorted(s)) for qid, _, layer, s in records}
    assert built.query_ids == tuple(dict.fromkeys(qid for qid, *_ in records))
    write_traces(built, tmp / "fast.jsonl")
    naive_write_traces(built, tmp / "naive.jsonl")
    assert (tmp / "fast.jsonl").read_bytes() == (tmp / "naive.jsonl").read_bytes()
