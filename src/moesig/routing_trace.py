"""Routing-trace data model and line-delimited trace file IO.

A trace file is UTF-8 JSON lines. The first line is a header declaring the
schema version and model shape; every following line is one routing record,
one per (query, layer):

    {"schema_version": 1, "model_id": "m", "num_layers": 2,
     "experts_per_layer": [8, 8], "domains": ["math", "code"]}
    {"query_id": "q0", "domain": "math", "layer": 0, "selected": [1, 5]}
    ...

In memory a trace set is columnar: query ids in first-occurrence order, one
domain index per query and, per layer, each query's selection count (0 for a
layer the file did not record) plus one flat int16 array of the selected
experts, sorted within each query. One reader parses each file once. Lines in
the exact layout :func:`write_traces` produces (compact records with keys in
that order, strings without escapes, integers of at most nine digits, ``\n``
line ends) are parsed in 256 KB blocks of bytes by array operations: the
quotes of every line sit at fixed offsets from five literal pieces, the
integers are parsed in one pass per block, and only the first line of each
run of lines with equal query id and label is sliced and decoded. From the
first block that is not in that layout to the end of the file, lines are
decoded one by one as text, with the line numbers that name every file
diagnostic. The rows of both parts, and those of :func:`build_trace_set`,
run one shared set of column checks.

Records carrying a ``gate_probs`` field are accepted; the field is ignored
because all downstream signatures are built from binary activations only.
Shared (always-active) experts are excluded from traces by convention; only
routed experts appear.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import chain, islice, starmap
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from moesig._meta import check_unicode, is_int
from moesig.errors import TraceError

SCHEMA_VERSION = 1
MAX_EXPERTS = np.iinfo(np.int16).max  # experts are stored as int16

# A record line as write_traces lays it out is these five pieces around the query id, the
# label, the layer and the selected experts; a piece starts at the line start, at the 4th,
# 8th and (one byte before) the 11th of the line's twelve quotes, and two bytes before its end
_PIECES = (b'{"query_id":"', b'","domain":"', b'","layer":', b',"selected":[', b"]}\n")
_PIECE_BYTES = np.array([list(piece.ljust(16, b"\0")) for piece in _PIECES], np.uint8)
_PIECE_MASK = np.array([[0xFF] * len(piece) + [0] * (16 - len(piece)) for piece in _PIECES], np.uint8)
_COLUMN = np.arange(16)
_BLOCK_BYTES = 1 << 18
_CHUNK_ROWS = 1 << 14  # record rows the column checks sort, and the text path converts, at once
_WRITE_RECORDS = 1 << 11  # records (lines) per block write_traces joins, at most


@dataclass(frozen=True, eq=False)
class RoutingTraceSet:
    """Validated, immutable routing columns of one model.

    At layer l, query q selected ``counts[l][q]`` experts of ``experts[l]``, after those of
    the queries before it. Built and validated by :func:`build_trace_set` or
    :func:`ingest_traces`; the constructor checks nothing.
    """

    model_id: str
    experts_per_layer: tuple[int, ...]
    domains: tuple[str, ...]
    query_ids: tuple[str, ...]
    domain: np.ndarray  # (n,) 1-based index into domains
    counts: tuple[np.ndarray, ...]  # per layer, (n,) int32
    experts: tuple[np.ndarray, ...]  # per layer, (counts[l].sum(),) int16
    meta: Mapping[str, object] = field(default_factory=dict)

    def _values(self) -> tuple:
        return (self.model_id, self.experts_per_layer, self.domains, self.query_ids, self.domain,
                *self.counts, *self.experts)

    def __eq__(self, other: object) -> bool:
        # unequal layer counts differ in experts_per_layer, which comes first
        return isinstance(other, RoutingTraceSet) and all(
            map(np.array_equal, self._values(), other._values()))

    @property
    def num_layers(self) -> int:
        return len(self.experts_per_layer)

    @property
    def num_queries(self) -> int:
        return len(self.query_ids)


class _RowFault(Exception):
    """args: the first record row that fails a column check, and the check."""


def _check_shape(num_layers: int, experts_per_layer: Sequence[int], domains: Sequence[str],
                 where: str) -> None:
    if num_layers < 1:
        raise TraceError(f"{where}num_layers must be >= 1, got {num_layers}")
    if len(experts_per_layer) != num_layers:
        raise TraceError(
            f"{where}experts_per_layer has {len(experts_per_layer)} entries for {num_layers} layers")
    if any(e < 1 for e in experts_per_layer):
        raise TraceError(f"{where}every layer must have at least one expert")
    if any(e > MAX_EXPERTS for e in experts_per_layer):
        raise TraceError(f"{where}a layer may have at most {MAX_EXPERTS} experts")
    if len(set(domains)) != len(domains):
        raise TraceError(f"{where}domain labels must be unique")


def _number(ids: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """Index of every id, adding unseen ids to ``index`` in first-occurrence order."""
    fresh = [qid for qid in dict.fromkeys(ids) if qid not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


def _narrow(values: list[int], dtype, high: int) -> np.ndarray:
    """``values`` as ``dtype``, each clipped to -1..``high`` first: a clipped value fails the
    same range check, and the diagnostic prints the value as the file holds it."""
    try:
        wide = np.array(values, np.int64)
    except OverflowError:  # beyond int64, so clipped as well
        wide = np.array([min(max(v, -1), high) for v in values], np.int64)
    return np.clip(wide, -1, high).astype(dtype)


def _layer_rows(query: np.ndarray, layer: np.ndarray, num_layers: int) -> Iterator[np.ndarray]:
    """Per layer, the indices of its rows in (query, row) order."""
    for at in range(num_layers):
        rows = np.flatnonzero(layer == at)
        yield rows[np.argsort(query[rows], kind="stable")]


def _expert_faults(flat: np.ndarray, length: np.ndarray, bounds: np.ndarray, layer: np.ndarray,
                   limits: np.ndarray) -> np.ndarray:
    """Whether each row's experts are none, hold a repeat or hold one out of range; the
    int16 experts of each row are sorted in place on the way.

    Per chunk of rows, sorting row * stride + expert + 1 sorts each row and puts repeats
    side by side; clipping to -1 .. stride - 2 keeps keys apart by row, and an expert it
    changes is out of range anyway. Keys stay below (_CHUNK_ROWS + 1) * (MAX_EXPERTS + 2)
    < 2**31, so int32 holds them."""
    stride = int(limits.max()) + 2
    bad = length == 0
    for r in range(0, len(length), _CHUNK_ROWS):
        chunk = length[r:r + _CHUNK_ROWS]
        local = bounds[r:r + len(chunk) + 1] - bounds[r]
        experts = flat[bounds[r]:bounds[r + len(chunk)]]
        keys = experts.astype(np.int32)
        np.clip(keys, -1, stride - 2, out=keys)
        keys += np.repeat(np.arange(len(chunk), dtype=np.int32) * np.int32(stride) + 1, chunk)
        keys.sort()
        bad[r + keys[1:][keys[1:] == keys[:-1]] // stride] = True
        keys %= stride
        keys -= 1
        experts[:] = keys
        full = np.flatnonzero(chunk)
        bad[r + full] |= (experts[local[full]] < 0) | (experts[local[full + 1] - 1] >= limits[layer[r + full]])
    return bad


def _pair_faults(query: np.ndarray, layer: np.ndarray, num_layers: int) -> np.ndarray:
    """Whether each row repeats the (query, layer) pair of an earlier row, found one layer at a time."""
    bad = np.zeros(len(query), bool)
    for at in _layer_rows(query, layer, num_layers):
        bad[at[1:][query[at[1:]] == query[at[:-1]]]] = True
    return bad


def _columns(rows: tuple, num_queries: int, experts_per_layer: tuple[int, ...]):
    """Check record rows; return each query's domain, then per-layer counts and experts.

    ``rows`` holds, per record row, its query index (numbered by first occurrence),
    1-based domain, layer and expert count, then the int16 experts of all rows, row after
    row, which are sorted within each row in place.

    Raises _RowFault(row, check) for the first row that fails a check, with the first
    check it fails in the order "layer" (out of range), "experts" (none, a repeat or one
    out of range), "domain" (not that of the query's first row) and "pair" (a (query,
    layer) pair of an earlier row)."""
    query, domain, layer, length, flat = rows
    limits = np.asarray(experts_per_layer)
    bad_layer = (layer < 0) | (layer >= len(limits))
    layer = np.where(bad_layer, 0, layer)
    bounds = np.concatenate(([0], np.cumsum(length, dtype=np.int64)))
    # a query's first row raises the running maximum of the first-occurrence numbering
    query_domain = domain[np.flatnonzero(np.diff(np.maximum.accumulate(query), prepend=-1))]
    checks = {"layer": bad_layer, "experts": _expert_faults(flat, length, bounds, layer, limits),
              "domain": query_domain[query] != domain, "pair": _pair_faults(query, layer, len(limits))}
    bad = np.logical_or.reduce(list(checks.values()))
    if bad.any():
        first = int(bad.argmax())
        raise _RowFault(first, next(name for name, flags in checks.items() if flags[first]))
    del checks, bad, bad_layer  # the outputs need the room
    counts, selected = [], []
    for at in _layer_rows(query, layer, len(limits)):
        n = length[at]
        counts.append(np.zeros(num_queries, np.int32))
        counts[-1][query[at]] = n
        take = np.repeat(bounds[at] - np.cumsum(n) + n, n)
        take += np.arange(len(take))
        selected.append(flat[take])
    return query_domain, tuple(counts), tuple(selected)


def _fault(check: str, qid: str, layer: int, selected: Sequence[int], experts_per_layer) -> str:
    """The diagnostic of a record that fails ``check``, from its own values."""
    if check == "layer":
        return f"layer {layer} out of range (model has {len(experts_per_layer)} layers)"
    if check == "domain":
        return f"query {qid!r} re-appears with a different domain label"
    if check == "pair":
        return f"duplicate (query_id={qid!r}, layer={layer}) record"
    selected = tuple(sorted(selected))
    if not selected:
        return "selected expert set must be nonempty"
    if len(set(selected)) != len(selected):
        return f"duplicate expert index in selected {selected}"
    bad = selected[0] if selected[0] < 0 else selected[-1]
    return f"expert index {bad} out of range at layer {layer} (valid 0..{experts_per_layer[layer] - 1})"


def _parse_header(line: str, lineno: int) -> tuple[dict, dict[str, int]]:
    """Decode and fully validate the header line before any record is read; return it and
    its declared domain labels, numbered from 1."""
    where = f"line {lineno}: "
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TraceError(f"{where}header is not valid JSON: {exc}") from None
    check_unicode(line, header, TraceError, f"line {lineno}")
    if not isinstance(header, dict) or "schema_version" not in header:
        raise TraceError(f"{where}first line must be a header with a schema_version field")
    version = header["schema_version"]
    if not is_int(version) or version != SCHEMA_VERSION:
        raise TraceError(f"{where}unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})")
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
    if domains is not None and (not isinstance(domains, list) or not all(isinstance(d, str) for d in domains)):
        raise TraceError(f"{where}header domains must be a list of strings")
    if not isinstance(header.get("meta", {}), dict):
        raise TraceError(f"{where}header meta must be a JSON object")
    _check_shape(num_layers, experts, domains or [], f"{where}header ")
    return header, {label: i for i, label in enumerate(domains or [], 1)}


def _file_records(lines: Iterator[tuple[int, str]], domain_index: dict[str, int],
                  declared: bool) -> Iterator[tuple[str, int, int, list[int], int]]:
    """Decode record lines, check field types and map domain labels to indices; without
    declared domains, new labels are added to ``domain_index`` in first-occurrence order."""
    for lineno, line in lines:
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise TraceError(f"line {lineno}: malformed record: {exc}") from None
        check_unicode(line, rec, TraceError, f"line {lineno}")
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
                    f"line {lineno}: unknown domain label {label!r} (declared: {list(domain_index)})")
            dom = domain_index[label] = len(domain_index) + 1
        yield qid, dom, layer, selected, lineno


def _gather(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The bytes of ``buf[start[i]:stop[i]]`` for every i, back to back; the ranges ascend
    and do not overlap."""
    cuts = np.stack([start, stop], axis=1).ravel()
    inside = np.zeros(len(cuts) + 1, bool)
    inside[1::2] = True
    return buf[np.repeat(inside, np.diff(cuts, prepend=0, append=len(buf)))]


def _integers(text: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Values and comma offsets of comma-terminated integers of 1-9 digits without leading
    zeros in the bytes ``text``; None if ``text`` is anything else."""
    comma = text == ord(",")
    if not (comma | (text - ord("0") < 10)).all():
        return None
    ends = np.flatnonzero(comma)
    starts = np.concatenate(([0], ends[:-1] + 1))
    width = ends - starts
    if ((width < 1) | (width > 9) | ((text[starts] == ord("0")) & (width > 1))).any():
        return None
    return np.fromstring(text.tobytes(), np.int32, sep=","), ends


def _run_starts(window: np.ndarray, key: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Whether each line's key bytes, ``width`` of them from ``key``, differ from the previous
    line's (the first line's always do); ``window`` is the block's bytes as rows of 16 from
    every offset."""
    new = np.ones(len(key), bool)
    live = np.flatnonzero(width[1:] == width[:-1]) + 1
    new[live] = False
    for offset in range(0, int(width.max()), 16):
        differ = ((window[key[live] + offset] != window[key[live - 1] + offset])
                  & (_COLUMN < (width[live] - offset)[:, None])).any(axis=1)
        new[live[differ]] = True
        live = live[~differ & (width[live] > offset + 16)]
    return new


def _canonical_block(block: bytes, query_index: dict, domain_index: dict, declared) -> tuple | None:
    """Row columns of a block of record lines, as int32 query, domain, layer and count and
    int16 experts clipped as ``_narrow`` clips them; None if a line is not canonical or a
    label is undeclared. Query ids and new labels are numbered as in ``_file_records``."""
    if not block.endswith(b"\n") or b"\\" in block:
        return None
    padded = np.frombuffer(block + bytes(16), np.uint8)
    buf, window = padded[:len(block)], np.lib.stride_tricks.sliding_window_view(padded, 16)
    newline, quote = np.flatnonzero(buf == ord("\n")), np.flatnonzero(buf == ord('"'))
    n = len(newline)
    if len(quote) != 12 * n or np.count_nonzero(buf < 0x20) != n:
        return None
    start = np.concatenate(([0], newline[:-1] + 1))
    q = quote.reshape(n, 12)
    if (q[1:, 0] < start[1:]).any() or (q[:, 11] > newline).any():
        return None  # a line without twelve quotes
    pieces = window[np.stack([start, q[:, 3], q[:, 7], q[:, 10] - 1, newline - 2], axis=1)]
    if ((pieces & _PIECE_MASK) != _PIECE_BYTES).any():
        return None
    # a layer runs from two bytes after the 10th quote through the comma before the 11th, and
    # the experts from twelve bytes after the 11th quote through the "]"
    layers = _integers(_gather(buf, q[:, 9] + 2, q[:, 10]))
    text = _gather(buf, q[:, 10] + 12, newline - 1)
    ends = np.cumsum(newline - q[:, 10] - 13) - 1
    text[ends] = ord(",")  # each line's "]"
    selected = _integers(text)
    if layers is None or len(layers[1]) != n or selected is None:
        return None
    # the key of a line runs from its query id to the end of its label
    first = np.flatnonzero(_run_starts(window, start + 13, q[:, 7] - start - 13))
    try:
        qids = [block[a:b].decode() for a, b in zip((start[first] + 13).tolist(), q[first, 3].tolist())]
        labels = [block[a:b].decode() for a, b in zip((q[first, 6] + 1).tolist(), q[first, 7].tolist())]
    except UnicodeDecodeError:
        return None
    new_labels = [label for label in dict.fromkeys(labels) if label not in domain_index]
    if new_labels and declared is not None:
        return None
    domain_index.update({label: len(domain_index) + i for i, label in enumerate(new_labels, 1)})
    runs = np.diff(first, append=n)
    return (
        np.repeat(_number(qids, query_index).astype(np.int32), runs),
        np.repeat(np.fromiter(map(domain_index.__getitem__, labels), np.int32, len(labels)), runs),
        layers[0],
        np.diff(np.searchsorted(selected[1], ends), prepend=-1).astype(np.int32),
        np.minimum(selected[0], MAX_EXPERTS).astype(np.int16),
    )


def _batch_rows(records: list, query_index: dict[str, int], num_layers: int, linenos: list) -> tuple:
    """Row columns of decoded (query_id, domain, layer, selected, lineno) records, in the
    narrowest types that keep every check's outcome (experts as int16); their line numbers
    go to ``linenos``."""
    qids, doms, layers, selected, numbers = zip(*records) if records else ((),) * 5
    linenos.append(np.array(numbers, np.int64))
    return (_number(qids, query_index).astype(np.int32), np.array(doms, np.int32),
            _narrow(list(layers), np.int32, num_layers),
            np.fromiter(map(len, selected), np.int32, len(records)),
            _narrow(list(chain.from_iterable(selected)), np.int16, MAX_EXPERTS))


def _text_line(lineno: int, raw: str) -> tuple[int, str]:
    """``raw`` stripped, after its line number. A line that held bytes that are not UTF-8,
    decoded as surrogate escapes, raises TraceError with the strict decode's fault of its
    bytes, so that fault takes its place in line order."""
    if not raw.isascii():
        try:
            raw.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceError(f"line {lineno}: not UTF-8 text: {exc}") from None
    return lineno, raw.strip()


def _read(path: Path) -> tuple:
    """Header, domain and query indices and columns of a trace file, each line parsed once;
    the first fault in line order raises TraceError.

    After a first line that is not blank, is UTF-8 and holds no carriage return, the header
    is parsed and 256 KB blocks of whole lines go to ``_canonical_block`` until it refuses
    one. The rest of the file, from the start of that block or of an unterminated last line
    (from byte 0 after any other first line), is decoded as text line by line; a line that is
    not UTF-8 faults in its place in line order."""
    blocks, linenos, batch, query_index, header, fault = [], [], [], {}, None, None
    with path.open("rb") as fh:
        first, start = fh.readline(), 0
        try:
            line = first.decode("utf-8").strip()
        except UnicodeDecodeError:
            line = ""
        if line and b"\r" not in first:
            header, domain_index = _parse_header(line, 1)
            start, tail = len(first), b""
            while chunk := fh.read(_BLOCK_BYTES):
                lines, newline, tail = (tail + chunk).rpartition(b"\n")
                if newline:
                    rows = _canonical_block(lines + newline, query_index, domain_index,
                                            header.get("domains"))
                    if rows is None:
                        break
                    blocks.append(rows)
                    start += len(lines) + 1
        fh.seek(start)
        # canonical rows hold no line number: row r is line r + 2
        prefix = sum(len(rows[0]) for rows in blocks)
        text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape")
        lines = starmap(_text_line, enumerate(text, start=prefix + 2 if header else 1))
        lines = ((n, line) for n, line in lines if line)
        if header is None:
            top = next(lines, None)
            if top is None:
                raise TraceError("file is empty (missing header line)")
            header, domain_index = _parse_header(top[1], top[0])
        try:
            for record in _file_records(lines, domain_index, header.get("domains") is not None):
                batch.append(record)
                if len(batch) == _CHUNK_ROWS:
                    blocks.append(_batch_rows(batch, query_index, header["num_layers"], linenos))
                    batch.clear()
        except TraceError as exc:
            fault = exc
    # records before a line fault come first in line order, so their faults win
    blocks.append(_batch_rows(batch, query_index, header["num_layers"], linenos))
    batch.clear()
    # joined one column at a time, each column's pieces dropped once joined: the column
    # checks need room of their own
    parts = [list(column) for column in zip(*blocks)]
    blocks.clear()
    rows = []
    for column in parts:
        rows.append(np.concatenate(column))
        column.clear()
    experts = tuple(header["experts_per_layer"])
    try:
        domain, *columns = _columns(rows, len(query_index), experts)
    except _RowFault as exc:
        row, check = exc.args
        lineno = row + 2 if row < prefix else int(np.concatenate(linenos)[row - prefix])
        # the record's own values, as the file holds them; a later bad byte must not stop the read
        with path.open(encoding="utf-8", errors="replace") as fh:
            rec = json.loads(next(islice(fh, lineno - 1, None)))
        message = _fault(check, rec["query_id"], rec["layer"], rec["selected"], experts)
        raise TraceError(f"line {lineno}: {message}") from None
    if fault is not None:
        raise fault
    return header, domain_index, query_index, (domain.astype(np.int64), *columns)


def ingest_traces(path: str | Path) -> RoutingTraceSet:
    """Read and validate a trace file into a RoutingTraceSet.

    Records sharing a query_id are merged into one query. If the header
    declares ``domains``, labels outside that list are rejected; otherwise
    the label-to-index mapping follows first occurrence order. A fault
    raises TraceError whose message starts with ``path``.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"{path}: trace file not found")
    try:
        header, domains, query_ids, columns = _read(path)
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from None
    return RoutingTraceSet(header["model_id"], tuple(header["experts_per_layer"]), tuple(domains),
                           tuple(query_ids), *columns, meta=dict(header.get("meta", {})))


def write_traces(trace_set: RoutingTraceSet, path: str | Path) -> None:
    """Write a trace set in the canonical line-delimited format.

    Output is byte-deterministic: header first, then one record per recorded
    (query, layer) in query order with layers ascending, sorted expert
    indices, and compact JSON separators, written in blocks of whole queries
    of at most _WRITE_RECORDS records (one query's, if it has more).
    """
    path = Path(path)
    header = {"schema_version": SCHEMA_VERSION, "model_id": trace_set.model_id,
              "num_layers": trace_set.num_layers, "experts_per_layer": list(trace_set.experts_per_layer),
              "domains": list(trace_set.domains)}
    if trace_set.meta:
        header["meta"] = dict(trace_set.meta)
    labels = [json.dumps(label, ensure_ascii=False) for label in trace_set.domains]
    names = np.array([str(i) for i in range(max(trace_set.experts_per_layer))], object)
    layer_heads = np.array([f'{layer},"selected":[' for layer in range(trace_set.num_layers)], object)
    # a query has at most one record per layer
    size = max(1, _WRITE_RECORDS // trace_set.num_layers)
    starts = np.zeros(trace_set.num_layers, np.int64)  # where each layer's experts of the block start
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), ensure_ascii=False) + "\n")
        for a in range(0, trace_set.num_queries, size):
            block = slice(a, a + size)
            counts = np.stack([layer_counts[block] for layer_counts in trace_set.counts])
            ends = starts + counts.sum(axis=1)
            flat = np.concatenate([e[s:t] for e, s, t in zip(trace_set.experts, starts.tolist(), ends.tolist())])
            starts = ends
            # where the experts of each (layer, query) of the block start in flat
            first = np.cumsum(counts, axis=None).reshape(counts.shape) - counts
            prefixes = np.array([
                f'{{"query_id":{json.dumps(qid, ensure_ascii=False)},"domain":{labels[d - 1]},"layer":'
                for qid, d in zip(trace_set.query_ids[block], trace_set.domain[block].tolist())
            ], object)
            # records in (query, layer) order; the block is one join of expert names with
            # "," between experts and the end of a record plus the next record's head between records
            queries, layers = np.nonzero(counts.T)
            heads = prefixes[queries] + layer_heads[layers]
            k = counts[layers, queries]
            take = np.repeat(first[layers, queries] - np.cumsum(k) + k, k) + np.arange(k.sum())
            tokens = np.empty(2 * len(take), object)
            tokens[0::2] = names[flat[take]]
            tokens[1::2] = ","
            tokens[2 * np.cumsum(k) - 1] = "]}\n" + np.append(heads[1:], "")
            fh.write(heads[0] + "".join(tokens.tolist()))


def build_trace_set(model_id: str, num_layers: int, experts_per_layer: Sequence[int], domains: Sequence[str],
                    records: Iterable[tuple], meta: Mapping[str, object] | None = None) -> RoutingTraceSet:
    """Assemble a RoutingTraceSet from (query_id, domain, layer, selected) records.

    ``domain`` is a 1-based index into ``domains``. A record may also hold
    many queries at one layer: a sequence of n query ids, n domains, the
    layer and an (n, k) array of selected experts, as the trace exporters
    and the synthetic generator pass them. Records are checked by the same
    column checks as file ingestion.
    """
    experts = tuple(int(e) for e in experts_per_layer)
    domains = tuple(domains)
    _check_shape(num_layers, experts, domains, "")
    ids, blocks = [], []
    for qid, dom, layer, selected in records:
        if isinstance(qid, str):  # one record is a block of one query
            qid, dom, selected = (qid,), (dom,), (selected,)
        selected = np.asarray(selected, np.int64)
        n, k = selected.shape
        ids.extend(qid)
        blocks.append((np.asarray(dom, np.int64), np.full(n, layer), np.full(n, k), selected.ravel()))
    query_index: dict[str, int] = {}
    query = _number(ids, query_index)
    dom, layer, length, flat = map(np.concatenate, zip(*blocks)) if blocks else [np.zeros(0, np.int64)] * 4
    try:
        # experts clipped as _narrow clips them; flat keeps the values a diagnostic shows
        narrow = np.clip(flat, -1, MAX_EXPERTS).astype(np.int16)
        domain, counts, selected = _columns((query, dom, layer, length, narrow), len(query_index), experts)
    except _RowFault as exc:
        row, check = exc.args
        own = flat[length[:row].sum():][:length[row]].tolist()
        raise TraceError(_fault(check, ids[row], int(layer[row]), own, experts)) from None
    query_ids = tuple(query_index)
    for q in np.flatnonzero((domain < 1) | (domain > len(domains)))[:1]:
        raise TraceError(
            f"query {query_ids[q]!r} has domain index {domain[q]} but {len(domains)} domains are declared")
    return RoutingTraceSet(model_id, experts, domains, query_ids, domain, counts, selected, dict(meta or {}))
