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
line ends) are parsed in 256 KB blocks of bytes by array operations: one scan
finds every quote and control byte, a line's twelve quotes and newline anchor
its literal pieces, which are compared as little-endian 8-byte words read at
any byte offset, the layers (in place) and the experts (from one gather of
their text) are parsed with one pass per digit column, adjacent lines' keys
(query id and label) are compared as words, and the first line of each run
of equal keys is decoded, all in one decode per block. From the first block
that is not in that layout to the end of the file, lines are decoded one by
one as text, with the line numbers that name every file diagnostic. The rows
of both parts, and those of :func:`build_trace_set`, run one shared set of
column checks. The writer builds each block of lines as an array of 8-byte
words and drops their zero padding. On the 72k-record ``trace-e64`` teacher
file (E = 64, k = 8, 16 layers) on a two-CPU VM, this reads 1.54M records/s,
where the previous reader, which compared 16-byte windows, read 0.89M.

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

# A record line as write_traces lays it out holds twelve quotes and a newline, its thirteen
# marks, and literal pieces around its query id, label, layer and selected experts. Each piece
# is checked as its first and its last eight bytes, read as little-endian words at one of the
# line's marks plus an offset. A line's last piece and the next line's first meet at the
# newline as one seam, so a block is parsed between _LEAD and _TRAIL: every line then has a
# seam before it, and the last line one after it.
_LEAD, _TRAIL = b"]}\n", b'{"query_id":"'
_SEAM = (-2, _LEAD + _TRAIL)  # (offset from the newline, piece)
_PIECES = ((3, 0, b'","domain":"'), (7, 0, b'","layer":'), (10, -1, b',"selected":['))  # (mark, offset, piece)


def _piece_words(offset: int, piece: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and values of a piece's first and last eight bytes."""
    at = (0, len(piece) - 8)
    return np.add(offset, at), np.array([int.from_bytes(piece[a:a + 8], "little") for a in at], np.uint64)


_SEAM_AT, _SEAM_WORDS = _piece_words(*_SEAM)
_PIECE_MARK = np.repeat([mark for mark, _, _ in _PIECES], 2)
_PIECE_AT, _PIECE_WORDS = map(np.concatenate,
                              zip(*(_piece_words(offset, piece) for _, offset, piece in _PIECES)))
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


def _layer_rows(query: np.ndarray, layer: np.ndarray, num_layers: int) -> list[np.ndarray]:
    """Per layer, the indices of its rows in (query, row) order."""
    rows = [np.flatnonzero(layer == at) for at in range(num_layers)]
    return [at[np.argsort(query[at], kind="stable")] for at in rows]


def _expert_faults(flat: np.ndarray, length: np.ndarray, bounds: np.ndarray, layer: np.ndarray,
                   limits: np.ndarray) -> np.ndarray:
    """Whether each row's experts are none, hold a repeat or hold one out of range; the
    int16 experts of each row are sorted in place on the way.

    A chunk of rows whose experts all rise strictly within each row is sorted and holds no
    repeat. In any other chunk, sorting row * stride + expert + 1 sorts each row and puts
    repeats side by side; clipping to -1 .. stride - 2 keeps keys apart by row, and an expert it
    changes is out of range anyway. Keys stay below (_CHUNK_ROWS + 1) * (MAX_EXPERTS + 2)
    < 2**31, so int32 holds them."""
    stride = int(limits.max()) + 2
    bad = length == 0
    for r in range(0, len(length), _CHUNK_ROWS):
        chunk = length[r:r + _CHUNK_ROWS]
        local = bounds[r:r + len(chunk) + 1] - bounds[r]
        experts = flat[bounds[r]:bounds[r + len(chunk)]]
        rise = np.ones(len(experts) + 1, bool)  # rise[j]: experts[j] tops experts[j - 1] or starts a row
        rise[1:-1] = experts[1:] > experts[:-1]
        rise[local] = True
        if not rise.all():
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


def _pair_faults(query: np.ndarray, orders: list[np.ndarray]) -> np.ndarray:
    """Whether each row repeats the (query, layer) pair of an earlier row, found one layer at
    a time from each layer's rows in (query, row) order."""
    bad = np.zeros(len(query), bool)
    for at in orders:
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
    orders = _layer_rows(query, layer, len(limits))
    checks = {"layer": bad_layer, "experts": _expert_faults(flat, length, bounds, layer, limits),
              "domain": query_domain[query] != domain, "pair": _pair_faults(query, orders)}
    bad = np.logical_or.reduce(list(checks.values()))
    if bad.any():
        first = int(bad.argmax())
        raise _RowFault(first, next(name for name, flags in checks.items() if flags[first]))
    del checks, bad, bad_layer, layer  # the outputs need the room, as each layer's order once used
    counts, selected = [], []
    while orders:
        at = orders.pop(0)
        n = length[at]
        counts.append(np.zeros(num_queries, np.int32))
        counts[-1][query[at]] = n
        selected.append(flat[_runs(bounds[at], n)])
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


def _integers(data: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """Values of the integers whose digits fill ``data[end[i] - width[i]:end[i]]``; None unless
    each has 1-9 digits and no leading zero. Pass k adds the k-th digit from the right of every
    integer wider than k; for a narrower one the index may wrap to the end of ``data``, masked."""
    if not len(width) or width.min() < 1 or width.max() > 9:
        return None
    if ((data[end - width] == ord("0")) & (width > 1)).any():
        return None
    value = np.zeros(len(end), np.int32)
    for k in range(int(width.max())):
        digit = data[end - k - 1] - np.uint8(ord("0"))  # wrapped, so any other byte is above 9
        digit *= width > k
        if (digit > 9).any():
            return None
        value += np.multiply(digit, 10 ** k, dtype=np.int32)  # numpy 1.x keeps uint8 * 100 in uint8
    return value


def _run_starts(words: np.ndarray, key: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Whether each line's key, ``width`` >= 8 bytes from ``key``, differs from the previous
    line's (the first line's always does), compared as the ``words`` at offsets 0, 8, ... of
    each key, the last one moved back to end with the key."""
    same = width[1:] == width[:-1]
    for offset in range(0, int(width.max()), 8):
        word = words[key + np.minimum(offset, width - 8)]
        same &= word[1:] == word[:-1]
    return np.concatenate(([True], ~same))


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices first[i], first[i] + 1, ... (count[i] of them) for every i, back to back."""
    take = np.repeat(first - np.cumsum(count) + count, count)
    take += np.arange(len(take))
    return take


def _canonical_block(block, query_index: dict, domain_index: dict, declared) -> tuple | None:
    """Row columns of a block of record lines (bytes-like), as int32 query, domain, layer and
    count and int16 experts clipped as ``_narrow`` clips them; None if a line is not canonical
    or a label is undeclared. Query ids and new labels are numbered as in ``_file_records``."""
    padded = b"".join((_LEAD, block, _TRAIL))
    if b"\\" in padded:
        return None
    data = np.frombuffer(padded, np.uint8)
    head = data[:len(padded) - len(_TRAIL)]
    # every quote and control byte: a canonical line has twelve quotes, then its newline
    marks = np.flatnonzero((head == ord('"')) | (head < 0x20))
    n = len(marks) // 13
    if not n or len(marks) != 13 * n + 1 or marks[-1] != len(head) - 1:
        return None
    q, seams = marks[1:].reshape(n, 13), marks[::13]
    words = np.ndarray((len(padded) - 7,), "<u8", padded, 0, (1,))  # the eight bytes at every offset
    if ((words[seams[:, None] + _SEAM_AT] != _SEAM_WORDS).any()
            or (words[q[:, _PIECE_MARK] + _PIECE_AT] != _PIECE_WORDS).any()):
        return None
    # a layer runs from ten bytes after the 8th quote to the comma before the 11th
    layers = _integers(data, q[:, 10] - 1, q[:, 10] - q[:, 7] - 11)
    # the experts run from twelve bytes after the 11th quote through the "]"; every byte there
    # that is not a digit ends an integer, and must be a comma or, once per line, its "]"
    text = data[_runs(q[:, 10] + 12, q[:, 12] - q[:, 10] - 13)]
    ends = np.flatnonzero(text - np.uint8(ord("0")) > 9)
    end_bytes = text[ends]
    last = np.flatnonzero(end_bytes == ord("]"))
    if layers is None or len(last) != n or np.count_nonzero(end_bytes == ord(",")) != len(ends) - n:
        return None
    selected = _integers(text, ends, np.diff(ends, prepend=-1) - 1)
    if selected is None:
        return None
    # the key of a line runs from its query id to the end of its label; the first line of each
    # run of equal keys is decoded, its id and label cut at the quotes around them
    key = seams[:-1] + 14
    first = np.flatnonzero(_run_starts(words, key, q[:, 7] - key))
    try:
        fields = data[_runs(key[first], q[first, 7] + 1 - key[first])].tobytes().decode().split('"')
    except UnicodeDecodeError:
        return None
    qids, labels = fields[0:-1:5], fields[4::5]
    new_labels = [label for label in dict.fromkeys(labels) if label not in domain_index]
    if new_labels and declared is not None:
        return None
    domain_index.update({label: len(domain_index) + i for i, label in enumerate(new_labels, 1)})
    runs = np.diff(first, append=n)
    return (
        np.repeat(_number(qids, query_index).astype(np.int32), runs),
        np.repeat(np.fromiter(map(domain_index.__getitem__, labels), np.int32, len(labels)), runs),
        layers,
        np.diff(last, prepend=-1).astype(np.int32),
        np.minimum(selected, MAX_EXPERTS).astype(np.int16),
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
                tail += chunk
                cut = tail.rfind(b"\n") + 1
                if cut:
                    rows = _canonical_block(memoryview(tail)[:cut], query_index, domain_index,
                                            header.get("domains"))
                    if rows is None:
                        break
                    blocks.append(rows)
                    start += cut
                    tail = tail[cut:]
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


def _word_runs(pieces: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces as little-endian 8-byte words, each piece zero-padded to whole words, with
    the index of each piece's first word and its word count."""
    padded = [piece.ljust(len(piece) + -len(piece) % 8, b"\0") for piece in pieces]
    count = np.fromiter(map(len, padded), np.int64, len(padded)) // 8
    return np.frombuffer(b"".join(padded), "<u8"), np.cumsum(count) - count, count


def write_traces(trace_set: RoutingTraceSet, path: str | Path) -> None:
    """Write a trace set in the canonical line-delimited format.

    Output is byte-deterministic: header first, then one record per recorded
    (query, layer) in query order with layers ascending, sorted expert
    indices, and compact JSON separators, written in blocks of whole queries
    of at most _WRITE_RECORDS records (one query's, if it has more).

    A block's bytes are built as an array of 8-byte words with zero bytes as
    padding: each record is the words of its query's prefix (encoded once per
    query), of its layer's head and one word per expert, its name and "," or,
    for the record's last expert, "]}\\n". One gather puts the words in line
    order and dropping the zero bytes leaves the lines. On the 72k-record
    ``trace-e64`` teacher set on a two-CPU VM this writes 3.31M records/s,
    where joining object arrays of string tokens wrote 1.79M.
    """
    path = Path(path)
    header = {"schema_version": SCHEMA_VERSION, "model_id": trace_set.model_id,
              "num_layers": trace_set.num_layers, "experts_per_layer": list(trace_set.experts_per_layer),
              "domains": list(trace_set.domains)}
    if trace_set.meta:
        header["meta"] = dict(trace_set.meta)
    encode = json.encoder.encode_basestring  # a str as json.dumps(..., ensure_ascii=False) writes it
    labels = [encode(label) for label in trace_set.domains]
    # an expert's name and "]}\n" fit in a word below MAX_EXPERTS; JSON escapes U+0000, so no
    # line holds a zero byte
    num_experts = max(trace_set.experts_per_layer)
    names = np.array([b"%d," % e for e in range(num_experts)] + [b"%d]}\n" % e for e in range(num_experts)],
                     "S8").view("<u8")
    heads, head_first, head_count = _word_runs(
        [b'%d,"selected":[' % layer for layer in range(trace_set.num_layers)])
    # a query has at most one record per layer
    size = max(1, _WRITE_RECORDS // trace_set.num_layers)
    starts = np.zeros(trace_set.num_layers, np.int64)  # where each layer's experts of the block start
    with path.open("wb") as fh:
        fh.write((json.dumps(header, separators=(",", ":"), ensure_ascii=False) + "\n").encode())
        for a in range(0, trace_set.num_queries, size):
            block = slice(a, a + size)
            counts = np.stack([layer_counts[block] for layer_counts in trace_set.counts])
            ends = starts + counts.sum(axis=1)
            flat = np.concatenate([e[s:t] for e, s, t in zip(trace_set.experts, starts.tolist(), ends.tolist())])
            starts = ends
            prefixes, prefix_first, prefix_count = _word_runs([
                f'{{"query_id":{encode(qid)},"domain":{labels[d - 1]},"layer":'.encode()
                for qid, d in zip(trace_set.query_ids[block], trace_set.domain[block].tolist())])
            # records in (query, layer) order, each with where its experts start in flat
            queries, layers = np.nonzero(counts.T)
            k = counts[layers, queries]
            at = (np.cumsum(counts, axis=None).reshape(counts.shape) - counts)[layers, queries]
            flat = flat.astype(np.intp)
            flat[at + k - 1] += num_experts
            words = np.concatenate([prefixes, heads, names[flat]])
            run_first = np.stack([prefix_first[queries], len(prefixes) + head_first[layers],
                                  len(prefixes) + len(heads) + at], axis=1)
            run_count = np.stack([prefix_count[queries], head_count[layers], k], axis=1)
            fh.write(words[_runs(run_first.ravel(), run_count.ravel())].tobytes().translate(None, b"\0"))


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
