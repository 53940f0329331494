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
line ends) are parsed in 128 KB blocks of bytes by array operations: one scan
finds every quote and control byte, a line's twelve quotes and newline anchor
its literal pieces, which are compared as little-endian 8-byte words read at
any byte offset, the layers (in place) and the experts (from one gather of
their text) are parsed with one pass per digit column, adjacent lines' keys
(query id and label) are compared as words, and the first line of each run
of equal keys is decoded, all in one decode per block. From the first block
that is not in that layout to the end of the file, lines are decoded one by
one as text, in batches of 4096 records, with the line numbers that name
every file diagnostic. Each block or batch of rows, and each record block of
:func:`build_trace_set`, is checked and placed by one row accumulator before
the next is read: between blocks it holds each query's domain and each
(layer, query) pair's expert count, and per layer one piece of experts per
block (pieces are joined eight at a time), so a read holds no whole-file
rows; each layer's pieces are joined a layer at a time at the end. The writer
builds each block of lines as an array of 8-byte words and drops their zero
padding. On the 72k-record ``trace-e64`` teacher file (E = 64, k = 8, 16
layers) on a two-CPU VM, repeated reads in one process run at 1.12M records/s.

Records carrying a ``gate_probs`` field are accepted; the field is ignored
because all downstream signatures are built from binary activations only.
Shared (always-active) experts are excluded from traces by convention; only
routed experts appear.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from moesig._meta import is_int, is_version, json_lines
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
_BLOCK_BYTES = 1 << 17
_CHUNK_ROWS = 1 << 12  # record rows the row checks sort, and the text path converts, at once
_FAN = 8  # pieces of a layer's experts joined at once
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


def _narrow(values, dtype, high: int) -> np.ndarray:
    """The integers ``values``, a list or a nested (n, k) sequence or array, as ``dtype``, each
    clipped to -1..``high`` first: a clipped value fails the same range check, and the diagnostic
    prints the value as it was given."""
    try:
        wide = np.asarray(values, np.int64)
    except OverflowError:  # beyond int64, so clipped as well
        wide = np.array(values, object).clip(-1, high).astype(np.int64)
    return np.clip(wide, -1, high, out=np.empty(wide.shape, dtype), casting="unsafe")


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


def _grown(buffer: np.ndarray, size: int) -> np.ndarray:
    """``buffer``, or a copy of it with a zero tail on its last axis, which then holds at least
    ``size`` entries and half as many again as it held."""
    held = buffer.shape[-1]
    if size <= held:
        return buffer
    wider = np.zeros(buffer.shape[:-1] + (max(size, held * 3 // 2),), buffer.dtype)
    wider[..., :held] = buffer
    return wider


def _stack(pieces: list[tuple[int, np.ndarray]], piece: np.ndarray) -> None:
    """Append ``piece`` to (level, array) pieces, joining each _FAN pieces of one level into one
    of the next: few arrays are held, and each value is copied once per level."""
    pieces.append((0, piece))
    while len(pieces) >= _FAN and pieces[-_FAN][0] == pieces[-1][0]:
        pieces[-_FAN:] = [(pieces[-1][0] + 1, np.concatenate([array for _, array in pieces[-_FAN:]]))]


def _joined(pieces: list[tuple[int, np.ndarray]], dtype) -> np.ndarray:
    """The arrays of (level, array) pieces end to end, emptying the list; a lone one is taken
    as it is."""
    arrays = [array for _, array in pieces]
    pieces.clear()
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays) if arrays else np.zeros(0, dtype)


class _Rows:
    """Record rows, checked and placed one block at a time in file order.

    Between blocks it holds each query's domain (that of its first row) and each (layer,
    query) pair's expert count, nonzero once a row placed the pair; a checked row holds at
    most MAX_EXPERTS experts, so int16 holds it. Each layer keeps one piece of checked experts
    per block, and the queries of its pieces once they stop arriving in rising query order."""

    def __init__(self, experts_per_layer: Sequence[int]) -> None:
        self.limits = np.asarray(experts_per_layer)
        self.rows = self.num_queries = 0
        self.domain = np.zeros(0, np.int64)
        self.counts = np.zeros((len(self.limits), 0), np.int16)
        self.experts: list[list[tuple[int, np.ndarray]]] = [[] for _ in self.limits]
        self.queries: list[list[tuple[int, np.ndarray]] | None] = [None] * len(self.limits)
        self.last = [-1] * len(self.limits)  # the last query placed at each layer still rising

    def add(self, query: np.ndarray, domain: np.ndarray, layer: np.ndarray, length: np.ndarray,
            flat: np.ndarray) -> None:
        """Check a block of rows, then place them.

        The block holds, per row, its query index (numbered by first occurrence in file
        order), 1-based domain, layer and expert count, then the int16 experts of all rows,
        row after row, which are sorted within each row in place.

        Raises _RowFault(row, check) for the block's first row that fails a check, ``row``
        counted over all blocks, with the first check it fails in the order "layer" (out of
        range), "experts" (none, a repeat or one out of range), "domain" (not that of the
        query's first row) and "pair" (a (query, layer) pair of an earlier row)."""
        if len(query):
            self._place(query, layer, length, flat, *self._check(query, domain, layer, length, flat))

    def _check(self, query, domain, layer, length, flat) -> tuple[np.ndarray, np.ndarray, list[int], list[bool]]:
        """Run the checks of :meth:`add` and number the block's new queries; return the block's
        rows in layer order (in row order within a layer) and their queries, where each layer's
        rows start in that order, and whether its queries fall anywhere within the block."""
        num_layers = len(self.limits)
        bad_layer = (layer < 0) | (layer >= num_layers)
        if bad_layer.any():
            layer = np.where(bad_layer, 0, layer)
        bounds = np.zeros(len(length) + 1, np.int64)
        np.cumsum(length, out=bounds[1:])
        # the running maximum of the first-occurrence numbering first reaches a new query at its first row
        known, top = self.num_queries, np.maximum.accumulate(query)
        fresh = np.searchsorted(top, np.arange(known, int(top[-1]) + 1))
        self.num_queries += len(fresh)
        self.domain = _grown(self.domain, self.num_queries)
        self.domain[known:self.num_queries] = domain[fresh]
        self.counts = _grown(self.counts, self.num_queries)
        order = np.argsort(layer.astype(np.min_scalar_type(num_layers)), kind="stable")
        by_layer, in_layer = query[order], layer[order]
        falls = np.flatnonzero((by_layer[1:] <= by_layer[:-1]) & (in_layer[1:] == in_layer[:-1]))
        bad_pair = self.counts[layer, query] > 0
        if len(falls):  # repeats within the block sit side by side in (layer, query, row) order
            pairs = np.lexsort((query, layer))
            repeat = (query[pairs[1:]] == query[pairs[:-1]]) & (layer[pairs[1:]] == layer[pairs[:-1]])
            bad_pair[pairs[1:][repeat]] = True
        checks = {"layer": bad_layer, "experts": _expert_faults(flat, length, bounds, layer, self.limits),
                  "domain": self.domain[query] != domain, "pair": bad_pair}
        bad = np.logical_or.reduce(list(checks.values()))
        if bad.any():
            first = int(bad.argmax())
            raise _RowFault(self.rows + first, next(name for name, flags in checks.items() if flags[first]))
        self.rows += len(query)
        return (order, by_layer, [0] + np.cumsum(np.bincount(layer, minlength=num_layers)).tolist(),
                (np.bincount(in_layer[falls], minlength=num_layers) > 0).tolist())

    def _place(self, query, layer, length, flat, order: np.ndarray, by_layer: np.ndarray, starts: list[int],
               falling: list[bool]) -> None:
        """Place a checked block's rows: each layer's experts become one piece, cut from one
        gather of the block's experts in layer order, where they start at edges[l]. Rows of one
        expert count are gathered whole, by an index per row rather than one per expert."""
        if max(b - a for a, b in zip(starts, starts[1:])) == len(query):  # one layer, in row order
            experts = flat
        elif (length == length[0]).all():
            experts = flat.reshape(len(length), -1)[order].ravel()
        else:
            experts = flat[_runs((np.cumsum(length) - length)[order], length[order])]
        edges = [0] + np.cumsum(np.bincount(layer, length, len(starts) - 1)).astype(np.int64).tolist()
        for l, (start, end) in enumerate(zip(starts, starts[1:])):
            if start == end:
                continue
            if self.queries[l] is None and (falling[l] or by_layer[start] <= self.last[l]):
                # the pieces so far rise, so the counts give their queries in order
                self.queries[l] = [(0, np.flatnonzero(self.counts[l]).astype(np.int32))]
            if self.queries[l] is None:
                self.last[l] = by_layer[end - 1]
            else:
                _stack(self.queries[l], by_layer[start:end].copy())
            _stack(self.experts[l], experts if end - start == len(query) else experts[edges[l]:edges[l + 1]].copy())
        self.counts[layer, query] = length

    def columns(self) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Each query's domain, then per layer its counts and its experts in query order, each
        layer joined, and its pieces dropped, before the next."""
        n = self.num_queries
        domain, self.domain = self.domain[:n].copy(), None
        counts, experts = [], []
        for l in range(len(self.limits)):
            counts.append(self.counts[l, :n].astype(np.int32))
            flat = _joined(self.experts[l], np.int16)
            if self.queries[l] is not None:
                queries = _joined(self.queries[l], np.int32)
                length = counts[-1][queries]
                by_query = np.argsort(queries, kind="stable")
                flat = flat[_runs((np.cumsum(length) - length)[by_query], length[by_query])]
            experts.append(flat)
        self.counts = None
        return domain, tuple(counts), tuple(experts)


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


def _parse_header(lineno: int, header: dict) -> tuple[dict, dict[str, int]]:
    """Fully validate the decoded header line before any record is read; return it and its
    declared domain labels, numbered from 1."""
    where = f"line {lineno}: "
    if "schema_version" not in header:
        raise TraceError(f"{where}first line must be a header with a schema_version field")
    version = header["schema_version"]
    if not is_version(version, SCHEMA_VERSION):
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


def _file_records(lines: Iterator[tuple[int, dict]], domain_index: dict[str, int],
                  declared: bool) -> Iterator[tuple[str, int, int, list[int], int]]:
    """Check the field types of decoded records and map domain labels to indices; without
    declared domains, new labels are added to ``domain_index`` in first-occurrence order."""
    for lineno, rec in lines:
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


def _batch_rows(records: list, query_index: dict[str, int], num_layers: int) -> tuple:
    """Row columns of decoded (query_id, domain, layer, selected, lineno) records, in the
    narrowest types that keep every check's outcome (experts as int16)."""
    qids, doms, layers, selected, _ = zip(*records) if records else ((),) * 5
    return (_number(qids, query_index).astype(np.int32), np.array(doms, np.int32),
            _narrow(list(layers), np.int32, num_layers),
            np.fromiter(map(len, selected), np.int32, len(records)),
            _narrow(list(chain.from_iterable(selected)), np.int16, MAX_EXPERTS))


def _read(path: Path) -> tuple:
    """Header, domain and query indices and columns of a trace file, each line parsed once
    and each block of rows checked before the next is parsed; the first fault in line order
    raises TraceError.

    After a first line that is not blank, is UTF-8 and holds no carriage return, the header
    is parsed and 128 KB blocks of whole lines go to ``_canonical_block`` until it refuses
    one. The rest of the file, from the start of that block or of an unterminated last line
    (from byte 0 after any other first line), is decoded as text line by line in batches of
    _CHUNK_ROWS records; a line that is not UTF-8 faults in its place in line order."""
    batch, query_index, header, fault, rows, in_text = [], {}, None, None, None, False
    try:
        with path.open("rb") as fh:
            first, start = fh.readline(), 0
            try:
                line = first.decode("utf-8").strip()
            except UnicodeDecodeError:
                line = ""
            if line and b"\r" not in first:
                header, domain_index = _parse_header(*next(json_lines([line], TraceError)))
                rows = _Rows(header["experts_per_layer"])
                start, tail = len(first), b""
                while chunk := fh.read(_BLOCK_BYTES):
                    tail += chunk
                    del chunk  # each byte of the file is held once, and each block's rows until placed
                    cut = tail.rfind(b"\n") + 1
                    if cut:
                        block = _canonical_block(memoryview(tail)[:cut], query_index, domain_index,
                                                 header.get("domains"))
                        if block is None:
                            break
                        rows.add(*block)
                        del block
                        start += cut
                        tail = tail[cut:]
            fh.seek(start)
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape")
            # canonical rows hold no line number: row r is line r + 2
            lines = json_lines(text, TraceError, rows.rows + 2 if header else 1)
            if header is None:
                top = next(lines, None)
                if top is None:
                    raise TraceError("file is empty (missing header line)")
                header, domain_index = _parse_header(*top)
                rows = _Rows(header["experts_per_layer"])
            in_text = True  # a row fault from here on names a record of the batch
            try:
                for record in _file_records(lines, domain_index, header.get("domains") is not None):
                    batch.append(record)
                    if len(batch) == _CHUNK_ROWS:
                        rows.add(*_batch_rows(batch, query_index, header["num_layers"]))
                        batch.clear()
            except TraceError as exc:
                fault = exc
            # records before a line fault come first in line order, so their faults win
            rows.add(*_batch_rows(batch, query_index, header["num_layers"]))
            batch.clear()
    except _RowFault as exc:
        row, check = exc.args
        lineno = batch[row - rows.rows][-1] if in_text else row + 2
        # the record's own values, as the file holds them; a later bad byte must not stop the read
        with path.open(encoding="utf-8", errors="surrogateescape") as fh:
            rec = next(json_lines(islice(fh, lineno - 1, None), TraceError, lineno))[1]
        message = _fault(check, rec["query_id"], rec["layer"], rec["selected"], header["experts_per_layer"])
        raise TraceError(f"line {lineno}: {message}") from None
    if fault is not None:
        raise fault
    return header, domain_index, query_index, rows.columns()


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
        header, domains, query_ids, (domain, counts, experts) = _read(path)
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from None
    return RoutingTraceSet(header["model_id"], tuple(header["experts_per_layer"]), tuple(domains),
                           tuple(query_ids), domain, counts, experts, meta=dict(header.get("meta", {})))


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
    ``trace-e64`` teacher set on a two-CPU VM this writes 3.31M records/s.
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


def _add_records(rows: _Rows, batch: list, query_index: dict[str, int], num_layers: int,
                 experts_per_layer: tuple[int, ...]) -> None:
    """Check and place a batch of build_trace_set's records, each as (query ids, domains,
    layer, selected as given, selected as an (n, k) int16 array)."""
    if not batch:
        return
    ids = list(chain.from_iterable(qids for qids, *_ in batch))
    sizes = np.array([len(narrow) for *_, narrow in batch], np.int64)
    layers = [layer for _, _, layer, _, _ in batch]
    flat = batch[0][4].ravel() if len(batch) == 1 else np.concatenate([narrow.ravel() for *_, narrow in batch])
    try:
        rows.add(_number(ids, query_index),
                 np.concatenate([np.asarray(dom, np.int64) for _, dom, *_ in batch]),
                 np.repeat(_narrow(layers, np.int32, num_layers), sizes),
                 np.repeat([narrow.shape[1] for *_, narrow in batch], sizes), flat)
    except _RowFault as exc:
        row = exc.args[0] - rows.rows
        at = int(np.searchsorted(np.cumsum(sizes), row, side="right"))
        own = [int(e) for e in batch[at][3][row - int(sizes[:at].sum())]]
        raise TraceError(_fault(exc.args[1], ids[row], int(layers[at]), own, experts_per_layer)) from None


def build_trace_set(model_id: str, num_layers: int, experts_per_layer: Sequence[int], domains: Sequence[str],
                    records: Iterable[tuple], meta: Mapping[str, object] | None = None) -> RoutingTraceSet:
    """Assemble a RoutingTraceSet from (query_id, domain, layer, selected) records.

    ``domain`` is a 1-based index into ``domains``. A record may also hold
    many queries at one layer: a sequence of n query ids, n domains, the
    layer and an (n, k) array of selected experts, as the trace exporters
    and the synthetic generator pass them. Records are checked by the same
    row checks as file ingestion: a block as it comes, single records
    _CHUNK_ROWS at a time.
    """
    experts = tuple(int(e) for e in experts_per_layer)
    domains = tuple(domains)
    _check_shape(num_layers, experts, domains, "")
    rows, query_index, batch = _Rows(experts), {}, []
    for qid, dom, layer, selected in records:
        one = isinstance(qid, str)
        if one:  # one record is a block of one query
            qid, dom, selected = (qid,), (dom,), (selected,)
        narrow = _narrow(selected, np.int16, MAX_EXPERTS)
        _, _ = narrow.shape  # (n, k), or unpacking fails
        batch.append((qid, dom, layer, selected, narrow))
        # a block is checked as it comes, and single records _CHUNK_ROWS at a time
        if not one or len(batch) == _CHUNK_ROWS:
            _add_records(rows, batch, query_index, num_layers, experts)
            batch = []
    _add_records(rows, batch, query_index, num_layers, experts)
    domain, counts, selected = rows.columns()
    query_ids = tuple(query_index)
    for q in np.flatnonzero((domain < 1) | (domain > len(domains)))[:1]:
        raise TraceError(
            f"query {query_ids[q]!r} has domain index {domain[q]} but {len(domains)} domains are declared")
    return RoutingTraceSet(model_id, experts, domains, query_ids, domain, counts, selected, dict(meta or {}))
