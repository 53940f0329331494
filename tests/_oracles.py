"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (plain loops and
itertools) on purpose: these are the oracles the fast library code is
judged against, so they must not share any code path with it.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from moesig.routing_trace import SCHEMA_VERSION, RoutingTraceSet


# One record line as write_traces lays it out. Strings with escapes or control
# characters, -0, leading zeros, longer integers and [] do not match.
_STR, _INT = r'([^"\\\x00-\x1f]*+)', r"(?:0|[1-9][0-9]{0,8}+)"
CANONICAL_RECORD = re.compile(
    rf'^\{{"query_id":"{_STR}","domain":"{_STR}","layer":({_INT}),'
    rf'"selected":\[({_INT}(?:,{_INT})*+)\]\}}\n',
    re.MULTILINE,
)


class QueryTrace(NamedTuple):
    """One query of a trace set; ``()`` marks a layer without a record."""

    query_id: str
    domain: int
    selections: tuple[tuple[int, ...], ...]


def query_traces(trace_set: RoutingTraceSet) -> list[QueryTrace]:
    """Every query of a trace set in order, read off its columns one selection at a time."""
    selections = [[] for _ in trace_set.query_ids]
    for counts, experts in zip(trace_set.counts, trace_set.experts):
        flat = experts.tolist()
        position = 0
        for q, count in enumerate(counts.tolist()):
            selections[q].append(tuple(flat[position:position + count]))
            position += count
    return [QueryTrace(qid, int(domain), tuple(layers))
            for qid, domain, layers in zip(trace_set.query_ids, trace_set.domain, selections)]


def canonical_captures(block: bytes) -> list[tuple[str, str, int, list[int]]] | None:
    """(query_id, label, layer, selected) of every line of a block of record lines, or None
    if the block is not UTF-8 or a line does not match CANONICAL_RECORD."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    *lines, rest = text.split("\n")  # str.splitlines would also split at U+2028
    matches = [CANONICAL_RECORD.fullmatch(line + "\n") for line in lines]
    if rest or not all(matches):
        return None
    return [(qid, label, int(layer), [int(v) for v in selected.split(",")])
            for qid, label, layer, selected in (m.groups() for m in matches)]


def naive_write_traces(trace_set: RoutingTraceSet, path: str | Path) -> None:
    """The canonical trace layout with one ``json.dumps`` per record."""
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
        for trace in query_traces(trace_set):
            label = trace_set.domains[trace.domain - 1]
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


def naive_specialization(traces: RoutingTraceSet, layer: int):
    """Counting-by-definition specialization profile.

    Returns (labels, s_bin, kappa, s_bar, counts) for domains with at least
    one query, in declaration order. Final ratios use the same integer
    numerators/denominators as the definitions, so a correct implementation
    must match bit-for-bit.
    """
    num_experts = traces.experts_per_layer[layer]
    labels = []
    s_bin_cols, kappa_list, s_bar_cols, counts = [], [], [], []
    for d in range(1, len(traces.domains) + 1):
        members = [t for t in query_traces(traces) if t.domain == d]
        if not members:
            continue
        labels.append(traces.domains[d - 1])
        n_d = len(members)
        sel_count = [0] * num_experts
        for t in members:
            for i in range(num_experts):
                sel_count[i] += 1 if i in t.selections[layer] else 0
        k_total = sum(len(t.selections[layer]) for t in members)
        s_bin_cols.append([c / n_d for c in sel_count])
        kappa_list.append(k_total / n_d)
        s_bar_cols.append([c / k_total for c in sel_count])
        counts.append(n_d)
    s_bin = np.array(s_bin_cols).T
    s_bar = np.array(s_bar_cols).T
    return labels, s_bin, np.array(kappa_list), s_bar, np.array(counts)


def naive_collaboration(traces: RoutingTraceSet, layer: int):
    """Pair-counting collaboration matrix: (b_bar, pair_normalizer, zero_mass)."""
    num_experts = traces.experts_per_layer[layer]
    n = traces.num_queries
    pair_count = [[0] * num_experts for _ in range(num_experts)]
    pair_total = 0
    for t in query_traces(traces):
        sel = t.selections[layer]
        for i in sel:
            for j in sel:
                if i != j:
                    pair_count[i][j] += 1
        pair_total += len(sel) * (len(sel) - 1)
    if pair_total == 0:
        return np.zeros((num_experts, num_experts)), 0.0, True
    b_bar = np.array([[pair_count[i][j] / pair_total for j in range(num_experts)]
                      for i in range(num_experts)])
    return b_bar, pair_total / n, False


def naive_w1(p, q, positions) -> float:
    """CDF-difference Wasserstein-1, one gap at a time."""
    total = 0.0
    cdf_p = 0.0
    cdf_q = 0.0
    for idx in range(len(p) - 1):
        cdf_p += p[idx]
        cdf_q += q[idx]
        total += abs(cdf_p - cdf_q) * (positions[idx + 1] - positions[idx])
    return total


def brute_force_assignment(cost: np.ndarray):
    """Factorial-enumeration linear assignment: (best_cost, best_perm)."""
    e = cost.shape[0]
    best_cost = float("inf")
    best_perm = None
    for perm in itertools.permutations(range(e)):
        total = 0.0
        for i in range(e):
            total += cost[i, perm[i]]
        if total < best_cost:
            best_cost = total
            best_perm = perm
    return best_cost, best_perm


def _naive_unit_w1(p, q) -> float:
    return naive_w1(p, q, list(range(len(p))))


def naive_spec_distance(teacher: np.ndarray, student: np.ndarray):
    """Factorial enumeration of the specialization objective."""
    e, d = teacher.shape
    best, best_perm = float("inf"), None
    for perm in itertools.permutations(range(e)):
        permuted = teacher[list(perm)]
        value = sum(_naive_unit_w1(permuted[:, col], student[:, col]) for col in range(d)) / d
        if value < best:
            best, best_perm = value, perm
    return best, best_perm


def naive_collab_row_w1(t_row, s_row, row_index: int) -> float:
    """Union-support row comparison: align, renormalize, W1 on 0..m-1."""
    e = len(t_row)
    support = [j for j in range(e) if j != row_index and (t_row[j] > 0 or s_row[j] > 0)]
    if not support:
        return 0.0
    t = np.array([t_row[j] for j in support], dtype=float)
    s = np.array([s_row[j] for j in support], dtype=float)
    if t.sum() < 1e-12:
        t = np.full(len(support), 1.0 / len(support))
    else:
        t = t / t.sum()
    if s.sum() < 1e-12:
        s = np.full(len(support), 1.0 / len(support))
    else:
        s = s / s.sum()
    return _naive_unit_w1(t, s)


def naive_collab_distance(teacher: np.ndarray, student: np.ndarray):
    """Factorial enumeration of the collaboration objective."""
    e = teacher.shape[0]
    best, best_perm = float("inf"), None
    for perm in itertools.permutations(range(e)):
        idx = list(perm)
        permuted = teacher[np.ix_(idx, idx)]
        value = sum(
            naive_collab_row_w1(permuted[i], student[i], i) for i in range(e)
        ) / e
        if value < best:
            best, best_perm = value, perm
    return best, best_perm
