"""Shared random-data builders and small test-only aggregations for the test suite."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from moesig.errors import TransportError
from moesig.routing_trace import SCHEMA_VERSION, RoutingTraceSet, build_trace_set
from moesig.shadow_moe import ShadowMoeModel, _balance_penalty, _layer_params, _LayerCache
from moesig.signatures import NORMALIZATION_TOL, CollaborationMatrix, SpecializationProfile

from _oracles import query_traces


def domain_counts(traces: RoutingTraceSet) -> list[int]:
    """Per-domain query counts n_d, indexed by domain label order."""
    counts = [0] * len(traces.domains)
    for trace in query_traces(traces):
        counts[trace.domain - 1] += 1
    return counts


def selection_frequency(profile: SpecializationProfile) -> np.ndarray:
    """Raw per-domain selection frequencies (before kappa normalization)."""
    return profile.matrix * profile.kappa_per_domain[None, :]


def summarize_sweep(rows: Sequence[dict]) -> list[dict]:
    """Aggregate sweep rows per rho: trial count, accuracy, mean margin."""
    grouped: dict[float, list[dict]] = {}
    for row in rows:
        grouped.setdefault(float(row["rho"]), []).append(row)
    summary = []
    for rho in sorted(grouped):
        group = grouped[rho]
        summary.append(
            {
                "rho": rho,
                "trials": len(group),
                "accuracy": sum(r["correct"] for r in group) / len(group),
                "mean_margin": sum(r["margin"] for r in group) / len(group),
            }
        )
    return summary


def drop_domains(doc: dict) -> None:
    """Empty the domain axis of a signature-file document, leaving it consistent otherwise."""
    spec = doc["specialization"]
    doc["domains"], spec["kappa_per_domain"], spec["counts"] = [], [], []
    spec["matrix"] = [[] for _ in spec["matrix"]]


def wasserstein1_discrete(p, q, positions) -> float:
    """W1 between two discrete distributions on a common increasing grid.

    Equals the integral of the absolute CDF difference: the sum over
    consecutive position gaps of |CDF_p - CDF_q| times the gap width.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if p.shape != q.shape or p.shape != positions.shape or p.ndim != 1:
        raise TransportError(
            f"length mismatch: p{p.shape}, q{q.shape}, positions{positions.shape}"
        )
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q)) and np.all(np.isfinite(positions))):
        raise TransportError("inputs must be finite")
    if p.size > 1 and not np.all(np.diff(positions) > 0):
        raise TransportError("positions must be strictly increasing")
    for name, vec in (("p", p), ("q", q)):
        total = float(vec.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise TransportError(f"{name} sums to {total!r}, not 1 within {NORMALIZATION_TOL}")
    cdf_gap = np.cumsum(p - q)[:-1]
    return float(np.abs(cdf_gap) @ np.diff(positions))


def mean_gate_usage(model: ShadowMoeModel, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer softmax gate usage of a proxy, averaged over the batch ``x``."""
    _, caches = model._run(x)
    return [cache.gates[0].mean(axis=0) for cache in caches]


def selection_margin(model: ShadowMoeModel, x: np.ndarray) -> float:
    """Smallest gap between the k-th and (k+1)-th gate over all layers and inputs.

    Infinite when k equals the expert count everywhere (no selection
    boundary exists). Gradient checks are only meaningful when this margin
    is comfortably positive.
    """
    _, caches = model._run(x)
    margin = np.inf
    for k, cache in zip(model.config.top_k, caches):
        gates = cache.gates[0]
        if k == gates.shape[1]:
            continue
        ordered = -np.sort(-gates, axis=1)
        margin = min(margin, float((ordered[:, k - 1] - ordered[:, k]).min()))
    return margin


def reference_forward(params, x, top_k):
    """``shadow_moe._forward`` with its expert contractions as ``np.einsum``; the kernels' reference."""
    models, batch = x.shape[:2]
    pick = (np.arange(models)[:, None, None], np.arange(batch)[None, :, None])
    h = np.tanh(x @ params[0].transpose(0, 2, 1) + params[1][:, None])
    caches = []
    for layer, k in enumerate(top_k):
        router, u, c, v, d = _layer_params(params, layer)
        logits = h @ router.transpose(0, 2, 1)
        exp = np.exp(logits - logits.max(axis=2, keepdims=True))
        gates = exp / exp.sum(axis=2, keepdims=True)
        topk = np.argsort(-logits, axis=2, kind="stable")[..., :k]
        sel = gates[pick + (topk,)]
        sel_sum = sel.sum(axis=2)
        weights = sel / sel_sum[..., None]
        w_full = np.zeros_like(gates)
        w_full[pick + (topk,)] = weights
        mid = np.tanh(np.einsum("meij,mbj->mbei", u, h) + c[:, None])
        expert_out = np.einsum("meij,mbej->mbei", v, mid) + d[:, None]
        out = np.einsum("mbe,mbeh->mbh", w_full, expert_out)
        caches.append(_LayerCache(h, gates, topk, weights, sel_sum, w_full, mid, expert_out, out))
        h = out
    return h @ params[-2].transpose(0, 2, 1) + params[-1][:, None], caches


def reference_backward(params, x, targets, y, caches, lam, grads):
    """``shadow_moe._backward`` with its expert contractions as ``np.einsum``; the kernels' reference."""
    models, n = x.shape[:2]
    pick = (np.arange(models)[:, None, None], np.arange(n)[None, :, None])
    usage = [cache.gates.mean(axis=1) for cache in caches]
    total = ((y - targets) ** 2).mean(axis=(1, 2)) + lam * _balance_penalty(usage)
    dy = 2.0 * (y - targets) / (y.shape[1] * y.shape[2])
    np.matmul(dy.transpose(0, 2, 1), caches[-1].out, out=grads[-2])
    dy.sum(axis=1, out=grads[-1])
    dh = dy @ params[-2]
    for layer in reversed(range(len(caches))):
        cache = caches[layer]
        router, u, _, v, _ = _layer_params(params, layer)
        g_router, g_u, g_c, g_v, g_d = _layer_params(grads, layer)
        de_out = cache.w_full[..., None] * dh[:, :, None, :]
        dw_full = np.einsum("mbeh,mbh->mbe", cache.expert_out, dh)
        np.einsum("mbei,mbej->meij", de_out, cache.mid, out=g_v)
        de_out.sum(axis=1, out=g_d)
        dmid = np.einsum("meij,mbei->mbej", v, de_out)
        da = dmid * (1.0 - cache.mid**2)
        for m in range(models):
            np.einsum("bei,bj->eij", da[m], cache.h_in[m], out=g_u[m])
        da.sum(axis=1, out=g_c)
        dh_experts = np.einsum("meij,mbei->mbj", u, da)
        selected = pick + (cache.topk,)
        dw_sel = dw_full[selected]
        inner = (dw_sel * cache.sel_weights).sum(axis=2, keepdims=True)
        dgates = np.zeros_like(cache.gates)
        dgates[selected] = (dw_sel - inner) / cache.sel_sum[..., None]
        if lam > 0:
            e = usage[layer].shape[-1]
            dgates = dgates + lam * 2.0 * e * (usage[layer] - 1.0 / e)[:, None, :] / n
        dlogits = cache.gates * (dgates - (dgates * cache.gates).sum(axis=2, keepdims=True))
        np.matmul(dlogits.transpose(0, 2, 1), cache.h_in, out=g_router)
        dh = dh_experts + dlogits @ router
    da0 = dh * (1.0 - caches[0].h_in ** 2)
    np.matmul(da0.transpose(0, 2, 1), x, out=grads[0])
    da0.sum(axis=1, out=grads[1])
    return total


def random_trace_set(
    rng: np.random.Generator,
    max_queries: int = 50,
    max_experts: int = 8,
    max_domains: int = 4,
    num_layers: int = 1,
    model_id: str = "rand",
) -> RoutingTraceSet:
    """Random trace set with mixed per-query k and possibly empty domains."""
    num_experts = int(rng.integers(2, max_experts + 1))
    num_domains = int(rng.integers(1, max_domains + 1))
    n = int(rng.integers(1, max_queries + 1))
    records = []
    for q in range(n):
        dom = int(rng.integers(1, num_domains + 1))
        for layer in range(num_layers):
            k = int(rng.integers(1, min(num_experts, 4) + 1))
            selected = tuple(int(i) for i in rng.choice(num_experts, size=k, replace=False))
            records.append((f"q{q}", dom, layer, selected))
    return build_trace_set(
        model_id=model_id,
        num_layers=num_layers,
        experts_per_layer=(num_experts,) * num_layers,
        domains=tuple(f"d{j + 1}" for j in range(num_domains)),
        records=records,
    )


def random_profile(rng: np.random.Generator, num_experts: int, num_domains: int) -> SpecializationProfile:
    matrix = rng.random((num_experts, num_domains)) ** 2 + 1e-6
    matrix /= matrix.sum(axis=0, keepdims=True)
    return SpecializationProfile(
        layer=0,
        matrix=matrix,
        kappa_per_domain=np.full(num_domains, 2.0),
        counts=np.full(num_domains, 10, dtype=np.int64),
        domain_labels=tuple(f"d{j + 1}" for j in range(num_domains)),
    )


def random_collab(rng: np.random.Generator, num_experts: int, sparsity: float = 0.5) -> CollaborationMatrix:
    upper = rng.random((num_experts, num_experts)) * (rng.random((num_experts, num_experts)) < sparsity)
    upper = np.triu(upper, 1)
    matrix = upper + upper.T
    if matrix.sum() == 0:
        matrix[0, 1] = matrix[1, 0] = 0.5
    matrix = matrix / matrix.sum()
    return CollaborationMatrix(layer=0, matrix=matrix, pair_normalizer=2.0, zero_mass=False)


def relabel_traces(traces: RoutingTraceSet, mapping: tuple[int, ...]) -> RoutingTraceSet:
    """Apply an expert relabeling i -> mapping[i] to every selection."""
    records = []
    for trace in query_traces(traces):
        for layer, selected in enumerate(trace.selections):
            records.append(
                (
                    trace.query_id,
                    trace.domain,
                    layer,
                    tuple(sorted(mapping[i] for i in selected)),
                )
            )
    return build_trace_set(
        model_id=traces.model_id + "-relabel",
        num_layers=traces.num_layers,
        experts_per_layer=traces.experts_per_layer,
        domains=traces.domains,
        records=records,
    )


def reference_write_traces(trace_set: RoutingTraceSet, path: str | Path) -> None:
    """``routing_trace.write_traces`` as one join of object-array string tokens per block of
    whole queries (at most 2048 records); the array writer's reference."""
    path = Path(path)
    header = {"schema_version": SCHEMA_VERSION, "model_id": trace_set.model_id,
              "num_layers": trace_set.num_layers, "experts_per_layer": list(trace_set.experts_per_layer),
              "domains": list(trace_set.domains)}
    if trace_set.meta:
        header["meta"] = dict(trace_set.meta)
    labels = [json.dumps(label, ensure_ascii=False) for label in trace_set.domains]
    names = np.array([str(i) for i in range(max(trace_set.experts_per_layer))], object)
    layer_heads = np.array([f'{layer},"selected":[' for layer in range(trace_set.num_layers)], object)
    size = max(1, 2048 // trace_set.num_layers)
    starts = np.zeros(trace_set.num_layers, np.int64)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), ensure_ascii=False) + "\n")
        for a in range(0, trace_set.num_queries, size):
            block = slice(a, a + size)
            counts = np.stack([layer_counts[block] for layer_counts in trace_set.counts])
            ends = starts + counts.sum(axis=1)
            flat = np.concatenate([e[s:t] for e, s, t in zip(trace_set.experts, starts.tolist(), ends.tolist())])
            starts = ends
            first = np.cumsum(counts, axis=None).reshape(counts.shape) - counts
            prefixes = np.array([
                f'{{"query_id":{json.dumps(qid, ensure_ascii=False)},"domain":{labels[d - 1]},"layer":'
                for qid, d in zip(trace_set.query_ids[block], trace_set.domain[block].tolist())
            ], object)
            queries, layers = np.nonzero(counts.T)
            heads = prefixes[queries] + layer_heads[layers]
            k = counts[layers, queries]
            take = np.repeat(first[layers, queries] - np.cumsum(k) + k, k) + np.arange(k.sum())
            tokens = np.empty(2 * len(take), object)
            tokens[0::2] = names[flat[take]]
            tokens[1::2] = ","
            tokens[2 * np.cumsum(k) - 1] = "]}\n" + np.append(heads[1:], "")
            fh.write(heads[0] + "".join(tokens.tolist()))
