"""Shared random-data builders and small test-only aggregations for the test suite."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from moesig.routing_trace import RoutingTraceSet, build_trace_set
from moesig.shadow_moe import ShadowMoeModel
from moesig.signatures import CollaborationMatrix, SpecializationProfile

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
