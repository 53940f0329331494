"""Expert specialization profiles and expert collaboration matrices.

Both signatures count the top-k selections of one layer, read straight
from the trace set's columns. With A the binary (queries x experts)
activation matrix, specialization counts are A^T times the one-hot domain
matrix, taken as one bincount over (domain, expert) cells; collaboration
counts are A^T A off the diagonal, taken as a bincount over each query's
expert pairs in bounded query chunks, so A itself is never built.
Every count is an integer, exact in float64 below 2**53, and is divided
once at the end, so results are bitwise deterministic regardless of trace
order or chunking.

Specialization: the selection frequency of expert i on domain d, divided by
the mean active-expert count of that domain, so every domain column is a
probability distribution over experts.

Collaboration: the co-activation frequency of expert pairs, divided by the
mean number of ordered active pairs per query, so the off-diagonal sums
to one. When every query activates a single expert there are no pairs; the
matrix is returned all-zero with ``zero_mass`` set, and downstream scoring
falls back to the specialization distance alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from moesig._meta import is_finite_number, is_int, is_version, read_json, write_csv
from moesig.errors import SignatureError
from moesig.routing_trace import RoutingTraceSet, ingest_traces

LayerPolicy = str | int
_CHUNK_CELLS = 1 << 20  # array cells a collaboration query chunk holds at once
NORMALIZATION_TOL = 1e-9  # how far a profile column or a collaboration matrix may sum from 1


def _read_only(owner, name: str, dtype) -> np.ndarray:
    """Set field ``name`` of ``owner`` to a read-only copy of itself, so a checked signature stays checked."""
    value = np.array(getattr(owner, name), dtype=dtype)
    value.setflags(write=False)
    object.__setattr__(owner, name, value)
    return value


def _check_entries(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise SignatureError(f"{name} has a negative or non-finite entry")


@dataclass(frozen=True, eq=False)
class SpecializationProfile:
    """Column-stochastic expert-by-domain selection frequency matrix.

    ``matrix[i, d]`` is the normalized frequency with which expert i serves
    the d-th included domain. Domains with zero queries are excluded from
    the domain axis entirely (a zero column could not be normalized).
    Construction raises SignatureError unless the entries and ``kappa_per_domain`` are finite and
    >= 0 and each column sums to 1 within NORMALIZATION_TOL; the arrays are kept as read-only copies.
    """

    layer: int
    matrix: np.ndarray  # (E, D') normalized selection frequencies
    kappa_per_domain: np.ndarray  # (D',) mean active-expert count per domain
    counts: np.ndarray  # (D',) per-domain query counts n_d
    domain_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        matrix = _read_only(self, "matrix", np.float64)
        kappa = _read_only(self, "kappa_per_domain", np.float64)
        _read_only(self, "counts", np.int64)
        if matrix.ndim != 2:
            raise SignatureError("profile matrix must be two-dimensional")
        e, d = matrix.shape
        if any(axis != (d,) for axis in ((len(self.domain_labels),), kappa.shape, self.counts.shape)):
            raise SignatureError("profile domain axis is inconsistent")
        if e < 1 or d < 1:
            raise SignatureError("profile needs at least one expert and one domain")
        _check_entries("specialization matrix", matrix)
        _check_entries("kappa_per_domain", kappa)
        with np.errstate(over="ignore"):  # huge entries sum to inf, which fails the check
            sums = matrix.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
            raise SignatureError(f"specialization matrix columns are not normalized: sums {sums}")

    @property
    def num_experts(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_domains(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class CollaborationMatrix:
    """Symmetric zero-diagonal matrix of normalized expert co-activation.

    Construction raises SignatureError unless ``zero_mass`` is a bool, the entries lie in [0, 1], the
    diagonal is zero and the entries sum to 1 within NORMALIZATION_TOL, or are all zero with ``zero_mass``.
    """

    layer: int
    matrix: np.ndarray  # (E, E), off-diagonal sums to 1 unless zero_mass
    pair_normalizer: float  # mean of k(k-1) over queries
    zero_mass: bool = False

    def __post_init__(self) -> None:
        matrix = _read_only(self, "matrix", np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SignatureError("collaboration matrix must be square")
        if not isinstance(self.zero_mass, bool):
            raise SignatureError(f"zero_mass must be true or false, got {self.zero_mass!r}")
        _check_entries("collaboration matrix", matrix)
        if self.zero_mass and np.any(matrix):
            raise SignatureError("a zero_mass collaboration matrix must be all zero")
        if np.any(np.diagonal(matrix)):
            raise SignatureError("collaboration matrix has a nonzero diagonal entry")
        # entries in [0, 1] first, so the sum can neither overflow nor warn
        normalized = np.all(matrix <= 1.0) and abs(float(matrix.sum()) - 1.0) <= NORMALIZATION_TOL
        if not (self.zero_mass or normalized):
            raise SignatureError(f"collaboration matrix is not normalized: its entries must lie in [0, 1] "
                                 f"and sum to 1 within {NORMALIZATION_TOL}")

    @property
    def num_experts(self) -> int:
        return self.matrix.shape[0]


class SignatureBundle(NamedTuple):
    """Specialization and collaboration signatures at one layer."""

    spec: SpecializationProfile
    collab: CollaborationMatrix


def _layer(traces: RoutingTraceSet, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """Every query's selection count and the selected experts at ``layer``; all must be recorded."""
    if not 0 <= layer < traces.num_layers:
        raise SignatureError(
            f"layer {layer} out of range (model {traces.model_id!r} has {traces.num_layers} layers)"
        )
    if traces.num_queries == 0:
        raise SignatureError("trace set is empty")
    for q in np.flatnonzero(traces.counts[layer] == 0)[:1]:
        raise SignatureError(f"query {traces.query_ids[q]!r} has no selection at layer {layer}")
    return traces.counts[layer], traces.experts[layer]


def compute_specialization(traces: RoutingTraceSet, layer: int) -> SpecializationProfile:
    """Build the specialization profile at ``layer``.

    Every declared domain with at least one query is included, in
    declaration order.
    """
    counts, experts = _layer(traces, layer)
    num_experts, num_declared = traces.experts_per_layer[layer], len(traces.domains)
    # sel_counts[i, d]: selections of expert i by queries of domain d; each query
    # contributes k selections, so the column sums are the per-domain k totals
    cell = np.repeat(traces.domain - 1, counts) * num_experts + experts
    sel_counts = np.bincount(cell, minlength=num_declared * num_experts).reshape(-1, num_experts).T
    n_d = np.bincount(traces.domain - 1, minlength=num_declared)
    idx = np.flatnonzero(n_d)
    sel_counts, n_d = sel_counts[:, idx], n_d[idx]
    k_totals = sel_counts.sum(axis=0)
    # S_bar[i, d] = (count[i, d] / n_d) / (k_total[d] / n_d) = count / k_total
    return SpecializationProfile(layer, sel_counts / k_totals[None, :], k_totals / n_d, n_d,
                                 tuple(traces.domains[i] for i in idx))


def _pair_counts(counts: np.ndarray, experts: np.ndarray, num_experts: int) -> np.ndarray:
    """(E, E) int64 counts of the queries that select both experts, zero on the diagonal.

    Query q selects ``counts[q]`` distinct experts of ``experts``, sorted, after those
    of the queries before it. Each pair of a query's selections adds one to its cell
    above the diagonal, and the result is that triangle plus its transpose: A^T A off
    the diagonal in n * k^2 rather than n * E^2 work. Queries go in chunks, each
    query's selections left-aligned in a row of k padded with the sentinel expert E,
    whose pairs are dropped at the end; a chunk's pair codes go to one bincount.
    """
    side = num_experts + 1
    k = int(counts.max(initial=0))
    first, second = np.triu_indices(k, 1)  # the row positions of each pair
    # a chunk holds two arrays of pair codes and about four of selections at once
    rows = max(1, _CHUNK_CELLS // (2 * len(first) + 4 * k + 1))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    upper = np.zeros(side * side, np.int64)
    for a in range(0, len(counts), rows):
        chunk = counts[a:a + rows]
        start, stop = offsets[a], offsets[a + len(chunk)]
        picked = np.full((len(chunk), k), num_experts, np.int64)
        picked.reshape(-1)[np.repeat(np.arange(len(chunk)) * k - offsets[a:a + len(chunk)], chunk)
                           + np.arange(start, stop)] = experts[start:stop]
        codes = picked[:, first]
        codes *= side
        codes += picked[:, second]
        upper += np.bincount(codes.reshape(-1), minlength=side * side)
    upper = upper.reshape(side, side)[:num_experts, :num_experts]
    return upper + upper.T


def compute_collaboration(traces: RoutingTraceSet, layer: int) -> CollaborationMatrix:
    """Build the collaboration matrix at ``layer``.

    If every query selects a single expert there is no co-activation mass;
    the result is all-zero with ``zero_mass=True`` rather than an error.
    """
    counts, experts = _layer(traces, layer)
    pair_counts = _pair_counts(counts, experts, traces.experts_per_layer[layer])
    pair_total = int(pair_counts.sum())
    # B_bar = (pair_counts / n) / (pair_total / n) = pair_counts / pair_total, all-zero without pairs
    return CollaborationMatrix(layer, pair_counts / max(pair_total, 1),
                               pair_total / traces.num_queries, pair_total == 0)


def resolve_layer(policy: LayerPolicy, num_layers: int) -> int:
    """Map a layer policy (first/median/last or an explicit index) to an index."""
    if isinstance(policy, int) and not isinstance(policy, bool):
        if not 0 <= policy < num_layers:
            raise SignatureError(f"explicit layer {policy} out of range (0..{num_layers - 1})")
        return policy
    if policy == "first":
        return 0
    if policy == "median":
        return (num_layers - 1) // 2
    if policy == "last":
        return num_layers - 1
    raise SignatureError(f"unknown layer policy {policy!r}")


def parse_layer_policy(raw: str) -> LayerPolicy:
    """Read a layer policy from text: an integer index of at most 18 ASCII digits, or a policy name.

    An unknown name raises here, before any input is opened; an index is
    checked against each trace set's layer count when its signatures are
    built. Longer digit runs stay names (so ``unknown layer policy``): int()
    refuses more than 4300 digits, and no model has 10**18 layers.
    """
    digits = raw[1:] if raw[:1] in ("+", "-") else raw
    if len(digits) <= 18 and digits.isascii() and digits.isdigit():
        return int(raw)
    resolve_layer(raw, 1)
    return raw


def signature_bundle(traces: RoutingTraceSet, layer_policy: LayerPolicy = "last") -> SignatureBundle:
    """Compute both signatures at the layer chosen by ``layer_policy``.

    The default policy is the last layer, where routing carries the most
    model-specific signal; first and median exist for layer ablations.
    """
    layer = resolve_layer(layer_policy, traces.num_layers)
    return SignatureBundle(compute_specialization(traces, layer), compute_collaboration(traces, layer))


def read_signatures(path: str | Path, layer_policy: LayerPolicy = "last") -> tuple[str, SignatureBundle]:
    """The model id and the signature bundle of one trace file.

    The only way from a trace file to scoring: the trace set is dropped as
    soon as its signatures are built, so a caller holds one at a time. Every
    fault raises an error whose message starts with ``path``.
    """
    traces = ingest_traces(path)
    try:
        return traces.model_id, signature_bundle(traces, layer_policy)
    except SignatureError as exc:
        raise SignatureError(f"{path}: {exc}") from None


def save_bundle(bundle: SignatureBundle, path: str | Path, meta: dict | None = None) -> None:
    """Serialize a signature bundle to a structured JSON file."""
    spec, collab = bundle
    doc = {
        "format": "moesig-signatures", "version": 1, "layer": spec.layer,
        "num_experts": spec.num_experts, "domains": list(spec.domain_labels),
        "specialization": {"matrix": spec.matrix.tolist(), "kappa_per_domain": spec.kappa_per_domain.tolist(),
                           "counts": spec.counts.tolist()},
        "collaboration": {"matrix": collab.matrix.tolist(), "pair_normalizer": collab.pair_normalizer,
                          "zero_mass": collab.zero_mass},
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n", encoding="utf-8")


def load_bundle(path: str | Path) -> SignatureBundle:
    """Load a signature bundle written by :func:`save_bundle`.

    Text that is not UTF-8 JSON, a lone surrogate escape, a missing field,
    a layer that is not an integer >= 0, domains that are not a list of
    distinct strings, counts that are not integers >= 0, a pair normalizer
    that is not a finite number >= 0, matrices whose expert counts disagree
    with each other or with ``num_experts``, or a signature its constructor
    rejects raise SignatureError, whose message starts with ``path``.
    """
    doc = read_json(path, SignatureError)
    try:
        if (not isinstance(doc, dict) or doc.get("format") != "moesig-signatures"
                or not is_version(doc.get("version"), 1)):
            raise SignatureError("not a version-1 signature file")
        layer, labels, num_experts = doc["layer"], doc["domains"], doc["num_experts"]
        spec_doc, collab_doc = doc["specialization"], doc["collaboration"]
        counts, pair_normalizer = spec_doc["counts"], collab_doc["pair_normalizer"]
        if not is_int(layer) or layer < 0:
            raise SignatureError(f"layer must be an integer >= 0, got {layer!r}")
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            raise SignatureError("domains must be a list of strings")
        if len(set(labels)) != len(labels):
            raise SignatureError("domains must not repeat a label")
        if not isinstance(counts, list) or not all(is_int(c) and c >= 0 for c in counts):
            raise SignatureError("counts must be a list of integers >= 0")
        if not is_finite_number(pair_normalizer) or pair_normalizer < 0:
            raise SignatureError("pair_normalizer must be a finite number >= 0")
        spec = SpecializationProfile(layer, spec_doc["matrix"], spec_doc["kappa_per_domain"], counts, tuple(labels))
        collab = CollaborationMatrix(layer, collab_doc["matrix"], float(pair_normalizer), collab_doc["zero_mass"])
        if collab.num_experts != spec.num_experts:
            raise SignatureError(f"collaboration matrix has {collab.num_experts} experts, "
                                 f"specialization profile has {spec.num_experts}")
        if not is_int(num_experts) or num_experts != spec.num_experts:
            raise SignatureError(f"num_experts is {num_experts!r}, but the matrices have {spec.num_experts} experts")
    except KeyError as exc:
        raise SignatureError(f"{path}: signature file is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SignatureError(f"{path}: malformed signature file: {exc}") from None
    except SignatureError as exc:  # the constructors' faults too
        raise SignatureError(f"{path}: {exc}") from None
    return SignatureBundle(spec, collab)


def dump_bundle_csv(bundle: SignatureBundle, path: str | Path, meta_line: str | None = None) -> None:
    """Dump both signatures as a flat CSV for inspection.

    Specialization rows carry (domain, expert, value); collaboration rows
    carry (i, j, value) for off-diagonal entries. Within each domain the
    specialization values sum to 1.
    """
    spec, collab = bundle
    labels = spec.domain_labels
    rows = [["specialization", spec.layer, label, i, "", spec.matrix[i, d]]
            for d, label in enumerate(labels) for i in range(spec.num_experts)]
    rows += [["kappa", spec.layer, lab, "", "", k] for lab, k in zip(labels, spec.kappa_per_domain)]
    rows += [["collaboration", collab.layer, "", i, j, collab.matrix[i, j]]
             for i in range(collab.num_experts) for j in range(collab.num_experts) if i != j]
    write_csv(path, meta_line, ["kind", "layer", "domain", "i", "j", "value"], rows)
