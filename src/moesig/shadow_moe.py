"""Toy trainable sparse-MoE proxy with top-k routing and analytic gradients.

The proxy mimics a black-box input-to-output oracle by minimizing mean
squared error plus a load-balancing penalty that pulls mean gate usage
toward uniform, preventing expert collapse. Routing uses softmax gates with
hard top-k selection; within a training step the selected index set is
treated as constant and gradients flow through the renormalized gate
weights of the selected experts (standard sparse-MoE practice, and what
makes finite-difference gradient checks well defined away from selection
boundaries).

Scale notes: experts are two-layer tanh maps and the default hidden width
is small, so training runs in seconds on a CPU. The default learning rate
of 1e-3 is a toy-scale choice; LLM-scale distillation recipes use values
around 5e-6, which do not transfer to tiny freshly initialized networks.
Optimization is plain mini-batch gradient descent with optional momentum.

One set of kernels does all the arithmetic, on a stack of M same-shape
proxies: every tensor, batch and layer cache carries a leading model axis,
and each product and reduction runs per model slice in the order a single
proxy's 2-D call runs it, so every slice is bitwise that proxy's own
result. The expert products run as ``np.matmul`` on (model, expert) stacks,
one gemm per (model, expert) slice, and the experts' input gradient is
summed over the experts after its per-expert products. A
``ShadowMoeModel`` is its config plus one flat float64 vector, and every
tensor is a view of that vector, in the order of
:func:`_param_shapes`. :func:`train_proxies` fits several proxies that share
a config apart from the seed as one stack: their parameters, gradients and
velocities are one (M, P) buffer each, whose rows are the models' vectors,
so a step costs one set of numpy calls however many fits it carries.
:func:`train_proxy` is its one-fit case; a model's forward pass, trace export
and ``loss_and_grads`` run the same kernels on its vector as a stack of one.
After every epoch a fit takes its loss over all its inputs, a forward pass
that costs about a quarter of the epoch's steps at the reference pipeline's
shape; a caller that reads only the first and last loss passes
``curve=False`` and skips the passes in between.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from moesig._meta import (ConfigRecord, artifact_meta, check_fields, config_digest, field_int, field_number,
                          is_finite_number, is_int, is_version, json_lines, parse_json)
from moesig._rng import substream
from moesig.errors import ShadowMoeError
from moesig.routing_trace import RoutingTraceSet, build_trace_set

Oracle = Callable[[np.ndarray], np.ndarray]

MODEL_MAGIC = b"MOESIG-SHADOW-V1\n"
QUERY_FIELDS = ("kind", "seed", "num_domains", "n_per_domain", "input_dim", "separation", "spread")
ORACLE_FIELDS = {"mlp": ("kind", "seed", "hidden_dim", "scale"), "linear": ("kind", "seed", "scale"),
                 "shadow-model": ("kind", "path")}


def _as_per_layer(value, num_layers: int, name: str) -> tuple[int, ...]:
    if is_int(value):
        return (value,) * num_layers
    if not isinstance(value, (list, tuple)) or not all(map(is_int, value)):
        raise ShadowMoeError(f"{name} must be an integer or a list of integers, got {value!r}")
    if len(value) != num_layers:
        raise ShadowMoeError(f"{name} has {len(value)} entries for {num_layers} layers")
    return tuple(value)


@dataclass(frozen=True)
class ShadowMoeConfig(ConfigRecord):
    """Shape, regularization, and optimization settings for a proxy."""

    ERROR, WHAT = ShadowMoeError, "proxy config"
    INTEGER_FLOORS = {"num_layers": 1, "input_dim": 1, "output_dim": 1, "hidden_dim": 1, "epochs": 1,
                      "batch_size": 1, "seed": 0}
    NUMBERS = ("load_balance_weight", "learning_rate", "momentum")

    num_layers: int
    experts_per_layer: tuple[int, ...] | int
    top_k: tuple[int, ...] | int
    input_dim: int
    output_dim: int
    hidden_dim: int = 16
    load_balance_weight: float = 0.001
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        experts = _as_per_layer(self.experts_per_layer, self.num_layers, "experts_per_layer")
        top_k = _as_per_layer(self.top_k, self.num_layers, "top_k")
        object.__setattr__(self, "experts_per_layer", experts)
        object.__setattr__(self, "top_k", top_k)
        for e, k in zip(experts, top_k):
            if e < 1 or k < 1 or k > e:
                raise ShadowMoeError(f"need 1 <= top_k <= experts per layer, got k={k}, E={e}")
        if self.load_balance_weight < 0:
            raise ShadowMoeError("load_balance_weight must be >= 0")
        if self.learning_rate <= 0:
            raise ShadowMoeError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ShadowMoeError("momentum must lie in [0, 1)")


def _balance_penalty(mean_gate_usage: Sequence[np.ndarray]):
    """:func:`load_balance_loss` over the last axis: (M, E) usages give one penalty per model."""
    total = 0.0
    for usage in mean_gate_usage:
        e = usage.shape[-1]
        total = total + e * np.sum((usage - 1.0 / e) ** 2, axis=-1)
    return total


def load_balance_loss(mean_gate_usage: Sequence[np.ndarray]) -> float:
    """Squared deviation of mean gate usage from uniform, summed over layers.

    ``mean_gate_usage`` holds one usage vector per layer. Each layer
    contributes E * sum_i (usage_i - 1/E)^2; zero exactly when usage is
    uniform in every layer.
    """
    return float(_balance_penalty(mean_gate_usage))


@dataclass
class _LayerCache:
    """One MoE layer's forward values for a stack of M proxies on batches of B inputs."""

    h_in: np.ndarray  # (M, B, H) layer input
    gates: np.ndarray  # (M, B, E) softmax
    topk: np.ndarray  # (M, B, k) selected indices, descending gate order
    sel_weights: np.ndarray  # (M, B, k) renormalized
    sel_sum: np.ndarray  # (M, B)
    w_full: np.ndarray  # (M, B, E) renormalized weights scattered, 0 elsewhere
    mid: np.ndarray  # (M, B, E, H) expert hidden activations
    expert_out: np.ndarray  # (M, B, E, H)
    out: np.ndarray  # (M, B, H) gate-weighted mix of the expert outputs


def _param_shapes(config: ShadowMoeConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every tensor, in the order of :meth:`ShadowMoeModel.param_items`."""
    h, i, o = config.hidden_dim, config.input_dim, config.output_dim
    shapes = [("w_in", (h, i)), ("b_in", (h,))]
    for layer, e in enumerate(config.experts_per_layer):
        shapes += [
            (f"router.{layer}", (e, h)),
            (f"expert_u.{layer}", (e, h, h)),
            (f"expert_c.{layer}", (e, h)),
            (f"expert_v.{layer}", (e, h, h)),
            (f"expert_d.{layer}", (e, h)),
        ]
    return shapes + [("w_out", (o, h)), ("b_out", (o,))]


def _manifest(config: ShadowMoeConfig) -> dict:
    """A model file's manifest line: its config, and its tensors in the order of :func:`_param_shapes`."""
    return {"format": "shadow-moe-model", "version": 1, "config": config.to_dict(),
            "tensors": [{"name": name, "shape": list(shape)} for name, shape in _param_shapes(config)]}


def _param_views(buffer: np.ndarray, config: ShadowMoeConfig) -> list[np.ndarray]:
    """Each tensor of :func:`_param_shapes` as a view of ``buffer``'s last axis, leading axes kept."""
    lead, views, start = buffer.shape[:-1], [], 0
    for _, shape in _param_shapes(config):
        stop = start + math.prod(shape)
        views.append(buffer[..., start:stop].reshape(lead + shape))
        start = stop
    return views


def _layer_params(params: list[np.ndarray], layer: int) -> list[np.ndarray]:
    """Router, expert_u, expert_c, expert_v and expert_d of one layer."""
    return params[2 + 5 * layer : 7 + 5 * layer]


def _forward(params: list[np.ndarray], x: np.ndarray, top_k: Sequence[int]) -> tuple[np.ndarray, list[_LayerCache]]:
    """Outputs (M, B, O) and layer caches of M stacked proxies on inputs ``x`` of shape (M, B, input_dim).

    ``params`` holds every tensor of :meth:`ShadowMoeModel.param_items` with a
    leading model axis. Each product and reduction runs per model slice, in
    the order one proxy's own pass would run it, so every slice is bitwise
    that proxy's result. The expert layers' products run as ``np.matmul``,
    one gemm per (model, expert) slice, on views that put the expert axis
    ahead of the batch; ``mid`` and ``expert_out`` are (M, B, E, H) views of
    (M, E, B, H) arrays.
    """
    models, batch = x.shape[:2]
    pick = (np.arange(models)[:, None, None], np.arange(batch)[None, :, None])
    h = np.tanh(x @ params[0].transpose(0, 2, 1) + params[1][:, None])
    caches: list[_LayerCache] = []
    for layer, k in enumerate(top_k):
        router, u, c, v, d = _layer_params(params, layer)
        logits = h @ router.transpose(0, 2, 1)
        shifted = logits - logits.max(axis=2, keepdims=True)
        exp = np.exp(shifted)
        gates = exp / exp.sum(axis=2, keepdims=True)
        # stable argsort on logits: equal scores resolve to the lower index
        topk = np.argsort(-logits, axis=2, kind="stable")[..., :k]
        sel = gates[pick + (topk,)]
        sel_sum = sel.sum(axis=2)
        weights = sel / sel_sum[..., None]
        w_full = np.zeros_like(gates)
        w_full[pick + (topk,)] = weights
        mid = np.tanh((h[:, None] @ u.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3) + c[:, None])
        expert_out = (mid.transpose(0, 2, 1, 3) @ v.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3) + d[:, None]
        out = np.einsum("mbe,mbeh->mbh", w_full, expert_out)
        caches.append(_LayerCache(h, gates, topk, weights, sel_sum, w_full, mid, expert_out, out))
        h = out
    return h @ params[-2].transpose(0, 2, 1) + params[-1][:, None], caches


def _backward(
    params: list[np.ndarray],
    x: np.ndarray,
    targets: np.ndarray,
    y: np.ndarray,
    caches: list[_LayerCache],
    lam: float,
    grads: list[np.ndarray],
) -> np.ndarray:
    """Loss per model (MSE + lam * balance penalty) of a stacked forward pass; gradients go into ``grads``.

    ``grads`` holds one array per tensor, shaped like ``params``. The top-k
    index sets are held fixed; gradients reach the routers through the
    renormalized weights of the selected gates and through the dense balance
    penalty on all gates.
    """
    models, n = x.shape[:2]
    pick = (np.arange(models)[:, None, None], np.arange(n)[None, :, None])
    usage = [cache.gates.mean(axis=1) for cache in caches]
    with np.errstate(over="ignore", invalid="ignore"):
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

        np.matmul(de_out.transpose(0, 2, 3, 1), cache.mid.transpose(0, 2, 1, 3), out=g_v)
        de_out.sum(axis=1, out=g_d)
        dmid = (de_out.transpose(0, 2, 1, 3) @ v).transpose(0, 2, 1, 3)
        da = dmid * (1.0 - cache.mid**2)
        np.matmul(da.transpose(0, 2, 3, 1), cache.h_in[:, None], out=g_u)
        da.sum(axis=1, out=g_c)
        # per expert, then summed over the experts: one (B, E*H) @ (E*H, H) product would
        # reduce in an order that differs between BLAS kernels
        dh_experts = (da.transpose(0, 2, 1, 3) @ u).sum(axis=1)

        selected = pick + (cache.topk,)
        dw_sel = dw_full[selected]
        inner = (dw_sel * cache.sel_weights).sum(axis=2, keepdims=True)
        dp_sel = (dw_sel - inner) / cache.sel_sum[..., None]
        dgates = np.zeros_like(cache.gates)
        dgates[selected] = dp_sel
        if lam > 0:
            e = usage[layer].shape[-1]
            dgates = dgates + lam * 2.0 * e * (usage[layer] - 1.0 / e)[:, None, :] / n
        dot = (dgates * cache.gates).sum(axis=2, keepdims=True)
        dlogits = cache.gates * (dgates - dot)
        np.matmul(dlogits.transpose(0, 2, 1), cache.h_in, out=g_router)
        dh = dh_experts + dlogits @ router

    da0 = dh * (1.0 - caches[0].h_in ** 2)
    np.matmul(da0.transpose(0, 2, 1), x, out=grads[0])
    da0.sum(axis=1, out=grads[1])
    return total


@dataclass
class ShadowMoeModel:
    """A proxy: its config and every parameter in one flat float64 vector.

    ``flat`` holds the tensors of :meth:`param_items` back to back, and each
    of them is a view of it, so an in-place change to a tensor shows in the
    next pass.
    """

    config: ShadowMoeConfig
    flat: np.ndarray  # (P,)

    @classmethod
    def initialize(cls, config: ShadowMoeConfig) -> "ShadowMoeModel":
        """Seeded weights, each drawn from N(0, 1/sqrt(fan-in)); biases, expert_c and expert_d start at zero.

        The draw order is router, expert_u and expert_v of each layer, then
        w_in, then w_out.
        """
        rng = substream(config.seed, "shadow-init")
        model = cls._zeros(config)
        named = dict(model.param_items())
        kinds = ("router", "expert_u", "expert_v")
        for name in [f"{kind}.{layer}" for layer in range(config.num_layers) for kind in kinds] + ["w_in", "w_out"]:
            tensor = named[name]
            # the last axis of every drawn tensor is its fan-in
            tensor[...] = rng.normal(0.0, 1.0 / np.sqrt(tensor.shape[-1]), size=tensor.shape)
        return model

    @classmethod
    def _zeros(cls, config: ShadowMoeConfig) -> "ShadowMoeModel":
        size = sum(math.prod(shape) for _, shape in _param_shapes(config))
        try:
            flat = np.zeros(size)
        except (ValueError, OverflowError):  # numpy refuses a size past its array limit
            raise ShadowMoeError(f"a proxy of {size} parameters is past numpy's array limit") from None
        return cls(config, flat)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        names = [name for name, _ in _param_shapes(self.config)]
        return list(zip(names, _param_views(self.flat, self.config)))

    def _stacked(self) -> list[np.ndarray]:
        return _param_views(self.flat[None], self.config)

    def _run(self, x: np.ndarray) -> tuple[np.ndarray, list[_LayerCache]]:
        """:func:`_forward` on inputs (B, input_dim), as a stack of one; non-finite outputs raise."""
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ShadowMoeError(f"expected inputs of shape (n, {cfg.input_dim}), got {x.shape}")
        # an overflowing pass is reported by the check below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            y, caches = _forward(self._stacked(), x[None], cfg.top_k)
        if not np.all(np.isfinite(y)):
            raise ShadowMoeError("non-finite activations in forward pass")
        return y, caches

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Batch forward without routing records; usable as a training oracle."""
        return self._run(np.atleast_2d(x))[0][0]

    def loss_and_grads(self, x: np.ndarray, targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """Total loss (MSE + load_balance_weight * balance penalty) and analytic gradients.

        The top-k index sets are held fixed; gradients reach the routers
        through the renormalized weights of the selected gates and through
        the dense balance penalty on all gates.
        """
        cfg = self.config
        t = np.asarray(targets, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        y, caches = self._run(x)
        if t.shape != y.shape[1:]:
            raise ShadowMoeError(f"target shape {t.shape} does not match output {y.shape[1:]}")
        grads = self._zeros(cfg)  # the gradients, in the parameters' layout
        lam = cfg.load_balance_weight
        total = _backward(self._stacked(), x[None], t[None], y, caches, lam, grads._stacked())
        return float(total[0]), dict(grads.param_items())

    def save(self, path: str | Path) -> None:
        """Versioned binary: magic, JSON manifest line, raw float64 tensors."""
        with Path(path).open("wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(json.dumps(_manifest(self.config), sort_keys=True, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            for _, arr in self.param_items():
                buf = np.ascontiguousarray(arr, dtype="<f8").tobytes()
                fh.write(struct.pack("<Q", len(buf)))
                fh.write(buf)

    @classmethod
    def load(cls, path: str | Path) -> "ShadowMoeModel":
        """Read a file written by :meth:`save`; a malformed file raises ShadowMoeError."""
        with Path(path).open("rb") as fh:
            magic = fh.read(len(MODEL_MAGIC))
            if magic != MODEL_MAGIC:
                raise ShadowMoeError(f"{path}: not a shadow-moe model file")
            manifest = parse_json(fh.readline().decode("utf-8", "surrogateescape"), ShadowMoeError, str(path))
            if not isinstance(manifest, dict) or not is_version(manifest.get("version"), 1):
                raise ShadowMoeError(f"{path}: unsupported model version")
            config, tensors = manifest.get("config"), manifest.get("tensors")
            if not isinstance(config, dict) or not isinstance(tensors, list):
                raise ShadowMoeError(f"{path}: model manifest needs 'config' and 'tensors' fields")
            try:
                model = cls._zeros(ShadowMoeConfig.from_dict(config))
            except ShadowMoeError as exc:
                raise ShadowMoeError(f"{path}: {exc}") from None
            expected = _manifest(model.config)["tensors"]
            if tensors != expected:  # one line names the first entry that differs, else the two counts
                index = next((i for i, pair in enumerate(zip(tensors, expected)) if pair[0] != pair[1]), None)
                fault = (f"has {len(tensors)} entries, the config gives {len(expected)}" if index is None else
                         f"entry {index} is {tensors[index]!r}, the config gives {expected[index]!r}")
                raise ShadowMoeError(f"{path}: tensor list {fault}")
            for name, target in model.param_items():
                # the stored size is checked before reading, so a corrupt one allocates nothing
                size_ok = fh.read(8) == struct.pack("<Q", target.nbytes)
                buf = fh.read(target.nbytes) if size_ok else b""
                if len(buf) != target.nbytes:
                    raise ShadowMoeError(f"{path}: tensor {name} is truncated or mis-sized")
                target[...] = np.frombuffer(buf, dtype="<f8").reshape(target.shape)
            if fh.read(1):
                raise ShadowMoeError(f"{path}: bytes follow the last tensor")
        return model

    @property
    def model_id(self) -> str:
        return f"shadow-moe-{self.config.digest()}"


@dataclass(frozen=True)
class QuerySet:
    """Labeled inputs shared by proxy training and trace export."""

    query_ids: tuple[str, ...]
    inputs: np.ndarray  # (n, input_dim)
    domains: tuple[str, ...]

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "query_ids", tuple(self.query_ids))
        object.__setattr__(self, "domains", tuple(self.domains))
        n = inputs.shape[0]
        if len(self.query_ids) != n or len(self.domains) != n:
            raise ShadowMoeError("query_ids, inputs, and domains must have equal length")
        if any(not d for d in self.domains):
            raise ShadowMoeError("every query needs a domain label")
        if len(set(self.query_ids)) != n:
            raise ShadowMoeError("query ids must be unique")

    def __len__(self) -> int:
        return len(self.query_ids)

    def domain_labels(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.domains))


def gaussian_domain_queries(
    seed: int,
    num_domains: int,
    n_per_domain: int,
    input_dim: int,
    separation: float = 2.0,
    spread: float = 0.5,
) -> QuerySet:
    """Domain-clustered Gaussian inputs: one well-separated center per domain; inputs that
    overflow to values that are not finite raise ShadowMoeError."""
    rng = substream(seed, "queries")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned about
        centers = rng.normal(0.0, 1.0, size=(num_domains, input_dim)) * separation
        try:
            inputs = np.concatenate(
                [center + rng.normal(0.0, 1.0, size=(n_per_domain, input_dim)) * spread for center in centers]
            )
        except (ValueError, OverflowError):  # numpy refuses a size past its array limit
            raise ShadowMoeError(
                f"{n_per_domain} queries per domain of dimension {input_dim} are past numpy's array limit"
            ) from None
    if not np.isfinite(inputs).all():
        raise ShadowMoeError(f"separation {separation!r} and spread {spread!r} give queries that are not finite")
    return QuerySet(
        query_ids=tuple(f"q{i:06d}" for i in range(len(inputs))),
        inputs=inputs,
        domains=tuple(f"d{d + 1}" for d in range(num_domains) for _ in range(n_per_domain)),
    )


def write_queries(queries: QuerySet, path: str | Path, meta: dict | None = None) -> None:
    header = {
        "schema_version": 1,
        "kind": "query-set",
        "input_dim": int(queries.inputs.shape[1]),
    }
    if meta:
        header["meta"] = meta
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for qid, x, dom in zip(queries.query_ids, queries.inputs, queries.domains):
            rec = {"query_id": qid, "domain": dom, "x": [float(v) for v in x]}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_queries(path: str | Path) -> QuerySet:
    """Read a query-set file written by :func:`write_queries`.

    A first line that is not a version-1 query-set header, a line that is
    not UTF-8 or not JSON or holds a lone surrogate escape, or a record
    whose fields are missing, of the wrong type or not finite, whose domain
    label is empty or whose query id repeats an earlier one, raises
    ShadowMoeError naming its line.
    """
    path = Path(path)
    ids, xs, labels = [], [], []
    seen = set()
    input_dim = None
    # undecodable bytes become lone surrogates, so the line that holds them can be named
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            for lineno, doc in json_lines(fh, ShadowMoeError):
                where = f"line {lineno}"
                if input_dim is None:
                    version, input_dim = doc.get("schema_version"), doc.get("input_dim")
                    if not is_version(version, 1):
                        raise ShadowMoeError(f"{where}: unsupported schema_version {version!r} (supported: 1)")
                    if doc.get("kind") != "query-set" or not is_int(input_dim) or input_dim < 1:
                        raise ShadowMoeError(f"{where}: expected a query-set header with an input_dim")
                    continue
                missing = [key for key in ("query_id", "domain", "x") if key not in doc]
                if missing:
                    raise ShadowMoeError(f"{where}: query record is missing field(s) {missing}")
                x = doc["x"]
                if not isinstance(doc["query_id"], str) or not isinstance(doc["domain"], str):
                    raise ShadowMoeError(f"{where}: query_id and domain must be strings")
                if not isinstance(x, list) or len(x) != input_dim or not all(map(is_finite_number, x)):
                    raise ShadowMoeError(f"{where}: x must be a list of {input_dim} finite numbers")
                if not doc["domain"]:
                    raise ShadowMoeError(f"{where}: every query needs a domain label")
                if doc["query_id"] in seen:
                    raise ShadowMoeError(f"{where}: duplicate query id {doc['query_id']!r}")
                seen.add(doc["query_id"])
                ids.append(doc["query_id"])
                xs.append(x)
                labels.append(doc["domain"])
        except ShadowMoeError as exc:
            raise ShadowMoeError(f"{path}: {exc}") from None
    if not ids:
        raise ShadowMoeError(f"{path}: empty query file")
    return QuerySet(query_ids=tuple(ids), inputs=np.asarray(xs, dtype=np.float64), domains=tuple(labels))


def make_queries(doc: dict, path: str | Path) -> QuerySet:
    """Generate the query set a ``gaussian-domains`` config describes and write it to ``path``.

    The config needs integer ``seed``, ``num_domains``, ``n_per_domain`` and
    ``input_dim`` and takes numeric ``separation`` and ``spread``; a
    malformed config, or one with another field, raises ShadowMoeError.
    """
    what = "query-set config"
    check_fields(doc, QUERY_FIELDS, ShadowMoeError, what, QUERY_FIELDS[:5])
    if doc["kind"] != "gaussian-domains":
        raise ShadowMoeError(f"unknown query-set kind {doc['kind']!r}")
    seed = field_int(doc, "seed", ShadowMoeError)
    queries = gaussian_domain_queries(
        seed=seed,
        num_domains=field_int(doc, "num_domains", ShadowMoeError, minimum=1),
        n_per_domain=field_int(doc, "n_per_domain", ShadowMoeError, minimum=1),
        input_dim=field_int(doc, "input_dim", ShadowMoeError, minimum=1),
        separation=field_number(doc, "separation", ShadowMoeError, 2.0),
        spread=field_number(doc, "spread", ShadowMoeError, 0.5),
    )
    write_queries(queries, path, meta=artifact_meta(seed, config_digest(doc)))
    return queries


def mlp_oracle(
    seed: int, input_dim: int, output_dim: int, hidden_dim: int = 16, scale: float = 1.0
) -> Oracle:
    """Fixed random two-layer tanh network; a generic nonlinear black box."""
    rng = substream(seed, "oracle-mlp")
    w1 = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(hidden_dim, input_dim))
    b1 = rng.normal(0.0, 0.3, size=hidden_dim)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=(output_dim, hidden_dim))

    def oracle(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return scale * (np.tanh(x @ w1.T + b1) @ w2.T)

    return oracle


def linear_oracle(seed: int, input_dim: int, output_dim: int, scale: float = 1.0) -> Oracle:
    """Fixed random affine map."""
    rng = substream(seed, "oracle-linear")
    w = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(output_dim, input_dim))
    b = rng.normal(0.0, 0.1, size=output_dim)

    def oracle(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return scale * (x @ w.T + b)

    return oracle


def build_oracle(spec: dict, base_dir: Path, config: ShadowMoeConfig) -> Oracle:
    """An oracle from its JSON spec, with model paths relative to ``base_dir``.

    A malformed spec, or one with a field its kind does not take, raises ShadowMoeError.
    """
    what = "oracle spec"
    if not isinstance(spec, dict):
        raise ShadowMoeError(f"{what} must be a JSON object")
    kind = spec.get("kind")
    if isinstance(kind, str) and kind in ORACLE_FIELDS:
        check_fields(spec, ORACLE_FIELDS[kind], ShadowMoeError, f"{kind} {what}", ORACLE_FIELDS[kind][:2])
    if kind == "mlp":
        return mlp_oracle(
            seed=field_int(spec, "seed", ShadowMoeError),
            input_dim=config.input_dim,
            output_dim=config.output_dim,
            hidden_dim=field_int(spec, "hidden_dim", ShadowMoeError, 16, minimum=1),
            scale=field_number(spec, "scale", ShadowMoeError, 1.0),
        )
    if kind == "linear":
        return linear_oracle(
            seed=field_int(spec, "seed", ShadowMoeError),
            input_dim=config.input_dim,
            output_dim=config.output_dim,
            scale=field_number(spec, "scale", ShadowMoeError, 1.0),
        )
    if kind == "shadow-model":
        path = spec.get("path")
        if not isinstance(path, str):
            raise ShadowMoeError(f"shadow-model {what} needs a string 'path', got {path!r}")
        return ShadowMoeModel.load(base_dir / path).predict
    raise ShadowMoeError(f"unknown oracle kind {kind!r} (expected mlp, linear, or shadow-model)")


def train_proxies(
    fits: Sequence[tuple[Oracle, np.ndarray, ShadowMoeConfig]],
    curve: bool = True,
) -> list[tuple[ShadowMoeModel, list[float]]]:
    """Fit proxies in lockstep as one stacked model; each result is :func:`train_proxy` of its fit, bit for bit.

    Each fit is (oracle, inputs, config). The configs must agree on every
    field but ``seed``, and the inputs must share one shape. Parameters,
    gradients and velocities of all fits live in one (fits, P) buffer each,
    so a step is one set of array operations for the whole stack, and every
    product and reduction runs per fit in the order a single fit runs it.
    Inputs and oracle outputs are checked first, fit by fit. Training stops
    as soon as any fit diverges; a stack of one raises its ShadowMoeError,
    and a larger stack refits its fits one at a time in order, so the first
    fit that diverges raises the error it raises when fitted alone.

    Each fit comes back with its full-dataset loss curve: entry 0 before
    any update, entry e after epoch e. With ``curve=False`` the loss is
    taken before the first step and after the last epoch only, and each
    curve is that pair ``[first, last]``; the parameters never see the loss
    pass, so the models are the same bit for bit. Divergence is then caught
    by the per-step batch-loss check and the final pass, and the refit
    fallback keeps the same ``curve``.
    """
    fits = list(fits)
    configs = [config for _, _, config in fits]
    config = configs[0]
    if any(replace(other, seed=config.seed) != config for other in configs):
        raise ShadowMoeError("proxies fitted together must share a config apart from seed")
    xs, targets = [], []
    for oracle, x, cfg in fits:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ShadowMoeError(f"queries must be a nonempty (n, input_dim) array, got {x.shape}")
        if x.shape[1] != cfg.input_dim:
            raise ShadowMoeError(
                f"queries have input_dim {x.shape[1]}, the proxy config has input_dim {cfg.input_dim}"
            )
        t = np.asarray(oracle(x), dtype=np.float64)
        if t.shape != (x.shape[0], cfg.output_dim):
            raise ShadowMoeError(
                f"oracle returned shape {t.shape}, expected ({x.shape[0]}, {cfg.output_dim})"
            )
        if not np.all(np.isfinite(t)):
            raise ShadowMoeError("oracle returned non-finite targets")
        xs.append(x)
        targets.append(t)
    if any(x.shape != xs[0].shape for x in xs):
        raise ShadowMoeError("proxies fitted together must share an input shape")
    xs, targets = np.stack(xs), np.stack(targets)
    stack, n = xs.shape[:2]

    buffer = np.stack([ShadowMoeModel.initialize(cfg).flat for cfg in configs])
    models = [ShadowMoeModel(cfg, buffer[m]) for m, cfg in enumerate(configs)]
    grad_buffer, velocity = np.zeros_like(buffer), np.zeros_like(buffer)
    params, grads = _param_views(buffer, config), _param_views(grad_buffer, config)
    losses: list[list[float]] = [[] for _ in fits]

    def record_losses(epoch: int | None) -> None:
        # the full-dataset loss, one fit at a time
        for m, model in enumerate(models):
            # divergence shows up as inf/nan here and is reported, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                loss = float(np.mean((model.predict(xs[m]) - targets[m]) ** 2))
            if epoch is not None and not np.isfinite(loss):
                raise ShadowMoeError(f"training diverged at epoch {epoch}: loss {loss!r}")
            losses[m].append(loss)

    # fits that share a seed share their batch order
    streams = {cfg.seed: substream(cfg.seed, "shadow-train") for cfg in configs}
    rows = np.arange(stack)[:, None]
    try:
        record_losses(None)
        for epoch in range(config.epochs):
            orders = {seed: rng.permutation(n) for seed, rng in streams.items()}
            order = np.stack([orders[cfg.seed] for cfg in configs])
            for start in range(0, n, config.batch_size):
                batch = order[:, start : start + config.batch_size]
                x, t = xs[rows, batch], targets[rows, batch]
                # a diverging step is reported by the check below, not warned about
                with np.errstate(over="ignore", invalid="ignore"):
                    y, caches = _forward(params, x, config.top_k)
                    total = _backward(params, x, t, y, caches, config.load_balance_weight, grads)
                if not np.all(np.isfinite(total)):
                    m = int(np.argmin(np.isfinite(total)))
                    if not np.all(np.isfinite(y[m])):
                        raise ShadowMoeError("non-finite activations in forward pass")
                    raise ShadowMoeError(
                        f"training diverged at epoch {epoch}: batch loss {float(total[m])!r} "
                        f"(lr={config.learning_rate}, lambda={config.load_balance_weight})"
                    )
                # at momentum 0 this is the plain step bit for bit, as no parameter is ever -0.0
                velocity *= config.momentum
                velocity += grad_buffer
                buffer -= config.learning_rate * velocity
            if curve or epoch == config.epochs - 1:
                record_losses(epoch)
    except ShadowMoeError:
        if stack == 1:
            raise
        # refit one at a time, in order, so the first fit that diverges raises its own error
        return [train_proxies([fit], curve)[0] for fit in fits]
    return list(zip(models, losses))


def train_proxy(
    oracle: Oracle,
    x: np.ndarray,
    config: ShadowMoeConfig,
) -> tuple[ShadowMoeModel, list[float]]:
    """Fit a proxy to an oracle on the inputs ``x`` by mini-batch gradient descent.

    Returns the trained model and the distillation-loss curve; entry 0 is
    the loss before any update, entry e the full-dataset loss after epoch e.
    Training is seed-deterministic: identical config and data give bitwise
    identical parameters. This is :func:`train_proxies` with a single fit.
    """
    ((model, losses),) = train_proxies([(oracle, x, config)])
    return model, losses


def export_traces(
    model: ShadowMoeModel,
    queries: QuerySet,
    model_id: str | None = None,
) -> RoutingTraceSet:
    """Run the proxy over labeled queries and record per-layer top-k sets."""
    cfg = model.config
    _, caches = model._run(queries.inputs)
    labels = queries.domain_labels()
    label_index = {lab: i + 1 for i, lab in enumerate(labels)}
    domains = np.array([label_index[d] for d in queries.domains])
    records = [(queries.query_ids, domains, layer, cache.topk[0]) for layer, cache in enumerate(caches)]
    return build_trace_set(
        model_id=model_id if model_id is not None else model.model_id,
        num_layers=cfg.num_layers,
        experts_per_layer=cfg.experts_per_layer,
        domains=labels,
        records=records,
        meta={"seed": cfg.seed, "config_digest": cfg.digest()},
    )
