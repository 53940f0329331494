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
"""

from __future__ import annotations

import json
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from moesig._meta import artifact_meta, config_digest, is_finite_number, is_int
from moesig._rng import substream
from moesig.errors import ShadowMoeError
from moesig.routing_trace import RoutingTraceSet, build_trace_set

Oracle = Callable[[np.ndarray], np.ndarray]

MODEL_MAGIC = b"MOESIG-SHADOW-V1\n"


def _field_int(doc: dict, key: str, what: str, default: int | None = None, minimum: int = 0) -> int:
    value = doc.get(key, default)
    if not is_int(value) or value < minimum:
        raise ShadowMoeError(f"{what} needs an integer {key!r} >= {minimum}, got {value!r}")
    return value


def _field_number(doc: dict, key: str, what: str, default: float) -> float:
    value = doc.get(key, default)
    if not is_finite_number(value):
        raise ShadowMoeError(f"{what} needs a finite numeric {key!r}, got {value!r}")
    return float(value)


def _as_per_layer(value, num_layers: int, name: str) -> tuple[int, ...]:
    if is_int(value):
        return (value,) * num_layers
    if not isinstance(value, (list, tuple)) or not all(map(is_int, value)):
        raise ShadowMoeError(f"{name} must be an integer or a list of integers, got {value!r}")
    if len(value) != num_layers:
        raise ShadowMoeError(f"{name} has {len(value)} entries for {num_layers} layers")
    return tuple(value)


@dataclass(frozen=True)
class ShadowMoeConfig:
    """Shape, regularization, and optimization settings for a proxy."""

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
        for name in ("num_layers", "input_dim", "output_dim", "hidden_dim", "epochs", "batch_size"):
            if not is_int(getattr(self, name)):
                raise ShadowMoeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("load_balance_weight", "learning_rate", "momentum"):
            if not is_finite_number(getattr(self, name)):
                raise ShadowMoeError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ShadowMoeError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.num_layers < 1:
            raise ShadowMoeError(f"num_layers must be >= 1, got {self.num_layers}")
        experts = _as_per_layer(self.experts_per_layer, self.num_layers, "experts_per_layer")
        top_k = _as_per_layer(self.top_k, self.num_layers, "top_k")
        object.__setattr__(self, "experts_per_layer", experts)
        object.__setattr__(self, "top_k", top_k)
        for e, k in zip(experts, top_k):
            if e < 1 or k < 1 or k > e:
                raise ShadowMoeError(f"need 1 <= top_k <= experts per layer, got k={k}, E={e}")
        for name in ("input_dim", "output_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ShadowMoeError(f"{name} must be >= 1")
        if self.load_balance_weight < 0:
            raise ShadowMoeError("load_balance_weight must be >= 0")
        if self.learning_rate <= 0:
            raise ShadowMoeError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ShadowMoeError("epochs and batch_size must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ShadowMoeError("momentum must lie in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ShadowMoeConfig":
        if not isinstance(doc, dict):
            raise ShadowMoeError("proxy config must be a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ShadowMoeError(f"unknown config field(s): {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
        if missing:
            raise ShadowMoeError(f"config is missing field(s) {missing}")
        return cls(**doc)

    def digest(self) -> str:
        return config_digest(self.to_dict())


def load_balance_loss(mean_gate_usage: Sequence[np.ndarray]) -> float:
    """Squared deviation of mean gate usage from uniform, summed over layers.

    ``mean_gate_usage`` holds one usage vector per layer. Each layer
    contributes E * sum_i (usage_i - 1/E)^2; zero exactly when usage is
    uniform in every layer.
    """
    total = 0.0
    for usage in mean_gate_usage:
        e = usage.shape[0]
        total += float(e * np.sum((usage - 1.0 / e) ** 2))
    return total


@dataclass
class _LayerCache:
    h_in: np.ndarray
    gates: np.ndarray  # (B, E) softmax
    topk: np.ndarray  # (B, k) selected indices, descending gate order
    sel_weights: np.ndarray  # (B, k) renormalized
    sel_sum: np.ndarray  # (B,)
    w_full: np.ndarray  # (B, E) renormalized weights scattered, 0 elsewhere
    mid: np.ndarray  # (B, E, H) expert hidden activations
    expert_out: np.ndarray  # (B, E, H)
    out: np.ndarray  # (B, H) gate-weighted mix of the expert outputs


@dataclass
class ShadowMoeModel:
    """Parameter container plus forward/training machinery."""

    config: ShadowMoeConfig
    w_in: np.ndarray
    b_in: np.ndarray
    routers: list[np.ndarray]
    expert_u: list[np.ndarray]
    expert_c: list[np.ndarray]
    expert_v: list[np.ndarray]
    expert_d: list[np.ndarray]
    w_out: np.ndarray
    b_out: np.ndarray

    @classmethod
    def initialize(cls, config: ShadowMoeConfig) -> "ShadowMoeModel":
        rng = substream(config.seed, "shadow-init")
        h, i, o = config.hidden_dim, config.input_dim, config.output_dim
        routers, e_u, e_c, e_v, e_d = [], [], [], [], []
        for e in config.experts_per_layer:
            routers.append(rng.normal(0.0, 1.0 / np.sqrt(h), size=(e, h)))
            e_u.append(rng.normal(0.0, 1.0 / np.sqrt(h), size=(e, h, h)))
            e_c.append(np.zeros((e, h)))
            e_v.append(rng.normal(0.0, 1.0 / np.sqrt(h), size=(e, h, h)))
            e_d.append(np.zeros((e, h)))
        return cls(
            config=config,
            w_in=rng.normal(0.0, 1.0 / np.sqrt(i), size=(h, i)),
            b_in=np.zeros(h),
            routers=routers,
            expert_u=e_u,
            expert_c=e_c,
            expert_v=e_v,
            expert_d=e_d,
            w_out=rng.normal(0.0, 1.0 / np.sqrt(h), size=(o, h)),
            b_out=np.zeros(o),
        )

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        items = [("w_in", self.w_in), ("b_in", self.b_in)]
        for layer in range(self.config.num_layers):
            items.extend(
                [
                    (f"router.{layer}", self.routers[layer]),
                    (f"expert_u.{layer}", self.expert_u[layer]),
                    (f"expert_c.{layer}", self.expert_c[layer]),
                    (f"expert_v.{layer}", self.expert_v[layer]),
                    (f"expert_d.{layer}", self.expert_d[layer]),
                ]
            )
        items.extend([("w_out", self.w_out), ("b_out", self.b_out)])
        return items

    def _forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, list[_LayerCache]]:
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ShadowMoeError(f"expected inputs of shape (n, {cfg.input_dim}), got {x.shape}")
        h = np.tanh(x @ self.w_in.T + self.b_in)
        caches: list[_LayerCache] = []
        for layer in range(cfg.num_layers):
            k = cfg.top_k[layer]
            logits = h @ self.routers[layer].T
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            gates = exp / exp.sum(axis=1, keepdims=True)
            # stable argsort on logits: equal scores resolve to the lower index
            topk = np.argsort(-logits, axis=1, kind="stable")[:, :k]
            sel = np.take_along_axis(gates, topk, axis=1)
            sel_sum = sel.sum(axis=1)
            weights = sel / sel_sum[:, None]
            w_full = np.zeros_like(gates)
            np.put_along_axis(w_full, topk, weights, axis=1)
            mid = np.tanh(
                np.einsum("eij,bj->bei", self.expert_u[layer], h) + self.expert_c[layer][None]
            )
            expert_out = (
                np.einsum("eij,bej->bei", self.expert_v[layer], mid) + self.expert_d[layer][None]
            )
            out = np.einsum("be,beh->bh", w_full, expert_out)
            caches.append(
                _LayerCache(
                    h_in=h,
                    gates=gates,
                    topk=topk,
                    sel_weights=weights,
                    sel_sum=sel_sum,
                    w_full=w_full,
                    mid=mid,
                    expert_out=expert_out,
                    out=out,
                )
            )
            h = out
        y = h @ self.w_out.T + self.b_out
        if not np.all(np.isfinite(y)):
            raise ShadowMoeError("non-finite activations in forward pass")
        return y, caches

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Batch forward without routing records; usable as a training oracle."""
        y, _ = self._forward_batch(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        return y

    def loss_and_grads(self, x: np.ndarray, targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """Total loss (MSE + load_balance_weight * balance penalty) and analytic gradients.

        The top-k index sets are held fixed; gradients reach the routers
        through the renormalized weights of the selected gates and through
        the dense balance penalty on all gates.
        """
        cfg = self.config
        lam = cfg.load_balance_weight
        t = np.asarray(targets, dtype=np.float64)
        y, caches = self._forward_batch(x)
        if t.shape != y.shape:
            raise ShadowMoeError(f"target shape {t.shape} does not match output {y.shape}")
        n = x.shape[0]
        usage = [cache.gates.mean(axis=0) for cache in caches]
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.mean((y - t) ** 2)) + lam * load_balance_loss(usage)

        grads: dict[str, np.ndarray] = {}
        dy = 2.0 * (y - t) / y.size
        grads["w_out"] = dy.T @ caches[-1].out
        grads["b_out"] = dy.sum(axis=0)
        dh = dy @ self.w_out

        for layer in reversed(range(cfg.num_layers)):
            cache = caches[layer]
            de_out = cache.w_full[:, :, None] * dh[:, None, :]
            dw_full = np.einsum("beh,bh->be", cache.expert_out, dh)

            grads[f"expert_v.{layer}"] = np.einsum("bei,bej->eij", de_out, cache.mid)
            grads[f"expert_d.{layer}"] = de_out.sum(axis=0)
            dmid = np.einsum("eij,bei->bej", self.expert_v[layer], de_out)
            da = dmid * (1.0 - cache.mid**2)
            grads[f"expert_u.{layer}"] = np.einsum("bei,bj->eij", da, cache.h_in)
            grads[f"expert_c.{layer}"] = da.sum(axis=0)
            dh_experts = np.einsum("eij,bei->bj", self.expert_u[layer], da)

            dw_sel = np.take_along_axis(dw_full, cache.topk, axis=1)
            inner = (dw_sel * cache.sel_weights).sum(axis=1, keepdims=True)
            dp_sel = (dw_sel - inner) / cache.sel_sum[:, None]
            dgates = np.zeros_like(cache.gates)
            np.put_along_axis(dgates, cache.topk, dp_sel, axis=1)
            if lam > 0:
                e = usage[layer].shape[0]
                dgates = dgates + lam * 2.0 * e * (usage[layer] - 1.0 / e)[None, :] / n
            dot = (dgates * cache.gates).sum(axis=1, keepdims=True)
            dlogits = cache.gates * (dgates - dot)
            grads[f"router.{layer}"] = dlogits.T @ cache.h_in
            dh = dh_experts + dlogits @ self.routers[layer]

        h0 = caches[0].h_in
        da0 = dh * (1.0 - h0**2)
        grads["w_in"] = da0.T @ np.asarray(x, dtype=np.float64)
        grads["b_in"] = da0.sum(axis=0)
        return total, grads

    def save(self, path: str | Path) -> None:
        """Versioned binary: magic, JSON manifest line, raw float64 tensors."""
        items = self.param_items()
        manifest = {
            "format": "shadow-moe-model",
            "version": 1,
            "config": self.config.to_dict(),
            "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in items],
        }
        with Path(path).open("wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            for _, arr in items:
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
            try:
                manifest = json.loads(fh.readline().decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ShadowMoeError(f"{path}: malformed model manifest: {exc}") from None
            if not isinstance(manifest, dict) or manifest.get("version") != 1:
                raise ShadowMoeError(f"{path}: unsupported model version")
            config, tensors = manifest.get("config"), manifest.get("tensors")
            if not isinstance(config, dict) or not isinstance(tensors, list):
                raise ShadowMoeError(f"{path}: model manifest needs 'config' and 'tensors' fields")
            try:
                config = ShadowMoeConfig.from_dict(config)
            except ShadowMoeError as exc:
                raise ShadowMoeError(f"{path}: {exc}") from None
            model = cls.initialize(config)
            named = dict(model.param_items())
            for entry in tensors:
                name = entry.get("name") if isinstance(entry, dict) else None
                if not isinstance(name, str) or name not in named:
                    raise ShadowMoeError(f"{path}: unknown or repeated tensor {name!r}")
                target = named.pop(name)
                if entry.get("shape") != list(target.shape):
                    raise ShadowMoeError(f"{path}: tensor {name} shape mismatch")
                # the stored size is checked before reading, so a corrupt one allocates nothing
                size_ok = fh.read(8) == struct.pack("<Q", target.nbytes)
                buf = fh.read(target.nbytes) if size_ok else b""
                if len(buf) != target.nbytes:
                    raise ShadowMoeError(f"{path}: tensor {name} is truncated or mis-sized")
                target[...] = np.frombuffer(buf, dtype="<f8").reshape(target.shape)
            if named:
                raise ShadowMoeError(f"{path}: missing tensor(s) {sorted(named)}")
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
    """Domain-clustered Gaussian inputs: one well-separated center per domain."""
    rng = substream(seed, "queries")
    centers = rng.normal(0.0, 1.0, size=(num_domains, input_dim)) * separation
    inputs = np.concatenate(
        [center + rng.normal(0.0, 1.0, size=(n_per_domain, input_dim)) * spread for center in centers]
    )
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

    A line that is not UTF-8 or not JSON, or a record whose fields are
    missing, of the wrong type or not finite, raises ShadowMoeError naming
    its line.
    """
    path = Path(path)
    ids, xs, labels = [], [], []
    input_dim = None
    # undecodable bytes become lone surrogates, so the line that holds them can be named
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ShadowMoeError(f"{where}: not UTF-8 text") from None
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ShadowMoeError(f"{where}: malformed JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise ShadowMoeError(f"{where}: expected a JSON object")
            if input_dim is None:
                input_dim = doc.get("input_dim")
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
            ids.append(doc["query_id"])
            xs.append(x)
            labels.append(doc["domain"])
    if not ids:
        raise ShadowMoeError(f"{path}: empty query file")
    return QuerySet(query_ids=tuple(ids), inputs=np.asarray(xs, dtype=np.float64), domains=tuple(labels))


def make_queries(doc: dict, path: str | Path) -> QuerySet:
    """Generate the query set a ``gaussian-domains`` config describes and write it to ``path``.

    The config needs integer ``seed``, ``num_domains``, ``n_per_domain`` and
    ``input_dim`` and takes numeric ``separation`` and ``spread``; a
    malformed config raises ShadowMoeError.
    """
    what = "query-set config"
    if not isinstance(doc, dict):
        raise ShadowMoeError(f"{what} must be a JSON object")
    if doc.get("kind") != "gaussian-domains":
        raise ShadowMoeError(f"unknown query-set kind {doc.get('kind')!r}")
    seed = _field_int(doc, "seed", what)
    queries = gaussian_domain_queries(
        seed=seed,
        num_domains=_field_int(doc, "num_domains", what, minimum=1),
        n_per_domain=_field_int(doc, "n_per_domain", what, minimum=1),
        input_dim=_field_int(doc, "input_dim", what, minimum=1),
        separation=_field_number(doc, "separation", what, 2.0),
        spread=_field_number(doc, "spread", what, 0.5),
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

    A malformed spec raises ShadowMoeError.
    """
    what = "oracle spec"
    if not isinstance(spec, dict):
        raise ShadowMoeError(f"{what} must be a JSON object")
    kind = spec.get("kind")
    if kind == "mlp":
        return mlp_oracle(
            seed=_field_int(spec, "seed", what),
            input_dim=config.input_dim,
            output_dim=config.output_dim,
            hidden_dim=_field_int(spec, "hidden_dim", what, 16, minimum=1),
            scale=_field_number(spec, "scale", what, 1.0),
        )
    if kind == "linear":
        return linear_oracle(
            seed=_field_int(spec, "seed", what),
            input_dim=config.input_dim,
            output_dim=config.output_dim,
            scale=_field_number(spec, "scale", what, 1.0),
        )
    if kind == "shadow-model":
        path = spec.get("path")
        if not isinstance(path, str):
            raise ShadowMoeError(f"shadow-model {what} needs a string 'path', got {path!r}")
        return ShadowMoeModel.load(base_dir / path).predict
    raise ShadowMoeError(f"unknown oracle kind {kind!r} (expected mlp, linear, or shadow-model)")


def train_proxy(
    oracle: Oracle,
    x: np.ndarray,
    config: ShadowMoeConfig,
) -> tuple[ShadowMoeModel, list[float]]:
    """Fit a proxy to an oracle on the inputs ``x`` by mini-batch gradient descent.

    Returns the trained model and the distillation-loss curve; entry 0 is
    the loss before any update, entry e the full-dataset loss after epoch e.
    Training is seed-deterministic: identical config and data give bitwise
    identical parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShadowMoeError(f"queries must be a nonempty (n, input_dim) array, got {x.shape}")
    targets = np.asarray(oracle(x), dtype=np.float64)
    if targets.shape != (x.shape[0], config.output_dim):
        raise ShadowMoeError(
            f"oracle returned shape {targets.shape}, expected ({x.shape[0]}, {config.output_dim})"
        )
    if not np.all(np.isfinite(targets)):
        raise ShadowMoeError("oracle returned non-finite targets")

    model = ShadowMoeModel.initialize(config)
    rng = substream(config.seed, "shadow-train")
    n = x.shape[0]
    # the model's own arrays, updated in place below, so the list is built once
    params = model.param_items()
    velocity = {name: np.zeros_like(param) for name, param in params}

    def full_distill_loss() -> float:
        # divergence shows up as inf/nan here and is reported, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.mean((model.predict(x) - targets) ** 2))

    losses = [full_distill_loss()]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            # a diverging step is reported by the checks below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                total, grads = model.loss_and_grads(x[batch], targets[batch])
            if not np.isfinite(total):
                raise ShadowMoeError(
                    f"training diverged at epoch {epoch}: batch loss {total!r} "
                    f"(lr={config.learning_rate}, lambda={config.load_balance_weight})"
                )
            for name, param in params:
                g = grads[name]
                if config.momentum > 0:
                    v = velocity[name]
                    v *= config.momentum
                    v += g
                    g = v
                param -= config.learning_rate * g
        loss = full_distill_loss()
        if not np.isfinite(loss):
            raise ShadowMoeError(f"training diverged at epoch {epoch}: loss {loss!r}")
        losses.append(loss)
    return model, losses


def export_traces(
    model: ShadowMoeModel,
    queries: QuerySet,
    model_id: str | None = None,
) -> RoutingTraceSet:
    """Run the proxy over labeled queries and record per-layer top-k sets."""
    cfg = model.config
    _, caches = model._forward_batch(queries.inputs)
    labels = queries.domain_labels()
    label_index = {lab: i + 1 for i, lab in enumerate(labels)}
    domains = np.array([label_index[d] for d in queries.domains])
    records = [(queries.query_ids, domains, layer, cache.topk) for layer, cache in enumerate(caches)]
    return build_trace_set(
        model_id=model_id if model_id is not None else model.model_id,
        num_layers=cfg.num_layers,
        experts_per_layer=cfg.experts_per_layer,
        domains=labels,
        records=records,
        meta={"seed": cfg.seed, "config_digest": cfg.digest()},
    )
