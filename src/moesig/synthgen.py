"""Synthetic teacher/distilled/scratch routing scenarios with known ground truth.

Routing is drawn from domain-conditioned expert preferences: each domain
elevates a contiguous block of experts. The teacher's blocks are laid out
deterministically; the scratch student and the distilled student's own
fallback preferences use independently sampled blocks. The distilled
student copies each teacher (query, layer) decision with probability rho
and otherwise draws from its own preferences, so rho=1 reproduces the
teacher exactly while rho=0 makes the distilled and scratch students
statistically exchangeable. With ``permute_labels`` on, each student's
expert indices are scrambled by an independent hidden relabeling (expert
labels are arbitrary in practice); the distilled one is recorded so tests
can check that the matcher recovers it.

``layer_bias`` scales the domain signal per layer: at bias b the preference
distribution is mixed toward uniform with weight 1-b and the effective copy
probability becomes rho*b. Bias 0 models early layers whose routing
reflects shared surface statistics rather than inherited structure; bias 1
(the default everywhere) is the plain scenario above. rho only sets the copy
threshold, so configs that differ only in it draw the same routing: a sweep
generates them as one group, drawing every model once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from moesig._meta import ConfigRecord, artifact_meta, check_fields, is_number, write_json
from moesig._pool import parallel_map_runs
from moesig._rng import substream
from moesig.detector import pair_verdict, score
from moesig.errors import ScenarioError
from moesig.routing_trace import MAX_EXPERTS, RoutingTraceSet, build_trace_set, write_traces
from moesig.signatures import LayerPolicy, signature_bundle
from moesig.transport import SignatureDistance, signature_distances

PREFERRED_WEIGHT = 8.0  # elevated selection weight of a domain's expert block
BASE_WEIGHT = 1.0


@dataclass(frozen=True)
class ScenarioConfig(ConfigRecord):
    """Shape, relatedness, and seeding of one synthetic scenario."""

    ERROR, WHAT = ScenarioError, "scenario config"
    INTEGER_FLOORS = {"num_experts": 1, "num_layers": 1, "top_k": 1, "num_domains": 1, "n_per_domain": 1,
                      "seed": 0}
    NUMBERS = ("relatedness",)

    num_experts: int
    num_layers: int
    top_k: int
    num_domains: int
    n_per_domain: int
    relatedness: float
    permute_labels: bool = True
    seed: int = 0
    layer_bias: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_experts > MAX_EXPERTS:
            raise ScenarioError(f"num_experts must be at most {MAX_EXPERTS}, got {self.num_experts}")
        if not isinstance(self.permute_labels, bool):
            raise ScenarioError(f"permute_labels must be a boolean, got {self.permute_labels!r}")
        if self.top_k > self.num_experts:
            raise ScenarioError(f"need 1 <= top_k <= num_experts, got {self.top_k}")
        if not 0.0 <= self.relatedness <= 1.0:
            raise ScenarioError(f"relatedness must lie in [0, 1], got {self.relatedness}")
        if self.layer_bias is not None:
            bias = self.layer_bias
            if not isinstance(bias, (list, tuple)) or not all(map(is_number, bias)):
                raise ScenarioError(f"layer_bias must be a list of numbers, got {bias!r}")
            bias = tuple(float(b) for b in bias)
            if len(bias) != self.num_layers:
                raise ScenarioError(f"layer_bias has {len(bias)} entries for {self.num_layers} layers")
            if any(not 0.0 <= b <= 1.0 for b in bias):
                raise ScenarioError("layer_bias entries must lie in [0, 1]")
            object.__setattr__(self, "layer_bias", bias)


@dataclass(frozen=True)
class Scenario:
    """Three aligned trace sets plus the generation ground truth."""

    config: ScenarioConfig
    teacher: RoutingTraceSet
    distilled: RoutingTraceSet
    scratch: RoutingTraceSet
    hidden_permutation: tuple[int, ...] | None


def _block_preferences(starts: np.ndarray, num_experts: int, num_domains: int) -> np.ndarray:
    """(D, E) preference rows: elevated weight on a contiguous wrap-around block."""
    block = math.ceil(num_experts / num_domains)
    weights = np.full((num_domains, num_experts), BASE_WEIGHT, dtype=np.float64)
    blocks = (starts[:, None] + np.arange(block)) % num_experts
    weights[np.arange(num_domains)[:, None], blocks] = PREFERRED_WEIGHT
    return weights / weights.sum(axis=1, keepdims=True)


def _sample_topk(rng: np.random.Generator, weights: np.ndarray, k: int) -> np.ndarray:
    """Weighted sampling without replacement via Gumbel perturbation, row-wise.

    Returns (n, k) expert indices for per-row weight vectors (n, E) as a
    compact int16 copy, the dtype trace sets store: a slice would keep the
    whole (n, E) int64 argsort alive for as long as the draws are held.
    """
    gumbel = rng.gumbel(size=weights.shape)
    keys = np.log(weights) + gumbel
    return np.argsort(-keys, axis=1, kind="stable")[:, :k].astype(np.int16)


def _draw_key(config: ScenarioConfig) -> ScenarioConfig:
    """``config`` without its relatedness: configs with equal keys draw the same routing."""
    return replace(config, relatedness=0.0)


def _generate_group(configs: Sequence[ScenarioConfig]) -> Iterator[Scenario]:
    """One scenario per config, in order, for configs that differ only in ``relatedness``.

    The models and the copy mask's uniforms are drawn once per layer, and the
    teacher and scratch trace sets are built once: rho only sets the copy
    threshold ``u < rho * b``, so each config gets the distilled set that it
    alone would draw, and its own ``meta``.
    """
    config = configs[0]
    e, l, k, d = config.num_experts, config.num_layers, config.top_k, config.num_domains
    n = d * config.n_per_domain
    bias = config.layer_bias if config.layer_bias is not None else (1.0,) * l
    seed = config.seed

    teacher_pref = _block_preferences((np.arange(d) * math.ceil(e / d)) % e, e, d)
    scratch_pref = _block_preferences(substream(seed, "scratch-prefs").integers(0, e, size=d), e, d)
    own_pref = _block_preferences(substream(seed, "distilled-prefs").integers(0, e, size=d), e, d)

    try:
        domain_of_query = np.repeat(np.arange(d), config.n_per_domain)
    except (ValueError, OverflowError):  # numpy refuses a size past its array limit
        raise ScenarioError(f"{n} queries are past numpy's array limit") from None
    query_ids = [f"q{i:06d}" for i in range(n)]
    domain_index = domain_of_query + 1

    # Every candidate's expert indices are arbitrary, so both students get
    # independent hidden relabelings. Relabeling only one would bias the pair:
    # the positional ground metric makes the matched distance sensitive to the
    # student-side labeling except in the relabeled-copy limit.
    sigma = tau = None
    if config.permute_labels:
        sigma = substream(seed, "hidden-permutation").permutation(e)
        tau = substream(seed, "scratch-relabel").permutation(e)

    # (preferences, draw substream) of the teacher, of the distilled model's
    # own draw (its fallback wherever it does not copy the teacher) and of scratch
    models = ((teacher_pref, substream(seed, "teacher-draw")), (own_pref, substream(seed, "distilled-draw")),
              (scratch_pref, substream(seed, "scratch-draw")))
    rng_copy = substream(seed, "copy-mask")
    uniform = np.full(e, 1.0 / e)
    # per layer: its bias, the three models' draws and the copy mask's uniforms
    layers = [
        (b, *(_sample_topk(rng, (1.0 - b) * uniform[None, :] + b * pref[domain_of_query], k)
              for pref, rng in models), rng_copy.random(n))
        for b in bias
    ]

    labels = tuple(f"d{j + 1}" for j in range(d))

    def trace_set(model_id, draws, relabel, meta=None):
        records = ((query_ids, domain_index, layer, sets if relabel is None else relabel[sets])
                   for layer, sets in enumerate(draws))
        return build_trace_set(model_id, l, (e,) * l, labels, records, meta)

    teacher = trace_set("teacher", (t for _, t, _, _, _ in layers), None)
    scratch = trace_set("scratch", (s for _, _, _, s, _ in layers), tau)
    hidden = tuple(sigma.tolist()) if sigma is not None else None
    for config in configs:
        meta = {"seed": seed, "config_digest": config.digest()}
        copies = (np.where((u < config.relatedness * b)[:, None], t, own) for b, t, own, _, u in layers)
        distilled = trace_set("distilled", copies, sigma, meta)
        yield Scenario(config, replace(teacher, meta=dict(meta)), distilled,
                       replace(scratch, meta=dict(meta)), hidden)


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Generate teacher, distilled, and scratch trace sets under one seed (a group of one config)."""
    (scenario,) = _generate_group([config])
    return scenario


def write_scenario(scenario: Scenario, out_dir: str | Path) -> dict:
    """Write the three trace files plus a ground-truth manifest.

    Candidate files are neutrally named (the scenario seed decides whether
    the distilled member becomes cand1 or cand2); the manifest records which
    one it is.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    distilled_first = bool(substream(scenario.config.seed, "pair-order").random() < 0.5)
    cand_map = {
        "cand1": scenario.distilled if distilled_first else scenario.scratch,
        "cand2": scenario.scratch if distilled_first else scenario.distilled,
    }
    write_traces(replace(scenario.teacher, model_id="teacher"), out / "teacher.jsonl")
    for name, traces in cand_map.items():
        write_traces(replace(traces, model_id=name), out / f"{name}.jsonl")
    manifest = {
        "format": "moesig-scenario",
        "version": 1,
        "teacher": "teacher.jsonl",
        "candidates": {"cand1": "cand1.jsonl", "cand2": "cand2.jsonl"},
        "distilled": "cand1" if distilled_first else "cand2",
        "hidden_permutation": scenario.hidden_permutation,
        "config": scenario.config.to_dict(),
        "meta": artifact_meta(scenario.config.seed, scenario.config.digest()),
    }
    write_json(manifest, out / "manifest.json")
    return manifest


def expand_grid(doc: dict) -> list[ScenarioConfig]:
    """The scenario configs of a sweep grid.

    A grid is either ``{"configs": [<scenario config>, ...]}`` or a ``base``
    scenario config crossed with a ``rho`` list of relatedness values and a
    ``seeds`` list (each defaults to the base's own value). A malformed grid,
    one with another field, or one that expands to no config raises
    ScenarioError.
    """
    listed = isinstance(doc, dict) and "configs" in doc
    check_fields(doc, ("configs",) if listed else ("base", "rho", "seeds"), ScenarioError, "sweep grid",
                 ("configs",) if listed else ("base",))
    if listed:
        if not isinstance(doc["configs"], list):
            raise ScenarioError("sweep grid 'configs' must be a list of scenario configs")
        configs = [ScenarioConfig.from_dict(c) for c in doc["configs"]]
    else:
        base = doc["base"]
        if not isinstance(base, dict):
            raise ScenarioError("sweep grid needs a 'base' scenario config object or a 'configs' list")
        rhos = doc.get("rho", [base.get("relatedness", 1.0)])
        seeds = doc.get("seeds", [base.get("seed", 0)])
        if not isinstance(rhos, list) or not isinstance(seeds, list):
            raise ScenarioError("sweep grid 'rho' and 'seeds' must be lists")
        configs = [ScenarioConfig.from_dict({**base, "relatedness": rho, "seed": seed})
                   for rho in rhos for seed in seeds]
    if not configs:
        raise ScenarioError("sweep grid expands to no scenario config")
    return configs


def _sweep_row(config: ScenarioConfig, distilled: SignatureDistance, scratch: SignatureDistance) -> dict:
    """The result row of one scenario from its two candidates' distances to the teacher."""
    verdict = pair_verdict(distilled, scratch)
    return {
        "rho": config.relatedness,
        "num_experts": config.num_experts,
        "num_layers": config.num_layers,
        "top_k": config.top_k,
        "num_domains": config.num_domains,
        "n_per_domain": config.n_per_domain,
        "seed": config.seed,
        "correct": int(verdict.predicted_index == 1 and not verdict.tie),
        "tie": verdict.tie,
        "margin": score(distilled) - score(scratch),
        "d_spec_distilled": distilled.d_spec,
        "d_spec_scratch": scratch.d_spec,
        "d_collab_distilled": distilled.d_collab,
        "d_collab_scratch": scratch.d_collab,
        "method": distilled.method,
    }


def _sweep_run(configs: list[ScenarioConfig], mode: str, layer_policy: LayerPolicy) -> list[dict]:
    """Generate and detect a run of scenarios; one result row per config.

    Adjacent configs that differ only in ``relatedness`` are generated as one
    group by :func:`_generate_group`, one scenario at a time, keeping only
    signature bundles: the group's teacher and scratch bundles once, then
    one distilled bundle per config. The scratch and every distilled
    candidate are matched in one :func:`signature_distances` call.
    """
    rows = []
    for _, group in groupby(configs, key=_draw_key):
        group = list(group)
        bundles = []
        for scenario in _generate_group(group):
            if not bundles:
                bundles += (signature_bundle(traces, layer_policy) for traces in (scenario.teacher, scenario.scratch))
            bundles.append(signature_bundle(scenario.distilled, layer_policy))
        scratch, *distilled = signature_distances(bundles[0], bundles[1:], mode=mode)
        rows += (_sweep_row(config, dist, scratch) for config, dist in zip(group, distilled))
    return rows


def sweep(
    configs: Sequence[ScenarioConfig],
    mode: str = "auto",
    layer_policy: LayerPolicy = "last",
) -> list[dict]:
    """Generate and detect each scenario; one result row per config.

    ``correct`` records whether the distilled member won its pair (a tie is
    not a win), and ``margin`` is the signed score gap (distilled minus
    scratch). Configs that differ only in ``relatedness`` are made adjacent
    (in order of first appearance) and the grid is cut into one contiguous
    run per CPU, each run on the process pool through :func:`_sweep_run`.
    Scenarios are seeded by their configs and every distance is the one-pair
    distance bit for bit, so the rows, which come back in config order, do
    not depend on the order or the CPU count.
    """
    if not configs:
        raise ScenarioError("sweep needs at least one scenario config")
    groups: dict[ScenarioConfig, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(_draw_key(config), []).append(i)
    order = [i for members in groups.values() for i in members]
    rows = dict(zip(order, parallel_map_runs(partial(_sweep_run, mode=mode, layer_policy=layer_policy),
                                             [configs[i] for i in order])))
    return [rows[i] for i in range(len(configs))]
