"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance and
runtime budget is pinned here; the suite is fully seeded and deterministic.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from moesig.detector import detect_pair
from moesig.signatures import (
    CollaborationMatrix,
    SpecializationProfile,
    compute_collaboration,
    compute_specialization,
    signature_bundle,
)
from moesig.shadow_moe import (
    ShadowMoeConfig,
    ShadowMoeModel,
    load_balance_loss,
    mlp_oracle,
    train_proxy,
)
from moesig.synthgen import ScenarioConfig, generate_scenario, sweep
from moesig.transport import (
    collab_distance,
    hungarian,
    spec_distance,
)
from moesig._rng import substream

from _oracles import brute_force_assignment, naive_collaboration, naive_specialization
from helpers import (
    mean_gate_usage,
    random_collab,
    random_profile,
    random_trace_set,
    selection_margin,
    summarize_sweep,
    wasserstein1_discrete,
)

DATA_DIR = Path(__file__).parent / "data"
REPO_ROOT = Path(__file__).resolve().parent.parent


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"{self.name}: runtime {elapsed:.1f}s exceeds budget {self.seconds:.0f}s"
        )
        suffix = f" | {detail}" if detail else ""
        print(f"[acceptance] {self.name}: PASS ({elapsed:.1f}s{suffix})")


def test_criterion_1_signature_oracle_equivalence():
    budget = Budget("criterion 1: signature-oracle equivalence (500 trace sets)", 10.0)
    rng = np.random.default_rng(101)
    for _ in range(500):
        traces = random_trace_set(rng, max_queries=50, max_experts=8, max_domains=4)
        labels, _, kappa, s_bar, counts = naive_specialization(traces, 0)
        prof = compute_specialization(traces, 0)
        assert prof.domain_labels == tuple(labels)
        assert np.array_equal(prof.matrix, s_bar)
        assert np.array_equal(prof.kappa_per_domain, kappa)
        assert np.array_equal(prof.counts, counts)
        b_bar, normalizer, zero_mass = naive_collaboration(traces, 0)
        cm = compute_collaboration(traces, 0)
        assert cm.zero_mass == zero_mass
        assert np.array_equal(cm.matrix, b_bar)
        assert cm.pair_normalizer == normalizer
    budget.done("integer-exact on 500 random trace sets")


def test_criterion_2_normalization_invariants():
    budget = Budget("criterion 2: normalization invariants (1000 cases)", 10.0)
    rng = np.random.default_rng(102)
    zero_mass_seen = 0
    for _ in range(1000):
        traces = random_trace_set(rng, max_queries=25, max_experts=8, max_domains=4)
        prof = compute_specialization(traces, 0)
        assert np.all(np.abs(prof.matrix.sum(axis=0) - 1.0) <= 1e-9)
        assert np.all((prof.matrix >= 0.0) & (prof.matrix <= 1.0))
        cm = compute_collaboration(traces, 0)
        assert np.all(np.diag(cm.matrix) == 0.0)
        assert np.array_equal(cm.matrix, cm.matrix.T)
        if cm.zero_mass:
            zero_mass_seen += 1
            assert np.all(cm.matrix == 0.0)
        else:
            assert abs(cm.matrix.sum() - 1.0) <= 1e-9
    budget.done(f"{zero_mass_seen} zero-mass cases exercised")


def test_criterion_3_w1_correctness():
    budget = Budget("criterion 3: W1 metric axioms and worked examples", 5.0)
    assert wasserstein1_discrete([0.3, 0.7], [0.3, 0.7], [0, 1]) == 0.0
    assert abs(wasserstein1_discrete([1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 3]) - 3.0) <= 1e-12
    assert abs(wasserstein1_discrete([0.5, 0.5, 0], [0, 0.5, 0.5], [0, 1, 2]) - 1.0) <= 1e-12
    rng = np.random.default_rng(103)
    for _ in range(1000):
        size = int(rng.integers(2, 17))
        positions = np.arange(size, dtype=float)
        p, q, r = (rng.random(size) + 1e-9 for _ in range(3))
        p, q, r = p / p.sum(), q / q.sum(), r / r.sum()
        d_pq = wasserstein1_discrete(p, q, positions)
        assert d_pq >= 0.0
        assert abs(d_pq - wasserstein1_discrete(q, p, positions)) <= 1e-9
        assert wasserstein1_discrete(p, p, positions) <= 1e-9
        d_pr = wasserstein1_discrete(p, r, positions)
        d_rq = wasserstein1_discrete(r, q, positions)
        assert d_pq <= d_pr + d_rq + 1e-9
    budget.done("1000 random triples, worked values exact to 1e-12")


def test_criterion_4_assignment_optimality():
    budget = Budget("criterion 4: Hungarian equals factorial brute force (500 matrices)", 30.0)
    rng = np.random.default_rng(104)
    for _ in range(500):
        size = int(rng.integers(2, 7))
        cost = rng.random((size, size)) * rng.uniform(0.5, 10.0)
        _, total = hungarian(cost)
        best, _ = brute_force_assignment(cost)
        assert total == best
    budget.done("exact equality on E in 2..6")


def test_criterion_5_permutation_invariance():
    budget = Budget("criterion 5: relabeled-copy distances and heuristic bound (200 cases)", 60.0)
    rng = np.random.default_rng(105)
    for _ in range(200):
        num_experts = int(rng.integers(2, 9))
        num_domains = int(rng.integers(1, 5))
        prof = random_profile(rng, num_experts, num_domains)
        gather = [int(i) for i in rng.permutation(num_experts)]
        relabeled_prof = SpecializationProfile(
            layer=0,
            matrix=prof.matrix[gather],
            kappa_per_domain=prof.kappa_per_domain,
            counts=prof.counts,
            domain_labels=prof.domain_labels,
        )
        exact = spec_distance(prof, relabeled_prof, mode="exact")
        assert exact.value < 1e-12
        heur = spec_distance(prof, relabeled_prof, mode="heuristic")
        assert heur.value >= exact.value - 1e-15

        cm = random_collab(rng, num_experts)
        relabeled_cm = CollaborationMatrix(
            layer=0,
            matrix=cm.matrix[np.ix_(gather, gather)],
            pair_normalizer=cm.pair_normalizer,
        )
        exact_c = collab_distance(cm, relabeled_cm, mode="exact")
        assert exact_c.value < 1e-12
        heur_c = collab_distance(cm, relabeled_cm, mode="heuristic")
        assert heur_c.value >= exact_c.value - 1e-15
    budget.done("exact < 1e-12, heuristic >= exact on every instance")


def test_criterion_6_detection_limit_properties():
    budget = Budget("criterion 6: synthetic detection limits (rho = 1, 0, 0.9)", 300.0)

    def accuracy(rho: float, num_seeds: int) -> float:
        configs = [
            ScenarioConfig(
                num_experts=8,
                num_layers=1,
                top_k=2,
                num_domains=9,
                n_per_domain=200,
                relatedness=rho,
                permute_labels=True,
                seed=seed,
            )
            for seed in range(num_seeds)
        ]
        return summarize_sweep(sweep(configs))[0]["accuracy"]

    acc_copy = accuracy(1.0, 20)
    assert acc_copy == 1.0, f"rho=1 accuracy {acc_copy} != 1.0"

    acc_strong = accuracy(0.9, 20)
    assert acc_strong >= 0.9, f"rho=0.9 accuracy {acc_strong} < 0.9"

    acc_null = accuracy(0.0, 200)
    half_width = 2.5758 * math.sqrt(0.25 / 200)  # 99% binomial band around 0.5
    assert abs(acc_null - 0.5) <= half_width, (
        f"rho=0 accuracy {acc_null} outside 0.5 +/- {half_width:.4f}"
    )
    budget.done(f"acc(1.0)={acc_copy}, acc(0.9)={acc_strong}, acc(0.0)={acc_null:.3f}")


def test_criterion_7_shadow_moe_training():
    budget = Budget("criterion 7: proxy training correctness", 120.0)
    rng = np.random.default_rng(107)

    # gradient check at 50 margin-safe random points
    checked = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 500, "could not find enough margin-safe points"
        cfg = ShadowMoeConfig(
            num_layers=2,
            experts_per_layer=3,
            top_k=2,
            input_dim=3,
            output_dim=2,
            hidden_dim=4,
            seed=int(rng.integers(0, 2**31)),
            load_balance_weight=0.01,
        )
        model = ShadowMoeModel.initialize(cfg)
        x = rng.normal(size=(3, 3))
        targets = rng.normal(size=(3, 2))
        if selection_margin(model, x) <= 1e-3:
            continue
        _, grads = model.loss_and_grads(x, targets)
        step = 1e-6
        worst = 0.0
        for name, arr in model.param_items():
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                original = arr[idx]
                arr[idx] = original + step
                up, _ = model.loss_and_grads(x, targets)
                arr[idx] = original - step
                down, _ = model.loss_and_grads(x, targets)
                arr[idx] = original
                fd[idx] = (up - down) / (2 * step)
                it.iternext()
            num = np.linalg.norm(grads[name] - fd)
            den = max(np.linalg.norm(grads[name]), np.linalg.norm(fd), 1e-12)
            worst = max(worst, num / den)
        assert worst < 1e-4, f"gradient relative error {worst:.2e} at point {checked}"
        checked += 1

    # balance-penalty worked examples, exact to 1e-12
    assert load_balance_loss([np.full(4, 0.25)]) == 0.0
    skew = np.array([0.75, 0.25])
    assert abs(load_balance_loss([skew]) - 0.25) <= 1e-12
    assert abs(load_balance_loss([skew, skew.copy()]) - 0.5) <= 1e-12

    # self-distillation: proxy initialized at the oracle's own weights
    tiny = ShadowMoeConfig(
        num_layers=1,
        experts_per_layer=4,
        top_k=2,
        input_dim=3,
        output_dim=2,
        hidden_dim=6,
        seed=7,
        epochs=1,
    )
    base = ShadowMoeModel.initialize(tiny)
    x = np.random.default_rng(7).normal(size=(20, 3))
    _, losses = train_proxy(base.predict, x, tiny)
    assert losses[0] == 0.0

    # balance penalty reduces max-expert usage share on skewed data, 5/5 seeds
    def max_share(model: ShadowMoeModel, inputs: np.ndarray) -> float:
        return max(float(u.max()) for u in mean_gate_usage(model, inputs))

    wins = 0
    for seed in range(5):
        local = substream(seed, "skew-test")
        skewed = 1.5 + 0.2 * local.normal(size=(80, 4))
        oracle = mlp_oracle(seed + 100, 4, 3)
        common = dict(
            num_layers=1,
            experts_per_layer=4,
            top_k=1,
            input_dim=4,
            output_dim=3,
            hidden_dim=8,
            learning_rate=0.05,
            epochs=40,
            batch_size=16,
            seed=seed,
        )
        plain, _ = train_proxy(oracle, skewed, ShadowMoeConfig(**common, load_balance_weight=0.0))
        balanced, _ = train_proxy(
            oracle, skewed, ShadowMoeConfig(**common, load_balance_weight=0.1)
        )
        wins += max_share(balanced, skewed) < max_share(plain, skewed)
    assert wins == 5
    budget.done("50 gradient points, exact penalty values, 5/5 balance wins")


def test_criterion_8_pipeline_golden_reproduction(tmp_path):
    budget = Budget("criterion 8: pinned-seed pipeline reproduces golden CSV", 180.0)
    config = REPO_ROOT / "configs" / "reference_pipeline.json"
    out_dir = tmp_path / "pipeline"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "moesig.cli",
            "--log-level",
            "WARNING",
            "pipeline",
            "--config",
            str(config),
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    golden = (DATA_DIR / "golden_report.csv").read_bytes()
    produced = (out_dir / "report.csv").read_bytes()
    assert produced == golden, "report.csv differs from the pinned golden file"
    report = json.loads((out_dir / "report.json").read_text())
    assert report["accuracy"] == 1.0
    assert all(row["spec_reduction_pct"] < 0 for row in report["rows"])
    budget.done("byte-identical report.csv, accuracy 1.0")


def test_criterion_9_layer_ablation_direction():
    budget = Budget("criterion 9: layer-signal ordering last >= median >= first", 300.0)
    correct = {"first": 0, "median": 0, "last": 0}
    for seed in range(10):
        cfg = ScenarioConfig(
            num_experts=8,
            num_layers=3,
            top_k=2,
            num_domains=4,
            n_per_domain=150,
            relatedness=1.0,
            permute_labels=True,
            seed=seed,
            layer_bias=(0.0, 0.5, 1.0),
        )
        scenario = generate_scenario(cfg)
        for policy in ("first", "median", "last"):
            verdict = detect_pair(
                signature_bundle(scenario.teacher, policy),
                signature_bundle(scenario.distilled, policy),
                signature_bundle(scenario.scratch, policy),
            )
            correct[policy] += verdict.predicted_index == 1
    acc = {policy: wins / 10 for policy, wins in correct.items()}
    assert acc["last"] >= acc["median"] >= acc["first"], f"ordering violated: {acc}"
    budget.done(f"accuracies {acc}")
