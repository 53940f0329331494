from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from moesig.errors import ShadowMoeError
from moesig.routing_trace import ingest_traces, write_traces
from moesig.signatures import signature_bundle
from moesig.shadow_moe import (
    QuerySet,
    ShadowMoeConfig,
    ShadowMoeModel,
    export_traces,
    gaussian_domain_queries,
    linear_oracle,
    load_balance_loss,
    mlp_oracle,
    read_queries,
    train_proxies,
    train_proxy,
    write_queries,
    _backward,
    _forward,
    _param_shapes,
    _param_views,
)
from moesig._rng import substream

from _oracles import query_traces
from helpers import mean_gate_usage, reference_backward, reference_forward, selection_margin

TINY = dict(
    num_layers=1,
    experts_per_layer=4,
    top_k=2,
    input_dim=3,
    output_dim=2,
    hidden_dim=6,
    seed=7,
    epochs=3,
)


class TestConfig:
    def test_scalar_fields_broadcast_per_layer(self):
        cfg = ShadowMoeConfig(**{**TINY, "num_layers": 2})
        assert cfg.experts_per_layer == (4, 4)
        assert cfg.top_k == (2, 2)

    def test_validation(self):
        with pytest.raises(ShadowMoeError):
            ShadowMoeConfig(**{**TINY, "top_k": 5})
        with pytest.raises(ShadowMoeError):
            ShadowMoeConfig(**{**TINY, "input_dim": 0})
        with pytest.raises(ShadowMoeError):
            ShadowMoeConfig(**{**TINY, "load_balance_weight": -1.0})
        with pytest.raises(ShadowMoeError):
            ShadowMoeConfig(**{**TINY, "experts_per_layer": (4, 4)})
        with pytest.raises(ShadowMoeError):
            ShadowMoeConfig.from_dict({**TINY, "mystery": 1})

    def test_default_balance_coefficient(self):
        assert ShadowMoeConfig(**TINY).load_balance_weight == 0.001

    def test_dict_roundtrip_and_digest(self):
        cfg = ShadowMoeConfig(**TINY)
        assert ShadowMoeConfig.from_dict(cfg.to_dict()) == cfg
        assert len(cfg.digest()) == 16


class TestForward:
    def test_k_equals_e_selects_everything(self):
        cfg = ShadowMoeConfig(**{**TINY, "experts_per_layer": 2, "top_k": 2})
        model = ShadowMoeModel.initialize(cfg)
        _, caches = model._run(np.zeros((1, 3)))
        assert sorted(caches[0].topk[0, 0]) == [0, 1]
        assert abs(caches[0].gates[0, 0].sum() - 1.0) <= 1e-9

    def test_equal_logits_tie_selects_expert_zero(self):
        cfg = ShadowMoeConfig(**{**TINY, "top_k": 1})
        model = ShadowMoeModel.initialize(cfg)
        dict(model.param_items())["router.0"][...] = 0.0  # all logits identical
        _, caches = model._run(np.ones((1, 3)))
        assert caches[0].topk[0, 0].tolist() == [0]

    def test_selected_gate_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        cfg = ShadowMoeConfig(**{**TINY, "num_layers": 2})
        model = ShadowMoeModel.initialize(cfg)
        x = rng.normal(size=(8, 3))
        _, caches = model._run(x)
        for cache in caches:
            assert np.allclose(cache.sel_weights[0].sum(axis=1), 1.0, atol=1e-12)
            assert np.allclose(cache.w_full[0].sum(axis=1), 1.0, atol=1e-12)

    def test_routing_deterministic_across_runs(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3))
        cfg = ShadowMoeConfig(**TINY)
        y1, c1 = ShadowMoeModel.initialize(cfg)._run(x)
        y2, c2 = ShadowMoeModel.initialize(cfg)._run(x)
        assert np.array_equal(y1, y2)
        assert all(
            np.array_equal(a.gates, b.gates) and np.array_equal(a.topk, b.topk) for a, b in zip(c1, c2)
        )

    def test_input_shape_errors(self):
        model = ShadowMoeModel.initialize(ShadowMoeConfig(**TINY))
        with pytest.raises(ShadowMoeError, match="shape"):
            model.predict(np.zeros((2, 5)))


class TestLoadBalance:
    def test_uniform_usage_is_zero(self):
        assert load_balance_loss([np.full(4, 0.25)]) == 0.0

    def test_skewed_single_layer(self):
        assert load_balance_loss([np.array([0.75, 0.25])]) == pytest.approx(0.25, abs=1e-15)

    def test_additive_over_layers(self):
        usage = np.array([0.75, 0.25])
        assert load_balance_loss([usage, usage.copy()]) == pytest.approx(0.5, abs=1e-15)

    def test_nonnegative_and_zero_iff_uniform(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            e = int(rng.integers(2, 8))
            usage = rng.random(e) + 1e-6
            usage /= usage.sum()
            value = load_balance_loss([usage])
            assert value >= 0.0
            if value <= 1e-12:
                assert np.allclose(usage, 1.0 / e, atol=1e-6)

    def test_training_loss_uses_the_same_penalty(self):
        # loss_and_grads adds exactly load_balance_loss of the batch's gate usage to the MSE
        rng = np.random.default_rng(5)
        cfg = ShadowMoeConfig(**{**TINY, "num_layers": 3, "load_balance_weight": 0.3})
        model = ShadowMoeModel.initialize(cfg)
        x = rng.normal(size=(9, 3))
        targets = rng.normal(size=(9, 2))
        total, _ = model.loss_and_grads(x, targets)
        mse = float(np.mean((model.predict(x) - targets) ** 2))
        penalty = load_balance_loss(mean_gate_usage(model, x))
        assert penalty > 0.0
        assert total == mse + cfg.load_balance_weight * penalty


def margin_safe_model_and_batch(seed, lam=0.01):
    """Random model/batch pair away from the top-k selection boundary."""
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        cfg = ShadowMoeConfig(
            num_layers=2,
            experts_per_layer=3,
            top_k=2,
            input_dim=3,
            output_dim=2,
            hidden_dim=4,
            seed=int(rng.integers(0, 2**31)),
            load_balance_weight=lam,
        )
        model = ShadowMoeModel.initialize(cfg)
        x = rng.normal(size=(4, 3))
        targets = rng.normal(size=(4, 2))
        if selection_margin(model, x) > 1e-3:
            return model, x, targets
    raise AssertionError("could not find a margin-safe configuration")


def finite_difference_check(model, x, targets, step=1e-6):
    _, grads = model.loss_and_grads(x, targets)
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
    return worst


class TestGradients:
    def test_analytic_matches_central_differences(self):
        for seed in range(5):
            model, x, targets = margin_safe_model_and_batch(seed)
            assert finite_difference_check(model, x, targets) < 1e-4


def frozen_fit(momentum):
    """The two-layer top-2 fit whose bits ``TestTraining.FROZEN`` pins."""
    cfg = ShadowMoeConfig(
        **{**TINY, "num_layers": 2, "load_balance_weight": 0.02, "learning_rate": 0.05},
        batch_size=8,
        momentum=momentum,
    )
    x = np.random.default_rng(8).normal(size=(20, 3))  # batches of 8, 8 and 4
    return train_proxy(mlp_oracle(11, 3, 2), x, cfg)


class TestKernels:
    """The stacked gemm kernels against their einsum reference, and each model slice against its own stack."""

    SHAPES = [(1, 1), (4, 2), (6, 3)]  # (experts, top_k) of both layers

    @staticmethod
    def run(forward, backward, buffer, x, targets, cfg):
        """Output, per-model loss, gradient buffer and every layer-cache array of one step."""
        params, grads = _param_views(buffer, cfg), np.zeros_like(buffer)
        y, caches = forward(params, x, cfg.top_k)
        loss = backward(params, x, targets, y, caches, cfg.load_balance_weight, _param_views(grads, cfg))
        return [y, loss, grads] + [getattr(cache, field.name) for cache in caches for field in fields(cache)]

    @staticmethod
    def random_stack(models, experts, top_k):
        """Config, random (M, P) parameters with nonzero biases, and inputs and targets of 7 rows."""
        cfg = ShadowMoeConfig(num_layers=2, experts_per_layer=experts, top_k=top_k, input_dim=3, output_dim=2,
                              hidden_dim=5, load_balance_weight=0.1)
        rng = np.random.default_rng(100 * experts + models)
        size = ShadowMoeModel._zeros(cfg).flat.size
        buffer = rng.normal(size=(models, size))
        return cfg, buffer, rng.normal(size=(models, 7, 3)), rng.normal(size=(models, 7, 2))

    @pytest.mark.parametrize("models", [1, 3])
    @pytest.mark.parametrize("experts, top_k", SHAPES)
    def test_kernels_match_the_einsum_reference(self, models, experts, top_k):
        cfg, buffer, x, targets = self.random_stack(models, experts, top_k)
        got = self.run(_forward, _backward, buffer, x, targets, cfg)
        want = self.run(reference_forward, reference_backward, buffer, x, targets, cfg)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("experts, top_k", SHAPES)
    def test_stack_slices_equal_stacks_of_one(self, experts, top_k):
        cfg, buffer, x, targets = self.random_stack(3, experts, top_k)
        stacked = self.run(_forward, _backward, buffer, x, targets, cfg)
        for m in range(3):
            alone = self.run(_forward, _backward, buffer[m : m + 1].copy(), x[m : m + 1].copy(),
                             targets[m : m + 1].copy(), cfg)
            for a, b in zip(stacked, alone, strict=True):
                assert np.array_equal(a[m], b[0])


class TestTraining:
    def test_self_distillation_zero_at_step_zero(self):
        cfg = ShadowMoeConfig(**{**TINY, "epochs": 1})
        base = ShadowMoeModel.initialize(cfg)  # same seed: proxy starts at oracle weights
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 3))
        _, losses = train_proxy(base.predict, x, cfg)
        assert losses[0] == 0.0

    def test_seed_determinism_bitwise(self):
        oracle = mlp_oracle(11, 3, 2)
        x = np.random.default_rng(4).normal(size=(30, 3))
        cfg = ShadowMoeConfig(**{**TINY, "epochs": 4, "momentum": 0.9})
        m1, l1 = train_proxy(oracle, x, cfg)
        m2, l2 = train_proxy(oracle, x, cfg)
        assert l1 == l2
        for (n1, a1), (n2, a2) in zip(m1.param_items(), m2.param_items()):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_linear_oracle_approaches_least_squares(self):
        rng = substream(0, "linear-test")
        x = rng.normal(size=(120, 5)) * 0.5
        oracle = linear_oracle(42, 5, 3, scale=0.6)
        targets = oracle(x)
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        lsq_floor = float(np.mean((design @ coef - targets) ** 2))
        assert lsq_floor < 1e-12  # the oracle is exactly affine
        cfg = ShadowMoeConfig(
            num_layers=1,
            experts_per_layer=1,
            top_k=1,
            input_dim=5,
            output_dim=3,
            hidden_dim=12,
            load_balance_weight=0.0,
            learning_rate=0.05,
            epochs=200,
            batch_size=32,
            momentum=0.9,
            seed=3,
        )
        _, losses = train_proxy(oracle, x, cfg)
        assert losses[-1] < lsq_floor + 1e-3

    def test_balance_penalty_reduces_max_usage_on_skewed_data(self):
        def max_share(model, x):
            return max(float(usage.max()) for usage in mean_gate_usage(model, x))

        wins = 0
        for seed in range(3):
            rng = substream(seed, "skew-test")
            x = 1.5 + 0.2 * rng.normal(size=(80, 4))  # one tight cluster invites collapse
            oracle = mlp_oracle(seed + 100, 4, 3)
            base = dict(
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
            plain, _ = train_proxy(oracle, x, ShadowMoeConfig(**base, load_balance_weight=0.0))
            balanced, _ = train_proxy(oracle, x, ShadowMoeConfig(**base, load_balance_weight=0.1))
            wins += max_share(balanced, x) < max_share(plain, x)
        assert wins == 3

    # sha256 of the saved model and the loss-curve reprs of a two-layer top-2 fit, per
    # momentum; pinned so that a rewrite of the step loop or the layer caches cannot
    # move a bit unnoticed
    FROZEN = {
        0.0: (
            "c35490f09d20dc51985abacd19ac373da2a6478b8d8b87c7e0a13500d1539665",
            ["0.17112453234030012", "0.15931849091136535", "0.1505615744595143", "0.14186619234451414"],
        ),
        0.9: (
            "b6c8150bacbbf7207553bb1ea941dc28fcac953c64c012986245392e5d213fe5",
            ["0.17112453234030012", "0.14712149814350323", "0.11111984588668573", "0.08085198761059802"],
        ),
    }

    @pytest.mark.parametrize("momentum", sorted(FROZEN))
    def test_frozen_bits(self, tmp_path, momentum):
        model, losses = frozen_fit(momentum)
        model.save(tmp_path / "m.bin")
        digest, curve = self.FROZEN[momentum]
        assert [repr(loss) for loss in losses] == curve
        assert hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest() == digest

    # OpenBLAS kernel families that give the same model bytes, each with the CPU features it needs
    KERNELS = {"Haswell": ("AVX2", "FMA3"), "SkylakeX": ("AVX512F",)}

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_frozen_bits_under_blas_kernel(self, tmp_path, kernel):
        # one gemm per (model, expert) slice gives these bits; a single (B, E*H) @ (E*H, H)
        # product for the experts' input gradient gave other bits under Haswell
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:  # numpy 1.x
            from numpy.core._multiarray_umath import __cpu_features__
        missing = [feature for feature in self.KERNELS[kernel] if not __cpu_features__.get(feature)]
        if missing:
            pytest.skip(f"the {kernel} kernel needs {missing}")
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        code = (
            "import sys\n"
            "from test_shadow_moe import frozen_fit\n"
            "for momentum in map(float, sys.argv[2:]):\n"
            "    frozen_fit(momentum)[0].save(f'{sys.argv[1]}/{momentum}.bin')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), *map(str, self.FROZEN)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": kernel},
        )
        assert proc.returncode == 0, proc.stderr
        for momentum, (digest, _) in self.FROZEN.items():
            assert hashlib.sha256((tmp_path / f"{momentum}.bin").read_bytes()).hexdigest() == digest

    def test_divergence_raises_with_diagnostics(self):
        oracle = mlp_oracle(5, 3, 2)
        x = np.random.default_rng(6).normal(size=(20, 3))
        cfg = ShadowMoeConfig(**{**TINY, "learning_rate": 1e4, "epochs": 30})
        with pytest.raises(ShadowMoeError, match="diverged"):
            train_proxy(oracle, x, cfg)

    def test_oracle_shape_mismatch(self):
        x = np.zeros((5, 3))
        cfg = ShadowMoeConfig(**TINY)
        with pytest.raises(ShadowMoeError, match="oracle returned shape"):
            train_proxy(lambda inp: np.zeros((5, 7)), x, cfg)


class TestStacking:
    """Fits trained as one stack give what each fit's own train_proxy gives, bit for bit."""

    SPLITS = [(5,), (2, 3), (1, 1, 1, 1, 1)]
    # the shapes of TestTraining::test_frozen_bits and TestExport::test_frozen_bits
    SHAPES = {
        "training": dict(num_layers=2, load_balance_weight=0.02, learning_rate=0.05, batch_size=8),
        "export": dict(num_layers=2, experts_per_layer=[6, 5], top_k=[2, 3], epochs=2, batch_size=8),
    }

    @staticmethod
    def fits(shape, momentum):
        # five seeds, oracles and input sets of 20 rows each, so batches of 8, 8 and 4
        cfg = {**TINY, **TestStacking.SHAPES[shape], "momentum": momentum}
        return [
            (mlp_oracle(11 + i, 3, 2), np.random.default_rng(8 + i).normal(size=(20, 3)),
             ShadowMoeConfig(**{**cfg, "seed": 7 + 3 * i}))
            for i in range(5)
        ]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize(
        "momentum, curve",
        [
            pytest.param(momentum, curve, id=f"{momentum}{'' if curve else '-no-curve'}")
            for curve in (True, False)
            for momentum in (0.0, 0.9)
        ],
    )
    def test_stack_splits_equal_single_fits(self, tmp_path, shape, momentum, curve):
        fits = self.fits(shape, momentum)

        def saved(model, name):
            model.save(tmp_path / name)
            return (tmp_path / name).read_bytes()

        alone = [train_proxy(*fit) for fit in fits]
        # without the curve only the first and last loss are taken, and the models do not move
        expected = [
            (saved(m, "alone.bin"), [repr(loss) for loss in (losses if curve else [losses[0], losses[-1]])])
            for m, losses in alone
        ]
        for split in self.SPLITS:
            results, start = [], 0
            for size in split:
                results += train_proxies(fits[start : start + size], curve=curve)
                start += size
            got = [(saved(m, "stacked.bin"), [repr(loss) for loss in losses]) for m, losses in results]
            assert got == expected, split

    @staticmethod
    def diverging_fits():
        """Fits sharing a config but the seed, each with its own train_proxy outcome."""
        cfg = [ShadowMoeConfig(**{**TINY, "learning_rate": 3.0, "epochs": 8, "seed": s}) for s in range(4)]
        x = [np.random.default_rng(seed).normal(size=(20, 3)) for seed in range(4)]
        oracle = mlp_oracle(5, 3, 2)
        return {
            "survivor": (ShadowMoeModel.initialize(cfg[3]).predict, x[3], cfg[3]),
            "late": (oracle, x[0] * 0.5, cfg[0]),
            "early": (oracle, x[0] * 3.0, cfg[0]),
            "activations": (oracle, x[1] * 3.0, cfg[1]),
            "batch": (lambda inp: np.full((len(inp), 2), 1e200), x[0], cfg[0]),
        }

    ORDERS = [
        ["survivor", "late", "early", "activations", "batch"],
        ["early", "late"],
        ["survivor", "activations", "late"],
        ["batch", "survivor"],
    ]

    @pytest.mark.parametrize(
        "order, curve",
        [
            pytest.param(order, curve, id=f"order{i}{'' if curve else '-no-curve'}")
            for i, order in enumerate(ORDERS)
            for curve in (True, False)
        ],
    )
    def test_first_diverging_fit_in_order_raises_its_own_error(self, order, curve):
        fits = self.diverging_fits()
        own = {}
        for name, fit in fits.items():
            try:
                train_proxies([fit], curve=curve)
                own[name] = None
            except ShadowMoeError as exc:
                own[name] = str(exc)
        # the fits fail in different ways and at different epochs
        assert own["survivor"] is None
        assert len({own[name] for name in fits if name != "survivor"}) == 4
        assert own["activations"] == "non-finite activations in forward pass"
        assert own["batch"] == "training diverged at epoch 0: batch loss inf (lr=3.0, lambda=0.001)"
        if curve:
            assert "epoch 7: loss" in own["late"] and "epoch 5: loss" in own["early"]
        else:
            # the final pass still catches "late", and the next epoch's batch-loss check "early"
            assert own["late"] == "training diverged at epoch 7: loss inf"
            assert own["early"].startswith("training diverged at epoch 6: batch loss inf")
        expected = next(own[name] for name in order if own[name] is not None)
        with pytest.raises(ShadowMoeError) as exc:
            train_proxies([fits[name] for name in order], curve=curve)
        assert str(exc.value) == expected

    def test_fits_must_share_config_and_input_shape(self):
        oracle, x = mlp_oracle(11, 3, 2), np.zeros((6, 3))
        cfg = ShadowMoeConfig(**TINY)
        with pytest.raises(ShadowMoeError, match="apart from seed"):
            train_proxies([(oracle, x, cfg), (oracle, x, ShadowMoeConfig(**{**TINY, "epochs": 4}))])
        with pytest.raises(ShadowMoeError, match="input shape"):
            train_proxies([(oracle, x, cfg), (oracle, np.zeros((7, 3)), cfg)])


class TestExport:
    def test_record_count_is_queries_times_layers(self, tmp_path):
        cfg = ShadowMoeConfig(**{**TINY, "num_layers": 3, "input_dim": 4})
        model = ShadowMoeModel.initialize(cfg)
        queries = gaussian_domain_queries(0, num_domains=2, n_per_domain=5, input_dim=4)
        traces = export_traces(model, queries)
        assert traces.num_queries == 10
        assert all(len(t.selections) == 3 for t in query_traces(traces))
        path = tmp_path / "t.jsonl"
        write_traces(traces, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 10 * 3  # header + one record per (query, layer)

    # sha256 of write_queries and of the written export after a two-epoch fit:
    # a change to the query draws, the fit or the export moves them
    FROZEN_QUERIES = "d15042275b3edb65b2894903e237f82b481f93f7e1c67c924c455236e24cf0cb"
    FROZEN_TRACES = "ddb26f827c1f361a72fcf9a619ecb3a8451217e859fae5ce2139b4883beb1103"

    def test_frozen_bits(self, tmp_path):
        queries = gaussian_domain_queries(
            5, num_domains=3, n_per_domain=7, input_dim=3, separation=2.5, spread=0.6
        )
        write_queries(queries, tmp_path / "q.jsonl")
        cfg = ShadowMoeConfig(
            **{**TINY, "num_layers": 2, "experts_per_layer": [6, 5], "top_k": [2, 3], "epochs": 2},
            batch_size=8,
            momentum=0.9,
        )
        model, _ = train_proxy(mlp_oracle(11, 3, 2), queries.inputs, cfg)
        write_traces(export_traces(model, queries), tmp_path / "t.jsonl")
        digests = [hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in ("q.jsonl", "t.jsonl")]
        assert digests == [self.FROZEN_QUERIES, self.FROZEN_TRACES]

    def test_export_roundtrip_preserves_signatures(self, tmp_path):
        cfg = ShadowMoeConfig(**{**TINY, "input_dim": 4})
        model = ShadowMoeModel.initialize(cfg)
        queries = gaussian_domain_queries(1, num_domains=3, n_per_domain=8, input_dim=4)
        traces = export_traces(model, queries)
        path = tmp_path / "t.jsonl"
        write_traces(traces, path)
        back = ingest_traces(path)
        assert back == traces
        sig_a = signature_bundle(traces)
        sig_b = signature_bundle(back)
        assert np.array_equal(sig_a.spec.matrix, sig_b.spec.matrix)
        assert np.array_equal(sig_a.collab.matrix, sig_b.collab.matrix)

    def test_export_byte_deterministic(self, tmp_path):
        cfg = ShadowMoeConfig(**{**TINY, "input_dim": 4})
        queries = gaussian_domain_queries(2, num_domains=2, n_per_domain=6, input_dim=4)
        paths = []
        for run in range(2):
            model = ShadowMoeModel.initialize(cfg)
            path = tmp_path / f"{run}.jsonl"
            write_traces(export_traces(model, queries), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestLayout:
    def test_param_items_are_views_of_flat_in_shape_order(self):
        cfg = ShadowMoeConfig(**{**TINY, "num_layers": 2, "experts_per_layer": [4, 3]})
        model = ShadowMoeModel.initialize(cfg)
        model.flat[...] = np.arange(model.flat.size)
        start = 0
        for (name, tensor), (want, shape) in zip(model.param_items(), _param_shapes(cfg), strict=True):
            assert name == want and tensor.shape == shape and np.shares_memory(tensor, model.flat)
            stop = start + tensor.size
            assert np.array_equal(tensor, np.arange(start, stop).reshape(shape))
            start = stop
        assert start == model.flat.size

    def test_in_place_edit_of_a_tensor_changes_predict(self):
        model = ShadowMoeModel.initialize(ShadowMoeConfig(**TINY))
        x = np.random.default_rng(3).normal(size=(5, 3))
        before = model.predict(x)
        dict(model.param_items())["b_out"][...] += 1.0
        assert np.allclose(model.predict(x), before + 1.0, rtol=0.0, atol=1e-12)

    def test_load_then_save_reproduces_the_file(self, tmp_path):
        x = np.random.default_rng(4).normal(size=(20, 3))
        model, _ = train_proxy(mlp_oracle(2, 3, 2), x, ShadowMoeConfig(**{**TINY, "num_layers": 2}))
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save(first)
        ShadowMoeModel.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()


class TestModelSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        oracle = mlp_oracle(9, 3, 2)
        x = np.random.default_rng(7).normal(size=(20, 3))
        model, _ = train_proxy(oracle, x, ShadowMoeConfig(**TINY))
        path = tmp_path / "m.bin"
        model.save(path)
        back = ShadowMoeModel.load(path)
        assert back.config == model.config
        for (n1, a1), (n2, a2) in zip(model.param_items(), back.param_items()):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_save_byte_deterministic(self, tmp_path):
        model = ShadowMoeModel.initialize(ShadowMoeConfig(**TINY))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ShadowMoeError, match="not a shadow-moe model"):
            ShadowMoeModel.load(path)


class TestQueries:
    def test_roundtrip(self, tmp_path):
        queries = gaussian_domain_queries(3, num_domains=2, n_per_domain=4, input_dim=3)
        path = tmp_path / "q.jsonl"
        write_queries(queries, path, meta={"seed": 3})
        back = read_queries(path)
        assert back.query_ids == queries.query_ids
        assert back.domains == queries.domains
        assert np.array_equal(back.inputs, queries.inputs)
        assert back.domain_labels() == ("d1", "d2")

    def test_validation(self):
        with pytest.raises(ShadowMoeError, match="equal length"):
            QuerySet(query_ids=("a",), inputs=np.zeros((2, 3)), domains=("d", "d"))
        with pytest.raises(ShadowMoeError, match="domain label"):
            QuerySet(query_ids=("a",), inputs=np.zeros((1, 3)), domains=("",))
        with pytest.raises(ShadowMoeError, match="unique"):
            QuerySet(query_ids=("a", "a"), inputs=np.zeros((2, 3)), domains=("d", "d"))

    @pytest.mark.parametrize(
        "record, match",
        [
            ('{"query_id": "q1", "domain": "d1", "x": [0.0, 1', "line 3: malformed JSON"),
            ('{"query_id": "q1", "domain": "d1", "x": [0.0, 1.0, 2.0], "note": ["\\udfff"]}',
             "q.jsonl: line 3: a lone surrogate escape is not UTF-8 text"),
            ('{"query_id": "q1", "x": [0.0, 1.0, 2.0]}', r"line 3: .*missing.*'domain'"),
            ('{"domain": "d1", "x": [0.0, 1.0, 2.0]}', r"line 3: .*missing.*'query_id'"),
            ('{"query_id": "q1", "domain": "d1"}', r"line 3: .*missing.*'x'"),
            ('{"query_id": "q1", "domain": "d1", "x": [0.0, 1.0]}', "line 3: x must be a list of 3"),
            ('{"query_id": "q1", "domain": "d1", "x": [0.0, NaN, 2.0]}', "line 3: x must be a list of 3 finite"),
            ('{"query_id": "q1", "domain": "d1", "x": [Infinity, 1.0, 2.0]}', "line 3: x must .* finite"),
            ('{"query_id": "q1", "domain": "d1", "x": [0.0, 1.0, -Infinity]}', "line 3: x must .* finite"),
            ('{"query_id": "q1", "domain": "d1", "x": [0.0, 1e999, 2.0]}', "line 3: x must .* finite"),
            pytest.param('{"query_id": "q1", "domain": "d1", "x": [0.0, 1' + "0" * 309 + ', 2.0]}',
                         "line 3: x must .* finite", id="int-past-float-range"),
            (b'{"query_id": "q1", "domain": "d\xff", "x": [0.0, 1.0, 2.0]}', "q.jsonl: line 3: not UTF-8 text"),
            (b'{"query_id": "q1", \xc3"domain": "d1", "x": [0.0, 1.0, 2.0]}', "q.jsonl: line 3: not UTF-8 text"),
            ('{"query_id": "q000000", "domain": "d1", "x": [0.0, 1.0, 2.0]}',
             "q.jsonl: line 3: duplicate query id 'q000000'"),
            ('{"query_id": "q1", "domain": "", "x": [0.0, 1.0, 2.0]}', "q.jsonl: line 3: every query needs a domain label"),
            # a callable maps the file's bytes instead
            pytest.param(lambda text: text.replace(b'"schema_version":1', b'"schema_version":7'),
                         r"q.jsonl: line 1: unsupported schema_version 7 \(supported: 1\)$", id="version-7"),
            pytest.param(lambda text: text.replace(b'"schema_version":1,', b""),
                         r"q.jsonl: line 1: unsupported schema_version None \(supported: 1\)$", id="no-version"),
        ],
    )
    def test_read_rejects_malformed_record(self, tmp_path, record, match):
        queries = gaussian_domain_queries(3, num_domains=1, n_per_domain=1, input_dim=3)
        path = tmp_path / "q.jsonl"
        write_queries(queries, path)
        if callable(record):
            path.write_bytes(record(path.read_bytes()))
        else:
            with path.open("ab") as fh:
                fh.write((record if isinstance(record, bytes) else record.encode("utf-8")) + b"\n")
        with pytest.raises(ShadowMoeError, match=match):
            read_queries(path)
