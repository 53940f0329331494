from __future__ import annotations

import filecmp
import hashlib

import pytest

from moesig import _pool
from moesig.detector import detect_pair, score
from moesig.errors import ScenarioError
from moesig.signatures import signature_bundle
from moesig.synthgen import (
    ScenarioConfig,
    _generate_group,
    expand_grid,
    generate_scenario,
    sweep,
    write_scenario,
)
from moesig.transport import signature_distance

from _oracles import query_traces
from helpers import summarize_sweep, traced_peak

BASE = dict(
    num_experts=8,
    num_layers=1,
    top_k=2,
    num_domains=4,
    n_per_domain=50,
    relatedness=1.0,
    seed=0,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig(**{**BASE, "relatedness": 1.5})
        with pytest.raises(ScenarioError):
            ScenarioConfig(**{**BASE, "top_k": 9})
        with pytest.raises(ScenarioError):
            ScenarioConfig(**{**BASE, "layer_bias": (0.5,) * 3})
        with pytest.raises(ScenarioError):
            ScenarioConfig(**{**BASE, "layer_bias": (2.0,)})

    def test_dict_roundtrip(self):
        cfg = ScenarioConfig(**{**BASE, "layer_bias": (1.0,)})
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


class TestGenerate:
    def test_shared_shape_and_queries(self):
        scenario = generate_scenario(ScenarioConfig(**BASE))
        for traces in (scenario.teacher, scenario.distilled, scenario.scratch):
            assert traces.experts_per_layer == (8,)
            assert traces.num_layers == 1
            assert traces.domains == ("d1", "d2", "d3", "d4")
            assert traces.num_queries == 200
        ids = [t.query_id for t in query_traces(scenario.teacher)]
        assert ids == [t.query_id for t in query_traces(scenario.distilled)]
        assert ids == [t.query_id for t in query_traces(scenario.scratch)]

    def test_rho_one_without_relabeling_copies_teacher(self):
        cfg = ScenarioConfig(**{**BASE, "permute_labels": False})
        scenario = generate_scenario(cfg)
        assert scenario.hidden_permutation is None
        for t_trace, d_trace in zip(query_traces(scenario.teacher), query_traces(scenario.distilled)):
            for t_sel, d_sel in zip(t_trace.selections, d_trace.selections):
                assert t_sel == d_sel

    def test_rho_one_with_relabeling_gives_zero_exact_distance(self):
        scenario = generate_scenario(ScenarioConfig(**BASE))
        sigma = scenario.hidden_permutation
        assert sigma is not None
        teacher_sig = signature_bundle(scenario.teacher)
        distilled_sig = signature_bundle(scenario.distilled)
        dist = signature_distance(teacher_sig, distilled_sig, mode="exact")
        assert dist.d_spec <= 1e-15
        assert dist.d_collab <= 1e-15
        # the matcher undoes the hidden relabeling
        assert [sigma[j] for j in dist.spec_permutation] == list(range(len(sigma)))
        verdict = detect_pair(teacher_sig, distilled_sig, signature_bundle(scenario.scratch))
        assert verdict.predicted_index == 1

    def test_seed_determinism_byte_identical_files(self, tmp_path):
        cfg = ScenarioConfig(**{**BASE, "n_per_domain": 20})
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_scenario(generate_scenario(cfg), dir_a)
        write_scenario(generate_scenario(cfg), dir_b)
        names = ["teacher.jsonl", "cand1.jsonl", "cand2.jsonl", "manifest.json"]
        match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
        assert match == names and not mismatch and not errors

    def test_different_seed_changes_draws(self):
        a = generate_scenario(ScenarioConfig(**{**BASE, "n_per_domain": 20}))
        b = generate_scenario(ScenarioConfig(**{**BASE, "n_per_domain": 20, "seed": 1}))
        assert a.scratch != b.scratch

    def test_layer_bias_zero_means_no_copying(self):
        cfg = ScenarioConfig(
            **{**BASE, "num_layers": 2, "permute_labels": False, "layer_bias": (0.0, 1.0)}
        )
        scenario = generate_scenario(cfg)
        copies_l0 = sum(
            t.selections[0] == d.selections[0]
            for t, d in zip(query_traces(scenario.teacher), query_traces(scenario.distilled))
        )
        copies_l1 = sum(
            t.selections[1] == d.selections[1]
            for t, d in zip(query_traces(scenario.teacher), query_traces(scenario.distilled))
        )
        assert copies_l1 == scenario.teacher.num_queries  # full copy at biased layer
        assert copies_l0 < scenario.teacher.num_queries  # chance-level agreement only

    def test_draws_do_not_hold_full_argsorts(self):
        # the teacher's (n, k) draws stay alive until its trace set is built; as
        # slices of their (n, E) int64 argsorts they peak at 71 MiB here, copied at 30 MiB
        cfg = ScenarioConfig(
            num_experts=128, num_layers=8, top_k=8, num_domains=9, n_per_domain=500, relatedness=0.5
        )
        _, _, peak = traced_peak(lambda: generate_scenario(cfg))
        assert peak < 48 * 2**20

    # sha256 of the write_scenario directory: a change to any draw, the weight
    # mix, the copy mask, a relabeling or the writer moves them, and so does a
    # tool version bump, because the manifest carries the version
    FROZEN = {
        "e8-d9": (
            {**BASE, "num_domains": 9, "n_per_domain": 20, "relatedness": 0.5, "seed": 3},
            "60e2bd24bf28ce3aff4ccbef505264500630b940be28bfdb10340a5109a16834",
        ),
        "layer-bias-k4": (
            {**BASE, "num_layers": 3, "top_k": 4, "n_per_domain": 15, "relatedness": 0.7,
             "seed": 5, "layer_bias": [0.0, 0.5, 1.0]},
            "6d60f718fd22b0b324628b8411ca03607a9d4e17fcbb8e81f65178d5943bfbb7",
        ),
        "no-relabel-k1": (
            {**BASE, "num_experts": 6, "num_layers": 2, "top_k": 1, "num_domains": 3,
             "n_per_domain": 10, "relatedness": 0.4, "seed": 9, "permute_labels": False},
            "49f2a343b5f5c97675993441c1b8eb4f79ee412aa075d3a144051a42bee78787",
        ),
    }

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_bits(self, tmp_path, name):
        config, digest = self.FROZEN[name]
        write_scenario(generate_scenario(ScenarioConfig.from_dict(config)), tmp_path)
        tree = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            tree.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        assert tree.hexdigest() == digest


class TestSweep:
    def test_row_count_and_single_config(self):
        rows = sweep([ScenarioConfig(**{**BASE, "n_per_domain": 30})])
        assert len(rows) == 1
        assert rows[0]["correct"] == 1
        assert rows[0]["rho"] == 1.0

    def test_accuracy_increases_with_rho(self):
        configs = [
            ScenarioConfig(**{**BASE, "num_domains": 4, "n_per_domain": 100,
                              "relatedness": rho, "seed": seed})
            for rho in (0.0, 0.5, 1.0)
            for seed in range(6)
        ]
        rows = sweep(configs)
        assert len(rows) == len(configs)
        summary = {s["rho"]: s for s in summarize_sweep(rows)}
        assert summary[1.0]["accuracy"] == 1.0
        assert summary[1.0]["accuracy"] > summary[0.0]["accuracy"]
        assert summary[1.0]["mean_margin"] > summary[0.0]["mean_margin"]

    @staticmethod
    def one_pair_row(config):
        """The row of one config from its own scenario and one detect_pair call."""
        scenario = generate_scenario(config)
        models = (scenario.teacher, scenario.distilled, scenario.scratch)
        verdict = detect_pair(*map(signature_bundle, models))
        s_d, s_s = verdict.distances
        return {"rho": config.relatedness, "seed": config.seed,
                "correct": int(verdict.predicted_index == 1 and not verdict.tie),
                "tie": verdict.tie, "margin": score(s_d) - score(s_s), "d_spec_distilled": s_d.d_spec,
                "d_spec_scratch": s_s.d_spec, "d_collab_distilled": s_d.d_collab,
                "d_collab_scratch": s_s.d_collab, "method": s_d.method}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rows_do_not_depend_on_grid_order_or_cpus(self, monkeypatch, cpus):
        # a rho-major grid gathers each seed's configs into one run; the rows must be those of
        # one scenario and one detect_pair call per config, bit for bit, in grid order
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
        base = {**BASE, "num_experts": 6, "num_domains": 3, "n_per_domain": 30}

        def config(rho, seed, **extra):
            return ScenarioConfig(**{**base, "relatedness": rho, "seed": seed, **extra})

        rho_major = [config(rho, seed) for rho in (0.2, 0.6, 1.0) for seed in (4, 5, 6)]
        grids = [
            rho_major,
            sorted(rho_major, key=lambda c: (c.seed, c.relatedness)),
            [config(0.6, 4), config(0.2, 5), config(0.6, 4)],  # a duplicated config
            [config(0.6, 4), config(0.6, 4, permute_labels=False), config(0.2, 4, permute_labels=False)],
            [config(0.2, 4), config(0.6, 4), config(1.0, 4)],  # one group, cut into two runs at 2 CPUs
        ]
        want = {c: self.one_pair_row(c) for configs in grids for c in configs}
        for configs in grids:
            rows = sweep(configs)
            assert len(rows) == len(configs)
            for c, row in zip(configs, rows):
                assert {key: row[key] for key in want[c]} == want[c]

    def test_tie_is_not_correct(self):
        # equal scores resolve the verdict to the distilled member, which must not count as a detection
        grid = {"base": {"num_experts": 4, "num_layers": 1, "top_k": 1, "num_domains": 2, "n_per_domain": 5},
                "rho": [0.5, 1.0]}
        tied, plain = sweep(expand_grid(grid))
        assert tied["tie"] and tied["margin"] == 0.0 and tied["correct"] == 0
        assert not plain["tie"] and plain["correct"] == 1

    @pytest.mark.parametrize("permute", [True, False])
    def test_group_generation_equals_per_config_generation(self, tmp_path, permute):
        # a sweep draws a relatedness group once; each of its scenarios, meta and files included,
        # must be the one its config generates alone
        configs = [ScenarioConfig(**{**BASE, "num_layers": 3, "n_per_domain": 20, "relatedness": rho,
                                     "seed": 3, "permute_labels": permute, "layer_bias": (0.0, 0.5, 1.0)})
                   for rho in (0.0, 0.35, 1.0, 0.35)]
        for i, (grouped, config) in enumerate(zip(_generate_group(configs), configs, strict=True)):
            alone = generate_scenario(config)
            assert grouped.config == config
            assert grouped.hidden_permutation == alone.hidden_permutation
            assert (grouped.hidden_permutation is None) == (not permute)
            for model in ("teacher", "distilled", "scratch"):
                assert getattr(grouped, model) == getattr(alone, model)
                assert getattr(grouped, model).meta == getattr(alone, model).meta
            write_scenario(grouped, tmp_path / f"group{i}")
            write_scenario(alone, tmp_path / f"alone{i}")
            names = sorted(path.name for path in (tmp_path / f"alone{i}").iterdir())
            match, mismatch, errors = filecmp.cmpfiles(tmp_path / f"group{i}", tmp_path / f"alone{i}",
                                                       names, shallow=False)
            assert match == names and not mismatch and not errors

    def test_teacher_and_scratch_do_not_depend_on_relatedness(self):
        # what lets a sweep score a seed's candidates against one teacher in one scan
        first, *others = (generate_scenario(ScenarioConfig(**{**BASE, "relatedness": rho, "seed": 3}))
                          for rho in (0.0, 0.35, 1.0))
        for scenario in others:
            assert scenario.teacher == first.teacher
            assert scenario.scratch == first.scratch
            assert scenario.distilled != first.distilled

    def test_empty_sweep_rejected(self):
        with pytest.raises(ScenarioError):
            sweep([])
