from __future__ import annotations

import numpy as np
import pytest

from moesig.detector import (
    BenchmarkRow,
    detect_pair,
    run_benchmark,
    score_candidate,
)
from moesig.errors import DetectorError, TransportError
from moesig.routing_trace import build_trace_set
from moesig.signatures import CollaborationMatrix, SignatureBundle, signature_bundle
from moesig.transport import signature_distance

from _oracles import naive_collab_distance, naive_spec_distance, query_traces
from helpers import random_collab, random_profile, random_trace_set


def random_bundle(rng, num_experts=4, num_domains=2):
    return SignatureBundle(
        spec=random_profile(rng, num_experts, num_domains),
        collab=random_collab(rng, num_experts),
    )


def zero_mass_bundle(rng, num_experts=4, num_domains=2):
    return SignatureBundle(
        spec=random_profile(rng, num_experts, num_domains),
        collab=CollaborationMatrix(0, np.zeros((num_experts, num_experts)), 0.0, zero_mass=True),
    )


class TestScoreCandidate:
    def test_identical_scores_zero(self):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng)
        score = score_candidate(bundle, bundle)
        assert score.score == 0.0
        assert score.d_spec == 0.0
        assert score.d_collab == 0.0

    def test_score_is_negated_mean_of_distances(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            teacher, student = random_bundle(rng), random_bundle(rng)
            score = score_candidate(teacher, student)
            dist = signature_distance(teacher, student)
            assert score.score == -0.5 * (dist.d_spec + dist.d_collab)
            assert score.d_spec == dist.d_spec
            assert score.d_collab == dist.d_collab

    def test_score_against_factorial_oracle(self):
        rng = np.random.default_rng(2)
        teacher, student = random_bundle(rng), random_bundle(rng)
        score = score_candidate(teacher, student, mode="exact")
        d_spec, _ = naive_spec_distance(teacher.spec.matrix, student.spec.matrix)
        d_collab, _ = naive_collab_distance(teacher.collab.matrix, student.collab.matrix)
        assert score.score == pytest.approx(-0.5 * (d_spec + d_collab), abs=1e-12)

    def test_zero_mass_falls_back_to_spec_only(self):
        rng = np.random.default_rng(3)
        teacher = zero_mass_bundle(rng)
        student = zero_mass_bundle(rng)
        score = score_candidate(teacher, student)
        assert score.d_collab is None
        assert score.score == -score.d_spec


class TestDetectPair:
    def test_copy_beats_random(self):
        rng = np.random.default_rng(4)
        teacher = random_bundle(rng, num_experts=5)
        other = random_bundle(rng, num_experts=5)
        verdict = detect_pair(teacher, teacher, other)
        assert verdict.predicted_index == 1
        assert verdict.margin > 0
        assert not verdict.tie
        assert verdict.chosen.candidate_id == "cand1"

    def test_identical_candidates_tie(self):
        rng = np.random.default_rng(5)
        teacher = random_bundle(rng)
        cand = random_bundle(rng)
        verdict = detect_pair(teacher, cand, cand)
        assert verdict.tie
        assert verdict.predicted_index == 1
        assert verdict.margin == 0.0

    def test_swap_flips_index_keeps_margin(self):
        rng = np.random.default_rng(6)
        teacher = random_bundle(rng)
        c1, c2 = random_bundle(rng), random_bundle(rng)
        v12 = detect_pair(teacher, c1, c2)
        v21 = detect_pair(teacher, c2, c1)
        assert not v12.tie
        assert v12.predicted_index == 3 - v21.predicted_index
        assert v12.margin == v21.margin

    def test_argmax_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(7)
        teacher = random_bundle(rng)
        c1, c2 = random_bundle(rng), random_bundle(rng)
        verdict = detect_pair(teacher, c1, c2)
        s1, s2 = (s.score for s in verdict.scores)
        for scale, shift in [(1.0, 0.0), (2.5, 1.0), (0.1, -3.0), (100.0, 42.0)]:
            t1, t2 = scale * s1 + shift, scale * s2 + shift
            assert (1 if t1 >= t2 else 2) == verdict.predicted_index
            assert np.sign(t1 - t2) == np.sign(s1 - s2)

    def test_self_detection_on_traces(self):
        rng = np.random.default_rng(8)
        traces = random_trace_set(rng, max_queries=40, max_experts=6)
        other = random_trace_set(rng, max_queries=40, max_experts=6)
        # regenerate until the random candidate shares the trace-set shape
        while (
            other.experts_per_layer != traces.experts_per_layer
            or other.domains != traces.domains
            or {t.domain for t in query_traces(other)} != {t.domain for t in query_traces(traces)}
        ):
            other = random_trace_set(rng, max_queries=40, max_experts=6)
        sig = signature_bundle(traces)
        verdict = detect_pair(sig, sig, signature_bundle(other))
        assert verdict.predicted_index == 1
        assert verdict.margin > 0


def constant_pair_traces(selection, num_experts=4, domains=("d1", "d2"), n=6, model_id="m"):
    records = []
    for q in range(n):
        dom = q % len(domains) + 1
        records.append((f"q{q}", dom, 0, selection))
    return build_trace_set(model_id, 1, (num_experts,), domains, records)


class TestRunBenchmark:
    def test_accuracy_counts_correct_domains(self):
        rng = np.random.default_rng(9)
        num_experts = 6
        records = []
        for q in range(40):
            sel = tuple(int(i) for i in rng.choice(num_experts, size=2, replace=False))
            records.append((f"q{q}", q % 2 + 1, 0, sel))
        teacher = build_trace_set("t", 1, (num_experts,), ("d1", "d2"), records)

        def noisy_copy(base, flips, model_id):
            out = []
            local = np.random.default_rng(flips)
            for trace in query_traces(base):
                sel = trace.selections[0]
                if local.random() < 0.3:
                    sel = tuple(
                        int(i) for i in local.choice(num_experts, size=len(sel), replace=False)
                    )
                out.append((trace.query_id, trace.domain, 0, sel))
            return build_trace_set(model_id, 1, (num_experts,), ("d1", "d2"), out)

        def scrambled(seed, model_id):
            local = np.random.default_rng(seed)
            out = [
                (
                    t.query_id,
                    t.domain,
                    0,
                    tuple(int(i) for i in local.choice(num_experts, size=2, replace=False)),
                )
                for t in query_traces(teacher)
            ]
            return build_trace_set(model_id, 1, (num_experts,), ("d1", "d2"), out)

        pairs = {
            "a": (noisy_copy(teacher, 1, "a-kd"), scrambled(11, "a-scratch")),
            "b": (noisy_copy(teacher, 2, "b-kd"), scrambled(12, "b-scratch")),
            "c": (noisy_copy(teacher, 3, "c-kd"), scrambled(13, "c-scratch")),
            "d": (scrambled(14, "d-kd"), noisy_copy(teacher, 4, "d-scratch")),  # mislabeled pair
        }
        report = run_benchmark(teacher, pairs)
        verdicts = {row.domain: row.verdict for row in report.rows}
        assert verdicts["a"] == verdicts["b"] == verdicts["c"] == "kd"
        assert verdicts["d"] == "scratch"
        assert report.accuracy == 0.75
        assert [row.domain for row in report.rows] == ["a", "b", "c", "d"]
        correct_rows = [row for row in report.rows if row.verdict == "kd"]
        assert all(row.margin > 0 for row in correct_rows)

    def test_zero_mass_pair_asymmetry_errors(self):
        teacher = constant_pair_traces((0, 1), model_id="t")
        kd = constant_pair_traces((0,), model_id="kd")  # k=1: no co-activation
        scratch = constant_pair_traces((2, 3), model_id="s")
        with pytest.raises(TransportError, match="zero-mass"):
            run_benchmark(teacher, {"a": (kd, scratch)})

    def test_empty_benchmark_errors(self):
        teacher = constant_pair_traces((0, 1))
        with pytest.raises(DetectorError, match="at least one"):
            run_benchmark(teacher, {})


class TestBenchmarkReport:
    def test_adding_correct_domain_never_decreases_accuracy(self):
        from moesig.detector import BenchmarkReport

        correct = BenchmarkRow("x", 0.1, 0.9, 0.1, 0.9, 0.4, "kd", False)
        wrong = BenchmarkRow("y", 0.9, 0.1, 0.9, 0.1, -0.4, "scratch", False)
        rng = np.random.default_rng(20)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            rows = tuple(correct if rng.random() < 0.5 else wrong for _ in range(n))
            base = BenchmarkReport(rows=rows, layer_policy="last", mode="auto")
            grown = BenchmarkReport(rows=rows + (correct,), layer_policy="last", mode="auto")
            assert grown.accuracy >= base.accuracy


class TestBenchmarkRow:
    def test_reduction_percent_convention(self):
        row = BenchmarkRow(
            domain="d",
            d_spec_kd=0.8,
            d_spec_scratch=1.0,
            d_collab_kd=0.8,
            d_collab_scratch=1.0,
            margin=0.2,
            verdict="kd",
            tie=False,
        )
        assert row.spec_reduction_pct == pytest.approx(-20.0)
        assert row.collab_reduction_pct == pytest.approx(-20.0)
        assert row.correct

    def test_reduction_undefined_when_scratch_zero(self):
        row = BenchmarkRow("d", 0.0, 0.0, None, None, 0.0, "kd", True)
        assert row.spec_reduction_pct is None
        assert row.collab_reduction_pct is None
