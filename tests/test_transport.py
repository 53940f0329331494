from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from moesig import transport
from moesig.errors import SignatureError, TransportError
from moesig.signatures import CollaborationMatrix, SignatureBundle, signature_bundle
from moesig.synthgen import ScenarioConfig, generate_scenario
from moesig.transport import (
    EXACT_ENUM_CAP,
    MASS_GUARD,
    _all_permutations,
    _collab_objectives,
    _dense_off_diagonal,
    _ordered_sum,
    _permutation_chunks,
    _scan,
    _spec_candidates,
    _spec_objectives,
    collab_distance,
    heuristic_cost_matrix,
    hungarian,
    signature_distance,
    spec_distance,
)

from _oracles import (
    brute_force_assignment,
    naive_collab_distance,
    naive_spec_distance,
    naive_w1,
)
from helpers import random_collab, random_profile, wasserstein1_discrete


def normalized(rng, size):
    v = rng.random(size) + 1e-9
    return v / v.sum()


class TestWasserstein:
    def test_identical_is_zero(self):
        p = [0.2, 0.3, 0.5]
        assert wasserstein1_discrete(p, p, [0, 1, 2]) == 0.0

    def test_point_mass_transport(self):
        assert abs(wasserstein1_discrete([1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 3]) - 3.0) <= 1e-12

    def test_half_shift(self):
        got = wasserstein1_discrete([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0, 1, 2])
        assert abs(got - 1.0) <= 1e-12

    def test_matches_naive_and_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            size = int(rng.integers(2, 16))
            p, q = normalized(rng, size), normalized(rng, size)
            positions = np.sort(rng.random(size) * 10)
            positions += np.arange(size) * 1e-3  # ensure strictly increasing
            got = wasserstein1_discrete(p, q, positions)
            assert abs(got - naive_w1(p, q, positions)) <= 1e-12
            want = scipy.stats.wasserstein_distance(positions, positions, p, q)
            assert abs(got - want) <= 1e-9

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            size = int(rng.integers(2, 16))
            positions = np.arange(size, dtype=float)
            p, q, r = (normalized(rng, size) for _ in range(3))
            d_pq = wasserstein1_discrete(p, q, positions)
            d_qp = wasserstein1_discrete(q, p, positions)
            d_pr = wasserstein1_discrete(p, r, positions)
            d_rq = wasserstein1_discrete(r, q, positions)
            assert d_pq >= 0.0
            assert abs(d_pq - d_qp) <= 1e-12
            assert d_pq <= d_pr + d_rq + 1e-9
            assert wasserstein1_discrete(p, p, positions) <= 1e-9

    def test_errors(self):
        with pytest.raises(TransportError, match="length mismatch"):
            wasserstein1_discrete([1.0], [0.5, 0.5], [0, 1])
        with pytest.raises(TransportError, match="not 1"):
            wasserstein1_discrete([0.5, 0.2], [0.5, 0.5], [0, 1])
        with pytest.raises(TransportError, match="increasing"):
            wasserstein1_discrete([0.5, 0.5], [0.5, 0.5], [1, 0])
        with pytest.raises(TransportError, match="finite"):
            wasserstein1_discrete([np.nan, 1.0], [0.5, 0.5], [0, 1])


class TestHungarian:
    def test_zero_diagonal_identity(self):
        cost = np.ones((3, 3)) - np.eye(3)
        perm, total = hungarian(cost)
        assert perm == (0, 1, 2)
        assert total == 0.0

    def test_two_by_two(self):
        perm, total = hungarian(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert perm == (0, 1)
        assert total == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            size = int(rng.integers(2, 7))
            cost = rng.random((size, size))
            perm, total = hungarian(cost)
            best, _ = brute_force_assignment(cost)
            assert total == best

    @staticmethod
    def assert_matches_scipy(cost):
        from scipy.optimize import linear_sum_assignment  # test-only oracle

        rows, cols = linear_sum_assignment(cost)
        perm, total = hungarian(cost)
        assert perm == tuple(cols)
        assert total == float(cost[rows, cols].sum())

    @settings(max_examples=400, deadline=None)
    @given(
        size=st.integers(1, 40),
        kind=st.sampled_from(["random", "ties", "constant", "rounded"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_assignment(self, size, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            cost = rng.random((size, size)) * 10.0 ** rng.integers(-3, 4)
        elif kind == "ties":
            cost = rng.integers(0, 3, (size, size)).astype(float)
        elif kind == "constant":
            cost = np.full((size, size), rng.random())
        else:
            cost = np.round(rng.random((size, size)), 1)
        self.assert_matches_scipy(cost)

    def test_matches_scipy_on_scenario_costs(self):
        config = ScenarioConfig(num_experts=64, num_layers=2, top_k=8, num_domains=9,
                                n_per_domain=100, relatedness=0.5, seed=20250809)
        scenario = generate_scenario(config)
        for policy in ("first", "last"):
            teacher = signature_bundle(scenario.teacher, policy)
            for cand in (scenario.distilled, scenario.scratch):
                student = signature_bundle(cand, policy)
                self.assert_matches_scipy(heuristic_cost_matrix("spec", teacher.spec, student.spec))
                self.assert_matches_scipy(heuristic_cost_matrix("collab", teacher.collab, student.collab))

    def test_errors(self):
        with pytest.raises(TransportError, match="square"):
            hungarian(np.zeros((2, 3)))
        with pytest.raises(TransportError, match="finite"):
            hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("size", range(1, 9))
def test_permutation_table_is_itertools_order(size):
    want = np.array(list(itertools.permutations(range(size))), dtype=np.intp)
    got = _all_permutations(size)
    assert got.dtype == np.intp and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_permutation_chunks_at_nine_are_itertools_order():
    want = itertools.permutations(range(9))
    for chunk in _permutation_chunks(9, 5000):
        assert chunk.dtype == np.intp and 0 < len(chunk) <= 5000
        assert np.array_equal(chunk, list(itertools.islice(want, len(chunk))))
    assert next(want, None) is None


def test_permutation_chunks_at_ten_are_itertools_order():
    # one chunk of 8! rows per two-value prefix; compare the first three and the last
    prefixes = list(itertools.permutations(range(10), 2))
    count = 0
    for index, chunk in enumerate(_permutation_chunks(10, 40320)):
        count += 1
        if index in (0, 1, 2, len(prefixes) - 1):
            prefix = prefixes[index]
            rest = [v for v in range(10) if v not in prefix]
            want = np.array([prefix + tail for tail in itertools.permutations(rest)], dtype=np.intp)
            assert chunk.dtype == np.intp and np.array_equal(chunk, want)
    assert count == len(prefixes)


class TestSpecDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        prof = random_profile(rng, 5, 3)
        res = spec_distance(prof, prof, mode="exact")
        assert res.value == 0.0
        assert res.permutation == (0, 1, 2, 3, 4)

    def test_permuted_copy_recovered(self):
        rng = np.random.default_rng(4)
        teacher = random_profile(rng, 6, 2)
        gather = tuple(int(i) for i in rng.permutation(6))
        student = type(teacher)(
            layer=0,
            matrix=teacher.matrix[list(gather)],
            kappa_per_domain=teacher.kappa_per_domain,
            counts=teacher.counts,
            domain_labels=teacher.domain_labels,
        )
        res = spec_distance(teacher, student, mode="exact")
        assert res.value <= 1e-15
        assert res.permutation == gather

    def test_permuted_copy_recovered_at_nine_experts(self):
        # above the auto cutoff exact mode runs only on request; the subset DP scans no permutations
        rng = np.random.default_rng(41)
        teacher = random_profile(rng, 9, 3)
        gather = tuple(int(i) for i in rng.permutation(9))
        student = type(teacher)(
            layer=0,
            matrix=teacher.matrix[list(gather)],
            kappa_per_domain=teacher.kappa_per_domain,
            counts=teacher.counts,
            domain_labels=teacher.domain_labels,
        )
        res = spec_distance(teacher, student, mode="exact")
        assert res.method == "exact-brute-force"
        assert res.value <= 1e-15
        assert res.permutation == gather

    def test_exact_matches_factorial_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            teacher = random_profile(rng, 4, 2)
            student = random_profile(rng, 4, 2)
            res = spec_distance(teacher, student, mode="exact")
            want, want_perm = naive_spec_distance(teacher.matrix, student.matrix)
            assert abs(res.value - want) <= 1e-12
            assert res.permutation == want_perm

    def test_heuristic_upper_bounds_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            num_experts = int(rng.integers(2, 8))
            teacher = random_profile(rng, num_experts, 3)
            student = random_profile(rng, num_experts, 3)
            exact = spec_distance(teacher, student, mode="exact").value
            heur = spec_distance(teacher, student, mode="heuristic")
            assert heur.method == "hungarian-heuristic"
            assert heur.value >= exact - 1e-12

    def test_domain_alignment_and_mismatch(self):
        rng = np.random.default_rng(7)
        teacher = random_profile(rng, 4, 2)
        swapped = type(teacher)(
            layer=0,
            matrix=teacher.matrix[:, [1, 0]],
            kappa_per_domain=teacher.kappa_per_domain[[1, 0]],
            counts=teacher.counts[[1, 0]],
            domain_labels=(teacher.domain_labels[1], teacher.domain_labels[0]),
        )
        res = spec_distance(teacher, swapped, mode="exact")
        assert res.value == 0.0  # same profile, columns reordered by label
        other = random_profile(rng, 4, 2)
        renamed = type(other)(
            layer=0,
            matrix=other.matrix,
            kappa_per_domain=other.kappa_per_domain,
            counts=other.counts,
            domain_labels=("x1", "x2"),
        )
        with pytest.raises(TransportError, match="domain sets differ"):
            spec_distance(teacher, renamed)

    def test_mode_resolution(self):
        rng = np.random.default_rng(8)
        small = random_profile(rng, 4, 2)
        assert spec_distance(small, small, mode="auto").method == "exact-brute-force"
        big = random_profile(rng, 9, 2)
        assert spec_distance(big, big, mode="auto").method == "hungarian-heuristic"
        huge = random_profile(rng, 11, 2)
        with pytest.raises(TransportError, match="capped"):
            spec_distance(huge, huge, mode="exact")
        with pytest.raises(TransportError, match="unknown mode"):
            spec_distance(small, small, mode="fastest")

    def test_lexicographic_tie_break(self):
        # all columns uniform: every permutation is optimal, identity is lex-smallest
        matrix = np.full((4, 2), 0.25)
        prof = random_profile(np.random.default_rng(9), 4, 2)
        uniform = type(prof)(
            layer=0,
            matrix=matrix,
            kappa_per_domain=np.full(2, 2.0),
            counts=np.full(2, 5, dtype=np.int64),
            domain_labels=("d1", "d2"),
        )
        res = spec_distance(uniform, uniform, mode="exact")
        assert res.permutation == (0, 1, 2, 3)

    @staticmethod
    def _assert_dp_equals_scan(teacher, student):
        [(want_value, want_perm)] = _scan(_spec_objectives(teacher, [student]), teacher)
        [got] = transport._match("spec", teacher, [student], "exact")
        assert got.value == want_value
        assert got.permutation == want_perm

    def test_subset_dp_matches_scan(self):
        # the DP's value (==) and permutation are the lexicographic scan's, ties included
        rng = np.random.default_rng(43)
        for case in range(64):
            num_experts, num_domains = case % 8 + 1, int(rng.integers(1, 10))
            teacher = random_profile(rng, num_experts, num_domains).matrix
            student = random_profile(rng, num_experts, num_domains).matrix
            if case % 3 == 1:  # quantised: many equal entries and tied permutations
                teacher = np.round(teacher * 4) + 1.0
                teacher /= teacher.sum(axis=0)
                student = np.round(student * 4) + 1.0
                student /= student.sum(axis=0)
            elif case % 3 == 2:  # a relabelled copy
                student = teacher[rng.permutation(num_experts)]
            else:
                assert _spec_candidates(teacher, student) is not None
            self._assert_dp_equals_scan(teacher, student)
        for case in range(32):  # bitwise-identical teacher rows: repeated rows or all-zero rows
            num_experts, num_domains = case % 7 + 2, int(rng.integers(1, 10))
            teacher = random_profile(rng, num_experts, num_domains).matrix.copy()
            student = random_profile(rng, num_experts, num_domains).matrix
            if case % 2:
                teacher = teacher[rng.integers(0, num_experts, size=num_experts)]
            else:
                teacher[rng.permutation(num_experts)[: num_experts // 2 + 1]] = 0.0
                teacher[rng.integers(0, num_experts)] += 0.5  # at least one nonzero row
            teacher /= teacher.sum(axis=0)
            if case % 4 < 2:
                student = teacher[rng.permutation(num_experts)]
            assert _spec_candidates(teacher, student) is not None
            self._assert_dp_equals_scan(teacher, student)

    def test_zero_rows_stay_in_the_dp(self):
        # 7 all-zero teacher rows of 9 give 7! tied orders; only the one in index order is kept
        rng = np.random.default_rng(44)
        teacher, student = (random_profile(rng, 9, 4).matrix.copy() for _ in range(2))
        for matrix in (teacher, student):
            matrix[rng.permutation(9)[:7]] = 0.0
            matrix /= matrix.sum(axis=0)
        assert _spec_candidates(teacher, student) is not None
        self._assert_dp_equals_scan(teacher, student)

    def test_uniform_profile_is_one_candidate(self):
        # all rows identical: every permutation is optimal, and the identity is lex-first
        matrix = np.full((8, 3), 1.0 / 8)
        assert _spec_candidates(matrix, matrix).tolist() == [list(range(8))]
        [res] = transport._match("spec", matrix, [matrix], "exact")
        assert res.value == 0.0
        assert res.permutation == tuple(range(8))

    def test_degenerate_ties_fall_back_to_scan(self):
        # rows that differ only past 1e-9 tie within the DP's slack: too many to hand on
        matrix = np.full((8, 3), 1.0 / 8) + np.arange(8)[:, None] * 1e-14
        matrix /= matrix.sum(axis=0)
        assert _spec_candidates(matrix, matrix) is None
        [res] = transport._match("spec", matrix, [matrix], "exact")
        assert res.value == 0.0
        assert res.permutation == tuple(range(8))

    def test_relabel_invariance_of_value(self):
        rng = np.random.default_rng(10)
        teacher = random_profile(rng, 5, 2)
        student = random_profile(rng, 5, 2)
        base = spec_distance(teacher, student, mode="exact").value
        gather = list(rng.permutation(5))
        relabeled = type(teacher)(
            layer=0,
            matrix=teacher.matrix[gather],
            kappa_per_domain=teacher.kappa_per_domain,
            counts=teacher.counts,
            domain_labels=teacher.domain_labels,
        )
        again = spec_distance(relabeled, student, mode="exact").value
        assert abs(base - again) <= 1e-12

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("side", ["teacher", "student"])
    @pytest.mark.parametrize("edit", ["nan", "inf", "negative"])
    def test_bad_profile_entry_rejected(self, edit, side, mode):
        # NaN would pass a column-sum check; the sum of the negative edit stays 1
        rng = np.random.default_rng(19)
        profiles = {"teacher": random_profile(rng, 5, 2), "student": random_profile(rng, 5, 2)}
        matrix = profiles[side].matrix.copy()
        if edit == "negative":
            matrix[1, 1] += matrix[0, 1] + 0.5
            matrix[0, 1] = -0.5
        else:
            matrix[0, 1] = np.nan if edit == "nan" else np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SignatureError, match="specialization matrix has a negative or non-finite entry"):
                replace(profiles[side], matrix=matrix)
        assert_stays_checked(profiles["teacher"], profiles["student"], side, spec_distance, mode)

    def test_overflowing_column_sum_rejected_without_warning(self):
        rng = np.random.default_rng(20)
        matrix = random_profile(rng, 4, 2).matrix.copy()
        matrix[:, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SignatureError,
                               match=r"specialization matrix columns are not normalized: sums \[inf"):
                replace(random_profile(rng, 4, 2), matrix=matrix)


def assert_stays_checked(teacher, student, side, distance, mode):
    """The ``side`` signature's matrix cannot be edited in place, so the pair's distance does not move."""
    before = distance(teacher, student, mode=mode)
    with pytest.raises(ValueError, match="read-only"):
        (teacher if side == "teacher" else student).matrix[0, 1] = np.nan
    assert distance(teacher, student, mode=mode) == before


class TestCollabDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(11)
        cm = random_collab(rng, 5)
        res = collab_distance(cm, cm, mode="exact")
        assert res.value == 0.0

    def test_conjugated_copy_zero(self):
        rng = np.random.default_rng(12)
        teacher = random_collab(rng, 6)
        gather = [int(i) for i in rng.permutation(6)]
        student = CollaborationMatrix(
            layer=0,
            matrix=teacher.matrix[np.ix_(gather, gather)],
            pair_normalizer=teacher.pair_normalizer,
        )
        res = collab_distance(teacher, student, mode="exact")
        assert res.value <= 1e-15

    def test_conjugated_copy_zero_at_nine_experts(self):
        rng = np.random.default_rng(42)
        teacher = random_collab(rng, 9)
        gather = [int(i) for i in rng.permutation(9)]
        student = CollaborationMatrix(
            layer=0,
            matrix=teacher.matrix[np.ix_(gather, gather)],
            pair_normalizer=teacher.pair_normalizer,
        )
        res = collab_distance(teacher, student, mode="exact")
        assert res.method == "exact-brute-force"
        assert res.value <= 1e-15

    def test_exact_matches_factorial_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            teacher = random_collab(rng, 4)
            student = random_collab(rng, 4)
            res = collab_distance(teacher, student, mode="exact")
            want, want_perm = naive_collab_distance(teacher.matrix, student.matrix)
            assert abs(res.value - want) <= 1e-12
            assert res.permutation == want_perm

    def test_heuristic_upper_bounds_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            num_experts = int(rng.integers(3, 8))
            teacher = random_collab(rng, num_experts)
            student = random_collab(rng, num_experts)
            exact = collab_distance(teacher, student, mode="exact").value
            heur = collab_distance(teacher, student, mode="heuristic").value
            assert heur >= exact - 1e-12

    @pytest.mark.parametrize("defect", ["teacher-zero-pair", "teacher-low-row", "student-low-row"])
    def test_non_dense_matrix_matches_naive_oracle(self, defect):
        rng = np.random.default_rng(44)
        teacher = random_collab(rng, 5, sparsity=2.0).matrix.copy()
        student = random_collab(rng, 5, sparsity=2.0).matrix.copy()
        assert _dense_off_diagonal(teacher) and _dense_off_diagonal(student)
        matrix = student if defect.startswith("student") else teacher
        if defect.endswith("low-row"):  # row 2's whole off-diagonal mass below MASS_GUARD
            matrix[2, :] *= MASS_GUARD / 10
            matrix[:, 2] *= MASS_GUARD / 10
        else:  # one zero off-diagonal pair
            matrix[1, 3] = matrix[3, 1] = 0.0
        matrix /= matrix.sum()
        assert not _dense_off_diagonal(matrix)
        res = collab_distance(
            CollaborationMatrix(0, teacher, 2.0), CollaborationMatrix(0, student, 2.0), mode="exact"
        )
        want, want_perm = naive_collab_distance(teacher, student)
        assert abs(res.value - want) <= 1e-12
        assert res.permutation == want_perm

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("edit", ["overflow", "half-mass", "negative", "nan"])
    def test_unnormalized_matrix_rejected(self, edit, mode):
        rng = np.random.default_rng(16)
        teacher, student = random_collab(rng, 5), random_collab(rng, 5)
        matrix = student.matrix.copy()
        if edit == "overflow":
            matrix = np.where(np.eye(5, dtype=bool), 0.0, 1e308)
        elif edit == "half-mass":
            matrix *= 0.5
        elif edit == "negative":  # the sum stays 1
            matrix[0, 1] -= 0.5
            matrix[0, 2] += 0.5
        else:
            matrix[0, 1] = np.nan
        message = ("collaboration matrix has a negative or non-finite entry" if edit in ("negative", "nan")
                   else "collaboration matrix is not normalized")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SignatureError, match=message):
                CollaborationMatrix(0, matrix, 2.0)
        assert_stays_checked(teacher, student, "student", collab_distance, mode)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("side", ["teacher", "student"])
    def test_diagonal_mass_rejected(self, side, mode):
        # halved and given 0.1 on each diagonal entry, the sum stays 1, and the kernel,
        # which drops the diagonal, would give the original matrix's distance
        rng = np.random.default_rng(17)
        pair = {name: CollaborationMatrix(0, _random_dense(rng, 5), 2.0) for name in ("teacher", "student")}
        matrix = pair[side].matrix / 2 + 0.1 * np.eye(5)
        assert abs(matrix.sum() - 1.0) <= 1e-12
        with pytest.raises(SignatureError, match="collaboration matrix has a nonzero diagonal entry"):
            CollaborationMatrix(0, matrix, 2.0)
        assert_stays_checked(pair["teacher"], pair["student"], side, collab_distance, mode)

    def test_zero_mass_handling(self):
        zero = CollaborationMatrix(0, np.zeros((3, 3)), 0.0, zero_mass=True)
        rng = np.random.default_rng(15)
        live = random_collab(rng, 3)
        res = collab_distance(zero, zero)
        assert res.value == 0.0
        with pytest.raises(TransportError, match="zero-mass"):
            collab_distance(zero, live)


def _random_dense(rng: np.random.Generator, num_experts: int) -> np.ndarray:
    matrix = random_collab(rng, num_experts, sparsity=2.0).matrix
    assert _dense_off_diagonal(matrix)
    return matrix


def _uniform_dense(num_experts: int) -> np.ndarray:
    matrix = 1.0 - np.eye(num_experts)
    return matrix / matrix.sum()


def _frozen_collab_pair(kind: str, num_experts: int) -> tuple[CollaborationMatrix, CollaborationMatrix]:
    """A seeded matrix pair: dense off the diagonal, with one zero pair each, or with one low-mass row each."""
    rng = np.random.default_rng(500 + num_experts)
    teacher = random_collab(rng, num_experts, sparsity=2.0).matrix.copy()
    student = random_collab(rng, num_experts, sparsity=2.0).matrix.copy()
    if kind == "zero-pair":
        teacher[0, 1] = teacher[1, 0] = 0.0
        student[0, -1] = student[-1, 0] = 0.0
    elif kind == "low-row":
        for matrix, row in ((teacher, 2), (student, 0)):
            matrix[row] *= MASS_GUARD / 10
            matrix[:, row] *= MASS_GUARD / 10
    return (
        CollaborationMatrix(0, teacher / teacher.sum(), 2.0),
        CollaborationMatrix(0, student / student.sum(), 2.0),
    )


FROZEN_COLLAB_CASES = (
    [("exact", "dense", 2)]
    + [("exact", kind, e) for e in range(3, EXACT_ENUM_CAP + 1) for kind in ("dense", "zero-pair", "low-row")]
    + [("heuristic", kind, e) for e in (16, 64, 129, 256) for kind in ("dense", "zero-pair", "low-row")]
)


class TestCollabKernel:
    @pytest.mark.parametrize("n", [*range(1, 301), 511, 512, 513, 1031])
    def test_ordered_sum_is_numpy_sum_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        shape = (4096 if n <= EXACT_ENUM_CAP else 256, n)
        data = rng.choice([-1.0, 1.0], shape) * rng.random(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        want = data.sum(axis=-1)  # a contiguous axis
        got = _ordered_sum([data[:, k] for k in range(n)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
            f"numpy {np.__version__} sums a contiguous axis of {n} values in another order "
            "than _ordered_sum"
        )

    @pytest.mark.parametrize(
        ("mode", "kind", "num_experts"), FROZEN_COLLAB_CASES,
        ids=[f"{mode}-{kind}-{e}" for mode, kind, e in FROZEN_COLLAB_CASES],
    )
    def test_collab_distance_frozen_bits(self, mode, kind, num_experts):
        # recorded with the former (C, E, E) kernel, which reduced each E-long axis with numpy's sum
        frozen = json.loads((Path(__file__).parent / "data" / "collab_frozen_bits.json").read_text())
        res = collab_distance(*_frozen_collab_pair(kind, num_experts), mode=mode)
        assert [res.value.hex(), list(res.permutation)] == frozen[f"{mode}-{kind}-{num_experts}"]

    @pytest.mark.parametrize("chunk", [1, 97, None, 5040], ids=["one", "odd", "default", "whole"])
    @pytest.mark.parametrize("teacher_kind", ["random", "uniform", "sparse"])
    def test_scan_result_is_independent_of_chunk_size(self, chunk, teacher_kind, monkeypatch):
        rng = np.random.default_rng(300)
        num_experts = 7
        if teacher_kind == "uniform":
            teacher = _uniform_dense(num_experts)
        elif teacher_kind == "sparse":
            teacher = random_collab(rng, num_experts).matrix
            assert not _dense_off_diagonal(teacher)
        else:
            teacher = _random_dense(rng, num_experts)
        student = _random_dense(rng, num_experts)
        objectives = _collab_objectives(teacher, [student])
        perms = _all_permutations(num_experts)
        [values] = objectives(perms)
        idx = int(np.argmin(values))
        if teacher_kind == "uniform":  # every relabeling ties, so the identity must win
            assert np.all(values == values[0]) and idx == 0
        if chunk is not None:
            monkeypatch.setattr(transport, "_SCAN_BUDGET", chunk * num_experts**2)
        [(value, perm)] = _scan(objectives, teacher)
        assert value == float(values[idx])
        assert perm == tuple(perms[idx])


def _kernel_case(rng: np.random.Generator, kind: str, num_experts: int) -> CollaborationMatrix:
    """A normalized matrix: dense off the diagonal, sparse, or dense but for one low-mass row."""
    matrix = random_collab(rng, num_experts, sparsity=0.5 if kind == "sparse" else 2.0).matrix.copy()
    if kind == "low-row":
        row = int(rng.integers(num_experts))
        matrix[row] *= MASS_GUARD / 10
        matrix[:, row] *= MASS_GUARD / 10
    return CollaborationMatrix(0, matrix / matrix.sum(), 2.0)


def _assert_each_pair(teacher, students, mode):
    got = transport._match("collab", teacher.matrix, [student.matrix for student in students], mode)
    want = [collab_distance(teacher, student, mode=mode) for student in students]
    assert [(r.value.hex(), r.permutation, r.method) for r in got] == [
        (r.value.hex(), r.permutation, r.method) for r in want]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_experts=st.integers(2, 8),
       kinds=st.lists(st.sampled_from(["dense", "sparse", "low-row"]), min_size=2, max_size=5),
       mode=st.sampled_from(["exact", "heuristic"]))
def test_many_student_scan_is_each_pair_bit_for_bit(seed, num_experts, kinds, mode):
    # the teacher's part of a chunk is shared and each student's runs in a reused buffer:
    # every value and permutation must be the one-pair call's, dense and masked pairs mixed
    rng = np.random.default_rng(seed)
    teacher, *students = (_kernel_case(rng, kind, num_experts) for kind in kinds)
    _assert_each_pair(teacher, students, mode)


def test_many_student_scan_at_nine_experts():
    # above 8 experts the scan chunks follow the prefixes of the permutation table
    rng = np.random.default_rng(909)
    teacher = _kernel_case(rng, "dense", 9)
    students = [_kernel_case(rng, kind, 9) for kind in ("dense", "sparse", "dense")]
    students.append(CollaborationMatrix(0, teacher.matrix[np.ix_(*[rng.permutation(9)] * 2)], 2.0))
    _assert_each_pair(teacher, students, "exact")


class TestHeuristicCost:
    def test_identical_zero_diagonal(self):
        rng = np.random.default_rng(16)
        prof = random_profile(rng, 4, 2)
        cost = heuristic_cost_matrix("spec", prof, prof)
        assert np.all(np.diag(cost) == 0.0)
        cm = random_collab(rng, 4)
        cost = heuristic_cost_matrix("collab", cm, cm)
        assert np.all(np.diag(cost) == 0.0)

    def test_spec_worked_example(self):
        teacher = np.array([[1.0], [0.0]])
        student = np.array([[0.0], [1.0]])
        cost = heuristic_cost_matrix("spec", teacher, student)
        assert np.array_equal(cost, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_permuted_copy_recovers_mapping(self):
        rng = np.random.default_rng(17)
        teacher = random_profile(rng, 5, 3)
        gather = [int(i) for i in rng.permutation(5)]
        student_matrix = teacher.matrix[gather]
        cost = heuristic_cost_matrix("spec", teacher.matrix, student_matrix)
        perm, total = hungarian(cost)
        assert total <= 1e-15
        # assignment maps teacher expert i to the student slot holding it
        assert [gather[j] for j in perm] == list(range(5))

    @pytest.mark.parametrize("num_domains", range(1, 17))
    def test_spec_cost_does_not_depend_on_layout(self, num_domains):
        # a built profile is Fortran-ordered and a loaded one C-ordered: both must match alike
        rng = np.random.default_rng(700 + num_domains)
        teacher, student = (random_profile(rng, 12, num_domains).matrix for _ in range(2))
        want = heuristic_cost_matrix("spec", teacher, student).view(np.int64)
        for t, s in itertools.product((teacher, np.asfortranarray(teacher)), (student, np.asfortranarray(student))):
            assert np.array_equal(heuristic_cost_matrix("spec", t, s).view(np.int64), want)

    @pytest.mark.parametrize("num_experts", [3, 64, 200])
    def test_collab_cost_equals_broadcast_formula(self, num_experts):
        rng = np.random.default_rng(num_experts)
        teacher = random_collab(rng, num_experts).matrix
        student = random_collab(rng, num_experts).matrix
        t_sorted = -np.sort(-teacher, axis=1)
        s_sorted = -np.sort(-student, axis=1)
        want = np.abs(t_sorted[:, None, :] - s_sorted[None, :, :]).sum(axis=2)
        assert np.array_equal(heuristic_cost_matrix("collab", teacher, student), want)

    def test_shape_and_kind_errors(self):
        with pytest.raises(TransportError, match="shapes differ"):
            heuristic_cost_matrix("spec", np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(TransportError, match="unknown cost kind"):
            heuristic_cost_matrix("rows", np.zeros((2, 2)), np.zeros((2, 2)))


class TestSignatureDistance:
    def test_bundle_distance_and_zero_mass_fallback(self):
        rng = np.random.default_rng(18)
        spec_t, spec_s = random_profile(rng, 4, 2), random_profile(rng, 4, 2)
        collab_t, collab_s = random_collab(rng, 4), random_collab(rng, 4)
        dist = signature_distance(SignatureBundle(spec_t, collab_t), SignatureBundle(spec_s, collab_s))
        assert dist.d_spec >= 0 and dist.d_collab is not None and dist.d_collab >= 0
        zero = CollaborationMatrix(0, np.zeros((4, 4)), 0.0, zero_mass=True)
        dist = signature_distance(SignatureBundle(spec_t, zero), SignatureBundle(spec_s, zero))
        assert dist.d_collab is None
        assert dist.collab_permutation is None
        with pytest.raises(TransportError, match="zero-mass"):
            signature_distance(SignatureBundle(spec_t, zero), SignatureBundle(spec_s, collab_s))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_w1_symmetry_hypothesis(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 12))
    p, q = normalized(rng, size), normalized(rng, size)
    positions = np.arange(size, dtype=float)
    assert wasserstein1_discrete(p, q, positions) == pytest.approx(
        wasserstein1_discrete(q, p, positions), abs=1e-12
    )


def test_heuristic_cost_complexity_growth():
    # doubling E at fixed D should grow heuristic spec-distance time ~E^3, well under 10x
    rng = np.random.default_rng(19)
    timings = {}
    for num_experts in (32, 64):
        teacher = random_profile(rng, num_experts, 4)
        student = random_profile(rng, num_experts, 4)
        best = np.inf
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(20):
                spec_distance(teacher, student, mode="heuristic")
            best = min(best, time.perf_counter() - start)
        timings[num_experts] = best
    assert timings[64] <= 10.0 * timings[32]


SCIPY_PROBE = textwrap.dedent(
    """
    import json, sys
    from moesig.cli import dispatch

    def loaded():
        return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

    after_import = loaded()
    scenario = dict(num_experts=8, num_layers=1, top_k=2, num_domains=3, n_per_domain=20,
                    relatedness=0.5, seed=1)
    with open("s.json", "w") as fh:
        json.dump(scenario, fh)
    assert dispatch(["synth", "--config", "s.json", "--out-dir", "s"]) == 0
    detect = ["detect", "--teacher", "s/teacher.jsonl", "--cand1", "s/cand1.jsonl",
              "--cand2", "s/cand2.jsonl", "--out", "v.json", "--mode"]
    assert dispatch(detect + ["exact"]) == 0
    after_exact = loaded()
    assert dispatch(detect + ["heuristic"]) == 0
    print(json.dumps([after_import, after_exact, loaded()]))
    """
)


def test_scipy_never_loaded(tmp_path):
    # numpy is the only runtime dependency: importing scipy.optimize alone took
    # about 0.6 s per run, so neither exact nor heuristic matching may load scipy
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, False]
