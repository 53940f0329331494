"""Permutation-invariant Wasserstein-1 distances between routing signatures.

Expert indices are arbitrary labels, so signatures are compared after
minimizing over expert relabelings. Two matching modes are provided:

* ``exact-brute-force``: the ground-truth minimum over all permutations,
  with the lexicographically first minimizer. For the specialization
  distance a subset DP over teacher rows finds the near-optimal
  permutations, which are then re-scored by the positional objective
  itself, so the result is the full scan's bit for bit; degenerate ties
  fall back to that scan. The collaboration distance scans every
  permutation through one kernel, which keeps the permutations on the last
  axis and sums E contiguous slabs in the order numpy's float sum takes on
  an E-long axis.
* ``hungarian-heuristic``: solve a linear assignment on a surrogate
  per-expert cost matrix, then evaluate the true objective at the matched
  permutation. The surrogate is needed because the true objective couples
  experts through the positional CDF and is not itself a linear assignment
  problem; the result is an upper bound on the exact minimum. The
  collaboration objective at that permutation comes from the same kernel.

``auto`` mode picks exact mode up to 8 experts (40320 permutations) and
the heuristic above that.

The invariance is one-sided. Relabeling the teacher only reorders the
permutations scanned, so the exact distance does not change. Relabeling
the student does change it in general: the positional W1 integrates the
CDF along the student's expert order, and that order is not minimized
over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from moesig.errors import TransportError
from moesig.signatures import CollaborationMatrix, SignatureBundle, SpecializationProfile

AUTO_EXACT_MAX_EXPERTS = 8
EXACT_ENUM_CAP = 10
MASS_GUARD = 1e-12
NORMALIZATION_TOL = 1e-9

# names the mode, not the algorithm: the string is written into sweep CSVs and
# verdict JSON, so renaming it would change byte-identical artifacts
METHOD_EXACT = "exact-brute-force"
METHOD_HEURISTIC = "hungarian-heuristic"


@dataclass(frozen=True)
class Permutation:
    """Bijective relabeling of expert indices 0..E-1."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(int(i) for i in self.mapping))
        e = len(self.mapping)
        if sorted(self.mapping) != list(range(e)):
            raise TransportError(f"mapping {self.mapping} is not a permutation of 0..{e - 1}")

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)))

    def __len__(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))


class TransportResult(NamedTuple):
    """A matched distance: its value, the permutation used, and how it was found."""

    value: float
    permutation: Permutation
    method: str


@dataclass(frozen=True)
class SignatureDistance:
    """Specialization and collaboration distances for one signature pair."""

    d_spec: float
    d_collab: float | None
    spec_permutation: Permutation
    collab_permutation: Permutation | None
    method: str

    def __post_init__(self) -> None:
        if self.d_spec < 0 or (self.d_collab is not None and self.d_collab < 0):
            raise TransportError("signature distances must be nonnegative")


def wasserstein1_discrete(p, q, positions) -> float:
    """W1 between two discrete distributions on a common increasing grid.

    Equals the integral of the absolute CDF difference: the sum over
    consecutive position gaps of |CDF_p - CDF_q| times the gap width.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if p.shape != q.shape or p.shape != positions.shape or p.ndim != 1:
        raise TransportError(
            f"length mismatch: p{p.shape}, q{q.shape}, positions{positions.shape}"
        )
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q)) and np.all(np.isfinite(positions))):
        raise TransportError("inputs must be finite")
    if p.size > 1 and not np.all(np.diff(positions) > 0):
        raise TransportError("positions must be strictly increasing")
    for name, vec in (("p", p), ("q", q)):
        total = float(vec.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise TransportError(f"{name} sums to {total!r}, not 1 within {NORMALIZATION_TOL}")
    cdf_gap = np.cumsum(p - q)[:-1]
    return float(np.abs(cdf_gap) @ np.diff(positions))


def _shortest_augmenting_paths(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row in a minimum-cost assignment of a finite square ``cost``.

    Rows enter one at a time. Each runs a Dijkstra search over the reduced
    costs ``cost[i, j] - u[i] - v[j]`` until it settles an unassigned
    column; then the duals ``u``, ``v`` are updated and the path is flipped.
    Operand order and tie-breaks are those of scipy's ``linear_sum_assignment``.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    path = np.full(n, -1, dtype=np.intp)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    for cur in range(n):
        spc = np.full(n, np.inf)  # shortest-path cost to each column
        rows_seen = np.zeros(n, dtype=bool)
        cols_seen = np.zeros(n, dtype=bool)
        remaining = np.arange(n - 1, -1, -1)  # reversed, so a constant matrix gives the identity
        num = n
        min_val = 0.0
        i = cur
        sink = -1
        while sink < 0:
            rows_seen[i] = True
            rem = remaining[:num]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            dist = spc[rem]
            better = r < dist
            path[rem[better]] = i
            dist[better] = r[better]
            spc[rem] = dist
            min_val = dist.min()
            # the first minimum in remaining order, or the last one on an unassigned column
            hits = np.flatnonzero(dist == min_val)
            free = hits[row4col[rem[hits]] < 0]
            index = free[-1] if free.size else hits[0]
            j = rem[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            num -= 1
            remaining[index] = remaining[num]
        u[cur] += min_val
        others = np.flatnonzero(rows_seen)
        others = others[others != cur]
        u[others] += min_val - spc[col4row[others]]
        v[cols_seen] -= min_val - spc[cols_seen]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian(cost: np.ndarray) -> tuple[Permutation, float]:
    """Minimum-cost assignment: permutation minimizing sum_i cost[i, perm(i)].

    Solved in O(E^3) by shortest augmenting paths (Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE TAES 2016). Ties break as in
    scipy's ``linear_sum_assignment``, whose assignment this reproduces
    element for element; a constant matrix gives the identity. The total
    cost is re-summed in row order so it is reproducible bit-for-bit.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise TransportError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise TransportError("cost matrix contains non-finite entries")
    sigma = _shortest_augmenting_paths(cost)
    total = float(cost[np.arange(cost.shape[0]), sigma].sum())
    return Permutation(sigma), total


@lru_cache(maxsize=8)
def _all_permutations(size: int) -> np.ndarray:
    """All permutations of 0..size-1 in lexicographic order. Cached for small sizes.

    Built by first element: the permutations of 0..n-1 that start with f
    are f followed by those of 0..n-2, in order, with every value >= f
    raised by one.
    """
    table = np.zeros((1, 0), dtype=np.intp)
    for n in range(1, size + 1):
        first = np.repeat(np.arange(n), len(table))
        rest = np.tile(table, (n, 1))
        rest += rest >= first[:, None]
        table = np.column_stack([first, rest])
    return table


def _permutation_chunks(size: int, chunk: int) -> Iterator[np.ndarray]:
    """All permutations of 0..size-1 in lexicographic order, in chunks of at most ``chunk`` rows.

    Up to AUTO_EXACT_MAX_EXPERTS (8) the chunks are views of the cached
    table. Above it, each prefix of size - 8 leading values, in
    lexicographic order, is followed by the cached table of 8 mapped onto
    the values the prefix leaves unused, taken in increasing order, which
    keeps the order lexicographic. No chunk spans two prefixes.
    """
    tail = _all_permutations(min(size, AUTO_EXACT_MAX_EXPERTS))
    values = np.arange(size)
    for prefix in itertools.permutations(range(size), size - tail.shape[1]):
        block = tail
        if prefix:
            block = np.empty((len(tail), size), dtype=np.intp)
            block[:, : len(prefix)] = prefix
            block[:, len(prefix) :] = np.delete(values, prefix)[tail]
        for start in range(0, len(block), chunk):
            yield block[start : start + chunk]


def _spec_objectives(teacher: np.ndarray, student: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The spec objective of a profile pair: mean-over-domain unit-grid W1 per row-gather permutation."""

    def objectives(perms: np.ndarray) -> np.ndarray:
        diff = teacher[perms] - student[None, :, :]  # (C, E, D)
        cdf = np.cumsum(diff, axis=1)[:, :-1, :]
        return np.abs(cdf).sum(axis=1).mean(axis=1)

    return objectives


def _ordered_sum(slabs) -> np.ndarray:
    """``slabs`` added up in the order of numpy's pairwise float sum over a contiguous axis.

    Below 8 terms that is left to right. Up to 128, eight strided partial
    sums ``r[k] = a[k] + a[k + 8] + ...`` over the largest multiple of 8
    terms, then ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then
    the rest left to right. Above 128, each half that way, split at
    ``n // 2`` rounded down to a multiple of 8.
    """
    n = len(slabs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _ordered_sum(slabs[:half]) + _ordered_sum(slabs[half:])
    if n < 8:
        total = slabs[0].copy()
        rest = slabs[1:]
    else:
        full = n - n % 8
        r = list(slabs[:8])
        for start in range(8, full, 8):
            r = [a + b for a, b in zip(r, slabs[start : start + 8])]
        total = r[0] + r[1]
        total += r[2] + r[3]
        half = r[4] + r[5]
        half += r[6] + r[7]
        total += half
        rest = slabs[full:]
    for slab in rest:
        total += slab
    return total


def _dense_off_diagonal(matrix: np.ndarray) -> bool:
    """Whether every off-diagonal entry is positive and no row's mass can fall below MASS_GUARD.

    A float sum of nonnegative terms is at least its largest term in any
    order, so a row whose largest entry reaches MASS_GUARD never takes the
    uniform fallback under any permutation.
    """
    e = matrix.shape[0]
    if e < 2:
        return False
    off = matrix[~np.eye(e, dtype=bool)].reshape(e, e - 1)
    return bool(np.all(off > 0) and np.all(off.max(axis=1) >= MASS_GUARD))


def _collab_objectives(teacher: np.ndarray, student: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The collab objective of a matrix pair: row-aligned sparse W1 per conjugating permutation.

    Each row of both matrices is restricted to the union of their nonzero
    off-diagonal columns, renormalized (uniform when its mass is below
    MASS_GUARD) and compared by W1 on the reindexed positions 0..m-1; the
    objective is the mean over rows, an empty support contributing zero.

    The permutations sit on the last axis: ``w[i, j, c]`` is entry (i, j)
    of the teacher conjugated by ``perms[c]``, so a reduction over i or j
    adds E slabs of C contiguous values, by :func:`_ordered_sum` in the
    order numpy's sum takes on an E-long axis. When both matrices pass
    :func:`_dense_off_diagonal`, decided once per pair, every support is
    all off-diagonal columns whatever the permutation, and the mask, the
    uniform fallback and the search for the last support column drop out.
    The masked path gives the same bits on a dense pair but is slower: the
    sweep-e8 benchmark (dense pairs at E = 8) took a median 1.00 s per
    operation with it against 0.67 s with the dense path (10 alternating
    runs each, 2-core VM).
    """
    e = teacher.shape[0]
    diag = np.arange(e)
    t = teacher.copy()
    t[diag, diag] = 0.0  # conjugating keeps a zero diagonal at the diagonal
    s = student.copy()
    s[diag, diag] = 0.0
    # the union support holds every nonzero student entry, so the student's
    # masked row sums do not depend on the permutation
    s_mass = s.sum(axis=1, keepdims=True)[:, :, None]
    s_low = s_mass < MASS_GUARD
    s_norm = s[:, :, None] / np.where(s_low, 1.0, s_mass)
    dense = _dense_off_diagonal(teacher) and _dense_off_diagonal(student)

    def objectives(perms: np.ndarray) -> np.ndarray:
        pt = np.ascontiguousarray(perms.T)  # else the broadcast index is not C-ordered and take slows
        w = t.ravel().take(pt[:, None, :] * e + pt[None, :, :])  # (E, E, C) conjugated teachers
        # the teacher row sums are taken per permutation: a reordered sum can round differently
        mass = _ordered_sum(w.swapaxes(0, 1))[:, None, :]
        if dense:
            w /= mass
            w -= s_norm
        else:
            mask = (w > 0) | (s > 0)[:, :, None]
            uniform = mask / np.maximum(mask.sum(axis=1), 1)[:, None, :]
            low = mass < MASS_GUARD
            w = np.where(low, uniform, w / np.where(low, 1.0, mass))
            w -= np.where(s_low, uniform, s_norm)
        for j in range(1, e):
            w[:, j] += w[:, j - 1]
        np.abs(w, out=w)
        # W1 integrates over the m-1 unit gaps between the m support positions, not past
        # the last one; in a dense row that is column E-1, or E-2 in the last row
        if dense:
            at_last = w[diag, e - 1 - (diag == e - 1)]
            w[diag, diag] = 0.0
        else:
            at_last = np.take_along_axis(w, e - 1 - np.argmax(mask[:, ::-1], axis=1)[:, None], axis=1)[:, 0]
            w *= mask
        rows = _ordered_sum(w.swapaxes(0, 1))
        rows -= at_last
        return _ordered_sum(rows) / e

    return objectives


# element budget (permutations x teacher size) of one chunk of the exact scan:
# 32768 float64 values, 256 KB per chunk array, 512 relabelings at E = 8.
# Chunks this small reuse the pages the previous chunk freed; a pair that is
# not dense off the diagonal adds a mask and a uniform array of the same size.
# The 16 collab scans of the sweep-e8 grid (dense pairs), each run in a fresh
# process on a 2-core VM, took about 100 minor page faults and 0.44-0.59 s at
# 512 relabelings per chunk; 162k-173k faults and 0.55-0.88 s at 4096-7812;
# and 27k-34k faults and a 76 MB peak RSS (44 MB at 512) at the former 31250.
_SCAN_BUDGET = 32_768


def _scan(objectives, teacher: np.ndarray) -> tuple[float, Permutation]:
    """Exact minimum of ``objectives`` over every permutation in lexicographic order; first wins ties."""
    chunk = max(1, _SCAN_BUDGET // max(1, teacher.size))
    best_value = np.inf
    best_perm: np.ndarray | None = None
    for perms in _permutation_chunks(teacher.shape[0], chunk):
        values = objectives(perms)
        idx = int(np.argmin(values))
        if values[idx] < best_value:
            best_value = float(values[idx])
            best_perm = perms[idx]
    assert best_perm is not None
    return best_value, Permutation(best_perm)


# absolute slack (in domain-summed W1 units) within which the subset DP keeps a
# permutation as a candidate; both float sums are off by ~1e-15 at most
_SPEC_DP_TOL = 1e-9
# candidates the subset DP may hand on; degenerate ties (teacher rows equal in
# value but not in bits) can exceed it, and then the exact minimum comes from the full scan
_SPEC_DP_CAP = 4096


def _spec_candidates(teacher: np.ndarray, student: np.ndarray) -> np.ndarray | None:
    """Every permutation whose spec objective is within _SPEC_DP_TOL of the minimum.

    The objective at grid point j depends only on the set U of teacher rows
    placed at positions 0..j, through ``|sum_U teacher - cumsum(student)[j]|``.
    So the minimum is a shortest path over the lattice of subsets (Held and
    Karp, 1962): ``g(U) = min_u c(U + u) + g(U + u)`` backwards from the full
    set, in 2**E * E * D work. A forward walk then keeps, position by
    position, the prefixes whose cost so far plus ``g`` stays within the
    slack of the optimum, in lexicographic order. Returns those permutations
    as rows, or ``None`` when there are more than _SPEC_DP_CAP of them.

    Bitwise-identical teacher rows are placed in index order only. Swapping
    two of them gathers the same matrix, so the objective is equal bit for
    bit, and the scan's first minimum is the permutation that has them in
    index order.
    """
    e = teacher.shape[0]
    size = 1 << e
    bits = 1 << np.arange(e)
    sums = np.zeros((size, teacher.shape[1]))  # sums[U]: teacher rows of bitmask U added up
    popcount = np.zeros(size, dtype=np.intp)
    for b in range(e):
        sums[1 << b : 2 << b] = sums[: 1 << b] + teacher[b]
        popcount[1 << b : 2 << b] = popcount[: 1 << b] + 1
    cost = np.abs(sums - np.cumsum(student, axis=0)[popcount - 1]).sum(axis=1)
    cost[size - 1] = 0.0  # the CDF gap past the last position is not integrated
    cost_to_go = np.full(size, np.inf)
    cost_to_go[size - 1] = 0.0
    masks = np.arange(size)
    for k in range(e - 1, -1, -1):
        layer = masks[popcount == k]
        nxt = layer[:, None] | bits
        step = cost[nxt] + cost_to_go[nxt]
        step[nxt == layer[:, None]] = np.inf  # u already in U
        cost_to_go[layer] = step.min(axis=1)

    earlier = {}  # row bytes -> bitmask of the rows seen so far with those bytes
    needs = np.zeros(e, dtype=np.intp)  # needs[b]: the identical rows that precede b
    for b in range(e):
        key = teacher[b].tobytes()
        needs[b] = earlier.get(key, 0)
        earlier[key] = needs[b] | (1 << b)

    bound = cost_to_go[0] + _SPEC_DP_TOL
    prefixes = np.zeros((1, 0), dtype=np.intp)
    state = np.zeros(1, dtype=np.intp)
    so_far = np.zeros(1)
    for _ in range(e):
        nxt = state[:, None] | bits
        reached = so_far[:, None] + cost[nxt]
        in_order = (state[:, None] & needs) == needs
        keep = (nxt != state[:, None]) & in_order & (reached + cost_to_go[nxt] <= bound)
        rows, cols = np.nonzero(keep)  # row-major: lexicographic order of the new prefixes
        if rows.size > _SPEC_DP_CAP:
            return None
        prefixes = np.column_stack([prefixes[rows], cols])
        state = nxt[rows, cols]
        so_far = reached[rows, cols]
    return prefixes


def _exact_spec(teacher: np.ndarray, student: np.ndarray) -> tuple[float, Permutation]:
    """The scan's result without the scan: re-score the DP's candidates, first minimum wins."""
    objectives = _spec_objectives(teacher, student)
    perms = _spec_candidates(teacher, student)
    if perms is None:
        return _scan(objectives, teacher)
    values = objectives(perms)
    idx = int(np.argmin(values))
    return float(values[idx]), Permutation(perms[idx])


def _resolve_mode(mode: str, num_experts: int) -> str:
    if mode == "auto":
        return METHOD_EXACT if num_experts <= AUTO_EXACT_MAX_EXPERTS else METHOD_HEURISTIC
    if mode == "exact":
        if num_experts > EXACT_ENUM_CAP:
            raise TransportError(
                f"exact enumeration is capped at {EXACT_ENUM_CAP} experts "
                f"({num_experts}! permutations would be required)"
            )
        return METHOD_EXACT
    if mode == "heuristic":
        return METHOD_HEURISTIC
    raise TransportError(f"unknown mode {mode!r} (expected auto, exact, or heuristic)")


def heuristic_cost_matrix(kind: str, teacher, student) -> np.ndarray:
    """Per-expert surrogate assignment costs for the Hungarian matcher.

    ``spec``: mean absolute difference between expert rows of the two
    profiles. ``collab``: L1 distance between descending-sorted
    collaboration rows, which compares co-activation strength spectra
    without committing to any column labeling.
    """
    t = np.asarray(getattr(teacher, "matrix", teacher), dtype=np.float64)
    s = np.asarray(getattr(student, "matrix", student), dtype=np.float64)
    if t.shape != s.shape:
        raise TransportError(f"signature shapes differ: {t.shape} vs {s.shape}")
    if kind == "spec":
        return np.abs(t[:, None, :] - s[None, :, :]).mean(axis=2)
    if kind == "collab":
        t_sorted = -np.sort(-t, axis=1)
        s_sorted = -np.sort(-s, axis=1)
        # one teacher row at a time: the broadcast (E, E, E) difference is 134 MB at E = 256
        cost = np.empty(t.shape)
        for i, row in enumerate(t_sorted):
            cost[i] = np.abs(row - s_sorted).sum(axis=1)
        return cost
    raise TransportError(f"unknown cost kind {kind!r} (expected spec or collab)")


def _check_profiles(teacher: SpecializationProfile, student: SpecializationProfile) -> np.ndarray:
    """Validate a profile pair; returns student matrix with columns aligned to teacher's."""
    if teacher.num_experts != student.num_experts:
        raise TransportError(
            f"expert count mismatch: {teacher.num_experts} vs {student.num_experts}"
        )
    if set(teacher.domain_labels) != set(student.domain_labels):
        raise TransportError(
            f"domain sets differ: {teacher.domain_labels} vs {student.domain_labels}"
        )
    for prof, name in ((teacher, "teacher"), (student, "student")):
        # a NaN column sum would pass the comparison below
        if not np.all(np.isfinite(prof.matrix) & (prof.matrix >= 0.0)):
            raise TransportError(f"{name} profile has a negative or non-finite entry")
        with np.errstate(over="ignore"):  # huge entries sum to inf, which fails the check
            sums = prof.matrix.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
            raise TransportError(f"{name} profile columns are not normalized: sums {sums}")
    if teacher.domain_labels == student.domain_labels:
        return student.matrix
    cols = [student.domain_labels.index(lab) for lab in teacher.domain_labels]
    return student.matrix[:, cols]


def _match(kind: str, teacher: np.ndarray, student: np.ndarray, mode: str) -> TransportResult:
    """Minimize the ``kind`` objective over relabelings of ``teacher``.

    A relabeling is a row-gather map pi that places teacher row pi[j] at
    student slot j (for ``collab``, column pi[j] at column j as well).
    Exact mode returns the minimum over every pi, the lexicographically
    first minimum winning ties: by the subset DP of :func:`_spec_candidates`
    for ``spec``, and by scanning every pi for ``collab``. Heuristic mode
    solves the assignment of :func:`heuristic_cost_matrix`, which pairs
    teacher expert i with student expert sigma(i), so pi is the inverse of
    sigma; the objective at that pi is an upper bound on the exact minimum.
    Both modes evaluate ``collab`` through the one per-pair kernel of
    :func:`_collab_objectives`: the scan in chunks of permutations, the
    heuristic at its single permutation.
    """
    method = _resolve_mode(mode, teacher.shape[0])
    if method == METHOD_EXACT and kind == "spec":
        return TransportResult(*_exact_spec(teacher, student), method)
    objectives = (_spec_objectives if kind == "spec" else _collab_objectives)(teacher, student)
    if method == METHOD_EXACT:
        value, perm = _scan(objectives, teacher)
    else:
        sigma, _ = hungarian(heuristic_cost_matrix(kind, teacher, student))
        perm = sigma.inverse()
        value = float(objectives(np.asarray([perm.mapping], dtype=np.intp))[0])
    return TransportResult(value=value, permutation=perm, method=method)


def spec_distance(
    teacher: SpecializationProfile,
    student: SpecializationProfile,
    mode: str = "auto",
) -> TransportResult:
    """Permutation-invariant specialization distance between two profiles.

    Minimizes the mean over domains of the unit-grid W1 between the
    relabeled teacher column and the student column. Exact mode finds the
    minimum by the subset DP of :func:`_spec_candidates`; heuristic mode
    evaluates the objective at the Hungarian match of
    :func:`heuristic_cost_matrix`, giving an upper bound.
    """
    s_matrix = _check_profiles(teacher, student)
    return _match("spec", teacher.matrix, s_matrix, mode)


def collab_distance(
    teacher: CollaborationMatrix,
    student: CollaborationMatrix,
    mode: str = "auto",
) -> TransportResult:
    """Permutation-invariant collaboration distance between two matrices.

    The teacher matrix is conjugated by the candidate permutation (rows and
    columns relabeled together) and compared row-by-row against the student
    using the sparse union-support W1 of :func:`_collab_objectives`, the one
    kernel that both the exact scan and the heuristic's permutation run.
    A matrix not flagged zero-mass must have entries in [0, 1] summing to 1
    within NORMALIZATION_TOL, as the profile columns must in
    :func:`_check_profiles`, and a zero diagonal, which the kernel drops.
    """
    if teacher.num_experts != student.num_experts:
        raise TransportError(
            f"expert count mismatch: {teacher.num_experts} vs {student.num_experts}"
        )
    if teacher.zero_mass != student.zero_mass:
        raise TransportError(
            "co-activation mass mismatch: one matrix is zero-mass flagged and the other is not"
        )
    if teacher.zero_mass:
        e = teacher.num_experts
        return TransportResult(0.0, Permutation.identity(e), _resolve_mode(mode, e))
    for mat, name in ((teacher, "teacher"), (student, "student")):
        m = mat.matrix
        # entries in [0, 1] first, so the sum can neither overflow nor warn
        if not (np.all((m >= 0.0) & (m <= 1.0)) and abs(float(m.sum()) - 1.0) <= NORMALIZATION_TOL):
            raise TransportError(
                f"{name} collaboration matrix is not normalized: its entries must lie in "
                f"[0, 1] and sum to 1 within {NORMALIZATION_TOL}"
            )
        if np.any(np.diagonal(m)):
            raise TransportError(f"{name} collaboration matrix has a nonzero diagonal entry")
    return _match("collab", teacher.matrix, student.matrix, mode)


def signature_distance(
    teacher: SignatureBundle,
    student: SignatureBundle,
    mode: str = "auto",
) -> SignatureDistance:
    """Both signature distances for a teacher/student bundle pair.

    When both collaboration matrices are zero-mass flagged the collaboration
    distance is reported absent and scoring falls back to specialization
    alone; a one-sided flag is an error because the scores would not be
    comparable.
    """
    d_spec = spec_distance(teacher.spec, student.spec, mode=mode)
    both_zero = teacher.collab.zero_mass and student.collab.zero_mass
    d_collab = None if both_zero else collab_distance(teacher.collab, student.collab, mode=mode)
    return SignatureDistance(
        d_spec=d_spec.value,
        d_collab=d_collab.value if d_collab else None,
        spec_permutation=d_spec.permutation,
        collab_permutation=d_collab.permutation if d_collab else None,
        method=d_spec.method,
    )
