"""The process pool behind ``pipeline`` and ``sweep``: sizing, order, failures."""

from __future__ import annotations

import os
import time
from functools import partial
from pathlib import Path

import pytest

from moesig import _pool
from moesig._pool import parallel_map, parallel_map_runs, split_runs
from moesig.errors import ScenarioError
from moesig.synthgen import ScenarioConfig, sweep


def _square(x: int) -> int:
    return x * x


def _pid(_job) -> int:
    return os.getpid()


def _run_pids(run: list) -> list[tuple[int, int]]:
    return [(x, os.getpid()) for x in run]


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ScenarioError(f"job {x} failed")
    return x


def _fail_slow_then_fast(x: int) -> None:
    if x == 0:
        time.sleep(0.5)
    raise ScenarioError(f"job {x} failed")


def _fail_first_then_mark(marks: Path, x: int) -> None:
    if x == 0:
        raise ScenarioError("job 0 failed")
    time.sleep(0.1)
    (marks / f"{x}").touch()


@pytest.fixture
def two_cpus(monkeypatch):
    """Pretend the affinity mask holds two CPUs, so the pool path runs on any machine."""
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda _pid: {0}, raising=False)


@pytest.fixture
def no_pool(monkeypatch):
    """Make any attempt to start worker processes fail the test."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", forbidden)


def test_results_come_back_in_submission_order(two_cpus):
    assert parallel_map(_square, range(12)) == [x * x for x in range(12)]


def test_jobs_run_in_worker_processes(two_cpus):
    pids = parallel_map(_pid, range(4))
    assert os.getpid() not in pids


def test_one_cpu_runs_serially_in_process(one_cpu, no_pool):
    offset = 5
    # a closure cannot be sent to a worker process, so this only works in-process
    assert parallel_map(lambda x: x + offset, [1, 2]) == [6, 7]
    assert parallel_map(_pid, range(3)) == [os.getpid()] * 3


def test_single_job_runs_in_process(two_cpus, no_pool):
    assert parallel_map(_pid, [0]) == [os.getpid()]


def test_worker_failure_is_reraised(two_cpus):
    # the worker's exception type and message survive the trip to this process
    with pytest.raises(ScenarioError, match="job 3 failed"):
        parallel_map(_fail_on_three, range(8))


@pytest.mark.parametrize("cpus", [1, 2])
def test_earliest_submitted_failure_wins_whatever_finishes_first(monkeypatch, cpus):
    # job 1 fails while job 0 still runs; job 0's error is raised all the same
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
    with pytest.raises(ScenarioError, match="job 0 failed"):
        parallel_map(_fail_slow_then_fast, [0, 1])


def test_first_failure_cancels_pending_jobs(two_cpus, tmp_path):
    with pytest.raises(ScenarioError, match="job 0 failed"):
        parallel_map(partial(_fail_first_then_mark, tmp_path), range(40))
    # only the jobs already handed to a worker ran, not the other 39
    assert len(list(tmp_path.iterdir())) < 10


def test_split_runs_cuts_contiguous_runs_of_near_equal_length():
    for n in range(12):
        for parts in range(1, 5):
            runs = split_runs(range(n), parts)
            assert [x for run in runs for x in run] == list(range(n))
            assert len(runs) == min(n, parts)
            assert max(map(len, runs), default=0) - min(map(len, runs), default=0) <= 1


def test_runs_go_one_per_worker_and_come_back_flat(two_cpus):
    results = parallel_map_runs(_run_pids, range(7))
    assert [x for x, _ in results] == list(range(7))
    # runs 0-2 and 3-6, each run in one worker process
    pids = [pid for _, pid in results]
    assert len(set(pids[:3])) == len(set(pids[3:])) == 1 and os.getpid() not in pids


BASE = dict(num_experts=6, num_layers=2, top_k=2, num_domains=3, n_per_domain=20)


def test_sweep_on_pool_equals_serial_sweeps_bit_for_bit(two_cpus):
    configs = [
        ScenarioConfig(**BASE, relatedness=rho, seed=seed)
        for rho in (0.0, 0.5, 1.0)
        for seed in (1, 2)
    ]
    pooled = sweep(configs, mode="exact")
    serial = [row for config in configs for row in sweep([config], mode="exact")]
    # repr of a float round-trips, so equal text means equal bits
    assert [repr(row) for row in pooled] == [repr(row) for row in serial]


def test_single_config_sweep_takes_serial_path(two_cpus, no_pool):
    (row,) = sweep([ScenarioConfig(**BASE, relatedness=1.0, seed=3)])
    assert row["seed"] == 3 and row["correct"] == 1
