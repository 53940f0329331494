"""Run independent jobs on a process pool sized to the CPUs this process may use.

Jobs must be picklable: a module-level function and plain-data arguments.
Each job seeds its own randomness, so results do not depend on which worker
runs it or when, and they come back in submission order. Jobs that run
faster together (proxy fits trained as one stack, sweep scenarios that
share a teacher) go through :func:`parallel_map_runs`, which hands each
worker one contiguous run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

J = TypeVar("J")
R = TypeVar("R")

# fork starts a worker without re-importing numpy and the package (spawn
# added about 0.7 s to a 3 s sweep on 2 CPUs); pinned so that a change of the
# platform default cannot add that cost. Forking needs a caller that runs no
# threads of its own: the package starts none, and OpenBLAS stops its pool
# at fork.
START_METHOD = "fork"


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask (all CPUs where there is no mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def parallel_map(fn: Callable[[J], R], jobs: Sequence[J]) -> list[R]:
    """``[fn(job) for job in jobs]``, run on up to one worker process per usable CPU.

    With a single worker the jobs run serially in this process. Otherwise the
    exception of the earliest submitted failed job is re-raised once every
    earlier job has finished, and the jobs not yet started are cancelled, so
    the error does not depend on the CPU count or on timing.
    """
    jobs = list(jobs)
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1:
        return [fn(job) for job in jobs]
    context = multiprocessing.get_context(START_METHOD)
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(fn, jobs))


def split_runs(items: Sequence[J], parts: int) -> list[list[J]]:
    """``items`` cut into ``min(parts, len(items))`` contiguous runs whose lengths differ by at most one."""
    items = list(items)
    n, parts = len(items), min(parts, len(items))
    return [items[n * i // parts : n * (i + 1) // parts] for i in range(parts)]


def parallel_map_runs(fn: Callable[[list[J]], list[R]], items: Sequence[J]) -> list[R]:
    """``fn`` over one contiguous run of ``items`` per usable CPU; the results, flattened in item order.

    ``fn`` maps a run to one result per item, and must not depend on how
    ``items`` are cut, so that the results do not depend on the CPU count.
    """
    return [result for run in parallel_map(fn, split_runs(items, _usable_cpus())) for result in run]
