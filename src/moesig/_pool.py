"""Run independent jobs on a process pool sized to the CPUs this process may use.

Jobs must be picklable: a module-level function and plain-data arguments.
Each job seeds its own randomness, so results do not depend on which worker
runs it or when, and they come back in submission order.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
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
    first failure cancels the jobs not yet started; once the running ones have
    finished, the exception of the earliest submitted failed job is re-raised.
    """
    jobs = list(jobs)
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1:
        return [fn(job) for job in jobs]
    context = multiprocessing.get_context(START_METHOD)
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future.done() and future.exception() is not None:
                pool.shutdown(cancel_futures=True)
                raise future.exception()
        return [future.result() for future in futures]
