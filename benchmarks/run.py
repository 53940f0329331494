"""Closed-loop benchmark of the moesig command-line tool.

Run from the root of a moesig checkout::

    python3 benchmarks/run.py --workload pipeline-ref --seed 20250809 --seconds 15 --trace 0

One client runs one operation at a time, each command in a fresh
``python -m moesig.cli`` process with default flags and ``src/`` of the
checkout on ``PYTHONPATH``. Inputs are generated from ``--seed`` before
timing starts. Every operation's artifacts pass the workload's correctness
gates and must be byte-identical to the first operation's; a failed command
or gate counts as a failed operation.

``--trace 0`` measures the end-to-end metrics: operations repeat while
another one fits into ``--seconds`` (at least the workload's ``min_ops``
run), and times are medians over operations.
``--trace 1`` runs the operation untraced, traced (every command traced
in-process, see ``tracing.py``) and untraced again, and reports the
per-layer metrics of the traced one. Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is the JSON result; the lines before it
repeat each metric as ``name value unit`` for people.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, identity_gate

SETUP_REPEATS = 2  # before the first operation; one more follows each operation
COMMAND_TIMEOUT_S = 120  # a command still running then is killed and its operation fails
WORK_DIR = ".bench_work"


@dataclass
class Command:
    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Op:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)


class Runner:
    """Starts commands in fresh processes and measures each one's wall time and peak RSS."""

    def __init__(self, root: Path, log: Path):
        path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.root = root
        self.log = log

    def run(self, argv: list[str]) -> Command:
        with self.log.open("ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=self.env, cwd=self.root,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            # wait4 gives this child's own peak RSS, unlike RUSAGE_CHILDREN
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Command(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def moesig(self, args: list[str]) -> Command:
        return self.run([sys.executable, "-m", "moesig.cli", *args])


def blas_threads() -> int:
    """Thread count of the OpenBLAS bundled with numpy, or -1 when it cannot be read."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def run_op(runner: Runner, workload, out: Path, first: Path | None, traced: list | None = None) -> Op:
    """One operation: the workload's commands in order, then its correctness gates.

    With ``traced`` given, each command runs under ``tracing.py`` and its
    spans document is appended to the list.
    """
    out.mkdir()
    op = Op()
    for i, args in enumerate(workload.commands(out)):
        if traced is None:
            cmd = runner.moesig(args)
        else:
            spans = out / f"spans{i}.json"
            cmd = runner.run([sys.executable, str(Path(tracing.__file__)), str(spans), *args])
            if cmd.code == 0:
                traced.append(json.loads(spans.read_text(encoding="utf-8")))
        op.wall_s += cmd.wall_s
        op.rss_mb = max(op.rss_mb, cmd.rss_mb)
        if cmd.code != 0:
            op.errors.append(f"moesig {args[0]} exited with code {cmd.code}")
            return op
    op.errors += workload.check(out)
    if first is not None:
        op.errors += identity_gate(workload.artifacts(first), workload.artifacts(out))
    return op


def ready_s(runner: Runner) -> float:
    """One fresh interpreter reaching ready: ``moesig --version``."""
    cmd = runner.moesig(["--version"])
    if cmd.code != 0:
        raise RuntimeError(f"moesig --version exited with code {cmd.code}")
    return cmd.wall_s


def measure(runner: Runner, workload, work: Path, seconds: float) -> tuple[list[Op], dict]:
    ready_s(runner)  # the first start compiles bytecode and warms the page cache
    # set-up samples are spread over the run, so a short slow spell of the
    # machine cannot cover all of them
    setup = [ready_s(runner) for _ in range(SETUP_REPEATS)]
    ops: list[Op] = []
    start = time.perf_counter()
    # stop before an operation of median length would overrun the measuring time
    while len(ops) < workload.min_ops or (
        time.perf_counter() - start + statistics.median(op.wall_s for op in ops) <= seconds
    ):
        out = work / f"op{len(ops)}"
        ops.append(run_op(runner, workload, out, work / "op0" if ops else None))
        if ops[-1].errors:
            break
        if len(ops) > 1:
            shutil.rmtree(out)
        setup.append(ready_s(runner))
    ok = [op for op in ops if not op.errors] or ops
    walls = [op.wall_s for op in ok]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(op.rss_mb for op in ops),
        "items_per_s": statistics.median(workload.items / w for w in walls),
    }
    return ops, metrics


def measure_traced(runner: Runner, workload, work: Path) -> tuple[list[Op], dict]:
    ready_s(runner)  # compile bytecode before any operation
    runs: list[dict] = []
    # untraced operations on both sides of the traced one, so a drift in
    # machine speed does not read as tracing overhead
    ops = [run_op(runner, workload, work / "op0", None)]
    ops.append(run_op(runner, workload, work / "traced", work / "op0", traced=runs))
    ops.append(run_op(runner, workload, work / "op2", work / "op0"))
    if any(op.errors for op in ops):
        return ops, {}
    untraced_s = (ops[0].wall_s + ops[2].wall_s) / 2
    metrics = tracing.layer_metrics(runs)
    for key, value in workload.accuracy(work / "traced").items():
        metrics["detector.accuracy" + (f".{key}" if key else "")] = value
    traced_s = ops[1].wall_s - tracing.probe_seconds(runs)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    metrics["trace.spans"] = sum(len(run["spans"]) for run in runs)
    metrics["env.cpu_count"] = os.cpu_count() or 0
    metrics["env.blas_threads"] = blas_threads()
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full",
                        help="toy shrinks every workload for the benchmark's self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "moesig" / "cli.py").is_file():
        print(f"error: {root} is not a moesig checkout (no src/moesig/cli.py)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        runner = Runner(root, work / "stderr.log")
        workload = WORKLOADS[args.workload](root, work, args.seed, args.size == "toy")
        for prep in workload.prepare_commands():
            if runner.moesig(prep).code != 0:
                raise RuntimeError(f"input generation failed: moesig {' '.join(prep)}")
        if args.trace:
            ops, metrics = measure_traced(runner, workload, work)
        else:
            ops, metrics = measure(runner, workload, work, args.seconds)
        failed = [op for op in ops if op.errors]
        accuracy = {} if failed or args.trace else workload.accuracy(work / "op0")
        for op in failed:
            print(f"failed operation: {'; '.join(op.errors)}", file=sys.stderr)
        if failed:
            sys.stderr.write((work / "stderr.log").read_text(encoding="utf-8", errors="replace")[-2000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    if args.trace and not failed:
        # accuracy at a rho the workload does not run reads 0
        for name in units:
            if name.startswith("detector.accuracy."):
                metrics.setdefault(name, 0.0)
    if not failed and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"ops={len(ops)} failed={len(failed)} cores={os.cpu_count()} blas_threads={blas_threads()}")
    print("# operation wall times, s: " + " ".join(f"{op.wall_s:.3f}" for op in ops))
    for name, value in metrics.items():
        print(f"{name} {value} {units.get(name, '')}")
    if not args.trace:
        print(f"{workload.item}_per_s {metrics['items_per_s']} {workload.item}/s")
        if accuracy:
            print(f"accuracy {accuracy['']} fraction")
        print(f"failed_ops {len(failed)}/{len(ops)} operations")
    elif metrics:
        selfs = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
        print(f"largest self time: {max(selfs, key=selfs.get)}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
