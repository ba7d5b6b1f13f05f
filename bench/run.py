"""The d4green benchmark: one workload per call, figures checked and printed.

    python3 bench/run.py --workload oracle-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median
cold import of the CLI's modules over SETUP_SPAWNS fresh interpreters),
``ops_per_s``, ``op_ms_p50``, ``ok_ratio`` and ``peak_rss_mb``.  Times are
in nominal seconds, wall seconds scaled by a host-speed kernel sampled
between ops (bench/hostspeed.py), because the speed of a shared host
drifts by more than the metrics' bounds; the wall figures are printed
beside them.  With ``--trace 1`` it prints the per-layer metrics of a
traced run and the tracing overhead against an untraced run of the same
inputs.  Either way the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are for
people and include ``op_ms_p95``, ``fail_ratio``, sample counts and
failures by type.  ``correct`` is false when any op returned a wrong
answer; ops that raise are failures but not wrong answers.

Each measurement runs in a fresh interpreter (bench/worker.py), so the
build cache and peak memory start cold.  Without ``--workload`` every
workload runs in turn, for people; the final line then holds no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import NOMINAL_S, kernel_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("oracle-grid", "oracle-large", "symbolic", "verify-jobs2")
SETUP_SPAWNS = 12
SETUP_IMPORT = "import d4green.cli, d4green.verify, d4green.replab"
WORKER_TIMEOUT_S = 80  # a traced run starts two workers; both must end within 180 s


def _env() -> dict:
    # PYTHONPATH is replaced, not extended, so only the checkout's package is found
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_times(spawns: int) -> tuple[list[float], list[float]]:
    """Wall and nominal time of each fresh interpreter importing the CLI's
    modules; the host-speed kernel is sampled right before each spawn."""
    env = _env()
    cmd = [sys.executable, "-c", SETUP_IMPORT]
    # one untimed spawn first, so that writing bytecode caches is not timed
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)
    kernel_s()  # warm-up, not kept
    walls, nominal = [], []
    for _ in range(spawns):
        k = kernel_s()
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        walls.append(perf_counter() - t0)
        nominal.append(walls[-1] * NOMINAL_S / k)
    return walls, nominal


def run_worker(workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One measurement in a fresh interpreter; its process group is killed on timeout."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} worker exceeded {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def metadata() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _num(x) -> str:
    return "-" if x is None else f"{x:.4g}"


def untraced(workload: str, seed: int, seconds: float) -> dict:
    # half the spawns before the workload and half after, so that one spell
    # of a slow host does not set the median alone
    walls, setup = setup_times(SETUP_SPAWNS // 2)
    fig = run_worker(workload, seed, seconds)
    walls2, setup2 = setup_times(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    walls += walls2
    setup += setup2
    attempted, failed = fig["attempted"], fig["failed"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (fig["ops_per_s"], "1/s"),
        "op_ms_p50": (fig["op_ms_p50"], "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (fig["peak_rss_mb"], "MB"),
    }
    n = fig["latency_n"]
    print(f"{workload} seed={seed}: {attempted} ops in {fig['measured_s']:.2f}s wall,"
          f" {fig['nominal_s']:.2f}s nominal ({fig['kernel_samples']} kernel samples), {failed} failed")
    print(f"  setup_s      {_num(metrics['setup_s'][0])} s      median of {len(setup)} spawns"
          f" (wall {_num(statistics.median(walls))} s)")
    print(f"  ops_per_s    {_num(fig['ops_per_s'])} 1/s      (wall {_num(fig['wall_ops_per_s'])} 1/s)")
    print(f"  op_ms_p50    {_num(fig['op_ms_p50'])} ms     n={n} successful timed ops"
          f" (wall {_num(fig['wall_op_ms_p50'])} ms)")
    if fig["op_ms_p95"] is None:
        print(f"  op_ms_p95    withheld        n={n}, {fig['p95_beyond']} beyond (needs 10)")
    else:
        print(f"  op_ms_p95    {_num(fig['op_ms_p95'])} ms     n={n}, {fig['p95_beyond']} beyond")
    print(f"  fail_ratio   {_num(failed / attempted)}         {failed}/{attempted}  by type {fig['failures']}")
    print(f"  ok_ratio     {_num(metrics['ok_ratio'][0])}")
    print(f"  peak_rss_mb  {_num(fig['peak_rss_mb'])} MB")
    if workload == "oracle-large":
        for name, dim, secs, err in fig["per_op"]:
            print(f"    dim {dim:>4}  {secs:8.3f}s  {name}{'  ' + err if err else ''}")
    print("# meta " + json.dumps(metadata()))
    return {
        "correct": "WrongAnswer" not in fig["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# units of the per-layer metrics, by name suffix
_UNITS = {"calls": "count", "self_s": "s", "wall_s": "s", "entries": "count", "candidates": "count",
          "out_dim_max": "dim", "ops_per_s": "1/s"}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("scaling."):
        return "s"
    return _UNITS.get(last, "ratio")


def traced(workload: str, seed: int, seconds: float) -> dict:
    """An untraced and a traced run of the same inputs, half the time each."""
    half = max(1.0, seconds / 2)
    plain = run_worker(workload, seed, half)
    fig = run_worker(workload, seed, half, trace=True)
    layer = fig["per_layer"]
    layer["trace.overhead_ratio"] = plain["ops_per_s"] / layer["trace.ops_per_s"]
    print(f"{workload} seed={seed} traced: {fig['attempted']} ops, {fig['failed']} failed, by type {fig['failures']}")
    print(f"  untraced ops_per_s {_num(plain['ops_per_s'])}, traced {_num(layer['trace.ops_per_s'])}:"
          f" tracing slows ops by x{layer['trace.overhead_ratio']:.3g}")
    for name, value in layer.items():
        print(f"  {name:42s} {_num(value):>10} {_unit(name)}")
    print("# meta " + json.dumps(metadata()))
    return {
        "correct": "WrongAnswer" not in fig["failures"],
        "attempted": fig["attempted"],
        "failed": fig["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, for people")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "d4green" / "__init__.py").is_file():
        print(f"error: no d4green package under {SRC}", file=sys.stderr)
        return 2
    measure = traced if args.trace else untraced
    try:
        if args.workload is None:
            for workload in WORKLOADS:
                measure(workload, args.seed, args.seconds)
            return 0
        result = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
