"""Run one workload in a fresh interpreter and print its figures as JSON.

run.py starts one of these per measurement, so that ``replab``'s build
cache and the peak resident memory start cold:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_BEYOND = 10  # a percentile is reported only with this many samples above it


def p95(samples: list[float]) -> tuple[float | None, int]:
    """(95th percentile or None, samples above it).

    None when fewer than MIN_BEYOND samples lie beyond it, i.e. below about
    200 samples.
    """
    if len(samples) < 2:
        return None, 0
    value = statistics.quantiles(samples, n=100)[94]
    beyond = sum(1 for x in samples if x > value)
    return (value if beyond >= MIN_BEYOND else None), beyond


def figures(tally) -> dict:
    """End-to-end figures of one untraced run; times in nominal seconds
    (hostspeed.py), with the wall-clock equivalents for people."""
    tail, beyond = p95(tally.ok_nominal)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tally.pool:
        # the workers run `jobs` at a time; count each at the largest one's peak
        rss_kb += tally.pool["jobs"] * tally.pool["child_peak_rss_kb"]
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": dict(tally.failures),
        "measured_s": tally.measured_s,
        "nominal_s": tally.nominal_s,
        "kernel_samples": tally.kernel_samples,
        "ops_per_s": (tally.attempted - tally.failed) / tally.nominal_s,
        "op_ms_p50": 1000 * statistics.median(tally.ok_nominal),
        "wall_ops_per_s": (tally.attempted - tally.failed) / tally.measured_s,
        "wall_op_ms_p50": 1000 * statistics.median(tally.ok_s),
        "op_ms_p95": 1000 * tail if tail is not None else None,
        "latency_n": len(tally.ok_s),
        "p95_beyond": beyond,
        "peak_rss_mb": rss_kb / 1024,
        "per_op": tally.per_op,
    }


def trace_figures(tally, tracer) -> dict:
    """Per-layer figures of one traced run."""
    import layers
    from tracing import END, NAME, OP, PARENT, ROOT, START, merge

    from d4green import replab

    total = tracer.summary()
    if tally.pool:
        merge(total, tally.pool["trace"])
        total["build_cache"] = tally.pool["build_cache"]
    else:
        total["build_cache"] = list(replab._build_cached.cache_info()[:2])
    walls: dict[str, float] = {}
    by_dim: dict[str, list[float]] = {}
    spans = tracer.spans
    for span in spans:
        name = span[NAME]
        if name.startswith("verify."):
            walls[name] = walls.get(name, 0.0) + span[END] - span[START]
        elif name == "replab.decompose" and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == ROOT:
            dim = tally.op_dims.get(spans[span[PARENT]][OP], 0)
            by_dim.setdefault(str(dim), []).append(span[END] - span[START])
    total["walls"] = walls
    total["scaling"] = {dim: statistics.median(v) for dim, v in by_dim.items()}
    if tally.pool:
        pool_wall = walls.get("verify.run_table", 0.0) + walls.get("verify.run_braiding", 0.0)
        total["worker_busy_ratio"] = tally.pool["child_cpu_s"] / (tally.pool["jobs"] * pool_wall)
    metrics = layers.per_layer(total)
    metrics["trace.ops_per_s"] = (tally.attempted - tally.failed) / tally.nominal_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import d4green

    if Path(d4green.__file__).resolve().parent != SRC / "d4green":
        print(f"error: d4green imported from {d4green.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    tally = workloads.run(args.workload, args.seed, args.seconds, tracer)
    if not tally.ok_s or tally.measured_s <= 0:
        print("error: no op succeeded", file=sys.stderr)
        return 1
    if tracer is None:
        result = figures(tally)
    else:
        tracer.uninstall()
        result = {"attempted": tally.attempted, "failed": tally.failed,
                  "failures": dict(tally.failures), "per_layer": trace_figures(tally, tracer)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
