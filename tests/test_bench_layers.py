"""The traced benchmark wraps program functions by name (bench/layers.py).

The suite does not collect bench/, so these tests are what fail when a
change deletes or renames a function that the benchmark still wraps, or
breaks one of the benchmark's own tests.
"""

import subprocess
import sys
from pathlib import Path

from d4green import cli, grammar, green, linalg, presentation, replab, verify
from d4green.linalg import RatMatrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_wrappers_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing

    owners = (RatMatrix, linalg, replab, green, presentation, grammar, verify, cli)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        assert vars(RatMatrix)["__matmul__"] is not before[0]["__matmul__"]
        assert vars(replab)["decompose"] is not before[2]["decompose"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_benchmark_tests_pass():
    # bench/conftest.py and tests/conftest.py are both top-level `conftest`
    # modules, so one pytest session cannot collect both directories
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench"], cwd=BENCH.parent, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_verify_jobs2_entry_points(monkeypatch):
    # the verify-jobs2 workload swaps both pair checks and calls run_scope
    # with these keywords
    calls = {"table": 0, "braiding": 0}

    def counting(name, check):
        def wrapper(pair):
            calls[name] += 1
            return check(pair)

        return wrapper

    monkeypatch.setattr(verify, "_check_table_pair", counting("table", verify._check_table_pair))
    monkeypatch.setattr(verify, "_check_braiding_pair", counting("braiding", verify._check_braiding_pair))
    reports = verify.run_scope("all", max_s=1, etas=(), seed=0, jobs=1)
    assert all(report.passed for report in reports)
    assert calls == {"table": 55, "braiding": 55}


def test_symbolic_block_answers_match_the_label_model(monkeypatch):
    # the symbolic workload checks each op against the label model; a
    # wrong answer turns the benchmark's `correct` false, so run one block
    # here with the same checks
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    block = next(workloads.symbolic(1))
    failures, ok = [], 0
    for op in block:
        try:
            out = op.call()
        except ValueError:  # the 4300-digit limit that only cli.main lifts
            failures.append(op.name)
            continue
        assert op.check(out), op.name
        ok += 1
    assert len(block) == 96
    assert ok >= 92, failures
