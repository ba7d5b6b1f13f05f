"""Tests of the benchmark itself: python3 -m pytest bench"""

import pytest

import hostspeed
import layers
import tracing
import workloads
from worker import p95

from d4green import replab
from d4green.green import omega, projective, simple_one, simple_two
from d4green.linalg import RatMatrix


def _names(blocks, n):
    names = (op.name for block in blocks for op in block)
    return [name for _, name in zip(range(n), names)]


@pytest.mark.parametrize("make", [workloads.oracle_grid, workloads.symbolic])
def test_same_seed_gives_same_inputs(make):
    assert _names(make(5), 60) == _names(make(5), 60)
    assert _names(make(5), 60) != _names(make(6), 60)


def test_grid_covers_each_stratum_once_per_pass():
    strata = workloads.grid_strata()
    assert sum(len(s) for s in strata) == 1953
    order = workloads.spread_order(len(strata))
    assert sorted(order) == list(range(len(strata)))
    picked = [op.name for _, (op,) in zip(range(len(strata)), workloads.oracle_grid(3))]
    allowed = [{f"{a} x {b}" for a, b in strata[k]} for k in order]
    assert all(name in names for name, names in zip(picked, allowed))


def test_planted_wrong_decomposition_is_a_failure(monkeypatch):
    real = replab.decompose
    monkeypatch.setattr(replab, "decompose", lambda rep: real(rep)[1:])
    ops = [workloads.oracle_op(simple_two(0), simple_two(0)), workloads.oracle_op(omega(1, 0))]
    tally = workloads.closed_loop(iter([ops]), seconds=0)
    assert tally.attempted == 2
    assert tally.failures == {workloads.WRONG: 2}
    assert tally.ok_s == []


def test_raising_op_is_tallied_by_type():
    def boom():
        raise RecursionError("deep")

    ops = [workloads.Op("boom", boom, lambda out: True), workloads.oracle_op(projective(0), simple_one(1))]
    tally = workloads.closed_loop(iter([ops]), seconds=0)
    assert tally.failures == {"RecursionError": 1}
    assert len(tally.ok_s) == 1


def test_pool_failure_types():
    assert workloads._failure_type("table", ("C1", None)) is None
    assert workloads._failure_type("table", ("C3", "C3: V(0) x P(1): DecompositionError: gap")) == "DecompositionError"
    assert workloads._failure_type("table", ("C3", "C3: V(0) x P(1): oracle [P(1)] != table [P(0)]")) == workloads.WRONG
    assert workloads._failure_type("braiding", "V(0) x P(1): braiding map is not an invertible intertwiner") == workloads.WRONG
    assert workloads._failure_type("braiding", "V(0) x P(1): ValueError: shape") == "ValueError"


def test_self_time_on_a_synthetic_span_tree():
    # op [0,10] > a [1,4] (0.5 s of leaf calls) > b [2,3]; op > a [5,6]; op > c [6,9]
    spans = [
        ["op", 0.0, 10.0, -1, 1, 0.0],
        ["a", 1.0, 4.0, 0, 1, 0.5],
        ["b", 2.0, 3.0, 1, 1, 0.0],
        ["a", 5.0, 6.0, 0, 1, 0.0],
        ["c", 6.0, 9.0, 0, 1, 0.0],
    ]
    got = tracing.self_times(spans)
    assert got["op"] == [1, pytest.approx(3.0)]
    assert got["a"] == [2, pytest.approx(2.5)]
    assert got["b"] == [1, pytest.approx(1.0)]
    assert got["c"] == [1, pytest.approx(3.0)]


def test_tracer_closes_spans_unwound_by_an_exception():
    tracer = tracing.Tracer()

    def inner():
        raise ValueError

    traced_inner = tracer.span("inner", inner)
    outer = tracer.span("outer", lambda: traced_inner())
    tracer.begin_op()
    with pytest.raises(ValueError):
        outer()
    tracer.end_op()
    assert not tracer.stack
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)
    assert set(tracer.summary()["self"]) == {"op", "outer", "inner"}


def test_layers_install_and_uninstall_restore_the_program():
    before = dict(vars(RatMatrix)), dict(vars(replab))
    tracer = tracing.Tracer()
    layers.install(tracer)
    tracer.begin_op()
    labels = replab.decompose(replab.tensor(replab.build(omega(1, 0)), replab.build(omega(-1, 0))))
    tracer.end_op()
    tracer.uninstall()
    assert labels == workloads._expected_labels(omega(1, 0), omega(-1, 0))
    assert (dict(vars(RatMatrix)), dict(vars(replab))) == before
    metrics = layers.per_layer(tracer.summary())
    assert metrics["replab.decompose.calls"] == 1
    assert metrics["linalg.rref.calls"] > 0
    assert 0 < metrics["trace.accounted_share"] <= 1


def test_p95_is_withheld_below_ten_samples_beyond_it():
    value, beyond = p95([float(x) for x in range(100)])
    assert value is None and beyond == 5
    value, beyond = p95([float(x) for x in range(300)])
    assert value == pytest.approx(284.95) and beyond >= 10


def test_nominal_time_scales_wall_time_by_the_kernel(monkeypatch):
    # the host runs at half speed: the kernel takes twice its nominal time
    monkeypatch.setattr(hostspeed, "kernel_s", lambda: 2 * hostspeed.NOMINAL_S)
    clock = hostspeed.HostClock(every_s=0.5)
    for wall in (0.1, 0.3, 0.2, 1.5, 0.4):
        clock.tick()
        clock.record(wall)
    assert clock.finish() == pytest.approx([0.05, 0.15, 0.1, 0.75, 0.2])
    assert len(clock.samples) > 3


def test_run_ends_at_the_block_boundary_nearest_to_its_length():
    assert not workloads.done(measured_s=7.5, block_s=4.0, seconds=10.0)
    assert workloads.done(measured_s=9.0, block_s=4.0, seconds=10.0)
    assert workloads.done(measured_s=0.0, block_s=0.0, seconds=0.0)
