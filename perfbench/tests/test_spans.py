"""Span arithmetic, tracer installation, expression-graph counts, and the
tail and speed-scaling arithmetic of the timed run."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hermicurv  # noqa: E402
import hermicurv.cli  # noqa: E402
import hermicurv.engine  # noqa: E402
import hermicurv.field  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
from run import tail  # noqa: E402
from spans import Tracer, graph_size, layer_stats  # noqa: E402
from workloads import Op, Prepared  # noqa: E402


def test_self_time_of_nested_spans():
    names = ["op", "a", "b", "a[x/2]"]
    #        op      a       b      a       a (recursive)  a[x/2] under op
    name = [0, 1, 2, 1, 1, 3]
    parent = [-1, 0, 1, 0, 3, 0]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 9.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 9.5]
    stats = layer_stats(names, name, parent, start, end)

    assert stats["op"] == {"calls": 1, "busy_s": 10.0, "self_s": 2.5}
    assert stats["b"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    # the recursive span is inside another "a", so busy counts it once
    assert stats["a"] == {"calls": 4, "busy_s": 7.5, "self_s": 6.5}
    assert stats["a[x/2]"] == {"calls": 1, "busy_s": 0.5, "self_s": 0.5}
    total_self = sum(stats[k]["self_s"] for k in ("op", "a", "b"))
    assert total_self == pytest.approx(stats["op"]["busy_s"])


def test_empty_trace_has_no_stats():
    assert layer_stats(["op"], [], [], [], []) == {}


def test_install_rebinds_every_import_and_uninstall_restores():
    original = hermicurv.field.jet_at
    einsum = np.einsum
    metric = hermicurv.catalog_metric("fubini_study", 2)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = hermicurv.engine.jet_at
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert hermicurv.field.jet_at is wrapped and hermicurv.jet_at is wrapped
        assert hermicurv.cli.geometry_at is hermicurv.engine.geometry_at
        tracer.op(lambda: hermicurv.geometry_at(metric, [0.1j, 0.2]))
    finally:
        tracer.uninstall()
    assert hermicurv.engine.jet_at is original and hermicurv.field.jet_at is original
    assert np.einsum is einsum

    stats = layer_stats(tracer.names, *tracer.arrays())
    assert stats["field.jet_at"]["calls"] == 1
    assert stats["field.jet_at[fubini_study/2]"]["calls"] == 1
    assert stats["dsl.evaluate"]["calls"] == 4 * (4 + 12)
    assert tracer.counters["dsl.derivative.calls"] == 4 * (4 + 12)
    inside = sum(v["self_s"] for k, v in stats.items() if k != "op" and "[" not in k)
    assert inside + stats["op"]["self_s"] == pytest.approx(stats["op"]["busy_s"])


def test_graph_size_matches_known_counts():
    assert graph_size(hermicurv.catalog_metric("fubini_study", 2)) == (11224, 582)
    assert graph_size(hermicurv.catalog_metric("euclidean", 1)) == (1 + 2 + 3, 2)


@pytest.mark.parametrize("count, highest, pct", [
    (9, 99.9, 50.0), (30, 99.9, 50.0), (40, 99.9, 75.0), (99, 99.9, 75.0), (100, 99.9, 90.0),
    (200, 99.9, 95.0), (1000, 99.9, 99.0), (1000, 90.0, 90.0), (60, 90.0, 75.0),
])
def test_tail_keeps_ten_samples_beyond(count, highest, pct):
    got_pct, value = tail([float(i) for i in range(count)], highest)
    assert got_pct == pct
    if count >= 20:
        assert sum(v > value for v in range(count)) >= 10


def test_timed_run_scales_latencies_to_the_reference_speed(monkeypatch):
    # the calibration loop takes twice its reference time: a host at half speed
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.REFERENCE_S)
    ops = [Op(f"op{i}", lambda: None, lambda out: None) for i in range(20)]
    tally = run.Tally()
    got = run.timed_run(Prepared(ops, [], [], []), 0.0, tally, 50.0)
    assert got["repeats"] == 1 and got["samples"] == 20 and tally.attempted == 20
    assert got["ops_per_s"] == pytest.approx(2 * got["raw"]["ops_per_s"])
    assert got["op_p50_ms"] == pytest.approx(got["raw"]["op_p50_ms"] / 2)
    assert got["op_tail_ms"] == pytest.approx(got["raw"]["op_tail_ms"] / 2)
