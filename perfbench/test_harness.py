"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest perfbench -q`` from the root of the
checkout.  They check the tracer's patching and accounting, the seed
contract and the calibration arithmetic; none of them measures a speed.
"""

import dataclasses
import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from repro import telemetry  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every (owner, attribute) -> object that a tracer install may touch."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            out[(id(module), attr)] = value
            if isinstance(value, type):
                for key, member in list(vars(value).items()):
                    out[(id(value), key)] = member
    return out


def test_uninstall_restores_every_patched_attribute():
    before = _bindings()
    tracer = tracing.Tracer("selftest")
    tracer.install()
    try:
        patched = list(tracer.patches)
        assert len(patched) >= len(tracing.TARGETS)
        assert tracing.wrapped_bindings()
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert tracing.wrapped_bindings() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _event(sid, parent, start, end):
    return {"name": sid, "start": float(start), "dur": float(end - start),
            "pid": 1, "attrs": {"sid": sid, "parent": parent}}


def test_self_times_of_a_synthetic_tree_sum_to_wall_time():
    spans = [
        _event("root", None, 0, 10),
        _event("a", "root", 1, 4),
        _event("a1", "a", 2, 3),
        _event("b", "root", 5, 9),
        _event("b1", "b", 5, 6),
        _event("b2", "b", 5.5, 7),  # overlaps b1: counted once
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx(
        {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 2.0, "b1": 1.0, "b2": 1.5})
    covered, accounted = tracing.coverage(spans, "root")
    assert covered == pytest.approx(0.7)
    # b1 and b2 overlap, so their self times double-count 0.5 s.
    assert accounted == pytest.approx(10.5 / 10)


def test_tracer_spans_nest_and_account_for_wall_time():
    ticks = itertools.count()
    tracer = tracing.Tracer("selftest")
    recorder = telemetry.Recorder(run_id="selftest")
    with telemetry.use_timer(lambda: float(next(ticks))):
        with telemetry.activate(recorder), tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
    spans = tracing.bench_spans(recorder.spans)
    by_name = {e["name"]: e for e in spans}
    assert by_name["a1"]["attrs"]["parent"] == by_name["a"]["attrs"]["sid"]
    assert by_name["a"]["attrs"]["parent"] == by_name["root"]["attrs"]["sid"]
    assert {e["attrs"]["run"] for e in spans} == {"selftest"}
    root_sid = by_name["root"]["attrs"]["sid"]
    covered, accounted = tracing.coverage(spans, root_sid)
    assert accounted == pytest.approx(1.0)
    assert 0.0 < covered < 1.0


@pytest.fixture(scope="module")
def small():
    """gs_iread cut down to a couple of seconds per estimate."""
    return dataclasses.replace(
        workloads.WORKLOADS["gs_iread"], n_samples=512, n_gibbs=4,
        n_chains=4,
    )


def test_seeds_reproduce_and_differ(small):
    seeds = [workloads.estimate_seed(seed, small, 0) for seed in (1, 1, 2)]
    assert seeds[0] == seeds[1] != seeds[2]
    assert workloads.estimate_seed(1, small, 1) != seeds[0]
    results = [
        workloads.run_estimate(small, workloads.build_problem(), s,
                               None, run.OUT)
        for s in seeds
    ]
    assert workloads.same_result(results[0], results[1])
    assert results[0].failure_probability != results[2].failure_probability


def test_traced_estimate_matches_untraced(small):
    seed = workloads.estimate_seed(3, small, 0)
    plain = workloads.run_estimate(small, workloads.build_problem(),
                                   seed, None, run.OUT)
    tracer = tracing.Tracer("selftest")
    recorder = telemetry.Recorder(run_id="selftest")
    problem = workloads.build_problem()
    with tracer.installed():
        with telemetry.activate(recorder), tracer.span(tracing.ROOT):
            traced = workloads.run_estimate(small, problem, seed, None,
                                            run.OUT)
    assert workloads.same_result(plain, traced)
    estimate = run.Estimate(seed=seed, wall_s=1.0, result=traced)
    metrics, notes = run.layer_metrics(
        tracing, workloads, small, recorder, estimate, 1.0)
    assert notes == []
    assert metrics["sram.metric_rows"] == workloads.sims_total(traced)
    assert metrics["trace.coverage"] >= run.COVERAGE_FLOOR


def test_balanced_median_weighs_cores_equally():
    samples = [(0, 4.0), (0, 6.0), (0, 5.0), (1, 2.0)]
    assert run.balanced_median(samples) == pytest.approx((5.0 + 2.0) / 2)
    assert run.balanced_median([(None, 3.0), (None, 1.0)]) == 2.0
    assert run.balanced_median([]) == 0.0


def test_calibration_pass_is_fixed_work():
    assert calibrate.one_pass() == calibrate.one_pass()
    assert calibrate.pass_seconds(passes=1) > 0.0


def test_pass_time_ratio_per_core():
    walls = [(0, 4.0), (0, 6.0), (0, 5.0), (1, 2.0)]
    passes = [(0, 0.1), (0, 0.2), (0, 0.3), (1, 0.1), (1, 0.1)]
    assert run.balanced_ratio(walls, passes) == pytest.approx(
        (5.0 / 0.2 + 2.0 / 0.1) / 2)
    assert run.balanced_ratio([], passes) == 0.0


def test_pooled_pass_time_is_harmonic_mean():
    # A pool's speed is the sum of its cores' speeds: 1/2 + 1/3 passes/s.
    assert calibrate.pooled_seconds([2.0, 3.0]) == pytest.approx(
        2.0 / (1 / 2.0 + 1 / 3.0))
    assert calibrate.pooled_seconds([2.0]) == 2.0
