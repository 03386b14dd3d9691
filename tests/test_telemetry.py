"""Tests for the run-wide telemetry subsystem (repro.telemetry).

Three properties carry the subsystem:

* **strict additivity** — the parallel layer's bit-identity contract holds
  with tracing on and off, on every backend;
* **exact attribution** — after the merge-time fold, the recorder's
  ``metric.sims`` total equals ``CountedMetric.count`` on every backend,
  and worker spans keep their worker pids;
* **zero-cost disable** — with no recorder active, instrumented sites are
  no-ops and a run records nothing.
"""

import collections
import json
import logging
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.baselines.blockade import statistical_blockade
from repro.gibbs.two_stage import gibbs_importance_sampling
from repro.mc.counter import CountedMetric
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.parallel import ParallelExecutor, probe_metric_cost, run_worker
from repro.synthetic import LinearMetric
from repro.telemetry import clock as telemetry_clock
from repro.telemetry import context as telemetry_context
from repro.telemetry import logs as telemetry_logs

BACKENDS = ("serial", "thread", "process")


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


@pytest.fixture(autouse=True)
def _no_leaked_sinks():
    """Every test must leave both process-local sink slots empty."""
    yield
    assert telemetry_context.get_active() is None
    assert telemetry_context.get_engine() is None


def _fake_timer(step=1.0):
    state = {"t": 0.0}

    def timer():
        state["t"] += step
        return state["t"]

    return timer


class TestRecorder:
    def test_counters_gauges_histograms(self):
        rec = telemetry.Recorder("t")
        rec.count("sims", 5)
        rec.count("sims", 3)
        rec.gauge("workers", 4)
        rec.gauge("workers", 8)
        rec.observe("latency", 2.0)
        rec.observe("latency", 4.0)
        assert rec.counters["sims"] == 8
        assert rec.gauges["workers"] == 8
        assert rec.histograms["latency"] == [2, 6.0, 2.0, 4.0]

    def test_span_records_wall_time_and_counters(self):
        with telemetry_clock.use_timer(_fake_timer()):
            rec = telemetry.Recorder("t")
            with rec.span("stage", kind="demo") as sp:
                sp.add("sims", 100)
        (event,) = rec.spans
        assert event["name"] == "stage"
        assert event["attrs"] == {"kind": "demo"}
        assert event["counters"] == {"sims": 100}
        assert event["dur"] == pytest.approx(1.0)
        assert event["pid"] > 0 and event["tid"] > 0

    def test_fresh_recorder_is_empty(self):
        assert telemetry.Recorder("t").n_events == 0

    def test_fold_merges_worker_record(self):
        parent = telemetry.Recorder("parent")
        parent.count("sims", 10)
        parent.observe("w", 1.0)
        worker = telemetry.Recorder("worker")
        worker.count("sims", 7)
        worker.observe("w", 5.0)
        with worker.span("shard"):
            pass
        parent.fold(worker.to_record())
        assert parent.counters["sims"] == 17
        assert parent.histograms["w"] == [2, 6.0, 1.0, 5.0]
        assert len(parent.spans) == 1

    def test_summary_lists_spans_and_counters(self):
        with telemetry_clock.use_timer(_fake_timer()):
            rec = telemetry.Recorder("t")
            with rec.span("stage") as sp:
                sp.add("sims", 12)
        rec.count("metric.sims", 12)
        text = rec.summary()
        assert "stage" in text
        assert "sims=12" in text
        assert "metric.sims" in text

    def test_to_record_is_picklable_snapshot(self):
        import pickle

        rec = telemetry.Recorder("t")
        rec.count("a", 1)
        record = rec.to_record()
        assert pickle.loads(pickle.dumps(record)) == record


class TestActiveRecorderFastPath:
    def test_disabled_helpers_are_noops(self):
        assert telemetry.get_active() is None
        assert not telemetry.enabled()
        assert telemetry.get_engine() is None
        assert telemetry.span("x") is telemetry.NULL_SPAN
        assert telemetry.stage("mc") is telemetry.NULL_SPAN
        telemetry.count("x")
        telemetry.gauge("x", 1)
        telemetry.observe("x", 1)
        with telemetry.span("x") as sp:
            sp.add("y")
        callback = object()
        hooks = telemetry_context
        assert hooks.shards_mapped(len, 3, callback) is callback
        hooks.shard_completed(len, None, 1.0)
        hooks.shards_replayed("mc", [object()], 2, 0)
        hooks.chain_diagnostics(1.0, 10.0)

    def test_activate_installs_both_sinks_and_restores(self):
        rec, engine = telemetry.Recorder("t"), telemetry.ProgressEngine()
        with telemetry.activate(rec, engine=engine) as active:
            assert active is rec
            assert telemetry.get_active() is rec
            assert telemetry.get_engine() is engine
            # A nested block naming one sink leaves the other in place.
            with telemetry.activate(telemetry.Recorder("inner")):
                assert telemetry.get_engine() is engine
            assert telemetry.get_active() is rec
            with telemetry.stage("mc", samples=4) as sp:
                sp.add("sims", 4)
                assert engine.snapshot()["stages"][0]["active"]
        assert not engine.snapshot()["stages"][0]["active"]
        (span,) = rec.spans
        assert span["name"] == telemetry.STAGES["mc"].span == "mc.run"
        assert span["counters"] == {"sims": 4}

    def test_activate_scopes_the_recorder(self):
        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            assert telemetry.get_active() is rec
            telemetry.count("sims", 2)
        assert telemetry.get_active() is None
        assert rec.counters["sims"] == 2

    def test_ship_to_workers_requires_active_and_cross_process(self):
        process = ParallelExecutor(n_workers=2, backend="process")
        thread = ParallelExecutor(n_workers=2, backend="thread")
        assert not telemetry.ship_to_workers(process)  # nothing active
        with telemetry.activate(telemetry.Recorder("t")):
            assert telemetry.ship_to_workers(process)
            assert not telemetry.ship_to_workers(thread)
            assert not telemetry.ship_to_workers(None)

    def test_shard_telemetry_disabled_records_nothing(self):
        shard = telemetry.ShardTelemetry(False, "s")
        with shard:
            assert telemetry.get_active() is None
        assert shard.record() is None

    def test_shard_telemetry_installs_fresh_recorder(self):
        stale = telemetry.Recorder("stale")  # plays the forked dead copy
        with telemetry.activate(stale):
            shard = telemetry.ShardTelemetry(True, "s")
            with shard:
                assert telemetry.get_active() is not stale
                telemetry.count("sims", 3)
            assert telemetry.get_active() is stale
        assert shard.record()["counters"] == {"sims": 3}
        assert stale.counters == {}

    def test_fold_shard_records_skips_missing(self):
        class R:
            telemetry = None

        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            telemetry.fold_shard_records([R(), object()])
        # Missing/None records are skipped, never fatal, and each skip is
        # visible as a counter (ledger rows replayed from telemetry-off
        # runs land here).
        assert rec.counters == {"telemetry.folds_skipped": 2}
        assert rec.spans == []

    def test_fold_shard_records_tolerates_malformed(self):
        class R:
            telemetry = {"counters": "not-a-dict", "spans": 7}

        class OK:
            telemetry = {"counters": {"sims": 2}, "spans": []}

        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            telemetry.fold_shard_records([R(), OK()])
        assert rec.counters.get("sims") == 2
        assert rec.counters.get("telemetry.folds_skipped") == 1

    def test_fold_replayed_records_prefixes_counters(self):
        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            telemetry.fold_replayed_records([
                {"counters": {"sims": 5}},
                {"counters": {"sims": 3, "failures": 1}},
                None,  # telemetry-off row: ignored
            ])
        # Replayed work never inflates this run's own counters.
        assert "sims" not in rec.counters
        assert rec.counters["replayed.sims"] == 8
        assert rec.counters["replayed.failures"] == 1
        assert rec.counters["ledger.snapshots_folded"] == 2


class TestSharedClock:
    def test_use_timer_affects_spans_and_probe(self, problem):
        with telemetry_clock.use_timer(_fake_timer(0.5)):
            rec = telemetry.Recorder("t")
            with rec.span("s"):
                pass
            report = probe_metric_cost(problem.metric, problem.dimension)
        assert rec.spans[0]["dur"] == pytest.approx(0.5)
        # Fake clock ticks 0.5 s per read: each timed call measures exactly
        # one tick, so the two-point fit sees identical small/large times.
        assert report.per_row_s == 0.0
        assert report.per_call_s == pytest.approx(0.5)

    def test_set_timer_restores_default(self):
        fake = _fake_timer()
        previous = telemetry_clock.set_timer(fake)
        try:
            assert telemetry_clock.get_timer() is fake
        finally:
            telemetry_clock.set_timer(previous)
        assert telemetry_clock.get_timer() is previous

    def test_explicit_probe_timer_still_wins(self, problem):
        report = probe_metric_cost(
            problem.metric, problem.dimension, timer=_fake_timer(2.0)
        )
        assert report.per_call_s == pytest.approx(2.0)


class TestCountedMetricSnapshot:
    def test_snapshot_returns_consistent_triple(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        counted(np.zeros((5, problem.dimension)))
        counted.add_external(7, calls=2)
        assert counted.snapshot() == (12, 3, 7)

    def test_call_mirrors_into_active_recorder(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        rec = telemetry.Recorder("t")
        with telemetry.activate(rec):
            counted(np.zeros((4, problem.dimension)))
        assert rec.counters["metric.sims"] == 4
        assert rec.counters["metric.calls"] == 1
        assert counted.count == 4


def _traced_gibbs(problem, n_workers, backend, trace):
    counted = CountedMetric(problem.metric, problem.dimension)
    kwargs = dict(
        coordinate_system="spherical", n_gibbs=10, n_chains=4,
        n_second_stage=300, rng=11, n_workers=n_workers, backend=backend,
    )
    if not trace:
        return gibbs_importance_sampling(counted, problem.spec, **kwargs), \
            None, counted
    rec = telemetry.Recorder("t")
    with telemetry.activate(rec):
        result = gibbs_importance_sampling(counted, problem.spec, **kwargs)
    return result, rec, counted


class TestAdditivity:
    """Tracing can never change results: the bit-identity battery re-run."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_bit_identity_with_tracing_on(self, problem, backend, n_workers):
        plain, _, c_plain = _traced_gibbs(problem, n_workers, backend, False)
        traced, rec, c_traced = _traced_gibbs(problem, n_workers, backend, True)
        assert plain.failure_probability == traced.failure_probability
        assert plain.n_first_stage == traced.n_first_stage
        np.testing.assert_array_equal(
            plain.extras["chain"].samples, traced.extras["chain"].samples
        )
        assert c_plain.count == c_traced.count
        assert rec.n_events > 0

    def test_mc_bit_identity_with_tracing_on(self, problem):
        ref = brute_force_monte_carlo(
            problem.metric, problem.spec, 2000,
            dimension=problem.dimension, rng=3, n_workers=2, shard_size=512,
        )
        with telemetry.activate(telemetry.Recorder("t")):
            traced = brute_force_monte_carlo(
                problem.metric, problem.spec, 2000,
                dimension=problem.dimension, rng=3, n_workers=2,
                shard_size=512,
            )
        assert ref.failure_probability == traced.failure_probability


class TestFoldExactness:
    """Parent totals after the fold equal the instrument's, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metric_sims_equal_counted_metric(self, problem, backend):
        _, rec, counted = _traced_gibbs(problem, 2, backend, True)
        assert rec.counters["metric.sims"] == counted.count
        assert rec.counters["metric.calls"] == counted.calls

    def test_worker_spans_carry_worker_pids(self, problem):
        _, rec, _ = _traced_gibbs(problem, 2, "process", True)
        shard_spans = [e for e in rec.spans if e["name"].startswith("shard.")]
        assert shard_spans
        assert all(e["pid"] != rec.pid for e in shard_spans)
        parent_spans = [e for e in rec.spans if e["name"] == "second_stage"]
        assert all(e["pid"] == rec.pid for e in parent_spans)

    def test_shard_span_sims_sum_to_stage_totals(self, problem):
        _, rec, _ = _traced_gibbs(problem, 2, "process", True)
        is_spans = [e for e in rec.spans if e["name"] == "shard.is"]
        total = sum(e["counters"]["sims"] for e in is_spans)
        (stage,) = [e for e in rec.spans if e["name"] == "second_stage"]
        assert total == stage["counters"]["sims"] == 300

    def test_disabled_run_records_nothing(self, problem, monkeypatch):
        calls = _count_sink_calls(
            monkeypatch, lambda: _traced_gibbs(problem, 2, "process", False)
        )
        assert calls == {}
        assert telemetry.get_active() is None


#: Every method through which the library's hooks reach a sink.
SINK_EVENTS = {
    telemetry.Recorder: ("count", "gauge", "observe", "span", "fold"),
    telemetry.ProgressEngine: (
        "stage_begin", "stage_end", "map_started", "shard_done",
        "shards_replayed", "chain_diagnostics", "attach_fleet",
    ),
}


def _count_sink_calls(monkeypatch, run) -> collections.Counter:
    """Run ``run()`` with every sink event method counting its calls.

    The methods are patched on the classes, so a call on *any* instance —
    installed or not, in any thread — is seen.
    """
    calls = collections.Counter()
    for cls, names in SINK_EVENTS.items():
        for name in names:
            def counted(self, *args, _key=f"{cls.__name__}.{name}",
                        _original=getattr(cls, name), **kwargs):
                calls[_key] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    run()
    return calls


def _every_hook_site(problem, checkpoint_dir):
    """A run through every instrumented site: both Gibbs stages with a
    ledger (run twice, so the second replays it), sharded MC, blockade
    and a remote map served by an in-process worker."""
    for _ in range(2):
        gibbs_importance_sampling(
            problem.metric, problem.spec, coordinate_system="spherical",
            n_gibbs=10, n_chains=2, n_second_stage=300, rng=11,
            n_workers=2, backend="thread", checkpoint_dir=checkpoint_dir,
        )
    brute_force_monte_carlo(
        problem.metric, problem.spec, 2000, dimension=problem.dimension,
        rng=3, n_workers=2, backend="thread", shard_size=500,
    )
    statistical_blockade(
        problem.metric, problem.spec, n_samples=4000,
        dimension=problem.dimension, n_train=200, rng=5, n_workers=1,
        shard_size=1000,
    )
    with ParallelExecutor(
        backend="remote", min_workers=1, heartbeat=0.5
    ) as ex:
        worker = threading.Thread(
            target=run_worker, args=ex.address, daemon=True
        )
        worker.start()
        brute_force_monte_carlo(
            problem.metric, problem.spec, 1000,
            dimension=problem.dimension, rng=4, shard_size=500, executor=ex,
        )
    worker.join(timeout=10)


class TestDisabledPath:
    """With no sink installed, no sink method runs anywhere in a run.

    The same harness with both sinks installed must count calls on every
    engine event and on the recorder, which proves the check can fail.
    """

    @pytest.mark.parametrize("installed", [False, True],
                             ids=["off", "on"])
    def test_sink_event_calls(self, problem, tmp_path, monkeypatch,
                              installed):
        def run():
            if not installed:
                _every_hook_site(problem, tmp_path)
                return
            with telemetry.activate(
                telemetry.Recorder("witness"),
                engine=telemetry.ProgressEngine(),
            ):
                _every_hook_site(problem, tmp_path)

        calls = _count_sink_calls(monkeypatch, run)
        assert telemetry.get_active() is None
        assert telemetry.get_engine() is None
        if not installed:
            assert calls == {}
            return
        for name in SINK_EVENTS[telemetry.ProgressEngine]:
            assert calls[f"ProgressEngine.{name}"] > 0, name
        for name in ("count", "gauge", "observe", "span"):
            assert calls[f"Recorder.{name}"] > 0, name


class TestExport:
    def _recorder(self):
        with telemetry_clock.use_timer(_fake_timer()):
            rec = telemetry.Recorder("t")
            with rec.span("stage", kind="demo") as sp:
                sp.add("sims", 9)
        rec.count("metric.sims", 9)
        rec.gauge("workers", 2)
        rec.observe("h", 1.5)
        rec.meta["manifest"] = telemetry.build_manifest(
            command="test", problem="synthetic", seed=1
        )
        return rec

    def test_jsonl_round_trip(self, tmp_path):
        rec = self._recorder()
        path = tmp_path / "events.jsonl"
        telemetry.write_jsonl(rec, path)
        events = telemetry.read_jsonl(path)
        header = events[0]
        assert header["type"] == "header"
        assert header["schema"] == telemetry.JSONL_SCHEMA
        by_type = {e["type"] for e in events}
        assert {"manifest", "span", "counters", "gauges", "histograms"} <= by_type
        (span,) = [e for e in events if e["type"] == "span"]
        assert span["name"] == "stage"
        assert span["counters"] == {"sims": 9}
        (counters,) = [e for e in events if e["type"] == "counters"]
        assert counters["values"] == {"metric.sims": 9}

    def test_chrome_trace_schema(self, tmp_path):
        rec = self._recorder()
        path = tmp_path / "trace.json"
        telemetry.write_chrome_trace(rec, path)
        payload = json.loads(path.read_text())
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] >= 0.0
        assert event["dur"] == pytest.approx(1e6)
        assert event["args"]["sims"] == 9
        assert payload["otherData"]["manifest"]["problem"] == "synthetic"

    def test_manifest_contents(self):
        manifest = telemetry.build_manifest(
            command="estimate", problem="rnm", method="G-S", seed=7,
            n_workers=4, backend="process", argv=["estimate"],
            adaptive={"shard_size": 256},
        )
        assert manifest["workers"] == {"n_workers": 4, "backend": "process"}
        assert manifest["adaptive_sharding"] == {"shard_size": 256}
        assert manifest["versions"]["repro"]
        assert manifest["versions"]["python"]
        assert manifest["timestamp"] > 0


class TestStructuredLogging:
    def _capture(self, json_mode=False):
        import io

        stream = io.StringIO()
        telemetry_logs.configure_cli_logging(
            json_mode=json_mode, stream=stream
        )
        return stream

    def teardown_method(self, method):
        # Leave the logger unconfigured so pytest's own handlers are clean.
        logger = telemetry_logs.get_logger()
        for handler in list(logger.handlers):
            logger.removeHandler(handler)

    def test_levels_render_prefixes(self):
        stream = self._capture()
        telemetry_logs.info("plain line")
        telemetry_logs.warning("careful")
        telemetry_logs.error("broken")
        lines = stream.getvalue().splitlines()
        assert lines == ["plain line", "note: careful", "error: broken"]

    def test_fields_render_as_key_value(self):
        stream = self._capture()
        telemetry_logs.info("written", path="/tmp/x")
        assert stream.getvalue().strip() == "written path=/tmp/x"

    def test_json_mode_emits_parseable_lines(self):
        stream = self._capture(json_mode=True)
        telemetry_logs.info("written", path="/tmp/x")
        payload = json.loads(stream.getvalue())
        assert payload["msg"] == "written"
        assert payload["level"] == "info"
        assert payload["path"] == "/tmp/x"

    def test_logger_does_not_propagate(self):
        self._capture()
        assert telemetry_logs.get_logger().propagate is False


class TestCliTelemetry:
    def test_trace_flags_write_files(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        code = main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "2000", "--seed", "4", "--workers", "2",
            "--trace", str(trace), "--trace-events", str(events),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "MC: P_f" in captured.out
        assert "trace" in captured.err
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "mc.run" in names and "shard.mc" in names
        manifest = payload["otherData"]["manifest"]
        assert manifest["problem"] == "iread" and manifest["seed"] == 4
        assert payload["otherData"]["counters"]["metric.sims"] == 2000
        parsed = telemetry.read_jsonl(events)
        assert parsed[0]["schema"] == telemetry.JSONL_SCHEMA

    def test_untraced_run_keeps_stdout_clean_and_records_nothing(
        self, capsys
    ):
        from repro.cli import main

        code = main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "1000", "--seed", "4",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "MC: P_f" in captured.out
        assert "problem:" not in captured.out  # diagnostics live on stderr
        assert "problem:" in captured.err
        assert telemetry.get_active() is None

    def test_log_json_mode(self, capsys):
        from repro.cli import main

        code = main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "1000", "--seed", "4", "--log-json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        for line in captured.err.strip().splitlines():
            assert json.loads(line)["level"]
        assert "MC: P_f" in captured.out
