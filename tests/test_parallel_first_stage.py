"""Tests for the process-parallel first-stage Gibbs fan-out.

The first stage's determinism contract is *stronger* than the sampled
stages': chain ``i`` always draws from the spawn-indexed child stream at
its global chain index and the bisection searches between draws are
RNG-free, so the merged chain is bit-identical not only for every worker
count and backend but for every chain-group size — grouping is purely a
performance knob.  These tests pin that contract, the shared-memory shard
transport, the adaptive sizing probe, the sharded blockade screening and
the starting-point spread error.
"""

import pickle

import numpy as np
import pytest

from repro.baselines.blockade import statistical_blockade
from repro.gibbs.cartesian import MultiChainGibbs
from repro.gibbs.starting_point import StartingPoint
from repro.gibbs.two_stage import (
    _spread_starting_points,
    gibbs_importance_sampling,
    run_first_stage,
)
from repro.mc.counter import CountedMetric
from repro.mc.importance import importance_sampling_estimate
from repro.mc.indicator import FailureSpec
from repro.parallel import (
    ParallelExecutor,
    ProbeReport,
    adaptive_group_size,
    adaptive_shard_size,
    merge_blockade_shards,
    merge_chain_shards,
    probe_metric_cost,
    run_gibbs_shard,
    spawn_seed_sequences,
)
from repro.parallel import transport
from repro.parallel.transport import (
    ShmArrayHandle,
    export_array,
    import_array,
    pack_array,
    should_use_shm,
    unpack_array,
)
from repro.stats.mvnormal import MultivariateNormal
from repro.synthetic import LinearMetric

BACKENDS = ("serial", "thread", "process")


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


def _gibbs(problem, coordinate_system="spherical", **kwargs):
    defaults = dict(
        dimension=problem.dimension,
        coordinate_system=coordinate_system,
        n_gibbs=12,
        n_chains=4,
        n_second_stage=300,
        rng=11,
    )
    defaults.update(kwargs)
    return gibbs_importance_sampling(problem.metric, problem.spec, **defaults)


def _assert_same_run(a, b):
    assert a.failure_probability == b.failure_probability
    assert a.n_first_stage == b.n_first_stage
    assert a.n_second_stage == b.n_second_stage
    np.testing.assert_array_equal(
        a.extras["chain"].samples, b.extras["chain"].samples
    )
    np.testing.assert_array_equal(
        a.extras["chain"].per_chain_simulations,
        b.extras["chain"].per_chain_simulations,
    )


class TestFirstStageBitIdentity:
    """The fan-out battery: every backend/worker count, one answer."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_spherical_matches_inline_reference(
        self, problem, backend, n_workers
    ):
        reference = _gibbs(problem, n_workers=1)
        run = _gibbs(problem, n_workers=n_workers, backend=backend)
        _assert_same_run(run, reference)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_cartesian_matches_inline_reference(self, problem, backend):
        reference = _gibbs(problem, coordinate_system="cartesian", n_workers=1)
        run = _gibbs(
            problem, coordinate_system="cartesian",
            n_workers=2, backend=backend,
        )
        _assert_same_run(run, reference)

    @pytest.mark.parametrize("group", [1, 2, 3, 4])
    def test_grouping_never_changes_results(self, problem, group):
        reference = _gibbs(problem, n_workers=1)
        run = _gibbs(
            problem, n_workers=2, backend="thread", chain_group_size=group
        )
        _assert_same_run(run, reference)

    def test_matches_direct_lockstep_with_chain_rngs(self, problem):
        """One merged fan-out == one run_lockstep call on per-chain streams."""
        from repro.gibbs.cartesian import CartesianGibbs

        starts = np.array([[3.0, 1.0], [2.5, 2.0], [3.5, 0.5]])
        seed, n_gibbs = 42, 10
        executor = ParallelExecutor(n_workers=2, backend="serial")
        merged = run_first_stage(
            problem.metric, problem.spec, starts, n_gibbs, executor,
            coordinate_system="cartesian", seed=seed, chain_group_size=1,
        )
        sampler = CartesianGibbs(problem.metric, problem.spec, 2)
        direct = sampler.run_lockstep(
            starts, n_gibbs,
            chain_rngs=[
                np.random.default_rng(child)
                for child in spawn_seed_sequences(seed, 3)
            ],
            verify_start=False,
        )
        np.testing.assert_array_equal(merged.samples, direct.samples)
        np.testing.assert_array_equal(
            merged.per_chain_simulations, direct.per_chain_simulations
        )

    def test_process_counts_fold_exactly(self, problem):
        """Cross-process simulation accounting equals the inline run's."""
        inline = _gibbs(problem, n_workers=1)
        fanned = _gibbs(problem, n_workers=2, backend="process")
        assert fanned.n_first_stage == inline.n_first_stage

    def test_external_count_records_worker_portion(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        gibbs_importance_sampling(
            counted, problem.spec, n_gibbs=8, n_chains=2,
            n_second_stage=300, rng=1, n_workers=2, backend="process",
        )
        assert 0 < counted.external_count <= counted.count
        assert "via workers" in repr(counted)

    def test_single_chain_runs_the_fanout_engine(self, problem):
        """One chain takes the same fan-out path as many: no executor is
        the one-worker inline run of the process-sharded run."""
        inline = _gibbs(problem, n_chains=1, n_workers=None)
        sharded = _gibbs(problem, n_chains=1, n_workers=2, backend="process")
        assert isinstance(inline.extras["chain"], MultiChainGibbs)
        assert inline.extras["chain"].samples.shape == (1, 12, 2)
        _assert_same_run(inline, sharded)

    def test_merge_rejects_missing_chains(self, problem):
        starts = np.array([[3.0, 1.0], [2.5, 2.0]])
        executor = ParallelExecutor(n_workers=1, backend="serial")
        from repro.gibbs.two_stage import GibbsShardTask
        from repro.parallel.sharding import plan_shards

        shards = plan_shards(2, 1)
        seeds = spawn_seed_sequences(0, 2)
        task = GibbsShardTask(
            shard=shards[0], chain_seeds=seeds[:1], metric=problem.metric,
            spec=problem.spec, dimension=2, coordinate_system="cartesian",
            starts=starts[:1], n_gibbs=5,
        )
        result = run_gibbs_shard(task)
        with pytest.raises(ValueError, match="cover 1 chains, expected 2"):
            merge_chain_shards([result], 2)


class TestSharedMemoryTransport:
    def test_round_trip_preserves_bits(self):
        array = np.arange(600.0).reshape(20, 30) / 7.0
        handle = export_array(array)
        assert isinstance(handle, ShmArrayHandle)
        np.testing.assert_array_equal(import_array(handle), array)

    def test_handle_pickles_without_the_array(self):
        """The whole point: the payload never rides the result pickle."""
        array = np.zeros((512, 512))
        handle = export_array(array)
        try:
            assert len(pickle.dumps(handle)) < 500 < array.nbytes
        finally:
            import_array(handle)  # attach + unlink, releasing the block

    def test_pack_unpack_passthrough_without_shm(self):
        array = np.ones((3, 3))
        packed = pack_array(array, use_shm=False)
        assert packed is array
        assert unpack_array(packed) is array
        assert unpack_array(None) is None

    def test_should_use_shm_requires_cross_process(self):
        big = 1 << 21
        assert should_use_shm(
            ParallelExecutor(n_workers=2, backend="process"), big
        )
        assert not should_use_shm(
            ParallelExecutor(n_workers=2, backend="thread"), big
        )
        assert not should_use_shm(
            ParallelExecutor(n_workers=1, backend="process"), big
        )

    def test_should_use_shm_respects_threshold(self):
        executor = ParallelExecutor(n_workers=2, backend="process")
        assert not should_use_shm(executor, 10)
        assert should_use_shm(executor, 10, threshold=8)

    def test_falls_back_cleanly_when_shm_unavailable(self, monkeypatch):
        monkeypatch.setattr(transport, "SHM_AVAILABLE", False)
        executor = ParallelExecutor(n_workers=2, backend="process")
        assert not should_use_shm(executor, 1 << 21)
        array = np.ones((4, 4))
        assert pack_array(array, use_shm=True) is array

    def test_gibbs_shard_payload_is_a_handle(self, problem):
        """A shm-enabled shard result pickles small; merge resolves it."""
        from repro.gibbs.two_stage import GibbsShardTask
        from repro.parallel.sharding import plan_shards

        (shard,) = plan_shards(2, 2)
        task = GibbsShardTask(
            shard=shard, chain_seeds=spawn_seed_sequences(3, 2),
            metric=problem.metric, spec=problem.spec, dimension=2,
            coordinate_system="cartesian",
            starts=np.array([[3.0, 1.0], [2.5, 2.0]]), n_gibbs=50,
            shm_payloads=True,
        )
        result = run_gibbs_shard(task)
        assert isinstance(result.samples, ShmArrayHandle)
        assert len(pickle.dumps(result)) < result.samples.nbytes
        merged = merge_chain_shards([result], 2)
        assert merged.samples.shape == (2, 50, 2)

    def test_second_stage_shm_equals_pickle_transport(
        self, problem, monkeypatch
    ):
        proposal = MultivariateNormal(
            np.array([2.0, 1.0]), 0.25 * np.eye(2)
        )

        def run():
            return importance_sampling_estimate(
                CountedMetric(problem.metric, problem.dimension),
                problem.spec, proposal, 400, rng=5, store_samples=True,
                n_workers=2, backend="process", shard_size=128,
            )

        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "1")
        via_shm = run()
        monkeypatch.delenv("REPRO_SHM_MIN_BYTES")
        via_pickle = run()
        assert via_shm.failure_probability == via_pickle.failure_probability
        np.testing.assert_array_equal(
            via_shm.extras["samples"], via_pickle.extras["samples"]
        )


class _FakeClock:
    """Deterministic timer: each call advances by a scripted step."""

    def __init__(self, step):
        self.step = step
        self.now = 0.0
        self.rows = 0

    def __call__(self):
        self.now += self.step
        return self.now


class TestAdaptiveSizing:
    def test_probe_is_pure_given_a_fake_timer(self, problem):
        metric = CountedMetric(problem.metric, problem.dimension)
        reports = [
            probe_metric_cost(metric, 2, timer=_FakeClock(0.001))
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert reports[0].n_probe_sims == (16 + 512) * 3
        assert metric.count == 2 * reports[0].n_probe_sims

    def test_probe_draws_are_seed_deterministic(self):
        seen = []

        def recording_metric(x):
            seen.append(np.array(x))
            return np.zeros(x.shape[0])

        probe_metric_cost(recording_metric, 3, seed=9, repeats=1)
        first = [s.copy() for s in seen]
        seen.clear()
        probe_metric_cost(recording_metric, 3, seed=9, repeats=1)
        for a, b in zip(first, seen):
            np.testing.assert_array_equal(a, b)

    def test_probe_validates_arguments(self):
        with pytest.raises(ValueError, match="probe_rows"):
            probe_metric_cost(lambda x: x[:, 0], 2, probe_rows=(512, 16))
        with pytest.raises(ValueError, match="repeats"):
            probe_metric_cost(lambda x: x[:, 0], 2, repeats=0)

    def test_shard_size_is_pure_and_snapped(self):
        report = ProbeReport(
            per_call_s=1e-4, per_row_s=1e-6,
            probe_rows=(16, 512), repeats=3, n_probe_sims=1584,
        )
        size = adaptive_shard_size(1_000_000, report, n_workers=4)
        assert size == adaptive_shard_size(1_000_000, report, n_workers=4)
        assert size & (size - 1) == 0  # power of two
        assert 64 <= size <= 1 << 16

    def test_slow_metric_gets_small_shards(self):
        fast = ProbeReport(1e-5, 1e-7, (16, 512), 3, 1584)
        slow = ProbeReport(1e-5, 1e-2, (16, 512), 3, 1584)
        assert adaptive_shard_size(100_000, slow) < adaptive_shard_size(
            100_000, fast
        )
        assert adaptive_shard_size(100_000, slow) == 64  # floor

    def test_shard_size_never_exceeds_total(self):
        # The pow2 floor is 64; a smaller workload caps at n_total itself.
        report = ProbeReport(0.0, 0.0, (16, 512), 3, 1584)
        assert adaptive_shard_size(50, report) == 50

    def test_group_size_bounds(self):
        slow = ProbeReport(1e-2, 1e-3, (16, 512), 3, 1584)
        assert adaptive_group_size(8, slow, n_workers=2) == 1
        fast = ProbeReport(1e-9, 1e-10, (16, 512), 3, 1584)
        assert adaptive_group_size(8, fast, n_workers=2) == 4  # ceil(8/2)

    def test_adaptive_runs_on_default_executor(self, problem):
        """Without workers, adaptive sizing tunes the one inline worker."""
        gibbs = _gibbs(
            problem, chain_group_size="adaptive", shard_size="adaptive"
        )
        record = gibbs.extras["adaptive_sharding"]
        assert 1 <= record["chain_group_size"] <= 4
        assert 1 <= record["shard_size"] <= 300
        second = importance_sampling_estimate(
            CountedMetric(problem.metric, problem.dimension),
            problem.spec,
            MultivariateNormal(np.array([2.0, 1.0]), np.eye(2)),
            400, rng=0, shard_size="adaptive",
        )
        assert 1 <= second.extras["adaptive_sharding"]["shard_size"] <= 400

    def test_adaptive_run_records_grid_and_replays_bitwise(self, problem):
        adaptive = _gibbs(
            problem, n_workers=2, backend="thread",
            chain_group_size="adaptive", shard_size="adaptive",
        )
        record = adaptive.extras["adaptive_sharding"]
        assert set(record) == {"probe", "chain_group_size", "shard_size"}
        assert record["probe"]["n_probe_sims"] > 0
        # Replaying with the recorded integers reproduces the estimate
        # exactly (the probe cost shows up in the first-stage accounting
        # only, so compare the sampling outcomes, not n_first_stage).
        replay = _gibbs(
            problem, n_workers=2, backend="thread",
            chain_group_size=record["chain_group_size"],
            shard_size=record["shard_size"],
        )
        assert replay.failure_probability == adaptive.failure_probability
        np.testing.assert_array_equal(
            replay.extras["chain"].samples, adaptive.extras["chain"].samples
        )


class TestShardedBlockade:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_backend_battery_is_bit_identical(
        self, problem, backend, n_workers
    ):
        reference = statistical_blockade(
            problem.metric, problem.spec, 6000,
            dimension=problem.dimension, n_train=300, rng=4,
            n_workers=1, shard_size=1024,
        )
        run = statistical_blockade(
            problem.metric, problem.spec, 6000,
            dimension=problem.dimension, n_train=300, rng=4,
            n_workers=n_workers, backend=backend, shard_size=1024,
        )
        assert run.failure_probability == reference.failure_probability
        assert run.n_second_stage == reference.n_second_stage
        assert run.extras["n_blocked"] == reference.extras["n_blocked"]

    def test_training_stage_is_shared_with_legacy_path(self, problem):
        """Sharding only touches screening: thresholds match the serial run."""
        legacy = statistical_blockade(
            problem.metric, problem.spec, 4000,
            dimension=problem.dimension, n_train=300, rng=8,
        )
        sharded = statistical_blockade(
            problem.metric, problem.spec, 4000,
            dimension=problem.dimension, n_train=300, rng=8,
            n_workers=2, backend="serial", shard_size=1000,
        )
        assert (
            sharded.extras["blockade_threshold"]
            == legacy.extras["blockade_threshold"]
        )

    def test_process_counts_fold(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        result = statistical_blockade(
            counted, problem.spec, 6000, n_train=300, rng=4,
            n_workers=2, backend="process", shard_size=1024,
        )
        assert counted.count == 300 + result.n_second_stage

    def test_merge_rejects_partial_coverage(self):
        class R:
            count, n_failures, n_simulated = 10, 1, 2

        with pytest.raises(ValueError, match="expected 30"):
            merge_blockade_shards([R()], 30)


def _needle_metric(x):
    # Fails only inside a 1e-6 ball around (3, 0): jittered candidates
    # essentially never land there.
    return np.linalg.norm(x - np.array([3.0, 0.0]), axis=1) - 1e-6


class TestSpreadStartingPoints:
    def _start(self):
        return StartingPoint(
            x=np.array([3.0, 0.0]), r=3.0, alpha=np.array([0.0]),
            n_simulations=0, surrogate=None,
        )

    def test_unplaceable_chains_raise_clearly(self):
        spec = FailureSpec(0.0, fail_below=True)
        with pytest.raises(ValueError, match="chain_jitter=0"):
            _spread_starting_points(
                _needle_metric, spec, self._start(), 4,
                np.random.default_rng(0), zeta=8.0, jitter=0.5,
            )

    def test_zero_jitter_opts_into_duplicates(self):
        spec = FailureSpec(0.0, fail_below=True)
        points = _spread_starting_points(
            _needle_metric, spec, self._start(), 4,
            np.random.default_rng(0), zeta=8.0, jitter=0.0,
        )
        np.testing.assert_array_equal(points, np.tile([3.0, 0.0], (4, 1)))

    def test_error_propagates_from_the_full_flow(self, problem):
        spec = FailureSpec(0.0, fail_below=True)
        with pytest.raises(ValueError, match="could not verify"):
            gibbs_importance_sampling(
                _needle_metric, spec, dimension=2, n_gibbs=5, n_chains=3,
                n_second_stage=100, rng=0, start=self._start(),
            )


class TestPersistentPool:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_is_reused_inside_context(self, backend):
        executor = ParallelExecutor(n_workers=2, backend=backend)
        with executor:
            first = executor._pool
            assert first is not None
            executor.map(_square, [1, 2, 3])
            assert executor._pool is first
        assert executor._pool is None
        # And per-call pools still work after the context closes.
        assert executor.map(_square, [3]) == [9]

    def test_inline_context_is_noop(self):
        executor = ParallelExecutor(n_workers=1, backend="process")
        with executor:
            assert executor._pool is None


def _square(x):
    return x * x
