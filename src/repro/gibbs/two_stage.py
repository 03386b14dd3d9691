"""The complete two-stage Monte-Carlo flow (Algorithm 5).

Stage 1: find a starting point (Algorithm 4), run the Gibbs chain
(Algorithm 1 or 2) for K samples, and fit the importance distribution
``g_nor`` — a full-covariance multivariate Normal — to the chain's
Cartesian samples.  Because the starting point already sits at the failure
region's most-likely point, no warm-up samples are discarded (Section IV-C).

Stage 2: draw N samples from ``g_nor`` and evaluate the estimator of
Eq. (33) with its 99%-CI relative error and convergence trace.

The paper's key differentiator is captured here: unlike the mean-shift
baselines, the Gibbs chain determines *both the mean and the covariance* of
``g_nor``, so the second stage converges with far fewer simulations.
An optional Gaussian-mixture fit implements the non-Normal extension the
paper defers to future work (Section IV-C).

The first stage runs the **lockstep multi-chain engine**: ``C`` chains
(``n_chains``, default 1) start from jittered copies of the Algorithm-4
minimum-norm point, advance synchronously (each bisection step issues one
batched metric call across all chains), and all chains' Cartesian samples
are pooled for the ``g_nor`` fit.  With ``C > 1`` cross-chain mixing
diagnostics (split Gelman-Rubin ``R-hat``, pooled ESS) land in
``extras["chain_diagnostics"]``.

Chain groups fan out over an executor (see :func:`run_first_stage`);
without ``n_workers`` or ``executor`` that is the one-worker inline
executor, the same code path.  Every chain owns the spawn-indexed child
stream at its global chain index, so the merged chain is bit-identical
for any group size, worker count and backend — the grouping is purely a
performance knob, optionally sized by a metric-throughput probe
(``chain_group_size="adaptive"``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.gibbs.cartesian import MultiChainGibbs
from repro.gibbs.starting_point import StartingPoint, find_starting_point
from repro.mc.counter import CountedMetric
from repro.mc.diagnostics import diagnose_chains
from repro.mc.importance import importance_sampling_estimate
from repro.mc.indicator import FailureSpec
from repro.mc.results import SCHEMA_VERSION, EstimationResult
from repro.parallel.adaptive import (
    adaptive_group_size,
    adaptive_shard_size,
    probe_metric_cost,
)
from repro.parallel.executor import ParallelExecutor, resolve_executor
from repro.parallel.ledger import metric_fingerprint, open_ledger, seed_key
from repro.parallel.sharding import merge_chain_shards, plan_shards
from repro.parallel.transport import should_use_shm
from repro.parallel.workers import (
    GibbsShardTask,
    fold_external_counts,
    run_gibbs_shard,
)
from repro.stats.mixture import GaussianMixture
from repro.stats.mvnormal import MultivariateNormal
from repro.stats.qmc import QMCNormal
from repro.telemetry import context as _telemetry
from repro.utils.rng import (
    SeedLike,
    as_seed_sequence,
    ensure_rng,
    spawn_seed_sequences,
)

#: Method labels used throughout the experiment harness and the paper.
LABELS = {"cartesian": "G-C", "spherical": "G-S"}


@dataclass
class FirstStageArtifact:
    """Everything the expensive first stage produces, in reusable form.

    The two-stage split has an economic asymmetry the yield service
    (:mod:`repro.service`) exploits: the fitted proposal and the verified
    starting point cost hundreds of transistor-level simulations to build
    but are cheap to *reuse* — a repeat query with the same first-stage
    identity can skip the Gibbs stage entirely and re-run only the
    parametric second stage.  This record is the extraction/injection
    seam: :func:`fit_first_stage` produces it, and passing it back into
    :func:`gibbs_importance_sampling` (``first_stage=...``) — or the
    service runner's shard-level second stage — consumes it with **zero**
    first-stage metric evaluations.

    Attributes
    ----------
    proposal:
        The fitted ``g_nor`` (plain :class:`MultivariateNormal` or
        :class:`GaussianMixture`; never QMC-wrapped — wrapping is a
        second-stage decision).
    starting_point:
        The verified Algorithm-4 minimum-norm failure point.
    n_first_stage:
        Simulations the build cost (starting-point search + chains + fit).
    fit_seconds:
        Wall-clock seconds the build took — the "first-stage seconds
        saved" a cache hit reports.
    extras:
        The stage's result extras (chain, diagnostics, ...); ``lean()``
        drops the bulky chain for persistence.
    schema_version:
        Persisted-format version (see :data:`repro.mc.results.SCHEMA_VERSION`);
        loaders refuse mismatched artifacts loudly.
    """

    coordinate_system: str
    proposal: object
    starting_point: StartingPoint
    n_first_stage: int
    n_chains: int
    n_gibbs: int
    proposal_fit: str
    fit_seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def method(self) -> str:
        return LABELS[self.coordinate_system]

    def lean(self) -> "FirstStageArtifact":
        """A copy without the chain sample tensor, for compact persistence.

        Keeps the proposal, the starting point and the scalar diagnostics
        — everything reuse needs — and drops the raw chain, which can be
        megabytes for long multi-chain runs and is only needed for
        trajectory plots.
        """
        extras = {
            key: value for key, value in self.extras.items() if key != "chain"
        }
        return replace(self, extras=extras)

    def validate(self, coordinate_system: str) -> None:
        """Fail loudly on schema or coordinate-system mismatch."""
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"first-stage artifact has schema_version "
                f"{self.schema_version}, this build persists "
                f"{SCHEMA_VERSION}; refusing to reuse a foreign format "
                f"(rebuild the artifact or clear the cache)"
            )
        if self.coordinate_system != coordinate_system:
            raise ValueError(
                f"first-stage artifact was fitted in "
                f"{self.coordinate_system!r} coordinates but the flow "
                f"requested {coordinate_system!r}"
            )


def _spread_starting_points(
    metric: Callable,
    spec: FailureSpec,
    start: StartingPoint,
    n_chains: int,
    rng: np.random.Generator,
    zeta: float,
    jitter: float,
) -> np.ndarray:
    """Verified failure-region starting points for ``n_chains`` chains.

    Chain 0 keeps the Algorithm-4 minimum-norm point; the others are
    jittered copies — pushed slightly outward along their own ray and
    perturbed isotropically — each *verified to fail* before use (batched,
    one simulation per candidate, charged to the first stage like any other
    exploration cost).  Candidates that pass are retried with the jitter
    halved, pulling them back toward the verified point.  If the attempt
    budget (4 halving rounds) runs out with chains still unplaced, that is
    a strong sign the failure region is a sliver the jitter keeps missing:
    rather than silently reusing the same start for several chains — which
    would quietly overstate the diversity the multi-chain diagnostics
    report — a :class:`ValueError` names the unplaced chains and the two
    honest ways out (shrink the jitter, or opt into duplicate starts
    explicitly with ``chain_jitter=0``).
    """
    points = np.tile(start.x, (n_chains, 1))
    need = n_chains - 1
    if need == 0 or jitter <= 0.0:
        return points
    dimension = start.x.size
    radius = max(float(np.linalg.norm(start.x)), 1.0)
    pending = np.arange(1, n_chains)
    scale = float(jitter)
    for _ in range(4):
        if pending.size == 0:
            break
        outward = 1.0 + scale * rng.random((pending.size, 1))
        noise = scale * radius * rng.standard_normal((pending.size, dimension))
        candidates = np.clip(start.x * outward + noise, -zeta, zeta)
        failing = np.asarray(spec.indicator(metric(candidates)), dtype=bool)
        points[pending[failing]] = candidates[failing]
        pending = pending[~failing]
        scale *= 0.5
    if pending.size:
        raise ValueError(
            f"could not verify distinct failure-region starting points for "
            f"chains {pending.tolist()}: all jittered candidates still pass "
            f"after 4 halving rounds (chain_jitter={jitter}). The failure "
            f"region is likely much thinner than the jitter scale — lower "
            f"chain_jitter (or n_chains), or pass chain_jitter=0 to start "
            f"every chain at the one verified minimum-norm point."
        )
    return points


def run_first_stage(
    metric: Callable,
    spec: FailureSpec,
    starts: np.ndarray,
    n_gibbs: int,
    executor: ParallelExecutor,
    coordinate_system: str = "spherical",
    seed: SeedLike = None,
    chain_group_size: Optional[int] = None,
    zeta: float = 8.0,
    bisect_iters: int = 5,
    epsilon: float = 1e-2,
    ladder_width: int = 1,
    solver_warm_start: bool = False,
    checkpoint_dir=None,
    resume: bool = True,
) -> MultiChainGibbs:
    """Fan the first-stage chains out over an executor, in chain groups.

    The shard grid partitions the ``C`` chains into contiguous groups of
    ``chain_group_size`` (default: one group per worker); each group runs
    one lockstep ``run_lockstep`` call in a :func:`run_gibbs_shard` worker.
    Determinism is *stronger* than the grid-pinned contract of the sampled
    stages: chain ``i`` always draws from the child stream at spawn index
    ``i``, chains never share a stream, and the bisection searches between
    draws are RNG-free — so the merged chain is bit-identical for **any**
    group size, worker count and backend, and equals one direct
    ``run_lockstep(chain_rngs=...)`` call over all chains.  Group size is
    therefore a pure performance knob (see
    :func:`repro.parallel.adaptive.adaptive_group_size`).

    ``starts`` must already be verified failure points (see
    ``_spread_starting_points``); workers skip re-verification, so the
    fan-out costs exactly the same simulations for any grouping.
    Sample tensors travel back via shared memory when the executor crosses
    process boundaries and the payload is large enough
    (:func:`repro.parallel.transport.should_use_shm`).

    Parameters
    ----------
    seed:
        Seed-like source of the per-chain streams.  Passing the flow's
        generator draws one integer from it (see ``as_seed_sequence``), so
        the chain streams are pinned by the flow's seed exactly once,
        before any grouping decision.
    checkpoint_dir:
        Persist every completed chain-group shard to an append-only
        ledger (``repro-ledger-v1``) keyed by the full first-stage
        configuration, including the *grid* (``chain_group_size``); a
        killed run re-invoked with the same inputs replays the persisted
        groups and re-runs only the missing ones, bit-identically.  Shm
        transport is disabled on checkpointed runs (rows must be
        self-contained).
    resume:
        With ``checkpoint_dir``: replay an existing matching ledger
        (default); ``False`` truncates it first.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n_chains, dimension = starts.shape
    if chain_group_size is None:
        chain_group_size = -(-n_chains // executor.n_workers)
    root = as_seed_sequence(seed)
    chain_seeds = spawn_seed_sequences(root, n_chains)
    shards = plan_shards(n_chains, int(chain_group_size))
    tasks = []
    for shard in shards:
        lo, hi = shard.offset, shard.offset + shard.count
        payload_bytes = shard.count * n_gibbs * dimension * 8
        tasks.append(
            GibbsShardTask(
                shard=shard,
                chain_seeds=chain_seeds[lo:hi],
                metric=metric,
                spec=spec,
                dimension=dimension,
                coordinate_system=coordinate_system,
                starts=starts[lo:hi],
                n_gibbs=int(n_gibbs),
                zeta=zeta,
                bisect_iters=bisect_iters,
                epsilon=epsilon,
                sampler_options={
                    "ladder_width": int(ladder_width),
                    "solver_warm_start": bool(solver_warm_start),
                },
                shm_payloads=(
                    checkpoint_dir is None
                    and should_use_shm(executor, payload_bytes)
                ),
                telemetry=_telemetry.ship_to_workers(executor),
            )
        )
    ledger = None
    replayed = []
    if checkpoint_dir is not None:
        starts_digest = hashlib.sha256(
            np.ascontiguousarray(starts).tobytes()
        ).hexdigest()
        ledger = open_ledger(
            checkpoint_dir,
            "gibbs",
            {
                "n_chains": int(n_chains),
                "chain_group_size": int(chain_group_size),
                "n_gibbs": int(n_gibbs),
                "coordinate_system": str(coordinate_system),
                "dimension": int(dimension),
                "zeta": float(zeta),
                "bisect_iters": int(bisect_iters),
                "epsilon": float(epsilon),
                "ladder_width": int(ladder_width),
                "solver_warm_start": bool(solver_warm_start),
                "starts": starts_digest,
                "metric": metric_fingerprint(metric, spec),
                "seed": seed_key(root),
            },
            resume=resume,
        )
        replayed, tasks = ledger.split(tasks)
    try:
        results = executor.map(
            run_gibbs_shard,
            tasks,
            on_result=ledger.record if ledger is not None else None,
        )
        fold_external_counts(metric, executor, results)
        if ledger is not None:
            _telemetry.fold_replayed_records(ledger.replayed_telemetry())
    finally:
        if ledger is not None:
            ledger.close()
    return merge_chain_shards(replayed + results, n_chains)


def _build_first_stage(
    counted: CountedMetric,
    spec: FailureSpec,
    dimension: int,
    rng: np.random.Generator,
    pool: ParallelExecutor,
    coordinate_system: str,
    n_gibbs: int,
    n_chains: int,
    chain_jitter: float,
    start: Optional[StartingPoint],
    doe_budget: Optional[int],
    surrogate_order: str,
    epsilon: float,
    zeta: float,
    bisect_iters: int,
    ladder_width: int,
    solver_warm_start: bool,
    proposal_fit: str,
    mixture_components: int,
    chain_group_size: Optional[int],
    stage1_start: int,
    checkpoint_dir=None,
    resume: bool = True,
) -> FirstStageArtifact:
    """Run the complete first stage and package it as a reusable artifact.

    This is the one implementation of Algorithm 5 steps 1-4, shared by the
    full flow and the standalone :func:`fit_first_stage` extraction path,
    so the two consume the ``rng`` stream identically draw for draw.
    ``stage1_start`` is the caller's pre-stage checkpoint of ``counted``
    (taken before any adaptive probe, so probe simulations are charged to
    the first stage exactly as before).
    """
    t0 = time.perf_counter()
    # The stage covers everything the paper charges to stage 1: the
    # starting-point search, the chains, the proposal fit and the
    # mixing diagnostics.  Its span's ``sims`` counter is the same
    # checkpoint delta the result reports as ``n_first_stage``.
    with _telemetry.stage(
        "first_stage",
        coordinate_system=coordinate_system,
        n_chains=int(n_chains),
        n_gibbs=int(n_gibbs),
    ) as stage_span:
        if start is None:
            start = find_starting_point(
                counted, spec, dimension, rng,
                doe_budget=doe_budget, order=surrogate_order,
                epsilon=epsilon, zeta=zeta,
            )

        starts_x = _spread_starting_points(
            counted, spec, start, n_chains, rng, zeta, chain_jitter
        )
        chain = run_first_stage(
            counted, spec, starts_x, n_gibbs, pool,
            coordinate_system=coordinate_system,
            seed=rng,
            chain_group_size=chain_group_size,
            zeta=zeta, bisect_iters=bisect_iters, epsilon=epsilon,
            ladder_width=ladder_width,
            solver_warm_start=solver_warm_start,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
        fit_samples = chain.pooled_samples
        if proposal_fit == "normal":
            proposal = MultivariateNormal.fit(fit_samples)
        elif proposal_fit == "mixture":
            proposal = GaussianMixture.fit(
                fit_samples, n_components=mixture_components, rng=rng
            )
        else:
            raise ValueError(
                f"proposal_fit must be 'normal' or 'mixture', "
                f"got {proposal_fit!r}"
            )

        extras = {"chain": chain, "starting_point": start}
        # Split R-hat needs at least 4 samples per chain; for shorter
        # (toy) runs the estimate is still valid, only the diagnostics
        # are skipped.
        if n_chains > 1 and n_gibbs >= 4:
            diagnostics = diagnose_chains(chain)
            extras["chain_diagnostics"] = diagnostics
            _telemetry.chain_diagnostics(
                diagnostics.max_rhat, diagnostics.min_ess
            )

        n_first_stage = counted.checkpoint() - stage1_start
        stage_span.add("sims", n_first_stage)
    return FirstStageArtifact(
        coordinate_system=coordinate_system,
        proposal=proposal,
        starting_point=start,
        n_first_stage=int(n_first_stage),
        n_chains=int(n_chains),
        n_gibbs=int(n_gibbs),
        proposal_fit=proposal_fit,
        fit_seconds=time.perf_counter() - t0,
        extras=extras,
    )


def gibbs_importance_sampling(
    metric: Callable,
    spec: FailureSpec,
    dimension: Optional[int] = None,
    coordinate_system: str = "spherical",
    n_gibbs: int = 400,
    n_chains: int = 1,
    chain_jitter: float = 0.25,
    n_second_stage: int = 5000,
    rng: SeedLike = None,
    start: Optional[StartingPoint] = None,
    doe_budget: Optional[int] = None,
    surrogate_order: str = "quadratic",
    epsilon: float = 1e-2,
    zeta: float = 8.0,
    bisect_iters: int = 5,
    ladder_width: int = 1,
    solver_warm_start: bool = False,
    proposal_fit: str = "normal",
    mixture_components: int = 3,
    qmc_second_stage: bool = False,
    store_samples: bool = False,
    n_workers: Optional[int] = None,
    backend: str = "process",
    chain_group_size: Union[None, int, str] = None,
    shard_size: Union[int, str] = 8192,
    first_stage: Optional[FirstStageArtifact] = None,
    executor: Optional[ParallelExecutor] = None,
    checkpoint_dir=None,
    resume: bool = True,
) -> EstimationResult:
    """Run the full G-C / G-S failure-rate prediction flow.

    Parameters
    ----------
    coordinate_system:
        ``"cartesian"`` (Algorithm 1) or ``"spherical"`` (Algorithm 2).
    n_gibbs:
        K — first-stage Gibbs samples *per chain* (the paper uses 1e2..1e3).
    n_chains:
        C — lockstep chains advanced synchronously in the first stage.
        The default 1 reproduces the paper's single-chain flow exactly;
        larger values pool ``C * K`` samples for the ``g_nor`` fit while
        issuing each bisection step as one batched metric call, which is
        dramatically faster on a vectorised simulator and explores
        non-convex failure regions from several footholds at once.
    chain_jitter:
        Relative magnitude of the starting-point jitter for chains beyond
        the first (see ``_spread_starting_points``); 0 starts every chain
        at the same minimum-norm point.
    n_second_stage:
        N — parametric importance-sampling draws (1e3..1e4).
    ladder_width:
        Interval-search ladder width ``k`` for the first-stage samplers
        (see :func:`repro.gibbs.bounds.batched_failure_interval`): the
        default ``1`` is classic bisection and bit-identical to previous
        releases; ``k > 1`` evaluates a ``k``-point grid per bracket side
        per round, cutting the number of *sequential* metric calls per
        Gibbs update at the price of more simulations.
    solver_warm_start:
        Seed successive interval-search Newton solves from each chain's
        previous converged solution (:mod:`repro.circuit.warm`).  Off by
        default; results shift only within solver tolerance (see the
        determinism note in DESIGN.md).
    start:
        Reuse a precomputed starting point (its simulations are then *not*
        included in this result's accounting).
    proposal_fit:
        ``"normal"`` for Algorithm 5's multivariate Normal, or
        ``"mixture"`` for the Gaussian-mixture extension.
    qmc_second_stage:
        Draw the second stage from a scrambled Sobol sequence instead of
        pseudo-random points (variance-reduction extension; Normal proposal
        only).
    store_samples:
        Keep second-stage samples and pass/fail labels in ``extras`` for
        the scatter-plot reproductions.
    n_workers:
        Parallelise *both* stages across cores.  The second stage shards
        into ``shard_size``-sample slices (see
        :func:`repro.mc.importance.importance_sampling_estimate`) and the
        first stage fans chain groups out over the same worker pool (see
        :func:`run_first_stage`), each chain on its own spawn-indexed
        stream.  A single persistent pool serves both stages.  ``None``
        (with no ``executor``) runs both stages on the one-worker inline
        executor: the same code path, so the result is bit-identical for
        every worker count, backend and group size.
    chain_group_size:
        Chains per first-stage worker task.  ``None`` splits the chains
        evenly over the workers; an integer pins the group size;
        ``"adaptive"`` sizes groups from a metric-throughput probe
        (:func:`repro.parallel.adaptive.adaptive_group_size`).  Pure
        performance knob — results never depend on it.
    shard_size:
        Second-stage samples per shard, or ``"adaptive"`` to size shards
        from the same probe.  Unlike the chain grouping, this value *does*
        select which stream draws which sample, so an adaptive choice is
        recorded in ``extras["adaptive_sharding"]`` for bit-exact replays.
    first_stage:
        Inject a prebuilt :class:`FirstStageArtifact` (from
        :func:`fit_first_stage` or a previous run's extraction) instead of
        running the first stage: the flow then performs **zero**
        first-stage metric evaluations, reports ``n_first_stage=0`` (the
        artifact's build cost was paid by whoever built it), and draws the
        second stage from the artifact's stored proposal.  The artifact's
        schema version and coordinate system are validated loudly.
    executor:
        Prebuilt :class:`~repro.parallel.ParallelExecutor` (e.g. the yield
        service's persistent pool); overrides ``n_workers``/``backend``.
    checkpoint_dir:
        Persist both stages' completed shards to append-only ledgers in
        this directory (``repro-ledger-v1``): the first-stage chain groups
        and the second-stage weight shards each get their own keyed
        ledger, so a killed run resumes bit-identically, paying only for
        missing shards.
    resume:
        With ``checkpoint_dir``: replay matching ledgers (default);
        ``False`` truncates them and reruns everything.

    Returns
    -------
    :class:`~repro.mc.results.EstimationResult` with method label "G-C" or
    "G-S"; ``extras`` carries the chain, the starting point and the fitted
    proposal, plus ``adaptive_sharding`` (probe costs and the chosen grid)
    when adaptive sizing ran.
    """
    if coordinate_system not in LABELS:
        raise ValueError(
            f"coordinate_system must be 'cartesian' or 'spherical', "
            f"got {coordinate_system!r}"
        )
    if n_chains < 1:
        raise ValueError(f"n_chains must be positive, got {n_chains}")
    if first_stage is not None:
        first_stage.validate(coordinate_system)
    rng = ensure_rng(rng)
    counted = metric if isinstance(metric, CountedMetric) else CountedMetric(
        metric, dimension
    )
    dimension = counted.dimension
    pool = resolve_executor(executor, n_workers, backend)
    adaptive_requested = "adaptive" in (chain_group_size, shard_size)
    stage1_start = counted.checkpoint()

    adaptive_record = None
    if adaptive_requested:
        # The probe's own draws come from a fixed child stream, so it never
        # perturbs the flow's generator; its simulations are real and are
        # charged to the first stage through ``counted``.
        probe = probe_metric_cost(counted, dimension)
        adaptive_record = {"probe": probe.as_extras()}
        if chain_group_size == "adaptive":
            chain_group_size = adaptive_group_size(
                n_chains, probe, n_workers=pool.n_workers, n_gibbs=n_gibbs
            )
            adaptive_record["chain_group_size"] = int(chain_group_size)
        if shard_size == "adaptive":
            shard_size = adaptive_shard_size(
                n_second_stage, probe, n_workers=pool.n_workers
            )
            adaptive_record["shard_size"] = int(shard_size)

    if qmc_second_stage and proposal_fit != "normal":
        raise ValueError(
            "qmc_second_stage is only supported with proposal_fit='normal'"
        )

    # One persistent pool serves the first-stage fan-out and the sharded
    # second stage; inline executors make this a no-op (see
    # ParallelExecutor.__enter__).
    with pool:
        if first_stage is not None:
            proposal = first_stage.proposal
            extras = dict(first_stage.extras)
            extras["starting_point"] = first_stage.starting_point
            extras["first_stage_reused"] = True
            # Nothing ran: the only simulations since the checkpoint are
            # an adaptive probe's, if one was requested — charge those
            # honestly; a plain reuse reports exactly zero.
            n_first_stage = counted.checkpoint() - stage1_start
        else:
            artifact = _build_first_stage(
                counted, spec, dimension, rng, pool,
                coordinate_system=coordinate_system,
                n_gibbs=n_gibbs, n_chains=n_chains,
                chain_jitter=chain_jitter, start=start,
                doe_budget=doe_budget, surrogate_order=surrogate_order,
                epsilon=epsilon, zeta=zeta, bisect_iters=bisect_iters,
                ladder_width=ladder_width,
                solver_warm_start=solver_warm_start,
                proposal_fit=proposal_fit,
                mixture_components=mixture_components,
                chain_group_size=chain_group_size,
                stage1_start=stage1_start,
                checkpoint_dir=checkpoint_dir, resume=resume,
            )
            proposal = artifact.proposal
            extras = artifact.extras
            n_first_stage = artifact.n_first_stage
        if qmc_second_stage:
            proposal = QMCNormal(
                proposal, seed=int(rng.integers(0, 2**31 - 1))
            )
        if adaptive_record is not None:
            extras["adaptive_sharding"] = adaptive_record
        return importance_sampling_estimate(
            counted,
            spec,
            proposal,
            n_second_stage,
            method=LABELS[coordinate_system],
            rng=rng,
            n_first_stage=n_first_stage,
            store_samples=store_samples,
            extras=extras,
            executor=pool,
            shard_size=int(shard_size),
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )


def fit_first_stage(
    metric: Callable,
    spec: FailureSpec,
    dimension: Optional[int] = None,
    coordinate_system: str = "spherical",
    n_gibbs: int = 400,
    n_chains: int = 1,
    chain_jitter: float = 0.25,
    rng: SeedLike = None,
    start: Optional[StartingPoint] = None,
    doe_budget: Optional[int] = None,
    surrogate_order: str = "quadratic",
    epsilon: float = 1e-2,
    zeta: float = 8.0,
    bisect_iters: int = 5,
    ladder_width: int = 1,
    solver_warm_start: bool = False,
    proposal_fit: str = "normal",
    mixture_components: int = 3,
    n_workers: Optional[int] = None,
    backend: str = "process",
    chain_group_size: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    checkpoint_dir=None,
    resume: bool = True,
) -> FirstStageArtifact:
    """Run only the expensive first stage and return its reusable artifact.

    The extraction half of the artifact seam: everything
    :func:`gibbs_importance_sampling` would charge to stage 1 — the
    starting-point search, the Gibbs chain(s), the ``g_nor`` fit — runs
    here with the identical draw order, and comes back as a
    :class:`FirstStageArtifact` ready for persistence and injection.
    The yield service's proposal cache stores exactly this object (in
    ``lean()`` form), so a repeat query pays none of it again.

    Parameters mirror :func:`gibbs_importance_sampling`'s first-stage
    subset; ``executor`` reuses a caller-owned worker pool (the service
    keeps one persistent pool across all jobs).
    """
    if coordinate_system not in LABELS:
        raise ValueError(
            f"coordinate_system must be 'cartesian' or 'spherical', "
            f"got {coordinate_system!r}"
        )
    if n_chains < 1:
        raise ValueError(f"n_chains must be positive, got {n_chains}")
    rng = ensure_rng(rng)
    counted = metric if isinstance(metric, CountedMetric) else CountedMetric(
        metric, dimension
    )
    dimension = counted.dimension
    pool = resolve_executor(executor, n_workers, backend)
    stage1_start = counted.checkpoint()
    with pool:
        return _build_first_stage(
            counted, spec, dimension, rng, pool,
            coordinate_system=coordinate_system,
            n_gibbs=n_gibbs, n_chains=n_chains,
            chain_jitter=chain_jitter, start=start,
            doe_budget=doe_budget, surrogate_order=surrogate_order,
            epsilon=epsilon, zeta=zeta, bisect_iters=bisect_iters,
            ladder_width=ladder_width, solver_warm_start=solver_warm_start,
            proposal_fit=proposal_fit,
            mixture_components=mixture_components,
            chain_group_size=chain_group_size,
            stage1_start=stage1_start,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
