"""Method runners and comparisons: the engine behind every table and figure.

``run_method`` provides one uniform entry point for all five estimators
(MIS, MNIS, G-C, G-S, brute-force MC) on any problem object exposing
``metric`` / ``spec`` / ``dimension``; ``compare_methods`` runs a panel of
them on independent random streams; ``run_trials`` repeats one method over
independent streams for trial statistics; ``sims_to_target_error``
reproduces the Table-I question — how many second-stage simulations until
the 99%-CI relative error stays below a target.

Panels and trial batteries are embarrassingly parallel — every entry owns
its spawn-indexed child stream — so both run through
:class:`repro.parallel.ParallelExecutor`: inline by default, across cores
when ``n_workers`` is given, with bit-identical results either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.baselines.mis import mixture_importance_sampling
from repro.baselines.mnis import minimum_norm_importance_sampling
from repro.gibbs.two_stage import gibbs_importance_sampling
from repro.mc.counter import CountedMetric
from repro.mc.montecarlo import brute_force_monte_carlo
from repro.mc.results import EstimationResult
from repro.parallel.executor import ParallelExecutor, resolve_executor
from repro.telemetry import context as _telemetry
from repro.utils.rng import SeedLike, spawn_seed_sequences

#: Canonical method labels, in the paper's presentation order.
METHODS = ("MIS", "MNIS", "G-C", "G-S")


def run_method(
    name: str,
    problem,
    rng: SeedLike = None,
    n_second_stage: int = 10000,
    n_gibbs: int = 400,
    n_chains: int = 1,
    doe_budget: Optional[int] = None,
    n_exploration: int = 5000,
    store_samples: bool = False,
    n_workers: Optional[int] = None,
    backend: str = "process",
    executor: Optional[ParallelExecutor] = None,
    first_stage=None,
    **kwargs,
) -> EstimationResult:
    """Run one named method on a problem.

    Parameters
    ----------
    name:
        "MIS", "MNIS", "G-C", "G-S" or "MC".
    n_second_stage:
        Second-stage budget N (for "MC": the total sample count).
    n_gibbs:
        First-stage chain length K for the Gibbs methods.
    n_chains:
        First-stage chain count C for the Gibbs methods (ignored by the
        others).  With ``n_workers`` set as well, the chains fan out over
        the worker pool (see :func:`repro.gibbs.two_stage.run_first_stage`).
    doe_budget:
        Surrogate budget for MNIS and the Gibbs starting point.
    n_exploration:
        Uniform exploration budget for MIS.
    n_workers:
        Shard the method's sampling stage (the second stage for the IS
        methods, both stages for the Gibbs methods, the whole run for
        "MC") across this many workers on ``backend``; ``None`` runs the
        same shards inline.
    executor:
        Prebuilt :class:`~repro.parallel.ParallelExecutor` (e.g. the
        yield service's persistent pool); overrides
        ``n_workers``/``backend``.
    first_stage:
        Prebuilt :class:`~repro.gibbs.two_stage.FirstStageArtifact` for
        the Gibbs methods: skips the first stage entirely (zero
        first-stage simulations).  Ignored by the other methods.
    kwargs:
        Forwarded to the method implementation (e.g. ``bisect_iters``,
        ``proposal_fit``, ``lambda_original``, ``chain_group_size``,
        ``shard_size``).
    """
    metric = CountedMetric(problem.metric, problem.dimension)
    if name == "MIS":
        return mixture_importance_sampling(
            metric, problem.spec,
            n_first_stage=n_exploration,
            n_second_stage=n_second_stage,
            rng=rng, store_samples=store_samples,
            n_workers=n_workers, backend=backend, executor=executor,
            **kwargs,
        )
    if name == "MNIS":
        return minimum_norm_importance_sampling(
            metric, problem.spec,
            n_first_stage=doe_budget or 1000,
            n_second_stage=n_second_stage,
            rng=rng, store_samples=store_samples,
            n_workers=n_workers, backend=backend, executor=executor,
            **kwargs,
        )
    if name in ("G-C", "G-S"):
        system = "cartesian" if name == "G-C" else "spherical"
        return gibbs_importance_sampling(
            metric, problem.spec,
            coordinate_system=system,
            n_gibbs=n_gibbs,
            n_chains=n_chains,
            n_second_stage=n_second_stage,
            doe_budget=doe_budget,
            rng=rng, store_samples=store_samples,
            n_workers=n_workers, backend=backend, executor=executor,
            first_stage=first_stage, **kwargs,
        )
    if name == "MC":
        return brute_force_monte_carlo(
            metric, problem.spec, n_second_stage, rng=rng,
            n_workers=n_workers, backend=backend, executor=executor,
            **kwargs
        )
    raise ValueError(f"unknown method {name!r}; choose from {METHODS + ('MC',)}")


@dataclass
class _MethodTask:
    """Picklable unit of panel/trial work for the parallel layer."""

    name: str
    problem: object
    seed: np.random.SeedSequence
    run_kwargs: dict = field(default_factory=dict)
    #: Parent's :func:`repro.telemetry.ship_to_workers` decision.
    telemetry: bool = False


def _run_method_task(task: _MethodTask) -> EstimationResult:
    """Spawn-safe worker: run one method on its own child stream.

    Worker-side telemetry rides home in ``extras["worker_telemetry"]``
    (an :class:`EstimationResult` has no shard-record slot of its own);
    the panel runner pops and folds it after the map.
    """
    shard_tel = _telemetry.ShardTelemetry(task.telemetry, f"panel-{task.name}")
    with shard_tel, _telemetry.span("panel.method", method=task.name) as sp:
        result = run_method(
            task.name, task.problem, rng=np.random.default_rng(task.seed),
            **task.run_kwargs,
        )
        sp.add("sims", result.n_first_stage + result.n_second_stage)
    record = shard_tel.record()
    if record is not None:
        result.extras["worker_telemetry"] = record
    return result


def _fold_panel_telemetry(executor, outcomes) -> None:
    """Fold worker telemetry records shipped inside panel results."""
    recorder = _telemetry.get_active()
    for result in outcomes:
        record = result.extras.pop("worker_telemetry", None)
        if record and recorder is not None:
            recorder.fold(record)


def compare_methods(
    problem,
    methods: Sequence[str] = METHODS,
    seed: SeedLike = 0,
    n_workers: Optional[int] = None,
    backend: str = "process",
    executor: Optional[ParallelExecutor] = None,
    **run_kwargs,
) -> Dict[str, EstimationResult]:
    """Run several methods on independent random streams.

    Each method receives its own child generator spawned from ``seed``, so
    adding or removing a method never perturbs the others' draws.  With
    ``n_workers`` set, the panel entries run concurrently on the same
    streams, so the results are identical; only the wall-clock changes.
    """
    pool = resolve_executor(executor, n_workers, backend)
    seeds = spawn_seed_sequences(seed, len(methods))
    ship_telemetry = _telemetry.ship_to_workers(pool)
    tasks = [
        _MethodTask(name, problem, child, dict(run_kwargs), ship_telemetry)
        for name, child in zip(methods, seeds)
    ]
    outcomes = pool.map(_run_method_task, tasks)
    _fold_panel_telemetry(pool, outcomes)
    return dict(zip(methods, outcomes))


def run_trials(
    problem,
    method: str,
    n_trials: int,
    seed: SeedLike = 0,
    n_workers: Optional[int] = None,
    backend: str = "process",
    executor: Optional[ParallelExecutor] = None,
    **run_kwargs,
) -> List[EstimationResult]:
    """Repeat one method over ``n_trials`` independent streams.

    The trial battery behind spread/percentile statistics (e.g. the
    repeated-run dispersion behind Table I): trial *i* always draws from
    the child stream at spawn index *i*, so a fixed ``(seed, n_trials)``
    returns the same list for any worker count and backend.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    pool = resolve_executor(executor, n_workers, backend)
    ship_telemetry = _telemetry.ship_to_workers(pool)
    tasks = [
        _MethodTask(method, problem, child, dict(run_kwargs), ship_telemetry)
        for child in spawn_seed_sequences(seed, n_trials)
    ]
    outcomes = pool.map(_run_method_task, tasks)
    _fold_panel_telemetry(pool, outcomes)
    return outcomes


ResultOrTrials = Union[EstimationResult, Sequence[EstimationResult]]


def _sims_row(result: EstimationResult, target: float) -> Dict[str, Optional[int]]:
    n2 = result.trace.samples_to_error(target) if result.trace else None
    return {
        "first_stage": result.n_first_stage,
        "second_stage": n2,
        "total": (result.n_first_stage + n2) if n2 is not None else None,
    }


def sims_to_target_error(
    results: Dict[str, ResultOrTrials],
    target: float = 0.05,
) -> Dict[str, Dict[str, Optional[int]]]:
    """Table-I rows: simulations needed per stage to reach ``target`` error.

    Works on results whose traces cover enough second-stage samples; a
    method whose trace never stabilises below the target gets
    ``second_stage=None`` (reported as "not reached").

    A value may also be a *sequence* of repeated trials (from
    :func:`run_trials`): the row then reports the median over the trials
    that reached the target, plus ``n_trials`` / ``n_reached`` accounting,
    with ``second_stage=None`` when fewer than half the trials converged.
    """
    rows = {}
    for name, result in results.items():
        if isinstance(result, EstimationResult):
            rows[name] = _sims_row(result, target)
            continue
        trials = list(result)
        per_trial = [_sims_row(trial, target) for trial in trials]
        reached = [row for row in per_trial if row["second_stage"] is not None]
        row: Dict[str, Optional[int]] = {
            "first_stage": int(
                np.median([r["first_stage"] for r in per_trial])
            ),
            "n_trials": len(per_trial),
            "n_reached": len(reached),
        }
        if 2 * len(reached) >= len(per_trial):
            row["second_stage"] = int(
                np.median([r["second_stage"] for r in reached])
            )
            row["total"] = int(np.median([r["total"] for r in reached]))
        else:
            row["second_stage"] = None
            row["total"] = None
        rows[name] = row
    return rows


def second_stage_scatter(
    result: EstimationResult,
    variable_pair: Iterable[int],
) -> Dict[str, np.ndarray]:
    """Project stored second-stage samples onto two variables (Figs. 8-11).

    Requires the method to have been run with ``store_samples=True``.
    Returns ``{"pass": (n_pass, 2), "fail": (n_fail, 2)}`` point arrays.
    """
    if "samples" not in result.extras:
        raise ValueError(
            "result carries no samples; re-run the method with store_samples=True"
        )
    i, j = tuple(variable_pair)
    samples = result.extras["samples"]
    failed = result.extras["failed"]
    return {
        "pass": samples[~failed][:, (i, j)],
        "fail": samples[failed][:, (i, j)],
    }
