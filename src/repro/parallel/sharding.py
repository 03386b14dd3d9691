"""Deterministic shard planning and shard-result merging.

A *shard* is a contiguous slice of a sampling workload: ``count`` samples
starting at global sample ``offset``.  The shard grid is a function of the
total sample count and the shard size only — never of the worker count —
and every shard owns the child RNG stream at its spawn index.  Together
these two rules give the determinism contract of the parallel layer: the
merged result is bit-identical for any ``n_workers`` and any backend,
because the same shards draw from the same streams in the same logical
order no matter which worker executes them when.

The merge helpers reconstruct exactly what a serial pass over the shards
in index order would have produced: global failure counts, and convergence
traces re-aligned onto the common checkpoint grid the caller planned up
front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.stats.confidence import montecarlo_relative_error
from repro.telemetry import context as _telemetry


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a sampling workload.

    Attributes
    ----------
    index:
        Position in the shard grid; also the spawn index of the shard's
        RNG stream and the merge order.
    offset:
        Global index of the shard's first sample.
    count:
        Number of samples the shard draws.
    """

    index: int
    offset: int
    count: int


def plan_shards(n_total: int, shard_size: int) -> List[Shard]:
    """Split ``n_total`` samples into contiguous shards of ``shard_size``.

    The plan depends only on its two arguments — the worker count is
    deliberately *not* one of them — so a fixed ``(seed, shard_size)``
    pins the random draws regardless of how the shards are executed.
    """
    if n_total < 1:
        raise ValueError(f"n_total must be positive, got {n_total}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    shards = []
    offset = 0
    while offset < n_total:
        count = min(shard_size, n_total - offset)
        shards.append(Shard(index=len(shards), offset=offset, count=count))
        offset += count
    return shards


def checkpoint_grid(n_samples: int, trace_points: int) -> np.ndarray:
    """Log-spaced global convergence checkpoints, clamped to ``[1, n]``.

    Every Monte-Carlo run records its trace on this grid, whatever its
    shard size, so traces are directly comparable point by point.  Tiny runs
    (``n_samples < 10``) clamp the start of the geomspace so every
    checkpoint is recordable.
    """
    return np.unique(
        np.clip(
            np.geomspace(
                min(10, n_samples), n_samples, trace_points
            ).astype(int),
            1,
            n_samples,
        )
    )


def merge_mc_shards(
    shard_results: Sequence,
    n_samples: int,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Merge :class:`~repro.parallel.workers.MCShardResult` objects.

    Walks the shards in index order — the serial sample order — folding
    each shard's within-shard cumulative failure counts onto the global
    checkpoint grid.  Returns ``(failures, trace_n, trace_est, trace_rel)``
    where the trace arrays reproduce, exactly, the running estimate a
    serial pass over the same shards would have recorded.
    """
    with _telemetry.span(
        "merge.mc_shards", shards=len(shard_results), samples=int(n_samples)
    ):
        ordered = sorted(shard_results, key=lambda r: r.index)
        covered = sum(r.count for r in ordered)
        if covered != n_samples:
            raise ValueError(
                f"shard results cover {covered} samples, expected {n_samples}"
            )
        failures = 0
        trace_n, trace_est, trace_rel = [], [], []
        for result in ordered:
            for at, cum_inside in zip(result.checkpoints, result.cum_failures):
                f_at = failures + int(cum_inside)
                at = int(at)
                trace_n.append(at)
                trace_est.append(f_at / at)
                trace_rel.append(montecarlo_relative_error(f_at, at))
            failures += int(result.n_failures)
    return (
        failures,
        np.asarray(trace_n),
        np.asarray(trace_est, dtype=float),
        np.asarray(trace_rel, dtype=float),
    )


def merge_weight_shards(shard_results: Sequence) -> np.ndarray:
    """Concatenate IS shard weights in shard-index (global sample) order."""
    ordered = sorted(shard_results, key=lambda r: r.index)
    return np.concatenate([np.asarray(r.weights, dtype=float) for r in ordered])


def merge_chain_shards(shard_results: Sequence, n_chains: int):
    """Merge first-stage chain-group shards into one ``MultiChainGibbs``.

    Walks the groups in shard-index order — chain order — concatenating
    each group's sample tensor, per-chain simulation counts and interval
    widths, and resolving shared-memory payload handles on the way (see
    :mod:`repro.parallel.transport`).  Because every chain drew from the
    spawn-indexed stream at its *global* chain index, the merged object is
    exactly what one ``run_lockstep`` call over all ``n_chains`` chains
    (with the same per-chain streams) would have produced.
    """
    # Local import: repro.gibbs pulls in repro.mc.importance, which imports
    # this package — resolve the container lazily to stay cycle-free.
    from repro.gibbs.cartesian import MultiChainGibbs

    from repro.parallel.transport import discard_array, unpack_array

    with _telemetry.span(
        "merge.chain_shards", shards=len(shard_results), chains=int(n_chains)
    ):
        ordered = sorted(shard_results, key=lambda r: r.index)
        try:
            covered = sum(r.count for r in ordered)
            if covered != n_chains:
                raise ValueError(
                    f"shard results cover {covered} chains, expected "
                    f"{n_chains}"
                )
            samples = np.concatenate(
                [unpack_array(r.samples) for r in ordered], axis=0
            )
            widths = np.concatenate(
                [unpack_array(r.interval_widths) for r in ordered], axis=0
            )
        except BaseException:
            # A failed merge would strand every not-yet-imported segment
            # (import_array unlinks as it copies, so the imported ones are
            # already gone); unlink the rest before unwinding.
            for result in ordered:
                discard_array(result.samples)
                discard_array(result.interval_widths)
            raise
        per_chain = np.concatenate(
            [np.asarray(r.per_chain_simulations, dtype=int) for r in ordered]
        )
    return MultiChainGibbs(
        samples=samples,
        n_simulations=int(per_chain.sum()),
        per_chain_simulations=per_chain,
        interval_widths=widths,
    )


def merge_blockade_shards(
    shard_results: Sequence, n_samples: int
) -> Tuple[int, int]:
    """Merge blockade screening shards into ``(failures, simulated)``.

    Shard order is irrelevant to the sums, but the coverage check mirrors
    :func:`merge_mc_shards`: a dropped shard must fail loudly, not shrink
    the denominator silently.
    """
    covered = sum(r.count for r in shard_results)
    if covered != n_samples:
        raise ValueError(
            f"shard results cover {covered} samples, expected {n_samples}"
        )
    failures = sum(int(r.n_failures) for r in shard_results)
    simulated = sum(int(r.n_simulated) for r in shard_results)
    return failures, simulated
