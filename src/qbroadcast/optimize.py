"""Batched multi-restart gradient ascent shared by the region evaluators.

Each iteration makes one call to the caller's function: it scores every active
restart's line-search ladder in one batch, so objectives can vectorize their
linear algebra across candidates, and returns with the values a
``directions_at(rows)`` that gives the ascent directions at chosen rows of that
same batch.  The loop asks only for the rows whose trial it accepts; a restart
whose ladder fails stays put and keeps its direction.  Every caller's direction
is an exact gradient, or an ascent direction built from one (the frontier
sweep's mirror direction for distributions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import integer


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the restart/penalty sweep machinery.

    ``restarts``, ``seed`` and ``r_grid`` (the common-rate targets a frontier
    sweep visits) come from the CLI; ``max_iters`` caps every ascent.
    """

    restarts: int = 16
    max_iters: int = 300
    seed: int = 7
    r_grid: int = 33

    def __post_init__(self):
        for name in ("restarts", "max_iters", "r_grid", "seed"):
            object.__setattr__(self, name, integer(getattr(self, name), name, None if name == "seed" else 1))


_LADDER = 4  # trial step sizes evaluated per line search
STEP_INIT = 0.25  # first trial step of every restart
STEP_GROW = 1.3  # step growth after an accepted trial
STEP_SHRINK = 0.5  # ratio between consecutive ladder steps, and per rung after a failed ladder
STEP_MIN = 1e-7  # a restart whose step falls below this stops
GRAD_TOL = 1e-9  # a restart whose direction norm falls below this stops


def maximize_batch(fn, inits: np.ndarray, cfg: OptimizerConfig):
    """Ascend every row of ``inits`` independently; returns (thetas, values, info).

    ``fn`` maps an (m, n) parameter block to m objective values and a
    ``directions_at(rows)`` giving the (len(rows), n) ascent directions at those
    rows of the block.  The first call scores ``inits``; each iteration then
    makes one call on a geometric ladder of trial steps along every active
    restart's unit direction and takes the direction of each accepted trial
    from that call.  Restarts deactivate when their step collapses below
    ``STEP_MIN`` or the direction norm drops under ``GRAD_TOL``.
    """
    thetas = np.array(inits, dtype=float)
    if thetas.ndim != 2:
        raise ValueError(f"inits must be 2-d (restarts, params), got shape {thetas.shape}")
    m, n = thetas.shape
    values, directions_at = fn(thetas)
    values = np.array(values, dtype=float)
    dirs = np.asarray(directions_at(np.arange(m)), dtype=float)
    steps = np.full(m, STEP_INIT)
    active = np.ones(m, dtype=bool)
    ladder = STEP_SHRINK ** np.arange(_LADDER)
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        unit = dirs[idx]
        gnorm = np.sqrt((unit * unit).sum(axis=1))
        flat = gnorm < GRAD_TOL
        if flat.any():
            active[idx[flat]] = False
            idx, unit, gnorm = idx[~flat], unit[~flat], gnorm[~flat]
            if idx.size == 0:
                continue
        trial_steps = steps[idx][:, None] * ladder[None, :]
        trials = thetas[idx][:, None, :] + trial_steps[:, :, None] * (unit / gnorm[:, None])[:, None, :]
        tvals, trial_directions = fn(trials.reshape(idx.size * _LADDER, n))
        tvals = np.asarray(tvals, dtype=float).reshape(idx.size, _LADDER)
        best_j = np.argmax(tvals, axis=1)
        best_v = tvals[np.arange(idx.size), best_j]
        improved = best_v > values[idx]
        good = idx[improved]
        if good.size:
            jj = best_j[improved]
            thetas[good] = trials[improved, jj]
            values[good] = best_v[improved]
            steps[good] = trial_steps[improved, jj] * STEP_GROW
            dirs[good] = trial_directions(np.flatnonzero(improved) * _LADDER + jj)
        if good.size < idx.size:
            bad = idx[~improved]
            steps[bad] *= STEP_SHRINK ** _LADDER
            active[bad[steps[bad] < STEP_MIN]] = False
    info = {"iterations": iters, "converged": bool(not active.any())}
    return thetas, values, info


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pull a gradient ``g`` with respect to p = softmax(z) (last axis) back to z."""
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


def seeded_rng(*path: int) -> np.random.Generator:
    """Deterministic generator from an integer path (seed, grid point, restart...)."""
    return np.random.default_rng(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in path]))
