"""Batched multi-restart gradient ascent shared by the region evaluators.

Each iteration makes one call to the caller's function: it scores every active
restart's line-search ladder in one batch, so objectives can vectorize their
linear algebra across candidates, and returns with the values a
``directions_at(rows)`` that gives the ascent directions at chosen rows of that
same batch.  The loop asks only for the rows whose trial it accepts; a restart
whose ladder fails stays put and keeps its direction.  A caller whose direction
is its objective's exact gradient declares it with ``exact_gradient`` and gets
batched L-BFGS steps (Nocedal & Wright, *Numerical Optimization*, ch. 7); the
frontier sweep's mirror direction for distributions is not a gradient field, so
it keeps the first-order step.
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
MEMORY = 5  # (s, y) pairs each restart keeps for its L-BFGS direction


def two_loop(g: np.ndarray, s: np.ndarray, y: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """H g for every row of g (k, n) by the L-BFGS two-loop recursion (Nocedal & Wright, alg. 7.4).

    Row i holds its (s, y) pairs in s[i], y[i] (k, MEMORY, n), newest first, with rho = 1 / s.y and
    rho = 0 marking an empty slot; H_0 is (s.y / y.y) I from the newest pair, the identity without one.
    """
    q, alpha = g.copy(), []
    for j in range(rho.shape[1]):
        alpha.append(rho[:, j] * np.einsum("kn,kn->k", s[:, j], q))
        q -= alpha[j][:, None] * y[:, j]
    yy = np.einsum("kn,kn->k", y[:, 0], y[:, 0])
    r = np.divide(1.0, rho[:, 0] * yy, out=np.ones_like(yy), where=rho[:, 0] > 0)[:, None] * q
    for j in reversed(range(rho.shape[1])):
        r += (alpha[j] - rho[:, j] * np.einsum("kn,kn->k", y[:, j], r))[:, None] * s[:, j]
    return r


def maximize_batch(fn, inits: np.ndarray, cfg: OptimizerConfig, exact_gradient: bool = False):
    """Ascend every row of ``inits`` independently; returns (thetas, values, info).

    ``fn`` maps an (m, n) parameter block to m objective values and a
    ``directions_at(rows)`` giving the (len(rows), n) ascent directions at those
    rows of the block.  The first call scores ``inits``; each iteration then
    makes one call on a ladder of trial steps for every active restart, ``step *
    0.5^j`` along its unit direction, and takes the direction of each accepted
    trial from that call.  With ``exact_gradient`` a restart holding L-BFGS pairs
    tries ``0.5^j H g`` instead; an accepted step stores its pair when s.y > 1e-16
    and sets ``step`` to |s| ``STEP_GROW``, and an H g that does not ascend or a
    failed ladder clears the pairs.  Only a failed first-order ladder shrinks the
    step.  Restarts deactivate when their step collapses below ``STEP_MIN`` or the
    direction norm drops under ``GRAD_TOL``; ``info["iterations"]`` counts ladders.
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
    pair_s, pair_y, rho = np.zeros((m, MEMORY, n)), np.zeros((m, MEMORY, n)), np.zeros((m, MEMORY))
    iters = 0
    while iters < cfg.max_iters:
        idx = np.flatnonzero(active)
        g = dirs[idx]
        gnorm = np.sqrt((g * g).sum(axis=1))
        flat = gnorm < GRAD_TOL
        if flat.any():
            active[idx[flat]] = False
            idx, g, gnorm = idx[~flat], g[~flat], gnorm[~flat]
        if idx.size == 0:
            break
        iters += 1
        trial_steps = steps[idx][:, None] * ladder[None, :]
        along = g / gnorm[:, None]
        if exact_gradient:
            hg = two_loop(g, pair_s[idx], pair_y[idx], rho[idx])
            held = (rho[idx, 0] > 0) & ((hg * g).sum(axis=1) > 0)
            rho[idx[~held]] = 0.0  # an H g that does not ascend loses its pairs
            trial_steps[held], along[held] = ladder, hg[held]
        trials = thetas[idx][:, None, :] + trial_steps[:, :, None] * along[:, None, :]
        tvals, trial_directions = fn(trials.reshape(idx.size * _LADDER, n))
        tvals = np.asarray(tvals, dtype=float).reshape(idx.size, _LADDER)
        best_j = np.argmax(tvals, axis=1)
        best_v = tvals[np.arange(idx.size), best_j]
        improved = best_v > values[idx]
        good = idx[improved]
        if good.size:
            jj = best_j[improved]
            new_dirs = trial_directions(np.flatnonzero(improved) * _LADDER + jj)
            if exact_gradient:
                s = trials[improved, jj] - thetas[good]
                y = dirs[good] - new_dirs
                sy = (s * y).sum(axis=1)
                ok = sy > 1e-16
                for store, new in ((pair_s, s[ok]), (pair_y, y[ok]), (rho, 1.0 / sy[ok])):
                    store[good[ok], 1:] = store[good[ok], :-1]
                    store[good[ok], 0] = new
                steps[good] = np.sqrt((s * s).sum(axis=1)) * STEP_GROW
            else:
                steps[good] = trial_steps[improved, jj] * STEP_GROW
            thetas[good] = trials[improved, jj]
            values[good] = best_v[improved]
            dirs[good] = new_dirs
        if good.size < idx.size:
            failed = ~improved
            if exact_gradient:
                rho[idx[failed & held]] = 0.0  # a failed L-BFGS ladder loses its pairs, not its step
                failed &= ~held
            bad = idx[failed]
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
