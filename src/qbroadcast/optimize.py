"""Batched multi-restart quasi-Newton ascent shared by the region evaluators.

Each iteration makes one call to the caller's function: it scores every active restart's line-search
ladder in one batch and returns the values with a ``directions_at(rows)`` giving the objective's exact
gradient at chosen rows of that batch, asked only at accepted trials.  Steps are batched L-BFGS (Nocedal
& Wright, *Numerical Optimization*, ch. 7) or, with ``dense``, BFGS on one (n, n) inverse Hessian per
restart (ibid., sec. 6.1), for softmax distributions: the logit curvature scales with p_i, so near the
simplex boundary it spans orders of magnitude that a few pairs forget.  On ``sweep-cq`` (seeds 1001-1010)
L-BFGS with 5, 12 or 30 pairs made a median 649, 405 or 414 evaluator passes, the dense rule 322.  It
holds restarts n^2 8 bytes, and twice that again while updating: 4.6 kB on ``sweep-cq`` (n = 12), about
1 MB for pinching-cq at k = 2 (n = 90) and 73 MB at k = 3 (n = 756) with 16 restarts.
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
GRAD_TOL = 1e-9  # a restart whose gradient norm falls below this stops
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


def dense_update(h: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """The BFGS update of inverse Hessians h (k, n, n) by pairs s, y (k, n), sy = s.y > 0 (N&W eq. 6.17), in
    place: h += s v^T + v s^T with v = ((1 + y.h y / sy) s / 2 - h y) / sy.  Returns h."""
    hy = (h @ y[:, :, None])[..., 0]
    v = ((0.5 + 0.5 * (y * hy).sum(axis=1) / sy)[:, None] * s - hy) / sy[:, None]
    sv = s[:, :, None] * v[:, None, :]
    sv += sv.swapaxes(1, 2)  # s_i v_j + s_j v_i: exactly symmetric
    h += sv
    return h


def maximize_batch(fn, inits: np.ndarray, cfg: OptimizerConfig, dense: bool = False):
    """Ascend every row of ``inits`` independently; returns (thetas, values, info).

    ``fn`` maps an (m, n) block to m values and a ``directions_at(rows)`` giving the gradients there.
    Each iteration calls it once on every active restart's ladder: ``0.5^j H g`` for a restart holding
    curvature, H from its L-BFGS pairs or, with ``dense``, its inverse Hessian, (s.y / y.y) I at its first
    pair and then updated by ``dense_update``; else ``step 0.5^j`` along its unit gradient.  An accepted
    step stores its pair when s.y > 1e-16 and sets ``step`` to |s| ``STEP_GROW``; an H g that does not
    ascend or a failed ladder drops the curvature, and only a failed first-order ladder shrinks the step.
    A restart retires when its step falls below ``STEP_MIN`` or its gradient norm under ``GRAD_TOL``;
    ``info["stopped"]`` says per row whether it retired before ``max_iters``, ``info["converged"]`` whether
    every row did, and ``info["iterations"]`` counts ladders.
    """
    thetas = np.array(inits, dtype=float)
    if thetas.ndim != 2:
        raise ValueError(f"inits must be 2-d (restarts, params), got shape {thetas.shape}")
    m, n = thetas.shape
    values, directions_at = fn(thetas)
    values = np.array(values, dtype=float)
    ladder = STEP_SHRINK ** np.arange(_LADDER)
    # the active restarts' rows, points, values, gradients, steps and curvature, compressed as they retire;
    # the curvature is an inverse Hessian, zero without one, or L-BFGS pairs, rho = 0 marking an empty slot
    live, x, v, steps = np.arange(m), thetas.copy(), values.copy(), np.full(m, STEP_INIT)
    g = np.asarray(directions_at(live), dtype=float)
    mem = [np.zeros((m, n, n))] if dense else [*np.zeros((2, m, MEMORY, n)), np.zeros((m, MEMORY))]
    alive = np.ones(m, dtype=bool)
    iters = 0
    while iters < cfg.max_iters:
        gnorm = np.sqrt((g * g).sum(axis=1))
        alive &= ~(gnorm < GRAD_TOL)
        if not alive.all():
            thetas[live], values[live] = x, v
            live, x, v, g, gnorm, steps, *mem = (a[alive] for a in (live, x, v, g, gnorm, steps, *mem))
            alive = alive[alive]
        if live.size == 0:
            break
        iters += 1
        if dense:
            hg = (mem[0] @ g[:, :, None])[..., 0]
            held = (hg * g).sum(axis=1) > 0
        else:
            hg = two_loop(g, *mem)
            held = (mem[2][:, 0] > 0) & ((hg * g).sum(axis=1) > 0)
        trials = ladder[None, :, None] * hg[:, None, :]
        if not held.all():
            lone = ~held
            mem[-1][lone] = 0  # an H g that does not ascend loses its curvature
            trials[lone] = (steps[lone][:, None] * ladder)[:, :, None] * (g[lone] / gnorm[lone, None])[:, None, :]
        trials += x[:, None, :]
        tvals, trial_directions = fn(trials.reshape(live.size * _LADDER, n))
        tvals = np.asarray(tvals, dtype=float).reshape(live.size, _LADDER)
        best_j, best_v = np.argmax(tvals, axis=1), tvals.max(axis=1)
        improved = best_v > v
        acc = np.flatnonzero(improved)
        if acc.size:
            jj = best_j[acc]
            new_g = trial_directions(acc * _LADDER + jj)
            new_x = trials[acc, jj]
            s, y = new_x - x[acc], g[acc] - new_g
            sy = (s * y).sum(axis=1)
            ok = sy > 1e-16
            if dense:
                if not held.all():
                    fresh = ok & ~held[acc]
                    mem[0][acc[fresh]] = (sy[fresh] / (y[fresh] * y[fresh]).sum(axis=1))[:, None, None] * np.eye(n)
                pair = s, y, sy
                if acc.size < live.size or not ok.all():  # a zero pair leaves its row of H as it is, so no gather
                    pair = np.zeros((live.size, n)), np.zeros((live.size, n)), np.ones(live.size)
                    for full, part in zip(pair, (s, y, sy)):
                        full[acc[ok]] = part[ok]
                mem[0] = dense_update(mem[0], *pair)
            else:
                for store, new in zip(mem, (s[ok], y[ok], 1.0 / sy[ok])):
                    store[acc[ok], 1:] = store[acc[ok], :-1]
                    store[acc[ok], 0] = new
            steps[acc] = np.sqrt((s * s).sum(axis=1)) * STEP_GROW
            x[acc], v[acc], g[acc] = new_x, best_v[acc], new_g
        if acc.size < live.size:
            failed = ~improved
            mem[-1][failed & held] = 0  # a failed quasi-Newton ladder loses its curvature, not its step
            bad = failed & ~held
            steps[bad] *= STEP_SHRINK ** _LADDER
            alive[bad] = ~(steps[bad] < STEP_MIN)
    thetas[live], values[live] = x, v
    stopped = np.ones(m, dtype=bool)
    stopped[live[alive]] = False
    return thetas, values, {"iterations": iters, "converged": bool(stopped.all()), "stopped": stopped}


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
