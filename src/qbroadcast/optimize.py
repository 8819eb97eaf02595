"""Batched multi-restart gradient ascent shared by the region evaluators.

Each iteration asks the caller's gradient function for the ascent direction of
every active restart in one call, then pushes all restarts' line-search trials
through the objective as a second batched call, so objectives can vectorize
their linear algebra across candidates.  Every caller passes an exact gradient,
or an ascent direction built from one (the frontier sweep's mirror direction
for distributions); ``central_differences`` turns a value function into a
finite-difference gradient function and is used only by the tests, as the
reference gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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
        for name in ("restarts", "max_iters", "r_grid"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"OptimizerConfig.{name} must be positive")


_LADDER = 4  # trial step sizes evaluated per line search
STEP_INIT = 0.25  # first trial step of every restart
STEP_GROW = 1.3  # step growth after an accepted trial
STEP_SHRINK = 0.5  # ratio between consecutive ladder steps, and per rung after a failed ladder
STEP_MIN = 1e-7  # a restart whose step falls below this stops
GRAD_TOL = 1e-9  # a restart whose gradient norm falls below this stops
FD_STEP = 1e-5  # central-difference step


def central_differences(batch_fn):
    """Gradient function estimating the gradient of ``batch_fn`` by central differences.

    The 2n perturbations of every row go through ``batch_fn`` as one call.
    """
    def grad_fn(thetas: np.ndarray) -> np.ndarray:
        m, n = thetas.shape
        signed = np.zeros((2 * n, n))
        signed[0::2] = np.eye(n) * FD_STEP
        signed[1::2] = -np.eye(n) * FD_STEP
        pert = (thetas[:, None, :] + signed[None, :, :]).reshape(m * 2 * n, n)
        gvals = np.asarray(batch_fn(pert), dtype=float).reshape(m, 2 * n)
        return (gvals[:, 0::2] - gvals[:, 1::2]) / (2.0 * FD_STEP)
    return grad_fn


def maximize_batch(batch_fn, grad_fn, inits: np.ndarray, cfg: OptimizerConfig):
    """Ascend every row of ``inits`` independently; returns (thetas, values, info).

    ``batch_fn`` maps an (m, n) parameter block to m objective values and
    ``grad_fn`` maps it to the (m, n) gradients.  Each iteration takes the
    gradient of the active restarts in one call, then evaluates a geometric
    ladder of trial steps along it in a second call.  Restarts deactivate when
    their step collapses below ``STEP_MIN`` or the gradient norm drops under
    ``GRAD_TOL``.
    """
    thetas = np.array(inits, dtype=float)
    if thetas.ndim != 2:
        raise ValueError(f"inits must be 2-d (restarts, params), got shape {thetas.shape}")
    m, n = thetas.shape
    values = np.asarray(batch_fn(thetas), dtype=float)
    steps = np.full(m, STEP_INIT)
    active = np.ones(m, dtype=bool)
    ladder = STEP_SHRINK ** np.arange(_LADDER)
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        sub = thetas[idx]
        grad = np.asarray(grad_fn(sub), dtype=float)
        gnorm = np.linalg.norm(grad, axis=1)
        flat = gnorm < GRAD_TOL
        if flat.any():
            active[idx[flat]] = False
            keep = ~flat
            idx, sub, grad, gnorm = idx[keep], sub[keep], grad[keep], gnorm[keep]
            if idx.size == 0:
                continue
        dirs = grad / gnorm[:, None]
        trial_steps = steps[idx][:, None] * ladder[None, :]
        trials = sub[:, None, :] + trial_steps[:, :, None] * dirs[:, None, :]
        tvals = np.asarray(batch_fn(trials.reshape(idx.size * _LADDER, n)), dtype=float).reshape(idx.size, _LADDER)
        best_j = np.argmax(tvals, axis=1)
        rows = np.arange(idx.size)
        best_v = tvals[rows, best_j]
        improved = best_v > values[idx]
        good = idx[improved]
        if good.size:
            jj = best_j[improved]
            thetas[good] = trials[improved, jj]
            values[good] = best_v[improved]
            steps[good] = trial_steps[improved, jj] * STEP_GROW
        bad = idx[~improved]
        if bad.size:
            steps[bad] *= STEP_SHRINK ** _LADDER
            dead = steps[bad] < STEP_MIN
            active[bad[dead]] = False
    info = {"iterations": iters, "converged": bool(not active.any())}
    return thetas, values, info


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pull a gradient ``g`` with respect to p = softmax(z) (last axis) back to z."""
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


def seeded_rng(*path: int) -> np.random.Generator:
    """Deterministic generator from an integer path (seed, grid point, restart...)."""
    return np.random.default_rng(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in path]))
