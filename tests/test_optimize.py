import numpy as np
import pytest

from qbroadcast.optimize import OptimizerConfig, central_differences, maximize_batch, seeded_rng, softmax
from qbroadcast.regions import PENALTY_SCALES


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 16
        assert cfg.r_grid == 33
        assert PENALTY_SCALES == (1e2, 1e4, 1e6)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)


class TestMaximizeBatch:
    def test_concave_quadratic(self):
        # maximum of -(x - t)^2 summed over coordinates sits at t
        target = np.array([0.3, -1.2, 2.0])

        def f(thetas):
            d = thetas - target[None, :]
            return -(d * d).sum(axis=1)

        def grad(thetas):
            return -2.0 * (thetas - target[None, :])

        inits = seeded_rng(0).standard_normal((6, 3))
        thetas, vals, info = maximize_batch(f, grad, inits, OptimizerConfig(restarts=6))
        best = thetas[np.argmax(vals)]
        assert np.abs(best - target).max() < 1e-4
        assert vals.max() > -1e-8
        assert isinstance(info["iterations"], int)

    def test_multiple_restarts_find_global(self):
        # two bumps, the taller one at +2; some inits start near the short bump
        def f(thetas):
            x = thetas[:, 0]
            return np.exp(-((x - 2.0) ** 2)) + 0.5 * np.exp(-((x + 2.0) ** 2))

        def grad(thetas):
            x = thetas[:, :1]
            return -2.0 * (x - 2.0) * np.exp(-((x - 2.0) ** 2)) - (x + 2.0) * np.exp(-((x + 2.0) ** 2))

        inits = np.linspace(-3.0, 3.0, 7)[:, None]
        _, vals, _ = maximize_batch(f, grad, inits, OptimizerConfig(restarts=7))
        assert vals.max() > 0.999

    def test_batched_calls_only(self):
        value_rows, grad_blocks = [], []

        def f(thetas):
            value_rows.append(thetas.shape[0])
            return -(thetas * thetas).sum(axis=1)

        def grad(thetas):
            grad_blocks.append(thetas.copy())
            return -2.0 * thetas

        inits = np.ones((3, 2))
        inits[0] = 0.0  # starts at the maximum: a flat gradient retires it at once
        maximize_batch(f, grad, inits, OptimizerConfig(restarts=3, max_iters=5))
        assert value_rows[0] == 3
        assert grad_blocks[0].shape == (3, 2)
        # later gradient calls see only the active rows
        assert all(b.shape == (2, 2) and np.abs(b).min() > 0 for b in grad_blocks[1:])
        # one ladder call per gradient call, four trials per active restart
        assert value_rows[1:] == [4 * 2] * len(grad_blocks)

    def test_central_differences(self):
        calls = []

        def f(thetas):
            calls.append(thetas.shape)
            return (np.sin(thetas) * np.arange(1, 4)).sum(axis=1)

        thetas = seeded_rng(3).standard_normal((5, 3))
        grad = central_differences(f)(thetas)
        assert calls == [(5 * 2 * 3, 3)]  # every perturbation in one call
        assert np.abs(grad - np.cos(thetas) * np.arange(1, 4)).max() < 1e-9

    def test_rejects_flat_inits(self):
        with pytest.raises(ValueError):
            maximize_batch(lambda t: -(t * t).sum(axis=1), lambda t: -2.0 * t, np.zeros(4), OptimizerConfig())

    def test_deterministic_given_seeded_inits(self):
        def f(thetas):
            return -np.abs(thetas).sum(axis=1)

        a = maximize_batch(f, lambda t: -np.sign(t), seeded_rng(1, 2).standard_normal((4, 3)), OptimizerConfig())
        b = maximize_batch(f, lambda t: -np.sign(t), seeded_rng(1, 2).standard_normal((4, 3)), OptimizerConfig())
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestHelpers:
    def test_softmax_rows(self):
        out = softmax(np.array([[0.0, 0.0], [1000.0, 0.0]]))
        assert np.abs(out[0] - 0.5).max() < 1e-12
        assert abs(out[1, 0] - 1.0) < 1e-12
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_seeded_rng_reproducible(self):
        x = seeded_rng(7, 3, 1).standard_normal(5)
        y = seeded_rng(7, 3, 1).standard_normal(5)
        z = seeded_rng(7, 3, 2).standard_normal(5)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)
