import numpy as np
import pytest

from qbroadcast.errors import ValidationError
from qbroadcast import optimize
from qbroadcast.optimize import (MEMORY, OptimizerConfig, dense_update, maximize_batch, seeded_rng, softmax,
                                 two_loop)
from qbroadcast.regions import PENALTY_SCALES

from conftest import central_differences


def one_pass(f, grad):
    """A ``maximize_batch`` function from a value function and a gradient function."""
    return lambda thetas: (f(thetas), lambda rows: grad(thetas[rows]))


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

    @pytest.mark.parametrize("kwargs", [{"restarts": 2.5}, {"max_iters": float("inf")}, {"r_grid": 2.5},
                                        {"restarts": True}], ids=["restarts-2.5", "max-iters-inf", "r-grid-2.5",
                                                                  "restarts-True"])
    def test_integers_enforced(self, kwargs):
        # a float or bool count would only fail deep in the sweep, as a TypeError or a one-restart run
        with pytest.raises(ValidationError, match="must be an integer"):
            OptimizerConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        assert OptimizerConfig(restarts=np.int64(3)).restarts == 3


def reference_two_loop(g, pairs):
    """Nocedal & Wright's two-loop recursion for one row, its (s, y) pairs newest first."""
    q, alphas = g.copy(), []
    for s, y in pairs:
        alphas.append((s @ q) / (s @ y))
        q = q - alphas[-1] * y
    r = q * ((pairs[0][0] @ pairs[0][1]) / (pairs[0][1] @ pairs[0][1])) if pairs else q
    for (s, y), a in reversed(list(zip(pairs, alphas))):
        r = r + (a - (y @ r) / (s @ y)) * s
    return r


class TestTwoLoop:
    def test_matches_per_row_reference_at_ragged_fills(self):
        rng = seeded_rng(5)
        fills, n = [0, 1, 3, MEMORY, 2, 0], 4
        # stale finite pairs sit in every empty slot, as after a cleared memory; rho = 0 must hide them
        s, y = rng.standard_normal((2, len(fills), MEMORY, n))
        rho = np.zeros((len(fills), MEMORY))
        for i, fill in enumerate(fills):
            for j in range(fill):
                y[i, j] = s[i, j] + 0.3 * rng.standard_normal(n)
                if s[i, j] @ y[i, j] < 0:
                    y[i, j] = -y[i, j]
                rho[i, j] = 1.0 / (s[i, j] @ y[i, j])
        g = rng.standard_normal((len(fills), n))
        out = two_loop(g, s, y, rho)
        for i, fill in enumerate(fills):
            ref = reference_two_loop(g[i], [(s[i, j], y[i, j]) for j in range(fill)])
            assert np.allclose(out[i], ref, rtol=1e-12, atol=1e-12)
        assert np.array_equal(out[[0, 5]], g[[0, 5]])  # no pairs: the gradient itself
        # the secant equation of the newest pair: H y_0 = s_0
        held = [i for i, fill in enumerate(fills) if fill]
        assert np.allclose(two_loop(y[held, 0], s[held], y[held], rho[held]), s[held, 0], rtol=1e-10, atol=1e-12)


class TestDenseUpdate:
    def test_secant_equation_and_symmetry(self):
        # H y = s after one update, and H stays symmetric; a wrong rho or a missing transpose breaks both
        rng = seeded_rng(6)
        a = rng.standard_normal((4, 5, 5))
        h = a @ a.swapaxes(1, 2) + 0.1 * np.eye(5)
        s = rng.standard_normal((4, 5))
        y = s + 0.3 * rng.standard_normal((4, 5))
        sy = (s * y).sum(axis=1)
        assert (sy > 0).all()
        out = dense_update(h, s, y, sy)
        assert np.abs((out @ y[:, :, None])[..., 0] - s).max() <= 1e-12
        assert np.array_equal(out, out.swapaxes(1, 2))

    def test_zero_pair_leaves_its_row(self):
        # the loop updates every live restart at once and pads the rows without a stored pair with
        # s = y = 0, s.y = 1: those rows must come out bit for bit, the others as if updated alone
        rng = seeded_rng(8)
        a = rng.standard_normal((3, 4, 4))
        h = a @ a.swapaxes(1, 2) + np.eye(4)
        s, y = rng.standard_normal((2, 3, 4))
        y = s + 0.1 * y
        s[1], y[1] = 0.0, 0.0
        sy = np.where(np.arange(3) == 1, 1.0, (s * y).sum(axis=1))
        alone = dense_update(h[[0, 2]].copy(), s[[0, 2]], y[[0, 2]], sy[[0, 2]])
        out = dense_update(h.copy(), s, y, sy)
        assert np.array_equal(out[1], h[1])
        assert np.array_equal(out[[0, 2]], alone)

    def test_h_g_that_does_not_ascend_takes_the_first_order_trial(self, monkeypatch):
        # the first stored pair leaves a negative definite H: the next ladder drops it and steps along
        # the unit gradient, and the pair after that starts again from (s.y / y.y) I
        real, updates, calls = optimize.dense_update, [], []

        def first_negated(*args):
            updates.append(args)
            return (-1.0 if len(updates) == 1 else 1.0) * real(*args)

        monkeypatch.setattr(optimize, "dense_update", first_negated)
        curv = np.array([1.0, 4.0])

        def fn(thetas):
            calls.append(thetas.copy())
            return -(curv * thetas * thetas).sum(axis=1), lambda rows: -2.0 * curv * thetas[rows]

        maximize_batch(fn, np.array([[1.0, 0.5]]), OptimizerConfig(restarts=1, max_iters=3), dense=True)
        f = lambda x: -(curv * x * x).sum(axis=-1)
        x1, x2 = calls[1][np.argmax(f(calls[1]))], calls[2][np.argmax(f(calls[2]))]
        g1, g2 = -2.0 * curv * x1, -2.0 * curv * x2
        rungs = 1.3 * np.linalg.norm(x1 - [1.0, 0.5]) * 0.5 ** np.arange(4)
        assert np.allclose(calls[2], x1 + rungs[:, None] * g1 / np.linalg.norm(g1), rtol=0, atol=1e-15)
        s, y = x2 - x1, g1 - g2
        h = real((s @ y) / (y @ y) * np.eye(2)[None], s[None], y[None], np.array([s @ y]))[0]
        assert np.allclose(calls[3][0], x2 + h @ g2, rtol=0, atol=1e-15)


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
        thetas, vals, info = maximize_batch(one_pass(f, grad), inits, OptimizerConfig(restarts=6))
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
        _, vals, _ = maximize_batch(one_pass(f, grad), inits, OptimizerConfig(restarts=7))
        assert vals.max() > 0.999
        # dense BFGS steps reach the taller bump too, and every restart retires before max_iters
        _, vals, info = maximize_batch(one_pass(f, grad), inits, OptimizerConfig(restarts=7), dense=True)
        assert vals.max() > 1.0 - 1e-12 and info["converged"]

    def test_l_bfgs_on_an_ill_conditioned_quadratic(self):
        # curvatures 1 to 100 in 6 coordinates: L-BFGS retires every restart.  Curvatures 1 to 1e4 in 12
        # coordinates: its five pairs forget the spread and it crawls to max_iters; dense BFGS retires
        def quadratic(n, top):
            scale = np.logspace(0, top, n)
            return lambda thetas: (-(scale * thetas * thetas).sum(axis=1), lambda rows: -2.0 * scale * thetas[rows])

        inits = seeded_rng(4).standard_normal((3, 6))
        _, vals, info = maximize_batch(quadratic(6, 2), inits, OptimizerConfig())
        assert info["converged"] and info["iterations"] < 100 and vals.min() > -1e-16
        inits = seeded_rng(4).standard_normal((3, 12))
        _, slow, crawl = maximize_batch(quadratic(12, 4), inits, OptimizerConfig())
        _, vals, info = maximize_batch(quadratic(12, 4), inits, OptimizerConfig(), dense=True)
        assert not crawl["converged"] and slow.min() < -1e-7
        assert info["converged"] and info["iterations"] < 100 and vals.min() > -1e-16

    @pytest.mark.parametrize("dense", [False, True], ids=["l-bfgs", "dense"])
    @pytest.mark.parametrize("inits", [[[1.0, 1.0]], [[1.0, -0.5], [0.3, 2.0]]], ids=["one", "two"])
    def test_iterations_count_ladder_calls(self, inits, dense):
        # a stage that stops early reports the ladder calls it made, whether its last restart
        # retires by its step or through GRAD_TOL
        calls = []

        def fn(thetas):
            calls.append(thetas.shape)
            return -(thetas * thetas).sum(axis=1), lambda rows: -2.0 * thetas[rows]

        _, _, info = maximize_batch(fn, np.array(inits), OptimizerConfig(), dense=dense)
        assert info["converged"]
        assert len(calls) == 1 + info["iterations"] < 1 + OptimizerConfig().max_iters

    @pytest.mark.parametrize("dense", [False, True], ids=["l-bfgs", "dense"])
    def test_stopped_per_row(self, dense):
        # restart 0 starts at the maximum and retires through GRAD_TOL; restart 1 is still climbing at max_iters
        fn = one_pass(lambda t: -(t * t).sum(axis=1), lambda t: -2.0 * t)
        _, _, info = maximize_batch(fn, np.array([[0.0, 0.0], [1.0, 1.0]]), OptimizerConfig(max_iters=1), dense=dense)
        assert info["stopped"].tolist() == [True, False]
        assert not info["converged"]

    def test_batched_calls_only(self):
        # one call per iteration; directions only at accepted trials, from the call that scored them
        calls, asked = [], []

        def f(thetas):
            return -(thetas * thetas).sum(axis=1)

        def fn(thetas):
            calls.append(thetas.copy())

            def directions_at(rows):
                asked.append((len(calls) - 1, [int(r) for r in rows]))
                return -2.0 * thetas[rows]
            return f(thetas), directions_at

        # restart 0 starts at the maximum, so its zero direction retires it at once; restart 2
        # sits so close to it that every rung of its first ladder overshoots.  Each L-BFGS step after
        # a restart's first accepted one lands on the maximum, which retires it
        inits = np.array([[0.0, 0.0], [1.0, 1.0], [1e-3, 0.0]])
        _, _, info = maximize_batch(fn, inits, OptimizerConfig(restarts=3, max_iters=5))
        assert len(calls) == 1 + info["iterations"] == 4
        assert calls[0].shape == (3, 2) and asked[0] == (0, [0, 1, 2])
        # four ladder rows per active restart
        assert [c.shape for c in calls[1:]] == [(4 * 2, 2), (4 * 2, 2), (4, 2)]
        # the first ladder accepts restart 1's best rung only; restart 2 keeps its point and its
        # direction, and climbs along it from there with a sixteenth of the step
        assert asked[1] == (1, [int(np.argmax(f(calls[1][:4])))])
        steps = np.array([[1 / 64], [1 / 128], [1 / 256], [1 / 512]])
        assert np.allclose(calls[2][4:], inits[2] - steps * [1.0, 0.0])
        for c in range(1, len(calls)):
            rows = dict(asked[1:]).get(c, [])
            for block in range(len(calls[c]) // 4):
                ladder = calls[c][4 * block: 4 * block + 4]
                start = 2.0 * ladder[1] - ladder[0]  # rung j steps 0.5^j of the first rung
                improved = f(ladder).max() > f(start[None])[0]
                assert (4 * block + int(np.argmax(f(ladder))) in rows) == improved
            assert len(rows) == len({r // 4 for r in rows})
        assert len(asked) == len(set(c for c, _ in asked))  # at most one ask per call

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
            maximize_batch(one_pass(lambda t: -(t * t).sum(axis=1), lambda t: -2.0 * t), np.zeros(4),
                           OptimizerConfig())

    def test_deterministic_given_seeded_inits(self):
        def f(thetas):
            return -np.abs(thetas).sum(axis=1)

        fn = one_pass(f, lambda t: -np.sign(t))
        a = maximize_batch(fn, seeded_rng(1, 2).standard_normal((4, 3)), OptimizerConfig())
        b = maximize_batch(fn, seeded_rng(1, 2).standard_normal((4, 3)), OptimizerConfig())
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
