import tracemalloc
import warnings

import numpy as np
import pytest

import qbroadcast as qb
from qbroadcast import regions
from qbroadcast.optimize import OptimizerConfig, seeded_rng
from qbroadcast.regions import (_MODES as MODES, PENALTY_SCALES, Frontier, RatePoint, build_evaluator,
                                evaluate_witness, pareto_staircase)
from qbroadcast.specio import BUILTIN_CHANNELS

from conftest import (c_rotated_pinching_cq, central_differences, generic_dephasing, h2, pinching_cq_truth,
                      pinching_truth, rotated_pinching_cq, spectrum_entropy)


def small_cfg(**kw):
    base = dict(restarts=6, max_iters=150, r_grid=5, seed=7)
    base.update(kw)
    return OptimizerConfig(**base)


def trace_keep(mat, dims, keep):
    """Reference partial trace by axis reshaping, independent of the library."""
    n = len(dims)
    t = mat.reshape(*dims, *dims)
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    return t.reshape(int(np.prod([dims[i] for i in keep])), -1)


def random_isometry_channel(n_kraus, dc):
    """A seeded random channel 2 -> B (2) x C (dc) with ``n_kraus`` Kraus operators cut from one isometry."""
    rng = np.random.default_rng(41)
    iso, _ = np.linalg.qr(rng.standard_normal((2 * dc * n_kraus, 2)) + 1j * rng.standard_normal((2 * dc * n_kraus, 2)))
    return qb.BroadcastChannel(list(iso.reshape(n_kraus, 2 * dc, 2)), qb.layout(("B", 2), ("C", dc)))


def crossed_cq():
    """A classical cq channel on which only B tells x = 1 from x = 0 and only C tells x = 2 from x = 0,
    so either receiver can bind the common rate."""
    states = [np.diag(np.kron(np.eye(2)[b], np.eye(2)[c])).astype(complex) for b, c in ((0, 0), (1, 0), (0, 1))]
    return qb.CqBroadcastChannel([0, 1, 2], np.array(states), qb.layout(("B", 2), ("C", 2)))


def three_kraus_channel():
    return random_isometry_channel(3, 3)


def one_kraus_wide_c_channel():
    """One Kraus operator with d_C = 8 > d_in d_B = 4: S(RB) is still read as the common rate's S(C)."""
    return random_isometry_channel(1, 8)


def random_cq():
    """A seeded cq channel on B (2) x C (2) whose three conditionals are random mixed states."""
    lay = qb.layout(("B", 2), ("C", 2))
    rng = np.random.default_rng(43)
    return qb.CqBroadcastChannel(range(3), [qb.random_density_matrix(lay, rng).matrix for _ in range(3)], lay)


def coherent_info_ref(mat, dims, a_axes, b_axes):
    """I(A>B) = H(B) - H(AB) computed with plain numpy on a raw matrix."""
    h_ab = spectrum_entropy(trace_keep(mat, dims, sorted(a_axes + b_axes)))
    h_b = spectrum_entropy(trace_keep(mat, dims, sorted(b_axes)))
    return h_b - h_ab


class TestPinchingBoundary:
    def test_pinned_points(self):
        for p, common in [(0.0, 1.0), (0.25, 1.0), (0.5, 1.0),
                          (0.75, h2(0.75)), (1.0, 0.0)]:
            pt = qb.pinching_boundary(p)
            assert abs(pt.common_rate - common) < 1e-12
            assert abs(pt.personal_rate - p) < 1e-12
            assert pt.witness["kind"] == "closed-form"

    def test_domain_checked(self):
        with pytest.raises(qb.ValidationError):
            qb.pinching_boundary(1.5)
        with pytest.raises(qb.ValidationError):
            qb.pinching_boundary(-0.2)


class TestFrontierContainer:
    def test_value_at_and_ordering(self):
        fr = Frontier([RatePoint(0.0, 1.0), RatePoint(0.5, 0.6), RatePoint(1.0, 0.1)])
        assert fr.value_at(0.0) == 1.0
        assert fr.value_at(0.4) == 0.6
        assert fr.value_at(0.9) == 0.1
        assert fr.value_at(1.2) == 0.0
        assert fr.max_common() == 1.0
        assert fr.as_array().shape == (3, 2)
        assert len(fr) == 3
        assert fr.point_at(0.4) is fr.points[1]
        assert fr.point_at(1.0 + 1e-10) is fr.points[2] and fr.point_at(1.2) is None


def nondominated(commons, personals):
    """Indices of rows no other row dominates: the O(n^2) reference for the staircase."""
    return {i for i in range(len(commons))
            if not any(commons[j] >= commons[i] and personals[j] >= personals[i]
                       and (commons[j] > commons[i] or personals[j] > personals[i]) for j in range(len(commons)))}


class TestParetoStaircase:
    @staticmethod
    def planted_rows(rng):
        """Random rows on a coarse grid, plus exact duplicates, commons 1e-13 apart and equal personals."""
        commons = rng.integers(0, 12, 60) / 8.0
        personals = rng.integers(0, 40, 60) / 16.0
        dup = rng.integers(0, 60, 10)
        near = rng.integers(0, 60, 10)
        same_p = rng.integers(0, 60, 10)
        commons = np.concatenate([commons, commons[dup], commons[near] + 1e-13, rng.integers(0, 12, 10) / 8.0])
        personals = np.concatenate([personals, personals[dup], personals[near] + rng.uniform(0, 1e-3, 10),
                                    personals[same_p]])
        order = rng.permutation(len(commons))
        return commons[order], personals[order]

    @pytest.mark.parametrize("seed", range(12))
    def test_against_dominance_reference(self, seed):
        commons, personals = self.planted_rows(np.random.default_rng(seed))
        points = pareto_staircase(commons, personals, lambda i: {"row": int(i)})
        rows = [pt.witness["row"] for pt in points]
        kept = np.array([[pt.common_rate, pt.personal_rate] for pt in points])
        assert np.array_equal(kept, np.column_stack([commons[rows], personals[rows]]))
        assert (np.diff(kept[:, 0]) > 0).all() and (np.diff(kept[:, 1]) < 0).all()
        assert len(set(np.round(kept[:, 0], 12))) == len(kept)  # commons equal to 12 decimals are one point
        assert set(rows) <= nondominated(commons, personals)
        for c, p in zip(commons, personals):
            assert ((kept[:, 0] >= c - 1e-12) & (kept[:, 1] >= p - 1e-12)).any(), (c, p)

    @staticmethod
    def assert_full_lexsort_rows(commons, personals):
        """The staircase keeps the rows the rule keeps on every row: lexsort by common then personal, both
        descending, ties by row index, then the record loop."""
        ties = np.round(commons, 12)
        kept, run = [], -np.inf
        for i in np.lexsort((-personals, -commons)):
            if personals[i] > run + 1e-12:
                if kept and ties[kept[-1]] == ties[i]:
                    kept.pop()
                kept.append(int(i))
                run = personals[i]
        points = pareto_staircase(commons, personals, lambda i: {"row": int(i)})
        assert [pt.witness["row"] for pt in points] == kept[::-1]
        # as bytes, so a kept NaN common compares equal to itself
        assert np.array([(pt.common_rate, pt.personal_rate) for pt in points]).reshape(-1, 2).tobytes() == \
            np.column_stack([commons[kept[::-1]], personals[kept[::-1]]]).tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_prefilter_on_planted_rows(self, seed):
        self.assert_full_lexsort_rows(*self.planted_rows(np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", range(6))
    def test_prefilter_on_duplicate_grids(self, seed):
        # few distinct (common, personal) values, each held by many rows: the lowest row of a tie must win
        rng = np.random.default_rng(seed)
        self.assert_full_lexsort_rows(rng.integers(0, 5, 600) / 4.0, rng.integers(0, 5, 600) / 4.0)

    def test_prefilter_on_classical_candidates(self, monkeypatch):
        # every candidate of the benchmark's classical oracle, as its Pareto pass receives them
        seen, pareto = [], qb.bruteforce._pareto_points

        def spy(commons, personals, *rest):
            seen.append((commons, personals))
            return pareto(commons, personals, *rest)

        monkeypatch.setattr(qb.bruteforce, "_pareto_points", spy)
        qb.bruteforce.classical_degraded_region(np.array([[0.9, 0.1], [0.1, 0.9]]),
                                                np.array([[0.8, 0.2], [0.2, 0.8]]), 30, t_size=3)
        ((commons, personals),) = seen
        assert len(commons) == 54857
        self.assert_full_lexsort_rows(commons, personals)

    @staticmethod
    def edge_rows(case, rng):
        commons, personals = rng.integers(0, 40, 300) / 16.0, rng.integers(0, 40, 300) / 16.0
        if case in ("nan-commons", "nan-both"):
            commons[rng.integers(0, 300, 30)] = np.nan
            personals[np.flatnonzero(np.isnan(commons))[:2]] = 3.0  # NaN commons holding the best personals
        if case in ("nan-personals", "nan-both"):
            personals[rng.integers(0, 300, 30)] = np.nan
        if case == "all-nan-commons":
            commons[:] = np.nan
        if case == "all-equal":
            commons[:] = 0.75
        if case == "bucket-edges":  # even steps of the span, 1024 buckets: commons on bucket boundaries
            commons = np.concatenate([np.arange(1024) / 1023 * 2.0, rng.integers(0, 1024, 300) / 1023 * 2.0])
            personals = np.concatenate([2.0 - commons[:1024] + rng.uniform(-0.01, 0.01, 1024),
                                        rng.uniform(0, 2, 300)])
        if case == "infinite":
            commons[:3], personals[3:6] = [np.inf, -np.inf, np.inf], [np.inf, -np.inf, np.inf]
        if case == "infinite-top":  # +inf commons below the best personal: they head the scan and must stay
            commons[:3], personals[:3] = np.inf, [0.5, 1.0, 0.25]
        if case == "tiny-span":  # a subnormal span: its bucket width overflows
            commons = rng.integers(0, 3, 300) * 5e-324
        if case == "huge-span":  # a span past the largest float, the top rows below the best personal
            commons = rng.choice([-1.7e308, -1.0, 0.0, 1.0, 1.7e308], 300)
            personals = np.where(commons > 1.0, 0.5, 1.0) * rng.uniform(0, 2, 300)
        if case == "more-rows-than-buckets":
            commons, personals = rng.uniform(0, 3, 5000), rng.uniform(0, 3, 5000)
        if case == "fewer-rows-than-buckets":
            commons, personals = rng.uniform(0, 3, 12), rng.uniform(0, 3, 12)
        return commons, personals

    @pytest.mark.parametrize("case", ["nan-commons", "nan-personals", "nan-both", "all-nan-commons", "all-equal",
                                      "bucket-edges", "infinite", "infinite-top", "tiny-span", "huge-span",
                                      "more-rows-than-buckets", "fewer-rows-than-buckets"])
    @pytest.mark.parametrize("seed", range(3))
    def test_prefilter_edge_cases(self, case, seed):
        # the bucket prefilter drops no row the full lexsort would keep, on any input
        with np.errstate(over="ignore"):  # the 12-decimal tie rounding overflows past 1.8e296
            self.assert_full_lexsort_rows(*self.edge_rows(case, np.random.default_rng(seed)))

    def test_prefilter_drops_no_row_of_one(self):
        for common, personal in [(0.5, 0.25), (np.nan, 0.25), (0.5, np.nan), (np.inf, 1.0)]:
            self.assert_full_lexsort_rows(np.array([common]), np.array([personal]))

    def test_empty_and_single(self):
        assert pareto_staircase(np.array([]), np.array([]), lambda i: {}) == []
        (pt,) = pareto_staircase(np.array([0.5]), np.array([0.25]), lambda i: {"row": i})
        assert (pt.common_rate, pt.personal_rate, pt.witness) == (0.5, 0.25, {"row": 0})


class TestCqFrontierEngine:
    def test_noiseless_bit_tradeoff(self):
        fr = qb.cq_broadcast_frontier(qb.make_noiseless_bit(),
                                      cfg=small_cfg(), r_values=[0.0, 0.25, 0.5, 1.0])
        assert fr.metadata["mode"] == "cq"
        for pt in fr.points:
            # a shared bit splits between the common and personal streams
            assert pt.personal_rate <= 1.0 - pt.common_rate + 1e-6
        assert abs(fr.value_at(0.0) - 1.0) < 2e-3
        assert abs(fr.value_at(0.5, slack=1e-3) - 0.5) < 2e-3

    def test_pareto_shape(self):
        fr = qb.cq_broadcast_frontier(qb.make_bsc_cascade(), cfg=small_cfg(restarts=4),
                                      r_values=[0.0, 0.1, 0.2], t_size=2)
        arr = fr.as_array()
        assert (np.diff(arr[:, 0]) > 0).all()
        assert (np.diff(arr[:, 1]) < 1e-12).all()

    def test_deterministic(self):
        args = dict(cfg=small_cfg(restarts=4), r_values=[0.1, 0.3], t_size=2)
        a = qb.cq_broadcast_frontier(qb.make_bsc_cascade(), **args).as_array()
        b = qb.cq_broadcast_frontier(qb.make_bsc_cascade(), **args).as_array()
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("r_values", [[np.nan], [np.inf], [[0.1, 0.2]], 0.3, ["high"]],
                             ids=["nan", "inf", "2-d", "scalar", "text"])
    def test_rejects_bad_r_values(self, r_values):
        # each would otherwise fail deep in the sweep or return a meaningless point; the boundary
        # refuses them before the first stage runs
        with pytest.raises(qb.ValidationError, match="r_values"):
            qb.cq_broadcast_frontier(qb.make_noiseless_bit(), cfg=small_cfg(restarts=2), r_values=r_values)

    def test_lone_restart_starts_cold(self):
        # noiseless-bit's r_max optimum is a stationary point of the penalty objective: a lone restart
        # started there would stay at the r_max corner and miss the (0.5, 0.5) point; it starts cold
        fr = qb.cq_broadcast_frontier(qb.make_noiseless_bit(), cfg=OptimizerConfig(restarts=1, r_grid=3))
        assert abs(fr.value_at(0.5, slack=1e-6) - 0.5) <= 1e-6

    def test_two_uses_do_not_lose_rate(self):
        w = qb.make_bsc_cascade()
        one = qb.cq_broadcast_frontier(w, cfg=small_cfg(restarts=4), r_values=[0.2], t_size=2)
        two = qb.cq_broadcast_frontier(w, k=2, cfg=small_cfg(restarts=4), r_values=[0.2], t_size=3)
        assert two.value_at(0.2, slack=1e-6) >= one.value_at(0.2, slack=1e-6) - 1e-3


def label_blocks(p_t, blocks):
    """sum_t p_t |t><t| (x) blocks[t] as one block-diagonal matrix."""
    d = blocks[0].shape[0]
    full = np.zeros((len(blocks) * d,) * 2, dtype=complex)
    for t, block in enumerate(blocks):
        full[t * d:(t + 1) * d, t * d:(t + 1) * d] = p_t[t] * block
    return full


class TestWitnessDualRoute:
    def test_reevaluation_matches_stored_rates(self):
        w = qb.make_bsc_cascade()
        fr = qb.cq_broadcast_frontier(w, cfg=small_cfg(restarts=4), r_values=[0.1, 0.3], t_size=2)
        for pt in fr.points:
            c, p = evaluate_witness("cq", w, pt.witness)
            assert abs(c - pt.witness["raw_common"]) < 1e-12
            assert abs(p - pt.witness["raw_personal"]) < 1e-12

    def test_rates_equal_entropic_functionals_of_embedded_state(self):
        # second route: realize p(t) p(x|t) rho_x^{BC} as one labeled density
        # matrix and read both rates off the generic entropy engine
        w = qb.make_bsc_cascade()
        fr = qb.cq_broadcast_frontier(w, cfg=small_cfg(restarts=4), r_values=[0.15, 0.35], t_size=2)
        for pt in fr.points:
            params = pt.witness["params"]
            p_t = np.asarray(params["p_t"])
            cond = np.asarray(params["p_x_given_t"])
            nt, nx = cond.shape
            mats = w.states
            dim_bc = mats[0].shape[0]
            full = np.zeros((nt * nx * dim_bc,) * 2, dtype=complex)
            for t in range(nt):
                for x in range(nx):
                    sl = slice((t * nx + x) * dim_bc, (t * nx + x + 1) * dim_bc)
                    full[sl, sl] = p_t[t] * cond[t, x] * mats[x]
            rho = qb.DensityMatrix(full, qb.layout(("T", nt), ("X", nx), ("B", 2), ("C", 2)))
            common_dual = min(qb.mutual_information(rho, "T", "B"),
                              qb.mutual_information(rho, "T", "C"))
            personal_dual = qb.conditional_mutual_information(rho, "X", "B", "T")
            c, p = evaluate_witness("cq", w, {"params": params})
            assert abs(c - common_dual) < 1e-9
            assert abs(p - personal_dual) < 1e-9

        # dephasing: the isometry writes |x> to B and |psi_x> to CE; on the dephased input
        # sum_x p(x|t) |x><x| the personal rate is H(B|T) - H(CE|T), the common rate I(T; C)
        ch = generic_dephasing()
        spec = ch.dephasing
        n, ce = spec.n_in, spec.c_dim * spec.e_dim
        iso = np.zeros((n * ce, n), dtype=complex)
        for x in range(n):
            iso[x * ce:(x + 1) * ce, x] = spec.images[x]
        ev = build_evaluator("dephasing", ch, t_size=2)
        for theta in seeded_rng(21).standard_normal((3, ev.n_params)):
            params = ev.witness_params(theta)
            p_t, cond = np.asarray(params["p_t"]), np.asarray(params["p_x_given_t"])
            blocks = [iso @ np.diag(row) @ iso.conj().T for row in cond]
            rho = qb.DensityMatrix(label_blocks(p_t, blocks),
                                   qb.layout(("T", 2), ("B", n), ("C", spec.c_dim), ("E", spec.e_dim)))
            c, p = evaluate_witness("dephasing", ch, {"params": params})
            assert abs(c - qb.mutual_information(rho, "T", "C")) < 1e-9
            h_b, h_ce = qb.conditional_entropy(rho, "B", "T"), qb.conditional_entropy(rho, {"C", "E"}, "T")
            assert abs(p - (h_b - h_ce)) < 1e-9

        # cq-eg: the personal rate is the label average of I(R > B) of each pure input pushed through
        ch = qb.make_pinching()
        ev = build_evaluator("cq-eg", ch, t_size=2)
        for theta in seeded_rng(22).standard_normal((3, ev.n_params)):
            params = ev.witness_params(theta)
            p_t = np.asarray(params["p_t"])
            amps = np.asarray(params["states"])
            pure = [qb.PureState(a[:, 0] + 1j * a[:, 1], qb.layout(("R", 3), ("in", 3))) for a in amps]
            outs = [ch.apply_to(psi.to_density(), "in") for psi in pure]
            rho = qb.DensityMatrix(label_blocks(p_t, [sigma.matrix for sigma in outs]),
                                   qb.layout(("T", 2), *outs[0].layout.parts))
            c, p = evaluate_witness("cq-eg", ch, {"params": params})
            assert abs(c - min(qb.mutual_information(rho, "T", "B"), qb.mutual_information(rho, "T", "C"))) < 1e-9
            assert abs(p - sum(pt * qb.coherent_information(sigma, "R", "B") for pt, sigma in zip(p_t, outs))) < 1e-9


# (mode, channel name, builder): every mode on every builtin it accepts, plus the dense cq
# kernel on rotated pinching-cq and the mixed kernels and RB route of generic_dephasing
WITNESS_CASES = [(mode, name, make) for mode, (family, *_) in MODES.items()
                 for name, make in BUILTIN_CHANNELS.items() if family.accepts(make())] + [
    (mode, name, make) for mode in MODES for name, make in (("rotated-pinching-cq", rotated_pinching_cq),
                                                            ("generic-dephasing", generic_dephasing))
    if MODES[mode][0].accepts(make())]


class TestStoredWitnessArithmetic:
    @pytest.mark.parametrize("mode,name,make", WITNESS_CASES, ids=[f"{c[0]}-{c[1]}" for c in WITNESS_CASES])
    def test_witness_is_scored_by_the_optimizer_pass(self, mode, name, make):
        ev = build_evaluator(mode, make(), t_size=2)
        for theta in seeded_rng(17).standard_normal((3, ev.n_params)):
            common, personal, _ = ev.rates_grad(theta[None])
            assert ev.rates_from_witness(ev.witness_params(theta)) == (common[0], personal[0])


    @pytest.mark.parametrize("front,mode,make,kw", [
        (qb.cq_broadcast_frontier, "cq", qb.make_pinching_cq, {}),
        (qb.dephasing_cq_frontier, "dephasing", qb.make_pinching, {}),
        (qb.cq_entanglement_frontier, "cq-eg", qb.make_pinching, {"t_size": 2})], ids=["cq", "dephasing", "cq-eg"])
    def test_sweep_witness_rescores_to_the_bit(self, front, mode, make, kw):
        # a chunk's witness rates come from one forward pass over its targets' best rows, and each
        # witness re-scored alone gives the same bits
        fr = front(make(), cfg=OptimizerConfig(restarts=3, r_grid=4, max_iters=40), **kw)
        assert len(fr.points) >= 2
        for pt in fr.points:
            assert evaluate_witness(mode, make(), pt.witness) == (pt.witness["raw_common"], pt.witness["raw_personal"])


class TestPureStateRoute:
    # the output of a pure input is pure on R B C E, so S(RB) = S(CE): with one Kraus operator the
    # evaluator reads it as the common rate's S(C) whatever the dimensions, else it builds RB
    @pytest.mark.parametrize("make,joint", [(qb.make_pinching, "C"), (qb.make_ghz_copy, "C"),
                                            (one_kraus_wide_c_channel, "C"), (generic_dephasing, "RB"),
                                            (three_kraus_channel, "RB")],
                             ids=["pinching", "ghz-copy", "one-kraus-wide-c", "generic-dephasing", "three-kraus"])
    def test_personal_rate_is_label_averaged_coherent_information(self, make, joint):
        ch = make()
        ev = build_evaluator("cq-eg", ch, t_size=2)
        assert list(ev.personal) == ["B", joint]
        thetas = seeded_rng(23).standard_normal((3, ev.n_params))
        p_t, phi, _ = ev.decode(thetas)
        lay = qb.layout(("R", ch.in_dim), ("in", ch.in_dim))
        ref = [sum(p * qb.coherent_information(ch.apply_to(qb.PureState(state, lay).to_density(), "in"), "R", "B")
                   for p, state in zip(p_row, phi_row)) for p_row, phi_row in zip(p_t, phi)]
        assert np.abs(ev.rates_grad(thetas)[1] - ref).max() <= 1e-12


class TestEntropyKernels:
    # the receivers that take the diagonal kernel, decided stack by stack at setup
    @pytest.mark.parametrize("mode,make,k,diagonal", [
        ("cq", qb.make_pinching_cq, 1, {"B", "C"}),
        ("dephasing", qb.make_pinching, 2, {"B", "C", "CE"}),
        ("cq", rotated_pinching_cq, 1, set()),
        ("cq-eg", qb.make_pinching, 1, set()),
        ("dephasing", generic_dephasing, 1, {"B"}),
        ("cq", c_rotated_pinching_cq, 1, {"B"}),
    ], ids=["pinching-cq", "dephasing-pinching-k2", "rotated-pinching-cq", "ensemble", "generic-dephasing",
            "c-rotated-pinching-cq"])
    def test_kernel_picked_at_setup(self, mode, make, k, diagonal):
        assert build_evaluator(mode, make(), k=k).diagonal == diagonal

    def test_dense_path_matches_diagonal_path(self):
        # every receiver dense, then only C dense beside a diagonal B
        diag = build_evaluator("cq", qb.make_pinching_cq(), t_size=3)
        thetas = seeded_rng(11).standard_normal((6, diag.n_params))
        for make in (rotated_pinching_cq, c_rotated_pinching_cq):
            dense = build_evaluator("cq", make(), t_size=3)
            (*a, grads_a), (*b, grads_b) = diag.rates_grad(thetas), dense.rates_grad(thetas)
            a += [grads_a(np.arange(6), *weights) for weights in WEIGHTS]
            b += [grads_b(np.arange(6), *weights) for weights in WEIGHTS]
            for x, y in zip(a, b):
                assert np.abs(x - y).max() <= 1e-10

    def test_dense_load_over_budget_warns(self):
        # three uses of pinching-cq: 27 labels of 27 x 8 states, a dense load of 5832
        with pytest.warns(UserWarning, match="cq frontier: dense load 5832 exceeds matrix budget 4096"):
            build_evaluator("cq", qb.make_pinching_cq(), k=3)

    def test_over_budget_k_refused_before_the_k_use_channel_exists(self):
        # the five-use pinching channel alone takes tens of MB; the refusal needs only its sizes
        tracemalloc.start()
        try:
            with pytest.raises(qb.BudgetError, match="dephasing frontier: 59292 optimizer parameters exceed"):
                build_evaluator("dephasing", qb.make_pinching(), k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_inverse_hessians_over_budget_refused_before_any_restart(self, monkeypatch):
        # a million restarts of the 12-parameter dephasing sweep would hold 10^6 x 12^2 x 8 B of inverse
        # Hessians and twice that in update temporaries; the refusal comes before a restart is drawn
        def no_inits(*args, **kwargs):
            raise AssertionError("restarts drawn for an over-budget sweep")

        monkeypatch.setattr(regions._LabelEnsembleEvaluator, "inits", no_inits)
        with pytest.raises(qb.BudgetError, match="dephasing frontier: inverse Hessians 3296 MB exceeds 16x "
                                                 "Hessian budget 64 MB"):
            qb.dephasing_cq_frontier(qb.make_pinching(), OptimizerConfig(restarts=10 ** 6))

    def test_inverse_hessians_over_budget_warn(self, monkeypatch):
        # 20,000 restarts hold 66 MB; the warning, made an error here, stops the sweep before it starts
        monkeypatch.setattr(regions._LabelEnsembleEvaluator, "inits", lambda *args, **kwargs: pytest.fail("not warned"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match="cq frontier: inverse Hessians 66 MB exceeds Hessian budget 64 MB"):
                qb.cq_broadcast_frontier(qb.make_pinching_cq(), cfg=OptimizerConfig(restarts=20000))

    def test_l_bfgs_families_hold_no_inverse_hessian(self, monkeypatch):
        # the pure-state family keeps (s, y) pairs, O(restarts n), so a million restarts pass the budget
        class Drawn(Exception):
            pass

        def drawn(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(regions._LabelEnsembleEvaluator, "inits", drawn)
        with pytest.raises(Drawn):
            qb.cq_entanglement_frontier(qb.make_pinching(), cfg=OptimizerConfig(restarts=10 ** 6))


class TestRestartInits:
    @pytest.mark.parametrize("mode,make", [("cq", qb.make_pinching_cq), ("dephasing", qb.make_pinching),
                                           ("cq-eg", qb.make_pinching)], ids=["cq", "dephasing", "ensemble"])
    def test_rows_are_distinct(self, mode, make):
        ev = build_evaluator(mode, make())
        rows = ev.inits(4, (7, 0))
        for i in range(4):
            for j in range(i):
                assert not np.array_equal(rows[i], rows[j])

    @pytest.mark.parametrize("front,mode,make", [(qb.cq_broadcast_frontier, "cq", qb.make_pinching_cq),
                                                 (qb.dephasing_cq_frontier, "dephasing", qb.make_pinching),
                                                 (qb.cq_entanglement_frontier, "cq-eg", qb.make_pinching)],
                             ids=["cq", "dephasing", "ensemble"])
    def test_every_target_starts_cold(self, monkeypatch, front, mode, make):
        # the r_max call draws on the 0xC0FFEE path; every target's restarts then enter the first penalty
        # rung exactly as drawn on its own (seed, target) path, none from the r_max optimum
        calls = counted_inits(monkeypatch)
        fr = front(make(), cfg=OptimizerConfig(restarts=3, r_grid=4, seed=11, max_iters=5))
        ev = build_evaluator(mode, make())
        assert fr.metadata["r_max"] > 0
        assert np.array_equal(calls[0], np.column_stack((ev.inits(3, (11, 0xC0FFEE)), np.zeros(3))))
        targets = np.linspace(0.0, fr.metadata["r_max"], 4)
        assert np.array_equal(calls[1], np.concatenate(
            [np.column_stack((ev.inits(3, (11, pi)), np.full(3, r))) for pi, r in enumerate(targets)]))


# (mode, channel builder, k, t_size): every mode of the table plus one two-use case
GRADIENT_CASES = [
    ("cq", qb.make_pinching_cq, 1, 3),
    ("cq-certified", qb.make_pinching_cq, 1, 3),
    ("dephasing", qb.make_pinching, 1, 3),
    ("qq-dephasing", qb.make_pinching, 1, 3),
    ("cq-eg", qb.make_pinching, 1, 2),
    ("qq", qb.make_pinching, 1, 2),
    ("cq", qb.make_pinching_cq, 2, 2),
]


def adjoint_calls(ev) -> list:
    """The receivers of every family ``adjoint`` call ``ev`` makes from now on, one sorted list per call."""
    calls, real = [], ev.family.adjoint
    ev.family = ev.family._replace(adjoint=lambda e, pay, d: calls.append(sorted(d)) or real(e, pay, d))
    return calls


# (w_common, w_personal) pairs for ``grads``: the r_max stage's, the personal rate alone, and penalty-rung
# rows whose common weight is zero at some rows, each weight a scalar or one value per asked row
WEIGHTS = [(1.0, 0.0), (0.0, 1.0), (np.array([0.0, 2.5, 0.0, 40.0, 0.0, 7.0]), 1.0),
           (np.array([3.0, 0.0, 1.0, 0.0, 2.0, 0.0]), np.array([1.0, 0.5, 0.0, 0.0, 2.0, 1.0]))]


class TestRateGradients:
    # the rotated channel runs the cq mode on the dense kernel; the generic dephasing
    # channel mixes its diagonal B receiver with dense C and CE receivers.  The pinching
    # cq-eg and qq cases take S(C) for S(RB); the three-Kraus cq-eg case builds RB.  The
    # random cq channel's mixed B conditionals give the only offset that is not constant in x
    @pytest.mark.parametrize(
        "mode,make,k,t_size",
        GRADIENT_CASES + [("cq", rotated_pinching_cq, 1, 3), ("dephasing", generic_dephasing, 1, 3),
                          ("cq-eg", three_kraus_channel, 1, 2), ("cq", random_cq, 1, 2)],
        ids=[f"{c[0]}-k{c[2]}" for c in GRADIENT_CASES] + ["cq-rotated-k1", "dephasing-generic-k1",
                                                           "cq-eg-three-kraus-k1", "cq-random-k1"])
    def test_matches_central_differences(self, mode, make, k, t_size):
        ev = build_evaluator(mode, make(), k=k, t_size=t_size)
        thetas = seeded_rng(5, k).standard_normal((6, ev.n_params))
        calls = adjoint_calls(ev)
        grads = ev.rates_grad(thetas)[2]
        d_common, d_personal = (central_differences(lambda th: ev.rates_grad(th)[pick])(thetas) for pick in (0, 1))
        for w_common, w_personal in WEIGHTS:
            calls.clear()
            got = grads(np.arange(6), w_common, w_personal)
            assert len(calls) == 1  # the common and personal terms share one backward pass
            ref = np.reshape(w_common, (-1, 1)) * d_common + np.reshape(w_personal, (-1, 1)) * d_personal
            assert np.abs(ref).max() > 1e-3  # the check is not vacuous
            assert np.abs(got - ref).max() <= 1e-6
            # rows pulled back alone match their rows of the whole batch
            rows = [4, 1, 3]
            alone = grads(rows, *(w[rows] if np.ndim(w) else w for w in (w_common, w_personal)))
            assert np.array_equal(alone, got[rows])

    def test_personal_pull_back_without_the_common_one(self):
        # a penalty rung whose common weight is 0 at every asked row pulls back only the personal
        # receivers; those rows match their rows of the whole batch
        ev = build_evaluator("cq", qb.make_pinching_cq())
        calls = adjoint_calls(ev)
        grads = ev.rates_grad(seeded_rng(19).standard_normal((6, ev.n_params)))[2]
        d_personal = grads([4, 1, 2], np.zeros(3), 1.0)
        assert calls == [["B"]]
        assert np.array_equal(d_personal, grads(np.arange(6), 0.0, 1.0)[[4, 1, 2]])

    def test_unbound_receiver_skipped(self):
        # a row pulled back alone skips the receiver it does not bind; its gradients are still the ones
        # it gets beside a row that binds the other receiver
        ev = build_evaluator("cq", crossed_cq())
        only_c = build_evaluator("cq-certified", crossed_cq(), t_size=ev.t_size)
        thetas = seeded_rng(19).standard_normal((8, ev.n_params))
        common, _, grads = ev.rates_grad(thetas)
        binds_c = common == only_c.rates_grad(thetas)[0]
        assert binds_c.any() and not binds_c.all()
        rows = [int(np.flatnonzero(~binds_c)[0]), int(np.flatnonzero(binds_c)[0])]  # one binds B, one C
        calls = adjoint_calls(ev)
        for weights in ((1.0, 0.0), (1.0, 1.0)):
            both = grads(rows, *weights)
            for at, (row, bound) in enumerate(zip(rows, ("B", "C"))):
                calls.clear()
                assert np.array_equal(grads([row], *weights)[0], both[at])
                assert calls == [sorted({bound} | ({"B"} if weights[1] else set()))]


def assert_directions_are_stage_gradients(monkeypatch, mode, make, k, t_size):
    """Both quasi-Newton rules need the exact gradient of the stage objective: the common rate in the
    r_max stage, and in a penalty stage the personal rate less mu max(0, r - common)^2 at a target
    some rows fall short of and some meet.  Each row carries r in a last column whose direction is an
    exact zero, so no step moves it."""
    ev = build_evaluator(mode, make(), k=k, t_size=t_size)
    thetas = seeded_rng(29).standard_normal((6, ev.n_params))
    common = np.sort(ev.rates_grad(thetas)[0])
    i = 1 + int(np.argmax(np.diff(common)[1:4]))  # the widest gap with two rows on either side
    r = 0.5 * (common[i] + common[i + 1])
    assert np.abs(common - r).min() > 1e-4  # no row sits at the penalty's kink
    stages, real = [], regions.maximize_batch
    monkeypatch.setattr(regions, "maximize_batch", lambda fn, *a, **kw: stages.append(fn) or real(fn, *a, **kw))
    regions._sweep(ev, OptimizerConfig(restarts=2, max_iters=1), r_values=[r])

    def tagged(th):
        return np.column_stack((th, np.full(len(th), r)))

    for stage in stages[:2]:  # the r_max stage, then the first penalty stage at r
        got = stage(tagged(thetas))[1](np.arange(6))
        assert got.shape == (6, ev.n_params + 1) and not got[:, -1].any()
        got = got[:, :-1]
        ref = central_differences(lambda th: stage(tagged(th))[0])(thetas)
        assert np.abs(ref).max() > 1e-3  # the check is not vacuous
        assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()


class TestAscentDirection:
    @pytest.mark.parametrize("mode,make,k,t_size", GRADIENT_CASES[:4], ids=[c[0] for c in GRADIENT_CASES[:4]])
    def test_conditional_direction_is_the_gradient(self, monkeypatch, mode, make, k, t_size):
        # the logit gradient itself, which the dense rule follows; no mirror map divides it by p
        assert_directions_are_stage_gradients(monkeypatch, mode, make, k, t_size)

    @pytest.mark.parametrize("mode,make,k,t_size", GRADIENT_CASES[4:6], ids=[c[0] for c in GRADIENT_CASES[4:6]])
    def test_pure_direction_is_the_gradient(self, monkeypatch, mode, make, k, t_size):
        assert_directions_are_stage_gradients(monkeypatch, mode, make, k, t_size)

    @pytest.mark.parametrize("front,make,dense", [
        (qb.cq_broadcast_frontier, qb.make_pinching_cq, True), (qb.dephasing_cq_frontier, qb.make_pinching, True),
        (qb.cq_entanglement_frontier, qb.make_pinching, False),
        (qb.qq_frontier, lambda: qb.make_pinching().swapped(), False)],
        ids=["cq", "dephasing", "cq-eg", "qq"])
    def test_step_rule_follows_the_family(self, monkeypatch, front, make, dense):
        # dense BFGS steps on the softmax distributions of the conditional families, whose logit
        # curvature spans orders of magnitude at the simplex boundary; L-BFGS on the pure states
        seen, real = [], regions.maximize_batch
        monkeypatch.setattr(regions, "maximize_batch",
                            lambda *a, **kw: seen.append(kw.get("dense", False)) or real(*a, **kw))
        front(make(), cfg=OptimizerConfig(restarts=2, r_grid=2, max_iters=3))
        assert seen and set(seen) == {dense}


class TestBoundaryOptima:
    # the cq and dephasing optima are deterministic p(x|t); at the sweep-cq size the whole
    # frontier reaches its closed form well inside the 4 x 300 iteration budget: the r_max call,
    # then one call per penalty rung on both targets' cold rows (361 and 391 iterations at seed 1001)
    @pytest.mark.parametrize("front,make,truth", [(qb.cq_broadcast_frontier, qb.make_pinching_cq, pinching_cq_truth),
                                                   (qb.dephasing_cq_frontier, qb.make_pinching, pinching_truth)],
                             ids=["cq", "dephasing"])
    def test_frontier_reaches_closed_form(self, front, make, truth):
        fr = front(make(), cfg=OptimizerConfig(restarts=4, r_grid=2, seed=1001))
        assert abs(fr.metadata["r_max"] - 1.0) <= 1e-9
        for pt in fr.points:
            assert abs(pt.personal_rate - truth(pt.common_rate)) <= 1e-6
        assert fr.metadata["stages"] == 4
        assert fr.metadata["iterations"] < 4 * 300
        assert 0 <= fr.metadata["stages_converged"] <= 4

    def test_cq_converges_every_stage(self):
        # the sweep-cq config: every call stops before max_iters, and so does every witness's restart set
        fr = qb.cq_broadcast_frontier(qb.make_pinching_cq(), cfg=OptimizerConfig(restarts=4, r_grid=2, seed=1001))
        assert fr.metadata["stages_converged"] == fr.metadata["stages"] == 4
        assert all(pt.witness["converged"] for pt in fr.points)

    def test_dephasing_converges_every_stage(self):
        # five targets share the r_max call and one call per penalty rung: 327 iterations at seed 7
        fr = qb.dephasing_cq_frontier(qb.make_pinching(), cfg=OptimizerConfig(restarts=4, r_grid=5, seed=7))
        assert fr.metadata["stages_converged"] == fr.metadata["stages"] == 4
        assert len(fr.points) == 5 and all(pt.witness["converged"] for pt in fr.points)


def counted_inits(monkeypatch, record=np.copy) -> list:
    """``record`` of the initial rows of every ``maximize_batch`` call the sweep makes from now on."""
    calls, real = [], regions.maximize_batch
    monkeypatch.setattr(regions, "maximize_batch",
                        lambda fn, inits, *a, **kw: calls.append(record(inits)) or real(fn, inits, *a, **kw))
    return calls


def counted_calls(monkeypatch) -> list:
    """The row count of every ``maximize_batch`` call the sweep makes from now on."""
    return counted_inits(monkeypatch, len)


class TestOneCallPerRung:
    @pytest.mark.parametrize("front,make,grid", [
        (qb.cq_broadcast_frontier, qb.make_pinching_cq, 1), (qb.cq_broadcast_frontier, qb.make_pinching_cq, 9),
        (qb.dephasing_cq_frontier, qb.make_pinching, 4), (qb.cq_entanglement_frontier, qb.make_pinching, 6)],
        ids=["cq-grid-1", "cq-grid-9", "dephasing-grid-4", "cq-eg-grid-6"])
    def test_calls_whatever_the_grid(self, monkeypatch, front, make, grid):
        # every target's restarts share one batch: the r_max call, then one call per penalty rung
        calls = counted_calls(monkeypatch)
        fr = front(make(), cfg=OptimizerConfig(restarts=3, r_grid=grid, max_iters=20))
        assert calls == [3] + [3 * grid] * len(PENALTY_SCALES)
        assert fr.metadata["stages"] == 1 + len(PENALTY_SCALES) and fr.metadata["grid"] == grid

    @pytest.mark.parametrize("front,mode,make", [(qb.cq_broadcast_frontier, "cq", qb.make_pinching_cq),
                                                 (qb.dephasing_cq_frontier, "dephasing", qb.make_pinching)],
                             ids=["cq", "dephasing"])
    def test_one_target_per_call_reproduces_one_call(self, monkeypatch, front, mode, make):
        cfg = OptimizerConfig(restarts=4, r_grid=5, seed=7)
        one = front(make(), cfg=cfg)
        n = build_evaluator(mode, make()).n_params
        # one target's inverse Hessians, as the sweep estimates them, fit the budget and two do not
        monkeypatch.setattr(regions, "HESSIAN_BUDGET", 1.5 * 3 * cfg.restarts * n ** 2 * 8 / 2 ** 20)
        calls = counted_calls(monkeypatch)
        each = front(make(), cfg=cfg)
        assert calls == [4] * (1 + 5 * len(PENALTY_SCALES))
        assert len(each) == len(one) and np.abs(each.as_array() - one.as_array()).max() <= 1e-12
        assert [pt.witness["restart"] for pt in each.points] == [pt.witness["restart"] for pt in one.points]


class TestCertification:
    def test_pinching_cq_certifies(self):
        cert = qb.certify_single_letter_cq(qb.make_pinching_cq(),
                                           cfg=small_cfg(restarts=4),
                                           r_values=[0.2, 0.8])
        assert cert.commuting
        assert cert.certified
        assert cert.residual <= 1e-6
        assert isinstance(cert.method, str)
        assert cert.frontier is not None
        assert cert.frontier.metadata["mode"] == "cq-certified"
        pt = cert.frontier.points[-1]
        c, p = evaluate_witness("cq-certified", qb.make_pinching_cq(), pt.witness)
        assert abs(c - pt.witness["raw_common"]) < 1e-12
        assert abs(p - pt.witness["raw_personal"]) < 1e-12

    def test_noncommuting_channel_not_certified(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        w = qb.CqBroadcastChannel([0, 1], [np.diag([1.0, 0.0]), plus], qb.layout(("B", 2), ("C", 1)))
        cert = qb.certify_single_letter_cq(w, cfg=small_cfg(restarts=4), r_values=[0.1])
        assert not cert.commuting
        assert not cert.certified
        assert cert.frontier is None


class TestQqFrontier:
    def test_requires_isometric_broadcast(self):
        with pytest.raises(qb.ValidationError):
            qb.qq_frontier(qb.make_bsc_cascade())
        dep = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        two_kraus = qb.BroadcastChannel(
            [np.kron(m, np.eye(1)) for m in dep], qb.layout(("B", 2), ("C", 1)))
        with pytest.raises(qb.ValidationError):
            qb.qq_frontier(two_kraus)

    def test_pinching_delegates_to_dephasing_rates(self):
        cfg = small_cfg(restarts=4)
        r_values = [0.2, 0.8]
        qq = qb.qq_frontier(qb.make_pinching(), cfg=cfg, r_values=r_values)
        dz = qb.dephasing_cq_frontier(qb.make_pinching(), cfg=cfg, r_values=r_values)
        assert qq.metadata["mode"] == "qq-dephasing"
        assert dz.metadata["mode"] == "dephasing"
        assert np.array_equal(qq.as_array(), dz.as_array())


class TestDephasingFrontier:
    def test_free_personal_rate_without_common_traffic(self):
        fr = qb.dephasing_cq_frontier(qb.make_pinching(), cfg=small_cfg(restarts=8),
                                      r_values=[0.0])
        assert fr.value_at(0.0) > 0.995

    def test_tracks_closed_form_at_midpoint(self):
        fr = qb.dephasing_cq_frontier(qb.make_pinching(), cfg=small_cfg(restarts=8),
                                      r_values=[0.0, 0.3, 0.6, h2(0.75)])
        # closed form: personal 0.75 at common h2(0.75)
        assert abs(fr.value_at(h2(0.75), slack=1e-6) - 0.75) < 1e-2


class TestEntanglementGeneration:
    @pytest.mark.parametrize("seed", [7, 1001])
    def test_frontier_converges_onto_closed_form(self, seed):
        # L-BFGS steps on the exact gradient: every point meets the pinching boundary and every
        # witness stage retires before max_iters
        fr = qb.cq_entanglement_frontier(qb.make_pinching(), t_size=2,
                                         cfg=OptimizerConfig(restarts=4, r_grid=5, seed=seed))
        assert len(fr.points) >= 3
        for pt in fr.points:
            assert abs(pt.personal_rate - pinching_truth(pt.common_rate)) <= 1e-9
            assert pt.witness["converged"]

    def test_matches_dephasing_personal_rate(self):
        cfg = small_cfg(restarts=4, max_iters=120)
        target = [0.3]
        eg = qb.cq_entanglement_frontier(qb.make_pinching(), cfg=cfg, r_values=target, t_size=2)
        dz = qb.dephasing_cq_frontier(qb.make_pinching(), cfg=cfg, r_values=target)
        assert eg.metadata["mode"] == "cq-eg"
        assert abs(eg.value_at(0.3, slack=1e-6) - dz.value_at(0.3, slack=1e-6)) < 2e-2


def pure_density(vec, lay):
    return qb.DensityMatrix(np.outer(vec, vec.conj()), lay)


class TestMergingRates:
    def test_trivial_c_receiver(self):
        ch = qb.BroadcastChannel([np.kron(np.eye(2, dtype=complex), np.ones((1, 1)))],
                                 qb.layout(("B", 2), ("C", 1)))
        vec = np.zeros(4, dtype=complex)
        vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
        psi = qb.PureState(vec, qb.layout(("R", 2), ("in", 2)))
        rates = qb.merging_rates(ch, psi)
        assert abs(rates.q_c_bound - 1.0) < 1e-10
        assert abs(rates.bc_distill + 1.0) < 1e-10
        assert not rates.feasible
        q_c, bc = rates
        assert q_c == rates.q_c_bound and bc == rates.bc_distill

    def test_copy_channel_on_entangled_input(self):
        ch = qb.make_ghz_copy()
        vec = np.zeros(4, dtype=complex)
        vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
        psi = qb.PureState(vec, qb.layout(("A", 2), ("in", 2)))
        rates = qb.merging_rates(ch, psi)
        assert abs(rates.q_c_bound - 1.0) < 1e-10
        assert abs(rates.bc_distill) < 1e-10
        assert not rates.feasible

    def test_split_copy_feasible(self):
        # V|x1 x2> = |x1>_B |x1 x2>_C ; feed |+> on x1 and half of a Bell pair on x2
        v = np.zeros((8, 4), dtype=complex)
        for x1 in range(2):
            for x2 in range(2):
                v[x1 * 4 + x1 * 2 + x2, x1 * 2 + x2] = 1.0
        ch = qb.BroadcastChannel([v], qb.layout(("B", 2), ("C", 4)))
        vec = np.zeros(8, dtype=complex)
        for r in range(2):
            for x1 in range(2):
                vec[r * 4 + x1 * 2 + r] = 0.5
        psi = qb.PureState(vec, qb.layout(("R", 2), ("in", 4)))
        rates = qb.merging_rates(ch, psi)
        sigma = ch.apply_to(psi.to_density(), "in")
        mat = sigma.reorder(("R", "B", "C")).matrix
        assert abs(rates.q_c_bound - coherent_info_ref(mat, (2, 2, 4), [0], [1, 2])) < 1e-10
        assert abs(rates.bc_distill - coherent_info_ref(mat, (2, 2, 4), [1], [2])) < 1e-10
        assert abs(rates.q_c_bound - 1.0) < 1e-10
        assert abs(rates.bc_distill - 1.0) < 1e-10
        assert rates.feasible

    def test_input_validation(self):
        ch = qb.make_ghz_copy()
        vec = np.zeros(2, dtype=complex)
        vec[0] = 1.0
        with pytest.raises(qb.ValidationError):
            qb.merging_rates(ch, qb.PureState(vec, qb.layout(("in", 2))))
        vec4 = np.zeros(8, dtype=complex)
        vec4[0] = 1.0
        with pytest.raises(qb.ValidationError):
            qb.merging_rates(ch, qb.PureState(vec4, qb.layout(("R", 2), ("in", 4))))


class TestWrongInputDimension:
    @pytest.mark.parametrize("rates,refs", [(qb.merging_rates, 1), (qb.independent_rates, 2)],
                             ids=["merging", "independent"])
    def test_rejected_by_the_channel(self, rates, refs):
        # a 4-dim input on the 2-dim GHZ copy: the channel's own apply_to refuses it
        lay = qb.layout(*[(f"R{i}", 2) for i in range(refs)], ("in", 4))
        vec = np.zeros(lay.dim, dtype=complex)
        vec[0] = 1.0
        with pytest.raises(qb.ValidationError, match="subsystem 'in' has dimension 4, channel expects 2"):
            rates(qb.make_ghz_copy(), qb.PureState(vec, lay))


class TestIndependentRates:
    @staticmethod
    def double_epr():
        vec = np.zeros(16, dtype=complex)
        for x1 in range(2):
            for x2 in range(2):
                vec[x1 * 8 + x2 * 4 + x1 * 2 + x2] = 0.5
        return qb.PureState(vec, qb.layout(("Rb", 2), ("Rc", 2), ("in", 4)))

    def test_routing_channel(self):
        ch = qb.BroadcastChannel([np.eye(4, dtype=complex)], qb.layout(("B", 2), ("C", 2)))
        rates = qb.independent_rates(ch, self.double_epr())
        assert abs(rates.rate_b - 1.0) < 1e-10
        assert abs(rates.rate_c - 1.0) < 1e-10
        assert rates.feasible_b and rates.feasible_c

    def test_constant_channel_is_infeasible(self):
        ops = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
        for i in range(4):
            ops[i][0, i] = 1.0
        ch = qb.BroadcastChannel(ops, qb.layout(("B", 2), ("C", 2)))
        rates = qb.independent_rates(ch, self.double_epr())
        assert abs(rates.rate_b + 1.0) < 1e-10
        assert abs(rates.rate_c + 1.0) < 1e-10
        assert not rates.feasible_b and not rates.feasible_c

    def test_one_sided_dephasing(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        ops = [np.kron(p, np.eye(2, dtype=complex)) for p in (p0, p1)]
        ch = qb.BroadcastChannel(ops, qb.layout(("B", 2), ("C", 2)))
        psi = self.double_epr()
        rates = qb.independent_rates(ch, psi)
        sigma = ch.apply_to(psi.to_density(), "in")
        mat = sigma.reorder(("Rb", "Rc", "B", "C")).matrix
        assert abs(rates.rate_b - coherent_info_ref(mat, (2, 2, 2, 2), [0], [2])) < 1e-10
        assert abs(rates.rate_c - coherent_info_ref(mat, (2, 2, 2, 2), [1], [3])) < 1e-10
        assert abs(rates.rate_b) < 1e-10
        assert abs(rates.rate_c - 1.0) < 1e-10
        assert not rates.feasible_b
        assert rates.feasible_c

    def test_needs_two_references(self):
        ch = qb.BroadcastChannel([np.eye(4, dtype=complex)], qb.layout(("B", 2), ("C", 2)))
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        with pytest.raises(qb.ValidationError):
            qb.independent_rates(ch, qb.PureState(vec, qb.layout(("R", 2), ("in", 4))))
