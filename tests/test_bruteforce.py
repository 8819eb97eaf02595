import ast
import inspect
import itertools
import math

import numpy as np
import pytest

import qbroadcast as qb
from qbroadcast.bruteforce import (
    _composition_table,
    _enumerate_joints,
    _label_blocks,
    _ordered_sum,
    _receiver_kernel,
    _table_entropy,
    classical_degraded_region,
    cardinality_probe,
    composition_count,
    compositions,
    grid_cq_frontier,
    mesh_tolerance,
)

from conftest import rotated_pinching_cq


def float_joints(mesh, t_size, n_x):
    """The enumeration's (candidates, t_size, |X|) float joints p(t, x): each index row's blocks over the mesh."""
    return (_label_blocks(mesh, t_size, n_x) / float(mesh))[_enumerate_joints(mesh, t_size, n_x)]


class TestCompositions:
    def test_count_matches_stars_and_bars(self):
        for total, parts in [(3, 2), (8, 4), (12, 6), (5, 1)]:
            assert composition_count(total, parts) == math.comb(total + parts - 1, parts - 1)
        assert composition_count(12, 6) == 6188

    def test_enumeration(self):
        rows = list(compositions(3, 2))
        assert len(rows) == composition_count(3, 2)
        assert all(sum(r) == 3 for r in rows)
        assert len(set(rows)) == len(rows)
        assert (0, 3) in set(rows) and (3, 0) in set(rows)

    def test_table_order_matches_recursive_enumeration(self):
        def recursive(total, parts):
            if parts == 1:
                return [(total,)]
            return [(head,) + rest for head in range(total + 1) for rest in recursive(total - head, parts - 1)]

        for total, parts in [(0, 1), (4, 1), (0, 3), (3, 2), (5, 4), (6, 6)]:
            assert list(compositions(total, parts)) == recursive(total, parts)
        # the oracles take one joint per relabeling: the table rows whose label blocks ascend, in table order
        for mesh, t_size, n_x in [(9, 4, 3), (6, 3, 2), (5, 2, 3), (4, 3, 3), (7, 1, 2), (5, 1, 3)]:
            ascending = [row for row in recursive(mesh, t_size * n_x) if all(
                row[t * n_x:(t + 1) * n_x] <= row[(t + 1) * n_x:(t + 2) * n_x] for t in range(t_size - 1))]
            joints = float_joints(mesh, t_size, n_x)
            assert joints.shape == (len(ascending), t_size, n_x)
            assert np.array_equal(joints.reshape(len(joints), -1) * float(mesh), np.array(ascending, dtype=float))

    @pytest.mark.parametrize("mesh,t_size,n_x", [(6, 3, 1), (4, 4, 1), (30, 3, 2)])
    def test_joints_are_the_ascending_table_rows(self, mesh, t_size, n_x):
        # blocks hold at most mesh, so a base mesh + 1 code of a block orders blocks lexicographically;
        # the joints grow in table order, with no sort of the finished rows
        table = _composition_table(mesh, t_size * n_x).astype(np.intp)
        codes = table.reshape(len(table), t_size, n_x) @ (mesh + 1) ** np.arange(n_x - 1, -1, -1)
        ascending = table[(np.diff(codes, axis=1) >= 0).all(axis=1)]
        joints = float_joints(mesh, t_size, n_x)
        assert joints.shape == (len(ascending), t_size, n_x)
        assert np.array_equal(joints.reshape(len(joints), -1) * float(mesh), ascending)

    @pytest.mark.parametrize("total,parts", [(0, 1), (7, 1), (0, 4), (1, 5), (3, 2), (6, 4), (9, 4), (4, 7),
                                             (300, 2), (255, 3)])
    def test_table_matches_itertools_reference(self, total, parts):
        # itertools.product runs in lexicographic order; the last part is what the others leave
        ref = [(*head, total - sum(head)) for head in itertools.product(range(total + 1), repeat=parts - 1)
               if sum(head) <= total]
        table = _composition_table(total, parts)
        assert table.dtype == np.min_scalar_type(total)
        assert table.shape == (composition_count(total, parts), parts)
        assert table.tolist() == [list(row) for row in ref]

    def test_parts_validated(self):
        with pytest.raises(qb.ValidationError):
            list(compositions(3, 0))

    def test_mesh_tolerance(self):
        assert abs(mesh_tolerance(10) - 0.15) < 1e-15
        assert mesh_tolerance(20) < mesh_tolerance(10)


class TestGridOracle:
    def test_rejects_non_cq_channels(self):
        with pytest.raises(qb.ValidationError):
            grid_cq_frontier(qb.make_pinching(), 2, 8)

    def test_budget_error(self):
        with pytest.raises(qb.BudgetError):
            grid_cq_frontier(qb.make_bsc_cascade(), 3, 60)

    def test_noiseless_bit_frontier(self):
        fr = grid_cq_frontier(qb.make_noiseless_bit(), 2, 8)
        assert fr.metadata["mode"] == "oracle-grid"
        assert fr.metadata["candidates"] == composition_count(8, 4)
        assert abs(fr.value_at(0.0) - 1.0) < 1e-12
        assert abs(fr.max_common() - 1.0) < 1e-12
        for pt in fr.points:
            assert pt.common_rate + pt.personal_rate <= 1.0 + 1e-9
            assert "joint" in pt.witness

    def test_witness_joint_reproduces_rates(self):
        w = qb.make_bsc_cascade()
        fr = grid_cq_frontier(w, 2, 6)
        b_stack = np.stack(w.marginal_conditionals("B"))
        c_stack = np.stack(w.marginal_conditionals("C"))
        from conftest import spectrum_entropy

        for pt in fr.points[:: max(1, len(fr.points) // 5)]:
            joint = np.asarray(pt.witness["joint"])
            p_t = joint.sum(axis=1)
            p_x = joint.sum(axis=0)
            i_tb = i_tc = personal = 0.0
            rho_b = np.einsum("x,xij->ij", p_x, b_stack)
            rho_c = np.einsum("x,xij->ij", p_x, c_stack)
            i_tb, i_tc = spectrum_entropy(rho_b), spectrum_entropy(rho_c)
            for t in range(joint.shape[0]):
                if p_t[t] <= 0:
                    continue
                bt = np.einsum("x,xij->ij", joint[t] / p_t[t], b_stack)
                ct = np.einsum("x,xij->ij", joint[t] / p_t[t], c_stack)
                i_tb -= p_t[t] * spectrum_entropy(bt)
                i_tc -= p_t[t] * spectrum_entropy(ct)
                personal += p_t[t] * spectrum_entropy(bt)
            personal -= sum(p_x[x] * spectrum_entropy(b_stack[x]) for x in range(len(p_x)))
            assert abs(pt.common_rate - max(min(i_tb, i_tc), 0.0)) < 1e-9
            assert abs(pt.personal_rate - max(personal, 0.0)) < 1e-9

    def test_symbol_relabeling_invariance(self):
        w = qb.make_bsc_cascade()
        flipped = qb.CqBroadcastChannel(w.symbols[::-1], w.states[::-1], w.out_layout)
        a = grid_cq_frontier(w, 2, 6).as_array()
        b = grid_cq_frontier(flipped, 2, 6).as_array()
        assert a.shape == b.shape
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("t_size,mesh", [(4, 9), (3, 12)])
    def test_no_near_duplicate_commons(self, t_size, mesh):
        # commons that differ only by rounding are one point, not a dominated pair
        rows = grid_cq_frontier(qb.make_pinching_cq(), t_size, mesh).as_array()
        assert np.diff(rows[:, 0]).min() > 1e-12
        assert np.diff(rows[:, 1]).max() < 0.0

    @pytest.mark.parametrize("r_grid", [0, -3])
    def test_r_grid_validated(self, r_grid):
        with pytest.raises(qb.ValidationError):
            grid_cq_frontier(qb.make_noiseless_bit(), 2, 4, r_grid=r_grid)

    def test_resampled_grid(self):
        fr = grid_cq_frontier(qb.make_noiseless_bit(), 2, 6, r_grid=9)
        assert len(fr) == 9
        assert fr.metadata["resampled"] is True
        expect = np.linspace(0.0, 1.0, 9)
        assert np.abs(fr.as_array()[:, 0] - expect).max() < 1e-12


class TestClassicalOracle:
    @staticmethod
    def bsc(f):
        return np.array([[1.0 - f, f], [f, 1.0 - f]])

    def test_table_validation(self):
        with pytest.raises(qb.ValidationError) as exc:
            classical_degraded_region(np.array([[0.9, 0.1], [0.2, 0.9]]), self.bsc(0.1), 6)
        assert "p_y_given_x" in str(exc.value)
        with pytest.raises(qb.ValidationError):
            classical_degraded_region(self.bsc(0.1), np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 1.0]]), 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tables_rejected(self, bad):
        with pytest.raises(qb.ValidationError, match="non-finite"):
            classical_degraded_region(self.bsc(bad), self.bsc(0.2), 4)
        with pytest.raises(qb.ValidationError, match="non-finite"):
            classical_degraded_region(self.bsc(0.1), self.bsc(bad), 4)

    def test_default_t_size(self):
        fr = classical_degraded_region(self.bsc(0.1), self.bsc(0.2), 4)
        assert fr.metadata["t_size"] == 3
        assert fr.metadata["mode"] == "oracle-classical"

    def test_matches_quantum_oracle_on_diagonal_channel(self):
        # same enumeration, rates through probability tables vs matrix spectra
        mesh, t_size = 8, 3
        cl = classical_degraded_region(self.bsc(0.1), self.bsc(0.2), mesh, t_size=t_size)
        qu = grid_cq_frontier(qb.make_bsc_cascade(0.1, 0.2), t_size, mesh)
        assert cl.metadata["candidates"] == qu.metadata["candidates"]
        for r in np.linspace(0.0, min(cl.max_common(), qu.max_common()), 21):
            assert abs(cl.value_at(r) - qu.value_at(r)) < 1e-9

    def test_perfect_cascade(self):
        fr = classical_degraded_region(np.eye(2), np.eye(2), 8, t_size=2)
        assert abs(fr.max_common() - 1.0) < 1e-12
        assert abs(fr.value_at(0.0) - 1.0) < 1e-12


class TestCardinalityProbe:
    def test_report_fields_and_monotonicity(self):
        rep = cardinality_probe(qb.make_noiseless_bit(), 2, 1, 8)
        assert rep.bound == 2 and rep.extra == 1 and rep.mesh == 8
        assert rep.improvement >= 0.0
        assert rep.reach_gain >= 0.0
        assert len(rep.base) > 0 and len(rep.extended) > 0
        assert rep.extended.metadata["t_size"] == 3

    @pytest.mark.parametrize("extra", [0, -1])
    def test_extra_validated(self, extra):
        with pytest.raises(qb.ValidationError):
            cardinality_probe(qb.make_pinching_cq(), 2, extra, 4)

    @pytest.mark.parametrize("make", [qb.make_noiseless_bit, qb.make_pinching_cq])
    def test_extended_frontier_covers_the_base_one(self, make):
        # a base representative padded with leading zero blocks is an extended representative
        rep = cardinality_probe(make(), 2, 1, 8)
        for pt in rep.base.points:
            assert rep.extended.value_at(pt.common_rate, slack=1e-12) >= pt.personal_rate - 1e-12

    def test_no_gain_past_saturation(self):
        # extra labels refine time-sharing on a finite mesh but never beat the
        # bound by more than the discretization tolerance, and never reach further
        rep = cardinality_probe(qb.make_noiseless_bit(), 2, 2, 12)
        assert rep.improvement <= 1e-3 + mesh_tolerance(12)
        assert rep.reach_gain <= 1e-12


class TestGridKernels:
    @pytest.mark.parametrize("make", [qb.make_pinching_cq, qb.make_noiseless_bit])
    def test_diagonal_stacks_skip_eigvalsh(self, make, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a diagonal stack")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert len(grid_cq_frontier(make(), 3, 6)) > 0

    def test_dense_path_matches_diagonal_path(self):
        diag = grid_cq_frontier(qb.make_pinching_cq(), 3, 8)
        dense = grid_cq_frontier(rotated_pinching_cq(), 3, 8)
        assert diag.metadata["candidates"] == dense.metadata["candidates"]
        for r in np.linspace(0.0, diag.max_common(), 21):
            assert abs(diag.value_at(r) - dense.value_at(r)) < 1e-9

    def test_dense_kernel_matches_eigvalsh_formula(self):
        # the per-matrix eigvalsh entropy the dense kernel used before it went through _table_entropy
        def reference(mats):
            evals = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
            logs = np.where(evals > qb.bruteforce._CLAMP, np.log2(np.maximum(evals, qb.bruteforce._CLAMP)), 0.0)
            return -(evals * logs).sum(axis=-1)

        w = rotated_pinching_cq()
        joints = float_joints(6, 3, w.n_symbols)
        p_t = joints.sum(axis=2, keepdims=True)
        inv_p_t = 1.0 / np.where(p_t > 0, p_t, 1.0)  # as the oracle scales its label states
        for label in (w.b_label, w.c_label):
            stack = w.marginal_conditionals(label)
            mix, entropy = _receiver_kernel(stack)
            assert mix.shape == (w.n_symbols, stack.shape[-1] ** 2)  # the dense branch
            label_states = (joints.reshape(-1, w.n_symbols) @ mix).reshape(len(joints), 3, -1) * inv_p_t
            for rows in (label_states, joints.sum(axis=1) @ mix, mix):
                mats = rows.reshape(rows.shape[:-1] + stack.shape[1:])
                assert np.array_equal(entropy(rows), reference(mats))


class TestChunking:
    CASES = [
        ("grid-diagonal", lambda: grid_cq_frontier(qb.make_pinching_cq(), 3, 8)),
        ("grid-dense", lambda: grid_cq_frontier(rotated_pinching_cq(), 2, 6)),
        ("classical", lambda: classical_degraded_region(np.array([[0.9, 0.1], [0.1, 0.9]]),
                                                        np.array([[0.8, 0.2], [0.2, 0.8]]), 12, t_size=3)),
    ]

    @pytest.mark.parametrize("run", [run for _, run in CASES], ids=[name for name, _ in CASES])
    def test_chunk_size_does_not_change_any_candidate(self, run, monkeypatch):
        # every candidate's (common, personal) is bit-identical whether the rows go through in one chunk or many
        seen = []
        pareto = qb.bruteforce._pareto_points

        def spy(commons, personals, *rest):
            seen.append((commons.copy(), personals.copy()))
            return pareto(commons, personals, *rest)

        monkeypatch.setattr(qb.bruteforce, "_pareto_points", spy)
        for chunk in (qb.bruteforce.MAX_CANDIDATES, 7):
            monkeypatch.setattr(qb.bruteforce, "_CHUNK", chunk)
            run()
        (c_one, p_one), (c_many, p_many) = seen
        assert c_one.size > 7
        assert np.array_equal(c_one, c_many) and np.array_equal(p_one, p_many)


class TestRelabeling:
    CASES = [
        ("grid-diagonal", lambda: grid_cq_frontier(qb.make_pinching_cq(), 3, 8)),
        ("grid-dense", lambda: grid_cq_frontier(rotated_pinching_cq(), 3, 6)),
        ("classical", lambda: classical_degraded_region(np.array([[0.9, 0.1], [0.1, 0.9]]),
                                                        np.array([[0.8, 0.2], [0.2, 0.8]]), 12, t_size=3)),
    ]

    @pytest.mark.parametrize("run", [run for _, run in CASES], ids=[name for name, _ in CASES])
    def test_permuting_labels_keeps_every_candidate(self, run, monkeypatch):
        # the rates are functions of the label multiset, which is why one joint per orbit suffices
        seen = []
        pareto, enumerate_joints = qb.bruteforce._pareto_points, qb.bruteforce._enumerate_joints

        def spy(commons, personals, *rest):
            seen.append((commons.copy(), personals.copy()))
            return pareto(commons, personals, *rest)

        def permuted(*args):
            rows = enumerate_joints(*args)  # (candidates, t_size) block indices
            order = np.argsort(np.random.default_rng(5).random(rows.shape), axis=1)
            assert (order != np.arange(rows.shape[1])).any()
            return np.take_along_axis(rows, order, axis=1)

        monkeypatch.setattr(qb.bruteforce, "_pareto_points", spy)
        run()
        monkeypatch.setattr(qb.bruteforce, "_enumerate_joints", permuted)
        run()
        (c_sorted, p_sorted), (c_perm, p_perm) = seen
        assert c_sorted.size > 100
        assert np.abs(c_sorted - c_perm).max() <= 1e-12 and np.abs(p_sorted - p_perm).max() <= 1e-12


def grid_full_tables(w, joints):
    """Every candidate's grid rates from its own float joint: the label states of whole (t, x) tables."""
    kernels = [_receiver_kernel(w.marginal_conditionals(label)) for label in (w.b_label, w.c_label)]
    p_t, p_x = joints.sum(axis=2), joints.sum(axis=1)
    inv_p_t = (1.0 / np.where(p_t > 0, p_t, 1.0))[:, :, None]
    holevo = []
    for mix, entropy in kernels:
        states = (joints.reshape(-1, w.n_symbols) @ mix).reshape(*joints.shape[:2], -1) * inv_p_t
        h_t = np.where(p_t > 0, entropy(states), 0.0)
        holevo.append(((p_t * h_t).sum(axis=1), entropy(p_x @ mix)))
    (cond_b, h_b), (cond_c, h_c) = holevo
    return np.minimum(h_b - cond_b, h_c - cond_c), cond_b - p_x @ kernels[0][1](kernels[0][0])


def classical_full_tables(p1, p2, joints):
    """Every candidate's classical rates from its own float joint: entropies of whole (t, z), (t, x), (t, y)
    and (t, x, y) tables."""
    n_x = p1.shape[1]
    p_tz = (joints.reshape(-1, n_x) @ (p2 @ p1).T).reshape(*joints.shape[:2], -1)
    p_ty = (joints.reshape(-1, n_x) @ p1.T).reshape(*joints.shape[:2], -1)
    h_t = _table_entropy(joints.sum(axis=2))
    return (h_t + _table_entropy(p_tz.sum(axis=1)) - _table_entropy(p_tz),
            _table_entropy(joints) + _table_entropy(p_ty) - _table_entropy(joints[..., None] * p1.T) - h_t)


class TestBlockTables:
    CASES = [
        ("grid-diagonal", qb.make_pinching_cq, 4, 9),
        ("grid-dense", rotated_pinching_cq, 3, 8),
        ("grid-8-labels", qb.make_noiseless_bit, 8, 9),  # 8 label terms: the eight running sums of a .sum
        ("classical-bsc", lambda: (np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([[0.8, 0.2], [0.2, 0.8]])), 3, 30),
        ("classical-2-3-2", lambda: (np.array([[0.7, 0.1], [0.2, 0.3], [0.1, 0.6]]),
                                     np.array([[0.9, 0.4, 0.25], [0.1, 0.6, 0.75]])), 3, 14),
    ]

    @pytest.mark.parametrize("make,t_size,mesh", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_gathered_rates_are_the_full_table_bytes(self, make, t_size, mesh, monkeypatch):
        # per-block terms gathered per candidate are the very bytes of each candidate's own full tables
        seen = []
        pareto = qb.bruteforce._pareto_points

        def spy(commons, personals, *rest):
            seen.append((commons.copy(), personals.copy()))
            return pareto(commons, personals, *rest)

        monkeypatch.setattr(qb.bruteforce, "_pareto_points", spy)
        channel = make()
        if isinstance(channel, tuple):  # the (p(y|x), p(z|y)) tables of a classical cascade
            classical_degraded_region(*channel, mesh, t_size=t_size)
            reference = classical_full_tables(*channel, float_joints(mesh, t_size, channel[0].shape[1]))
        else:
            grid_cq_frontier(channel, t_size, mesh)
            reference = grid_full_tables(channel, float_joints(mesh, t_size, channel.n_symbols))
        (commons, personals), = seen
        assert commons.size > 1000
        for got, want in zip((commons, personals), reference):
            want = np.maximum(want, 0.0)  # as _scan clips before the Pareto pass
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def awkward_terms(rng, shape):
    """Floats whose sum depends on the order: spread magnitudes, signed zeros, subnormals, rows of -0.0."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    a[rng.random(shape) < 0.05] = 5e-324
    a[rng.random(shape) < 0.05] = -3e-310
    a[0] = -0.0
    return a


class TestOrderedSum:
    # the oracles' label sums add gathered columns one by one, in the very order numpy's .sum adds the same terms
    # (the helper runs first, so a term it wrote to would show in the reference sum too)
    @pytest.mark.parametrize("n", range(1, 141))
    def test_contiguous_sum_bytes(self, n):
        a = awkward_terms(np.random.default_rng(n), (64, n))
        got = _ordered_sum(lambda j: a[:, j], n, True)
        assert got.tobytes() == a.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 130])
    def test_label_axis_sum_bytes(self, n):
        a = awkward_terms(np.random.default_rng(1000 + n), (64, n, 3))
        got = _ordered_sum(lambda l: a[:, l], n, False)
        assert got.tobytes() == a.sum(axis=1).tobytes()


class TestBudget:
    def test_refused_before_any_block_table(self, monkeypatch):
        # MAX_CANDIDATES is the one budget: every oracle refuses a mesh whose stars-and-bars count exceeds it
        def refuse(*args):
            raise AssertionError("block table built for an over-budget enumeration")

        # (mesh, t_size * |X|) of each call below; bsc at t_size 3, mesh 60 is 8.26M candidates
        for mesh, cells in [(60, 6), (30, 12), (200, 6), (400, 4)]:
            assert composition_count(mesh, cells) > qb.bruteforce.MAX_CANDIDATES
        monkeypatch.setattr(qb.bruteforce, "_composition_table", refuse)
        bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(qb.BudgetError):
            grid_cq_frontier(qb.make_bsc_cascade(), 3, 60)
        with pytest.raises(qb.BudgetError):
            grid_cq_frontier(qb.make_pinching_cq(), 4, 30)
        with pytest.raises(qb.BudgetError):
            classical_degraded_region(bsc, bsc, 200, t_size=3)
        with pytest.raises(qb.BudgetError):
            cardinality_probe(qb.make_noiseless_bit(), 2, 1, 400)

    def test_candidates_count_the_full_table(self):
        bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
        grid = grid_cq_frontier(qb.make_pinching_cq(), 4, 9)
        assert grid.metadata["candidates"] == composition_count(9, 12) == 167_960
        classical = classical_degraded_region(bsc, bsc, 30, t_size=3)
        assert classical.metadata["candidates"] == composition_count(30, 6) == 324_632
        rep = cardinality_probe(qb.make_pinching_cq(), 2, 1, 6)
        assert rep.base.metadata["candidates"] == composition_count(6, 6)
        assert rep.extended.metadata["candidates"] == composition_count(6, 9)


class TestOracleIndependence:
    def test_no_engine_entropy_code(self):
        # the oracles check the engine, so they must compute entropies with their own code
        source = inspect.getsource(qb.bruteforce)
        for name in ("entropy_of_spectrum", "entropy_and_slope", "von_neumann_entropy", "batched_entropy",
                     "ENTROPY_CLAMP"):
            assert name not in source, name

    def test_imports_only_the_shared_pareto_rule(self):
        # sharing the staircase with the sweeps must not open a route for engine entropy code
        imported = {}
        for node in ast.walk(ast.parse(inspect.getsource(qb.bruteforce))):
            if isinstance(node, ast.ImportFrom):
                imported.setdefault((node.module or "").split(".")[-1], set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update({a.name.split(".")[-1]: {"*"} for a in node.names})
        assert imported["regions"] == {"Frontier", "RatePoint", "pareto_staircase"}
        assert "states" not in imported
        assert not any(names & {"regions", "states"} for names in imported.values())
