import numpy as np
import pytest

import qbroadcast as qb
from qbroadcast.states import ENTROPY_CLAMP, _hermitize, entropy_and_slope, entropy_of_spectrum, trace_norms

from conftest import spectrum_entropy


def diag_state(values, *parts):
    return qb.DensityMatrix(np.diag(values).astype(complex), qb.layout(*parts))


class TestLayout:
    def test_basic(self):
        lay = qb.layout(("A", 2), ("B", 3))
        assert lay.labels == ("A", "B")
        assert lay.dims == (2, 3)
        assert lay.dim == 6
        assert lay.index("B") == 1
        assert lay.dim_of("A") == 2

    def test_restrict_and_concat(self):
        lay = qb.layout(("A", 2), ("B", 3), ("C", 2))
        assert lay.restrict({"C", "A"}).labels == ("A", "C")
        joined = qb.layout(("A", 2)).concat(qb.layout(("B", 3)))
        assert joined.dims == (2, 3)

    def test_duplicate_label_rejected(self):
        with pytest.raises(qb.ValidationError):
            qb.layout(("A", 2), ("A", 2))

    def test_bad_dim_rejected(self):
        with pytest.raises(qb.ValidationError):
            qb.layout(("A", 0))


class TestDensityMatrix:
    def test_validation_catches_trace(self):
        with pytest.raises(qb.ValidationError):
            qb.DensityMatrix(np.diag([0.8, 0.1]).astype(complex), qb.layout(("A", 2)))

    def test_validation_catches_hermiticity(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(qb.ValidationError):
            qb.DensityMatrix(mat, qb.layout(("A", 2)))

    def test_validation_catches_negativity(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(qb.ValidationError):
            qb.DensityMatrix(mat, qb.layout(("A", 2)))

    def test_shape_must_match_layout(self):
        with pytest.raises(qb.ValidationError):
            qb.DensityMatrix(np.eye(3, dtype=complex) / 3, qb.layout(("A", 2)))

    def test_reorder_is_a_permutation(self):
        rng = np.random.default_rng(0)
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 3)), rng)
        flipped = rho.reorder(("B", "A"))
        assert flipped.layout.labels == ("B", "A")
        again = flipped.reorder(("A", "B"))
        assert np.abs(again.matrix - rho.matrix).max() < 1e-14

    def test_merge_labels(self):
        rng = np.random.default_rng(1)
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2), ("C", 3)), rng)
        merged = rho.merge_labels([("AB", ["A", "B"]), ("C", ["C"])])
        assert merged.layout.labels == ("AB", "C")
        assert merged.layout.dims == (4, 3)
        assert np.abs(merged.matrix - rho.matrix).max() < 1e-14


class TestPureState:
    def test_norm_validated(self):
        with pytest.raises(qb.ValidationError):
            qb.PureState(np.array([1.0, 1.0], dtype=complex), qb.layout(("A", 2)))

    def test_to_density(self):
        psi = qb.basis_state(qb.layout(("A", 2)), 0)
        rho = psi.to_density()
        assert abs(rho.matrix[0, 0] - 1.0) < 1e-14

    def test_tensor(self):
        psi = qb.basis_state(qb.layout(("A", 2)), 0).tensor(qb.basis_state(qb.layout(("B", 3)), 1))
        assert psi.layout.dims == (2, 3)
        assert abs(psi.amplitudes[1] - 1.0) < 1e-14


class TestDistances:
    def test_trace_distance_diagonal(self):
        a = diag_state([0.8, 0.2], ("A", 2))
        b = diag_state([0.5, 0.5], ("A", 2))
        assert abs(qb.trace_distance(a, b) - 0.6) < 1e-12

    def test_fidelity_diagonal(self):
        a = diag_state([0.8, 0.2], ("A", 2))
        b = diag_state([0.5, 0.5], ("A", 2))
        expect = (np.sqrt(0.4) + np.sqrt(0.1)) ** 2
        assert abs(qb.fidelity(a, b) - expect) < 1e-12

    def test_fidelity_of_equal_states_is_one(self):
        rng = np.random.default_rng(2)
        rho = qb.random_density_matrix(qb.layout(("A", 3)), rng)
        assert abs(qb.fidelity(rho, rho) - 1.0) < 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        lay = qb.layout(("A", 3))
        for _ in range(50):
            a = qb.random_density_matrix(lay, rng)
            b = qb.random_density_matrix(lay, rng)
            c = qb.random_density_matrix(lay, rng)
            assert qb.trace_distance(a, c) <= qb.trace_distance(a, b) + qb.trace_distance(b, c) + 1e-12

    def test_trace_norms_of_a_stack_match_each_matrix(self):
        # one batched rule: each row is bit for bit the trace distance of its pair and the sum of its singular values
        rng = np.random.default_rng(4)
        lay = qb.layout(("A", 3))
        pairs = [(qb.random_density_matrix(lay, rng), qb.random_density_matrix(lay, rng)) for _ in range(5)]
        norms = trace_norms(np.stack([a.matrix - b.matrix for a, b in pairs]))
        assert norms.shape == (5,)
        for norm, (a, b) in zip(norms, pairs):
            assert norm == qb.trace_distance(a, b)
            assert norm == np.linalg.svd(_hermitize(a.matrix - b.matrix), compute_uv=False).sum()


class TestPurify:
    def test_schmidt_spectrum(self):
        rho = diag_state([0.7, 0.3], ("S", 2))
        psi = qb.purify(rho)
        assert psi.layout.labels == ("ref", "S")
        assert psi.layout.dim_of("ref") == 2
        red = qb.partial_trace(psi.to_density(), {"ref"})
        evals = np.sort(np.linalg.eigvalsh(red.matrix))
        assert np.abs(evals - [0.3, 0.7]).max() < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2)), rng)
        psi = qb.purify(rho)
        back = qb.partial_trace(psi.to_density(), {"A", "B"})
        assert np.abs(back.matrix - rho.matrix).max() < 1e-12

    def test_ref_label_collision_resolved(self):
        rho = diag_state([0.5, 0.5], ("ref", 2))
        psi = qb.purify(rho)
        assert len(set(psi.layout.labels)) == 2


class TestPartialTrace:
    def test_product_state_marginals(self):
        rng = np.random.default_rng(5)
        a = qb.random_density_matrix(qb.layout(("A", 2)), rng)
        b = qb.random_density_matrix(qb.layout(("B", 3)), rng)
        joint = qb.tensor_product(a, b)
        ra = qb.partial_trace(joint, {"A"})
        rb = qb.partial_trace(joint, {"B"})
        assert np.abs(ra.matrix - a.matrix).max() < 1e-12
        assert np.abs(rb.matrix - b.matrix).max() < 1e-12

    def test_keep_order_follows_layout(self):
        rng = np.random.default_rng(6)
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2), ("C", 2)), rng)
        kept = qb.partial_trace(rho, {"C", "A"})
        assert kept.layout.labels == ("A", "C")

    def test_unknown_label_rejected(self):
        rng = np.random.default_rng(7)
        rho = qb.random_density_matrix(qb.layout(("A", 2)), rng)
        with pytest.raises(qb.ValidationError):
            qb.partial_trace(rho, {"Z"})


class TestEntropy:
    def test_pinned_diagonal(self):
        rho = diag_state([0.5, 0.25, 0.25], ("A", 3))
        assert abs(qb.von_neumann_entropy(rho) - 1.5) < 1e-12

    def test_pure_state_zero(self):
        psi = qb.maximally_entangled(2)
        assert qb.von_neumann_entropy(psi.to_density()) < 1e-12

    def test_maximally_entangled_marginal(self):
        psi = qb.maximally_entangled(2)
        red = qb.partial_trace(psi.to_density(), {"B"})
        assert abs(qb.von_neumann_entropy(red) - 1.0) < 1e-12

    def test_entropy_of_spectrum_clamps(self):
        assert entropy_of_spectrum(np.array([1.0, 0.0, -1e-12])) < 1e-10
        stack = np.array([[1.0, 0.0, -1e-12], [0.5, 0.25, 0.25], [0.5, 0.5, 1e-13]])
        assert np.array_equal(entropy_of_spectrum(stack), [entropy_of_spectrum(row) for row in stack])

    def test_one_pass_matches_each_array_alone(self):
        # diagonal stacks and clipped eigenvalue stacks of several shapes, each seeded with entries at
        # exactly 0, at the clamp and just above it; all values differ, so a piece cut at a wrong offset
        # or with a wrong shape changes an entropy or a slope
        rng = np.random.default_rng(17)
        edges = [0.0, ENTROPY_CLAMP, np.nextafter(ENTROPY_CLAMP, 1.0), 2 * ENTROPY_CLAMP]
        arrays = []
        for shape in [(4, 3, 3), (4, 3, 2), (4, 3), (4, 2), (5,), (2, 1, 9), (3, 4, 4), (1, 1)]:
            p = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
            p.reshape(-1)[:len(edges)] = edges[:p.size]
            arrays.append(p)
        for mats in (rng.standard_normal((3, 4, 4)), rng.standard_normal((2, 9, 9))):
            arrays.append(np.clip(np.linalg.eigvalsh(mats @ mats.swapaxes(1, 2) / 9.0 - 0.05), 0.0, None))
        together = entropy_and_slope(*arrays)
        assert len(together) == len(arrays)
        for p, (h, slope) in zip(arrays, together):
            (h_alone, slope_alone), = entropy_and_slope(p)
            assert h.shape == p.shape[:-1] and slope.shape == p.shape
            assert np.array_equal(h, h_alone) and np.array_equal(slope, slope_alone)
            # and the rule itself: -sum p log2 p, slope -(log2 p + 1/ln 2), both 0 at or below the clamp
            live = p > ENTROPY_CLAMP
            assert np.abs(h + np.where(live, p * np.log2(np.where(live, p, 1.0)), 0.0).sum(axis=-1)).max() <= 1e-12
            assert np.array_equal(slope == 0.0, ~live)
            assert np.abs(slope[live] + np.log2(p[live]) + 1.0 / np.log(2.0)).max(initial=0.0) <= 1e-12
        # the same arrays in another order get the same values
        for (h, slope), (h_rev, slope_rev) in zip(together, reversed(entropy_and_slope(*reversed(arrays)))):
            assert np.array_equal(h, h_rev) and np.array_equal(slope, slope_rev)

    def test_binary_entropy(self):
        assert abs(qb.binary_entropy(0.5) - 1.0) < 1e-15
        assert qb.binary_entropy(0.0) == 0.0
        assert qb.binary_entropy(1.0) == 0.0

    def test_embedded_cq_matches_spectrum(self):
        ch = qb.make_pinching_cq()
        st = ch.output_cq([0.5, 0.3, 0.2])
        emb = st.embed()
        reference = spectrum_entropy(emb.matrix)
        assert abs(qb.von_neumann_entropy(emb) - reference) < 1e-9

    def test_blockwise_matches_dense_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 3)), rng)
            fast = qb.von_neumann_entropy(rho)
            assert abs(fast - spectrum_entropy(rho.matrix)) < 1e-9


class TestCqState:
    def test_embedding_is_block_diagonal(self):
        ch = qb.make_noiseless_bit()
        st = ch.output_cq([0.6, 0.4])
        emb = st.embed()
        assert emb.layout.labels[0] == "X"
        mat = emb.matrix.reshape(2, 4, 2, 4)
        off = mat[0, :, 1, :]
        assert np.abs(off).max() < 1e-14

    def test_weights_validated(self):
        lay = qb.layout(("B", 2), ("C", 2))
        rho = qb.DensityMatrix(np.eye(4, dtype=complex) / 4, lay)
        with pytest.raises(qb.ValidationError):
            qb.CqState({0: 0.7, 1: 0.7}, {0: rho, 1: rho})

    def test_average(self):
        ch = qb.make_noiseless_bit()
        st = ch.output_cq([0.5, 0.5])
        avg = st.average()
        assert abs(avg.matrix.trace().real - 1.0) < 1e-12


def _density(bad):
    return np.diag([bad, 0.5, 0.25, 0.25]).astype(complex)


_BC = qb.layout(("B", 2), ("C", 2))
# (name, builder of the input from one bad entry, whether the input is complex)
NON_FINITE_INPUTS = [
    ("DensityMatrix", lambda bad: qb.DensityMatrix(_density(bad), _BC), True),
    ("PureState", lambda bad: qb.PureState(np.array([bad, 1.0], dtype=complex), qb.layout(("A", 2))), True),
    ("KrausChannel", lambda bad: qb.KrausChannel([np.diag([bad, 1.0]).astype(complex)], qb.layout(("A", 2))), True),
    ("BroadcastChannel", lambda bad: qb.BroadcastChannel([np.diag([bad, 1.0, 1.0, 1.0]).astype(complex)], _BC), True),
    ("DephasingSpec", lambda bad: qb.DephasingSpec(2, 1, np.array([[bad, 0.0], [1.0, 0.0]], dtype=complex)), True),
    ("CqBroadcastChannel", lambda bad: qb.CqBroadcastChannel([0, 1], [_density(bad), _density(0.0)], _BC,
                                                             validate=True), True),
    ("output_cq", lambda bad: qb.make_noiseless_bit().output_cq([bad, 0.5]), False),
    ("CqState", lambda bad: qb.CqState({0: bad, 1: 0.5}, {x: diag_state([0.5, 0.5], ("A", 2)) for x in (0, 1)}),
     False),
    ("binary_entropy", lambda bad: qb.binary_entropy(bad), False),
    ("OptimizerConfig", lambda bad: qb.OptimizerConfig(restarts=bad), False),
]


class TestNonFiniteInput:
    # every tolerance test is written so that NaN fails it: `not dev <= tol`, never `dev > tol`
    @pytest.mark.parametrize("build,bad", [pytest.param(build, bad, id=f"{name}-{bad}")
                                           for name, build, is_complex in NON_FINITE_INPUTS
                                           for bad in ((np.nan, np.inf) if is_complex else (np.nan,))])
    def test_rejected(self, build, bad):
        with np.errstate(invalid="ignore"), pytest.raises(qb.ValidationError):
            build(bad)


class TestRandomStates:
    def test_density_properties(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = qb.random_density_matrix(qb.layout(("A", 3)), rng)
            evals = np.linalg.eigvalsh(rho.matrix)
            assert evals.min() > -1e-12
            assert abs(rho.matrix.trace().real - 1.0) < 1e-10

    def test_rank_control(self):
        rng = np.random.default_rng(10)
        rho = qb.random_density_matrix(qb.layout(("A", 4)), rng, rank=2)
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert evals[1] < 1e-12

    def test_seeded_reproducibility(self):
        a = qb.random_density_matrix(qb.layout(("A", 3)), np.random.default_rng(11))
        b = qb.random_density_matrix(qb.layout(("A", 3)), np.random.default_rng(11))
        assert np.abs(a.matrix - b.matrix).max() == 0.0
