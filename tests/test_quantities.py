import numpy as np
import pytest

import qbroadcast as qb

from conftest import h2, spectrum_entropy


def epr_density():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    lay = qb.layout(("A", 2), ("B", 2))
    return qb.DensityMatrix(np.outer(vec, vec.conj()), lay)


def classical_correlated(p=0.5):
    mat = np.diag([p, 0.0, 0.0, 1.0 - p]).astype(complex)
    return qb.DensityMatrix(mat, qb.layout(("A", 2), ("B", 2)))


class TestConditionalEntropy:
    def test_epr_is_minus_one(self):
        rho = epr_density()
        assert abs(qb.conditional_entropy(rho, "A", "B") + 1.0) < 1e-12

    def test_empty_condition_is_plain_entropy(self):
        rho = epr_density()
        assert abs(qb.conditional_entropy(rho, "A", set()) - 1.0) < 1e-12

    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = qb.random_density_matrix(qb.layout(("A", 2)), rng)
        b = qb.random_density_matrix(qb.layout(("B", 3)), rng)
        joint = qb.tensor_product(a, b)
        assert abs(qb.conditional_entropy(joint, "A", "B") - qb.von_neumann_entropy(a)) < 1e-10

    def test_classical_copy_has_zero(self):
        rho = classical_correlated(0.3)
        assert abs(qb.conditional_entropy(rho, "A", "B")) < 1e-12

    def test_overlapping_labels_rejected(self):
        with pytest.raises(qb.ValidationError):
            qb.conditional_entropy(epr_density(), {"A", "B"}, {"B"})


class TestCoherentInformation:
    def test_epr(self):
        assert abs(qb.coherent_information(epr_density(), "A", "B") - 1.0) < 1e-12

    def test_sign_convention(self):
        rho = classical_correlated(0.5)
        assert abs(qb.coherent_information(rho, "A", "B")
                   + qb.conditional_entropy(rho, "A", "B")) < 1e-15


class TestMutualInformation:
    def test_epr_is_two(self):
        assert abs(qb.mutual_information(epr_density(), "A", "B") - 2.0) < 1e-12

    def test_product_is_zero(self):
        rng = np.random.default_rng(1)
        a = qb.random_density_matrix(qb.layout(("A", 3)), rng)
        b = qb.random_density_matrix(qb.layout(("B", 2)), rng)
        assert abs(qb.mutual_information(qb.tensor_product(a, b), "A", "B")) < 1e-10

    def test_classical_copy(self):
        rho = classical_correlated(0.3)
        assert abs(qb.mutual_information(rho, "A", "B") - h2(0.3)) < 1e-12

    def test_overlap_rejected(self):
        with pytest.raises(qb.ValidationError):
            qb.mutual_information(epr_density(), "A", {"A", "B"})


class TestConditionalMutualInformation:
    def test_ghz_value(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
        lay = qb.layout(("A", 2), ("B", 2), ("C", 2))
        rho = qb.DensityMatrix(np.outer(vec, vec.conj()), lay)
        assert abs(qb.conditional_mutual_information(rho, "A", "B", "C") - 1.0) < 1e-12

    def test_markov_chain_is_zero(self):
        mat = np.zeros((8, 8), dtype=complex)
        mat[0, 0] = mat[7, 7] = 0.5
        rho = qb.DensityMatrix(mat, qb.layout(("A", 2), ("B", 2), ("C", 2)))
        assert abs(qb.conditional_mutual_information(rho, "A", "C", "B")) < 1e-12

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(2)
        lay = qb.layout(("A", 2), ("B", 2), ("C", 2))
        for _ in range(25):
            rho = qb.random_density_matrix(lay, rng)
            assert qb.conditional_mutual_information(rho, "A", "B", "C") >= -1e-9

    def test_empty_condition_reduces(self):
        rho = epr_density()
        assert abs(qb.conditional_mutual_information(rho, "A", "B", set())
                   - qb.mutual_information(rho, "A", "B")) < 1e-15

    def test_disjointness_enforced(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        lay = qb.layout(("A", 2), ("B", 2), ("C", 2))
        rho = qb.DensityMatrix(np.outer(vec, vec.conj()), lay)
        with pytest.raises(qb.ValidationError):
            qb.conditional_mutual_information(rho, "A", "B", {"B", "C"})


class TestChannelCoherentInformation:
    def test_identity_on_maximally_mixed(self):
        rho = qb.DensityMatrix(np.eye(2, dtype=complex) / 2, qb.layout(("in", 2)))
        assert abs(qb.channel_coherent_information(rho, qb.make_identity_channel(2)) - 1.0) < 1e-12

    def test_completely_dephasing_kills_it(self):
        rho = qb.DensityMatrix(np.eye(2, dtype=complex) / 2, qb.layout(("in", 2)))
        ic = qb.channel_coherent_information(rho, qb.make_completely_dephasing(2))
        assert abs(ic) < 1e-12

    def test_matches_output_minus_environment(self):
        # second route: I_c = H(N(rho)) - H(complement(rho)), no purification involved
        rng = np.random.default_rng(3)
        g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        v, _ = np.linalg.qr(g)
        ops = [v[e::4, :] for e in range(4)]
        ch = qb.KrausChannel(ops, qb.layout(("B", 2)))
        for _ in range(5):
            rho = qb.random_density_matrix(qb.layout(("in", 3)), rng)
            via_purification = qb.channel_coherent_information(rho, ch)
            h_out = spectrum_entropy(ch.apply(rho).matrix)
            h_env = spectrum_entropy(qb.complementary(ch).apply(rho).matrix)
            assert abs(via_purification - (h_out - h_env)) < 1e-9

    def test_isometric_broadcast_gives_output_entropy(self):
        ch = qb.make_pinching()
        rng = np.random.default_rng(4)
        rho = qb.random_density_matrix(qb.layout(("in", 3)), rng)
        ic = qb.channel_coherent_information(rho, ch)
        assert abs(ic - spectrum_entropy(ch.apply(rho).matrix)) < 1e-10

    def test_multi_label_input_state(self):
        lay = qb.layout(("A", 2), ("Ap", 2))
        rho = qb.DensityMatrix(np.eye(4, dtype=complex) / 4, lay)
        ic = qb.channel_coherent_information(rho, qb.make_identity_channel(4))
        assert abs(ic - 2.0) < 1e-12


class TestHolevoInformation:
    def test_two_pure_states_pinned(self):
        zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        lay = qb.layout(("B", 2))
        cq = qb.CqState({0: 0.5, 1: 0.5},
                        {0: qb.DensityMatrix(zero, lay), 1: qb.DensityMatrix(plus, lay)})
        expect = h2(np.cos(np.pi / 8) ** 2)
        assert abs(qb.holevo_information(cq) - expect) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        lay = qb.layout(("B", 3))
        for _ in range(5):
            w = rng.dirichlet(np.ones(4))
            conds = {i: qb.random_density_matrix(lay, rng) for i in range(4)}
            cq = qb.CqState({i: float(w[i]) for i in range(4)}, conds)
            avg = sum(w[i] * conds[i].matrix for i in range(4))
            direct = spectrum_entropy(avg) - sum(
                w[i] * spectrum_entropy(conds[i].matrix) for i in range(4))
            assert abs(qb.holevo_information(cq) - direct) < 1e-9

    def test_orthogonal_states_reach_label_entropy(self):
        lay = qb.layout(("B", 2))
        conds = {0: qb.DensityMatrix(np.diag([1.0, 0.0]).astype(complex), lay),
                 1: qb.DensityMatrix(np.diag([0.0, 1.0]).astype(complex), lay)}
        cq = qb.CqState({0: 0.25, 1: 0.75}, conds)
        assert abs(qb.holevo_information(cq) - h2(0.25)) < 1e-12

    def test_label_subset_matches_reduced_ensemble(self):
        rng = np.random.default_rng(6)
        lay = qb.layout(("B", 2), ("C", 2))
        conds = {i: qb.random_density_matrix(lay, rng) for i in range(3)}
        w = {0: 0.2, 1: 0.3, 2: 0.5}
        cq = qb.CqState(w, conds)
        restricted = qb.holevo_information(cq, q_labels={"B"})
        reduced = qb.CqState(w, {i: qb.partial_trace(conds[i], {"B"}) for i in range(3)})
        assert abs(restricted - qb.holevo_information(reduced)) < 1e-10

    def test_receiver_named_x(self):
        # the flag register takes a fresh label, so a receiver may itself be called X
        rng = np.random.default_rng(9)
        lay = qb.layout(("X", 2), ("B", 2))
        w = rng.dirichlet(np.ones(3))
        conds = {i: qb.random_density_matrix(lay, rng) for i in range(3)}
        cq = qb.CqState({i: float(w[i]) for i in range(3)}, conds)
        assert cq.embed().layout.labels == ("_X", "X", "B")
        avg = sum(w[i] * conds[i].matrix for i in range(3))
        direct = spectrum_entropy(avg) - sum(w[i] * spectrum_entropy(conds[i].matrix) for i in range(3))
        assert abs(qb.holevo_information(cq) - direct) < 1e-9
