import collections
import functools
import itertools

import numpy as np
import pytest

import qbroadcast as qb
from qbroadcast import channels
from qbroadcast.channels import (
    _all_commute,
    _choi_fit_stack,
    _contraction_floor,
    _images,
    _probe_densities,
    _probe_pairs,
    _projection_fit,
    _residuals,
)
from qbroadcast.specio import BUILTIN_CHANNELS
from qbroadcast.states import _hermitize

from conftest import (apply_kraus, degraded_commuting_cq, few_symbol_degraded_cq, generic_dephasing, random_channel,
                      seeded_dephasing_doc, spectrum_entropy)


class TestKrausChannel:
    def test_completeness_validated(self):
        bad = [np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)]
        with pytest.raises(qb.ValidationError):
            qb.KrausChannel(bad, qb.layout(("B", 2)))

    def test_apply_matches_kraus_sum(self):
        rng = np.random.default_rng(0)
        ops = random_channel(rng, 2, 3, 2)
        ch = qb.KrausChannel(ops, qb.layout(("B", 3)))
        rho = qb.random_density_matrix(qb.layout(("in", 2)), rng)
        out = ch.apply(rho)
        assert np.abs(out.matrix - apply_kraus(ops, rho.matrix)).max() < 1e-12

    def test_apply_to_acts_on_one_factor(self):
        rng = np.random.default_rng(1)
        ops = random_channel(rng, 2, 2, 2)
        ch = qb.KrausChannel(ops, qb.layout(("Bp", 2)))
        a = qb.random_density_matrix(qb.layout(("A", 2)), rng)
        b = qb.random_density_matrix(qb.layout(("B", 2)), rng)
        joint = qb.tensor_product(a, b)
        out = ch.apply_to(joint, "B")
        # the acted factor is replaced by the channel output, which moves to the front
        assert out.layout.labels == ("Bp", "A")
        expect = np.kron(apply_kraus(ops, b.matrix), a.matrix)
        assert np.abs(out.matrix - expect).max() < 1e-12

    def test_tensor(self):
        cha = qb.KrausChannel([np.eye(2, dtype=complex)], qb.layout(("B", 2)))
        chb = qb.KrausChannel([np.eye(3, dtype=complex)], qb.layout(("C", 3)))
        prod = cha.tensor(chb)
        assert prod.in_dim == 6
        assert prod.out_layout.labels == ("B", "C")
        with pytest.raises(qb.ValidationError):
            cha.tensor(cha)


class TestIsometricExtension:
    def test_isometry_property(self):
        rng = np.random.default_rng(2)
        ops = random_channel(rng, 3, 2, 3)
        ch = qb.KrausChannel(ops, qb.layout(("B", 2)))
        ext = qb.isometric_extension(ch)
        v = ext.ops[0]
        assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12

    def test_env_interleaving(self):
        rng = np.random.default_rng(3)
        ops = random_channel(rng, 2, 2, 3)
        ch = qb.KrausChannel(ops, qb.layout(("B", 2)))
        ext = qb.isometric_extension(ch)
        for e, k in enumerate(ops):
            assert np.abs(ext.ops[0][e::3, :] - k).max() < 1e-14

    def test_tracing_out_env_recovers_channel(self):
        rng = np.random.default_rng(4)
        ops = random_channel(rng, 2, 3, 2)
        ch = qb.KrausChannel(ops, qb.layout(("B", 3)))
        ext = qb.isometric_extension(ch)
        rho = qb.random_density_matrix(qb.layout(("in", 2)), rng)
        full = ext.apply(rho)
        out = qb.partial_trace(full, {"B"})
        assert np.abs(out.matrix - ch.apply(rho).matrix).max() < 1e-12

    def test_complementary_entry_layout(self):
        rng = np.random.default_rng(5)
        ops = random_channel(rng, 2, 3, 2)
        ch = qb.KrausChannel(ops, qb.layout(("B", 3)))
        comp = qb.complementary(ch)
        stack = np.stack(ops)
        for o in range(3):
            assert np.abs(comp.ops[o] - stack[:, o, :]).max() < 1e-14

    def test_complementary_matches_env_marginal(self):
        rng = np.random.default_rng(6)
        ops = random_channel(rng, 3, 2, 2)
        ch = qb.KrausChannel(ops, qb.layout(("B", 2)))
        ext = qb.isometric_extension(ch)
        comp = qb.complementary(ch)
        rho = qb.random_density_matrix(qb.layout(("in", 3)), rng)
        env = qb.partial_trace(ext.apply(rho), {"E"})
        assert np.abs(env.matrix - comp.apply(rho).matrix).max() < 1e-12


def three_kraus_broadcast():
    """A seeded channel 3 -> B (x) C = 2 x 3 with 3 Kraus operators."""
    return qb.BroadcastChannel(random_channel(np.random.default_rng(80), 3, 6, 3), qb.layout(("B", 2), ("C", 3)))


def sliced_marginal(ch, label):
    """A marginal's operators by explicit slicing: Kraus index outer, the traced receiver's index inner."""
    db, dc = ch.out_layout.dims
    ops = []
    for k in ch.ops:
        block = k.reshape(db, dc, ch.in_dim)
        ops.extend(block[:, c, :] for c in range(dc)) if label == "B" else ops.extend(block[b] for b in range(db))
    return np.stack(ops)


class TestKrausStack:
    """One read-only (n, out, in) stack per channel; derived channels reshape it."""

    @pytest.mark.parametrize("make", [three_kraus_broadcast, generic_dephasing], ids=["kraus-3", "generic-dephasing"])
    def test_marginals_match_explicit_slicing(self, make):
        ch = make()
        for label in ("B", "C"):
            assert np.array_equal(ch.marginal(label).ops, sliced_marginal(ch, label))

    @pytest.mark.parametrize("make", [three_kraus_broadcast, generic_dephasing, qb.make_pinching],
                             ids=["kraus-3", "generic-dephasing", "pinching"])
    def test_images_match_per_probe_apply(self, make):
        ch = make()
        probes = _probe_densities(ch.in_dim)
        lay = qb.layout(("in", ch.in_dim))
        for marginal in ch.marginals():
            each = [marginal.apply(qb.DensityMatrix(p, lay, validate=False)).matrix for p in probes]
            assert np.array_equal(_images(marginal.ops, probes), np.stack(each))

    @pytest.mark.parametrize("make,tol", [(qb.make_pinching, 0.0), (generic_dephasing, 1e-15)],
                             ids=["pinching", "generic-dephasing"])
    @pytest.mark.parametrize("refs", [[("R", 2)], [("R", 2), ("S", 3)]], ids=["one-ref", "two-refs"])
    def test_apply_to_matches_per_operator_einsum(self, make, tol, refs):
        # the formula apply_to used before it went through _images, kept as the reference:
        # BLAS sums the K (x) I products in another order, so dense channels move at rounding level
        def reference(ch, rho, label):
            rest = [name for name in rho.layout.labels if name != label]
            r = rho.reorder([label] + rest)
            d_rest = r.layout.dim // ch.in_dim
            block = r.matrix.reshape(ch.in_dim, d_rest, ch.in_dim, d_rest)
            out = np.zeros((ch.out_dim, d_rest, ch.out_dim, d_rest), dtype=complex)
            for k in ch.ops:
                out += np.einsum("oi,irjs,pj->orps", k, block, k.conj(), optimize=True)
            return _hermitize(out.reshape(ch.out_dim * d_rest, ch.out_dim * d_rest))

        ch = make()
        lay = qb.layout(refs[0], ("in", ch.in_dim), *refs[1:])  # the acted factor sits between the others
        rho = qb.random_density_matrix(lay, np.random.default_rng(83))
        out = ch.apply_to(rho, "in")
        assert out.layout.labels == ("B", "C", *(label for label, _ in refs))
        diff = np.abs(out.matrix - reference(ch, rho, "in")).max()
        assert diff <= tol if tol else diff == 0.0

    def test_isometric_extension_is_one_operator_channel(self):
        ch = three_kraus_broadcast()
        ext = qb.isometric_extension(ch)
        assert type(ext) is qb.KrausChannel and ext.ops.shape == (1, 18, 3)
        assert ext.is_isometric()
        assert ext.out_layout.parts == (("B", 2), ("C", 3), ("E", 3))
        on_e = qb.KrausChannel(random_channel(np.random.default_rng(81), 2, 2, 2), qb.layout(("E", 2)))
        assert qb.isometric_extension(on_e).out_layout.labels == ("E", "_E")

    def test_dephasing_stack_matches_explicit_loop(self):
        ch = generic_dephasing()
        vecs = ch.dephasing.images.reshape(3, 2, 2)
        for e in range(2):
            k = np.zeros((6, 3), dtype=complex)
            for x in range(3):
                k[2 * x:2 * x + 2, x] = vecs[x, :, e]
            assert np.array_equal(ch.ops[e], k)

    def test_ops_are_one_read_only_copy(self):
        ops = random_channel(np.random.default_rng(82), 2, 3, 2)
        ch = qb.KrausChannel(ops, qb.layout(("B", 3)))
        assert isinstance(ch.ops, np.ndarray) and ch.ops.shape == (2, 3, 2)
        with pytest.raises(ValueError):
            ch.ops[0, 0, 0] = 1.0
        ops[0][0, 0] = 5.0
        assert ch.ops[0, 0, 0] != 5.0


class TestCompletelyDephasing:
    def test_kills_offdiagonals(self):
        rng = np.random.default_rng(7)
        rho = qb.random_density_matrix(qb.layout(("A", 3)), rng)
        zapped = qb.completely_dephase(rho, "A")
        assert np.abs(zapped.matrix - np.diag(np.diag(rho.matrix))).max() < 1e-14

    def test_channel_form_agrees(self):
        rng = np.random.default_rng(8)
        ch = qb.make_completely_dephasing(3)
        rho = qb.random_density_matrix(qb.layout(("A", 3)), rng)
        a = ch.apply(rho).matrix
        b = qb.completely_dephase(rho, "A").matrix
        assert np.abs(a - b).max() < 1e-12

    def test_dephase_one_factor_only(self):
        rng = np.random.default_rng(9)
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2)), rng)
        zapped = qb.completely_dephase(rho, "A")
        blocks = zapped.matrix.reshape(2, 2, 2, 2)
        assert np.abs(blocks[0, :, 1, :]).max() < 1e-14
        assert np.abs(qb.partial_trace(zapped, {"B"}).matrix
                      - qb.partial_trace(rho, {"B"}).matrix).max() < 1e-12


class TestBroadcastChannel:
    def test_requires_two_labels(self):
        with pytest.raises(qb.ValidationError):
            qb.BroadcastChannel([np.eye(2, dtype=complex)], qb.layout(("B", 2)))

    def test_marginal_consistency(self):
        rng = np.random.default_rng(10)
        ops = random_channel(rng, 2, 4, 2)
        ch = qb.BroadcastChannel(ops, qb.layout(("B", 2), ("C", 2)))
        mb, mc = ch.marginals()
        rho = qb.random_density_matrix(qb.layout(("in", 2)), rng)
        joint = ch.apply(rho)
        assert np.abs(qb.partial_trace(joint, {"B"}).matrix - mb.apply(rho).matrix).max() < 1e-12
        assert np.abs(qb.partial_trace(joint, {"C"}).matrix - mc.apply(rho).matrix).max() < 1e-12

    def test_tensor_power_marginal(self):
        rng = np.random.default_rng(11)
        ch = qb.make_pinching()
        sq = ch.tensor_power(2)
        assert sq.in_dim == 9
        assert sq.out_layout.dims == (9, 4)
        a = qb.random_density_matrix(qb.layout(("in", 3)), rng)
        b = qb.random_density_matrix(qb.layout(("in", 3)), rng)
        prod = qb.DensityMatrix(np.kron(a.matrix, b.matrix), qb.layout(("in", 9)), validate=False)
        out = sq.apply(prod)
        single_a = ch.apply(a)
        red_b = qb.partial_trace(out, {"B"}).matrix
        expect_b = np.kron(qb.partial_trace(single_a, {"B"}).matrix,
                           qb.partial_trace(ch.apply(b), {"B"}).matrix)
        assert np.abs(red_b - expect_b).max() < 1e-10

    def test_is_isometric(self):
        assert qb.make_pinching().is_isometric()
        dep = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        two_kraus = qb.BroadcastChannel(
            [np.kron(k, np.eye(1)) for k in dep], qb.layout(("B", 2), ("C", 1)))
        assert not two_kraus.is_isometric()


class TestPinching:
    def test_b_marginal_zero_pattern(self):
        ch = qb.make_pinching()
        rng = np.random.default_rng(12)
        rho = qb.random_density_matrix(qb.layout(("in", 3)), rng)
        out_b = qb.partial_trace(ch.apply(rho), {"B"}).matrix
        for i, j in [(0, 2), (2, 0), (1, 2), (2, 1)]:
            assert abs(out_b[i, j]) < 1e-12
        assert abs(out_b[0, 1] - rho.matrix[0, 1]) < 1e-12

    def test_c_marginal_is_classical_flag(self):
        ch = qb.make_pinching()
        rng = np.random.default_rng(13)
        rho = qb.random_density_matrix(qb.layout(("in", 3)), rng)
        out_c = qb.partial_trace(ch.apply(rho), {"C"}).matrix
        d = np.diag(rho.matrix).real
        expect = np.diag([d[0] + d[1], d[2]])
        assert np.abs(out_c - expect).max() < 1e-12


class TestGeneralizedDephasing:
    def test_spec_validation(self):
        with pytest.raises(qb.ValidationError):
            qb.DephasingSpec(2, 1, np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex))

    def test_b_marginal_is_gram_mask(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            n, c, e = 3, 2, 2
            vecs = rng.standard_normal((n, c * e)) + 1j * rng.standard_normal((n, c * e))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            spec = qb.DephasingSpec(c, e, vecs)
            ch = qb.make_generalized_dephasing(spec)
            rho = qb.random_density_matrix(qb.layout(("in", n)), rng)
            out_b = qb.partial_trace(ch.apply(rho), {"B"}).matrix
            assert np.abs(out_b - spec.gram() * rho.matrix).max() < 1e-12

    def test_c_marginal_from_diagonal(self):
        rng = np.random.default_rng(15)
        n, c, e = 3, 2, 2
        vecs = rng.standard_normal((n, c * e)) + 1j * rng.standard_normal((n, c * e))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        spec = qb.DephasingSpec(c, e, vecs)
        ch = qb.make_generalized_dephasing(spec)
        rho = qb.random_density_matrix(qb.layout(("in", n)), rng)
        out_c = qb.partial_trace(ch.apply(rho), {"C"}).matrix
        expect = sum(rho.matrix[x, x].real * spec.c_states()[x] for x in range(n))
        assert np.abs(out_c - expect).max() < 1e-12

    def test_c_marginal_ignores_offdiagonals(self):
        rng = np.random.default_rng(16)
        ch = qb.make_pinching()
        rho = qb.random_density_matrix(qb.layout(("in", 3)), rng)
        zapped = qb.completely_dephase(rho, "in")
        a = qb.partial_trace(ch.apply(rho), {"C"}).matrix
        b = qb.partial_trace(ch.apply(zapped), {"C"}).matrix
        assert np.abs(a - b).max() < 1e-12

    def test_dephased_input_entropy_dominates_b_output(self):
        rng = np.random.default_rng(17)
        n, c, e = 3, 2, 2
        vecs = rng.standard_normal((n, c * e)) + 1j * rng.standard_normal((n, c * e))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ch = qb.make_generalized_dephasing(qb.DephasingSpec(c, e, vecs))
        for _ in range(10):
            rho = qb.random_density_matrix(qb.layout(("in", n)), rng)
            h_deph = spectrum_entropy(qb.completely_dephase(rho, "in").matrix)
            h_b = spectrum_entropy(qb.partial_trace(ch.apply(rho), {"B"}).matrix)
            assert h_deph >= h_b - 1e-9

    def test_tensor_power_keeps_spec(self):
        ch = qb.make_pinching()
        sq = ch.tensor_power(2)
        assert sq.dephasing is not None
        assert sq.dephasing.c_dim == 4
        assert sq.dephasing.images.shape == (9, 4)


class TestCqChannels:
    def test_conditional_trace_validated(self):
        lay = qb.layout(("B", 2), ("C", 2))
        scaled = np.eye(4, dtype=complex)[None] / 4 * 0.9
        with pytest.raises(qb.ValidationError, match="symbol 0: density matrix trace"):
            qb.CqBroadcastChannel([0], scaled, lay)

    def test_pinching_cq_structure(self):
        ch = qb.make_pinching_cq()
        assert ch.symbols == [1, 2, 3]
        b_mats = ch.marginal_conditionals("B")
        for x, mat in enumerate(b_mats):
            expect = np.zeros((3, 3))
            expect[x, x] = 1.0
            assert np.abs(mat - expect).max() < 1e-14
        c_mats = ch.marginal_conditionals("C")
        assert np.abs(c_mats[0] - c_mats[1]).max() < 1e-14

    def test_commuting_b(self):
        assert qb.make_pinching_cq().commuting_b()
        assert qb.make_bsc_cascade().commuting_b()
        plus = np.full((2, 2), 0.5, dtype=complex)
        lay = qb.layout(("B", 2), ("C", 1))
        w = qb.CqBroadcastChannel([0, 1], [np.diag([1.0, 0.0]), plus], lay)
        assert not w.commuting_b()

    def test_tensor_power_symbols(self):
        sq = qb.make_noiseless_bit().tensor_power(2)
        assert sq.n_symbols == 4
        assert set(sq.symbols) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        mats = sq.marginal_conditionals("B")
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.abs(np.stack(mats)[sq.symbols.index((0, 1))] - expect).max() < 1e-12

    def test_classical_cascade_validation(self):
        with pytest.raises(qb.ValidationError):
            qb.make_classical_cascade(np.array([[0.9, 0.1], [0.2, 0.9]]), np.eye(2))

    def test_cascade_marginals_match_tables(self):
        p1 = np.array([[0.9, 0.1], [0.1, 0.9]])
        p2 = np.array([[0.8, 0.2], [0.2, 0.8]])
        w = qb.make_classical_cascade(p1, p2)
        b_mats = w.marginal_conditionals("B")
        c_mats = w.marginal_conditionals("C")
        pz_x = p2 @ p1
        for x in range(2):
            assert np.abs(b_mats[x] - np.diag(p1[:, x])).max() < 1e-12
            assert np.abs(c_mats[x] - np.diag(pz_x[:, x])).max() < 1e-12

    @pytest.mark.parametrize("make", [
        qb.make_classical_cascade,
        lambda p1, p2: qb.classical_degraded_region(p1, p2, 4),
    ], ids=["make_classical_cascade", "classical_degraded_region"])
    @pytest.mark.parametrize("p1,p2,match", [
        (np.array([[0.9, np.nan], [0.1, 0.9]]), np.eye(2), "p_y_given_x has non-finite entries"),
        (np.eye(2), np.array([0.5, 0.5]), "p_z_given_y must be a matrix"),
    ], ids=["nan-entry", "one-axis"])
    def test_cascade_tables_checked_once_for_both_entry_points(self, make, p1, p2, match):
        with pytest.raises(qb.ValidationError, match=match):
            make(p1, p2)


def random_cq(seed, n=3, db=2, dc=2):
    """n random mixed conditionals on B (x) C."""
    rng = np.random.default_rng(seed)
    lay = qb.layout(("B", db), ("C", dc))
    return qb.CqBroadcastChannel(range(n), [qb.random_density_matrix(lay, rng).matrix for _ in range(n)], lay)


CQ_CHANNELS = {
    "pinching-cq": qb.make_pinching_cq,
    "noiseless-bit": qb.make_noiseless_bit,
    "constant": qb.make_constant_cq,
    "bsc-cascade": qb.make_bsc_cascade,
    "random-2x2": lambda: random_cq(70),
    "random-3x2": lambda: random_cq(71, n=2, db=3),
}


class TestCqStack:
    """The one-stack rules against per-symbol references kept here."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", list(CQ_CHANNELS))
    def test_marginals_match_per_symbol_partial_trace(self, name, k):
        w = CQ_CHANNELS[name]().tensor_power(k)
        for label in (w.b_label, w.c_label):
            per_symbol = [qb.partial_trace(qb.DensityMatrix(rho, w.out_layout, validate=False), {label}).matrix
                          for rho in w.states]
            assert np.array_equal(w.marginal_conditionals(label), np.stack(per_symbol))

    def test_validated_stack_is_hermitized_and_read_only(self):
        lay = qb.layout(("B", 2), ("C", 2))
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1e-11j  # Hermitian within 1e-10, but not exactly
        w = qb.CqBroadcastChannel(["a"], [rho], lay)
        assert np.array_equal(w.states[0], qb.DensityMatrix(rho, lay).matrix)
        assert not np.array_equal(w.states[0], rho)
        assert not w.states.flags.writeable

    @pytest.mark.parametrize("symbols,states,parts,match", [
        ([], np.zeros((0, 4, 4)), (("B", 2), ("C", 2)), "at least one input symbol"),
        ([0, 1], np.eye(4)[None] / 4, (("B", 2), ("C", 2)), r"shape \(1, 4, 4\), expected \(2, 4, 4\)"),
        ([0, 0], [np.eye(4) / 4] * 2, (("B", 2), ("C", 2)), "symbols repeat"),
        ([0], np.eye(2)[None] / 2, (("B", 2),), "two receiver labels"),
        (["a", "b"], [np.eye(4) / 4, np.diag([1.0, 1.0, -0.5, -0.5])], (("B", 2), ("C", 2)),
         "symbol 'b': density matrix has eigenvalue"),
        (["a"], [np.eye(4) / 4 + np.diag([1e-3] * 3, 1)], (("B", 2), ("C", 2)), "symbol 'a': .* not Hermitian"),
    ], ids=["empty", "wrong-shape", "repeated-symbol", "one-receiver", "negative", "not-hermitian"])
    def test_constructor_rejections(self, symbols, states, parts, match):
        with pytest.raises(qb.ValidationError, match=match):
            qb.CqBroadcastChannel(symbols, states, qb.SystemLayout(parts))


def regroup(m, dims, k):
    """Rows of ``m`` laid out factor by factor over ``dims``, reordered axis by axis across the factors."""
    r = len(dims)
    perm = [f * r + j for j in range(r) for f in range(k)] + [r * k]
    return m.reshape(*(tuple(dims) * k), -1).transpose(perm).reshape(m.shape)


def random_unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestTensorPower:
    """Every kind's k-use channel against a plain np.kron loop over symbol tuples, with B and C regrouped here."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_kraus_matches_kron_loop(self, k):
        rng = np.random.default_rng(40 + k)
        db, dc, d_in = 2, 3, 2
        ops = random_channel(rng, d_in, db * dc, 2)
        sq = qb.BroadcastChannel(ops, qb.layout(("B", db), ("C", dc))).tensor_power(k)
        assert sq.out_layout.parts == (("B", db ** k), ("C", dc ** k)) and sq.in_dim == d_in ** k
        expect = [regroup(functools.reduce(np.kron, (ops[i] for i in idx)), (db, dc), k)
                  for idx in itertools.product(range(len(ops)), repeat=k)]
        assert len(sq.ops) == len(expect)
        assert max(np.abs(a - b).max() for a, b in zip(sq.ops, expect)) <= 1e-15

    @pytest.mark.parametrize("k", [2, 3])
    def test_cq_matches_kron_loop(self, k):
        rng = np.random.default_rng(50 + k)
        db, dc = 2, 2
        lay = qb.layout(("B", db), ("C", dc))
        mats = {x: qb.random_density_matrix(lay, rng).matrix for x in ("a", "b", "c")}
        sq = qb.CqBroadcastChannel(list(mats), list(mats.values()), lay).tensor_power(k)
        assert sq.symbols == list(itertools.product("abc", repeat=k))
        assert sq.out_layout.parts == (("B", db ** k), ("C", dc ** k))
        for xs, state in zip(sq.symbols, sq.states):
            kron = functools.reduce(np.kron, (mats[x] for x in xs))
            expect = regroup(regroup(kron, (db, dc), k).T, (db, dc), k).T
            assert np.abs(state - expect).max() <= 1e-15

    @pytest.mark.parametrize("k", [2, 3])
    def test_dephasing_matches_kron_loop(self, k):
        rng = np.random.default_rng(60 + k)
        c, e = 2, 2
        images = random_unit_rows(rng, 3, c * e)
        sq = qb.DephasingSpec(c, e, images).tensor_power(k)
        assert (sq.c_dim, sq.e_dim) == (c ** k, e ** k)
        expect = np.stack([regroup(functools.reduce(np.kron, (images[i] for i in idx))[:, None], (c, e), k)[:, 0]
                           for idx in itertools.product(range(3), repeat=k)])
        assert np.abs(sq.images - expect).max() <= 1e-15

    def test_zero_uses_rejected(self):
        rng = np.random.default_rng(70)
        for item in (qb.make_pinching(), qb.make_pinching_cq(), qb.DephasingSpec(2, 2, random_unit_rows(rng, 3, 4))):
            with pytest.raises(qb.ValidationError):
                item.tensor_power(0)


def swap_cases():
    """(name, channel): every builtin, then seeded random Kraus and cq channels with dense B and C of dims 2-3."""
    cases = [(name, make()) for name, make in BUILTIN_CHANNELS.items()]
    rng = np.random.default_rng(80)
    for db, dc in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        lay = qb.layout(("B", db), ("C", dc))
        cases.append((f"kraus-{db}x{dc}", qb.BroadcastChannel(random_channel(rng, 2, db * dc, 2), lay)))
        states = [qb.random_density_matrix(lay, rng).matrix for _ in range(3)]
        cases.append((f"cq-{db}x{dc}", qb.CqBroadcastChannel(["u", "v", "w"], states, lay)))
    return cases


SWAP_CASES = swap_cases()


def receivers_reversed(ch):
    """The receivers reversed without ``swapped``: the (to-C, to-B) marginal pair of a Kraus channel,
    or each cq conditional reordered to C (x) B."""
    if isinstance(ch, qb.BroadcastChannel):
        m_b, m_c = ch.marginals()
        return m_c, m_b
    per_symbol = [qb.DensityMatrix(rho, ch.out_layout, validate=False).reorder(ch.out_layout.labels[::-1]).matrix
                  for rho in ch.states]
    return qb.CqBroadcastChannel(ch.symbols, np.stack(per_symbol),
                                 qb.SystemLayout(ch.out_layout.parts[::-1]), validate=False)


class TestSwapped:
    @pytest.mark.parametrize("name,ch", SWAP_CASES, ids=[name for name, _ in SWAP_CASES])
    def test_probes_match_the_reversed_view(self, name, ch):
        swapped = ch.swapped()
        assert swapped.out_layout.parts == ch.out_layout.parts[::-1]
        (b, c), (b_ref, c_ref) = _probe_pairs(swapped), _probe_pairs(receivers_reversed(ch))
        assert np.array_equal(b, b_ref) and np.array_equal(c, c_ref)

    @pytest.mark.parametrize("name,ch", SWAP_CASES, ids=[name for name, _ in SWAP_CASES])
    def test_swapping_twice_gives_the_same_report(self, name, ch):
        twice = ch.swapped().swapped()
        stack = "ops" if isinstance(ch, qb.BroadcastChannel) else "states"
        assert np.array_equal(getattr(twice, stack), getattr(ch, stack)) and twice.out_layout == ch.out_layout
        # a swap drops any DephasingSpec, which the search does not read
        once = qb.degradedness_residual(ch)
        again = qb.degradedness_residual(twice)
        assert (again.residual, again.certified, again.method, again.floor) == \
            (once.residual, once.certified, once.method, once.floor)
        assert np.array_equal(again.degrading_map.ops, once.degrading_map.ops)

    @pytest.mark.parametrize("make", [qb.make_pinching, qb.make_ghz_copy, generic_dephasing])
    def test_swapped_kraus_channel_carries_no_dephasing_spec(self, make):
        ch = make()
        assert ch.dephasing is not None
        assert ch.swapped().dephasing is None


def non_commuting_degraded() -> qb.CqBroadcastChannel:
    """Non-commuting pure B states and C = a fixed random channel of B: degraded."""
    rng = np.random.default_rng(0)
    post = random_channel(rng, 2, 2, 2)
    states = []
    for x in range(2):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = np.outer(v, v.conj()) / np.vdot(v, v).real
        states.append(np.kron(b, apply_kraus(post, b)))
    return qb.CqBroadcastChannel(range(2), states, qb.layout(("B", 2), ("C", 2)), validate=False)


# every input of ``floor_cases`` seeds 0-39, ``degraded_commuting_cq`` seeds 500-539 and the two channels
# above on which the fit runs and a map certifies
CERTIFIED_BY_THE_FIT = {
    **{f"floor-{seed}-{index}": functools.partial(lambda seed, index: floor_cases(seed)[index], seed, index)
       for seed, index in [(0, 3), (4, 3), (7, 3), (8, 3), (10, 3), (13, 3), (14, 2), (15, 3), (17, 3), (18, 3),
                           (19, 3), (23, 3), (27, 3), (28, 3), (36, 3)]},
    **{f"degraded-commuting-{seed}": functools.partial(degraded_commuting_cq, seed)
       for seed in [504, 505, 507, 508, 519, 526, 531, 534]},
    "few-symbol": few_symbol_degraded_cq,
    "non-commuting": non_commuting_degraded,
}


class TestDegradedness:
    def test_pinching_forward_exact(self):
        rep = qb.degradedness_residual(qb.make_pinching())
        assert rep.residual <= 1e-6
        assert rep.certified
        residual, dmap = rep
        assert residual == rep.residual
        mb, mc = qb.make_pinching().marginals()
        lay = qb.layout(("in", 3))
        for probe in _probe_densities(3):
            rho = qb.DensityMatrix(probe, lay, validate=False)
            via_b = dmap.apply(mb.apply(rho))
            direct = mc.apply(rho)
            assert np.abs(via_b.matrix - direct.matrix).max() < 1e-6

    def test_pinching_reverse_fails(self):
        mb, mc = qb.make_pinching().marginals()
        rep = qb.degradedness_residual((mc, mb))
        assert rep.residual > 0.1
        assert not rep.certified

    @pytest.mark.parametrize("make", [qb.make_bsc_cascade, qb.make_pinching_cq])
    def test_cascade_commuting_path(self, make):
        # commuting degraded probes: the linear fit is the least-squares measure-prepare map
        rep = qb.degradedness_residual(make())
        assert rep.method == "kraus (linear fit)"
        assert rep.residual <= 1e-12
        assert rep.certified

    def test_identity_pair(self):
        ch = qb.make_identity_channel(2)
        rep = qb.degradedness_residual((ch, ch))
        assert rep.residual <= 1e-9

    def test_constructed_degraded_pair(self):
        rng = np.random.default_rng(18)
        base = random_channel(rng, 2, 2, 2)
        post = random_channel(rng, 2, 2, 2)
        ch_b = qb.KrausChannel(base, qb.layout(("B", 2)))
        composed = [p @ k for p in post for k in base]
        ch_c = qb.KrausChannel(composed, qb.layout(("C", 2)))
        rep = qb.degradedness_residual((ch_b, ch_c))
        assert rep.certified
        assert rep.residual <= 1e-6

    def test_qr_retraction_certifies(self):
        # the linear fit misses the map on these non-commuting probes; the Douglas-Rachford fit finds it
        w = non_commuting_degraded()
        assert not w.commuting_b()
        rep = qb.degradedness_residual(w)
        assert rep.method == "kraus (Douglas-Rachford)"
        assert rep.certified

    def test_qr_fit_certifies_few_symbols(self):
        # two commuting B probes underdetermine a map on d_B = 3: the linear fit misses it, the Douglas-Rachford
        # fit finds it
        w = few_symbol_degraded_cq()
        b, c = _probe_pairs(w)
        assert _all_commute(b)
        assert _residuals(_choi_fit_stack(b, c)[None], b, c)[0] > 1e-6
        rep = qb.degradedness_residual(w)
        assert rep.floor <= 1e-6
        assert rep.method == "kraus (Douglas-Rachford)"
        assert rep.certified

    @pytest.mark.parametrize("make", list(CERTIFIED_BY_THE_FIT.values()), ids=list(CERTIFIED_BY_THE_FIT))
    def test_fit_certifies_to_rounding(self, make):
        # a convex fit certifies at rounding level, not at the 1e-6 threshold
        w = make()
        b, c = _probe_pairs(w)
        rep = qb.degradedness_residual(w)
        assert rep.floor <= 1e-6 < _residuals(_choi_fit_stack(b, c)[None], b, c)[0]  # the fit runs
        assert rep.certified and rep.residual <= 1e-12, rep.residual

    def test_report_fields(self):
        rep = qb.degradedness_residual(qb.make_pinching())
        assert isinstance(rep.method, str)
        # the degrading map consumes the dim-3 B output
        assert rep.degrading_map.in_dim == 3


def returned_map_cases():
    """Every builtin and seeded dephasing document (seeds 1-20 and 1001) both ways, every ``floor_cases``
    input of seeds 0-39, and the few-symbol cq channel whose B states leave one basis state unprobed."""
    channels = [make() for make in BUILTIN_CHANNELS.values()]
    channels += [qb.parse_channel_spec(seeded_dephasing_doc(seed)) for seed in [*range(1, 21), 1001]]
    cases = [case for ch in channels for case in (ch, ch.swapped())]
    return cases + [case for seed in range(40) for case in floor_cases(seed)] + [few_symbol_degraded_cq(unprobed=True)]


class TestDegradingMapIsAChannel:
    """The linear fit drops the input directions its probes leave (nearly) unseen and prepares the maximally
    mixed state there, so every map the search returns is trace preserving."""

    def test_every_returned_map_passes_the_kraus_check(self):
        for i, case in enumerate(returned_map_cases()):
            dmap = qb.degradedness_residual(case).degrading_map
            try:
                qb.KrausChannel(dmap.ops, dmap.out_layout)  # sum K†K = I within KRAUS_TOL
            except qb.ValidationError as err:
                pytest.fail(f"case {i}: {err}")

    @pytest.mark.parametrize("seed,index", [(6, 0), (6, 1), (9, 1)])
    def test_linear_fit_certifies_near_unprobed_inputs(self, seed, index):
        # near-unprobed inputs: these pairs certify only if the fit drops the directions whose partial trace is
        # tiny instead of scaling them up
        rep = qb.degradedness_residual(floor_cases(seed)[index])
        assert rep.method == "kraus (linear fit)"
        assert rep.certified

    def test_unprobed_input_prepares_the_maximally_mixed_state(self):
        rep = qb.degradedness_residual(few_symbol_degraded_cq(unprobed=True))
        assert rep.method == "kraus (linear fit)"
        assert rep.certified
        image = _images(rep.degrading_map.ops, np.diag([0.0, 0.0, 1.0]).astype(complex))
        assert np.abs(image - np.eye(2) / 2).max() <= 1e-12


def floor_and_every_residual(bc_or_pair):
    """The search's contraction floor, the residual of the linear fit and of the Douglas-Rachford fit (run
    whatever the floor), and whether the B probes commute."""
    b, c = _probe_pairs(bc_or_pair)
    stacks = [_choi_fit_stack(b, c)[None], _projection_fit(b, c)[None]]
    residuals = [r for stack in stacks for r in _residuals(stack, b, c)]
    return _contraction_floor(b, c), residuals, _all_commute(b)


def floor_cases(seed):
    """A random Kraus pair both ways (dims 2-3), and random cq channels with commuting and non-commuting B."""
    rng = np.random.default_rng(seed)
    d_in, db, dc = (int(d) for d in rng.integers(2, 4, size=3))

    def channel(name, d):
        n_env = max(int(rng.integers(1, 3)), -(-d_in // d))  # random_channel's isometry needs d * n_env >= d_in
        return qb.KrausChannel(random_channel(rng, d_in, d, n_env), qb.layout((name, d)))

    ch_b, ch_c = channel("B", db), channel("C", dc)
    lay, x = qb.layout(("B", db), ("C", dc)), int(rng.integers(2, 4))
    c_lay = qb.layout(("C", dc))
    commuting = [np.kron(np.diag(rng.dirichlet(np.ones(db))), qb.random_density_matrix(c_lay, rng).matrix)
                 for _ in range(x)]
    generic = [qb.random_density_matrix(lay, rng).matrix for _ in range(x)]
    cq = [qb.CqBroadcastChannel(range(x), states, lay) for states in (commuting, generic)]
    return [(ch_b, ch_c), (ch_c, ch_b)] + cq


class TestContractionFloor:
    """Trace distance contracts under CPTP maps, so no map's residual falls below the floor."""

    def test_no_map_beats_the_floor(self):
        floors, kinds = [], set()
        for seed in range(30):
            for case in floor_cases(seed):
                floor, residuals, commute = floor_and_every_residual(case)
                assert residuals
                # both sides are sums of rounded singular values
                assert all(floor <= r + 1e-12 for r in residuals), (seed, floor, min(residuals))
                floors.append(floor)
                kinds.add(commute)
        assert kinds == {True, False}
        assert sum(f > 0.1 for f in floors) >= 10  # the bound has teeth on these cases

    def test_builtins(self):
        pinching, pinching_cq = qb.make_pinching(), qb.make_pinching_cq()
        assert qb.degradedness_residual(pinching).floor == 0.0
        mb, mc = pinching.marginals()
        rev = qb.degradedness_residual((mc, mb))
        assert abs(rev.floor - 1.0) <= 1e-12 and rev.floor < rev.residual
        assert qb.degradedness_residual(pinching_cq).floor == 0.0

    def test_zero_on_a_degraded_pair(self):
        rng = np.random.default_rng(18)
        base, post = random_channel(rng, 3, 2, 2), random_channel(rng, 2, 3, 2)
        ch_b = qb.KrausChannel(base, qb.layout(("B", 2)))
        ch_c = qb.KrausChannel([p @ k for p in post for k in base], qb.layout(("C", 3)))
        rep = qb.degradedness_residual((ch_b, ch_c))
        assert rep.certified
        assert rep.floor <= 1e-12

    def test_single_probe(self):
        b, c = np.eye(2, dtype=complex)[None] / 2, np.diag([1.0, 0.0]).astype(complex)[None]
        assert _contraction_floor(b, c) == 0.0


class TestFitRule:
    """The Douglas-Rachford fit, one ``_projection_fit`` call, runs exactly when floor <= 1e-6 < the linear fit's
    residual: above that floor no map certifies, and a certifying linear fit leaves nothing to find."""

    def test_fit_runs_only_while_a_certificate_is_possible(self, monkeypatch):
        calls, real = [], channels._projection_fit
        monkeypatch.setattr(channels, "_projection_fit", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        kinds = collections.Counter()
        for seed in range(30):
            for index, case in enumerate(floor_cases(seed)):
                b, c = _probe_pairs(case)
                linear = _residuals(_choi_fit_stack(b, c)[None], b, c)[0]
                calls.clear()
                rep = qb.degradedness_residual(case)
                if rep.floor > 1e-6:
                    kind = "above the floor"
                    assert (len(calls), rep.certified) == (0, False), (seed, index)
                elif linear > 1e-6:
                    kind = "fit"
                    assert len(calls) == 1, (seed, index)
                    assert rep.method in ("kraus (linear fit)", "kraus (Douglas-Rachford)"), (seed, index)
                else:
                    kind = "linear fit certifies"
                    assert not calls and rep.certified, (seed, index)
                kinds[kind, _all_commute(b)] += 1
        assert set(kinds) >= {("above the floor", True), ("above the floor", False), ("fit", True), ("fit", False),
                              ("linear fit certifies", False)}
