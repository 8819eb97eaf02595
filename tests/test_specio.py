import json

import numpy as np
import pytest

import qbroadcast as qb
from qbroadcast.specio import (
    BUILTIN_CHANNELS,
    complex_from_json,
    complex_to_json,
    parse_channel_spec,
    parse_state_spec,
    serialize_channel,
    serialize_state,
)


class TestComplexCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = complex_from_json(complex_to_json(arr), "arr")
        assert np.abs(back - arr).max() < 1e-15

    def test_survives_json_text(self):
        arr = np.array([[1.0 + 2.0j, 0.0], [0.5j, -1.0]])
        text = json.dumps(complex_to_json(arr))
        back = complex_from_json(json.loads(text), "arr")
        assert np.abs(back - arr).max() < 1e-15

    def test_rejects_bad_pairs(self):
        with pytest.raises(qb.ValidationError) as exc:
            complex_from_json([[1.0, 2.0, 3.0]], "field_x")
        assert "field_x" in str(exc.value)
        with pytest.raises(qb.ValidationError):
            complex_from_json("nope", "field_y")


class TestChannelDocs:
    def test_builtin_names(self):
        assert set(BUILTIN_CHANNELS) == {
            "pinching", "ghz-copy", "pinching-cq", "noiseless-bit", "constant"}
        ch = parse_channel_spec({"kind": "builtin", "name": "pinching"})
        assert isinstance(ch, qb.BroadcastChannel)
        assert ch.dephasing is not None

    def test_unknown_builtin_lists_known(self):
        with pytest.raises(qb.ValidationError) as exc:
            parse_channel_spec({"kind": "builtin", "name": "telepathy"})
        msg = str(exc.value)
        assert "telepathy" in msg and "pinching" in msg

    def test_cq_round_trip(self):
        w = qb.make_bsc_cascade(0.1, 0.2)
        doc = serialize_channel(w)
        assert doc["kind"] == "cq"
        back = parse_channel_spec(json.loads(json.dumps(doc)))
        assert isinstance(back, qb.CqBroadcastChannel)
        assert back.symbols == w.symbols
        assert np.abs(back.states - w.states).max() < 1e-15

    def test_cq_bad_conditional_named(self):
        w = qb.make_noiseless_bit()
        doc = serialize_channel(w)
        doc["conditionals"][0] = (0.9 * np.asarray(
            complex_from_json(doc["conditionals"][0], "x"))).tolist()
        doc["conditionals"][0] = complex_to_json(doc["conditionals"][0])
        with pytest.raises(qb.ValidationError) as exc:
            parse_channel_spec(doc)
        assert "conditionals[0]" in str(exc.value)

    def test_cq_symbol_count_mismatch(self):
        w = qb.make_noiseless_bit()
        doc = serialize_channel(w)
        doc["symbols"] = doc["symbols"] + [99]
        with pytest.raises(qb.ValidationError):
            parse_channel_spec(doc)

    @pytest.mark.parametrize("symbols", [[0, 0], [[1], [1]], [1, True]], ids=["ints", "normalized", "bool-int"])
    def test_cq_duplicate_symbols_rejected(self, symbols):
        doc = serialize_channel(qb.make_noiseless_bit())
        doc["symbols"] = symbols
        with pytest.raises(qb.ValidationError) as exc:
            parse_channel_spec(doc)
        assert "duplicate symbol" in str(exc.value)

    def test_isometry_round_trip(self):
        v = np.zeros((8, 4), dtype=complex)
        for x1 in range(2):
            for x2 in range(2):
                v[x1 * 4 + x1 * 2 + x2, x1 * 2 + x2] = 1.0
        ch = qb.BroadcastChannel([v], qb.layout(("B", 2), ("C", 4)))
        doc = serialize_channel(ch)
        assert doc["kind"] == "isometry"
        back = parse_channel_spec(doc)
        assert isinstance(back, qb.BroadcastChannel)
        assert np.abs(back.ops[0] - ch.ops[0]).max() < 1e-15
        assert back.out_layout.dims == ch.out_layout.dims

    def test_builtin_copy_serializes_with_its_spec(self):
        doc = serialize_channel(qb.make_ghz_copy())
        assert doc["kind"] == "dephasing"
        back = parse_channel_spec(doc)
        assert np.abs(back.ops[0] - qb.make_ghz_copy().ops[0]).max() < 1e-15

    def test_kraus_round_trip(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        ops = [np.kron(p, np.eye(2, dtype=complex)) for p in (p0, p1)]
        ch = qb.BroadcastChannel(ops, qb.layout(("B", 2), ("C", 2)))
        doc = serialize_channel(ch)
        assert doc["kind"] == "kraus"
        back = parse_channel_spec(doc)
        assert len(back.ops) == 2
        for a, b in zip(back.ops, ops):
            assert np.abs(a - b).max() < 1e-15

    def test_dephasing_round_trip(self):
        ch = qb.make_pinching()
        doc = serialize_channel(ch)
        assert doc["kind"] == "dephasing"
        back = parse_channel_spec(doc)
        assert back.dephasing is not None
        assert np.abs(back.dephasing.images - ch.dephasing.images).max() < 1e-15
        assert back.dephasing.c_dim == 2 and back.dephasing.e_dim == 1

    def test_kraus_completeness_checked(self):
        doc = {"kind": "kraus", "b_dim": 2, "c_dim": 1,
               "ops": [complex_to_json(0.5 * np.eye(2))]}
        with pytest.raises(qb.ValidationError) as exc:
            parse_channel_spec(doc)
        assert "ops" in str(exc.value)

    def test_unknown_kind(self):
        with pytest.raises(qb.ValidationError) as exc:
            parse_channel_spec({"kind": "teleporter"})
        assert "teleporter" in str(exc.value)

    def test_invalid_json_text(self):
        with pytest.raises(qb.ValidationError) as exc:
            parse_channel_spec("{not json")
        assert "JSON" in str(exc.value)

    def test_top_level_must_be_object(self):
        with pytest.raises(qb.ValidationError):
            parse_channel_spec("[1, 2, 3]")

    def test_missing_field_named(self):
        with pytest.raises(qb.ValidationError) as exc:
            parse_channel_spec({"kind": "cq", "b_dim": 2})
        assert "c_dim" in str(exc.value)

    def test_dims_must_be_positive_ints(self):
        with pytest.raises(qb.ValidationError):
            parse_channel_spec({"kind": "cq", "b_dim": 0, "c_dim": 2,
                                "symbols": [], "conditionals": []})
        with pytest.raises(qb.ValidationError):
            parse_channel_spec({"kind": "cq", "b_dim": True, "c_dim": 2,
                                "symbols": [], "conditionals": []})


class TestStateDocs:
    def test_density_round_trip(self):
        rng = np.random.default_rng(1)
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 3)), rng)
        doc = serialize_state(rho)
        back = parse_state_spec(json.loads(json.dumps(doc)))
        assert back.layout == rho.layout
        assert np.abs(back.matrix - rho.matrix).max() < 1e-15

    def test_pure_vector(self):
        vec = np.zeros(4)
        vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
        doc = {"kind": "pure", "layout": [["A", 2], ["B", 2]],
               "vector": complex_to_json(vec)}
        rho = parse_state_spec(doc)
        assert abs(qb.von_neumann_entropy(rho)) < 1e-12
        assert abs(qb.conditional_entropy(rho, "A", "B") + 1.0) < 1e-12

    def test_norm_checked(self):
        doc = {"kind": "pure", "layout": [["A", 2]],
               "vector": complex_to_json(np.array([1.0, 1.0]))}
        with pytest.raises(qb.ValidationError) as exc:
            parse_state_spec(doc)
        assert "vector" in str(exc.value)

    def test_shape_checked(self):
        doc = {"kind": "density", "layout": [["A", 2]],
               "matrix": complex_to_json(np.eye(3) / 3)}
        with pytest.raises(qb.ValidationError) as exc:
            parse_state_spec(doc)
        assert "matrix" in str(exc.value)

    def test_layout_entries_validated(self):
        base = {"kind": "density", "matrix": complex_to_json(np.eye(2) / 2)}
        with pytest.raises(qb.ValidationError):
            parse_state_spec(dict(base, layout=[["A", 0]]))
        with pytest.raises(qb.ValidationError):
            parse_state_spec(dict(base, layout=["A"]))
        with pytest.raises(qb.ValidationError):
            parse_state_spec(dict(base, layout=[]))

    def test_unknown_kind(self):
        with pytest.raises(qb.ValidationError):
            parse_state_spec({"kind": "stabilizer", "layout": [["A", 2]]})
