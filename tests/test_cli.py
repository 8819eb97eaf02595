import errno
import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

import qbroadcast as qb
from qbroadcast import channels, cli
from qbroadcast.bruteforce import grid_cq_frontier
from qbroadcast.cli import WITNESS_FORMAT, _build_parser, run
from qbroadcast.optimize import OptimizerConfig
from qbroadcast.regions import _MODES, _stored_rates, _sweep, build_evaluator, evaluate_witness, pinching_boundary
from qbroadcast.specio import BUILTIN_CHANNELS, complex_to_json

from conftest import few_symbol_degraded_cq, seeded_dephasing_doc


def region_args(out, channel="noiseless-bit", mode="cq", size=("--grid", "3", "--restarts", "4")):
    return ["region", mode, "--channel", channel, *size, "--out", str(out)]


# (mode, channel, sweep size, sidecar mode): one witness family per frontier mode,
# each small enough to run in seconds
WITNESS_SWEEPS = [
    ("cq", "noiseless-bit", ("--grid", "3", "--restarts", "4"), "cq"),
    ("dephasing", "pinching", ("--grid", "3", "--restarts", "4"), "dephasing"),
    ("qq", "ghz-copy", ("--grid", "3", "--restarts", "4"), "qq-dephasing"),
    ("cq-eg", "pinching", ("--t-size", "2", "--grid", "2", "--restarts", "2"), "cq-eg"),
]
sweeps = pytest.mark.parametrize("mode,channel,size,sidecar_mode", WITNESS_SWEEPS,
                                 ids=[w[0] for w in WITNESS_SWEEPS])


def _two_kraus_dephasing_doc():
    """Generalized dephasing, 2 inputs, C dim 2, E dim 2 (two Kraus operators): seeded unit vectors."""
    rng = np.random.default_rng(2024)
    vecs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return {"kind": "dephasing", "c_dim": 2, "e_dim": 2, "images": np.stack([vecs.real, vecs.imag], axis=-1).tolist()}


class TestExitCodes:
    def test_no_command_is_validation_error(self, capsys):
        assert run([]) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err

    def test_unknown_mode(self, capsys):
        assert run(["region", "psychic", "--channel", "noiseless-bit"]) == 2
        assert capsys.readouterr().err == ("ERR_VALIDATE: argument mode: invalid choice: 'psychic' "
                                           "(choose from 'cq', 'cq-eg', 'dephasing', 'qq')\n")

    def test_unknown_channel(self, capsys):
        assert run(["region", "cq", "--channel", "no-such-thing"]) == 2
        err = capsys.readouterr().err
        assert "ERR_VALIDATE" in err and "no-such-thing" in err

    def test_mode_channel_mismatch(self, capsys):
        assert run(["region", "cq", "--channel", "pinching",
                    "--grid", "2", "--restarts", "2"]) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["region", "cq", "--channel", "pinching-cq", "--restarts", "0"],
        ["region", "cq", "--channel", "pinching-cq", "--grid", "0"],
        ["region", "dephasing", "--channel", "pinching", "--t-size", "0"],
        ["region", "cq-eg", "--channel", "pinching", "--t-size", "0"],
    ], ids=["restarts-0", "grid-0", "dephasing-t-size-0", "cq-eg-t-size-0"])
    def test_bad_sweep_settings(self, argv, capsys):
        assert run(argv) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["oracle", "grid", "--channel", "pinching-cq", "--t-size", "2", "--mesh", "4", "--r-grid", "-3"],
        ["oracle", "grid", "--channel", "pinching-cq", "--t-size", "2", "--mesh", "4", "--r-grid", "0"],
        ["oracle", "classical", "--cascade", "nan,0.2", "--mesh", "4"],
        ["oracle", "classical", "--cascade", "0.1,inf", "--mesh", "4"],
        ["oracle", "classical", "--cascade", "1.5,0.2", "--mesh", "4"],
        ["oracle", "cardinality", "--channel", "pinching-cq", "--bound", "2", "--extra", "-1", "--mesh", "4"],
    ], ids=["r-grid-negative", "r-grid-0", "cascade-nan", "cascade-inf", "cascade-above-1", "extra-negative"])
    def test_bad_oracle_settings(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "ERR_VALIDATE" in err
        if argv[1] == "classical":  # the flips are checked as given, not as the tables built from them
            assert err.startswith("ERR_VALIDATE: cascade: ")

    def test_budget_error(self, capsys):
        assert run(["oracle", "grid", "--channel", "pinching-cq",
                    "--t-size", "6", "--mesh", "24"]) == 3
        assert "ERR_BUDGET" in capsys.readouterr().err

    def test_parameter_budget_error(self, capsys):
        # 10000 labels x (1 + 3 symbols) optimizer parameters
        assert run(["region", "cq", "--channel", "pinching-cq", "--t-size", "10000"]) == 3
        assert "ERR_BUDGET" in capsys.readouterr().err

    def test_ensemble_parameter_budget_on_a_document(self, tmp_path, capsys):
        # 70 labels x (1 + 128 real parts of a pure state on reference (x) input) on an 8x8 isometry
        doc = tmp_path / "iso.json"
        identity = qb.BroadcastChannel([np.eye(8)], qb.layout(("B", 2), ("C", 4)))
        doc.write_text(json.dumps(qb.serialize_channel(identity)))
        assert run(["region", "cq-eg", "--channel", str(doc), "--t-size", "70"]) == 3
        assert capsys.readouterr().err == ("ERR_BUDGET: ensemble frontier: 9030 optimizer parameters "
                                           "exceed matrix budget 4096\n")

    def test_boundary_point_budget(self, capsys):
        # refused before any of the 1e11 samples is allocated
        assert run(["pinching-boundary", "--points", "100000000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ERR_BUDGET: ") and err.count("\n") == 1


def _epr_doc():
    vec = np.zeros(4)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    return {"kind": "pure", "layout": [["A", 2], ["B", 2]], "vector": complex_to_json(vec)}


class TestFileErrors:
    # a file the CLI cannot read or write is a validation error, not a traceback
    @pytest.mark.parametrize("argv", [
        ["verify", "--witness", "{missing}"],
        ["quantities", "--state", "{missing}"],
        ["region", "cq", "--channel", "{latin1}", "--grid", "2", "--restarts", "2"],
        ["verify", "--witness", "{latin1}"],
        ["quantities", "--state", "{latin1}"],
        ["region", "cq", "--channel", "noiseless-bit", "--grid", "2", "--restarts", "2", "--out", "{nodir}"],
        ["oracle", "grid", "--channel", "pinching-cq", "--t-size", "2", "--mesh", "3", "--out", "{nodir}"],
        ["oracle", "classical", "--cascade", "0.1,0.2", "--mesh", "3", "--out", "{nodir}"],
        ["pinching-boundary", "--points", "3", "--out", "{nodir}"],
        ["quantities", "--state", "{epr}", "--out", "{nodir}"],
    ], ids=["verify-missing", "quantities-missing", "channel-not-utf8", "witness-not-utf8", "state-not-utf8",
            "region-out", "grid-out", "classical-out", "boundary-out", "quantities-out"])
    def test_exits_with_validation_error(self, tmp_path, capsys, argv):
        latin1, epr = tmp_path / "latin1.json", tmp_path / "epr.json"
        latin1.write_bytes('{"kind": "builtin", "name": "caf\xe9"}'.encode("latin-1"))
        epr.write_text(json.dumps(_epr_doc()))
        paths = {"missing": tmp_path / "missing.json", "latin1": latin1, "epr": epr,
                 "nodir": tmp_path / "no-such-dir" / "out.csv"}
        assert run([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR_VALIDATE: ") and err.count("\n") == 1
        assert not (tmp_path / "no-such-dir").exists()


class TestRegionCommand:
    def test_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "front.csv"
        assert run(region_args(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "common_rate,personal_rate,witness_id"
        assert len(lines) > 1
        assert lines[1].endswith("pt-000")
        side = json.loads((tmp_path / "front.csv.witness.json").read_text())
        assert side["format"] == WITNESS_FORMAT
        assert side["mode"] == "cq"
        assert side["channel"]["kind"] == "cq"
        assert len(side["points"]) == len(lines) - 1
        assert all("params" in p for p in side["points"])

    @sweeps
    def test_reruns_are_byte_identical(self, tmp_path, mode, channel, size, sidecar_mode):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(region_args(a, channel, mode, size)) == 0
        assert run(region_args(b, channel, mode, size)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.witness.json").read_bytes() == \
               (tmp_path / "b.csv.witness.json").read_bytes()

    def test_stdout_when_no_out(self, capsys):
        assert run(["region", "dephasing", "--channel", "pinching",
                    "--grid", "2", "--restarts", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("common_rate,personal_rate,witness_id\n")

    @sweeps
    def test_verify_round_trip(self, tmp_path, capsys, mode, channel, size, sidecar_mode):
        out = tmp_path / "front.csv"
        assert run(region_args(out, channel, mode, size)) == 0
        assert json.loads((tmp_path / "front.csv.witness.json").read_text())["mode"] == sidecar_mode
        capsys.readouterr()
        assert run(["verify", "--witness", str(out) + ".witness.json"]) == 0
        text = capsys.readouterr().out
        assert "mismatch" not in text
        assert text.strip().endswith("rows")

    def test_verify_catches_tampering(self, tmp_path, capsys):
        out = tmp_path / "front.csv"
        assert run(region_args(out)) == 0
        side = tmp_path / "front.csv.witness.json"
        doc = json.loads(side.read_text())
        doc["points"][0]["personal_rate"] += 0.25
        side.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--witness", str(side)]) == 2
        captured = capsys.readouterr()
        assert "mismatch" in captured.out
        assert "ERR_VALIDATE" in captured.err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf"])
    def test_verify_rejects_bad_tolerance(self, tmp_path, capsys, tol):
        # an infinite tolerance would verify any witness, a NaN or negative one would fail every row
        out = tmp_path / "boundary.csv"
        assert run(["pinching-boundary", "--points", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", "--witness", str(out) + ".witness.json", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ERR_VALIDATE: tol: must be a finite number >= 0")
        assert captured.out == ""

    @pytest.mark.parametrize("argv,csv_sha,sidecar_sha", [
        (("cq", "--channel", "pinching-cq", "--grid", "2", "--restarts", "4", "--seed", "1001"),
         "afb0562720ff80a6463838030725bc166ad527b9959121e4229a224cf1c4af27",
         "6bad240a13f03b8aca06c1281c82e7b9687ff6ba40dc25ee2f603e214b3a71cb"),
        (("cq-eg", "--channel", "pinching", "--t-size", "2", "--grid", "2", "--restarts", "2", "--seed", "1001"),
         "4a3607c372a3f3f5cb9b53c3f079c41984031ca0154b7a195029868abcca95ae",
         "09cb749381922e07ca5586eec2e8d0eb64470f2532e219624dd9b27ca334b38d"),
    ], ids=["sweep-cq", "sweep-eg"])
    def test_benchmark_sweep_bytes(self, tmp_path, argv, csv_sha, sidecar_sha):
        # the benchmark's sweep configs, pinned so that their CSV and sidecar bytes cannot drift silently
        out = tmp_path / "front.csv"
        assert run(["region", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256((tmp_path / "front.csv.witness.json").read_bytes()).hexdigest() == sidecar_sha

    @pytest.mark.parametrize("argv,csv_sha,sidecar_sha", [
        (("dephasing", "--channel", "pinching", "--grid", "3", "--restarts", "4"),
         "f928b7962febd6153783cf649daa78ae5fa4008198d737e73fc06db2c2eba1a2",
         "af9ce6e88680b324f55cd5749515e41876946ca494ba868d683150aced6df168"),
        (("qq", "--channel", "pinching", "--grid", "3", "--restarts", "4"),
         "f928b7962febd6153783cf649daa78ae5fa4008198d737e73fc06db2c2eba1a2",
         "677dec7515f35c958f5b92938dffd4fd68215321c376b52f2bd68f546bae38ca"),
        (("cq", "--channel", "pinching-cq", "--k", "2", "--grid", "2", "--restarts", "4", "--seed", "1001"),
         "d27b661e3345c2e77036ec6ada6055dc6e88ffddb934e34ed7557d3fcaf8d7c1",
         "cede9721496d05132ace1b4b3dd82bba298afa73b4c7664d66cc6dcb86f89fde"),
        (("cq-eg", "--channel", "{two_kraus}", "--t-size", "2", "--grid", "2", "--restarts", "2"),
         "31d66c81e90caed791cf54ce8ffad7ac8e2aa03b8953cffca1c0a5f9283a7f14",
         "48f8334f4948908853a1e6194bbe0c70c87569968f01cc37ff6a4214b50d0d1a"),
    ], ids=["dephasing", "qq-dephasing", "cq-k2", "cq-eg-two-kraus"])
    def test_mode_bytes(self, tmp_path, argv, csv_sha, sidecar_sha):
        # the paths the benchmark does not run, pinned like its sweeps: the dephasing and qq-dephasing
        # families, a two-use cq channel, and cq-eg through two Kraus operators (the dense RB entropy)
        doc = tmp_path / "two-kraus.json"
        doc.write_text(json.dumps(_two_kraus_dephasing_doc()))
        out = tmp_path / "front.csv"
        assert run(["region", *(a.format(two_kraus=doc) for a in argv), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256((tmp_path / "front.csv.witness.json").read_bytes()).hexdigest() == sidecar_sha

    def test_verify_rejects_foreign_documents(self, tmp_path):
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps({"format": "something-else", "points": []}))
        assert run(["verify", "--witness", str(bad)]) == 2

    def test_verify_rejects_non_integer_k(self, tmp_path, capsys):
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "cq", "k": "two", "points": []}))
        assert run(["verify", "--witness", str(bad)]) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err

    def test_verify_rejects_non_string_mode(self, tmp_path, capsys):
        bad = tmp_path / "w.json"
        point = {"witness_id": "pt-000", "common_rate": 0.0, "personal_rate": 1.0,
                 "params": {"p_t": [1.0], "p_x_given_t": [[0.5, 0.5]]}}
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": ["cq"], "k": 1,
                                   "channel": qb.serialize_channel(qb.make_noiseless_bit()), "points": [point]}))
        assert run(["verify", "--witness", str(bad)]) == 2
        assert capsys.readouterr().err == "ERR_VALIDATE: witness: mode must be a string, got ['cq']\n"

    def test_verify_rejects_point_without_rates(self, tmp_path, capsys):
        bad = tmp_path / "w.json"
        point = {"witness_id": "pt-000", "params": {"p_t": [1.0], "p_x_given_t": [[0.5, 0.5]]}}
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "cq", "k": 1,
                                   "channel": qb.serialize_channel(qb.make_noiseless_bit()),
                                   "points": [point]}))
        assert run(["verify", "--witness", str(bad)]) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err

    def test_verify_rejects_non_numeric_target(self, tmp_path, capsys):
        bad = tmp_path / "w.json"
        point = {"witness_id": "pt-000", "common_rate": 0.0, "personal_rate": 1.0, "r_target": "half",
                 "params": {"p_t": [1.0], "p_x_given_t": [[0.5, 0.5]]}}
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "cq", "k": 1,
                                   "channel": qb.serialize_channel(qb.make_noiseless_bit()),
                                   "points": [point]}))
        assert run(["verify", "--witness", str(bad)]) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        {"p_t": [1.0]},
        {"p_t": [1.0], "p_x_given_t": [[0.5, 0.25, 0.25]]},
        5,
        {"p_x_given_t": [[0.5, 0.5]]},
        {"p_t": ["one"], "p_x_given_t": [[0.5, 0.5]]},
    ], ids=["missing-payload", "wrong-row-length", "not-an-object", "missing-p_t", "p_t-not-numeric"])
    def test_verify_rejects_malformed_params(self, tmp_path, capsys, params):
        bad = tmp_path / "w.json"
        point = {"witness_id": "pt-000", "common_rate": 0.0, "personal_rate": 0.0, "params": params}
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "cq", "k": 1,
                                   "channel": qb.serialize_channel(qb.make_noiseless_bit()),
                                   "points": [point]}))
        assert run(["verify", "--witness", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR_VALIDATE: ") and err.count("\n") == 1

    def test_verify_names_the_misshapen_array(self, tmp_path, capsys):
        bad = tmp_path / "w.json"
        point = {"witness_id": "pt-000", "common_rate": 0.0, "personal_rate": 0.0,
                 "params": {"p_t": [[1.0]], "p_x_given_t": [[0.5, 0.5]]}}
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "cq", "k": 1,
                                   "channel": qb.serialize_channel(qb.make_noiseless_bit()), "points": [point]}))
        assert run(["verify", "--witness", str(bad)]) == 2
        assert capsys.readouterr().err == ("ERR_VALIDATE: pt-000: cq witness 'p_t' has shape (1, 1), "
                                           "expected (1,) for 1 labels\n")

    @pytest.mark.parametrize("channel,message", [
        ("junk", "witness: channel: expected a channel document object, got str"),
        ({"kind": "nope"}, "witness: channel: kind: unknown channel kind 'nope'"),
        ({"kind": "cq", "b_dim": 2}, "witness: channel: c_dim: missing required field"),
    ], ids=["text", "unknown-kind", "missing-field"])
    def test_verify_prefixes_channel_errors(self, tmp_path, capsys, channel, message):
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "cq", "k": 1, "channel": channel, "points": []}))
        assert run(["verify", "--witness", str(bad)]) == 2
        assert capsys.readouterr().err == f"ERR_VALIDATE: {message}\n"

    @pytest.mark.parametrize("mode,make,params", [
        # stored common rate 2 on a 1-bit channel: the negative weight flips the clipped
        # mixture entropy to 0 and adds 2 x H(rho), so the rates alone would agree
        ("cq", qb.make_noiseless_bit, {"p_t": [-2.0], "p_x_given_t": [[0.5, 0.5]]}),
        ("cq-eg", qb.make_pinching, {"p_t": [1.0], "states": [[[2 / 3 ** 0.5 * (r == i), 0.0]
                                                                for r in range(3) for i in range(3)]]}),
    ], ids=["negative-p_t", "doubled-amplitudes"])
    def test_verify_rejects_witnesses_no_code_could_reach(self, tmp_path, capsys, mode, make, params):
        bad = tmp_path / "w.json"
        point = {"witness_id": "pt-000", "common_rate": 2.0, "personal_rate": 0.0, "params": params}
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": mode, "k": 1,
                                   "channel": qb.serialize_channel(make()), "points": [point]}))
        assert run(["verify", "--witness", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "ERR_VALIDATE" in err and "within 1e-9" in err

    @pytest.mark.parametrize("points", [
        [1],
        {"a": 1},
        [{"witness_id": "cf-000", "common_rate": 1.0, "personal_rate": 0.0, "kind": "closed-form"}],
        [{"witness_id": "cf-000", "common_rate": 1.0, "personal_rate": 0.0, "kind": "closed-form", "p": "half"}],
        [{"witness_id": "cf-000", "common_rate": 1.0, "personal_rate": 0.0, "kind": "closed-form", "p": [0.5]}],
        [{"witness_id": "pt-000", "common_rate": 0.0, "personal_rate": 0.0}],
    ], ids=["point-not-object", "points-not-list", "closed-form-without-p", "closed-form-p-not-a-number",
            "closed-form-p-a-list", "no-parameters"])
    def test_verify_rejects_malformed_points(self, tmp_path, capsys, points):
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "cq", "k": 1,
                                   "channel": qb.serialize_channel(qb.make_noiseless_bit()), "points": points}))
        assert run(["verify", "--witness", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR_VALIDATE: ") and err.count("\n") == 1

    def test_verify_rejects_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "w.json"
        bad.write_text('{"format": ')
        assert run(["verify", "--witness", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR_VALIDATE: witness: invalid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("mode,make,entry", [
        ("oracle-grid", None, {"joint": [[0.5, 0.5]]}),
        ("cq-eg", qb.make_pinching, {"params": {"p_t": [1.0], "states": [[1.0, 0.0, 0.0]]}}),
    ], ids=["grid-without-channel", "states-not-pairs"])
    def test_verify_rejects_unevaluable_entries(self, tmp_path, capsys, mode, make, entry):
        bad = tmp_path / "w.json"
        doc = {"format": WITNESS_FORMAT, "mode": mode, "k": 1,
               "points": [{"witness_id": "pt-000", "common_rate": 0.0, "personal_rate": 0.0, **entry}]}
        if make is not None:
            doc["channel"] = qb.serialize_channel(make())
        bad.write_text(json.dumps(doc))
        assert run(["verify", "--witness", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR_VALIDATE: ") and err.count("\n") == 1


def _kraus_doc():
    e = np.eye(4)
    return qb.serialize_channel(qb.BroadcastChannel([np.outer(e[0], e[0, :2]), np.outer(e[3], e[1, :2])],
                                                    qb.layout(("B", 2), ("C", 2))))


def _isometry_doc():
    v = np.zeros((4, 2))
    v[0, 0] = v[3, 1] = 1.0
    return qb.serialize_channel(qb.BroadcastChannel([v], qb.layout(("B", 2), ("C", 2))))


def _poison(doc, field, value):
    """The document with the real part of its first complex entry in ``field`` set to ``value``."""
    entry = doc[field]
    while isinstance(entry[0], list):
        entry = entry[0]
    entry[0] = value
    return doc


# (document kind, command taking the document, document factory, field holding complex entries)
NON_FINITE = [
    ("cq", "channel", lambda: qb.serialize_channel(qb.make_noiseless_bit()), "conditionals"),
    ("kraus", "channel", _kraus_doc, "ops"),
    ("isometry", "channel", _isometry_doc, "matrix"),
    ("dephasing", "channel", lambda: qb.serialize_channel(qb.make_pinching()), "images"),
    ("density", "state", lambda: qb.serialize_state(qb.DensityMatrix(np.eye(2) / 2, qb.layout(("A", 2)))), "matrix"),
    ("pure", "state", lambda: {"kind": "pure", "layout": [["A", 2]], "vector": [[1.0, 0.0], [0.0, 0.0]]}, "vector"),
]

# (command taking the document, document, start of the error after the prefix)
MALFORMED = [
    ("channel", {"kind": "kraus", "b_dim": 2, "c_dim": 2, "ops": [complex_to_json(np.eye(3, 2))]},
     "ops[0]: expected 4 rows"),
    ("channel", {"kind": "kraus", "b_dim": 2, "c_dim": 2, "ops": []}, "ops: must not be empty"),
    ("channel", {"kind": "isometry", "b_dim": 2, "c_dim": 2, "matrix": complex_to_json(np.eye(3, 2))},
     "matrix: expected 4 rows"),
    ("channel", {"kind": "isometry", "b_dim": 2, "c_dim": 2, "matrix": complex_to_json(np.eye(4, 2) / 2)},
     "matrix: Kraus set is not trace preserving"),
    ("channel", {"kind": "dephasing", "c_dim": 2, "e_dim": 1, "images": complex_to_json(np.eye(3))},
     "images: expected rows of length 2"),
    ("channel", {"kind": "dephasing", "c_dim": 2, "e_dim": 1, "images": complex_to_json(2 * np.eye(2))},
     "images: dephasing environment vector norm deviates from 1"),
    ("channel", {"kind": "cq", "b_dim": 2, "c_dim": 2, "symbols": [0],
                 "conditionals": [complex_to_json(np.eye(3) / 3)]},
     "conditionals[0]: expected shape (4, 4)"),
    ("state", {"kind": "pure", "layout": [["A", 2]], "vector": complex_to_json(np.ones(3) / 3 ** 0.5)},
     "vector: expected length 2"),
]


class TestDocumentValidation:
    @pytest.mark.parametrize("takes,doc,message", MALFORMED,
                             ids=["ops-rows", "ops-empty", "matrix-rows", "isometry-not-tp", "images-length",
                                  "images-not-unit", "cq-conditional-shape", "pure-vector-length"])
    def test_malformed_documents_rejected(self, tmp_path, capsys, takes, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = (["check", "degraded", "--channel", str(path)] if takes == "channel"
                else ["quantities", "--state", str(path)])
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERR_VALIDATE: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind,takes,make,field", NON_FINITE, ids=[n[0] for n in NON_FINITE])
    def test_non_finite_entries_rejected(self, tmp_path, capsys, kind, takes, make, field, value):
        doc = make()
        assert doc["kind"] == kind
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_poison(doc, field, value)))  # json writes NaN / Infinity literals
        argv = (["check", "degraded", "--channel", str(path)] if takes == "channel"
                else ["quantities", "--state", str(path)])
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "ERR_VALIDATE" in err and "finite" in err


class TestQuantitiesCommand:
    def test_epr_report(self, tmp_path, capsys):
        vec = np.zeros(4)
        vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
        doc = {"kind": "pure", "layout": [["A", 2], ["B", 2]],
               "vector": complex_to_json(vec)}
        state = tmp_path / "epr.json"
        state.write_text(json.dumps(doc))
        assert run(["quantities", "--state", str(state)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["entropy"]["A"] - 1.0) < 1e-12
        assert abs(report["entropy"]["A,B"]) < 1e-12
        assert abs(report["conditional_entropy"]["A|B"] + 1.0) < 1e-12
        assert abs(report["coherent_information"]["A>B"] - 1.0) < 1e-12
        assert abs(report["mutual_information"]["A;B"] - 2.0) < 1e-12

    def test_three_party_includes_cmi(self, tmp_path, capsys):
        vec = np.zeros(8)
        vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
        doc = {"kind": "pure", "layout": [["A", 2], ["B", 2], ["C", 2]],
               "vector": complex_to_json(vec)}
        state = tmp_path / "ghz.json"
        state.write_text(json.dumps(doc))
        assert run(["quantities", "--state", str(state)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["conditional_mutual_information"]["A;B|C"] - 1.0) < 1e-12


# (channel, --reverse, certified line, method line) for every builtin in both directions
# (channel, reverse, residual line, certified, method); None pins no residual digits
# (the forward document residual is rounding noise), only that it is at most 1e-12
DEGRADED_VERDICTS = [
    ("pinching", False, "2.11173317032e-15", "true", "kraus (linear fit)"),
    ("pinching", True, "1.04822012578", "false", "kraus (linear fit)"),
    ("pinching-cq", False, "0", "true", "kraus (linear fit)"),
    ("pinching-cq", True, "1", "false", "kraus (linear fit)"),
    ("noiseless-bit", False, "0", "true", "kraus (linear fit)"),
    ("noiseless-bit", True, "0", "true", "kraus (linear fit)"),
    ("constant", False, "0", "true", "kraus (linear fit)"),
    ("constant", True, "0", "true", "kraus (linear fit)"),
    ("ghz-copy", False, "0", "true", "kraus (linear fit)"),
    ("ghz-copy", True, "0", "true", "kraus (linear fit)"),
    ("dephasing-doc", False, None, "true", "kraus (linear fit)"),
    ("dephasing-doc", True, "0.890609954859", "false", "kraus (linear fit)"),
]


class TestCheckDegraded:
    @pytest.mark.parametrize("channel,reverse,residual,certified,method", DEGRADED_VERDICTS,
                             ids=[f"{v[0]}-{'reverse' if v[1] else 'forward'}" for v in DEGRADED_VERDICTS])
    def test_builtin_verdicts(self, tmp_path, capsys, channel, reverse, residual, certified, method):
        if channel == "dephasing-doc":
            channel = tmp_path / "dephasing.json"
            channel.write_text(json.dumps(seeded_dephasing_doc()))
        assert run(["check", "degraded", "--channel", str(channel)] + (["--reverse"] if reverse else [])) == 0
        lines = capsys.readouterr().out.splitlines()
        if residual is None:
            assert float(lines[0].removeprefix("residual: ")) <= 1e-12
        else:
            assert lines[0] == f"residual: {residual}"
        assert lines[1:] == [f"certified: {certified}", f"method: {method}"]

    @pytest.mark.parametrize("channel", ["pinching-cq", "noiseless-bit", "constant", "bsc", "random-2x3"])
    def test_cq_reverse_swaps_every_conditional(self, tmp_path, monkeypatch, channel):
        # the stack transpose the command applies, against per-symbol reorder
        if channel == "bsc":
            channel = tmp_path / "bsc.json"
            channel.write_text(json.dumps(qb.serialize_channel(qb.make_bsc_cascade())))
        elif channel == "random-2x3":
            rng, lay = np.random.default_rng(5), qb.layout(("B", 2), ("C", 3))
            mats = [complex_to_json(qb.random_density_matrix(lay, rng).matrix) for _ in range(2)]
            channel = tmp_path / "random.json"
            channel.write_text(json.dumps({"kind": "cq", "b_dim": 2, "c_dim": 3, "symbols": ["u", "v"],
                                           "conditionals": mats}))
        seen, real = [], cli.degradedness_residual
        monkeypatch.setattr(cli, "degradedness_residual", lambda ch: seen.append(ch) or real(ch))
        assert run(["check", "degraded", "--channel", str(channel), "--reverse"]) == 0
        w = cli._load_channel(str(channel))
        (swapped,) = seen
        assert swapped.symbols == w.symbols
        assert swapped.out_layout.parts == w.out_layout.parts[::-1]
        per_symbol = [qb.DensityMatrix(rho, w.out_layout, validate=False).reorder(("C", "B")).matrix
                      for rho in w.states]
        assert np.array_equal(swapped.states, np.stack(per_symbol))

    def test_reverse(self, capsys):
        assert run(["check", "degraded", "--channel", "pinching", "--reverse"]) == 0
        out = capsys.readouterr().out
        assert "certified: false" in out
        residual = float(out.split("residual: ")[1].splitlines()[0])
        assert residual > 0.1

    @pytest.mark.parametrize("channel,fits", [("pinching-cq", 0), ("pinching", 0), ("few-symbol-doc", 1)])
    def test_reverse_fits_only_above_the_floor(self, tmp_path, capsys, monkeypatch, channel, fits):
        # the Douglas-Rachford fit runs only when the contraction floor is at most 1e-6 and the linear fit does not
        # certify: pinching-cq's and pinching's floors are 1, so neither fits; the few-symbol cq channel, stored with
        # its receivers swapped, has floor 0 and a linear fit 0.029 off, so it fits once
        calls, real = [], channels._projection_fit
        monkeypatch.setattr(channels, "_projection_fit", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        if channel == "few-symbol-doc":
            channel = tmp_path / "few.json"
            channel.write_text(json.dumps(qb.serialize_channel(few_symbol_degraded_cq().swapped())))
        assert run(["check", "degraded", "--channel", str(channel), "--reverse"]) == 0
        assert len(calls) == fits
        lines = capsys.readouterr().out.splitlines()
        if fits:
            assert float(lines[0].removeprefix("residual: ")) <= 1e-6
            assert lines[1:] == ["certified: true", "method: kraus (Douglas-Rachford)"]
        else:
            (_, _, residual, certified, method), = [v for v in DEGRADED_VERDICTS if v[:2] == (channel, True)]
            assert lines == [f"residual: {residual}", f"certified: {certified}", f"method: {method}"]


class TestOracleCommands:
    def test_grid_with_verify(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "grid", "--channel", "noiseless-bit",
                    "--t-size", "2", "--mesh", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "common_rate,personal_rate,witness_id"
        assert lines[1].endswith("or-000")
        capsys.readouterr()
        assert run(["verify", "--witness", str(out) + ".witness.json"]) == 0
        assert "mismatch" not in capsys.readouterr().out

    def test_resampled_grid_verifies(self, tmp_path, capsys):
        # a resampled point keeps the witness of the first grid point at or past its
        # target, so verify takes the stored target as a lower bound
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "grid", "--channel", "noiseless-bit", "--t-size", "2",
                    "--mesh", "10", "--r-grid", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", "--witness", str(out) + ".witness.json"]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[-1] == "verified 7 rows"
        assert not any("mismatch" in line for line in out_lines)

    @pytest.mark.parametrize("joint", [
        [[0.5, 0.25, 0.25]],
        [[0.5, 0.5], [0.0]],
        [["a", 0.5], [0.25, 0.25]],
        [0.5, 0.5],
        1.0,
        [[1.5, -0.5]],
    ], ids=["wrong-columns", "ragged", "non-numeric", "one-axis", "scalar", "negative"])
    def test_verify_rejects_malformed_joint(self, tmp_path, capsys, joint):
        bad = tmp_path / "w.json"
        point = {"witness_id": "or-000", "common_rate": 0.0, "personal_rate": 0.0, "joint": joint}
        bad.write_text(json.dumps({"format": WITNESS_FORMAT, "mode": "oracle-grid", "k": 1,
                                   "channel": qb.serialize_channel(qb.make_noiseless_bit()),
                                   "points": [point]}))
        assert run(["verify", "--witness", str(bad)]) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err

    def test_verify_rejects_scaled_joint(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "grid", "--channel", "noiseless-bit",
                    "--t-size", "2", "--mesh", "6", "--out", str(out)]) == 0
        side = tmp_path / "oracle.csv.witness.json"
        doc = json.loads(side.read_text())
        for point in doc["points"]:
            point["joint"] = (2.0 * np.asarray(point["joint"])).tolist()
        side.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--witness", str(side)]) == 2
        err = capsys.readouterr().err
        assert "ERR_VALIDATE" in err and "within 1e-9" in err

    def test_benchmark_grid_bytes(self, tmp_path):
        # the benchmark's grid config, pinned so that its CSV and sidecar bytes cannot drift silently
        out = tmp_path / "grid.csv"
        assert run(["oracle", "grid", "--channel", "pinching-cq", "--t-size", "4", "--mesh", "9",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "ccd6b9af91f626773a63749d627f1bb4e297649852c7aa7bae5156e8a3a31b47"
        assert hashlib.sha256((tmp_path / "grid.csv.witness.json").read_bytes()).hexdigest() == \
            "597bd6b43edf5ee6cac47167556901beaf5bbb81c451879f5e7f3887748b7a34"

    def test_benchmark_classical_bytes(self, tmp_path):
        # the benchmark's classical config, pinned like the grid one
        out = tmp_path / "classical.csv"
        assert run(["oracle", "classical", "--cascade", "0.1,0.2", "--mesh", "30", "--t-size", "3",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "24d65a97353c9de204511db33bad81f7194caf0b2a3070fbdd3878f2dc5d331a"
        assert hashlib.sha256((tmp_path / "classical.csv.witness.json").read_bytes()).hexdigest() == \
            "a8f2d8b23a0c9bb8a75145f92f7ebb0f569eeea1973150eb5b59b11fd529975f"

    def test_unwritable_sidecar_leaves_no_csv(self, tmp_path, capsys):
        # the sidecar is written before the CSV, so a CSV never appears without its witnesses
        out = tmp_path / "grid.csv"
        (tmp_path / "grid.csv.witness.json").mkdir()
        assert run(["oracle", "grid", "--channel", "noiseless-bit", "--t-size", "2", "--mesh", "6",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ERR_VALIDATE: out: cannot write")
        assert not out.exists()

    @pytest.mark.parametrize("blocked", ["grid.csv", "grid.csv.witness.json"], ids=["csv", "sidecar"])
    def test_unwritable_pair_leaves_no_file(self, tmp_path, capsys, blocked):
        # the CSV and its sidecar appear together or not at all, and nothing else is left behind
        (tmp_path / blocked).mkdir()
        assert run(["oracle", "grid", "--channel", "noiseless-bit", "--t-size", "2", "--mesh", "6",
                    "--out", str(tmp_path / "grid.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"ERR_VALIDATE: out: cannot write {str(tmp_path / blocked)!r}")
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    @pytest.mark.parametrize("argv", [
        ("oracle", "grid", "--channel", "noiseless-bit", "--t-size", "2", "--mesh", "6"),
        ("region", "cq", "--channel", "noiseless-bit", "--grid", "3", "--restarts", "4"),
    ], ids=["grid", "region"])
    def test_indented_sidecar_verifies_alike(self, tmp_path, capsys, argv):
        # sidecars are compact JSON; one in the older indented layout verifies with the same output
        out = tmp_path / "front.csv"
        assert run([*argv, "--out", str(out)]) == 0
        side = tmp_path / "front.csv.witness.json"
        doc = json.loads(side.read_text())
        assert side.read_text() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        capsys.readouterr()
        assert run(["verify", "--witness", str(side)]) == 0
        compact = capsys.readouterr()
        side.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert run(["verify", "--witness", str(side)]) == 0
        assert capsys.readouterr() == compact

    def test_grid_requires_cq(self, capsys):
        assert run(["oracle", "grid", "--channel", "pinching",
                    "--t-size", "2", "--mesh", "6"]) == 2
        assert "cq channel" in capsys.readouterr().err

    def test_cardinality_report(self, capsys):
        assert run(["oracle", "cardinality", "--channel", "noiseless-bit",
                    "--bound", "2", "--extra", "1", "--mesh", "8"]) == 0
        out = capsys.readouterr().out
        for field in ("bound:", "extra:", "mesh:", "improvement:",
                      "at_common:", "reach_gain:", "mesh_tolerance:"):
            assert field in out

    def test_classical_with_verify(self, tmp_path, capsys):
        # stored rates come from probability tables; verify recomputes them
        # through the matrix evaluator, so passing is a two-route agreement
        out = tmp_path / "classical.csv"
        assert run(["oracle", "classical", "--cascade", "0.1,0.2",
                    "--mesh", "6", "--out", str(out)]) == 0
        assert out.read_text().startswith("common_rate,personal_rate,witness_id\n")
        capsys.readouterr()
        assert run(["verify", "--witness", str(out) + ".witness.json"]) == 0
        assert "mismatch" not in capsys.readouterr().out

    def test_classical_flag_parsing(self, capsys):
        assert run(["oracle", "classical", "--cascade", "0.1", "--mesh", "6"]) == 2
        assert "cascade" in capsys.readouterr().err


def grid_args(out, mesh=6):
    return ["oracle", "grid", "--channel", "noiseless-bit", "--t-size", "2", "--mesh", str(mesh), "--out", str(out)]


def pair_bytes(out) -> tuple:
    return out.read_bytes(), pathlib.Path(str(out) + ".witness.json").read_bytes()


class TestOutputFiles:
    # an existing output is rewritten in place and then cut to its new length, never truncated to zero
    # first: the same bytes as a write into an empty directory, the same inode, links and modes kept
    @pytest.fixture
    def fresh(self, tmp_path):
        (tmp_path / "fresh").mkdir()
        out = tmp_path / "fresh" / "grid.csv"
        assert run(grid_args(out)) == 0
        return pair_bytes(out)

    def test_rerun_keeps_bytes_and_inode(self, tmp_path, fresh):
        out, side = tmp_path / "grid.csv", tmp_path / "grid.csv.witness.json"
        assert run(grid_args(out)) == 0
        inodes = out.stat().st_ino, side.stat().st_ino
        assert run(grid_args(out)) == 0
        assert pair_bytes(out) == fresh
        assert (out.stat().st_ino, side.stat().st_ino) == inodes

    def test_longer_junk_is_cut_to_the_new_bytes(self, tmp_path, fresh):
        out, side = tmp_path / "grid.csv", tmp_path / "grid.csv.witness.json"
        for path in (out, side):
            path.write_bytes(b"j" * 2**20)
        assert run(grid_args(out)) == 0
        assert pair_bytes(out) == fresh

    def test_symlinked_out_stays_a_link(self, tmp_path, fresh):
        target, link = tmp_path / "target.csv", tmp_path / "grid.csv"
        target.write_bytes(b"j" * 4096)
        link.symlink_to(target)
        assert run(grid_args(link)) == 0
        assert link.is_symlink() and target.read_bytes() == fresh[0]

    def test_hard_link_sees_the_new_bytes(self, tmp_path, fresh):
        out, other = tmp_path / "grid.csv", tmp_path / "other.csv"
        assert run(grid_args(out, mesh=8)) == 0
        os.link(out, other)
        assert run(grid_args(out)) == 0
        assert out.stat().st_nlink == 2 and other.read_bytes() == fresh[0]

    def test_mode_is_kept(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(grid_args(out)) == 0
        out.chmod(0o600)
        assert run(grid_args(out, mesh=8)) == 0
        assert out.stat().st_mode & 0o777 == 0o600

    def test_device_out_is_not_truncated(self, tmp_path, capsys):
        # /dev/null rejects ftruncate, so only regular files are cut to length
        state = tmp_path / "epr.json"
        state.write_text(json.dumps(_epr_doc()))
        assert run(["quantities", "--state", str(state), "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("blocked", ["grid.csv", "grid.csv.witness.json"], ids=["csv", "sidecar"])
    def test_refused_open_is_a_validation_error(self, tmp_path, capsys, monkeypatch, blocked):
        real = os.open

        def refuse(path, *args, **kwargs):
            if str(path) == str(tmp_path / blocked):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real(path, *args, **kwargs)
        monkeypatch.setattr(os, "open", refuse)
        assert run(grid_args(tmp_path / "grid.csv")) == 2
        assert capsys.readouterr().err == \
            f"ERR_VALIDATE: out: cannot write {str(tmp_path / blocked)!r} (Permission denied)\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["grid.csv", "grid.csv.witness.json"], ids=["csv", "sidecar"])
    def test_refused_open_keeps_the_old_pair(self, tmp_path, capsys, monkeypatch, blocked):
        # both files are opened before either is written, so a refused open over an existing pair leaves both
        out = tmp_path / "grid.csv"
        assert run(grid_args(out, mesh=8)) == 0
        old, real = pair_bytes(out), os.open

        def refuse(path, *args, **kwargs):
            if str(path) == str(tmp_path / blocked):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real(path, *args, **kwargs)
        monkeypatch.setattr(os, "open", refuse)
        assert run(grid_args(out)) == 2
        assert capsys.readouterr().err.startswith("ERR_VALIDATE: out: cannot write")
        assert pair_bytes(out) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "grid.csv.witness.json"]


class TestPinchingBoundaryCommand:
    def test_endpoints(self, capsys):
        assert run(["pinching-boundary", "--points", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1,0,cf-000"
        assert lines[-1] == "0,1,cf-004"

    def test_sidecar_verifies(self, tmp_path, capsys):
        out = tmp_path / "boundary.csv"
        assert run(["pinching-boundary", "--points", "9", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", "--witness", str(out) + ".witness.json"]) == 0

    def test_needs_two_points(self, capsys):
        assert run(["pinching-boundary", "--points", "1"]) == 2
        assert "ERR_VALIDATE" in capsys.readouterr().err


# (witness mode, builtin): every region mode on the first builtin it accepts, a resampled grid-oracle
# frontier and the closed-form pinching boundary
STORED_RATE_CASES = [(mode, next(name for name, make in BUILTIN_CHANNELS.items() if family.accepts(make())))
                     for mode, (family, *_) in _MODES.items()] + [("oracle-grid", "pinching-cq"),
                                                                  ("pinching-boundary", None)]


def stored_rate_points(mode, name):
    """(channel, frontier points) of a ``STORED_RATE_CASES`` entry at a tiny config."""
    ch = BUILTIN_CHANNELS[name]() if name else None
    if mode == "oracle-grid":
        return ch, grid_cq_frontier(ch, 2, 6, r_grid=5).points
    if mode == "pinching-boundary":
        return ch, [pinching_boundary(p) for p in np.linspace(0.0, 1.0, 5)]
    return ch, _sweep(build_evaluator(mode, ch, t_size=2), OptimizerConfig(restarts=2, max_iters=30, r_grid=3)).points


class TestStoredRates:
    @pytest.mark.parametrize("mode,name", STORED_RATE_CASES, ids=[mode for mode, _ in STORED_RATE_CASES])
    def test_verify_stores_by_the_rule_frontiers_store_by(self, tmp_path, capsys, mode, name):
        ch, points = stored_rate_points(mode, name)
        capped = []
        for pt in points:
            raw = evaluate_witness(mode, ch, pt.witness)
            assert _stored_rates(*raw, pt.witness.get("r_target", np.inf)) == (pt.common_rate, pt.personal_rate)
            capped.append(raw[0] > pt.common_rate)
        if mode == "oracle-grid":
            assert any(capped)  # a resampled row keeps the witness of a grid point past its target
        # verify applies the same rule, so every row re-evaluates with no tolerance at all
        out = str(tmp_path / "front.csv")
        cli._write_frontier(out, points, "pt", mode, 1, None if ch is None else qb.serialize_channel(ch), {})
        capsys.readouterr()
        assert run(["verify", "--witness", out + ".witness.json", "--tol", "0"]) == 0
        assert capsys.readouterr().out.endswith(f"verified {len(points)} rows\n")


class TestOneProcess:
    def test_parser_built_once_serves_a_sequence(self, tmp_path, capsys):
        # the benchmark drives run() many times in one process: the parser is built once, and a
        # failed parse leaves it fit for the next command, with the same bytes and exit codes
        assert _build_parser() is _build_parser()
        out, side = tmp_path / "front.csv", tmp_path / "front.csv.witness.json"
        assert run(region_args(out)) == 0
        first = out.read_bytes(), side.read_bytes()
        capsys.readouterr()
        assert run(["verify", "--witness", str(side)]) == 0
        assert capsys.readouterr().out.endswith(f"verified {len(first[0].splitlines()) - 1} rows\n")
        assert run(["region", "cq", "--channel", "noiseless-bit", "--grid", "three"]) == 2
        assert capsys.readouterr().err.startswith("ERR_VALIDATE: argument --grid: invalid int value")
        assert run(["check", "degraded", "--channel", "pinching"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["certified: true", "method: kraus (linear fit)"]
        assert run(region_args(out)) == 0
        assert (out.read_bytes(), side.read_bytes()) == first

    def test_command_is_looked_up_when_it_runs(self, tmp_path, capsys, monkeypatch):
        # the cached parser binds each _cmd_* once; a later replacement must still be the one called
        _build_parser()
        out = tmp_path / "boundary.csv"
        assert run(["pinching-boundary", "--points", "3", "--out", str(out)]) == 0
        real, calls = cli._cmd_verify, []
        monkeypatch.setattr(cli, "_cmd_verify", lambda args: calls.append(args.witness) or real(args))
        assert run(["verify", "--witness", str(out) + ".witness.json"]) == 0
        assert calls == [str(out) + ".witness.json"]
        assert capsys.readouterr().out.endswith("verified 3 rows\n")

    def test_parser_built_under_a_replaced_command_calls_the_original(self, tmp_path, capsys):
        # a parser first built while _cmd_verify is replaced, as a tracer wraps it, holds no handler:
        # once the original is back, verify reaches it
        real = cli._cmd_verify

        def wrapper(args):
            return real(args)

        cli._build_parser.cache_clear()
        cli._cmd_verify = wrapper
        try:
            cli._build_parser()
        finally:
            cli._cmd_verify = real
        out = tmp_path / "boundary.csv"
        assert run(["pinching-boundary", "--points", "3", "--out", str(out)]) == 0
        assert run(["verify", "--witness", str(out) + ".witness.json"]) == 0
        assert capsys.readouterr().out.endswith("verified 3 rows\n")
