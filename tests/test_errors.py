import argparse
import json

import numpy as np
import pytest

import qbroadcast as qb
from qbroadcast import cli
from qbroadcast.bruteforce import (
    _composition_table,
    cardinality_probe,
    classical_degraded_region,
    grid_cq_frontier,
    mesh_tolerance,
)
from qbroadcast.channels import DephasingSpec, _bsc_tables, _kron_power
from qbroadcast.errors import integer
from qbroadcast.optimize import OptimizerConfig
from qbroadcast.regions import build_evaluator
from qbroadcast.specio import complex_to_json, parse_channel_spec, parse_state_spec


BIT = qb.make_noiseless_bit()


def _cq_doc(**dims):
    return {"kind": "cq", "symbols": [], "conditionals": [], "b_dim": 2, "c_dim": 2, **dims}


def _dephasing_doc(**dims):
    return {"kind": "dephasing", "images": complex_to_json(np.eye(2)), "c_dim": 2, "e_dim": 1, **dims}


def _state_doc(dim):
    return {"kind": "density", "layout": [["A", dim]], "matrix": complex_to_json(np.eye(2) / 2)}


def _verify(k, tmp_path):
    path = tmp_path / "side.json"
    path.write_text(json.dumps({"format": cli.WITNESS_FORMAT, "mode": "pinching-boundary", "k": k, "points": []}))
    return cli._cmd_verify(argparse.Namespace(witness=str(path), tol=1e-6))


# (id, call with the count, the field its error names, the smallest count allowed or None)
COUNT_ENTRY_POINTS = [
    ("layout-dim", lambda v, _: qb.layout(("A", v)), "subsystem 'A' dimension", 1),
    ("dephasing-c-dim", lambda v, _: DephasingSpec(v, 1, np.eye(2)), "c_dim", 1),
    ("dephasing-e-dim", lambda v, _: DephasingSpec(2, v, np.eye(2)), "e_dim", 1),
    ("config-restarts", lambda v, _: OptimizerConfig(restarts=v), "restarts", 1),
    ("config-max-iters", lambda v, _: OptimizerConfig(max_iters=v), "max_iters", 1),
    ("config-r-grid", lambda v, _: OptimizerConfig(r_grid=v), "r_grid", 1),
    ("config-seed", lambda v, _: OptimizerConfig(seed=v), "seed", None),
    ("evaluator-k", lambda v, _: build_evaluator("cq", BIT, k=v), "k", 1),
    ("evaluator-t-size", lambda v, _: build_evaluator("cq", BIT, t_size=v), "t_size", 1),
    ("kron-power-k", lambda v, _: _kron_power(np.eye(2)[None], v), "k", 1),
    ("compositions-total", lambda v, _: _composition_table(v, 2), "total", 0),
    ("compositions-parts", lambda v, _: _composition_table(3, v), "parts", 1),
    ("grid-t-size", lambda v, _: grid_cq_frontier(BIT, v, 3), "t_size", 1),
    ("grid-mesh", lambda v, _: grid_cq_frontier(BIT, 2, v), "mesh", 1),
    ("grid-r-grid", lambda v, _: grid_cq_frontier(BIT, 2, 3, r_grid=v), "r_grid", 1),
    ("classical-mesh", lambda v, _: classical_degraded_region(*_bsc_tables(0.1, 0.2), v), "mesh", 1),
    ("classical-t-size", lambda v, _: classical_degraded_region(*_bsc_tables(0.1, 0.2), 3, t_size=v), "t_size", 1),
    ("cardinality-bound", lambda v, _: cardinality_probe(BIT, v, 1, 3), "bound", 1),
    ("cardinality-extra", lambda v, _: cardinality_probe(BIT, 1, v, 3), "extra", 1),
    ("cardinality-mesh", lambda v, _: cardinality_probe(BIT, 1, 1, v), "mesh", 1),
    ("mesh-tolerance", lambda v, _: mesh_tolerance(v), "mesh", 1),
    ("doc-b-dim", lambda v, _: parse_channel_spec(_cq_doc(b_dim=v)), "b_dim", 1),
    ("doc-c-dim", lambda v, _: parse_channel_spec(_cq_doc(c_dim=v)), "c_dim", 1),
    ("doc-dephasing-c-dim", lambda v, _: parse_channel_spec(_dephasing_doc(c_dim=v)), "c_dim", 1),
    ("doc-dephasing-e-dim", lambda v, _: parse_channel_spec(_dephasing_doc(e_dim=v)), "e_dim", 1),
    ("doc-layout-dim", lambda v, _: parse_state_spec(_state_doc(v)), "layout[0] dim", 1),
    ("verify-k", _verify, "witness: k", 1),
    ("pinching-boundary-points", lambda v, _: cli._cmd_pinching_boundary(argparse.Namespace(points=v, out=None)),
     "points", 2),
]


def _bad_counts():
    """(call, field, value) for each entry point and each count it must refuse."""
    for name, call, field, minimum in COUNT_ENTRY_POINTS:
        below = [] if minimum is None else [("below-minimum", minimum - 1)]
        for kind, value in [("float", 2.5), ("bool", True), ("nan", float("nan")), ("str", "3"), *below]:
            yield pytest.param(call, field, value, id=f"{name}-{kind}")


class TestIntegerRule:
    def test_returns_a_python_int(self):
        for value in (3, np.int64(3), np.uint8(3)):
            out = integer(value, "n", 1)
            assert out == 3 and type(out) is int
        assert integer(-5, "seed") == -5

    @pytest.mark.parametrize("call,field,value", _bad_counts())
    def test_every_count_entry_point_rejects(self, tmp_path, call, field, value):
        # a float, bool, NaN or string count used to be truncated, stored as given or fail deep inside a run
        with pytest.raises(qb.ValidationError) as exc:
            call(value, tmp_path)
        assert str(exc.value).startswith(f"{field}: must be an integer")


# (id, CLI arguments, the field its error names)
CLI_COUNT_ERRORS = [
    ("region-grid", ["region", "cq", "--channel", "noiseless-bit", "--grid", "0"], "r_grid"),
    ("region-restarts", ["region", "cq", "--channel", "noiseless-bit", "--restarts", "0"], "restarts"),
    ("region-k", ["region", "cq", "--channel", "noiseless-bit", "--k", "0"], "k"),
    ("region-t-size", ["region", "cq", "--channel", "noiseless-bit", "--t-size", "0"], "t_size"),
    ("grid-t-size", ["oracle", "grid", "--channel", "noiseless-bit", "--t-size", "0", "--mesh", "3"], "t_size"),
    ("grid-mesh", ["oracle", "grid", "--channel", "noiseless-bit", "--t-size", "2", "--mesh", "0"], "mesh"),
    ("grid-r-grid", ["oracle", "grid", "--channel", "noiseless-bit", "--t-size", "2", "--mesh", "3",
                     "--r-grid", "0"], "r_grid"),
    ("classical-mesh", ["oracle", "classical", "--cascade", "0.1,0.2", "--mesh", "0"], "mesh"),
    ("cardinality-bound", ["oracle", "cardinality", "--channel", "noiseless-bit", "--bound", "0", "--extra", "1",
                           "--mesh", "3"], "bound"),
    ("cardinality-extra", ["oracle", "cardinality", "--channel", "noiseless-bit", "--bound", "1", "--extra", "0",
                           "--mesh", "3"], "extra"),
    ("boundary-points", ["pinching-boundary", "--points", "1"], "points"),
]


class TestCliCountErrors:
    @pytest.mark.parametrize("argv,field", [e[1:] for e in CLI_COUNT_ERRORS], ids=[e[0] for e in CLI_COUNT_ERRORS])
    def test_names_its_own_field(self, capsys, argv, field):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ERR_VALIDATE: {field}: must be an integer >= ")
