"""JSON documents for channels and states (the CLI writes and reads witness sidecars).

Complex entries are stored as two-element [re, im] arrays by ``complex_to_json``
and read back by ``complex_from_json``; the pure-state witnesses of a frontier
sidecar use the same rule.  Channel kinds:

- ``{"kind": "builtin", "name": "pinching"}``
- ``{"kind": "cq", "b_dim": .., "c_dim": .., "symbols": [..], "conditionals": [..]}``
- ``{"kind": "kraus", "b_dim": .., "c_dim": .., "ops": [..]}``
- ``{"kind": "isometry", "b_dim": .., "c_dim": .., "matrix": ..}``
- ``{"kind": "dephasing", "c_dim": .., "e_dim": .., "images": [..]}``

Each field is read once.  Shapes are checked here and every count (``b_dim``,
``c_dim``, ``e_dim``, a layout dim) by ``errors.integer``; the library
constructors check everything else, and ``errors.prefixed`` names the field in
their errors.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import (
    BroadcastChannel,
    CqBroadcastChannel,
    DephasingSpec,
    make_constant_cq,
    make_generalized_dephasing,
    make_ghz_copy,
    make_noiseless_bit,
    make_pinching,
    make_pinching_cq,
)
from .errors import ValidationError, integer, prefixed
from .states import DensityMatrix, PureState, SystemLayout, layout

BUILTIN_CHANNELS = {
    "pinching": make_pinching,
    "ghz-copy": make_ghz_copy,
    "pinching-cq": make_pinching_cq,
    "noiseless-bit": make_noiseless_bit,
    "constant": make_constant_cq,
}


def complex_to_json(arr: np.ndarray) -> list:
    """Nested lists with trailing axis [re, im]."""
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def complex_from_json(data, field: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{field}: not a numeric array ({exc})") from None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValidationError(f"{field}: complex entries must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{field}: entries must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def _as_doc(source) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"document: invalid JSON ({exc.msg} at line {exc.lineno})") from None
        if not isinstance(doc, dict):
            raise ValidationError("document: top level must be an object")
        return doc
    raise ValidationError("document: expected JSON text or a dict")


def _require(doc: dict, field: str, kinds=None):
    if field not in doc:
        raise ValidationError(f"{field}: missing required field")
    value = doc[field]
    if kinds is not None and not isinstance(value, kinds):
        raise ValidationError(f"{field}: unexpected type {type(value).__name__}")
    return value


def parse_channel_spec(source) -> CqBroadcastChannel | BroadcastChannel:
    """Build a channel from a JSON document (text or already-parsed dict)."""
    doc = _as_doc(source)
    kind = _require(doc, "kind", str)
    if kind == "builtin":
        name = _require(doc, "name", str)
        if name not in BUILTIN_CHANNELS:
            known = ", ".join(sorted(BUILTIN_CHANNELS))
            raise ValidationError(f"name: unknown builtin {name!r} (known: {known})")
        return BUILTIN_CHANNELS[name]()
    if kind == "dephasing":
        c_dim, e_dim = (integer(_require(doc, field), field, 1) for field in ("c_dim", "e_dim"))
        images = complex_from_json(_require(doc, "images", list), "images")
        if images.ndim != 2 or images.shape[1] != c_dim * e_dim:
            raise ValidationError(f"images: expected rows of length {c_dim * e_dim}, got shape {images.shape}")
        return make_generalized_dephasing(prefixed("images", DephasingSpec, c_dim, e_dim, images))
    if kind not in ("cq", "kraus", "isometry"):
        raise ValidationError(f"kind: unknown channel kind {kind!r}")
    b_dim, c_dim = (integer(_require(doc, field), field, 1) for field in ("b_dim", "c_dim"))
    system = layout(("B", b_dim), ("C", c_dim))
    if kind == "cq":
        symbols = _require(doc, "symbols", list)
        mats = _require(doc, "conditionals", list)
        if len(symbols) != len(mats):
            raise ValidationError("conditionals: length must match symbols")
        keys, states = [], np.empty((len(mats), system.dim, system.dim), dtype=complex)
        for i, (sym, data) in enumerate(zip(symbols, mats)):
            key = sym if isinstance(sym, (int, str)) else str(sym)
            field = f"conditionals[{key}]"
            if key in keys:
                raise ValidationError(f"symbols: duplicate symbol {key!r}")
            mat = complex_from_json(data, field)
            if mat.shape != (system.dim, system.dim):
                raise ValidationError(f"{field}: expected shape {(system.dim,) * 2}, got {mat.shape}")
            states[i] = prefixed(field, DensityMatrix, mat, system).matrix
            keys.append(key)
        return CqBroadcastChannel(keys, states, system, validate=False)
    if kind == "kraus":
        ops_data = _require(doc, "ops", list)
        if not ops_data:
            raise ValidationError("ops: must not be empty")
        ops = [complex_from_json(op, f"ops[{i}]") for i, op in enumerate(ops_data)]
        for i, op in enumerate(ops):
            if op.ndim != 2 or op.shape[0] != system.dim:
                raise ValidationError(f"ops[{i}]: expected {system.dim} rows, got shape {op.shape}")
        return prefixed("ops", BroadcastChannel, ops, system)
    mat = complex_from_json(_require(doc, "matrix"), "matrix")
    if mat.ndim != 2 or mat.shape[0] != system.dim:
        raise ValidationError(f"matrix: expected {system.dim} rows, got shape {mat.shape}")
    return prefixed("matrix", BroadcastChannel, [mat], system)


def serialize_channel(ch) -> dict:
    """Inverse of parse_channel_spec up to channel action."""
    if isinstance(ch, CqBroadcastChannel):
        dims = ch.out_layout.dims
        return {
            "kind": "cq",
            "b_dim": dims[0],
            "c_dim": dims[1],
            "symbols": list(ch.symbols),
            "conditionals": complex_to_json(ch.states),
        }
    if isinstance(ch, BroadcastChannel):
        dims = ch.out_layout.dims
        if ch.dephasing is not None:
            spec = ch.dephasing
            return {
                "kind": "dephasing",
                "c_dim": spec.c_dim,
                "e_dim": spec.e_dim,
                "images": complex_to_json(spec.images),
            }
        if len(ch.ops) == 1:
            return {"kind": "isometry", "b_dim": dims[0], "c_dim": dims[1],
                    "matrix": complex_to_json(ch.ops[0])}
        return {"kind": "kraus", "b_dim": dims[0], "c_dim": dims[1],
                "ops": complex_to_json(ch.ops)}
    raise ValidationError(f"channel: cannot serialize {type(ch).__name__}")


def _layout_from_doc(data, field: str) -> SystemLayout:
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{field}: expected a nonempty list of [label, dim] pairs")
    parts = []
    for i, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ValidationError(f"{field}[{i}]: expected [label, dim]")
        label, dim = entry
        parts.append((label, integer(dim, f"{field}[{i}] dim", 1)))
    return layout(*parts)


def parse_state_spec(source) -> DensityMatrix:
    """Build a density matrix from a JSON state document.

    Kinds: ``density`` (matrix), ``pure`` (vector).  Both carry
    ``layout: [["A", 2], ...]``.
    """
    doc = _as_doc(source)
    kind = _require(doc, "kind", str)
    system = _layout_from_doc(_require(doc, "layout", list), "layout")
    if kind == "density":
        mat = complex_from_json(_require(doc, "matrix"), "matrix")
        if mat.shape != (system.dim, system.dim):
            raise ValidationError(f"matrix: expected shape {(system.dim, system.dim)}, got {mat.shape}")
        return prefixed("matrix", DensityMatrix, mat, system)
    if kind == "pure":
        vec = complex_from_json(_require(doc, "vector"), "vector")
        if vec.shape != (system.dim,):
            raise ValidationError(f"vector: expected length {system.dim}, got shape {vec.shape}")
        return prefixed("vector", PureState, vec, system).to_density()
    raise ValidationError(f"kind: unknown state kind {kind!r}")


def serialize_state(rho: DensityMatrix) -> dict:
    return {
        "kind": "density",
        "layout": [[label, dim] for label, dim in rho.layout.parts],
        "matrix": complex_to_json(rho.matrix),
    }
