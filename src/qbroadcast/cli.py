"""Command-line front end: each command parses its arguments, calls the library
and prints; every channel, witness and table rule lives in the library.

Frontier output is CSV with columns ``common_rate,personal_rate,witness_id``,
12 significant digits, newline endings; reruns with the same arguments are
byte-identical.  Witnesses go to a JSON sidecar next to the CSV and can be
re-checked with ``verify``.  Exit codes: 0 ok, 2 validation (stderr prefix
ERR_VALIDATE), 3 budget (stderr prefix ERR_BUDGET).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import pathlib
import sys

import numpy as np

from .bruteforce import (
    MAX_CANDIDATES,
    cardinality_probe,
    classical_degraded_region,
    grid_cq_frontier,
    mesh_tolerance,
)
from .channels import CqBroadcastChannel, _bsc_tables, degradedness_residual, make_bsc_cascade
from .errors import BudgetError, ValidationError, integer, prefixed
from .optimize import OptimizerConfig
from .quantities import (
    _entropy_of,
    coherent_information,
    conditional_entropy,
    conditional_mutual_information,
    mutual_information,
)
from .regions import (
    _stored_rates,
    cq_broadcast_frontier,
    cq_entanglement_frontier,
    dephasing_cq_frontier,
    evaluate_witness,
    pinching_boundary,
    qq_frontier,
)
from .specio import BUILTIN_CHANNELS, parse_channel_spec, parse_state_spec, serialize_channel

WITNESS_FORMAT = "qbroadcast-witness-v1"


def _fmt(x: float) -> str:
    return "%.12g" % (float(x) + 0.0)


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file named on the command line; an unreadable one is a validation error."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{what}: cannot read {path!r} ({exc.strerror or exc})")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what}: {path!r} is not UTF-8 text ({exc.reason} at byte {exc.start})")


def _write_text(path: str, text: str):
    try:
        pathlib.Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"out: cannot write {path!r} ({exc.strerror or exc})")


def _load_channel(arg: str):
    if arg in BUILTIN_CHANNELS:
        return BUILTIN_CHANNELS[arg]()
    if pathlib.Path(arg).is_file():
        return parse_channel_spec(_read_text(arg, "channel"))
    known = ", ".join(sorted(BUILTIN_CHANNELS))
    raise ValidationError(f"channel: {arg!r} is neither a builtin ({known}) nor an existing file")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def _write_frontier(out: str | None, points, prefix: str, mode: str, k: int, channel_doc, metadata: dict) -> int:
    """A frontier's CSV to ``out`` (stdout when None) and, with ``out``, its witness sidecar in compact JSON:
    both files or neither.  The sidecar is written first, and removed again when the CSV cannot be written."""
    lines, entries = ["common_rate,personal_rate,witness_id"], []
    for i, pt in enumerate(points):
        wid = f"{prefix}-{i:03d}"
        lines.append(f"{_fmt(pt.common_rate)},{_fmt(pt.personal_rate)},{wid}")
        entries.append({"witness_id": wid, "common_rate": float(pt.common_rate),
                        "personal_rate": float(pt.personal_rate), **pt.witness})
    if out is not None:
        doc = {"format": WITNESS_FORMAT, "mode": mode, "k": k, "channel": channel_doc,
               "metadata": metadata, "points": entries}
        _write_text(out + ".witness.json", json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    try:
        _emit("\n".join(lines) + "\n", out)
    except BaseException:
        if out is not None:
            with contextlib.suppress(OSError):
                pathlib.Path(out + ".witness.json").unlink()
        raise
    return 0


_REGIONS = {"cq": cq_broadcast_frontier, "cq-eg": cq_entanglement_frontier,
            "dephasing": dephasing_cq_frontier, "qq": qq_frontier}


def _cmd_region(args) -> int:
    ch = _load_channel(args.channel)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed, r_grid=args.grid)
    frontier = _REGIONS[args.mode](ch, k=args.k, cfg=cfg, t_size=args.t_size)
    return _write_frontier(args.out, frontier.points, "pt", frontier.metadata["mode"], args.k,
                           serialize_channel(ch), frontier.metadata)


def _cmd_quantities(args) -> int:
    rho = parse_state_spec(_read_text(args.state, "state"))
    labels = list(rho.layout.labels)
    subsets = [s for size in range(1, len(labels) + 1) for s in itertools.combinations(labels, size)]
    out = {
        "layout": [[label, dim] for label, dim in rho.layout.parts],
        "entropy": {",".join(s): _entropy_of(rho, set(s)) for s in subsets},
        "conditional_entropy": {},
        "mutual_information": {},
        "coherent_information": {},
        "conditional_mutual_information": {},
    }
    for a, b in itertools.permutations(labels, 2):
        out["conditional_entropy"][f"{a}|{b}"] = conditional_entropy(rho, a, b)
        out["coherent_information"][f"{a}>{b}"] = coherent_information(rho, a, b)
    for a, b in itertools.combinations(labels, 2):
        out["mutual_information"][f"{a};{b}"] = mutual_information(rho, a, b)
        for c in (c for c in labels if c not in (a, b)):
            out["conditional_mutual_information"][f"{a};{b}|{c}"] = conditional_mutual_information(rho, a, b, c)
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_check_degraded(args) -> int:
    ch = _load_channel(args.channel)
    report = degradedness_residual(ch.swapped() if args.reverse else ch)
    sys.stdout.write(f"residual: {_fmt(report.residual)}\n")
    sys.stdout.write(f"certified: {'true' if report.certified else 'false'}\n")
    sys.stdout.write(f"method: {report.method}\n")
    return 0


def _require_cq(ch, what: str) -> CqBroadcastChannel:
    if not isinstance(ch, CqBroadcastChannel):
        cq = [name for name, make in BUILTIN_CHANNELS.items() if isinstance(make(), CqBroadcastChannel)]
        raise ValidationError(f"{what} expects a cq channel (builtin {', '.join(cq)}, or a kind=cq document)")
    return ch


def _cmd_oracle_grid(args) -> int:
    ch = _require_cq(_load_channel(args.channel), "oracle grid")
    frontier = grid_cq_frontier(ch, args.t_size, args.mesh, r_grid=args.r_grid)
    return _write_frontier(args.out, frontier.points, "or", "oracle-grid", 1, serialize_channel(ch),
                           frontier.metadata)


def _cmd_oracle_cardinality(args) -> int:
    ch = _require_cq(_load_channel(args.channel), "oracle cardinality")
    report = cardinality_probe(ch, args.bound, args.extra, args.mesh)
    sys.stdout.write(f"bound: {report.bound}\n")
    sys.stdout.write(f"extra: {report.extra}\n")
    sys.stdout.write(f"mesh: {report.mesh}\n")
    sys.stdout.write(f"improvement: {_fmt(report.improvement)}\n")
    sys.stdout.write(f"at_common: {_fmt(report.at_common)}\n")
    sys.stdout.write(f"reach_gain: {_fmt(report.reach_gain)}\n")
    sys.stdout.write(f"mesh_tolerance: {_fmt(mesh_tolerance(report.mesh))}\n")
    return 0


def _cmd_oracle_classical(args) -> int:
    try:
        f1, f2 = (float(part) for part in args.cascade.split(","))
    except ValueError:
        raise ValidationError(f"cascade: expected two comma-separated flip probabilities, got {args.cascade!r}")
    if not (0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0):  # nan fails both comparisons
        raise ValidationError(f"cascade: flip probabilities must lie in [0, 1], got {args.cascade!r}")
    frontier = classical_degraded_region(*_bsc_tables(f1, f2), args.mesh, t_size=args.t_size)
    return _write_frontier(args.out, frontier.points, "cl", "oracle-classical", 1,
                           serialize_channel(make_bsc_cascade(f1, f2)), frontier.metadata)


def _cmd_pinching_boundary(args) -> int:
    points = integer(args.points, "points", 2)
    if points > MAX_CANDIDATES:
        raise BudgetError(f"points: {points} boundary samples exceed the limit {MAX_CANDIDATES}")
    pts = [pinching_boundary(p) for p in np.linspace(0.0, 1.0, points)]
    return _write_frontier(args.out, pts, "cf", "pinching-boundary", 1, None, {"points": points})


def _cmd_verify(args) -> int:
    if not 0.0 <= args.tol < np.inf:
        raise ValidationError(f"tol: must be a finite number >= 0, got {args.tol}")
    try:
        doc = json.loads(_read_text(args.witness, "witness"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"witness: invalid JSON ({exc.msg} at line {exc.lineno})")
    if not isinstance(doc, dict) or doc.get("format") != WITNESS_FORMAT:
        raise ValidationError(f"witness: expected a {WITNESS_FORMAT} document")
    mode = doc.get("mode", "")
    if not isinstance(mode, str):
        raise ValidationError(f"witness: mode must be a string, got {mode!r}")
    k = integer(doc.get("k", 1), "witness: k", 1)
    channel = doc.get("channel")
    if not isinstance(channel, (dict, type(None))):
        raise ValidationError(f"witness: channel: expected a channel document object, got {type(channel).__name__}")
    channel = None if channel is None else prefixed("witness: channel", parse_channel_spec, channel)
    points = doc.get("points", [])
    if not isinstance(points, list) or not all(isinstance(entry, dict) for entry in points):
        raise ValidationError("witness: points must be a list of objects")
    failures = 0
    for entry in points:
        wid = entry.get("witness_id", "?")
        try:
            stored_c, stored_p = float(entry["common_rate"]), float(entry["personal_rate"])
            r_target = float(entry.get("r_target", np.inf))
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"{wid}: stored common_rate, personal_rate and r_target must be numbers")
        common, personal = _stored_rates(*prefixed(wid, evaluate_witness, mode, channel, entry, k), r_target)
        dc = abs(common - stored_c)
        dp = abs(personal - stored_p)
        if max(dc, dp) <= args.tol:
            sys.stdout.write(f"{wid} ok common={_fmt(common)} personal={_fmt(personal)}\n")
        else:
            failures += 1
            sys.stdout.write(
                f"{wid} mismatch stored=({_fmt(stored_c)},{_fmt(stored_p)}) "
                f"recomputed=({_fmt(common)},{_fmt(personal)})\n"
            )
    if failures:
        raise ValidationError(f"{failures} witness rows failed re-evaluation beyond {args.tol}")
    sys.stdout.write(f"verified {len(points)} rows\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


@functools.cache  # built once per process: argparse parsers can parse any number of argument lists
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbroadcast", description="Capacity-region frontiers for broadcast channels")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    region = sub.add_parser("region", help="optimize a rate-region frontier")
    region.add_argument("mode", choices=list(_REGIONS))
    region.add_argument("--channel", required=True, help="builtin name or spec file")
    region.add_argument("--k", type=int, default=1, help="parallel channel uses")
    region.add_argument("--grid", type=int, default=33, help="common-rate grid points")
    region.add_argument("--restarts", type=int, default=16)
    region.add_argument("--seed", type=int, default=7)
    region.add_argument("--t-size", type=int, default=None, dest="t_size")
    region.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    region.set_defaults(func=_cmd_region)

    quantities = sub.add_parser("quantities", help="entropic functionals of a state document")
    quantities.add_argument("--state", required=True)
    quantities.add_argument("--out", default=None)
    quantities.set_defaults(func=_cmd_quantities)

    check = sub.add_parser("check", help="structural checks")
    check_sub = check.add_subparsers(dest="check_command", required=True, parser_class=_Parser)
    degraded = check_sub.add_parser("degraded", help="search for a degrading map between receivers")
    degraded.add_argument("--channel", required=True)
    degraded.add_argument("--reverse", action="store_true", help="check the C-to-B direction")
    degraded.set_defaults(func=_cmd_check_degraded)

    oracle = sub.add_parser("oracle", help="exhaustive grid references")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True, parser_class=_Parser)

    grid = oracle_sub.add_parser("grid", help="grid frontier for a cq channel")
    grid.add_argument("--channel", required=True)
    grid.add_argument("--t-size", type=int, required=True, dest="t_size")
    grid.add_argument("--mesh", type=int, required=True)
    grid.add_argument("--r-grid", type=int, default=None, dest="r_grid")
    grid.add_argument("--out", default=None)
    grid.set_defaults(func=_cmd_oracle_grid)

    card = oracle_sub.add_parser("cardinality", help="label-alphabet saturation probe")
    card.add_argument("--channel", required=True)
    card.add_argument("--bound", type=int, required=True)
    card.add_argument("--extra", type=int, required=True)
    card.add_argument("--mesh", type=int, required=True)
    card.set_defaults(func=_cmd_oracle_cardinality)

    classical = oracle_sub.add_parser("classical", help="Shannon frontier for a symmetric cascade")
    classical.add_argument("--cascade", required=True, metavar="FLIP1,FLIP2")
    classical.add_argument("--mesh", type=int, required=True)
    classical.add_argument("--t-size", type=int, default=None, dest="t_size")
    classical.add_argument("--out", default=None)
    classical.set_defaults(func=_cmd_oracle_classical)

    boundary = sub.add_parser("pinching-boundary", help="closed-form pinching boundary samples")
    boundary.add_argument("--points", type=int, default=33)
    boundary.add_argument("--out", default=None)
    boundary.set_defaults(func=_cmd_pinching_boundary)

    verify = sub.add_parser("verify", help="re-evaluate a witness sidecar")
    verify.add_argument("--witness", required=True)
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()[args.func.__name__](args)  # looked up per run, so a replaced _cmd_* is the one called
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"ERR_VALIDATE: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"ERR_BUDGET: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
