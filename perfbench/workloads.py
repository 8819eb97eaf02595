"""The benchmark's workloads: the CLI commands each one sends, and how each is checked.

Sizes are chosen so one pass over a workload's commands takes a few seconds
on a 2-core box; a run repeats the pass for its measured seconds and reports
medians.  ``dephasing``, ``qq`` and ``cq-certified`` are left out: they run
the same evaluator shape on diagonal stacks as ``sweep-cq``, so they would add
run time without a new layer behaviour.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Callable

from reference import composition_count

BUILTINS = ("pinching", "pinching-cq", "noiseless-bit", "constant", "ghz-copy")

# Sweep sizes.  The restart count barely moves the time (restarts are batched);
# the grid sets the number of targets, each costing three penalty stages.
CQ_GRID, CQ_RESTARTS = 2, 4
EG_GRID, EG_RESTARTS, EG_T_SIZE = 2, 2, 2
# Oracle sizes: pinching-cq has 3 symbols, the binary cascade 2.
GRID_T_SIZE, GRID_MESH = 4, 9
CLASSICAL_T_SIZE, CLASSICAL_MESH = 3, 30
# The generated dephasing document: a seeded perturbation of a fixed channel,
# so every seed reaches the same degradedness strategies at a similar cost.
DOC_INPUTS, DOC_C_DIM, DOC_NOISE, DOC_BASE_SEED = 3, 2, 0.05, 12345


@dataclass(frozen=True)
class Op:
    """One CLI command and what its output must satisfy."""

    argv: tuple
    truth: str | None = None  # closed form (reference.TRUTHS) for the CSV at ``out``
    out: str | None = None
    candidates: int | None = None  # stars-and-bars count the oracle sidecar must report
    verifies: str | None = None  # CSV whose sidecar this ``verify`` re-checks
    channel: str | None = None  # channel name for ``check degraded``
    reverse: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    builtins: tuple  # builtin channels the commands load
    ops: Callable  # (seed, workdir, documents) -> list[Op]
    seeded_document: bool = False

    def documents(self, seed: int, workdir: pathlib.Path) -> dict:
        """Write the workload's seeded channel documents; returns name -> path."""
        if not self.seeded_document:
            return {}
        path = workdir / f"dephasing-{seed}.json"
        path.write_text(json.dumps(dephasing_document(seed)), encoding="utf-8")
        return {"dephasing-doc": str(path)}


def dephasing_document(seed: int) -> dict:
    """Generalized-dephasing channel document: unit C vectors, one per input,
    drawn around a fixed base so the program only ever sees generated input."""
    import numpy as np

    base = np.random.default_rng(DOC_BASE_SEED)
    shape = (DOC_INPUTS, DOC_C_DIM)
    vecs = base.standard_normal(shape) + 1j * base.standard_normal(shape)
    rng = np.random.default_rng(seed)
    vecs = vecs + DOC_NOISE * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return {"kind": "dephasing", "c_dim": DOC_C_DIM, "e_dim": 1,
            "images": np.stack([vecs.real, vecs.imag], axis=-1).tolist()}


def _sweep_cq(seed, workdir, docs):
    out = str(workdir / "cq.csv")
    return [
        Op(("region", "cq", "--channel", "pinching-cq", "--grid", str(CQ_GRID),
            "--restarts", str(CQ_RESTARTS), "--seed", str(seed), "--out", out),
           truth="pinching-cq", out=out),
        Op(("verify", "--witness", out + ".witness.json"), verifies=out),
    ]


def _sweep_eg(seed, workdir, docs):
    out = str(workdir / "eg.csv")
    return [
        Op(("region", "cq-eg", "--channel", "pinching", "--t-size", str(EG_T_SIZE),
            "--grid", str(EG_GRID), "--restarts", str(EG_RESTARTS), "--seed", str(seed),
            "--out", out),
           truth="pinching", out=out),
        Op(("verify", "--witness", out + ".witness.json"), verifies=out),
    ]


def _oracle(seed, workdir, docs):
    grid = str(workdir / "grid.csv")
    classical = str(workdir / "classical.csv")
    return [
        Op(("oracle", "grid", "--channel", "pinching-cq", "--t-size", str(GRID_T_SIZE),
            "--mesh", str(GRID_MESH), "--out", grid),
           truth="pinching-cq", out=grid,
           candidates=composition_count(GRID_MESH, GRID_T_SIZE * 3)),
        Op(("verify", "--witness", grid + ".witness.json"), verifies=grid),
        Op(("oracle", "classical", "--cascade", "0.1,0.2", "--mesh", str(CLASSICAL_MESH),
            "--t-size", str(CLASSICAL_T_SIZE), "--out", classical),
           truth="cascade-0.1-0.2", out=classical,
           candidates=composition_count(CLASSICAL_MESH, CLASSICAL_T_SIZE * 2)),
    ]


def _degraded(seed, workdir, docs):
    ops = []
    targets = [(name, name) for name in BUILTINS] + [("dephasing-doc", docs["dephasing-doc"])]
    for name, arg in targets:
        for reverse in (False, True):
            argv = ("check", "degraded", "--channel", arg) + (("--reverse",) if reverse else ())
            ops.append(Op(argv, channel=name, reverse=reverse))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("sweep-cq",
             "cq frontier on pinching-cq: 12 parameters, commuting 3x3/2x2 stacks; time goes to "
             "numpy per-call overhead (einsum planning, eigvalsh on tiny stacks)",
             ("pinching-cq",), _sweep_cq),
    Workload("sweep-eg",
             "cq-eg frontier on pinching: 38 parameters, non-commuting 9x9 entropies; "
             "finite-difference rows dominate and the diagonal fast path is bypassed",
             ("pinching",), _sweep_eg),
    Workload("oracle",
             "grid and classical oracles: composition enumeration, spectra and Pareto pass; "
             "never enters the optimizer or the evaluators",
             ("pinching-cq",), _oracle),
    Workload("degraded",
             "check degraded both ways on the builtins and a seeded dephasing document: "
             "every degrading-map strategy, maximize_batch on non-entropy objectives",
             BUILTINS, _degraded, seeded_document=True),
)}
