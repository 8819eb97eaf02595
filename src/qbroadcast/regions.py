"""Achievable-rate-region frontiers for broadcast channels.

Every frontier mode optimizes the same object: a label distribution p(t) plus
one payload per label.  A single evaluator, ``_LabelEnsembleEvaluator``, owns
that shape: the tensor power, the label count and matrix budget, the softmax
decode of p(t), the restart inits, the Holevo term that binds the common rate
and witness (de)serialization.  The mode table ``_MODES`` is plain data: each
mode names a channel family (receiver stacks and personal-rate term, payload
kind and the payload-to-receiver-states map), the receivers that bind the
common rate, and its rate labels.  A penalty sweep over a grid of common-rate
targets traces the upper boundary and stores the achieving parameters as a
re-evaluatable witness; its rows, like the exhaustive oracles' candidates, become
a frontier through the one ``pareto_staircase``.  The sweep stacks every target's
restarts into one batch, each row carrying its target in a last parameter column
that no step moves: one call finds r_max, then one call per penalty rung serves
every target.  Each optimizer stage is one function: a ``rates_grad`` pass scores
a batch, and only the rows the optimizer accepts are pulled back to the exact
gradient, by one backward pass weighted (1, 0) on (common, personal) for r_max and
(2 mu gap, 1) in a penalty rung; a term whose weight is 0 at every asked row is
not pulled back.  The
conditional kind (cq and dephasing families) declares ``dense`` BFGS steps: its
logit curvature scales with p_i, so at the simplex boundary where its optima sit
it spans orders of magnitude that a few L-BFGS pairs forget; ``_sweep`` chunks the
targets so that a call's (n, n) inverse Hessians fit ``HESSIAN_BUDGET``.  The
pure-state kind takes L-BFGS steps, on which the dense rule made more passes.
Witness re-evaluation lives at the bottom:
``evaluate_witness`` reads every witness kind a frontier stores, and
``_stored_rates`` turns raw rates into the rates a frontier row stores.

The personal rate is data: each family's setup declares signed receiver
entropies plus an optional per-symbol offset linear in the payload, and the
evaluator computes that term and its gradient once for every mode.  I(X; B | T)
is {B: +1} less p(x|t) H(B | X = x); the dephasing quantum rate is {B: +1,
CE: -1}, B the basis |x><x| the isometry writes.  I(R > B) of a pure input is
{B: +1, RB: -1}; its output on R B C E is pure, so S(RB) = S(CE), and with one
Kraus operator CE is the common rate's own C: the term is then {B: +1, C: -1}.

The cq and dephasing families mix fixed per-symbol stacks; each stack that is
exactly diagonal (every builtin cq and dephasing stack, at any k, and the
dephasing B stack always) is kept as real (x, d) diagonals, and its label states
stay diagonal.  A forward pass builds every per-label state and binding label
mixture first and takes all the diagonal ones through one ``states.entropy_and_slope``
call.  Any other stack, and every ensemble receiver, takes the dense kernel
``batched_entropy``: the same rule applied to the spectrum from ``eigh``, which
also gives dS/drho.  One forward pass serves optimizer ladders, witness rows and
witness checks alike.  Every per-call contraction is a reshaped matmul.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channels import BroadcastChannel, CqBroadcastChannel, degradedness_residual
from .errors import BudgetError, ValidationError, integer
from .optimize import OptimizerConfig, maximize_batch, seeded_rng, softmax, softmax_grad
from .quantities import coherent_information
from .specio import complex_from_json, complex_to_json
from .states import PureState, binary_entropy, entropy_and_slope, entropy_of_spectrum, matrix_entropy


@dataclass
class RatePoint:
    """One achievable frontier point with its certifying parameters."""

    common_rate: float
    personal_rate: float
    witness: dict = field(default_factory=dict)


@dataclass
class Frontier:
    """Pareto-ordered rate points: common strictly increasing, personal strictly falling."""

    points: list
    metadata: dict = field(default_factory=dict)

    def point_at(self, common: float, slack: float = 1e-9) -> RatePoint | None:
        """First point at or beyond the given common rate, the best personal rate there."""
        return next((pt for pt in self.points if pt.common_rate >= common - slack), None)

    def value_at(self, common: float, slack: float = 1e-9) -> float:
        """Largest personal rate the frontier certifies at the given common rate."""
        pt = self.point_at(common, slack)
        return 0.0 if pt is None else pt.personal_rate

    def max_common(self) -> float:
        return max((pt.common_rate for pt in self.points), default=0.0)

    def as_array(self) -> np.ndarray:
        return np.array([[pt.common_rate, pt.personal_rate] for pt in self.points], dtype=float)

    def __len__(self):
        return len(self.points)


@dataclass
class MergingRates:
    """Quantum-cost bound and receiver-pair distillation rate for state merging."""

    q_c_bound: float
    bc_distill: float
    feasible: bool

    def __iter__(self):
        yield self.q_c_bound
        yield self.bc_distill


@dataclass
class IndependentRates:
    """Per-receiver entanglement-generation rates from a shared input state."""

    rate_b: float
    rate_c: float
    feasible_b: bool
    feasible_c: bool


def batched_entropy(mats: np.ndarray):
    """Base-2 entropy over the last two axes of a stack of Hermitian matrices and its gradient
    dS/drho = -(log2 rho + I/ln 2), from one ``eigh``: the dense receivers' kernel."""
    evals, vecs = np.linalg.eigh(mats)
    (h, slope), = entropy_and_slope(np.clip(evals, 0.0, None))
    return h, (vecs * slope[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _label_mix(p_t: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_t p_t rho_t for per-label states of shape (m, t, ...)."""
    m, t = p_t.shape
    return (p_t[:, None] @ states.reshape(m, t, -1)).reshape(m, *states.shape[2:])


def _per_row(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``v`` with trailing unit axes so it broadcasts over the state axes of ``like``."""
    return v.reshape(v.shape + (1,) * (like.ndim - v.ndim))


def pareto_staircase(commons: np.ndarray, personals: np.ndarray, witness: Callable) -> list:
    """The Pareto staircase of (common, personal) rows as ``RatePoint``s, commons ascending.

    Rows are scanned from the highest common down, best personal first; a row is kept
    only when its personal rate beats the last kept one by more than 1e-12, and it
    replaces that one when their commons agree to 12 decimals; among exact duplicates the
    lowest row wins.  ``witness(i)`` is the witness of row ``i``.  Sweeps and the exhaustive
    oracles both end here.  Only a row whose personal reaches that of every row with a higher
    common can be kept: one argsort of the commons finds those, and only they are lexsorted.  First a row goes
    when a higher one of 1024 even buckets of the finite commons (a NaN common in the lowest) holds a larger
    personal: it would fail that test and never holds the best personal above a row; a NaN personal goes too.
    """
    finite = np.isfinite(commons)
    lo, hi = commons.min(where=finite, initial=np.inf) / 2, commons.max(where=finite, initial=-np.inf) / 2
    with np.errstate(all="ignore"):  # commons halved, so no span overflows; a NaN scale puts a row in bucket 0
        scaled = (commons / 2 - lo) * (1023 / (hi - lo))
    bucket = np.where(scaled >= 0, np.minimum(scaled, 1023), -1).astype(np.intp) + 1
    best = np.full(1026, -np.inf)  # bucket 0 (NaN commons), the 1024 even ones, and an empty one above
    np.fmax.at(best, bucket, personals)
    unbeaten = np.flatnonzero(personals >= np.fmax.accumulate(best[::-1])[::-1][bucket + 1])
    # >= keeps every row of a tie, and a stable sort keeps tied rows in row order, so the lexsort breaks
    # ties by row index as on every row (it is also the sort lexsort runs, so it maps no new code pages)
    by_common = unbeaten[np.argsort(-commons[unbeaten], kind="stable")]
    vals = personals[by_common]
    rows = by_common[vals >= np.maximum.accumulate(vals)]
    order = rows[np.lexsort((-personals[rows], -commons[rows]))]
    # only a strict running-maximum record can pass the loop's test, so drop the rest first
    vals = personals[order]
    records = order[vals > np.maximum.accumulate(np.concatenate(([-np.inf], vals)))[:-1]]
    ties = np.round(commons, 12)
    kept = []
    run = -np.inf
    for i in records:
        if personals[i] > run + 1e-12:
            if kept and ties[kept[-1]] == ties[i]:
                kept.pop()
            kept.append(i)
            run = personals[i]
    return [RatePoint(float(commons[i]), float(personals[i]), witness(i)) for i in reversed(kept)]


PENALTY_SCALES = (1e2, 1e4, 1e6)  # increasing penalty schedule that enforces the common-rate target
MATRIX_BUDGET = 4096  # dense dimension product an evaluator may allocate before warning/refusing
HESSIAN_BUDGET = 64  # MB of inverse Hessians (``maximize_batch``'s ``dense``) a sweep may hold before warning/refusing


def _budget_check(dense_load: int, n_params: int, what: str):
    if n_params > MATRIX_BUDGET:
        raise BudgetError(f"{what}: {n_params} optimizer parameters exceed matrix budget {MATRIX_BUDGET}")
    _warn_or_refuse(f"{what}: dense load", dense_load, "matrix budget", MATRIX_BUDGET)


def _warn_or_refuse(what: str, load, name: str, budget, unit: str = ""):
    if load > 16 * budget:
        raise BudgetError(f"{what} {load:.0f}{unit} exceeds 16x {name} {budget}{unit}")
    if load > budget:
        warnings.warn(f"{what} {load:.0f}{unit} exceeds {name} {budget}{unit}")


# ---------------------------------------------------------------------------
# the label-ensemble evaluator and its mode table


class _Family(NamedTuple):
    """A channel model: its receiver states, personal-rate term and payload kind."""

    what: str  # names the frontier in validation and budget messages
    accepts: Callable  # channel -> whether the family can evaluate it
    requires: str  # ends the validation message for a channel it cannot evaluate
    sizes: Callable  # (inputs, d_B, d_C of the k-use channel, common) -> (payload length, default t_size)
    setup: Callable  # k-use channel -> fixed tensors: "personal" {receiver: sign}, optionally an
    #                  "offset" (payload length,) and the set of "diagonal" receivers
    states: Callable  # (evaluator, payload) -> {receiver: (m, t, d, d) per-label states, or
    #                   (m, t, d) diagonals for a receiver on the diagonal kernel}
    adjoint: Callable  # (evaluator, payload, {receiver: D}) -> d/d payload of sum Re tr(D rho)
    decode: Callable  # raw (m, t, payload length) -> payload batch
    decode_grad: Callable  # (raw, payload, d/d payload) -> d/d raw
    check: Callable  # (payload batch, what) -> raises ValidationError unless it is a decoded payload
    dense: bool  # whether its ascent keeps a dense inverse Hessian (``maximize_batch``'s ``dense``), else L-BFGS
    structured: Callable  # (evaluator, rng) -> (t, payload length) structured init rows
    structured_rows: int  # restarts that get a structured row (1 unless it depends on the rng)
    init_scale: float  # standard deviation of the seeded random init rows
    key: str  # witness key of the payload
    dump: Callable  # one label set's payload -> JSON value
    load: Callable  # JSON value -> payload batch of one


class _LabelEnsembleEvaluator:
    """Rates per channel use from a label distribution p(t) plus one payload per label.

    The first ``t_size`` parameters are the logits of p(t), the rest one payload
    of the mode's kind per label.  The common rate is the smallest Holevo
    quantity chi = S(sum_t p_t rho_t) - sum_t p_t S(rho_t) over the mode's
    binding receivers; the personal rate is the p(t)-average of the family's
    signed per-label receiver entropies less the payload's offset.
    """

    def __init__(self, mode: str, channel, k: int = 1, t_size: int | None = None):
        if mode not in _MODES:
            raise ValidationError(f"unknown frontier mode {mode!r}")
        self.mode = mode
        self.family, self.common, self.rate_labels = _MODES[mode]
        if not self.family.accepts(channel):
            raise ValidationError(f"{self.family.what} {self.family.requires}")
        self.k = k = integer(k, "k", 1)
        # the budget is checked on sizes read off the single-use channel, before the k-use one exists
        inputs = channel.n_symbols if isinstance(channel, CqBroadcastChannel) else channel.in_dim
        db, dc = (d ** k for d in channel.out_layout.dims)
        self.payload_len, bound = self.family.sizes(inputs ** k, db, dc, self.common)
        self.t_size = integer(t_size, "t_size", 1) if t_size is not None else bound
        self.n_params = self.t_size + self.t_size * self.payload_len
        _budget_check(db * dc * self.t_size, self.n_params, self.family.what)
        self.fixed = self.family.setup(channel.tensor_power(k))
        self.personal, self.offset = self.fixed["personal"], self.fixed.get("offset")
        self.diagonal = frozenset(self.fixed.get("diagonal", ()))
        self.receivers = tuple(dict.fromkeys((*self.common, *self.personal)))
        # which of ``forward``'s entropy arrays (each receiver's states, then each binding mixture) are diagonals
        self.on_diagonal = [r in self.diagonal for r in (*self.receivers, *self.common)]

    def _per_use(self, x: np.ndarray) -> np.ndarray:
        return x if self.k == 1 else x / self.k

    def decode(self, thetas: np.ndarray):
        """(p_t, payload, raw payload parameters) of a batch of parameter rows."""
        t = self.t_size
        raw = thetas[:, t:].reshape(thetas.shape[0], t, self.payload_len)
        return softmax(thetas[:, :t]), self.family.decode(raw), raw

    def rates_grad(self, thetas: np.ndarray):
        """``forward`` on a batch of parameter rows, decoded once."""
        return self.forward(*self.decode(thetas))

    def forward(self, p_t: np.ndarray, payload: np.ndarray, raw: np.ndarray | None = None):
        """(common, personal, grads) for a decoded batch from one forward pass.

        Every per-label state and binding label mixture is built first, then all the
        diagonal ones go through one ``entropy_and_slope`` call (dense ones through
        ``batched_entropy``).  ``grads(rows, w_common, w_personal)`` is the gradient of
        w_common common + w_personal personal at those rows, each weight a scalar or one
        per asked row, from one backward pass through the family's states map and both
        decodes (from ``raw``).  A term is pulled back only if its weight is nonzero at
        some asked row; a binding receiver's weight is masked by the rows it binds.
        """
        t = self.t_size
        states = self.family.states(self, payload)
        arrays = [*(states[r] for r in self.receivers), *(_label_mix(p_t, states[r]) for r in self.common)]
        on = self.on_diagonal
        diagonal = iter(entropy_and_slope(*itertools.compress(arrays, on)) if any(on) else ())
        hs, gs = zip(*(next(diagonal) if diag else batched_entropy(a) for a, diag in zip(arrays, on)))
        n = len(self.receivers)
        h, g, g_mix = dict(zip(self.receivers, hs)), dict(zip(self.receivers, gs)), gs[n:]
        chi = np.array([s_mix - (p_t * h[r]).sum(axis=1) for s_mix, r in zip(hs[n:], self.common)])
        binding = chi.argmin(axis=0)
        term = functools.reduce(np.add, (h[r] if sign > 0 else -h[r] for r, sign in self.personal.items()))
        if self.offset is not None:
            term = term - payload @ self.offset

        def grads(rows, w_common, w_personal):
            m, p, pay, bind = len(rows), p_t[rows], payload[rows], binding[rows]
            w_common, w_personal = np.asarray(w_common, dtype=float), np.asarray(w_personal, dtype=float)
            seed_p, seed_rho, seed_payload = 0.0, {}, 0.0
            for i, r in enumerate(self.common if w_common.any() else ()):
                w = np.where(bind == i, w_common, 0.0)
                if w.any():  # else its seeds would be exact zeros
                    rho, gm = states[r][rows], g_mix[i][rows]
                    # tr(G rho_t) = sum_ij conj(G_ij) rho_t,ij for Hermitian G
                    trace = rho.reshape(m, t, -1) @ gm.conj().reshape(m, -1, 1)
                    seed_p = seed_p + w[:, None] * (trace[..., 0].real - h[r][rows])
                    seed_rho[r] = _per_row(w[:, None] * p, rho) * (gm[:, None] - g[r][rows])
            if w_personal.any():
                w = w_personal.reshape(-1, 1)
                seed_p, wp = seed_p + w * term[rows], w * p
                for r, sign in self.personal.items():
                    d_rho = _per_row(wp if sign > 0 else -wp, states[r]) * g[r][rows]
                    seed_rho[r] = seed_rho[r] + d_rho if r in seed_rho else d_rho
                if self.offset is not None:
                    seed_payload = wp[:, :, None] * -self.offset
            d_payload = seed_payload + self.family.adjoint(self, pay, seed_rho)
            d_raw = self.family.decode_grad(raw[rows], pay, d_payload).reshape(m, -1)
            return self._per_use(np.concatenate([softmax_grad(p, seed_p), d_raw], axis=1))

        return self._per_use(chi.min(axis=0)), self._per_use((p_t * term).sum(axis=1)), grads

    def inits(self, n_restarts: int, path) -> np.ndarray:
        """The family's ``structured_rows`` structured rows, then seeded random rows."""
        rows = []
        for r in range(n_restarts):
            rng = seeded_rng(*path, r)
            if r < self.family.structured_rows:
                rows.append(np.concatenate([np.zeros(self.t_size), self.family.structured(self, rng).reshape(-1)]))
            else:
                rows.append(rng.standard_normal(self.n_params) * self.family.init_scale)
        return np.stack(rows)

    def witness_params(self, theta: np.ndarray) -> dict:
        p_t, payload, _ = self.decode(theta[None])
        return {"p_t": p_t[0].tolist(), self.family.key: self.family.dump(payload[0])}

    def rates_from_witness(self, params: dict):
        key = self.family.key
        if key not in params:
            raise ValidationError(f"{self.mode} witness params lack {key!r}")
        want = self.family.decode(np.zeros((1, self.t_size, self.payload_len))).shape
        try:
            p_t = np.asarray(params["p_t"], dtype=float)[None]
            payload = self.family.load(params[key])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{self.mode} witness params are not numeric arrays: {exc}")
        for name, arr, shape in (("p_t", p_t, (1, self.t_size)), (key, payload, want)):
            if arr.shape != shape:
                raise ValidationError(f"{self.mode} witness {name!r} has shape {arr.shape[1:]}, "
                                      f"expected {shape[1:]} for {self.t_size} labels")
        _check_distributions(p_t, f"{self.mode} witness 'p_t'")
        self.family.check(payload, f"{self.mode} witness {key!r}")
        c, p, _ = self.forward(p_t, payload)
        return float(c[0]), float(p[0])


def _check_distributions(p: np.ndarray, what: str):
    """Raise unless every row along the last axis is nonnegative and sums to 1 within 1e-9."""
    if not ((p >= 0).all() and np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-9):
        raise ValidationError(f"{what} has a row that is not a probability distribution within 1e-9")


def _check_unit_norm(phi: np.ndarray, what: str):
    if not np.abs(np.linalg.norm(phi, axis=-1) - 1.0).max() <= 1e-9:
        raise ValidationError(f"{what} has a state whose norm is not 1 within 1e-9")


def _conditional_structured(ev, rng) -> np.ndarray:
    rows = np.zeros((ev.t_size, ev.payload_len))
    rows[np.arange(ev.t_size), np.arange(ev.t_size) % ev.payload_len] = 8.0
    return rows


# payload p(x | t): a softmax over the input alphabet per label
_CONDITIONAL = dict(
    decode=softmax,
    decode_grad=lambda raw, cond, g: softmax_grad(cond, g),
    check=_check_distributions,
    dense=True,
    structured=_conditional_structured,
    structured_rows=1,
    init_scale=2.0,
    key="p_x_given_t",
    dump=lambda cond: cond.tolist(),
    load=lambda value: np.asarray(value, dtype=float)[None],
)


def _pure_decode(raw: np.ndarray) -> np.ndarray:
    half = raw.shape[-1] // 2
    phi = raw[..., :half] + 1j * raw[..., half:]
    norms = np.linalg.norm(phi, axis=-1, keepdims=True)
    return phi / np.maximum(norms, 1e-15)


def _pure_decode_grad(raw: np.ndarray, phi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pull a complex gradient g (df = Re sum conj(g) dphi) back through phi = z / |z|."""
    norms = np.maximum(np.linalg.norm(raw, axis=-1, keepdims=True), 1e-15)
    g_z = (g - (phi.conj() * g).real.sum(axis=-1, keepdims=True) * phi) / norms
    return np.concatenate([g_z.real, g_z.imag], axis=-1)


def _pure_structured(ev, rng) -> np.ndarray:
    """A slightly perturbed maximally entangled reference/input state per label."""
    ent = np.eye(ev.fixed["dims"][0], dtype=complex).reshape(-1)
    ent = ent / np.linalg.norm(ent)
    rows = []
    for _ in range(ev.t_size):
        vec = ent + 0.02 * (rng.standard_normal(ent.shape) + 1j * rng.standard_normal(ent.shape))
        rows.append(np.concatenate([vec.real, vec.imag]))
    return np.stack(rows)


# payload: one pure state on reference (x) input per label, flattened; witnesses
# store each amplitude as a [re, im] pair, by the rule of the channel documents
_PURE = dict(
    decode=_pure_decode,
    decode_grad=_pure_decode_grad,
    check=_check_unit_norm,
    dense=False,
    structured=_pure_structured,
    structured_rows=2,  # each draws its own perturbation
    init_scale=1.0,
    key="states",
    dump=complex_to_json,
    load=lambda value: complex_from_json(value, "states")[None],
)


def _mix_fixed(stacks: dict, personal: dict) -> dict:
    """A mix family's fixed tensors, stack by stack: each exactly diagonal (x, d, d) stack becomes
    real (x, d) diagonals, like a stack given as (x, d), and its receiver takes the diagonal kernel.
    ``adjoints`` holds each stack's conjugate as an (entries, x) matrix for ``_mix_adjoint``."""
    for r, s in stacks.items():
        if s.ndim == 3 and np.array_equal(s, s * np.eye(s.shape[-1])):
            stacks[r] = np.diagonal(s, axis1=1, axis2=2).real.copy()
    return {"stacks": stacks, "personal": personal, "diagonal": {r for r, s in stacks.items() if s.ndim == 2},
            "adjoints": {r: s.conj().reshape(len(s), -1).T for r, s in stacks.items()}}


def _mix_stacks(ev, cond: np.ndarray) -> dict:
    """Per-label receiver states sum_x p(x|t) rho_x for every fixed per-symbol stack."""
    m, t, n_x = cond.shape
    flat = cond.reshape(m * t, n_x)
    return {r: (flat @ s.reshape(n_x, -1)).reshape(m, t, *s.shape[1:]) for r, s in ev.fixed["stacks"].items()}


def _mix_adjoint(ev, cond: np.ndarray, d_states: dict) -> np.ndarray:
    """d/d p(x|t) of sum_r Re tr(D_r rho_r) for the states of ``_mix_stacks``."""
    m, t, n_x = cond.shape
    out = np.zeros((m * t, n_x))
    for r, d in d_states.items():
        # tr(D rho_x) = sum_ij D_ij conj(rho_x,ij) for Hermitian rho_x
        out += (d.reshape(m * t, -1) @ ev.fixed["adjoints"][r]).real
    return out.reshape(m, t, n_x)


def _cq_setup(wk: CqBroadcastChannel) -> dict:
    """I(X; B | T = t): H(B | T = t) less sum_x p(x|t) H(B | X = x)."""
    fixed = _mix_fixed({"B": wk.marginal_conditionals(wk.b_label), "C": wk.marginal_conditionals(wk.c_label)},
                       {"B": 1})
    fixed["offset"] = (entropy_of_spectrum if "B" in fixed["diagonal"] else matrix_entropy)(fixed["stacks"]["B"])
    return fixed


def _dephasing_setup(uk: BroadcastChannel) -> dict:
    """H(B | T = t) - H(CE | T = t), B being the basis |x><x| the isometry writes, given as diagonals."""
    vecs = uk.dephasing.images
    return _mix_fixed({"B": np.eye(len(vecs)), "CE": np.einsum("xi,xj->xij", vecs, vecs.conj()),
                       "C": uk.dephasing.c_states()}, {"B": 1, "CE": -1})


def _ensemble_setup(nk: BroadcastChannel) -> dict:
    """I(R > B) = H(B | T = t) - H(RB | T = t) on dense states, H(RB) read as H(C) for one Kraus operator.

    The Stinespring isometry carries each pure input on R (x) A to a pure state on R B C E, so
    S(RB) = S(CE): with one Kraus operator that is the S(C) the common rate already takes, and the
    term is {B: +1, C: -1}; else it is {B: +1, RB: -1}.  ``axes`` maps each receiver to the
    amplitude axes it keeps (r, b, c, e are axes 2 to 5) and their dimension.
    """
    db, dc = nk.out_layout.dims
    din = nk.in_dim
    joint = "C" if len(nk.ops) == 1 else "RB"
    axes = {"B": ((3,), db), "C": ((4,), dc), "RB": ((2, 3), din * db)}
    return {"kraus": nk.ops.transpose(2, 1, 0).reshape(din, -1), "dims": (din, db, dc),
            "axes": {r: axes[r] for r in ("B", "C", joint)}, "personal": {"B": 1, joint: -1}}


def _ensemble_amp(ev, phi: np.ndarray) -> np.ndarray:
    """Output amplitudes amp[m, t, r, b, c, e] = sum_i K_e[bc, i] phi[m, t, r, i]."""
    return (phi.reshape(-1, ev.fixed["dims"][0]) @ ev.fixed["kraus"]).reshape(*phi.shape[:2], *ev.fixed["dims"], -1)


def _ensemble_states(ev, phi: np.ndarray) -> dict:
    """The receiver states of ``_ensemble_setup``'s ``axes`` only, B, C and RB (no RB for one Kraus
    operator): Gram products of amp with the kept axes as rows and the traced ones as columns."""
    amp = _ensemble_amp(ev, phi)
    states = {}
    for r, (kept, dim) in ev.fixed["axes"].items():
        rows = amp.transpose(0, 1, *kept, *(a for a in range(2, 6) if a not in kept)).reshape(*amp.shape[:2], dim, -1)
        states[r] = rows @ rows.conj().swapaxes(-1, -2)
    return states


def _ensemble_adjoint(ev, phi: np.ndarray, d_states: dict) -> np.ndarray:
    """Complex d/d phi of sum_r Re tr(D_r rho_r): 2 D amp on each receiver's kept axes, pulled back through K."""
    amp = _ensemble_amp(ev, phi)
    g = np.zeros_like(amp)
    for r, d in d_states.items():
        (lead, *_), dim = ev.fixed["axes"][r]  # the kept axes are adjacent: D broadcasts over those before them
        d = d.reshape(*d.shape[:2], *(1,) * (lead - 2), dim, dim)
        g += (d @ amp.reshape(*amp.shape[:lead], dim, -1)).reshape(amp.shape)
    return 2.0 * (g.reshape(phi.size // amp.shape[2], -1) @ ev.fixed["kraus"].conj().T).reshape(phi.shape)


_CQ = _Family(
    what="cq frontier",
    accepts=lambda ch: isinstance(ch, CqBroadcastChannel),
    requires="expects a CqBroadcastChannel",
    sizes=lambda n, db, dc, common: (n, min(n, db * db if common == ("C",) else db * db + dc * dc - 1)),
    setup=_cq_setup, states=_mix_stacks, adjoint=_mix_adjoint, **_CONDITIONAL,
)
_DEPHASING = _Family(
    what="dephasing frontier",
    accepts=lambda ch: isinstance(ch, BroadcastChannel) and ch.dephasing is not None,
    requires="requires a channel built from a DephasingSpec",
    sizes=lambda n, db, dc, common: (n, n),
    setup=_dephasing_setup, states=_mix_stacks, adjoint=_mix_adjoint, **_CONDITIONAL,
)
_ENSEMBLE = _Family(
    what="ensemble frontier",
    accepts=lambda ch: isinstance(ch, BroadcastChannel),
    requires="expects a BroadcastChannel",
    sizes=lambda n, db, dc, common: (2 * n * n, min(n * n, db * db + dc * dc - 1)),
    setup=_ensemble_setup, states=_ensemble_states, adjoint=_ensemble_adjoint, **_PURE,
)

# mode -> (family, receivers whose Holevo quantities bind the common rate (minimum
# taken), (common, personal) rate labels recorded in the frontier metadata)
_MODES = {
    "cq": (_CQ, ("B", "C"), ("R", "R_B")),
    "cq-certified": (_CQ, ("C",), ("R", "R_B")),
    "dephasing": (_DEPHASING, ("C",), ("R", "Q_B")),
    "qq-dephasing": (_DEPHASING, ("C",), ("Q", "Q_B")),
    "cq-eg": (_ENSEMBLE, ("B", "C"), ("R", "Q")),
    "qq": (_ENSEMBLE, ("B", "C"), ("Q", "Q_B")),
}


# ---------------------------------------------------------------------------
# frontier sweep


def _sweep(ev, cfg: OptimizerConfig, r_values=None, metadata: dict | None = None) -> Frontier:
    chunk = None  # targets per call: all of them, unless their inverse Hessians outgrow the budget
    if ev.family.dense:  # restarts (n, n) inverse Hessians a target, and twice that in ``dense_update``'s temporaries
        mb = 3 * cfg.restarts * ev.n_params ** 2 * 8 / 2 ** 20
        _warn_or_refuse(f"{ev.family.what}: inverse Hessians", mb, "Hessian budget", HESSIAN_BUDGET, " MB")
        chunk = max(1, int(HESSIAN_BUDGET // mb))
    work = {"iterations": 0, "stages": 0, "stages_converged": 0}

    def ascend(thetas, mu=None):
        """One ``maximize_batch`` call, counted in ``work``, on rows carrying their target r in a last column:
        the common rate when ``mu`` is None, else the personal rate less mu max(0, r - common)^2, whose
        gradient is the pull-back weighted (2 mu max(0, r - common), 1).  r's direction is an exact zero."""
        def stage(th):
            c, p, grads = ev.rates_grad(th[:, :-1])
            if mu is None:
                value, w_common, w_personal = c, np.ones_like(c), 0.0
            else:
                gap = np.maximum(0.0, th[:, -1] - c)
                value, w_common, w_personal = p - mu * gap * gap, 2.0 * mu * gap, 1.0
            return value, lambda rows: np.concatenate(
                (grads(rows, w_common[rows], w_personal), np.zeros((len(rows), 1))), axis=1)
        thetas, vals, info = maximize_batch(stage, thetas, cfg, dense=ev.family.dense)
        work["iterations"] += info["iterations"]
        work["stages"] += 1
        work["stages_converged"] += info["converged"]
        return thetas, vals, info

    def tagged(pi, r):  # target r's restart rows, drawn on the (seed, pi) path, r in the last column
        return np.column_stack((ev.inits(cfg.restarts, (cfg.seed, pi)), np.full(cfg.restarts, r)))

    if r_values is not None:
        try:
            r_values = np.asarray(r_values, dtype=float)
            ok = r_values.ndim == 1 and np.isfinite(r_values).all()
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValidationError("r_values: must be a 1-d list of finite numbers")
    r_max = max(float(ascend(tagged(0xC0FFEE, 0.0))[1].max()), 0.0)
    if r_values is None:
        r_values = np.linspace(0.0, r_max, cfg.r_grid)
    chunk = chunk or max(1, len(r_values))
    rows = []
    for lo in range(0, len(r_values), chunk):
        targets = r_values[lo:lo + chunk]
        thetas = np.concatenate([tagged(pi, r) for pi, r in enumerate(targets, lo)])
        for mu in PENALTY_SCALES:
            thetas, vals, info = ascend(thetas, mu)
        best = [int(np.flatnonzero(v >= v.max() - 1e-12)[0]) for v in vals.reshape(len(targets), -1)]
        chosen = thetas.reshape(len(targets), cfg.restarts, -1)[np.arange(len(targets)), best, :-1]
        raw = ev.rates_grad(chosen)[:2]
        for r_target, b, theta, raw_c, raw_p, stopped in zip(targets, best, chosen, *raw,
                                                             info["stopped"].reshape(len(targets), -1)):
            witness = {"params": ev.witness_params(theta), "restart": b, "r_target": float(r_target),
                       "raw_common": float(raw_c), "raw_personal": float(raw_p), "converged": bool(stopped.all())}
            rows.append((*_stored_rates(raw_c, raw_p, r_target), witness))
    meta = {"mode": ev.mode, "rates": ev.rate_labels, **(metadata or {}), "k": ev.k, "t_size": ev.t_size,
            "seed": cfg.seed, "restarts": cfg.restarts, "grid": int(len(r_values)), "r_max": r_max, **work}
    return Frontier(pareto_staircase(np.array([row[0] for row in rows]), np.array([row[1] for row in rows]),
                                     lambda i: rows[i][2]), meta)


def _frontier(mode: str, channel, k: int, cfg: OptimizerConfig | None, r_values, t_size,
              **metadata) -> Frontier:
    cfg = cfg or OptimizerConfig()
    ev = _LabelEnsembleEvaluator(mode, channel, k=k, t_size=t_size)
    return _sweep(ev, cfg, r_values=r_values, metadata=metadata)


def cq_broadcast_frontier(w: CqBroadcastChannel, k: int = 1, cfg: OptimizerConfig | None = None,
                          r_values=None, t_size: int | None = None) -> Frontier:
    """Frontier of (common, personal) classical rates for a cq broadcast channel.

    Optimizes joint input distributions p(t, x^k) over the k-use channel; the
    common rate must be decodable by both receivers, the personal rate goes to
    receiver B on top of it.
    """
    return _frontier("cq", w, k, cfg, r_values, t_size)


@dataclass
class CqCertification:
    """Outcome of the single-letter optimality check for a cq broadcast channel."""

    commuting: bool
    residual: float
    certified: bool
    method: str
    frontier: Frontier | None


def certify_single_letter_cq(w: CqBroadcastChannel, cfg: OptimizerConfig | None = None,
                             r_values=None) -> CqCertification:
    """Check the degraded/commuting hypotheses and, when they hold, re-solve.

    Certification needs (i) pairwise commuting B-conditionals and (ii) a
    degrading map from B to C with residual at or below 1e-6.  The certified
    frontier uses the tighter label-alphabet bound and constrains the common
    rate through receiver C alone (the binding receiver under degradedness).
    """
    cfg = cfg or OptimizerConfig()
    commuting = w.commuting_b()
    report = degradedness_residual(w)
    certified = bool(commuting and report.certified)
    frontier = None
    if certified:
        frontier = _frontier("cq-certified", w, 1, cfg, r_values, None, residual=report.residual)
    return CqCertification(commuting, report.residual, certified, report.method, frontier)


def cq_entanglement_frontier(n: BroadcastChannel, k: int = 1, cfg: OptimizerConfig | None = None,
                             r_values=None, t_size: int | None = None) -> Frontier:
    """Frontier of common classical rate vs entanglement-generation rate with B.

    Optimizes ensembles of bipartite pure states fed through the k-use channel;
    the personal rate is the label-averaged coherent information to B.
    """
    return _frontier("cq-eg", n, k, cfg, r_values, t_size)


def dephasing_cq_frontier(u: BroadcastChannel, cfg: OptimizerConfig | None = None,
                          r_values=None, k: int = 1, t_size: int | None = None) -> Frontier:
    """Frontier of common classical rate vs quantum rate for dephasing channels.

    The channel must carry its DephasingSpec; the optimization is over joint
    distributions p(t, x) on the dephasing basis only.
    """
    return _frontier("dephasing", u, k, cfg, r_values, t_size)


def qq_frontier(u: BroadcastChannel, k: int = 1, cfg: OptimizerConfig | None = None,
                r_values=None, t_size: int | None = None) -> Frontier:
    """Frontier of common quantum rate vs personal quantum rate for isometric channels.

    For channels carrying a DephasingSpec the computation delegates to the
    dephasing family (same region with the common rate read as quantum);
    otherwise it runs the pure-state-ensemble family with quantum labels.
    """
    if not isinstance(u, BroadcastChannel):
        raise ValidationError("qq frontier expects a BroadcastChannel")
    if not u.is_isometric():
        raise ValidationError("qq frontier requires an isometric channel (single Kraus, V†V = I)")
    return _frontier("qq-dephasing" if u.dephasing is not None else "qq", u, k, cfg, r_values, t_size)


def pinching_boundary(p: float) -> RatePoint:
    """Closed-form outer-boundary point of the pinching-channel region.

    Parameterized by p in [0, 1]: personal rate p, common rate 1 for p <= 1/2
    and the binary entropy of p beyond.
    """
    if not (-1e-12 <= p <= 1 + 1e-12):
        raise ValidationError(f"boundary parameter {p} outside [0, 1]")
    p = min(max(float(p), 0.0), 1.0)
    common = 1.0 if p <= 0.5 else binary_entropy(p)
    return RatePoint(common, p, {"kind": "closed-form", "p": p})


def _through_channel(n: BroadcastChannel, psi_in: PureState, parts: int, too_few: str):
    """The output of ``n`` on the last layout label of ``psi_in``, which needs at least ``parts`` labels."""
    lay = psi_in.layout
    if len(lay.parts) < parts:
        raise ValidationError(too_few)
    return n.apply_to(psi_in.to_density(), lay.labels[-1])


def merging_rates(n: BroadcastChannel, psi_in: PureState) -> MergingRates:
    """Entropic merging rates for a pure input pushed through a broadcast channel.

    The last layout label of ``psi_in`` is the channel input; the rest is the
    retained reference.  Returns the quantum-cost bound I(ref > BC), the
    receiver-pair distillation rate I(B > C), and feasibility (the latter
    positive).
    """
    sigma = _through_channel(n, psi_in, 2, "merging input needs a reference label plus the channel input label")
    q_c = coherent_information(sigma, set(psi_in.layout.labels[:-1]), {n.b_label, n.c_label})
    bc = coherent_information(sigma, {n.b_label}, {n.c_label})
    return MergingRates(float(q_c), float(bc), bool(bc > 1e-9))


def independent_rates(n: BroadcastChannel, psi_in: PureState) -> IndependentRates:
    """Per-receiver entanglement rates (I(ref_B > B), I(ref_C > C)).

    ``psi_in`` carries two reference labels then the channel input label, in
    that order.  Negative values are reported as-is and flagged infeasible.
    """
    sigma = _through_channel(n, psi_in, 3, "independent-rate input needs two reference labels plus the channel input")
    ref_b, ref_c = psi_in.layout.labels[:2]
    rate_b = float(coherent_information(sigma, {ref_b}, {n.b_label}))
    rate_c = float(coherent_information(sigma, {ref_c}, {n.c_label}))
    return IndependentRates(rate_b, rate_c, rate_b > 1e-9, rate_c > 1e-9)


# ---------------------------------------------------------------------------
# witness re-evaluation


def build_evaluator(mode: str, channel, k: int = 1, t_size: int | None = None):
    """Reconstruct the evaluator a witness was produced by."""
    return _LabelEnsembleEvaluator(mode, channel, k=k, t_size=t_size)


def evaluate_witness(mode: str, channel, witness: dict, k: int = 1) -> tuple[float, float]:
    """Recompute raw (common, personal) from a witness as a ``RatePoint`` or a sidecar entry stores it.

    ``params`` holds a frontier witness (``p_t`` plus the mode's payload); a grid-oracle
    ``joint`` p(t, x) is read as a single-use ``cq`` witness whatever ``mode`` says; a
    ``closed-form`` witness is the ``pinching_boundary`` sample at its ``p``.
    """
    if "params" in witness:
        params = witness["params"]
        if not isinstance(params, dict):
            raise ValidationError("params must be an object")
        try:
            t_size = len(params["p_t"])
        except (KeyError, TypeError):
            raise ValidationError("witness params need a p_t list")
        return build_evaluator(mode, channel, k=k, t_size=t_size).rates_from_witness(params)
    if "joint" in witness:
        if channel is None:
            raise ValidationError("grid witness without a channel document")
        try:
            joint = np.asarray(witness["joint"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"grid witness joint is not a numeric table: {exc}")
        if joint.ndim != 2:
            raise ValidationError(f"grid witness joint must be a p(t, x) table, got {joint.ndim} axes")
        ev = build_evaluator("cq", channel, t_size=joint.shape[0])
        if joint.shape[1] != ev.payload_len:
            raise ValidationError(f"grid witness joint has {joint.shape[1]} columns, "
                                  f"the channel has {ev.payload_len} symbols")
        if not (joint >= 0).all():
            raise ValidationError("grid witness joint has an entry that is not a nonnegative number")
        p_t = joint.sum(axis=1)
        safe = np.where(p_t > 0, p_t, 1.0)
        cond = joint / safe[:, None]
        cond[p_t == 0] = 1.0 / joint.shape[1]
        return ev.rates_from_witness({"p_t": p_t, "p_x_given_t": cond})
    if witness.get("kind") == "closed-form":
        try:
            p = float(witness["p"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError("a closed-form witness needs a numeric p")
        pt = pinching_boundary(p)
        return pt.common_rate, pt.personal_rate
    raise ValidationError("no re-evaluatable parameters")


def _stored_rates(common: float, personal: float, r_target: float = np.inf) -> tuple[float, float]:
    """The (common, personal) a frontier row stores for its witness's raw rates: both clipped at 0,
    the common rate first capped at the row's target, which a swept or resampled witness may exceed."""
    return float(max(min(r_target, common), 0.0)), float(max(personal, 0.0))
