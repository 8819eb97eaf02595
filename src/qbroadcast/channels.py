"""Channels in Kraus form, Stinespring extensions, and broadcast-channel models.

A broadcast channel is a CPTP map from one input to a two-receiver output
B (x) C.  A channel holds one read-only (n, out, in) Kraus stack: its action is
``_images``, and its isometric extension, complementary channel, marginals and
receiver swap are reshapes or transposes of that stack.  A classical-input (cq)
channel holds its symbols and one read-only (x, d_B*d_C, d_B*d_C) stack of
conditional states: its receiver marginals are one batched trace, its receiver
swap one transpose.  Every k-use channel (Kraus stacks, cq states, dephasing
images) comes from one grouped Kronecker power, ``_kron_power``.  The
degrading-map search at the bottom certifies (numerically) whether one
receiver's marginal can be post-processed into the other's.  It runs a linear
fit, which is a channel on every input, and then a Douglas-Rachford fit of the
Choi matrix, a convex feasibility problem, only when the contraction floor,
the trace-norm lower bound that no map's residual can fall below, is at most
1e-6 and the linear fit did not certify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, integer, prefixed
from .states import (
    CqState,
    DensityMatrix,
    SystemLayout,
    _hermitize,
    layout,
    trace_norms,
)

KRAUS_TOL = 1e-9
COMMUTE_TOL = 1e-9
CERTIFY_THRESHOLD = 1e-6
PROJECTION_STEPS = 500  # Douglas-Rachford step cap of the degrading-map fit


def _kron_power(stack: np.ndarray, k: int) -> np.ndarray:
    """k-fold grouped Kronecker power of a stack (n, d_1, ..., d_r).

    Row (i_1 ... i_k), i_1 most significant, is stack[i_1] (x) ... (x) stack[i_k]
    with each axis d_j merged across the factors into d_j ** k.
    """
    k = integer(k, "k", 1)
    left, right = "abcdefgh"[:stack.ndim - 1], "ijklmnop"[:stack.ndim - 1]
    spec = f"y{left},z{right}->yz" + "".join(a + b for a, b in zip(left, right))
    out = stack
    for _ in range(k - 1):
        out = np.einsum(spec, out, stack, optimize=True).reshape(-1, *np.multiply(out.shape[1:], stack.shape[1:]))
    return out


def _images(ops: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i K_i rho K_i†, Hermitized, for one matrix rho or a stack of them.

    The terms accumulate in the stored operator order, which fixes the bits.
    """
    out = np.zeros(mats.shape[:-2] + (ops.shape[1],) * 2, dtype=complex)
    for k in ops:
        out += k @ mats @ k.conj().T
    return _hermitize(out)


class KrausChannel:
    """CPTP map given by one read-only (n, out, in) Kraus stack; sum K†K = I within 1e-9."""

    __slots__ = ("ops", "in_dim", "out_layout")

    def __init__(self, ops: Sequence[np.ndarray], out_layout: SystemLayout, validate: bool = True):
        if not len(ops):
            raise ValidationError("a channel needs at least one Kraus operator")
        shape = np.shape(ops[0])
        bad = next((np.shape(k) for k in ops if np.shape(k) != shape), None)
        if bad is not None:
            raise ValidationError(f"inconsistent Kraus shapes: {bad} vs {shape}")
        ops = np.array(ops, dtype=complex, order="C")
        _, out_dim, in_dim = ops.shape
        if out_layout.dim != out_dim:
            raise ValidationError(
                f"output layout dimension {out_layout.dim} does not match Kraus rows {out_dim}"
            )
        if validate:
            v = ops.reshape(-1, in_dim)  # sum K†K is V†V for the operators stacked row-wise
            dev = np.abs(v.conj().T @ v - np.eye(in_dim)).max()
            if not dev <= KRAUS_TOL:
                raise ValidationError(f"Kraus set is not trace preserving: |sum K†K - I| = {dev:.3e}")
        ops.flags.writeable = False
        self.ops = ops
        self.in_dim = in_dim
        self.out_layout = out_layout

    @property
    def out_dim(self) -> int:
        return self.out_layout.dim

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Channel action sum_i K_i rho K_i†, Hermitized."""
        if rho.dim != self.in_dim:
            raise ValidationError(f"input dimension {rho.dim} does not match channel input {self.in_dim}")
        return DensityMatrix(_images(self.ops, rho.matrix), self.out_layout, validate=False)

    def apply_to(self, rho: DensityMatrix, label: str) -> DensityMatrix:
        """Apply the channel to one subsystem, leaving the others untouched.

        The target label is replaced by the channel's output labels (which must
        not collide with the remaining labels).
        """
        rest = [name for name in rho.layout.labels if name != label]
        collide = set(self.out_layout.labels) & set(rest)
        if collide:
            raise ValidationError(f"channel output labels collide with state labels: {sorted(collide)}")
        r = rho.reorder([label] + rest)
        din = r.layout.dims[0]
        if din != self.in_dim:
            raise ValidationError(f"subsystem {label!r} has dimension {din}, channel expects {self.in_dim}")
        d_rest = r.layout.dim // din
        ops = (self.ops[:, :, None, :, None] * np.eye(d_rest)[:, None, :]).reshape(
            len(self.ops), self.out_dim * d_rest, din * d_rest)  # K_i (x) I on the untouched factors
        new_layout = SystemLayout(self.out_layout.parts + tuple(r.layout.parts[1:]))
        return DensityMatrix(_images(ops, r.matrix), new_layout, validate=False)

    def tensor(self, other: "KrausChannel") -> "KrausChannel":
        overlap = set(self.out_layout.labels) & set(other.out_layout.labels)
        if overlap:
            raise ValidationError(f"tensor channel label collision: {sorted(overlap)}")
        ops = [np.kron(a, b) for a in self.ops for b in other.ops]
        return KrausChannel(ops, self.out_layout.concat(other.out_layout), validate=False)

    def is_isometric(self) -> bool:
        v = self.ops[0]
        return len(self.ops) == 1 and bool(np.abs(v.conj().T @ v - np.eye(self.in_dim)).max() <= KRAUS_TOL)

    def __repr__(self):
        return f"KrausChannel(in={self.in_dim}, out={self.out_layout.labels}, n_kraus={len(self.ops)})"


def isometric_extension(ch: KrausChannel) -> KrausChannel:
    """Canonical extension V = sum_i K_i (x) |i>^E in the given Kraus order: one operator on output (x) E."""
    env = layout((ch.out_layout.fresh_label("E"), len(ch.ops)))
    v = ch.ops.transpose(1, 0, 2).reshape(1, -1, ch.in_dim)  # row index o * n_env + e
    return KrausChannel(v, ch.out_layout.concat(env), validate=False)


def complementary(ch: KrausChannel) -> KrausChannel:
    """Channel to the environment E of the canonical isometric extension: L_o[e, i] = K_e[o, i]."""
    env = layout((ch.out_layout.fresh_label("E"), len(ch.ops)))
    return KrausChannel(ch.ops.transpose(1, 0, 2), env, validate=False)


def completely_dephase(rho: DensityMatrix, basis_label: str) -> DensityMatrix:
    """Zero all off-diagonal elements in the computational basis of one subsystem."""
    axis = rho.layout.index(basis_label)
    dims = rho.layout.dims
    d = dims[axis]
    n = len(dims)
    tensor = np.array(rho.matrix.reshape(dims + dims))
    moved = np.moveaxis(tensor, (axis, axis + n), (0, 1))
    mask = np.eye(d, dtype=bool)
    moved[~mask] = 0.0
    return DensityMatrix(tensor.reshape(rho.dim, rho.dim), rho.layout, validate=False)


def make_completely_dephasing(dim: int) -> KrausChannel:
    """The qubit/qudit map to B that keeps only computational-basis diagonal entries."""
    ops = np.zeros((dim, dim, dim), dtype=complex)
    ops[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    return KrausChannel(ops, layout(("B", dim)), validate=False)


def make_identity_channel(dim: int) -> KrausChannel:
    return KrausChannel([np.eye(dim, dtype=complex)], layout(("B", dim)), validate=False)


class BroadcastChannel(KrausChannel):
    """Single-input channel whose output layout is exactly the two receiver labels.

    ``dephasing`` optionally records the generalized-dephasing structure the
    channel was built from; region evaluators use it for the classical-input
    reduction.
    """

    __slots__ = ("dephasing",)

    def __init__(self, ops, out_layout: SystemLayout, dephasing: "DephasingSpec | None" = None, validate: bool = True):
        if len(out_layout.parts) != 2:
            raise ValidationError(
                f"broadcast output must carry exactly two receiver labels, got {out_layout.labels}"
            )
        super().__init__(ops, out_layout, validate=validate)
        self.dephasing = dephasing

    @property
    def b_label(self) -> str:
        return self.out_layout.labels[0]

    @property
    def c_label(self) -> str:
        return self.out_layout.labels[1]

    def marginal(self, label: str) -> KrausChannel:
        """Marginal channel to one receiver: Kraus index outer, the traced receiver's index inner."""
        idx = self.out_layout.index(label)
        blocks = self.ops.reshape(len(self.ops), *self.out_layout.dims, self.in_dim)
        if idx == 0:
            blocks = blocks.transpose(0, 2, 1, 3)
        part = self.out_layout.parts[idx]
        return KrausChannel(blocks.reshape(-1, part[1], self.in_dim), SystemLayout((part,)), validate=False)

    def marginals(self) -> tuple[KrausChannel, KrausChannel]:
        """(channel to B, channel to C)."""
        return self.marginal(self.b_label), self.marginal(self.c_label)

    def swapped(self) -> "BroadcastChannel":
        """The channel with its receivers exchanged: the (n, d_B, d_C, d_in) stack's receiver axes
        swapped and the layout reversed.  It carries no DephasingSpec, which writes to B."""
        db, dc = self.out_layout.dims
        ops = self.ops.reshape(-1, db, dc, self.in_dim).transpose(0, 2, 1, 3).reshape(self.ops.shape)
        return BroadcastChannel(ops, SystemLayout(self.out_layout.parts[::-1]), validate=False)

    def tensor_power(self, k: int) -> "BroadcastChannel":
        """k parallel uses: ``_kron_power`` of the (n, d_B, d_C, d_in) Kraus stack, B and C factors each merged."""
        if k == 1:
            return self
        db, dc = self.out_layout.dims
        ops = _kron_power(self.ops.reshape(-1, db, dc, self.in_dim), k)
        out = SystemLayout(((self.b_label, db ** k), (self.c_label, dc ** k)))
        spec = self.dephasing.tensor_power(k) if self.dephasing is not None else None
        return BroadcastChannel(ops.reshape(len(ops), -1, self.in_dim ** k), out, dephasing=spec, validate=False)


class CqBroadcastChannel:
    """Classical-input broadcast channel: symbol ``symbols[i]`` prepares ``states[i]`` on B (x) C.

    ``states`` is one read-only complex (x, d_B*d_C, d_B*d_C) stack.  With ``validate`` every row must
    pass ``DensityMatrix``'s checks, and the stack is stored Hermitized, as ``DensityMatrix`` stores one.
    """

    __slots__ = ("symbols", "states", "out_layout")

    def __init__(self, symbols: Sequence, states: np.ndarray, out_layout: SystemLayout, validate: bool = True):
        symbols = list(symbols)
        if not symbols:
            raise ValidationError("cq broadcast channel needs at least one input symbol")
        if len(out_layout.parts) != 2:
            raise ValidationError(f"cq conditionals must live on two receiver labels, got {out_layout.labels}")
        if len(set(symbols)) != len(symbols):
            raise ValidationError(f"cq broadcast symbols repeat: {symbols}")
        states = np.array(states, dtype=complex, order="C")
        want = (len(symbols), out_layout.dim, out_layout.dim)
        if states.shape != want:
            raise ValidationError(f"cq conditional stack has shape {states.shape}, expected {want}")
        if validate:
            for x, rho in zip(symbols, states):
                prefixed(f"conditional for symbol {x!r}", DensityMatrix, rho, out_layout)
            states = _hermitize(states)
        states.flags.writeable = False
        self.symbols, self.states, self.out_layout = symbols, states, out_layout

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    @property
    def b_label(self) -> str:
        return self.out_layout.labels[0]

    @property
    def c_label(self) -> str:
        return self.out_layout.labels[1]

    def marginal_conditionals(self, label: str) -> np.ndarray:
        """Per-symbol reduced states on one receiver, an (x, d, d) stack in symbol order."""
        drop = 1 - self.out_layout.index(label)  # the other receiver's axis in each (d_B, d_C) half
        view = self.states.reshape(-1, *self.out_layout.dims, *self.out_layout.dims)
        return _hermitize(np.trace(view, axis1=1 + drop, axis2=3 + drop))

    def output_cq(self, weights) -> CqState:
        """Ensemble {p(x), rho_x^{BC}} for a distribution over the input alphabet."""
        if not isinstance(weights, dict):
            arr = np.asarray(weights, dtype=float).reshape(-1)
            if arr.shape[0] != self.n_symbols:
                raise ValidationError(f"weight vector length {arr.shape[0]} != alphabet size {self.n_symbols}")
            weights = {x: float(w) for x, w in zip(self.symbols, arr)}
        return CqState(weights, {x: DensityMatrix(rho, self.out_layout, validate=False)
                                 for x, rho in zip(self.symbols, self.states)})

    def swapped(self) -> "CqBroadcastChannel":
        """The channel with its receivers exchanged: one transpose swaps every conditional's B and C factors."""
        db, dc = self.out_layout.dims
        states = self.states.reshape(-1, db, dc, db, dc).transpose(0, 2, 1, 4, 3).reshape(self.states.shape)
        return CqBroadcastChannel(self.symbols, states, SystemLayout(self.out_layout.parts[::-1]), validate=False)

    def commuting_b(self) -> bool:
        """Whether all B-marginal conditionals pairwise commute."""
        return _all_commute(self.marginal_conditionals(self.b_label))

    def tensor_power(self, k: int) -> "CqBroadcastChannel":
        """k parallel uses: tuple symbols and ``_kron_power`` of the (x, d_B, d_C, d_B, d_C) states."""
        if k == 1:
            return self
        db, dc = self.out_layout.dims
        lay = SystemLayout(((self.b_label, db ** k), (self.c_label, dc ** k)))
        states = _kron_power(self.states.reshape(-1, db, dc, db, dc), k).reshape(-1, lay.dim, lay.dim)
        return CqBroadcastChannel(itertools.product(self.symbols, repeat=k), states, lay, validate=False)

    def __repr__(self):
        b, c = self.out_layout.dims
        return f"CqBroadcastChannel(|X|={self.n_symbols}, B={b}, C={c})"


@dataclass(frozen=True)
class DephasingSpec:
    """Generalized dephasing data: per-basis-symbol environment vectors on C (x) E.

    The isometry writes the input basis through to B and attaches |psi_x> on
    the C (x) E environment; the C/E split is an explicit input.
    """

    c_dim: int
    e_dim: int
    images: np.ndarray  # (n_in, c_dim * e_dim)

    def __post_init__(self):
        for name in ("c_dim", "e_dim"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 1))
        images = np.asarray(self.images, dtype=complex)
        if images.ndim != 2 or images.shape[1] != self.c_dim * self.e_dim:
            raise ValidationError(
                f"dephasing images must be (n, {self.c_dim * self.e_dim}), got {images.shape}"
            )
        norms = np.linalg.norm(images, axis=1)
        bad = np.abs(norms - 1.0).max()
        if not bad <= 1e-10:
            raise ValidationError(f"dephasing environment vector norm deviates from 1 by {bad:.3e}")
        images = np.array(images)
        images.flags.writeable = False
        object.__setattr__(self, "images", images)

    @property
    def n_in(self) -> int:
        return self.images.shape[0]

    def gram(self) -> np.ndarray:
        """Overlap matrix G[x, y] = <psi_y | psi_x>."""
        return self.images @ self.images.conj().T

    def c_states(self) -> np.ndarray:
        """Per-symbol reduced environment states on C alone, shape (n, c, c)."""
        vecs = self.images.reshape(self.n_in, self.c_dim, self.e_dim)
        return np.einsum("xce,xde->xcd", vecs, vecs.conj())

    def tensor_power(self, k: int) -> "DephasingSpec":
        """k parallel uses: ``_kron_power`` of the (n, c, e) images, C and E factors each merged."""
        images = _kron_power(self.images.reshape(self.n_in, self.c_dim, self.e_dim), k)
        return DephasingSpec(self.c_dim ** k, self.e_dim ** k, images.reshape(len(images), -1))


def make_generalized_dephasing(spec: DephasingSpec) -> BroadcastChannel:
    """Broadcast channel of an isometry writing |x> to B and |psi_x> to C (x) E.

    The E part (when nontrivial) is the unobserved environment, so the Kraus
    operators are indexed by the E basis.
    """
    n, dc, de = spec.n_in, spec.c_dim, spec.e_dim
    ops = np.zeros((de, n, dc, n), dtype=complex)
    ops[:, np.arange(n), :, np.arange(n)] = spec.images.reshape(n, dc, de).transpose(0, 2, 1)  # K_e[(x, c), x]
    out = SystemLayout((("B", n), ("C", dc)))
    return BroadcastChannel(ops.reshape(de, n * dc, n), out, dephasing=spec, validate=False)


def make_pinching() -> BroadcastChannel:
    """The 3-input block-dephasing broadcast channel with a two-level receiver C.

    Bob's marginal keeps the {1,2} block coherent and removes coherence with
    basis state 3; Charlie receives the full (one-qubit) environment.
    """
    images = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
    return make_generalized_dephasing(DephasingSpec(2, 1, images))


def make_ghz_copy(dim: int = 2) -> BroadcastChannel:
    """Basis-copy isometry |x> -> |x>^B |x>^C."""
    return make_generalized_dephasing(DephasingSpec(dim, 1, np.eye(dim, dtype=complex)))


def _cq_from_pairs(symbols: list, b_vecs: np.ndarray, c_vecs: np.ndarray) -> CqBroadcastChannel:
    """x -> |b_x><b_x|^B (x) |c_x><c_x|^C for the rows b_vecs[i], c_vecs[i] of symbol i."""
    (n, db), dc = b_vecs.shape, c_vecs.shape[1]
    b, c = (v[:, :, None] * v.conj()[:, None, :] for v in (b_vecs, c_vecs))
    states = (b[:, :, None, :, None] * c[:, None, :, None, :]).reshape(n, db * dc, db * dc)
    return CqBroadcastChannel(symbols, states, layout(("B", db), ("C", dc)), validate=False)


def make_pinching_cq() -> CqBroadcastChannel:
    """Classical-input version of the pinching channel: x -> |x><x|^B (x) psi_x^C."""
    e = np.eye(2, dtype=complex)
    return _cq_from_pairs([1, 2, 3], np.eye(3, dtype=complex), e[[0, 0, 1]])


def make_noiseless_bit() -> CqBroadcastChannel:
    """One classical bit delivered intact to both receivers."""
    e = np.eye(2, dtype=complex)
    return _cq_from_pairs([0, 1], e, e)


def make_constant_cq() -> CqBroadcastChannel:
    """Two input symbols mapped to one fixed output state: zero-capacity reference."""
    e = np.eye(2, dtype=complex)
    return _cq_from_pairs([0, 1], e[[0, 0]], e[[0, 0]])


def _cascade_tables(p_y_given_x, p_z_given_y) -> tuple[np.ndarray, np.ndarray]:
    """The two tables of a classical cascade X -> Y -> Z as float arrays, each checked to be a
    nonempty finite nonnegative matrix whose columns sum to 1 within 1e-12, and chained on Y."""
    tables = []
    for name, mat in (("p_y_given_x", p_y_given_x), ("p_z_given_y", p_z_given_y)):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or not mat.size:
            raise ValidationError(f"{name} must be a matrix")
        if not np.isfinite(mat).all():
            raise ValidationError(f"{name} has non-finite entries")
        if mat.min() < 0:
            raise ValidationError(f"{name} has negative entries")
        if np.abs(mat.sum(axis=0) - 1.0).max() > 1e-12:
            raise ValidationError(f"{name} columns must sum to 1 within 1e-12")
        tables.append(mat)
    p1, p2 = tables
    if p2.shape[1] != p1.shape[0]:
        raise ValidationError(f"cascade mismatch: p_z_given_y expects {p2.shape[1]} inputs, Y has {p1.shape[0]}")
    return p1, p2


def make_classical_cascade(p_y_given_x: np.ndarray, p_z_given_y: np.ndarray) -> CqBroadcastChannel:
    """Embed a classical degraded broadcast X -> Y -> Z as diagonal cq conditionals.

    B holds Y and C holds the cascaded Z; the joint conditional keeps the
    classical correlation p(y, z | x) = p(y|x) p(z|y).
    """
    p1, p2 = _cascade_tables(p_y_given_x, p_z_given_y)
    (ny, nx), nz = p1.shape, p2.shape[0]
    states = np.zeros((nx, ny * nz, ny * nz), dtype=complex)
    states[:, np.arange(ny * nz), np.arange(ny * nz)] = (p1.T[:, :, None] * p2.T).reshape(nx, -1)  # p(y|x) p(z|y)
    return CqBroadcastChannel(range(nx), states, layout(("B", ny), ("C", nz)), validate=False)


def _bsc_tables(flip1: float, flip2: float) -> tuple[np.ndarray, np.ndarray]:
    """The p(y|x) and p(z|y) tables of BSC(flip1) followed by BSC(flip2)."""
    return tuple(np.array([[1 - f, f], [f, 1 - f]]) for f in (flip1, flip2))


def make_bsc_cascade(flip1: float = 0.1, flip2: float = 0.2) -> CqBroadcastChannel:
    """Binary symmetric cascade: BSC(flip1) to B, then BSC(flip2) from B to C."""
    return make_classical_cascade(*_bsc_tables(flip1, flip2))


# ---------------------------------------------------------------------------
# degrading-map search


@dataclass
class DegradednessReport:
    """Outcome of the numerical search for a degrading map between marginals."""

    residual: float
    degrading_map: KrausChannel
    certified: bool
    method: str
    floor: float  # no map's residual can fall below it

    def __iter__(self):
        yield self.residual
        yield self.degrading_map


def _probe_densities(dim: int) -> np.ndarray:
    """Basis matrix units symmetrized into a spanning (p, d, d) stack of density matrices."""
    probes = []
    eye = np.eye(dim, dtype=complex)
    for i in range(dim):
        probes.append(np.outer(eye[i], eye[i]))
    for i in range(dim):
        for j in range(i + 1, dim):
            plus = (eye[i] + eye[j]) / np.sqrt(2)
            plusi = (eye[i] + 1j * eye[j]) / np.sqrt(2)
            probes.append(np.outer(plus, plus.conj()))
            probes.append(np.outer(plusi, plusi.conj()))
    return np.stack(probes)


def _all_commute(mats: np.ndarray) -> bool:
    """Whether every pair of the matrices commutes within ``COMMUTE_TOL`` (max-entry norm)."""
    return not any(np.abs(a @ b - b @ a).max() > COMMUTE_TOL for i, a in enumerate(mats) for b in mats[i + 1:])


def _probe_pairs(bc) -> tuple[np.ndarray, np.ndarray]:
    """(B-side state stack, C-side state stack) for the degrading search."""
    if isinstance(bc, CqBroadcastChannel):
        return bc.marginal_conditionals(bc.b_label), bc.marginal_conditionals(bc.c_label)
    if isinstance(bc, BroadcastChannel):
        bc = bc.marginals()
    elif not (isinstance(bc, tuple) and len(bc) == 2):
        raise ValidationError("expected a BroadcastChannel, CqBroadcastChannel, or (to-B, to-C) pair")
    ch_b, ch_c = bc
    if ch_b.in_dim != ch_c.in_dim:
        raise ValidationError("marginal pair must share the input dimension")
    probes = _probe_densities(ch_b.in_dim)
    return _images(ch_b.ops, probes), _images(ch_c.ops, probes)


def _residual(ops: np.ndarray, b_stack: np.ndarray, c_stack: np.ndarray) -> float:
    """Worst trace norm |Phi(b_p) - c_p|_1 over the probes of the Kraus stack ops (n, dc, db)."""
    return float(trace_norms(_images(ops, b_stack) - c_stack).max())


def _contraction_floor(b_stack: np.ndarray, c_stack: np.ndarray) -> float:
    """max over probe pairs p < q of (|c_p - c_q|_1 - |b_p - b_q|_1) / 2, and 0 if no pair gains.

    A CPTP map contracts the trace norm, so by the triangle inequality through
    Phi(b_p) and Phi(b_q) no map's residual falls below it.
    """
    p, q = np.triu_indices(len(b_stack), 1)
    gains = trace_norms(c_stack[p] - c_stack[q]) - trace_norms(b_stack[p] - b_stack[q])
    return float(np.max(gains, initial=0.0)) / 2


def _psd(j: np.ndarray) -> np.ndarray:
    """A Choi matrix, Hermitized, with its negative eigenvalues clipped to 0."""
    vals, vecs = np.linalg.eigh(_hermitize(j))
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T


def _channel(j: np.ndarray, db: int, dc: int) -> np.ndarray:
    """The positive semidefinite (db*dc, db*dc) Choi matrix j made a trace-preserving Kraus stack (n, dc, db).

    j is rescaled so its partial trace over C is the identity on the input
    directions where that trace exceeds 1e-9.  On the others, which the probes
    (nearly) leave unseen, the map prepares the maximally mixed state, so the
    stack is a channel on every input.
    """
    red = np.einsum("icjc->ij", j.reshape(db, dc, db, dc))
    rv, rw = np.linalg.eigh(_hermitize(red))
    seen, unseen = rw[:, rv > 1e-9], rw[:, rv <= 1e-9]
    gi, mixed = (np.multiply.outer(a, np.eye(dc)).transpose(0, 2, 1, 3).reshape(db * dc, -1)  # a (x) I_C
                 for a in ((seen * (1.0 / np.sqrt(rv[rv > 1e-9]))) @ seen.conj().T, unseen @ unseen.conj().T / dc))
    vals, vecs = np.linalg.eigh(_hermitize(gi @ j @ gi.conj().T + mixed))
    keep = np.flatnonzero(vals > 1e-12)[::-1]  # eigenvalues ascend: largest first
    return np.sqrt(vals[keep])[:, None, None] * vecs[:, keep].T.reshape(-1, db, dc).transpose(0, 2, 1)


def _choi_fit_stack(b_stack: np.ndarray, c_stack: np.ndarray) -> np.ndarray:
    """Least-squares transfer-matrix fit, rearranged into block (Choi) form, clipped to positive semidefinite
    and made a channel on every input.  Exact when a degrading map exists and the probes span."""
    p, db, _ = b_stack.shape
    dc = c_stack.shape[1]
    t, *_ = np.linalg.lstsq(b_stack.reshape(p, db * db), c_stack.reshape(p, dc * dc), rcond=None)
    return _channel(_psd(t.reshape(db, db, dc, dc).transpose(0, 2, 1, 3).reshape(db * dc, db * dc)), db, dc)


def _projection_fit(b_stack: np.ndarray, c_stack: np.ndarray) -> np.ndarray:
    """Douglas-Rachford splitting (Lions & Mercier 1979) between the positive semidefinite Choi matrices and the
    trace-preserving ones that meet every probe, ended in the linear fit's tail: a Kraus stack (n, dc, db).

    Each step is z <- z + A(2P(z) - z) - P(z), with P the eigenvalue clip ``_psd``.  On the transfer matrix T
    (vec(Phi(rho)) = vec(rho) T, row-major), A is t0 + (I - Pi_B)(T - t0)(I - Pi_C): the probe rows act on its
    left and the trace condition on its right, so the projectors commute.  It stops once the two steps agree
    within 1e-13, or after ``PROJECTION_STEPS``.
    """
    (p, db, _), dc = b_stack.shape, c_stack.shape[1]
    b, u = b_stack.reshape(p, -1), np.eye(dc).reshape(1, -1)
    pinv = np.linalg.pinv(b)
    left, right = np.eye(db * db) - pinv @ b, np.eye(dc * dc) - u.T @ u / dc  # I - Pi_B, I - Pi_C
    t0 = pinv @ c_stack.reshape(p, -1) @ right + np.eye(db).reshape(-1, 1) @ u / dc

    def choi(t):
        return t.reshape(db, db, dc, dc).transpose(0, 2, 1, 3).reshape(db * dc, db * dc)

    z = t0
    for _ in range(PROJECTION_STEPS):
        x = _psd(choi(z)).reshape(db, dc, db, dc).transpose(0, 2, 1, 3).reshape(db * db, dc * dc)
        y = t0 + left @ (2 * x - z - t0) @ right
        z = z + y - x
        if np.abs(y - x).max() <= 1e-13:
            break
    return _channel(_psd(choi(y)), db, dc)


def degradedness_residual(bc_or_pair) -> DegradednessReport:
    """Search for a degrading map turning the B marginal into the C marginal.

    The probes span the input (for cq channels they are the conditionals); a
    map's residual is its worst trace-norm distance from the C targets.  No
    map's residual falls below the contraction floor the report carries,
    max_{p<q} (|c_p - c_q|_1 - |b_p - b_q|_1) / 2, since trace distance
    contracts under channels.  The search is two steps:

    1. kraus (linear fit): the least-squares transfer matrix projected to CPTP,
       a channel on every input (exact to rounding on the identity and on
       dephasing channels);
    2. kraus (Douglas-Rachford): a convex feasibility fit of the Choi matrix,
       run only when floor <= 1e-6 < the linear fit's residual, the one case
       where a map can still certify.  It replaces the linear fit only with a
       strictly smaller residual.

    Above a floor of 1e-6 no map certifies, and ``residual`` is the linear
    fit's: an upper bound on the best map's, with ``floor`` the lower bound.
    """
    b, c = _probe_pairs(bc_or_pair)
    floor = _contraction_floor(b, c)
    best, method = _choi_fit_stack(b, c), "kraus (linear fit)"
    residual = _residual(best, b, c)
    if floor <= CERTIFY_THRESHOLD < residual:
        fit = _projection_fit(b, c)
        r = _residual(fit, b, c)
        if r < residual:
            best, residual, method = fit, r, "kraus (Douglas-Rachford)"
    dmap = KrausChannel(best, layout(("C", c.shape[1])), validate=False)
    return DegradednessReport(residual, dmap, residual <= CERTIFY_THRESHOLD, method, floor)
