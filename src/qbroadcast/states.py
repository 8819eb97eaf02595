"""Multipartite states, subsystem layouts, and the basic entropic/distance functionals.

Every state carries a :class:`SystemLayout` naming its tensor factors, so that
partial traces, purifications, and entropies can be requested by subsystem
label instead of by axis arithmetic.  All matrices are dense complex numpy
arrays; dimensions are expected to stay in the dozens.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, integer

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
ENTROPY_CLAMP = 1e-12
NORM_TOL = 1e-10


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    """The Hermitian part over the last two axes, so stacks work too."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class SystemLayout:
    """Ordered labeled tensor factors, e.g. (("A", 2), ("B", 3))."""

    parts: tuple[tuple[str, int], ...]

    def __post_init__(self):
        parts = tuple((str(name), integer(dim, f"subsystem {name!r} dimension", 1)) for name, dim in self.parts)
        object.__setattr__(self, "parts", parts)
        seen = set()
        for name, _ in parts:
            if name in seen:
                raise ValidationError(f"duplicate subsystem label {name!r}")
            seen.add(name)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.parts)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.parts)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.parts:
            out *= d
        return out

    def index(self, label: str) -> int:
        for i, (name, _) in enumerate(self.parts):
            if name == label:
                return i
        raise ValidationError(f"label {label!r} not in layout {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.parts[self.index(label)][1]

    def restrict(self, labels: Iterable[str]) -> "SystemLayout":
        """Sub-layout containing `labels`, in this layout's order."""
        wanted = set(labels)
        for name in wanted:
            self.index(name)
        return SystemLayout(tuple(p for p in self.parts if p[0] in wanted))

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.parts + other.parts)

    def fresh_label(self, label: str) -> str:
        """``label``, prefixed with underscores until no factor here carries it."""
        while label in self.labels:
            label = "_" + label
        return label


def layout(*parts: tuple[str, int]) -> SystemLayout:
    """Convenience constructor: layout(("A", 2), ("B", 3))."""
    return SystemLayout(tuple(parts))


class DensityMatrix:
    """A density operator together with the layout of its tensor factors.

    Construction validates hermiticity (1e-10), positivity (eigenvalues above
    -1e-9), and unit trace (1e-9).  Internal operations that preserve these
    invariants construct with ``validate=False`` to keep hot loops cheap.
    """

    __slots__ = ("matrix", "layout")

    def __init__(self, matrix: np.ndarray, layout: SystemLayout, validate: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {matrix.shape}")
        if matrix.shape[0] != layout.dim:
            raise ValidationError(
                f"matrix dimension {matrix.shape[0]} does not match layout dimension {layout.dim}"
            )
        if validate:
            if not np.abs(matrix - matrix.conj().T).max() <= HERMITIAN_TOL:
                raise ValidationError("density matrix is not Hermitian within 1e-10")
            matrix = _hermitize(matrix)
            evals = np.linalg.eigvalsh(matrix)
            if not evals.min() >= EIGENVALUE_FLOOR:
                raise ValidationError(f"density matrix has eigenvalue {evals.min():.3e} below -1e-9")
            trace = matrix.trace().real
            if not abs(trace - 1.0) <= TRACE_TOL:
                raise ValidationError(f"density matrix trace {trace} deviates from 1 beyond 1e-9")
        matrix = np.array(matrix, dtype=complex)
        matrix.flags.writeable = False
        self.matrix = matrix
        self.layout = layout

    @property
    def dim(self) -> int:
        return self.layout.dim

    def reorder(self, labels: Sequence[str]) -> "DensityMatrix":
        """Permute tensor factors into the given label order."""
        labels = list(labels)
        if sorted(labels) != sorted(self.layout.labels):
            raise ValidationError(f"reorder labels {labels} must be a permutation of {self.layout.labels}")
        perm = [self.layout.index(name) for name in labels]
        n = len(perm)
        dims = self.layout.dims
        tensor = self.matrix.reshape(dims + dims)
        tensor = tensor.transpose(perm + [p + n for p in perm])
        new_layout = SystemLayout(tuple(self.layout.parts[p] for p in perm))
        d = new_layout.dim
        return DensityMatrix(tensor.reshape(d, d), new_layout, validate=False)

    def merge_labels(self, groups: Sequence[tuple[str, Sequence[str]]]) -> "DensityMatrix":
        """Coalesce contiguous label groups into single labels (after reordering).

        ``groups`` lists (new_label, member_labels); members are brought adjacent
        in the listed order, then fused into one factor of the product dimension.
        """
        order = [name for _, members in groups for name in members]
        reordered = self.reorder(order)
        parts = []
        pos = 0
        for new_label, members in groups:
            d = 1
            for name in members:
                d *= reordered.layout.dims[pos]
                pos += 1
            parts.append((new_label, d))
        return DensityMatrix(reordered.matrix, SystemLayout(tuple(parts)), validate=False)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, labels={self.layout.labels})"


class PureState:
    """A normalized state vector with a subsystem layout."""

    __slots__ = ("amplitudes", "layout")

    def __init__(self, amplitudes: np.ndarray, layout: SystemLayout, validate: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.shape[0] != layout.dim:
            raise ValidationError(
                f"amplitude dimension {amplitudes.shape[0]} does not match layout dimension {layout.dim}"
            )
        if validate and not abs(np.linalg.norm(amplitudes) - 1.0) <= NORM_TOL:
            raise ValidationError("state vector is not normalized within 1e-10")
        amplitudes = np.array(amplitudes, dtype=complex)
        amplitudes.flags.writeable = False
        self.amplitudes = amplitudes
        self.layout = layout

    @property
    def dim(self) -> int:
        return self.layout.dim

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.layout, validate=False)

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(np.kron(self.amplitudes, other.amplitudes), self.layout.concat(other.layout), validate=False)

    def __repr__(self):
        return f"PureState(dim={self.dim}, labels={self.layout.labels})"


@dataclass
class CqState:
    """A classical-quantum ensemble {p(x), rho_x} over a finite alphabet.

    ``conditionals`` maps each symbol to a DensityMatrix on a common layout.
    ``embed`` realizes the ensemble as a block-diagonal density matrix with an
    orthonormal classical flag register, so classical and quantum variables can
    be fed to one entropy engine.
    """

    weights: dict
    conditionals: dict

    def __post_init__(self):
        symbols = list(self.weights)
        if not symbols:
            raise ValidationError("cq state needs at least one symbol")
        if set(self.conditionals) != set(symbols):
            raise ValidationError("weights and conditionals must share the same symbols")
        total = sum(self.weights.values())
        if not abs(total - 1.0) <= TRACE_TOL:
            raise ValidationError(f"cq weights sum to {total}, not 1 within 1e-9")
        ref = next(iter(self.conditionals.values())).layout
        for sym, rho in self.conditionals.items():
            if rho.layout != ref:
                raise ValidationError(f"conditional for {sym!r} is on a different layout")
            if not self.weights[sym] >= -1e-12:
                raise ValidationError(f"negative weight for symbol {sym!r}")

    @property
    def symbols(self) -> list:
        return list(self.weights)

    @property
    def quantum_layout(self) -> SystemLayout:
        return next(iter(self.conditionals.values())).layout

    def average(self) -> DensityMatrix:
        acc = sum(self.weights[s] * self.conditionals[s].matrix for s in self.symbols)
        return DensityMatrix(_hermitize(acc), self.quantum_layout, validate=False)

    def embed(self) -> DensityMatrix:
        """Block-diagonal embedding sum_x p(x) |x><x| (x) rho_x; the flag is ``quantum_layout.fresh_label("X")``."""
        syms = self.symbols
        n = len(syms)
        dq = self.quantum_layout.dim
        out = np.zeros((n * dq, n * dq), dtype=complex)
        for i, s in enumerate(syms):
            out[i * dq:(i + 1) * dq, i * dq:(i + 1) * dq] = self.weights[s] * self.conditionals[s].matrix
        new_layout = SystemLayout(((self.quantum_layout.fresh_label("X"), n),) + self.quantum_layout.parts)
        return DensityMatrix(out, new_layout, validate=False)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; layouts are concatenated."""
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise ValidationError(f"tensor product label collision: {sorted(overlap)}")
    return DensityMatrix(np.kron(a.matrix, b.matrix), a.layout.concat(b.layout), validate=False)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every subsystem not named in ``keep`` (original order kept)."""
    keep = set(keep)
    labels = rho.layout.labels
    for name in keep:
        rho.layout.index(name)
    drop = [i for i, name in enumerate(labels) if name not in keep]
    dims = list(rho.layout.dims)
    n = len(dims)
    tensor = rho.matrix.reshape(dims + dims)
    for axis in sorted(drop, reverse=True):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + n)
        n -= 1
    new_layout = rho.layout.restrict(keep)
    d = new_layout.dim
    out = _hermitize(tensor.reshape(d, d))
    return DensityMatrix(out, new_layout, validate=False)


def purify(rho: DensityMatrix) -> PureState:
    """A purification of ``rho`` on layout (reference, original); the reference is ``fresh_label("ref")``.

    The reference dimension equals the full input dimension (rank padded), so
    tracing the reference out always recovers ``rho`` exactly.
    """
    ref_label = rho.layout.fresh_label("ref")
    evals, vecs = np.linalg.eigh(rho.matrix)
    evals = np.clip(evals, 0.0, None)
    d = rho.dim
    amps = (np.sqrt(evals)[:, None] * vecs.T).reshape(-1)  # index (ref i, original j)
    new_layout = SystemLayout(((ref_label, d),) + rho.layout.parts)
    return PureState(amps, new_layout, validate=False)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace norm |rho - sigma|_1 (sum of singular values); in [0, 2]."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValidationError(
            f"trace_distance dimension mismatch: {rho.matrix.shape} vs {sigma.matrix.shape}"
        )
    return float(trace_norms(rho.matrix - sigma.matrix))


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm (sum of singular values) of the Hermitian part over the last two axes, per matrix."""
    return np.linalg.svd(_hermitize(stack), compute_uv=False).sum(axis=-1)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared fidelity |sqrt(rho) sqrt(sigma)|_1^2, symmetric in its arguments."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValidationError(
            f"fidelity dimension mismatch: {rho.matrix.shape} vs {sigma.matrix.shape}"
        )
    sq_r = _psd_sqrt(rho.matrix)
    sq_s = _psd_sqrt(sigma.matrix)
    svals = np.linalg.svd(sq_r @ sq_s, compute_uv=False)
    return float(svals.sum() ** 2)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(matrix)
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def entropy_and_slope(*ps: np.ndarray) -> list:
    """[(entropy, slope)] per array: base-2 entropy along the last axis and the slope
    d(-p log2 p)/dp, from one masked log2 over all the arrays at once.

    Values at or below 1e-12 count as zero and take slope zero.  Each entropy is
    summed over its own array's last axis, so it is bit for bit the one that array
    gets alone.  This is the engine's one entropy rule: every dense and diagonal
    entropy in ``regions`` goes through it.
    """
    flat = np.concatenate([p.ravel() for p in ps]) if len(ps) > 1 else ps[0].ravel()
    live = flat > ENTROPY_CLAMP
    logs = np.where(live, np.log2(np.maximum(flat, ENTROPY_CLAMP)), 0.0)
    terms, slopes = flat * logs, np.where(live, -(logs + 1.0 / np.log(2.0)), 0.0)
    return [(-terms[end - p.size:end].reshape(p.shape).sum(axis=-1), slopes[end - p.size:end].reshape(p.shape))
            for p, end in zip(ps, itertools.accumulate(p.size for p in ps))]


def entropy_of_spectrum(p: np.ndarray) -> np.ndarray:
    """Base-2 entropy along the last axis: ``entropy_and_slope`` without its slope."""
    return entropy_and_slope(p)[0][0]


def matrix_entropy(mats: np.ndarray) -> np.ndarray:
    """Base-2 entropy over the last two axes of a stack of Hermitian matrices, from ``eigvalsh``."""
    return entropy_of_spectrum(np.clip(np.linalg.eigvalsh(mats), 0.0, None))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    return float(matrix_entropy(rho.matrix))


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    if not -1e-12 <= p <= 1 + 1e-12:
        raise ValidationError(f"binary_entropy argument {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if p <= ENTROPY_CLAMP or p >= 1.0 - ENTROPY_CLAMP:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def basis_state(system: SystemLayout, index: int) -> PureState:
    amps = np.zeros(system.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps, system, validate=False)


def maximally_entangled(dim: int) -> PureState:
    """(1/sqrt(d)) sum_i |i>|i> on labels ("A", "B")."""
    amps = np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim)
    return PureState(amps, layout(("A", dim), ("B", dim)), validate=False)


def random_pure_state(system: SystemLayout, rng: np.random.Generator) -> PureState:
    """Haar-ish pure state from a normalized complex Gaussian vector."""
    v = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    return PureState(v / np.linalg.norm(v), system, validate=False)


def random_density_matrix(system: SystemLayout, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random mixed state G G^dagger / tr(G G^dagger) with G complex Gaussian."""
    d = system.dim
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, system, validate=False)
