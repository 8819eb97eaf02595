"""Exhaustive reference frontiers over discretized distribution grids.

Entropies are recomputed here from scratch, so the oracles share no entropy code with the engine: every
entropy is ``_table_entropy`` of probability tables.  The cq oracle picks where each receiver's spectra come
from once (the diagonals of an exactly diagonal stack, else ``eigvalsh``), and mixtures are 2-D matrix
products.  Joints p(t, x) are compositions of the mesh over t_size * |X| cells, one per relabeling of the
labels t, which no rate depends on: the rows whose label blocks ascend, grown in table order, so no finished
row is sorted, and kept as block indices.  Both oracles are one ``_scan`` of those rows.  An oracle's rates
sum terms of one label block p(t, .) over the labels, so it tabulates them once per block, and each chunk of
rows gathers them and sums them in ``_table_entropy``'s order: the bytes of every candidate's full tables.
The Pareto pass is ``regions.pareto_staircase``, the one the frontier sweeps end in, so an oracle and a sweep
keep points by the same rule; it is the only thing taken from ``regions`` besides the ``Frontier`` and
``RatePoint`` containers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import CqBroadcastChannel, _cascade_tables
from .errors import BudgetError, ValidationError, integer
from .regions import Frontier, RatePoint, pareto_staircase

MAX_CANDIDATES = 2_000_000
_CHUNK = 8192  # candidates per evaluation block: larger blocks only raise peak memory
_CLAMP = 1e-12


def mesh_tolerance(mesh: int) -> float:
    """Frontier slack attributable to the grid: 1.5 / mesh (0.15 at mesh 10)."""
    return 1.5 / integer(mesh, "mesh", 1)


def composition_count(total: int, parts: int) -> int:
    """Stars-and-bars count of nonnegative integer compositions."""
    return math.comb(total + parts - 1, parts - 1)


def _composition_table(total: int, parts: int) -> np.ndarray:
    """(count, parts) table of every composition of ``total``, rows in lexicographic order.

    Stars and bars: each choice of ``parts - 1`` bar positions among ``total + parts - 1``
    slots, in ``itertools.combinations`` order, is one row, its parts the gaps between bars.
    Entries use the smallest integer type that holds ``total``.
    """
    total, parts = integer(total, "total", 0), integer(parts, "parts", 1)
    slots, count = total + parts - 1, composition_count(total, parts)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
                       dtype=np.intp, count=count * (parts - 1)).reshape(count, parts - 1)
    return (np.diff(bars, axis=1, prepend=-1, append=slots) - 1).astype(np.min_scalar_type(total))


def compositions(total: int, parts: int):
    """Yield all nonnegative integer tuples of the given length summing to total."""
    for row in _composition_table(total, parts).tolist():
        yield tuple(row)


def _label_blocks(mesh: int, t_size: int, n_x: int) -> np.ndarray:
    """Every block p(t, .) a label can hold, in mesh units and lexicographic order: mass <= mesh (= at t_size 1)."""
    return _composition_table(mesh, n_x + (t_size > 1))[:, :n_x]


def _enumerate_joints(mesh: int, t_size: int, n_x: int) -> np.ndarray:
    """One joint per relabeling of the labels, as a row of ``_label_blocks`` indices: the composition-table
    rows whose label blocks ascend lexicographically, in table order.  Rows grow a block at a time, taking each
    block of mass <= their rest (exactly the rest at the last label) at or after their last one, so the full
    table is never built; the orbit sizes t_size!/prod(multiplicity!) sum to the stars-and-bars count, the
    budget.  Blocks are numbered lexicographically, so children ordered by block index keep the rows in table
    order; at the last label a row takes one mass, and its children come out in that order already."""
    count = composition_count(mesh, t_size * n_x)
    if count > MAX_CANDIDATES:
        raise BudgetError(f"grid enumeration would need {count} candidates (limit {MAX_CANDIDATES}); "
                          f"reduce mesh or t_size")
    mass = _label_blocks(mesh, t_size, n_x).sum(axis=1, dtype=np.intp)
    order = np.argsort(mass, kind="stable")  # blocks by mass, then by index
    key = mass[order] * len(mass) + order
    rows = np.zeros((1, 0), np.intp)
    last, rest, run, orbit = np.zeros(1, np.intp), np.full(1, mesh), np.zeros(1, np.intp), np.ones(1, np.intp)
    for depth in range(1, t_size + 1):
        span = np.where(depth == t_size, 1, rest + 1)  # a row's next block has mass rest - span + 1 .. rest
        pair = np.repeat(np.arange(len(rest)), span)
        m = np.arange(pair.size) + np.repeat(rest + 1 - span.cumsum(), span)
        start = np.searchsorted(key, m * len(mass) + last[pair])  # first block of mass m at or after the row's last
        take = np.searchsorted(key, (m + 1) * len(mass)) - start
        parent = np.repeat(pair, take)
        child = order[np.arange(parent.size) + np.repeat(start + take - take.cumsum(), take)]
        if depth < t_size:  # children by block index; the last depth's already are
            table = np.argsort(parent * len(mass) + child, kind="stable")
            parent, child = parent[table], child[table]
        run = np.where(child == last[parent], run[parent] + 1, 1)
        orbit = orbit[parent] * depth // run
        rows, last, rest = np.column_stack((rows[parent], child)), child, rest[parent] - mass[child]
    if orbit.sum() != count:
        raise RuntimeError(f"{len(rows)} orbits hold {orbit.sum()} joints, stars-and-bars says {count}")
    return rows


def _table_entropy(table: np.ndarray) -> np.ndarray:
    """Shannon entropy of probability tables flattened over all but the first axis."""
    flat = table.reshape(table.shape[0], -1)
    logs = np.where(flat > _CLAMP, np.log2(np.maximum(flat, _CLAMP)), 0.0)
    return -(flat * logs).sum(axis=-1)


def _receiver_kernel(stack: np.ndarray):
    """(mixing matrix, entropy of mixed rows) for one receiver's (x, d, d) stack.  An exactly diagonal
    stack mixes real diagonals whose spectra are those diagonals sorted ascending, as ``eigvalsh`` returns
    them, so the sums run in the same order; others mix flattened matrices and take ``eigvalsh``."""
    n_x, d = stack.shape[0], stack.shape[-1]
    if np.array_equal(stack, stack * np.eye(d)):
        mix, spectra = np.diagonal(stack, axis1=1, axis2=2).real.copy(), lambda rows: np.sort(rows, axis=-1)
    else:
        mix, spectra = stack.reshape(n_x, d * d), lambda rows: np.linalg.eigvalsh(rows.reshape(-1, d, d))
    return mix, lambda rows: _table_entropy(np.clip(spectra(rows).reshape(-1, d), 0.0, None)).reshape(rows.shape[:-1])


def _pareto_points(commons: np.ndarray, personals: np.ndarray, blocks: np.ndarray, rows: np.ndarray,
                   meta: dict, r_grid: int | None) -> Frontier:
    """The shared Pareto staircase of the candidates, resampled at ``r_grid`` even commons when given."""
    frontier = Frontier(pareto_staircase(commons, personals, lambda i: {"joint": blocks[rows[i]].tolist()}), meta)
    if r_grid is None:
        return frontier
    resampled = []
    for r in np.linspace(0.0, frontier.max_common(), r_grid):
        hit = frontier.point_at(r, slack=1e-12)  # a staircase always holds a point at max_common()
        resampled.append(RatePoint(float(r), hit.personal_rate, dict(hit.witness, r_target=float(r))))
    return Frontier(resampled, dict(meta, resampled=True))


def _scan(mode: str, rates, mesh: int, t_size: int, n_x: int, r_grid: int | None) -> Frontier:
    """An oracle's frontier: ``rates(blocks)`` tabulates the per-block terms once and returns ``chunk(rows) ->
    (commons, personals)``, run on ``_CHUNK`` rows of ``_enumerate_joints`` at a time, clipped at 0 and passed
    to ``_pareto_points``."""
    rows = _enumerate_joints(mesh, t_size, n_x)
    blocks = _label_blocks(mesh, t_size, n_x) / float(mesh)
    chunk = rates(blocks)
    commons, personals = np.empty(len(rows)), np.empty(len(rows))
    for lo in range(0, len(rows), _CHUNK):
        commons[lo:lo + _CHUNK], personals[lo:lo + _CHUNK] = chunk(rows[lo:lo + _CHUNK])
    meta = {"mode": mode, "t_size": t_size, "mesh": mesh, "candidates": composition_count(mesh, t_size * n_x)}
    return _pareto_points(np.maximum(commons, 0.0), np.maximum(personals, 0.0), blocks, rows, meta, r_grid)


def grid_cq_frontier(w: CqBroadcastChannel, t_size: int, mesh: int, r_grid: int | None = None) -> Frontier:
    """Exact Pareto frontier of (min label-Holevo, conditional label-Holevo to B)
    over every mesh-grid joint distribution p(t, x).

    The nominal budget envelope is |X| <= 3, t_size <= 4, mesh <= 12; anything
    whose stars-and-bars count stays under ``MAX_CANDIDATES`` is accepted.
    """
    if not isinstance(w, CqBroadcastChannel):
        raise ValidationError("grid oracle expects a cq broadcast channel")
    t_size, mesh = integer(t_size, "t_size", 1), integer(mesh, "mesh", 1)
    r_grid = None if r_grid is None else integer(r_grid, "r_grid", 1)
    n_x = w.n_symbols
    kernels = [_receiver_kernel(w.marginal_conditionals(label)) for label in (w.b_label, w.c_label)]
    h_b_x = kernels[0][1](kernels[0][0])  # H(B | X = x) for each symbol x

    def rates(blocks):
        p_t = blocks.sum(axis=1)
        inv_p_t = (1.0 / np.where(p_t > 0, p_t, 1.0))[:, None]
        # p_t * H(label state) for each block and receiver
        terms = [p_t * np.where(p_t > 0, entropy((blocks @ mix) * inv_p_t), 0.0) for mix, entropy in kernels]

        def chunk(rows):
            p_x = np.take(blocks, rows, axis=0).sum(axis=1)
            (cond_b, h_b), (cond_c, h_c) = ((np.take(t, rows).sum(axis=1), entropy(p_x @ mix))
                                            for t, (mix, entropy) in zip(terms, kernels))
            return np.minimum(h_b - cond_b, h_c - cond_c), cond_b - p_x @ h_b_x
        return chunk

    return _scan("oracle-grid", rates, mesh, t_size, n_x, r_grid)


@dataclass
class CardinalityReport:
    """Effect of enlarging the label alphabet past its nominal bound."""

    bound: int
    extra: int
    mesh: int
    improvement: float
    at_common: float
    reach_gain: float
    base: Frontier
    extended: Frontier


def cardinality_probe(w: CqBroadcastChannel, bound: int, extra: int, mesh: int) -> CardinalityReport:
    """Compare grid frontiers at t_size = bound and bound + extra.

    ``improvement`` is the largest personal-rate gain over the base frontier's
    common rates (a base representative padded with leading zero blocks is an
    extended representative with the same rates, so the gain is nonnegative);
    ``reach_gain`` is the gain in maximal common rate.
    """
    # extra >= 1: the extended alphabet has to contain the base one
    bound, extra, mesh = integer(bound, "bound", 1), integer(extra, "extra", 1), integer(mesh, "mesh", 1)
    base = grid_cq_frontier(w, bound, mesh)
    extended = grid_cq_frontier(w, bound + extra, mesh)
    improvement = 0.0
    at_common = 0.0
    for pt in base.points:
        gain = extended.value_at(pt.common_rate, slack=1e-12) - pt.personal_rate
        if gain > improvement:
            improvement = gain
            at_common = pt.common_rate
    reach = extended.max_common() - base.max_common()
    return CardinalityReport(bound, extra, mesh, float(improvement), float(at_common),
                             float(max(reach, 0.0)), base, extended)


def classical_degraded_region(p_y_given_x: np.ndarray, p_z_given_y: np.ndarray, mesh: int,
                              t_size: int | None = None) -> Frontier:
    """Exhaustive (I(T;Z), I(X;Y|T)) frontier for a classical cascade X -> Y -> Z.

    Pure probability-table computation, independent of the matrix machinery.
    ``t_size`` defaults to one more than the smallest alphabet involved.
    """
    p1, p2 = _cascade_tables(p_y_given_x, p_z_given_y)
    (ny, n_x), nz = p1.shape, p2.shape[0]
    if t_size is None:
        t_size = min(n_x, ny, nz) + 1
    t_size, mesh = integer(t_size, "t_size", 1), integer(mesh, "mesh", 1)
    pz_x = p2 @ p1

    def rates(blocks):
        # each block's p log p for every cell of its rows of p(t, z), p(t), p(t, x), p(t, y) and p(t, x, y); an
        # entropy negates the sum of its cells in flat (label, cell) order, as _table_entropy does
        p_tz = blocks @ pz_x.T
        tables = [p_tz, blocks.sum(axis=1), blocks, blocks @ p1.T, blocks[..., None] * p1.T]
        cells = [-_table_entropy(table.reshape(-1, 1)).reshape(len(blocks), -1) for table in tables]

        def chunk(rows):
            h_tz, h_t, h_tx, h_ty, h_txy = (-np.take(c, rows, axis=0).reshape(len(rows), -1).sum(axis=-1)
                                            for c in cells)
            return h_t + _table_entropy(np.take(p_tz, rows, axis=0).sum(axis=1)) - h_tz, h_tx + h_ty - h_txy - h_t
        return chunk

    return _scan("oracle-classical", rates, mesh, t_size, n_x, None)
