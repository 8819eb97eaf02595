"""Shared closed-form references used across the test modules.

Everything here is computed from scratch (bisection on binary entropy, plain
table entropies) so test expectations never route through the package's own
entropy code.  ``central_differences`` is the reference gradient of every
gradient test.  ``rotated_pinching_cq`` is the shared non-diagonal test channel;
``c_rotated_pinching_cq`` and ``generic_dephasing`` mix diagonal and dense receivers;
``seeded_dephasing_doc`` is the seeded channel document of the degradedness checks.
"""

import math

import numpy as np

import qbroadcast as qb

FD_STEP = 1e-5  # central-difference step


def central_differences(batch_fn):
    """Gradient function estimating the gradient of ``batch_fn`` by central differences.

    The 2n perturbations of every row go through ``batch_fn`` as one call.
    """
    def grad_fn(thetas: np.ndarray) -> np.ndarray:
        m, n = thetas.shape
        signed = np.zeros((2 * n, n))
        signed[0::2] = np.eye(n) * FD_STEP
        signed[1::2] = -np.eye(n) * FD_STEP
        pert = (thetas[:, None, :] + signed[None, :, :]).reshape(m * 2 * n, n)
        gvals = np.asarray(batch_fn(pert), dtype=float).reshape(m, 2 * n)
        return (gvals[:, 0::2] - gvals[:, 1::2]) / (2.0 * FD_STEP)
    return grad_fn


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def h2_inverse_low(r: float) -> float:
    """Inverse of the binary entropy on [0, 1/2]."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h2(mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def convolve_flip(a: float, b: float) -> float:
    return a * (1 - b) + (1 - a) * b


def pinching_truth(common: float) -> float:
    """Max personal rate of the pinching region at a given common rate."""
    if common >= 1.0:
        return 0.5
    return 1.0 - h2_inverse_low(min(max(common, 0.0), 1.0))


def pinching_cq_truth(common: float) -> float:
    """Max personal rate of the three-symbol cq pinching region."""
    if common <= h2(1.0 / 3.0) + 1e-12:
        return math.log2(3.0) - common
    return 1.0 - h2_inverse_low(min(common, 1.0))


def cascade_truth(common: float, flip1: float = 0.1, flip2: float = 0.2) -> float:
    """Max I(X;Y|T) at given I(T;Z) for the symmetric binary cascade."""
    total = convolve_flip(flip1, flip2)
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - h2(convolve_flip(mid, total)) > common:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    return h2(convolve_flip(a, flip1)) - h2(flip1)


def spectrum_entropy(mat: np.ndarray) -> float:
    """Reference von Neumann entropy: plain eigvalsh, no block tricks."""
    evals = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    evals = evals[evals > 1e-12]
    return float(-(evals * np.log2(evals)).sum())


def staircase_distance(rows, point) -> float:
    """Chebyshev distance from (common, personal) to the staircase boundary.

    ``rows`` are Pareto points sorted by ascending common rate; the staircase
    is the boundary of the union of rectangles [0, c_i] x [0, p_i].
    """
    rows = sorted(rows)
    segs = []
    c0, p0 = rows[0]
    segs.append(("h", 0.0, c0, p0))
    for (ca, pa), (cb, pb) in zip(rows, rows[1:]):
        segs.append(("v", pb, pa, ca))
        segs.append(("h", ca, cb, pb))
    c_last, p_last = rows[-1]
    segs.append(("v", 0.0, p_last, c_last))
    x, y = point
    best = math.inf
    for kind, lo, hi, at in segs:
        if kind == "h":
            d = max(max(lo - x, x - hi, 0.0), abs(y - at))
        else:
            d = max(max(lo - y, y - hi, 0.0), abs(x - at))
        best = min(best, d)
    return best


def rotated_pinching_cq(rotate_b: bool = True):
    """pinching-cq with every conditional conjugated by a seeded random U_B (x) U_C:
    the same entropies, but no receiver stack is diagonal any more.  With
    ``rotate_b=False`` U_B is the identity and only the C stack leaves the diagonal."""
    w = qb.make_pinching_cq()
    rng = np.random.default_rng(2024)

    def unitary(d):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    lay = w.out_layout
    u_b, u_c = unitary(lay.dims[0]), unitary(lay.dims[1])
    u = np.kron(u_b if rotate_b else np.eye(lay.dims[0]), u_c)
    return qb.CqBroadcastChannel(w.symbols, u @ w.states @ u.conj().T, lay)


def c_rotated_pinching_cq():
    """pinching-cq with only the C conditionals rotated: B stays diagonal, C does not."""
    return rotated_pinching_cq(rotate_b=False)


def generic_dephasing():
    """A seeded generalized-dephasing channel, 3 inputs, C dim 2, E dim 2: its C and CE
    stacks are not diagonal, its basis B stack always is."""
    rng = np.random.default_rng(31)
    vecs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    return qb.make_generalized_dephasing(qb.DephasingSpec(2, 2, vecs / np.linalg.norm(vecs, axis=1, keepdims=True)))


def seeded_dephasing_doc(seed=1001):
    """Generalized dephasing, 3 inputs, C dim 2: unit C vectors drawn around base seed 12345 with noise 0.05."""
    base = np.random.default_rng(12345)
    vecs = base.standard_normal((3, 2)) + 1j * base.standard_normal((3, 2))
    rng = np.random.default_rng(seed)
    vecs = vecs + 0.05 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return {"kind": "dephasing", "c_dim": 2, "e_dim": 1, "images": np.stack([vecs.real, vecs.imag], axis=-1).tolist()}


def random_channel(rng, d_in, d_out, n_env):
    """Haar-ish channel from a random isometry, as a list of Kraus operators."""
    g = rng.standard_normal((d_out * n_env, d_in)) + 1j * rng.standard_normal((d_out * n_env, d_in))
    v, _ = np.linalg.qr(g)
    v = v[:, :d_in]
    return [v[e::n_env, :] for e in range(n_env)]


def apply_kraus(ops, rho):
    return sum(k @ rho @ k.conj().T for k in ops)


def few_symbol_degraded_cq(unprobed: bool = False) -> qb.CqBroadcastChannel:
    """Two diagonal B states with d_B = 3 and C = a fixed random channel of B: degraded and commuting, with
    fewer symbols than d_B.  With ``unprobed`` neither B state weighs the third basis state."""
    rng = np.random.default_rng(0)
    post = random_channel(rng, 3, 2, 2)
    states = []
    for _ in range(2):
        p = rng.dirichlet(np.ones(2 if unprobed else 3))
        b = np.diag(np.r_[p, 0.0] if unprobed else p).astype(complex)
        states.append(np.kron(b, apply_kraus(post, b)))
    return qb.CqBroadcastChannel(range(2), states, qb.layout(("B", 3), ("C", 2)))


def degraded_commuting_cq(seed) -> qb.CqBroadcastChannel:
    """Random diagonal B states (d_B, d_C in 2-3, 2 to d_B + 1 symbols) and C = a random channel of B: degraded and
    commuting."""
    rng = np.random.default_rng(seed)
    db, dc = (int(d) for d in rng.integers(2, 4, size=2))
    x = int(rng.integers(2, db + 2))
    post = random_channel(rng, db, dc, 2)
    states = []
    for _ in range(x):
        b = np.diag(rng.dirichlet(np.ones(db))).astype(complex)
        states.append(np.kron(b, apply_kraus(post, b)))
    return qb.CqBroadcastChannel(range(x), states, qb.layout(("B", db), ("C", dc)))
