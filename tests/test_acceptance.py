"""End-to-end acceptance checks, one test per criterion.

Each test prints one "[criterion NN] PASS/FAIL" line with the measured numbers,
so a plain ``pytest -v`` run doubles as a scoreboard. Reference values come
from closed forms and breadth-first oracles (here or in conftest), never from
the code under test.
"""

import math
import time

import numpy as np
import pytest

import qbroadcast as qb

from conftest import (
    cascade_truth,
    h2,
    pinching_cq_truth,
    spectrum_entropy,
    staircase_distance,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def probe_densities(n: int) -> list:
    """Basis states plus real and imaginary pairwise superpositions."""
    probes = []
    for x in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[x, x] = 1.0
        probes.append(e)
    for x in range(n):
        for y in range(x + 1, n):
            for phase in (1.0, 1j):
                v = np.zeros(n, dtype=complex)
                v[x], v[y] = 1.0, phase
                probes.append(np.outer(v, v.conj()) / 2.0)
    return probes


def trace_keep(mat, dims, keep):
    n = len(dims)
    t = mat.reshape(*dims, *dims)
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    return t.reshape(int(np.prod([dims[i] for i in keep])), -1)


def coherent_info_ref(mat, dims, a_axes, b_axes) -> float:
    h_ab = spectrum_entropy(trace_keep(mat, dims, sorted(a_axes + b_axes)))
    h_b = spectrum_entropy(trace_keep(mat, dims, sorted(b_axes)))
    return h_b - h_ab


@pytest.fixture(scope="module")
def pinching_dephasing():
    """Default-config dephasing frontier of the pinching channel (criteria 1, 2)."""
    start = time.perf_counter()
    frontier = qb.dephasing_cq_frontier(qb.make_pinching())
    return frontier, time.perf_counter() - start


def test_criterion_01_pinching_dephasing_checkpoints(pinching_dephasing):
    frontier, elapsed = pinching_dephasing
    rows = [tuple(r) for r in frontier.as_array()]
    checkpoints = [(1.0, 0.0), (1.0, 0.25), (1.0, 0.5), (h2(0.75), 0.75), (0.0, 1.0)]
    worst = max(staircase_distance(rows, pt) for pt in checkpoints)
    ok = worst <= 1e-2 and elapsed < 300.0
    report(1, ok, f"pinching dephasing frontier hits the five closed-form "
                  f"checkpoints within {worst:.2e} (tol 1e-2) in {elapsed:.0f}s")


def test_criterion_02_qq_equals_dephasing(pinching_dephasing):
    frontier, _ = pinching_dephasing
    qq = qb.qq_frontier(qb.make_pinching())
    a, b = qq.as_array(), frontier.as_array()
    same_shape = a.shape == b.shape
    diff = float(np.abs(a - b).max()) if same_shape else math.inf
    ok = same_shape and diff <= 1e-9
    report(2, ok, f"fully quantum pinching frontier matches the dephasing "
                  f"frontier pointwise, max diff {diff:.1e} (tol 1e-9)")


def bsc(f: float) -> np.ndarray:
    return np.array([[1.0 - f, f], [f, 1.0 - f]])


def test_criterion_03_cascade_engine_vs_classical_oracle():
    oracle = qb.classical_degraded_region(bsc(0.1), bsc(0.2), mesh=12)
    shared = [(p.common_rate, p.personal_rate) for p in oracle.points
              if abs(p.personal_rate - cascade_truth(p.common_rate)) <= 1e-3]
    cert = qb.certify_single_letter_cq(qb.make_bsc_cascade(0.1, 0.2),
                                       r_values=[c for c, _ in shared])
    engine = {p.witness["r_target"]: p.personal_rate for p in cert.frontier.points}
    missing = [c for c, _ in shared if c not in engine]
    worst = max((abs(engine[c] - p) for c, p in shared if c in engine),
                default=math.inf)
    ok = (cert.certified and len(shared) == 17 and not missing and worst <= 2e-3)
    report(3, ok, f"certified cascade engine vs mesh-12 classical oracle on a "
                  f"shared {len(shared)}-point grid: worst gap {worst:.2e} "
                  f"(tol 2e-3), degradedness residual {cert.residual:.1e}")


def test_criterion_04_engine_sandwiched_by_oracle():
    mesh = 12
    cases = [
        ("noiseless-bit", qb.make_noiseless_bit(), lambda c: 1.0 - c, 57),
        ("constant", qb.make_constant_cq(), lambda c: 0.0, 1),
        ("pinching-cq", qb.make_pinching_cq(), pinching_cq_truth, 27),
    ]
    slack = qb.mesh_tolerance(mesh) + 1e-9
    fails, counts = [], []
    for name, w, truth, expected_n in cases:
        oracle = qb.grid_cq_frontier(w, t_size=3, mesh=mesh)
        tight = [(p.common_rate, p.personal_rate) for p in oracle.points
                 if abs(p.personal_rate - truth(p.common_rate)) <= 1e-9]
        counts.append((name, len(tight), expected_n))
        fr = qb.cq_broadcast_frontier(w, r_values=[c for c, _ in tight])
        got = {p.witness["r_target"]: p.personal_rate for p in fr.points}
        for c, p in tight:
            e = got.get(c)
            if e is None or not (p - slack <= e <= p + 1e-3):
                fails.append((name, round(c, 4), e))
    ok = not fails and all(n == want for _, n, want in counts)
    total = sum(n for _, n, _ in counts)
    report(4, ok, f"optimizer personal rates sit inside [oracle - mesh error, "
                  f"oracle + 1e-3] at all {total} truth-tight commons "
                  f"({', '.join(f'{nm} {n}' for nm, n, _ in counts)})"
                  + (f"; violations: {fails[:4]}" if fails else ""))


def test_criterion_05_cardinality_saturation():
    probes = [("noiseless-bit", qb.make_noiseless_bit(), 2, 12),
              ("constant", qb.make_constant_cq(), 2, 12),
              ("pinching-cq", qb.make_pinching_cq(), 3, 8)]
    ok = True
    rows = []
    for name, w, bound, mesh in probes:
        rep = qb.cardinality_probe(w, bound=bound, extra=2, mesh=mesh)
        limit = 1e-3 + qb.mesh_tolerance(mesh)
        rows.append(f"{name} {rep.improvement:.4f} <= {limit:.4f}")
        ok = ok and rep.improvement <= limit and rep.reach_gain <= 1e-12
    report(5, ok, "two extra auxiliary symbols never beat the nominal bound by "
                  "more than 1e-3 + mesh error: " + "; ".join(rows))


def random_qubit_channel(rng) -> qb.KrausChannel:
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(g)
    return qb.KrausChannel([q[:2, :], q[2:, :]], qb.layout(("Bp", 2)))


def test_criterion_06_inequality_suite():
    n = 1000
    tol = 1e-9
    start = time.perf_counter()
    worst = {}

    rng = qb.seeded_rng(601)
    v = 0.0
    for _ in range(n):
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2), ("C", 2)), rng)
        v = max(v, -qb.conditional_mutual_information(rho, "A", "B", "C"))
    worst["strong subadditivity"] = v

    rng = qb.seeded_rng(602)
    v = 0.0
    for _ in range(n):
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2), ("C", 2)), rng)
        v = max(v, qb.conditional_entropy(rho, "A", {"B", "C"})
                - qb.conditional_entropy(rho, "A", "B"))
    worst["conditioning reduces entropy"] = v

    rng = qb.seeded_rng(603)
    v_mi = v_coh = 0.0
    for _ in range(n):
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2)), rng)
        out = random_qubit_channel(rng).apply_to(rho, "B")
        v_mi = max(v_mi, qb.mutual_information(out, "A", "Bp")
                   - qb.mutual_information(rho, "A", "B"))
        v_coh = max(v_coh, qb.coherent_information(out, "A", "Bp")
                    - qb.coherent_information(rho, "A", "B"))
    worst["data processing, mutual information"] = v_mi
    worst["data processing, coherent information"] = v_coh

    rng = qb.seeded_rng(604)
    v = 0.0
    for _ in range(n):
        rho = qb.random_density_matrix(
            qb.layout(("A1", 2), ("B1", 2), ("A2", 2), ("B2", 2)), rng)
        v = max(v, qb.conditional_entropy(rho, {"A1", "A2"}, {"B1", "B2"})
                - qb.conditional_entropy(rho, "A1", "B1")
                - qb.conditional_entropy(rho, "A2", "B2"))
    worst["quadripartite subadditivity"] = v

    rng = qb.seeded_rng(605)
    v_lo = v_hi = 0.0
    for _ in range(n):
        d = int(rng.integers(2, 5))
        lay = qb.layout(("A", d))
        rho = qb.random_density_matrix(lay, rng)
        sig = qb.random_density_matrix(lay, rng)
        f = qb.fidelity(rho, sig)
        t = qb.trace_distance(rho, sig)
        v_lo = max(v_lo, (1.0 - t) - f)
        v_hi = max(v_hi, t - 2.0 * math.sqrt(max(1.0 - f, 0.0)))
    worst["fidelity lower-bounds trace distance"] = v_lo
    worst["trace distance upper bound"] = v_hi

    rng = qb.seeded_rng(606)
    v_h = v_i = d_max = 0.0
    lay = qb.layout(("A", 2), ("B", 2))
    log_ab = 2.0
    for _ in range(n):
        rho = qb.random_density_matrix(lay, rng)
        tau = qb.random_density_matrix(lay, rng)
        u = float(rng.uniform(0.0, 0.18))
        sig = qb.DensityMatrix((1.0 - u) * rho.matrix + u * tau.matrix, lay)
        delta = qb.trace_distance(rho, sig)
        d_max = max(d_max, delta)
        v_h = max(v_h, abs(qb.conditional_entropy(rho, "A", "B")
                           - qb.conditional_entropy(sig, "A", "B"))
                  - (2.0 * h2(delta) + 4.0 * delta * log_ab))
        v_i = max(v_i, abs(qb.mutual_information(rho, "A", "B")
                           - qb.mutual_information(sig, "A", "B"))
                  - (3.0 * h2(delta) + 6.0 * delta * log_ab))
    assert d_max <= 1.0 / math.e, "continuity samples must stay below 1/e"
    worst["conditional entropy continuity"] = v_h
    worst["mutual information continuity"] = v_i

    rng = qb.seeded_rng(607)
    v = 0.0
    for _ in range(n):
        d = int(rng.integers(2, 5))
        lay = qb.layout(("A", d))
        rho = qb.random_density_matrix(lay, rng)
        sig = qb.random_density_matrix(lay, rng)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(g)
        eff = (q * rng.uniform(0.0, 1.0, size=d)) @ q.conj().T
        gap = (float(np.trace(eff @ rho.matrix).real) - qb.trace_distance(rho, sig)
               - float(np.trace(eff @ sig.matrix).real))
        v = max(v, gap)
    worst["measurement stability"] = v

    rng = qb.seeded_rng(608)
    v = 0.0
    for _ in range(n):
        rho = qb.random_density_matrix(qb.layout(("A", 2), ("B", 2)), rng)
        psi = qb.random_pure_state(qb.layout(("A", 2)), rng).to_density()
        sig_b = qb.random_density_matrix(qb.layout(("B", 2)), rng)
        rho_a = qb.partial_trace(rho, {"A"})
        rho_b = qb.partial_trace(rho, {"B"})
        lhs = qb.fidelity(rho, qb.tensor_product(psi, sig_b))
        rhs = (1.0 - 3.0 * (1.0 - qb.fidelity(psi, rho_a))
               - qb.trace_distance(rho_b, sig_b))
        v = max(v, rhs - lhs)
    worst["product approximation fidelity"] = v

    elapsed = time.perf_counter() - start
    bad = sorted(k for k, x in worst.items() if x > tol)
    peak = max(worst.values())
    ok = not bad and elapsed < 120.0
    report(6, ok, f"{len(worst)} inequalities x {n} seeded samples: worst "
                  f"violation {peak:.1e} (tol 1e-9) in {elapsed:.0f}s"
                  + (f"; failing: {bad}" if bad else ""))


def test_criterion_07_anchor_values():
    epr = qb.maximally_entangled(2).to_density()
    half = qb.DensityMatrix(np.eye(2, dtype=complex) / 2.0, qb.layout(("in", 2)))
    zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    lay = qb.layout(("B", 2))
    cq = qb.CqState({0: 0.5, 1: 0.5},
                    {0: qb.DensityMatrix(zero, lay), 1: qb.DensityMatrix(plus, lay)})
    checks = [
        ("EPR H(A|B) = -1",
         abs(qb.conditional_entropy(epr, "A", "B") + 1.0), 1e-12),
        ("identity coherent information = 1",
         abs(qb.channel_coherent_information(half, qb.make_identity_channel(2)) - 1.0),
         1e-9),
        ("completely dephasing coherent information = 0",
         abs(qb.channel_coherent_information(half, qb.make_completely_dephasing(2))),
         1e-9),
        ("two-state Holevo quantity",
         abs(qb.holevo_information(cq) - h2(math.cos(math.pi / 8.0) ** 2)), 1e-9),
    ]
    bad = [name for name, err, tl in checks if err > tl]
    peak = max(err for _, err, _ in checks)
    report(7, not bad, f"four pinned anchors, worst error {peak:.1e}"
                       + (f"; failing: {bad}" if bad else ""))


def test_criterion_08_generalized_dephasing_structure():
    rng = qb.seeded_rng(88)
    worst_marg = 0.0
    worst_ent = -math.inf
    for _ in range(50):
        c_dim = int(rng.integers(1, 4))
        e_dim = int(rng.integers(1, 3))
        n_in = int(rng.integers(2, 5))
        g = (rng.standard_normal((n_in, c_dim * e_dim))
             + 1j * rng.standard_normal((n_in, c_dim * e_dim)))
        spec = qb.DephasingSpec(c_dim, e_dim,
                                g / np.linalg.norm(g, axis=1, keepdims=True))
        ch = qb.make_generalized_dephasing(spec)
        nb, nc = ch.marginals()
        lay = qb.layout(("in", n_in))
        for p in probe_densities(n_in):
            dephased = qb.DensityMatrix(np.diag(np.diag(p)).astype(complex), lay)
            diff = np.abs(nc.apply(dephased).matrix
                          - nc.apply(qb.DensityMatrix(p, lay)).matrix).max()
            worst_marg = max(worst_marg, float(diff))
        for _ in range(50):
            rho = qb.random_density_matrix(lay, rng)
            h_deph = spectrum_entropy(np.diag(np.diag(rho.matrix)))
            h_b = spectrum_entropy(nb.apply(rho).matrix)
            worst_ent = max(worst_ent, h_b - h_deph)
    ok = worst_marg <= 1e-9 and worst_ent <= 1e-9
    report(8, ok, f"50 random dephasing specs: C-marginal invariant under input "
                  f"dephasing within {worst_marg:.1e}, and dephased-input entropy "
                  f"dominates the B-output entropy within {worst_ent:.1e} "
                  f"(tol 1e-9)")


def test_criterion_09_degradedness_both_directions():
    pinching = qb.make_pinching()
    nb, nc = pinching.marginals()
    fwd = qb.degradedness_residual(pinching)
    lay = qb.layout(("in", pinching.in_dim))
    worst_map = max(
        float(np.abs(fwd.degrading_map.apply(nb.apply(qb.DensityMatrix(p, lay))).matrix
                     - nc.apply(qb.DensityMatrix(p, lay)).matrix).max())
        for p in probe_densities(pinching.in_dim))
    rev = qb.degradedness_residual((nc, nb))
    ok = (fwd.certified and fwd.residual <= 1e-6 and worst_map <= 1e-6
          and not rev.certified and rev.residual > 0.1 and rev.floor > 0.1)
    report(9, ok, f"pinching is degraded toward C (residual {fwd.residual:.1e}, "
                  f"recovered map reproduces the C marginal within "
                  f"{worst_map:.1e}) but not toward B (residual "
                  f"{rev.residual:.3f}, no map below the contraction floor "
                  f"{rev.floor:.3f} > 0.1)")


def test_criterion_10_worked_rate_examples():
    fails = []

    def check(name, got, want):
        if abs(got - want) > 1e-9:
            fails.append(f"{name}: {got:.6f} vs {want:.6f}")

    epr = np.zeros(4, dtype=complex)
    epr[0] = epr[3] = 1.0 / math.sqrt(2.0)

    # merging (a): receiver C is trivial, so nothing can be merged onto it
    ch = qb.BroadcastChannel([np.kron(np.eye(2, dtype=complex), np.ones((1, 1)))],
                             qb.layout(("B", 2), ("C", 1)))
    psi = qb.PureState(epr, qb.layout(("R", 2), ("in", 2)))
    rates = qb.merging_rates(ch, psi)
    mat = ch.apply_to(psi.to_density(), "in").reorder(("R", "B", "C")).matrix
    check("trivial-C q_c", rates.q_c_bound, coherent_info_ref(mat, (2, 2, 1), [0], [1, 2]))
    check("trivial-C bc", rates.bc_distill, coherent_info_ref(mat, (2, 2, 1), [1], [2]))
    check("trivial-C q_c pinned", rates.q_c_bound, 1.0)
    check("trivial-C bc pinned", rates.bc_distill, -1.0)
    if rates.feasible:
        fails.append("trivial-C must be infeasible")

    # merging (b): basis-copying channel on half an entangled pair
    ch = qb.make_ghz_copy()
    psi = qb.PureState(epr, qb.layout(("A", 2), ("in", 2)))
    rates = qb.merging_rates(ch, psi)
    mat = ch.apply_to(psi.to_density(), "in").reorder(("A", "B", "C")).matrix
    check("ghz-copy q_c", rates.q_c_bound, coherent_info_ref(mat, (2, 2, 2), [0], [1, 2]))
    check("ghz-copy bc", rates.bc_distill, coherent_info_ref(mat, (2, 2, 2), [1], [2]))
    check("ghz-copy q_c pinned", rates.q_c_bound, 1.0)
    check("ghz-copy bc pinned", rates.bc_distill, 0.0)
    if rates.feasible:
        fails.append("ghz-copy must be infeasible")

    # merging (c): split copy keeps a clean B-C entanglement resource
    v = np.zeros((8, 4), dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            v[x1 * 4 + x1 * 2 + x2, x1 * 2 + x2] = 1.0
    ch = qb.BroadcastChannel([v], qb.layout(("B", 2), ("C", 4)))
    vec = np.zeros(8, dtype=complex)
    for r in range(2):
        for x1 in range(2):
            vec[r * 4 + x1 * 2 + r] = 0.5
    psi = qb.PureState(vec, qb.layout(("R", 2), ("in", 4)))
    rates = qb.merging_rates(ch, psi)
    mat = ch.apply_to(psi.to_density(), "in").reorder(("R", "B", "C")).matrix
    check("split-copy q_c", rates.q_c_bound, coherent_info_ref(mat, (2, 2, 4), [0], [1, 2]))
    check("split-copy bc", rates.bc_distill, coherent_info_ref(mat, (2, 2, 4), [1], [2]))
    check("split-copy q_c pinned", rates.q_c_bound, 1.0)
    check("split-copy bc pinned", rates.bc_distill, 1.0)
    if not rates.feasible:
        fails.append("split-copy must be feasible")

    dbl = np.zeros(16, dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            dbl[x1 * 8 + x2 * 4 + x1 * 2 + x2] = 0.5
    double_epr = qb.PureState(dbl, qb.layout(("Rb", 2), ("Rc", 2), ("in", 4)))
    dims = (2, 2, 2, 2)

    def indep_case(name, ch, want_b, want_c, feas_b, feas_c):
        rates = qb.independent_rates(ch, double_epr)
        mat = ch.apply_to(double_epr.to_density(), "in").reorder(
            ("Rb", "Rc", "B", "C")).matrix
        check(f"{name} rate_b", rates.rate_b, coherent_info_ref(mat, dims, [0], [2]))
        check(f"{name} rate_c", rates.rate_c, coherent_info_ref(mat, dims, [1], [3]))
        check(f"{name} rate_b pinned", rates.rate_b, want_b)
        check(f"{name} rate_c pinned", rates.rate_c, want_c)
        if rates.feasible_b != feas_b or rates.feasible_c != feas_c:
            fails.append(f"{name}: feasibility flags "
                         f"({rates.feasible_b}, {rates.feasible_c})")

    # independent (a): routing isometry sends one register to each receiver
    indep_case("routing",
               qb.BroadcastChannel([np.eye(4, dtype=complex)],
                                   qb.layout(("B", 2), ("C", 2))),
               1.0, 1.0, True, True)

    # independent (b): constant channel erases both registers
    ops = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
    for i in range(4):
        ops[i][0, i] = 1.0
    indep_case("constant",
               qb.BroadcastChannel(ops, qb.layout(("B", 2), ("C", 2))),
               -1.0, -1.0, False, False)

    # independent (c): dephasing on the B register only
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    indep_case("one-sided",
               qb.BroadcastChannel(
                   [np.kron(p, np.eye(2, dtype=complex)) for p in (p0, p1)],
                   qb.layout(("B", 2), ("C", 2))),
               0.0, 1.0, False, True)

    report(10, not fails, "three merging and three independent-rate examples "
                          "match their entropy-oracle values within 1e-9"
                          + (f"; failing: {fails[:5]}" if fails else ""))
