"""Acceptance battery: the library's headline guarantees, one criterion per
test, each at pinned tolerances on seeded ensembles.  Every test records a
single pass/fail line (printed in the terminal summary) and then asserts.

The nine criteria:

1. sandwich bounds      lower ≤ beta ≤ upper on 200 qubit + 50 qutrit pairs
2. witness attainment   |witness - beta| and dilation residuals, plus random
                        contractions never beating the certified optimum
3. extension agreement  beta vs the cp extension of its witness pair
4. antipodal unitaries  closed-form pair against the eigenphase-hull oracle
5. metric axioms        symmetry, self-distance, triangle with constructive
                        overlap identities, indiscernibility via lower bound
6. monotonicity         contraction under pre-/post-composition
7. functional bounds    norm bound, Radon-Nikodym defect, reflection chain,
                        mixture continuity
8. cp-map norm identity cb norm equals the norm at the identity, SDP gaps,
                        width of the exact cb bracket
9. solver sanity        LP-reducible instances against vertex enumeration
"""

import time

import numpy as np

from cpdist.dilations import (
    Contraction, common_pair_from_contraction, minimal_dilation,
    triangle_dilations, verify_dilation)
from cpdist.linalg import operator_norm, polar_unitary_part, trace_norm
from cpdist.maps import (
    CpMap,
    difference,
    functional,
    identity_channel,
    random_channel,
    random_density,
    unitary_channel,
)
from cpdist.metrics import (
    bures,
    bures_extension,
    bures_fixed_pair,
    cb_norm,
    continuity_certificate,
    cp_cb_norm,
    mixture_certificate,
    monotonicity_certificate,
    radon_nikodym_operator,
    reflection_certificate,
)
from cpdist.sdp import SdpProblem, solve

from conftest import record_criterion
from oracles import lp_min_by_vertex_enumeration, unitary_pair_values

SANDWICH_TOL = 1e-5
WITNESS_TOL = 1e-5
RESIDUAL_TOL = 1e-8
EXTENSION_TOL = 1e-4
SYMMETRY_TOL = 1e-6
SELF_TOL = 1e-6
TRIANGLE_TOL = 1e-5
OVERLAP_TOL = 1e-8
MONOTONE_TOL = 1e-5
FUNCTIONAL_TOL = 1e-8
RN_DEFECT_TOL = 1e-9
CB_IDENTITY_TOL = 1e-6
SDP_GAP_TOL = 1e-6
BRACKET_TOL = 1e-7
ENCLOSURE_TOL = 1e-9
INDISCERNIBLE_TOL = 1e-4
LP_TOL = 1e-7
RUNTIME_CAP_SECONDS = 600.0

QUBIT_PAIRS = 200
QUTRIT_PAIRS = 50

_ENSEMBLE = None


def _pair_ensemble():
    """200 qubit pairs (Kraus ranks cycling 1,2,3) + 50 qutrit pairs, each
    with its full continuity certificate; built once, reused by criteria 1-2."""
    global _ENSEMBLE
    if _ENSEMBLE is not None:
        return _ENSEMBLE
    instances = []
    start = time.perf_counter()
    for k in range(QUBIT_PAIRS):
        m = (k % 3) + 1
        t1 = random_channel(2, 2, m, seed=1000 + 2 * k)
        t2 = random_channel(2, 2, m, seed=1001 + 2 * k)
        rep = continuity_certificate(t1, t2, seed=1000 + 2 * k)
        instances.append((t1, t2, rep))
    for k in range(QUTRIT_PAIRS):
        m = (k % 3) + 1
        t1 = random_channel(3, 3, m, seed=5000 + 2 * k)
        t2 = random_channel(3, 3, m, seed=5001 + 2 * k)
        rep = continuity_certificate(t1, t2, seed=5000 + 2 * k)
        instances.append((t1, t2, rep))
    elapsed = time.perf_counter() - start
    _ENSEMBLE = (instances, elapsed)
    return _ENSEMBLE


def test_criterion_1_sandwich_bounds():
    instances, elapsed = _pair_ensemble()
    worst = min(
        min(rep.slacks["lower"], rep.slacks["upper"])
        for _, _, rep in instances
    )
    passed = worst >= -SANDWICH_TOL and elapsed < RUNTIME_CAP_SECONDS
    record_criterion(
        1, "sandwich bounds", passed,
        f"{QUBIT_PAIRS} qubit + {QUTRIT_PAIRS} qutrit pairs, "
        f"worst slack {worst:+.2e} (tol -{SANDWICH_TOL:.0e}), "
        f"built in {elapsed:.0f}s (cap {RUNTIME_CAP_SECONDS:.0f}s)")
    assert worst >= -SANDWICH_TOL
    assert elapsed < RUNTIME_CAP_SECONDS


def test_criterion_2_witness_attainment():
    instances, _ = _pair_ensemble()
    worst_witness = max(rep.slacks["witness_gap"] for _, _, rep in instances)
    worst_residual = max(
        rep.slacks["dilation_residual"] for _, _, rep in instances)

    # certified optimality: no sampled steering contraction may beat beta
    rng = np.random.default_rng(20260814)
    worst_beat = -np.inf
    for t1, t2, rep in instances:
        m1, m2 = rep.dims["m1"], rep.dims["m2"]
        min1, min2 = minimal_dilation(t1), minimal_dilation(t2)
        for j in range(50):
            g = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
            if j % 2 == 0:
                w = g / max(operator_norm(g), 1e-12) * rng.uniform(0.0, 1.0)
            else:
                w = polar_unitary_part(g)      # extreme point of the ball
            pair = common_pair_from_contraction(min1, min2, Contraction(w))
            worst_beat = max(worst_beat, rep.beta - bures_fixed_pair(*pair))
    passed = (worst_witness <= WITNESS_TOL
              and worst_residual <= RESIDUAL_TOL
              and worst_beat <= WITNESS_TOL)
    record_criterion(
        2, "witness attainment", passed,
        f"worst |witness-beta| {worst_witness:.2e} (tol {WITNESS_TOL:.0e}), "
        f"worst residual {worst_residual:.2e} (tol {RESIDUAL_TOL:.0e}), "
        f"best sampled improvement {worst_beat:+.2e} over 50 draws/instance")
    assert worst_witness <= WITNESS_TOL
    assert worst_residual <= RESIDUAL_TOL
    assert worst_beat <= WITNESS_TOL


def test_criterion_3_extension_agreement():
    worst = 0.0
    for k in range(50):
        m = (k % 3) + 1
        t1 = random_channel(2, 2, m, seed=9000 + 2 * k)
        t2 = random_channel(2, 2, m, seed=9001 + 2 * k)
        direct = bures(t1, t2)
        ext = bures_extension(*direct.pair)
        worst = max(worst, abs(direct.beta.lo - ext.value))
    passed = worst <= EXTENSION_TOL
    record_criterion(
        3, "extension agreement", passed,
        f"50 qubit pairs, worst |beta - beta_ext| {worst:.2e} "
        f"(tol {EXTENSION_TOL:.0e})")
    assert worst <= EXTENSION_TOL


def test_criterion_4_antipodal_unitaries():
    u1 = np.eye(2, dtype=np.complex128)
    u2 = np.diag([1.0, -1.0]).astype(np.complex128)
    oracle_beta, oracle_cb = unitary_pair_values(u1, u2)
    rep = continuity_certificate(unitary_channel(u1), unitary_channel(u2))
    err_beta = abs(rep.beta - np.sqrt(2.0))
    err_cb = abs(rep.cb_diff - 2.0)
    err_lower = abs(rep.sandwich.lo - 1.0)
    err_oracle = max(abs(rep.beta - oracle_beta), abs(rep.cb_diff - oracle_cb))
    passed = (err_beta <= SANDWICH_TOL and err_cb <= SANDWICH_TOL
              and err_lower <= SANDWICH_TOL and err_oracle <= SANDWICH_TOL
              and rep.passed)
    record_criterion(
        4, "antipodal unitaries", passed,
        f"|beta-sqrt2| {err_beta:.2e}, |cb-2| {err_cb:.2e}, "
        f"|lower-1| {err_lower:.2e}, hull-oracle error {err_oracle:.2e} "
        f"(tol {SANDWICH_TOL:.0e})")
    assert err_beta <= SANDWICH_TOL
    assert err_cb <= SANDWICH_TOL
    assert err_lower <= SANDWICH_TOL
    assert err_oracle <= SANDWICH_TOL
    assert rep.passed


def test_criterion_5_metric_axioms():
    worst_sym = 0.0
    worst_self = 0.0
    worst_triangle = np.inf     # margin: beta12 + beta23 + tol - beta13
    worst_overlap = 0.0
    for k in range(100):
        m = (k % 3) + 1
        t1 = random_channel(2, 2, m, seed=20000 + 3 * k)
        t2 = random_channel(2, 2, m, seed=20001 + 3 * k)
        t3 = random_channel(2, 2, m, seed=20002 + 3 * k)
        r12 = bures(t1, t2)
        r23 = bures(t2, t3)
        r13 = bures(t1, t3)
        worst_triangle = min(
            worst_triangle, r12.beta.lo + r23.beta.lo + TRIANGLE_TOL - r13.beta.lo)
        tri1, tri2, tri3 = triangle_dilations(
            *(minimal_dilation(t) for t in (t1, t2, t3)),
            r12.contraction, r23.contraction)
        ov12 = operator_norm(
            tri2.v.conj().T @ tri1.v
            - r12.pair[1].v.conj().T @ r12.pair[0].v)
        ov23 = operator_norm(
            tri2.v.conj().T @ tri3.v
            - r23.pair[0].v.conj().T @ r23.pair[1].v)
        worst_overlap = max(worst_overlap, ov12, ov23)
        worst_sym = max(
            worst_sym, abs(r12.beta.lo - bures(t2, t1).beta.lo))
        worst_self = max(worst_self, bures(t1, t1).beta.lo)

    # indiscernibility through the lower bound: beta = 0 forces cb = 0
    worst_indisc = 0.0
    for k in range(10):
        t = random_channel(2, 2, (k % 3) + 1, seed=23000 + k)
        rep = continuity_certificate(t, t)
        assert rep.beta <= SELF_TOL
        denom_bound = rep.cb_diff   # cb ≤ (sqrt cb1 + sqrt cb2) * beta
        worst_indisc = max(worst_indisc, denom_bound)
    passed = (worst_sym <= SYMMETRY_TOL and worst_self <= SELF_TOL
              and worst_triangle >= 0.0 and worst_overlap <= OVERLAP_TOL
              and worst_indisc <= INDISCERNIBLE_TOL)
    record_criterion(
        5, "metric axioms", passed,
        f"100 qubit triples: symmetry {worst_sym:.2e} (tol {SYMMETRY_TOL:.0e}), "
        f"self-distance {worst_self:.2e} (tol {SELF_TOL:.0e}), "
        f"triangle margin {worst_triangle:+.2e}, "
        f"overlap identity {worst_overlap:.2e} (tol {OVERLAP_TOL:.0e}), "
        f"cb at beta=0 {worst_indisc:.2e} (tol {INDISCERNIBLE_TOL:.0e})")
    assert worst_sym <= SYMMETRY_TOL
    assert worst_self <= SELF_TOL
    assert worst_triangle >= 0.0
    assert worst_overlap <= OVERLAP_TOL
    assert worst_indisc <= INDISCERNIBLE_TOL


def test_criterion_6_monotonicity():
    worst = np.inf
    for k in range(100):
        m = (k % 3) + 1
        t1 = random_channel(2, 2, m, seed=30000 + 3 * k)
        t2 = random_channel(2, 2, m, seed=30001 + 3 * k)
        s = random_channel(2, 2, (k % 2) + 1, seed=30002 + 3 * k)
        cert = monotonicity_certificate(s, s, t1, t2, tol=MONOTONE_TOL)
        worst = min(worst, *(c.value for c in cert.checks))
        if not cert.passed:
            break
    passed = worst >= -MONOTONE_TOL
    record_criterion(
        6, "monotonicity", passed,
        f"100 triples, both composition sides, worst slack {worst:+.2e} "
        f"(tol -{MONOTONE_TOL:.0e})")
    assert worst >= -MONOTONE_TOL


def test_criterion_7_functional_bounds():
    rng = np.random.default_rng(20260815)

    # (a) distance against the norm bound on 100 qubit + 100 qutrit pairs,
    # at the strict end of the n = 1 bracket
    worst_norm = np.inf
    for k in range(200):
        dim = 2 if k < 100 else 3
        scale0 = rng.uniform(0.5, 1.5)
        scale1 = rng.uniform(0.5, 1.5)
        rho0 = scale0 * random_density(dim, rng)
        rho1 = scale1 * random_density(dim, rng)
        beta = bures(functional(rho0), functional(rho1)).beta
        margin = np.sqrt(trace_norm(rho0 - rho1)) + FUNCTIONAL_TOL - beta.hi
        worst_norm = min(worst_norm, margin)

    # (b) + (c) Radon-Nikodym defect and reflection chain on dominated pairs
    worst_defect = 0.0
    worst_chain = np.inf
    for k in range(100):
        dim = 2 if k % 2 == 0 else 3
        rho0 = random_density(dim, rng)                      # full rank a.s.
        rho1 = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
        h = radon_nikodym_operator(rho0, rho1)
        worst_defect = max(worst_defect, float(np.abs(h @ rho0 @ h - rho1).max()))
        cert = reflection_certificate(rho0, rho1, tol=FUNCTIONAL_TOL)
        slack = {c.name: c.value for c in cert.checks}
        worst_chain = min(worst_chain, slack["lower"], slack["upper"],
                          slack["sqrt"])

    # (d) mixture continuity on the 9-point interior grid
    worst_mixture = np.inf
    for k in range(20):
        dim = 2 if k % 2 == 0 else 3
        cert = mixture_certificate(random_density(dim, rng),
                                   random_density(dim, rng),
                                   tol=FUNCTIONAL_TOL)
        assert len(cert.s_grid) == 9
        worst_mixture = min(worst_mixture, *(c.value for c in cert.checks))

    passed = (worst_norm >= 0.0 and worst_defect <= RN_DEFECT_TOL
              and worst_chain >= -FUNCTIONAL_TOL
              and worst_mixture >= -FUNCTIONAL_TOL)
    record_criterion(
        7, "functional bounds", passed,
        f"norm-bound margin {worst_norm:+.2e}, "
        f"RN defect {worst_defect:.2e} (tol {RN_DEFECT_TOL:.0e}), "
        f"reflection-chain slack {worst_chain:+.2e}, "
        f"mixture slack {worst_mixture:+.2e} (tol -{FUNCTIONAL_TOL:.0e})")
    assert worst_norm >= 0.0
    assert worst_defect <= RN_DEFECT_TOL
    assert worst_chain >= -FUNCTIONAL_TOL
    assert worst_mixture >= -FUNCTIONAL_TOL


def test_criterion_8_cp_map_norm_identity():
    rng = np.random.default_rng(20260816)
    worst_identity = 0.0
    worst_gap = 0.0
    worst_width = 0.0
    worst_outside = 0.0
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    for k in range(100):
        d, n = dims[k % 4]
        m = (k % 3) + 1
        if d * m < n:
            m += 1
        t = random_channel(d, n, m, seed=40000 + k)
        if k % 2 == 1:
            # non-unital: rescale each Kraus operator separately (still cp)
            t = CpMap(d, n, [rng.uniform(0.3, 1.2) * op for op in t.kraus])
        res = cb_norm(t)
        worst_identity = max(worst_identity, abs(res.cb.lo - cp_cb_norm(t)))
        worst_gap = max(worst_gap, res.sdp_gap)
        worst_width = max(worst_width, abs(res.cb.width))
        # both ends are exact, so ||T(1)|| lies inside [value, upper]
        worst_outside = max(worst_outside, res.cb.lo - cp_cb_norm(t),
                            cp_cb_norm(t) - res.cb.hi)
    passed = (worst_identity <= CB_IDENTITY_TOL and worst_gap <= SDP_GAP_TOL
              and worst_width <= BRACKET_TOL
              and worst_outside <= ENCLOSURE_TOL)
    record_criterion(
        8, "cp-map norm identity", passed,
        f"100 cp maps: worst |cb - norm_at_identity| {worst_identity:.2e} "
        f"(tol {CB_IDENTITY_TOL:.0e}), worst SDP gap {worst_gap:.2e} "
        f"(tol {SDP_GAP_TOL:.0e}), worst bracket width {worst_width:.2e} "
        f"(tol {BRACKET_TOL:.0e}), norm outside the bracket by "
        f"{worst_outside:.2e} (tol {ENCLOSURE_TOL:.0e})")
    assert worst_identity <= CB_IDENTITY_TOL
    assert worst_gap <= SDP_GAP_TOL
    assert worst_width <= BRACKET_TOL
    assert worst_outside <= ENCLOSURE_TOL


def test_criterion_9_solver_vs_vertex_enumeration():
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(20):
        p, q = 3, 6
        a = np.vstack([rng.standard_normal((p, q)), np.ones(q)])
        x0 = rng.uniform(0.5, 1.5, size=q)       # strictly feasible interior
        b = a @ x0
        c = rng.standard_normal(q)
        want = lp_min_by_vertex_enumeration(a, b, c)
        # min c.x = -max -c.x
        prob = SdpProblem(
            blocks=tuple([1] * q),
            objective={i: -c[i] * np.eye(1) for i in range(q)},
            constraints=[
                ({i: a[row, i] * np.eye(1) for i in range(q)}, b[row], "=")
                for row in range(p + 1)
            ],
        )
        sol = solve(prob)
        worst = max(worst, abs(-sol.primal_value - want))
    passed = worst <= LP_TOL
    record_criterion(
        9, "solver vs vertex enumeration", passed,
        f"20 LP-reducible instances, worst |sdp - vertex| {worst:.2e} "
        f"(tol {LP_TOL:.0e})")
    assert worst <= LP_TOL
