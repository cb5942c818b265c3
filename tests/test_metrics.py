import numpy as np
import pytest

from cpdist.dilations import Contraction, minimal_dilation, verify_dilation
from cpdist.linalg import operator_norm, partial_trace_first, trace_norm
from cpdist.maps import (
    CpMap,
    compose,
    difference,
    functional,
    identity_channel,
    random_channel,
    random_density,
    unitary_channel,
)
from cpdist.metrics import (
    Bracket,
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
from oracles import bures_states_from_product_spectrum, unitary_pair_values


def haar_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------- functionals


# A positive functional a ↦ tr(rho a) is the cp map functional(rho) into M_1,
# and its Bures distance is bures at n = 1.


def state_beta(rho0, rho1) -> Bracket:
    return bures(functional(rho0), functional(rho1)).beta


def assert_brackets(beta: Bracket, want: float, rtol: float = 1e-12):
    assert beta.lo - rtol * want <= want <= beta.hi + rtol * want, (beta, want)


def pure(v) -> np.ndarray:
    return np.outer(v, np.conj(v))


# The oracle takes square roots of the eigenvalues of rho0 rho1; at a
# rank-deficient pair one of them is roundoff, so both oracle tests draw
# full-rank pairs only.


def assert_matches_spectral_oracle(rho0, rho1):
    want = bures_states_from_product_spectrum(rho0, rho1)
    beta = state_beta(rho0, rho1)
    assert abs(beta.lo - want) <= 1e-12 * want
    assert abs(beta.hi - want) <= 1e-12 * want


def test_bures_states_against_spectral_oracle():
    rng = np.random.default_rng(102)
    for dim in (2, 3, 4, 5):
        assert_matches_spectral_oracle(random_density(dim, rng),
                                       random_density(dim, rng))
    rho = random_density(4, rng)
    assert state_beta(rho, rho).lo < 1e-7


def test_bures_states_accepts_subnormalized():
    rng = np.random.default_rng(103)
    for dim in (2, 3, 4, 5):
        assert_matches_spectral_oracle(0.7 * random_density(dim, rng),
                                       0.4 * random_density(dim, rng))


def test_state_bures_of_a_pure_state_in_closed_form():
    # beta^2 = tr rho0 + 1 - 2 sqrt(<psi|rho0|psi>) for rho1 = |psi><psi|
    rng = np.random.default_rng(103)
    for dim in (2, 3, 4):
        for rank in range(1, dim + 1):
            rho0 = 0.7 * random_density(dim, rng, rank=rank)
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            overlap = float(np.real(psi.conj() @ rho0 @ psi))
            want = np.sqrt(np.trace(rho0).real + 1.0 - 2.0 * np.sqrt(overlap))
            assert_brackets(state_beta(rho0, pure(psi)), want)


def test_orthogonal_pure_states_are_sqrt2_apart():
    e = np.eye(3)
    root2 = float(np.sqrt(2.0))
    assert state_beta(pure(e[0]), pure(e[1])) == Bracket(root2, root2)
    u = haar_unitary(np.random.default_rng(104), 3)
    beta = state_beta(pure(u[:, 0]), pure(u[:, 1]))
    assert abs(beta.lo - root2) <= 1e-15 and abs(beta.hi - root2) <= 1e-15


def test_state_bures_ignores_the_kraus_family():
    # X -> X U mixes the columns of rho's factor and zero padding adds
    # columns: the same functional, so the same bracket
    rng = np.random.default_rng(105)
    for dim in (2, 3, 4):
        rho0 = random_density(dim, rng)
        rho1 = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
        f0, f1 = functional(rho0), functional(rho1)
        beta = bures(f0, f1).beta
        mixed = CpMap(dim, 1, np.einsum("iak,ij->jak", f0.kraus,
                                        haar_unitary(rng, dim)))
        padded = CpMap(dim, 1, np.concatenate([f1.kraus,
                                               np.zeros((2, dim, 1))]))
        other = bures(mixed, padded).beta
        assert abs(other.lo - beta.lo) <= 1e-12 * beta.lo
        assert abs(other.hi - beta.hi) <= 1e-12 * beta.hi


def test_state_bures_is_homogeneous_of_degree_one_half():
    rng = np.random.default_rng(106)
    for dim in (2, 3):
        rho0 = random_density(dim, rng)
        rho1 = random_density(dim, rng, rank=1)
        beta = state_beta(rho0, rho1)
        for c in (1e-12, 1e-6, 1e4, 1e8):
            scaled = state_beta(c * rho0, c * rho1)
            assert abs(scaled.lo / np.sqrt(c) - beta.lo) <= 1e-14 * beta.lo
            assert abs(scaled.hi / np.sqrt(c) - beta.hi) <= 1e-14 * beta.hi


def test_state_bures_triangle_inequality():
    rng = np.random.default_rng(107)
    for dim in (2, 3, 4):
        a, b, c = (random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
                   for _ in range(3))
        assert state_beta(a, c).lo <= state_beta(a, b).hi + state_beta(b, c).hi


def test_cb_norm_of_a_difference_of_functionals_is_the_trace_norm():
    # cb_norm's (1, r, r) blocks: ||functional(rho0) - functional(rho1)||_cb
    # is ||rho0 - rho1||_1
    rng = np.random.default_rng(108)
    for dim in (2, 3, 4):
        for _ in range(3):
            rho0 = random_density(dim, rng)
            rho1 = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
            want = trace_norm(rho0 - rho1)
            cb = cb_norm(difference(functional(rho0), functional(rho1))).cb
            assert_brackets(cb, want)
            assert cb.width <= 1e-8 * want


def test_states_with_orthogonal_supports_have_beta_squared_cb_two():
    # no overlap: beta^2 = tr rho0 + tr rho1 = 2 and ||rho0 - rho1||_1 = 2
    rng = np.random.default_rng(109)
    u = haar_unitary(rng, 4)
    w0, w1 = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
    rho0 = (u[:, :2] * w0) @ u[:, :2].conj().T
    rho1 = (u[:, 2:] * w1) @ u[:, 2:].conj().T
    f0, f1 = functional(rho0), functional(rho1)
    assert_brackets(bures(f0, f1).beta, np.sqrt(2.0))
    assert_brackets(cb_norm(difference(f0, f1)).cb, 2.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_functional_certificates_hold_at_every_trace(dim):
    # The reflection family's draws, scaled by c.  Nothing is refused, and
    # every check passes but rn_defect, whose gate is absolute: at c = 1e6
    # and 1e8 the defect of h rho0 h = rho1 is roundoff times c.
    for c in (1e-12, 1.0, 1e4, 1e6, 1e8):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rho0 = random_density(dim, rng)
            rho1 = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
            assert mixture_certificate(c * rho0, c * rho1).passed, (c, seed)
            cert = reflection_certificate(c * rho0, c * rho1)
            assert set(cert.failed) <= {"rn_defect"}, (c, seed, cert.failed)
            assert cert.rn_defect <= 1e-9 * max(c, 1.0)


def test_radon_nikodym_solves_h_rho_h():
    rng = np.random.default_rng(104)
    for dim in (2, 3, 4):
        rho0 = random_density(dim, rng)           # full rank a.s.
        rho1 = random_density(dim, rng, rank=max(1, dim - 1))
        h = radon_nikodym_operator(rho0, rho1)
        assert np.abs(h @ rho0 @ h - rho1).max() < 1e-9
        assert np.linalg.eigvalsh(h)[0] > -1e-10


def test_radon_nikodym_rejects_undominated():
    rho0 = np.diag([1.0, 0.0])
    rho1 = np.diag([0.5, 0.5])
    with pytest.raises(ValueError):
        radon_nikodym_operator(rho0, rho1)


def test_reflection_certificate_chain():
    rng = np.random.default_rng(105)
    for _ in range(6):
        dim = int(rng.integers(2, 5))
        rho0 = random_density(dim, rng)
        rho1 = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
        cert = reflection_certificate(rho0, rho1)
        assert cert.passed
        assert cert.rn_defect <= 1e-9
        # beta^2 <= reflection value <= trace-norm distance
        assert cert.beta.hi ** 2 <= cert.reflection_value + 1e-8
        assert cert.reflection_value <= cert.norm_diff + 1e-8
        assert cert.beta.hi <= np.sqrt(cert.norm_diff) + 1e-8


def test_mixture_certificate_bound():
    rng = np.random.default_rng(106)
    rho0 = random_density(3, rng)
    rho1 = random_density(3, rng)
    cert = mixture_certificate(rho0, rho1)
    assert cert.passed
    assert len(cert.distances) == len(cert.s_grid) == 9
    assert min(c.value for c in cert.checks) >= -1e-8
    # distance to the far endpoint shrinks to zero as s -> 1
    assert cert.distances[-1].hi < cert.distances[0].lo


# ------------------------------------------------------------------- cb norm


def test_cp_cb_norm_values():
    assert abs(cp_cb_norm(identity_channel(3)) - 1.0) < 1e-12
    t = random_channel(2, 3, 2, seed=107)
    assert abs(cp_cb_norm(t) - 1.0) < 1e-10          # unital
    assert abs(cp_cb_norm(t.rescaled(0.3)) - 0.3) < 1e-10


def test_cb_norm_of_cp_map_is_norm_at_identity():
    t = random_channel(2, 2, 2, seed=108)
    res = cb_norm(t)
    assert abs(res.cb.lo - cp_cb_norm(t)) < 1e-6
    assert res.sdp_gap < 1e-6
    assert res.cb.width <= 1e-7
    assert res.cb.lo - 1e-9 <= cp_cb_norm(t) <= res.cb.hi + 1e-9


def test_cb_norm_result_keeps_value_and_ascent_value_for_the_benchmark():
    # cpbench/workloads.py reads both; each is the bracket's lower end
    res = cb_norm(difference(random_channel(2, 2, 2, seed=108),
                             random_channel(2, 2, 2, seed=109)))
    assert res.value == res.ascent_value == res.cb.lo


def test_cb_norm_zero_map():
    t = random_channel(2, 2, 2, seed=109)
    res = cb_norm(difference(t, t))
    assert res.cb.lo == res.cb.hi == 0.0


def test_cb_norm_unitary_pair_oracle():
    rng = np.random.default_rng(110)
    for d in (2, 3):
        for _ in range(3):
            u1, u2 = haar_unitary(rng, d), haar_unitary(rng, d)
            want_beta, want_cb = unitary_pair_values(u1, u2)
            res = cb_norm(difference(unitary_channel(u1), unitary_channel(u2)))
            assert abs(res.cb.lo - want_cb) < 1e-6
            # both ends are exact: the oracle lies inside the bracket
            assert res.cb.lo - 1e-9 <= want_cb <= res.cb.hi + 1e-9
            assert res.cb.width <= 1e-7


def test_cb_norm_is_one_solve(monkeypatch):
    import cpdist.metrics as metrics

    calls = []
    real_solve = metrics.solve

    def counting_solve(problem, *args, **kwargs):
        calls.append(problem)
        return real_solve(problem, *args, **kwargs)

    monkeypatch.setattr(metrics, "solve", counting_solve)
    t1 = random_channel(2, 2, 2, seed=141)
    t2 = random_channel(2, 2, 3, seed=142)
    res = cb_norm(difference(t1, t2))
    assert len(calls) == 1
    assert not hasattr(metrics, "_cb_ascent")
    assert res.cb.lo <= res.cb.hi


@pytest.mark.parametrize("d, n, m1, m2, size", [
    (2, 2, 2, 2, 4),     # r = 4 = d*n: the identity factor
    (4, 4, 2, 2, 4),     # r = 4 < d*n: the Kraus factor
    (3, 3, 2, 3, 5),
    (3, 3, 4, 5, 9),     # r = 9 = d*n
    (2, 3, 4, 5, 6),     # r = 9 > d*n
])
def test_cb_norm_program_size(monkeypatch, d, n, m1, m2, size):
    import cpdist.metrics as metrics

    problems = []
    real_solve = metrics.solve

    def capture(problem):
        problems.append(problem)
        return real_solve(problem)

    monkeypatch.setattr(metrics, "solve", capture)
    cb_norm(difference(random_channel(d, n, m1, seed=148),
                       random_channel(d, n, m2, seed=149)))
    assert len(problems) == 1
    assert problems[0].blocks == (n, size, size)
    assert len(problems[0].constraints) == size ** 2 + 1


@pytest.mark.parametrize("d", [2, 3])
def test_cb_norm_is_scale_covariant(d):
    # cb(c F) = c cb(F); the program is posed at unit scale, so its absolute
    # tolerances turn into relative ones at every c.  d = n = 2 runs the
    # identity factor (r = d*n), d = n = 3 the Kraus factor (r < d*n).
    t1 = random_channel(d, d, 2, seed=1)
    t2 = random_channel(d, d, 2, seed=2)
    base = cb_norm(difference(t1, t2))
    for c in (1e-12, 1e-9, 1e-6, 1e3, 1e6):
        res = cb_norm(difference(t1.rescaled(c), t2.rescaled(c)))
        assert 0.0 <= res.cb.width <= 1e-8 * res.cb.hi, c
        assert abs(res.cb.lo / c - base.cb.lo) <= 1e-8 * base.cb.lo, c


def test_cb_norm_on_degenerate_kraus_factors(monkeypatch):
    # Kraus vectors that are nearly parallel (nearly identical maps),
    # linearly dependent across the two maps, or zero still give r < d*n;
    # each solve must converge strictly (a missed target raises), and its
    # bracket must overlap the one from the program over the Choi matrix,
    # reached by zero-padding both families past d*n operators.
    import cpdist.metrics as metrics

    problems = []
    real_solve = metrics.solve

    def capture(problem):
        problems.append(problem)
        return real_solve(problem)

    d = 3
    t = random_channel(d, d, 2, seed=175)
    rng = np.random.default_rng(176)
    near = CpMap(d, d, [k + 1e-6 * (rng.standard_normal((d, d))
                                    + 1j * rng.standard_normal((d, d)))
                        for k in t.kraus])
    zeros = np.zeros((d * d, d, d))
    pairs = [(t, near), (t, CpMap(d, d, t.kraus[:1])),
             (CpMap(d, d, np.concatenate([t.kraus, zeros[:1]])), t.rescaled(0.5))]
    for t1, t2 in pairs:
        monkeypatch.setattr(metrics, "solve", capture)
        f = difference(t1, t2)
        assert f.factor.shape[1] < d * d
        res = cb_norm(f)
        assert problems[-1].blocks[1] == f.factor.shape[1]
        monkeypatch.undo()
        full = cb_norm(difference(CpMap(d, d, np.concatenate([t1.kraus, zeros])),
                                  CpMap(d, d, np.concatenate([t2.kraus, zeros]))))
        assert max(res.cb.lo, full.cb.lo) <= min(res.cb.hi, full.cb.hi) + 1e-12
        assert res.cb.width <= 1e-7


def test_cb_norm_lower_end_is_attained(monkeypatch):
    # Z = S sign(S J S) S with S = 1⊗sqrt(rho) is feasible at the solve's
    # projected state rho and attains lower exactly
    import cpdist.metrics as metrics

    solutions = []
    real = metrics.solve

    def capture(problem):
        solutions.append(real(problem))
        return solutions[-1]

    monkeypatch.setattr(metrics, "solve", capture)
    for d, n, seed in ((2, 2, 143), (2, 3, 145), (3, 2, 147)):
        f = difference(random_channel(d, n, 2, seed=seed),
                       random_channel(d, n, 2, seed=seed + 1))
        res = cb_norm(f)
        rho = metrics._project_density(solutions[-1].blocks[0])
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        w, u = np.linalg.eigh(rho)
        s = np.kron(np.eye(d), (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T)
        sjs = s @ f.choi @ s
        ev, evec = np.linalg.eigh((sjs + sjs.conj().T) / 2)
        z = s @ (evec * np.sign(ev)) @ evec.conj().T @ s
        one_rho = np.kron(np.eye(d), rho)
        assert np.linalg.eigvalsh(one_rho - z)[0] >= -1e-12
        assert np.linalg.eigvalsh(one_rho + z)[0] >= -1e-12
        assert abs(np.trace(f.choi @ z).real - res.cb.lo) <= 1e-12


def test_unit_scale_is_in_one_to_four_next_to_powers_of_4():
    # the power of 4 at or below x, also where log(x)/log(4) rounds across
    # an integer (x = 4^-29 is one such)
    from cpdist.linalg import _unit_scale

    for k in range(-300, 300):
        x = np.ldexp(1.0, 2 * k)
        for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
            assert 1.0 <= v * _unit_scale(v) < 4.0, (k, v)


def test_check_refuses_a_nan_bound():
    # min(inf, nan) is inf: a NaN bound would pass every value
    from cpdist.metrics import Check

    for bounds in ({"lo": np.nan}, {"hi": np.nan}):
        with pytest.raises(ValueError, match="NaN bound"):
            Check("gate", 0.0, **bounds)
    assert not Check("gate", np.nan, hi=1.0).passed


def test_cb_bracket_holds_at_perturbed_iterates(monkeypatch):
    # both ends re-evaluate feasible points, so they stay bounds when the
    # solver hands back a poor iterate: here a halved dual vector (not dual
    # feasible until shifted) and an arbitrary state
    import dataclasses

    import cpdist.metrics as metrics

    real = metrics.solve
    rho = random_density(2, np.random.default_rng(170))

    def poor_iterate(problem):
        sol = real(problem)
        return dataclasses.replace(sol, y=0.5 * sol.y,
                                   aty=[0.5 * a for a in sol.aty],
                                   blocks=[rho] + list(sol.blocks[1:]))

    t1 = random_channel(2, 2, 2, seed=171)
    t2 = random_channel(2, 2, 2, seed=172)
    exact = cb_norm(difference(t1, t2))
    monkeypatch.setattr(metrics, "solve", poor_iterate)
    res = cb_norm(difference(t1, t2))
    assert res.cb.lo <= exact.cb.hi + 1e-12
    assert res.cb.hi >= exact.cb.lo - 1e-12
    assert res.cb.width > 1e-3


def test_cb_bracket_is_narrow_on_rectangular_shapes():
    for k, (d, n) in enumerate(((1, 2), (2, 1), (2, 3), (3, 2), (3, 3))):
        m = max(1, -(-n // d))
        t1 = random_channel(d, n, m, seed=150 + 2 * k)
        t2 = random_channel(d, n, m, seed=151 + 2 * k)
        res = cb_norm(difference(t1, t2))
        assert 0.0 <= res.cb.width <= 1e-7, (d, n, res)


def test_cb_bracket_is_unitarily_invariant():
    # ||U F(W . W†) U†||_cb = ||F||_cb, so the two exact brackets overlap
    rng = np.random.default_rng(160)
    t1 = random_channel(2, 2, 2, seed=161)
    t2 = random_channel(2, 2, 2, seed=162)
    post = unitary_channel(haar_unitary(rng, 2))
    pre = unitary_channel(haar_unitary(rng, 2))
    base = cb_norm(difference(t1, t2))
    conj = cb_norm(difference(compose(post, compose(t1, pre)),
                              compose(post, compose(t2, pre))))
    assert max(base.cb.lo, conj.cb.lo) <= min(base.cb.hi, conj.cb.hi) + 1e-12


def test_cb_norm_rejects_other_input():
    with pytest.raises(ValueError):
        cb_norm(np.eye(4))


# ------------------------------------------------------------ Bures distance


def test_bures_unitary_pairs_match_eigenphase_oracle():
    rng = np.random.default_rng(111)
    for d in (2, 3):
        for _ in range(3):
            u1, u2 = haar_unitary(rng, d), haar_unitary(rng, d)
            want_beta, _ = unitary_pair_values(u1, u2)
            res = bures(unitary_channel(u1), unitary_channel(u2))
            assert abs(res.beta.lo - want_beta) < 1e-6
            assert abs(res.beta.width) < 1e-5


def test_bures_antipodal_unitaries():
    # eigenvalues 1 and -1: the hull contains 0, so beta^2 = 2 exactly
    t1 = identity_channel(2)
    t2 = unitary_channel(np.diag([1.0, -1.0]))
    res = bures(t1, t2)
    assert abs(res.beta.lo - np.sqrt(2.0)) < 1e-6
    assert abs(res.beta.width) < 1e-5
    assert -1e-12 <= res.beta.hi ** 2 - res.beta_squared <= 1e-6
    cbr = cb_norm(difference(t1, t2))
    assert abs(cbr.cb.lo - 2.0) < 1e-6


def test_bures_quarter_turn_phase_pair():
    # eigenvalues 1 and i of U1†U2: hull distance cos(pi/4), so
    # beta^2 = 2 - sqrt(2) and cb = 2 sin(pi/4) = sqrt(2)
    t1 = identity_channel(2)
    t2 = unitary_channel(np.diag([1.0, 1.0j]))
    res = bures(t1, t2)
    assert abs(res.beta.lo ** 2 - (2.0 - np.sqrt(2.0))) < 1e-5
    want_beta, want_cb = unitary_pair_values(np.eye(2), np.diag([1.0, 1.0j]))
    assert abs(res.beta.lo - want_beta) < 1e-6
    cbr = cb_norm(difference(t1, t2))
    assert abs(cbr.cb.lo - want_cb) < 1e-6


def test_bures_self_distance_and_symmetry():
    t1 = random_channel(2, 2, 2, seed=112)
    t2 = random_channel(2, 2, 3, seed=113)
    assert bures(t1, t1).beta.lo < 1e-6
    a = bures(t1, t2).beta.lo
    b = bures(t2, t1).beta.lo
    assert abs(a - b) < 1e-6


def test_bures_result_certificates():
    t1 = random_channel(2, 2, 2, seed=114)
    t2 = random_channel(2, 2, 2, seed=115)
    res = bures(t1, t2)
    # optimizer is a genuine state
    assert abs(np.trace(res.rho).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(res.rho)[0] > -1e-12
    # steering contraction is a genuine contraction
    assert operator_norm(res.contraction.w) <= 1.0 + 1e-10
    # witness pair attains the distance in a common representation
    assert abs(bures_fixed_pair(*res.pair) - res.beta.hi) < 1e-12
    assert abs(res.beta.width) < 1e-5
    assert res.sdp_gap < 1e-6
    # exact bracket: attained state value below, attained witness norm above
    assert -1e-12 <= res.beta.hi ** 2 - res.beta_squared <= 1e-6


def test_bures_is_one_sdp_solve(monkeypatch):
    # both sides of the bracket come from the primal and dual of one solve
    import cpdist.metrics as metrics

    solves = []
    original = metrics.solve

    def counted(problem, *args, **kwargs):
        solves.append((problem, original(problem, *args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(metrics, "solve", counted)
    t1 = random_channel(2, 2, 2, seed=150)
    t2 = random_channel(2, 2, 3, seed=151)
    res = bures(t1, t2)
    assert len(solves) == 1
    assert -1e-12 <= res.beta.hi ** 2 - res.beta_squared <= 1e-6
    # the dual read-off (m1 = 2, m2 = 3), the corner of the adjoint on the
    # epigraph block, attains the solve's dual value
    _, sol = solves[0]
    min1, min2 = minimal_dilation(t1), minimal_dilation(t2)
    k1, k2 = min1.kraus, min2.kraus
    w = sol.aty[1][:min1.m, min1.m:]
    assert w.shape == (2, 3) and operator_norm(w) <= 1.0 + 1e-12
    a_op = t1.at_identity() + t2.at_identity()
    assert abs(metrics._model_top(a_op, k1, k2, w) - sol.dual_value) < 1e-7


def count_minimal_dilations(monkeypatch) -> list:
    """Record every minimal_dilation call, at each module that binds it."""
    import cpdist.dilations as dilations
    import cpdist.metrics as metrics
    import cpdist.verify as verify

    calls = []
    original = dilations.minimal_dilation

    def counted(t):
        calls.append(t)
        return original(t)

    for module in (dilations, metrics, verify):
        monkeypatch.setattr(module, "minimal_dilation", counted)
    return calls


def test_bures_builds_each_minimal_dilation_once(monkeypatch):
    calls = count_minimal_dilations(monkeypatch)
    t1 = random_channel(2, 2, 2, seed=152)
    t2 = random_channel(2, 2, 3, seed=153)
    bures(t1, t2)
    assert calls == [t1, t2]


def test_certificates_build_each_minimal_dilation_once(monkeypatch):
    from cpdist.verify import run_instance

    calls = count_minimal_dilations(monkeypatch)
    t1 = random_channel(2, 2, 2, seed=154)
    t2 = random_channel(2, 2, 3, seed=155)
    assert continuity_certificate(t1, t2).passed
    assert calls == [t1, t2]
    for family, maps in (("consistency", 2), ("triangle", 3)):
        calls.clear()
        assert run_instance(family, 2, 2, None, 30)["passed"]
        assert len(calls) == maps


def test_bures_one_sided_zero_map():
    t = random_channel(2, 2, 2, seed=116)
    zero = CpMap(2, 2, [])
    res = bures(t, zero)
    # distance to the zero map is the norm of the dilation: sqrt(||T(1)||)
    assert abs(res.beta.lo - 1.0) < 1e-10
    assert abs(res.beta.width) < 1e-8
    with pytest.raises(ValueError):
        bures(zero, CpMap(2, 2, []))


def test_bures_scalar_output_reduces_to_states():
    # maps into 1x1 matrices are positive functionals: a ↦ tr(a rho_T)
    rng = np.random.default_rng(117)
    t1 = random_channel(3, 1, 2, seed=118)
    t2 = random_channel(3, 1, 2, seed=119)
    rho_t1 = sum(k @ k.conj().T for k in t1.kraus)
    rho_t2 = sum(k @ k.conj().T for k in t2.kraus)
    res = bures(t1, t2)
    want = bures(functional(rho_t1), functional(rho_t2)).beta
    assert abs(res.beta.lo - want.lo) < 1e-8


def test_bures_dimension_mismatch():
    with pytest.raises(ValueError):
        bures(random_channel(2, 2, 2, seed=120), random_channel(3, 2, 2, seed=121))


def test_bures_fixed_pair_requires_common_representation():
    t1 = random_channel(2, 2, 2, seed=122)
    t2 = random_channel(2, 2, 3, seed=123)
    with pytest.raises(ValueError):
        bures_fixed_pair(minimal_dilation(t1), minimal_dilation(t2))


def test_bures_monotone_in_contraction_choice():
    # the attained witness norm can only improve on arbitrary contractions
    rng = np.random.default_rng(124)
    t1 = random_channel(2, 2, 2, seed=125)
    t2 = random_channel(2, 2, 2, seed=126)
    res = bures(t1, t2)
    from cpdist.dilations import common_pair_from_contraction

    min1, min2 = minimal_dilation(t1), minimal_dilation(t2)
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g /= max(operator_norm(g), 1.0)
        pair = common_pair_from_contraction(min1, min2, Contraction(g))
        assert bures_fixed_pair(*pair) >= res.beta.lo - 1e-8


# ------------------------------------------------------------- 2x2 extension


def test_extension_agrees_with_dilation_route():
    for seed in (127, 128, 129):
        t1 = random_channel(2, 2, 2, seed=seed)
        t2 = random_channel(2, 2, 2, seed=seed + 1000)
        res = bures(t1, t2)
        ext = bures_extension(*res.pair)
        assert abs(ext.value - res.beta.lo) < 1e-4


def test_extension_structure():
    # any common pair gives a cp extension with corners T1 and T2 whose
    # value is the pair's distance: the witness pair, and one steered by
    # an arbitrary contraction
    from cpdist.dilations import common_pair_from_contraction

    rng = np.random.default_rng(130)
    t1 = random_channel(2, 2, 2, seed=130)
    t2 = random_channel(2, 2, 3, seed=131)
    g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    steered = common_pair_from_contraction(
        minimal_dilation(t1), minimal_dilation(t2),
        Contraction(g / operator_norm(g)))
    for pair in (bures(t1, t2).pair, steered):
        ext = bures_extension(*pair)
        assert abs(ext.value - bures_fixed_pair(*pair)) <= 1e-12
        # diagonal corners are the two maps
        assert np.abs(ext.block_choi(0, 0) - t1.choi).max() <= 1e-12
        assert np.abs(ext.block_choi(1, 1) - t2.choi).max() <= 1e-12
        # the extension is completely positive
        assert np.linalg.eigvalsh(ext.choi)[0] >= -1e-12

        # defect consistency: lambda_max equals the squared value
        def at_identity(s, t):
            return partial_trace_first(ext.block_choi(s, t), ext.d, ext.n)

        want = at_identity(0, 0) + at_identity(1, 1) \
            - at_identity(0, 1) - at_identity(1, 0)
        assert np.allclose(want, ext.defect, atol=1e-10)
        assert abs(np.linalg.eigvalsh(ext.defect)[-1]
                   - ext.value_squared) < 1e-10


def test_extension_zero_map_branch():
    t = random_channel(2, 2, 2, seed=132)
    zero = CpMap(2, 2, [])
    ext = bures_extension(*bures(t, zero).pair)
    assert abs(ext.value - 1.0) < 1e-10
    # dilations of different multiplicity share no representation
    with pytest.raises(ValueError):
        bures_extension(minimal_dilation(t), minimal_dilation(zero))


def test_distances_take_one_solve_each(monkeypatch):
    # the extension is read off bures' witness pair, so a dist report makes
    # one solve per distance and a consistency instance one in all
    import cpdist.metrics as metrics
    from cpdist.verify import run_instance

    solves = []
    real_solve = metrics.solve

    def counted(problem):
        solves.append(problem)
        return real_solve(problem)

    monkeypatch.setattr(metrics, "solve", counted)
    t1 = random_channel(2, 2, 2, seed=156)
    t2 = random_channel(2, 2, 3, seed=157)
    assert continuity_certificate(t1, t2).passed
    assert len(solves) == 2
    for seed in (30, 31):
        solves.clear()
        assert run_instance("consistency", 2, 2, None, seed)["passed"]
        assert len(solves) == 1


def near_pair(i, eps):
    """Qubit channel 900 + i and its Kraus operators moved by eps times
    complex normals from default_rng(i)."""
    t1 = random_channel(2, 2, 2, seed=900 + i)
    rng = np.random.default_rng(i)
    return t1, CpMap(2, 2, [
        k + eps * (rng.standard_normal(k.shape)
                   + 1j * rng.standard_normal(k.shape)) for k in t1.kraus])


@pytest.mark.parametrize("pairs", ["qubit", "near", "scaled"])
def test_extension_of_the_witness_pair_is_the_witness(pairs):
    # the value of the extension read off bures' witness pair is the
    # witness norm to roundoff, so no gate on |beta - beta_ext| can check
    # more than witness_gap does
    if pairs == "qubit":
        maps = [(random_channel(2, 2, 2, seed=7000 + i),
                 random_channel(2, 2, 2, seed=8000 + i)) for i in range(40)]
    elif pairs == "near":
        maps = [near_pair(i, eps) for eps in (1e-4, 1e-6, 1e-8)
                for i in range(10)]
    else:
        t1 = random_channel(2, 2, 2, seed=1)
        t2 = random_channel(2, 2, 2, seed=2)
        maps = [(t1.rescaled(c), t2.rescaled(c)) for c in (1e-12, 1e6)]
    for t1, t2 in maps:
        res = bures(t1, t2)
        ext = bures_extension(*res.pair)
        assert abs(ext.value - res.beta.hi) <= 1e-13 * res.beta.hi


# ------------------------------------------------------------- certificates


def test_continuity_certificate_sandwich():
    t1 = random_channel(2, 2, 2, seed=133)
    t2 = random_channel(2, 2, 2, seed=134)
    rep = continuity_certificate(t1, t2, seed=7)
    assert rep.passed
    assert rep.sandwich.lo <= rep.beta + 1e-5
    assert rep.beta <= rep.sandwich.hi + 1e-5
    assert abs(rep.beta_ext - rep.beta) < 1e-4
    # cross-check the endpoints against the raw routes
    cbr = cb_norm(difference(t1, t2))
    denom = np.sqrt(cp_cb_norm(t1)) + np.sqrt(cp_cb_norm(t2))
    assert abs(rep.cb_diff - cbr.cb.lo) < 1e-9
    assert abs(rep.sandwich.lo - cbr.cb.lo / denom) < 1e-9
    assert abs(rep.sandwich.hi - np.sqrt(cbr.cb.lo)) < 1e-9
    assert rep.seed == 7
    assert rep.dims == {"d": 2, "n": 2, "m1": 2, "m2": 2}
    for key in ("lower", "upper", "witness_gap", "dilation_residual",
                "beta_sdp_gap", "cb_sdp_gap", "cb_bracket"):
        assert key in rep.slacks
    assert "cb_ascent_agreement" not in rep.slacks
    assert 0.0 <= rep.slacks["cb_bracket"] <= 1e-7
    assert rep.failed == ()
    assert rep.slacks["dilation_residual"] <= 1e-8
    assert rep.slacks["witness_gap"] <= 1e-5


def test_report_keys_are_the_ends_of_the_separate_solves_bit_for_bit():
    # the pair of tests/golden/dist-23-24-seed1.json
    t1 = random_channel(2, 2, 2, seed=23)
    t2 = random_channel(2, 2, 2, seed=24)
    res = bures(t1, t2)
    cbr = cb_norm(difference(t1, t2))
    rep = continuity_certificate(t1, t2, seed=1)
    doc = rep.to_dict()
    denom = np.sqrt(cp_cb_norm(t1)) + np.sqrt(cp_cb_norm(t2))
    assert doc["beta"] == rep.beta == res.beta.lo
    assert doc["cb_diff"] == rep.cb_diff == cbr.cb.lo
    assert doc["lower"] == rep.sandwich.lo == cbr.cb.lo / denom
    assert doc["upper"] == rep.sandwich.hi == np.sqrt(cbr.cb.lo)
    assert doc["witness_gap"] == rep.slacks["witness_gap"] \
        == abs(res.beta.width)
    assert rep.slacks["cb_bracket"] == cbr.cb.width


def test_continuity_certificate_without_ascent():
    t1 = random_channel(2, 2, 2, seed=135)
    t2 = random_channel(2, 2, 2, seed=136)
    rep = continuity_certificate(t1, t2)
    assert rep.passed
    assert "extension_agreement" not in rep.slacks
    assert "beta_ascent_agreement" not in rep.slacks
    assert "cb_ascent_agreement" not in rep.slacks
    assert "cb_bracket" in rep.slacks
    doc = rep.to_dict()
    for key in ("beta", "beta_ext", "cb_diff", "lower", "upper",
                "witness_gap", "slacks", "seed", "dims"):
        assert key in doc


def test_inverted_cb_bracket_fails(monkeypatch):
    # both ends are exact, so upper below value beyond roundoff is an error
    # the certificate must report, however small
    import dataclasses

    import cpdist.metrics as metrics

    real = metrics.cb_norm

    def inverted(f):
        res = real(f)
        return dataclasses.replace(res, cb=Bracket(res.cb.lo, res.cb.lo - 1e-9))

    t1 = random_channel(2, 2, 2, seed=135)
    t2 = random_channel(2, 2, 2, seed=136)
    monkeypatch.setattr(metrics, "cb_norm", inverted)
    rep = continuity_certificate(t1, t2)
    assert rep.failed == ("cb_bracket",)
    assert rep.slacks["cb_bracket"] == pytest.approx(-1e-9, abs=1e-15)


def test_inverted_bures_bracket_fails_its_witness_gate():
    # witness_gap is |beta.width|, so a lower end above the witness norm
    # fails the gate like an upper end above it
    import dataclasses

    t1 = random_channel(2, 2, 2, seed=135)
    t2 = random_channel(2, 2, 2, seed=136)
    res = bures(t1, t2)
    rep = continuity_certificate(t1, t2, solved=dataclasses.replace(
        res, beta=Bracket(res.beta.hi + 1e-3, res.beta.hi)))
    assert rep.failed == ("witness_gap",)
    margin = {c.name: c.margin for c in rep.checks}["witness_gap"]
    assert margin == pytest.approx(1e-5 - 1e-3, abs=1e-15)


def test_monotonicity_certificate_both_sides():
    t1 = random_channel(2, 2, 2, seed=137)
    t2 = random_channel(2, 2, 2, seed=138)
    cert = monotonicity_certificate(random_channel(2, 3, 2, seed=139),
                                    random_channel(3, 2, 2, seed=140), t1, t2)
    assert cert.passed
    assert [c.name for c in cert.checks] == ["post", "pre"]
    for c in cert.checks:
        bound = np.sqrt(cert.norm_s[c.name]) * cert.before
        assert c.value == bound - cert.after[c.name]


def test_monotonicity_certificate_solves_beta_once_for_both_sides(monkeypatch):
    import cpdist.metrics as metrics

    real = metrics.bures
    calls = []

    def counting(t1, t2):
        calls.append((t1, t2))
        return real(t1, t2)

    monkeypatch.setattr(metrics, "bures", counting)
    t1 = random_channel(2, 2, 2, seed=137)
    t2 = random_channel(2, 2, 2, seed=138)
    s = random_channel(2, 2, 2, seed=139)
    monotonicity_certificate(s, s, t1, t2)
    # beta(T1, T2) once, then one composed pair per side
    assert len(calls) == 3


def test_certificates_read_a_given_solve_and_refuse_one_of_other_maps():
    t1 = random_channel(2, 2, 2, seed=137)
    t2 = random_channel(2, 2, 2, seed=138)
    s = random_channel(2, 2, 2, seed=139)
    given = bures(t1, t2)
    assert (continuity_certificate(t1, t2, solved=given).to_dict()
            == continuity_certificate(t1, t2).to_dict())
    assert (monotonicity_certificate(s, s, t1, t2, solved=given)
            == monotonicity_certificate(s, s, t1, t2))
    # the witness pair of (t2, t1) dilates the maps the other way round,
    # and that of (t1, s) dilates s in place of t2
    with pytest.raises(ValueError, match="not a Bures solve of"):
        continuity_certificate(t1, t2, solved=bures(t2, t1))
    with pytest.raises(ValueError, match="not a Bures solve of"):
        monotonicity_certificate(s, s, t1, t2, solved=bures(t1, s))


def test_bures_is_scale_covariant_from_1e_minus_12_to_1e6():
    # beta(c T1, c T2) = sqrt(c) beta(T1, T2); the Kraus rank is kept at
    # every scale (a cutoff relative to the largest Gram eigenvalue), the
    # scaled bracket, divided by sqrt(c), meets the unscaled one, and the
    # extension read off the scaled witness pair agrees to 1e-8
    t1 = random_channel(2, 2, 2, seed=1)
    t2 = random_channel(2, 2, 2, seed=2)
    plain = bures(t1, t2)
    for e in range(-12, 7):
        c = 10.0 ** e
        s1, s2 = t1.rescaled(c), t2.rescaled(c)
        for s in (s1, s2):
            dil = minimal_dilation(s)
            assert dil.m == 2, e
            assert verify_dilation(dil, s) <= 1e-8 * c, e
        res = bures(s1, s2)
        root = np.sqrt(c)
        assert res.beta.lo / root <= plain.beta.hi, e
        assert plain.beta.lo <= res.beta.hi / root, e
        ext = bures_extension(*res.pair)
        assert abs(ext.value / root - plain.beta.lo) <= 1e-8 * plain.beta.lo, e


def representations(t, rng):
    """The same map three more ways: its Kraus family mixed by a Haar
    unitary, that family zero-padded, and a composition output with more
    than d*n operators."""
    m = len(t.kraus)
    mixed = CpMap(t.d_in, t.d_out,
                  list(np.einsum("ij,jab->iab", haar_unitary(rng, m), t.kraus)))
    padded = CpMap(t.d_in, t.d_out,
                   np.concatenate([mixed.kraus, np.zeros((2, t.d_in, t.d_out))]))
    copies = max(3, t.d_in * t.d_out // m + 1)
    redundant = compose(CpMap(t.d_out, t.d_out,
                              [np.eye(t.d_out) / np.sqrt(copies)] * copies), t)
    assert len(redundant.kraus) > t.d_in * t.d_out
    return mixed, padded, redundant


def check_representation_independence(d, identity_factor):
    """Every distance of a Kraus-rank-2 and a Kraus-rank-3 map at d = n is
    the same in each representation; `identity_factor` says, per family,
    whether the cb program runs on the Choi matrix itself."""
    rng = np.random.default_rng(180)
    t1 = random_channel(d, d, 2, seed=181)
    t2 = random_channel(d, d, 3, seed=182)
    base = bures(t1, t2)
    base_ext = bures_extension(*base.pair)
    base_cb = cb_norm(difference(t1, t2))
    reps = list(zip(representations(t1, rng), representations(t2, rng)))
    assert tuple(difference(r1, r2).factor.shape[1] >= d * d
                 for r1, r2 in reps) == identity_factor
    for r1, r2 in reps:
        for r, t in ((r1, t1), (r2, t2)):
            dil = minimal_dilation(r)
            assert dil.m == minimal_dilation(t).m
            assert verify_dilation(dil, t) <= 1e-10
        res = bures(r1, r2)
        assert abs(res.beta.lo - base.beta.lo) <= 1e-7
        assert abs(res.beta.hi - base.beta.hi) <= 1e-7
        assert abs(bures_extension(*res.pair).value - base_ext.value) <= 1e-7
        cb = cb_norm(difference(r1, r2))
        assert abs(cb.cb.lo - base_cb.cb.lo) <= 1e-7
        assert abs(cb.cb.hi - base_cb.cb.hi) <= 1e-7


def test_distances_do_not_depend_on_the_kraus_representation():
    check_representation_independence(2, (True, True, True))


def test_distances_do_not_depend_on_the_kraus_representation_at_d3():
    # the mixed families run the program on the Kraus factor (r = 5 < 9),
    # the padded (r = 9) and redundant ones on the Choi matrix
    check_representation_independence(3, (False, True, True))
