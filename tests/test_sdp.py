import importlib.util
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cpdist
import cpdist.metrics as metrics
import cpdist.sdp as sdp
from cpdist.linalg import check_hermitian, hermitian_part, trace_norm
from cpdist.maps import difference, random_channel
from cpdist.sdp import (
    SdpNoConvergence,
    SdpProblem,
    hermitian_basis,
    solve,
)

from oracles import dense_adjoint, dense_schur, max_steps, power_top_eigenvalue

ROOT = Path(__file__).resolve().parent.parent


def random_hermitian(rng, q):
    g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    return (g + g.conj().T) / 2


def test_hermitian_basis_spans():
    rng = np.random.default_rng(81)
    for q in (1, 2, 4):
        basis = list(hermitian_basis(q))
        assert len(basis) == q * q
        for h in basis:
            assert np.allclose(h, h.conj().T)
        # real linear combinations reconstruct any Hermitian matrix
        target = random_hermitian(rng, q)
        mat = np.array([b.reshape(-1) for b in basis]).T
        coeff, *_ = np.linalg.lstsq(
            np.vstack([mat.real, mat.imag]),
            np.concatenate([target.real.reshape(-1), target.imag.reshape(-1)]),
            rcond=None,
        )
        rebuilt = sum(c * b for c, b in zip(coeff, basis))
        assert np.allclose(rebuilt, target, atol=1e-10)


def test_problem_validation():
    with pytest.raises(ValueError):
        SdpProblem(blocks=(), objective={}, constraints=[({}, 0.0, "=")])
    with pytest.raises(ValueError):
        SdpProblem(blocks=(2,), objective={}, constraints=[])
    with pytest.raises(TypeError):     # every problem is maximized
        SdpProblem(blocks=(2,), objective={}, constraints=[({}, 0.0, "=")],
                   sense="min")
    with pytest.raises(ValueError):
        SdpProblem(blocks=(2,), objective={0: np.eye(3)},
                   constraints=[({}, 0.0, "=")])
    with pytest.raises(ValueError):
        SdpProblem(blocks=(2,), objective={1: np.eye(2)},
                   constraints=[({}, 0.0, "=")])
    with pytest.raises(ValueError):
        SdpProblem(blocks=(2,), objective={0: np.array([[0, 1], [0, 0]])},
                   constraints=[({}, 0.0, "=")])
    with pytest.raises(ValueError):
        SdpProblem(blocks=(2,), objective={},
                   constraints=[({0: np.eye(2)}, np.inf, "=")])
    with pytest.raises(ValueError):
        SdpProblem(blocks=(2,), objective={},
                   constraints=[({0: np.eye(2)}, 0.0, ">=")])
    with pytest.raises(ValueError, match="slack block"):
        SdpProblem(blocks=(2,), objective={},
                   constraints=[({0: np.eye(2)}, 0.0, "<=")])
    # Each block's coefficients are gated as one stack, which still refuses
    # a single bad coefficient, the last of the block included.
    for bad in (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones((2, 3)),
                np.ones(2)):
        with pytest.raises(ValueError):
            SdpProblem(blocks=(2,), objective={},
                       constraints=[({0: bad}, 0.0, "=")])
    for bad in (np.eye(3), np.array([[0, 1], [0, 0]])):
        with pytest.raises(ValueError):
            SdpProblem(blocks=(2,), objective={},
                       constraints=[({0: np.eye(2)}, 0.0, "="),
                                    ({0: np.eye(2)}, 1.0, "="),
                                    ({0: bad}, 2.0, "=")])


def test_problem_coefficients_are_gated_bit_for_bit():
    # The stacked gate symmetrizes each coefficient to the same bits as
    # check_hermitian, and keeps each constraint's blocks in their order.
    rng = np.random.default_rng(88)
    raw = []
    for _ in range(12):
        coeffs = {}
        for b in rng.permutation(3)[:rng.integers(1, 4)]:
            q = (2, 3, 1)[b]
            noise = 1e-10 * (rng.standard_normal((q, q))
                             + 1j * rng.standard_normal((q, q)))
            coeffs[int(b)] = random_hermitian(rng, q) + noise
        raw.append((coeffs, rng.standard_normal(), "="))
    prob = SdpProblem(blocks=(2, 3, 1), objective={1: random_hermitian(rng, 3)},
                      constraints=raw)
    for (coeffs, _, _), (gated, _, _) in zip(raw, prob.constraints):
        assert list(gated) == list(coeffs)
        for b, mat in coeffs.items():
            assert np.array_equal(gated[b], check_hermitian(mat))


def test_scalar_equality():
    # min x = -max -x subject to x = 2 over psd 1x1 blocks
    prob = SdpProblem(
        blocks=(1,),
        objective={0: -np.eye(1)},
        constraints=[({0: np.eye(1)}, 2.0, "=")],
    )
    sol = solve(prob)
    assert abs(sol.primal_value + 2.0) < 1e-7
    assert abs(sol.blocks[0][0, 0].real - 2.0) < 1e-7


def test_top_eigenvalue_as_sdp():
    # max <H, X> s.t. tr X = 1 equals the top eigenvalue of H
    rng = np.random.default_rng(82)
    for q in (2, 3, 5):
        h = random_hermitian(rng, q)
        prob = SdpProblem(
            blocks=(q,),
            objective={0: h},
            constraints=[({0: np.eye(q)}, 1.0, "=")],
        )
        sol = solve(prob)
        want = power_top_eigenvalue(h)
        assert abs(sol.primal_value - want) < 1e-7
        assert sol.gap < 1e-7
        x = sol.blocks[0]
        assert np.linalg.eigvalsh(x)[0] > -1e-9
        assert abs(np.trace(x).real - 1.0) < 1e-7


def test_trace_norm_as_sdp():
    # max Re tr(A† W) over contractions W, phrased with a psd corner block:
    # Z = [[X1, W], [W†, X2]] psd with X1 = 1_p, X2 = 1_q pinned entrywise.
    rng = np.random.default_rng(83)
    p, q = 2, 3
    a = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    c = np.zeros((p + q, p + q), dtype=np.complex128)
    c[:p, p:] = a / 2
    c[p:, :p] = a.conj().T / 2
    constraints = []
    for h in hermitian_basis(p):
        hz = np.zeros((p + q, p + q), dtype=np.complex128)
        hz[:p, :p] = h
        constraints.append(({0: hz}, float(np.trace(h).real), "="))
    for h in hermitian_basis(q):
        hz = np.zeros((p + q, p + q), dtype=np.complex128)
        hz[p:, p:] = h
        constraints.append(({0: hz}, float(np.trace(h).real), "="))
    prob = SdpProblem(blocks=(p + q,), objective={0: c},
                      constraints=constraints)
    sol = solve(prob)
    assert abs(sol.primal_value - trace_norm(a)) < 1e-6
    w = sol.blocks[0][:p, p:]
    assert np.linalg.svd(w, compute_uv=False)[0] <= 1.0 + 1e-7


def test_inequality_constraints_and_slacks():
    # min x1 + x2 = -max -(x1 + x2) s.t. -x1 <= -1, -x2 <= -2  =>  x = (1, 2);
    # each inequality is an equality with its own 1x1 slack block (blocks 2
    # and 3)
    one = np.eye(1)
    prob = SdpProblem(
        blocks=(1, 1, 1, 1),
        objective={0: -one, 1: -one},
        constraints=[
            ({0: -one, 2: one}, -1.0, "="),
            ({1: -one, 3: one}, -2.0, "="),
        ],
    )
    sol = solve(prob)
    assert abs(sol.primal_value + 3.0) < 1e-6
    assert abs(sol.blocks[0][0, 0].real - 1.0) < 1e-6
    assert abs(sol.blocks[1][0, 0].real - 2.0) < 1e-6
    assert all(sol.blocks[k][0, 0].real > -1e-9 for k in (2, 3))
    # inactive inequality leaves positive slack
    prob2 = SdpProblem(
        blocks=(1, 1, 1),
        objective={0: -one},
        constraints=[
            ({0: -one, 1: one}, -1.0, "="),
            ({0: one, 2: one}, 10.0, "="),
        ],
    )
    sol2 = solve(prob2)
    assert abs(sol2.primal_value + 1.0) < 1e-6
    assert sol2.blocks[2][0, 0].real > 8.0


def test_duality_and_certificates():
    rng = np.random.default_rng(84)
    q = 4
    h = random_hermitian(rng, q)
    # <H', X> <= 0.3 with the slack block 1
    prob = SdpProblem(
        blocks=(q, 1),
        objective={0: h},
        constraints=[({0: np.eye(q)}, 1.0, "="),
                     ({0: random_hermitian(rng, q), 1: np.eye(1)}, 0.3, "=")],
    )
    sol = solve(prob)
    assert sol.gap < 1e-7
    assert sol.primal_residual < 1e-8
    assert sol.dual_residual < 1e-8
    assert abs(sol.primal_value - sol.dual_value) < 1e-6


def test_two_blocks_coupled():
    # min tr X0 + tr X1 = -max -(tr X0 + tr X1) s.t. tr X0 - tr X1 = 1,
    # tr X1 = 0.5
    prob = SdpProblem(
        blocks=(2, 2),
        objective={0: -np.eye(2), 1: -np.eye(2)},
        constraints=[
            ({0: np.eye(2), 1: -np.eye(2)}, 1.0, "="),
            ({1: np.eye(2)}, 0.5, "="),
        ],
    )
    sol = solve(prob)
    assert abs(sol.primal_value + 2.0) < 1e-6


def test_infeasible_raises():
    # x >= 0 with x = -1 has no feasible point: b.y grows without bound
    # against A^T y + S, and the solve stops naming primal infeasibility
    # before any iterate overflows, so no warning is emitted
    prob = SdpProblem(
        blocks=(1,),
        objective={0: -np.eye(1)},
        constraints=[({0: np.eye(1)}, -1.0, "=")],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SdpNoConvergence,
                           match=r"^primal infeasible at iteration \d+: "
                                 r"b\.y / max\(1, \|\|A\^T y \+ S\|\|\) = "):
            solve(prob)


def test_failed_factorization_of_x_stops_the_solve(monkeypatch):
    # X and S take no lift: a Cholesky factorization of X that fails at
    # iteration 2 stops the solve there, and the message says so.
    rng = np.random.default_rng(84)
    prob = SdpProblem(
        blocks=(3,),
        objective={0: random_hermitian(rng, 3)},
        constraints=[({0: np.eye(3)}, 1.0, "=")],
    )
    assert solve(prob).iterations > 2
    cholesky = np.linalg.cholesky
    complex_calls = []

    def fail_on_x_at_iteration_2(a):
        if a.dtype == np.complex128:       # X, then S, once per iteration
            complex_calls.append(a.shape)
            if len(complex_calls) == 5:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(sdp.np.linalg, "cholesky", fail_on_x_at_iteration_2)
    with pytest.raises(SdpNoConvergence) as excinfo:
        solve(prob)
    assert str(excinfo.value).startswith(
        "broke down at iteration 2: the Cholesky factorization of X failed")
    assert len(complex_calls) == 5
    assert excinfo.value.best is not None


def test_no_convergence_carries_best_iterate(monkeypatch):
    rng = np.random.default_rng(85)
    h = random_hermitian(rng, 3)
    prob = SdpProblem(
        blocks=(3,),
        objective={0: h},
        constraints=[({0: np.eye(3)}, 1.0, "=")],
    )
    monkeypatch.setattr(sdp, "MAX_ITER", 3)
    with pytest.raises(SdpNoConvergence) as excinfo:
        solve(prob)
    assert str(excinfo.value).startswith("no convergence after 3 iterations")
    best = excinfo.value.best
    assert best is not None
    assert len(best.blocks) == 1 and best.blocks[0].shape == (3, 3)


def test_deterministic_repeat():
    rng = np.random.default_rng(86)
    h = random_hermitian(rng, 3)
    prob = SdpProblem(
        blocks=(3,),
        objective={0: h},
        constraints=[({0: np.eye(3)}, 1.0, "=")],
    )
    a = solve(prob)
    b = solve(prob)
    assert a.primal_value == b.primal_value
    assert np.array_equal(a.blocks[0], b.blocks[0])


def test_schur_matches_dense_oracle():
    # Blocks 0 and 1 share unit-entry rows (the Hermitian basis), block 2
    # carries dense rows, block 3 is 1x1, and every third row has a 1x1
    # slack block of its own, after block 3.
    rng = np.random.default_rng(87)
    constraints = []
    slack_blocks = 0
    for k, h in enumerate(hermitian_basis(4)):
        coeffs = {0: h, 1: h}
        if k % 2 == 0:
            coeffs[2] = random_hermitian(rng, 3)
        if k % 5 == 0:
            coeffs[3] = rng.standard_normal((1, 1))
        if k % 3 == 0:
            coeffs[4 + slack_blocks] = np.eye(1)
            slack_blocks += 1
        constraints.append((coeffs, rng.standard_normal(), "="))
    prob = SdpProblem(blocks=(4, 4, 3, 1) + (1,) * slack_blocks, objective={},
                      constraints=constraints)
    kernel = sdp._Kernel(prob)
    assert [0, 1] in kernel.groups
    assert {blk.gather for blk in kernel.blocks} == {True, False}
    ws = []
    for q in prob.blocks:
        g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        ws.append(g @ g.conj().T + np.eye(q))
    w = np.zeros((kernel.side,) * 2, dtype=np.complex128)
    for blk, wb in zip(kernel.blocks, ws):
        w[blk.span, blk.span] = wb
    want = dense_schur(prob, ws)
    assert np.abs(kernel.schur(w) - want).max() <= 1e-12 * np.abs(want).max()


def test_schur_tables_only_for_the_first_block_of_a_group(monkeypatch):
    # The cb-norm program's blocks 1 and 2 carry the same coefficients and
    # share block 1's Schur sum, so block 2 builds no table.
    problems = []

    def capture(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(metrics, "solve", capture)
    metrics.cb_norm(difference(random_channel(2, 2, 2, seed=1),
                               random_channel(2, 2, 2, seed=2)))
    kernel = sdp._Kernel(problems[0])
    assert kernel.groups == [[0], [1, 2]]
    tables = ("schur_span", "prow", "pcol", "pv", "h")
    assert all(any(hasattr(kernel.blocks[i], t) for t in tables) for i in (0, 1))
    assert not any(hasattr(kernel.blocks[2], t) for t in tables)


@pytest.mark.parametrize("m", [40, 64, 65, 150])
def test_cho_solve_on_one_panel_and_on_several(m):
    # 64 rows and fewer take the two solves whole; 65 and 150 run the
    # panel loop, with a last panel of 1 and of 22 rows
    rng = np.random.default_rng(m)
    g = rng.standard_normal((m, m))
    a = g @ g.T + m * np.eye(m)
    rhs = rng.standard_normal(m)
    x = sdp._cho_solve(np.linalg.cholesky(a), rhs)
    want = np.linalg.solve(a, rhs)
    assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
    assert np.linalg.norm(a @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_nt_frame_steps_match_the_cholesky_oracle():
    # X + alpha dX = G (diag(lam) + alpha G^-1 dX G^-†) G†: the step lengths
    # read off the NT frame equal those read off inverse Cholesky factors,
    # on block-diagonal X, S and directions, one of them psd.
    rng = np.random.default_rng(90)
    dims = (3, 1, 4)

    def block_diagonal(draw):
        out = np.zeros((sum(dims),) * 2, dtype=np.complex128)
        off = 0
        for q in dims:
            out[off:off + q, off:off + q] = draw(q)
            off += q
        return out

    def psd(q):
        g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        return g @ g.conj().T + 0.1 * np.eye(q)

    for k in range(20):
        x, s = block_diagonal(psd), block_diagonal(psd)
        dx = block_diagonal(lambda q: random_hermitian(rng, q))
        ds = block_diagonal(psd if k == 0 else lambda q: random_hermitian(rng, q))
        lx, ls = np.linalg.cholesky(x), np.linalg.cholesky(s)
        frame, lam = sdp._nt_frame(lx, ls)
        (xt, st), _ = sdp._frame_steps(frame, lam, x, s)
        assert np.abs(xt - np.diag(lam)).max() <= 1e-12 * lam.max()
        assert np.abs(st - np.diag(lam)).max() <= 1e-12 * lam.max()
        _, steps = sdp._frame_steps(frame, lam, dx, ds)
        want = max_steps(np.linalg.inv(np.stack([lx, ls])), (dx, ds))
        assert np.isinf(steps[1]) == np.isinf(want[1]) == (k == 0)
        finite = np.isfinite(want)
        assert np.all(np.abs(steps[finite] - want[finite]) <= 1e-10 * want[finite])


def cbnorm_d4_pool_pairs(count):
    """The first `count` channel pairs (d = n = 4, Kraus rank 2) in the
    order of the benchmark's cbnorm-d4 pool."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "cpbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads.CbNormD4(cpdist, workdir=None)
    return [pool.payload(i)[0] for i in pool.pool["order"][:count]]


def test_aty_matches_the_dense_adjoint(monkeypatch):
    # sum_k y_k A_kb, scattered from the kernel's entry list, equals the sum
    # over the dense coefficients bit for bit, on every block of the cb-norm
    # and Bures programs of 20 qubit pairs and 5 pairs at d = n = 4.
    solved = []

    def capture(problem):
        solved.append((problem, solve(problem)))
        return solved[-1][1]

    monkeypatch.setattr(metrics, "solve", capture)
    pairs = [(random_channel(2, 2, 2, seed=7000 + i),
              random_channel(2, 2, 2, seed=8000 + i)) for i in range(20)]
    for t1, t2 in pairs + cbnorm_d4_pool_pairs(5):
        metrics.cb_norm(difference(t1, t2))
        metrics.bures(t1, t2)
    assert len(solved) == 50
    for problem, sol in solved:
        assert len(sol.aty) == len(problem.blocks)
        for b, aty in enumerate(sol.aty):
            assert np.array_equal(aty, dense_adjoint(problem, sol.y, b))


def test_iterate_is_zero_off_the_blocks(monkeypatch):
    # The cb-norm program of a qubit pair, blocks (2, 4, 4): its first
    # iterates are multiples of the identity, so the NT SVD sees every
    # singular value repeated across the blocks.
    problems = []

    def capture(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(metrics, "solve", capture)
    metrics.cb_norm(difference(random_channel(2, 2, 2, seed=7003),
                               random_channel(2, 2, 2, seed=8003)))
    kernel = sdp._Kernel(problems[0])
    assert len(kernel.blocks) == 3
    x, s, _, _, _, _, stop = kernel.solve()
    assert stop is None
    assert not np.any(x[kernel.off_blocks])
    assert not np.any(s[kernel.off_blocks])


def test_phase_timers_fit_in_the_solve():
    rng = np.random.default_rng(88)
    prob = SdpProblem(
        blocks=(4, 1, 1),
        objective={0: random_hermitian(rng, 4), 1: np.eye(1)},
        constraints=[({0: np.eye(4)}, 1.0, "="),
                     ({0: random_hermitian(rng, 4), 1: np.eye(1), 2: np.eye(1)},
                      0.5, "=")],
    )
    t0 = time.perf_counter()
    sol = solve(prob)
    wall = time.perf_counter() - t0
    assert tuple(sol.phase_s) == (
        "assembly", "schur", "factor", "step", "scaling", "rest")
    assert min(sol.phase_s.values()) >= 0.0
    assert 0.95 * wall <= sum(sol.phase_s.values()) <= wall


def test_schur_lift_is_counted(monkeypatch):
    # A Schur factorization that fails once is lifted, the solve still
    # converges, and the solution says so.
    rng = np.random.default_rng(89)
    prob = SdpProblem(
        blocks=(3,),
        objective={0: random_hermitian(rng, 3)},
        constraints=[({0: np.eye(3)}, 1.0, "=")],
    )
    assert solve(prob).schur_lifts == 0
    cholesky = np.linalg.cholesky
    failed = []

    def fail_once_on_schur(a):
        if a.dtype == np.float64 and not failed:   # X and S are complex
            failed.append(a.shape)
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    monkeypatch.setattr(sdp.np.linalg, "cholesky", fail_once_on_schur)
    sol = solve(prob)
    assert failed == [(1, 1)]
    assert sol.schur_lifts == 1
    assert abs(sol.primal_value - power_top_eigenvalue(prob.objective[0])) < 1e-7


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_cb_norm_converges_without_fallback(monkeypatch, d):
    # Each Newton direction is refined once against A dX = rp; unrefined,
    # these solves stall just above the feasibility target, and a solve
    # that misses its target raises.  Two Kraus-rank-2 maps have r = 4
    # Kraus vectors: at d = 2 that is d*n, and the cb program is posed on
    # the Choi matrix itself (B = 1); above, on the Kraus factor.  Both
    # have r^2 + 1 constraints.  The Bures program of the same pairs has
    # blocks (d, 4) and 2 * 2 * 2 + 1 constraints.
    problems = []

    def strict(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(metrics, "solve", strict)
    for k in range(5):
        t1 = random_channel(d, d, 2, seed=1000 + 10 * d + 2 * k)
        t2 = random_channel(d, d, 2, seed=1001 + 10 * d + 2 * k)
        res = metrics.cb_norm(difference(t1, t2))
        assert res.cb.width <= 1e-7
        assert problems[-1].blocks == (d, 4, 4)
        assert len(problems[-1].constraints) == 4 ** 2 + 1
        beta = metrics.bures(t1, t2)
        assert beta.beta.hi ** 2 - beta.beta_squared <= 1e-6
        assert problems[-1].blocks == (d, 4)
        assert len(problems[-1].constraints) == 2 * 2 * 2 + 1


def test_cb_norm_iterations_on_qubit_pairs():
    # The refinement of each Newton direction keeps the solve from stalling
    # on primal feasibility after the gap has closed; unrefined, these pairs
    # took 32.5 iterations on average, up to 64.  Without the second-order
    # corrector they took 19.4, up to 23.
    # From the unit-scale start with SDPT3's step fraction they take 9.3,
    # up to 11; from 10*I with a fixed fraction of 0.95, 10.8, up to 13.
    iterations = [
        metrics.cb_norm(difference(random_channel(2, 2, 2, seed=7000 + i),
                                   random_channel(2, 2, 2, seed=8000 + i))).iterations
        for i in range(40)]
    assert np.mean(iterations) <= 10
    assert max(iterations) <= 13


def test_bures_iterations_on_qubit_pairs():
    # Without the second-order corrector these pairs took 18.1 iterations on
    # average, up to 23.  From the unit-scale start with SDPT3's step
    # fraction they take 10.2, up to 13; from 10*I with a fixed fraction of
    # 0.95, 11.5, up to 14.
    iterations = [
        metrics.bures(random_channel(2, 2, 2, seed=7000 + i),
                      random_channel(2, 2, 2, seed=8000 + i)).iterations
        for i in range(40)]
    assert np.mean(iterations) <= 11
    assert max(iterations) <= 14


@pytest.mark.parametrize("i,min_lifts", [(271, 0), (8, 1)])
def test_cb_norm_converges_after_lifted_factorizations(monkeypatch, i, min_lifts):
    # Qubit pair 8's Schur factorization is lifted in one of its 10
    # iterations, and the solve still converges with each direction refined
    # once, as after an unlifted factorization.  Pair 218, lifted in 3
    # iterations from the starting point 10*I, needs no lift from the
    # unit-scale one.  Pair 271 stalled at primal residual 1.01e-9 until
    # the iteration budget ran out, under another order of the kernel's
    # roundoff.
    solutions = []

    def capture(problem):
        solutions.append(solve(problem))
        return solutions[-1]

    monkeypatch.setattr(metrics, "solve", capture)
    res = metrics.cb_norm(difference(random_channel(2, 2, 2, seed=7000 + i),
                                     random_channel(2, 2, 2, seed=8000 + i)))
    assert res.iterations <= 30
    assert solutions[-1].schur_lifts >= min_lifts
