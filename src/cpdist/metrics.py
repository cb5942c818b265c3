"""Distance measures between completely positive maps, with certificates.

Two central quantities:

* the cb-norm distance ``cb_norm(T1 - T2)``, computed by a semidefinite
  program over the Choi matrix of the difference (for Hermitian-preserving
  maps, the cb norm equals the stabilized 1->1 norm of the predual with an
  ancilla no larger than the output space), solved once; its primal state
  and its dual variable each give an exact end of the bracket
  [value, upper];

* the Bures distance ``bures(T1, T2)``, the infimum of ||V1 - V2|| over
  dilations of the two maps in a common representation. It is computed as

      beta^2 = max_rho [ tr(rho (T1(1) + T2(1))) - 2 ||N(rho)||_1 ],
      N(rho)_ji = tr( K_j^(2) rho K_i^(1)† ),

  a maximization over input states rho with the trace norm entering through
  the standard psd epigraph block, solved once by the interior point engine.
  The dual of that program is the minimax over steering contractions w of
  lambda_max(A - Omega(w) - Omega(w)†), so the same solve yields both
  sides: the state rho* from its primal, and w* from its dual variable or
  from the polar factor of N(rho*), whichever attains the smaller value.
  An explicit witness pair of dilations built from w* attains the distance.

Both routes return exact re-evaluations of feasible points, so every
reported number is a certified bound up to roundoff: beta^2 from a
projected feasible rho (lower side) and the attained witness norm (upper
side) bracket the Bures distance, and the cb bracket's ends are the values
of a feasible primal and a feasible dual point.

The functional-level helpers (fidelity, state Bures distance, the
Radon-Nikodym reflection chain, mixture continuity) certify the same
geometry for positive functionals, where everything reduces to closed
forms in the operators' spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_matrix,
    check_hermitian,
    eigh,
    operator_norm,
    partial_trace_first,
    polar_unitary_part,
    psd_sqrt,
    trace_norm,
)
from .maps import (
    CpMap,
    HermMap,
    check_positive_operator,
    difference,
)
from .dilations import (
    Contraction,
    Dilation,
    common_pair_from_contraction,
    minimal_dilation,
    verify_dilation,
)
from .sdp import (
    SdpNoConvergence,
    SdpProblem,
    SdpSolution,
    hermitian_basis,
    solve,
)

__all__ = [
    "CbNormResult",
    "BuresResult",
    "ExtensionResult",
    "MetricReport",
    "MonotonicityCertificate",
    "ReflectionCertificate",
    "MixtureCertificate",
    "cp_cb_norm",
    "cb_norm",
    "bures",
    "bures_fixed_pair",
    "bures_extension",
    "fidelity",
    "bures_states",
    "radon_nikodym_operator",
    "continuity_certificate",
    "monotonicity_certificate",
    "reflection_certificate",
    "mixture_certificate",
]


# Quality gate for accepting a final interior-point iterate that missed the
# solver's own (much stricter) convergence target.
_ACCEPT_GAP = 1e-7
_ACCEPT_RESIDUAL = 1e-7


def _solve_tolerant(problem: SdpProblem) -> SdpSolution:
    """solve(), accepting a near-converged final iterate.

    On degenerate instances the interior point engine can stall a small
    factor above its 1e-9 feasibility target.  Every consumer in this module
    re-evaluates its certificate quantities exactly at a projected feasible
    point, so an iterate certified to 1e-7 is still two orders of magnitude
    tighter than any gate downstream; anything worse propagates as an error.
    """
    try:
        return solve(problem)
    except SdpNoConvergence as exc:
        best = exc.best
        if (best is not None and best.gap <= _ACCEPT_GAP
                and best.primal_residual <= _ACCEPT_RESIDUAL
                and best.dual_residual <= _ACCEPT_RESIDUAL):
            return best
        raise


# ----------------------------------------------------------------------------
# cb norm


@dataclass
class CbNormResult:
    """cb norm with its SDP gap and an exact bracket [value, upper].

    value is the program's exact optimum at the solve's projected state and
    upper the value of a feasible dual point, so value <= cb norm <= upper
    holds whether or not the solver converged.
    """

    value: float
    upper: float
    sdp_gap: float
    iterations: int

    @property
    def ascent_value(self) -> float:
        """Alias of value, read by the cbnorm-d4 check of cpbench/workloads.py."""
        return self.value


def bracket_roundoff(cb: float) -> float:
    """How far the exact cb bracket [value, upper] may invert by roundoff."""
    return 1e-12 * max(1.0, abs(cb))


def cp_cb_norm(t: CpMap) -> float:
    """cb norm of a completely positive map: the norm of T(1)."""
    return operator_norm(t.at_identity())


def _as_hermmap(f) -> HermMap:
    if isinstance(f, HermMap):
        return f
    if isinstance(f, CpMap):
        return HermMap(f.d_in, f.d_out, f.choi)
    raise ValueError("expected a CpMap or HermMap")


def cb_norm(f) -> CbNormResult:
    """cb norm of a Hermitian-preserving map, by one SDP with an exact bracket.

    The program maximizes tr(J Z) over Hermitian Z with -1⊗rho ≼ Z ≼ 1⊗rho
    and a state rho, written with the psd split G1 = 1⊗rho - Z, G2 = 1⊗rho + Z.
    Its two sides give the bracket:

    * value = ||S J S||_1 with S = 1⊗sqrt(rho) at the projected state rho,
      the program's exact optimum at that rho, attained by
      Z = S sign(S J S) S;
    * upper = lambda_max(2 Tr_d Y) for the dual point Y = -sum_k y_k h_k,
      shifted by the least multiple of 1 that makes Y ± J/2 ⪰ 0 (Watrous's
      cb-norm dual, arXiv:1207.5726).

    Accepts a CpMap or HermMap.
    """
    f = _as_hermmap(f)
    d, n = f.d_in, f.d_out
    side = d * n
    j = f.choi

    if np.abs(j).max() <= 1e-14:
        return CbNormResult(value=0.0, upper=0.0, sdp_gap=0.0, iterations=0)

    basis = list(hermitian_basis(side))
    constraints = [({0: np.eye(n, dtype=np.complex128)}, 1.0, "=")]
    for h in basis:
        coeff = {
            1: h,
            2: h,
            0: -2.0 * partial_trace_first(h, d, n),
        }
        constraints.append((coeff, 0.0, "="))
    problem = SdpProblem(
        blocks=(n, side, side),
        objective={1: -0.5 * j, 2: 0.5 * j},
        constraints=constraints,
        sense="max",
    )
    sol = _solve_tolerant(problem)
    s = np.kron(np.eye(d), psd_sqrt(_project_density(sol.blocks[0])))
    value = trace_norm(s @ j @ s)

    y = -np.tensordot(sol.y[1:], np.asarray(basis), axes=1)
    shift = max(0.0, -float(np.linalg.eigvalsh(y - j / 2)[0]),
                -float(np.linalg.eigvalsh(y + j / 2)[0]))
    upper = float(np.linalg.eigvalsh(
        2.0 * partial_trace_first(y, d, n) + 2.0 * d * shift * np.eye(n))[-1])
    return CbNormResult(
        value=value,
        upper=upper,
        sdp_gap=sol.gap,
        iterations=sol.iterations,
    )


# ----------------------------------------------------------------------------
# Bures distance between cp maps


def _kraus_stack(dil: Dilation) -> np.ndarray:
    """Minimal Kraus family as one (m, d, n) tensor."""
    if dil.m == 0:
        return np.zeros((0, dil.d, dil.n), dtype=np.complex128)
    return dil.v.reshape(dil.d, dil.m, dil.n).transpose(1, 0, 2)


def _gram_cross(k1: np.ndarray, rho: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """N(rho)_ji = tr(K_j^(2) rho K_i^(1)†), shape (m2, m1)."""
    if k1.shape[0] == 0 or k2.shape[0] == 0:
        return np.zeros((k2.shape[0], k1.shape[0]), dtype=np.complex128)
    return np.einsum("jab,bc,iac->ji", k2, rho, k1.conj(), optimize=True)


def _omega(w: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Omega(w) = sum_ij w_ij K_i^(1)† K_j^(2), an operator on the output space."""
    n = k1.shape[2] if k1.shape[0] else k2.shape[2]
    if w.size == 0:
        return np.zeros((n, n), dtype=np.complex128)
    return np.einsum("ij,iab,jac->bc", w, k1.conj(), k2, optimize=True)


def _steering_contraction(cross: np.ndarray) -> np.ndarray:
    """w = (polar factor of N)†, the optimal steering contraction for N(rho)."""
    if cross.size == 0:
        return np.zeros((cross.shape[1], cross.shape[0]), dtype=np.complex128)
    return polar_unitary_part(cross).conj().T


def _model_top(a_op: np.ndarray, k1: np.ndarray, k2: np.ndarray,
               w: np.ndarray) -> float:
    """lambda_max(A - Omega(w) - Omega(w)†), the squared norm the witness
    pair built from the contraction w attains."""
    om = _omega(w, k1, k2)
    model = a_op - om - om.conj().T
    return float(np.linalg.eigvalsh((model + model.conj().T) / 2)[-1])


def _dual_contraction(y: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """The steering contraction held in the dual of the state program.

    Constraint 1 + 2k (2 + 2k) of the program in ``bures`` pins the real
    (imaginary) part of the corner entry (m1 + j, i) of the epigraph block,
    with k = j*m1 + i.  Dual feasibility on that block makes the matrix of
    w_ij = (y[1+2k] - i*y[2+2k]) / 2 a contraction, and the dual objective
    is then lambda_max(A - Omega(w) - Omega(w)†): the minimax side of the
    duality.  Solver roundoff can leave the norm a hair above 1, so it is
    scaled back onto the unit ball.
    """
    k = m1 * m2
    w = ((y[1:2 * k:2] - 1j * y[2:2 * k + 1:2]) / 2).reshape(m2, m1).T
    norm = operator_norm(w)
    if norm > 1.0:
        w = w / norm
    return w


def _project_density(rho: np.ndarray) -> np.ndarray:
    """Nearest-in-spirit exact density matrix: clip negatives, renormalize."""
    w, u = eigh(rho)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("state collapsed to zero while projecting")
    w /= total
    out = (u * w) @ u.conj().T
    return (out + out.conj().T) / 2


@dataclass
class BuresResult:
    """Bures distance with optimizers, witness pair and certificates.

    beta_squared = g(rho) is an exact re-evaluation at the projected state
    and witness = ||V1 - V2|| an exact norm of the returned pair, so
    beta_squared <= (true beta)^2 <= witness^2 brackets the distance
    whether or not the solver is right.
    """

    value: float
    beta_squared: float
    rho: np.ndarray
    contraction: Contraction
    pair: tuple
    witness: float
    witness_gap: float
    sdp_gap: float
    iterations: int


def bures(t1: CpMap, t2: CpMap) -> BuresResult:
    """Bures distance between two cp maps, with witness pair and certificates.

    One SDP solve over minimal Kraus families.  Its primal gives the state
    side: the objective re-evaluated exactly at the projected optimizer rho
    (an attained lower bound on beta^2; in particular bures(T, T) returns
    exactly 0).  The contraction side comes from two read-offs, the polar
    factor of N(rho) and the solve's own dual variable; the one whose model
    A - Omega(w) - Omega(w)† has the smaller top eigenvalue builds the
    witness dilation pair, which attains beta up to the witness gap.
    """
    if (t1.d_in, t1.d_out) != (t2.d_in, t2.d_out):
        raise ValueError(
            f"dimension mismatch: ({t1.d_in},{t1.d_out}) vs ({t2.d_in},{t2.d_out})"
        )
    d, n = t1.d_in, t1.d_out
    min1, min2 = minimal_dilation(t1), minimal_dilation(t2)
    m1, m2 = min1.m, min2.m
    if m1 == 0 and m2 == 0:
        raise ValueError("degenerate input: both maps are zero")
    k1, k2 = _kraus_stack(min1), _kraus_stack(min2)
    a_op = check_hermitian(t1.at_identity() + t2.at_identity())

    sol = None
    if m1 == 0 or m2 == 0:
        # One map is zero: the cross term vanishes and the maximization is an
        # eigenvalue problem.
        aw, au = eigh(a_op)
        rho = np.outer(au[:, -1], au[:, -1].conj())
    elif n == 1:
        rho = np.ones((1, 1), dtype=np.complex128)
    else:
        q = m1 + m2
        constraints = [({0: np.eye(n, dtype=np.complex128)}, 1.0, "=")]
        for j in range(m2):
            for i in range(m1):
                g = k1[i].conj().T @ k2[j]          # K_i^(1)† K_j^(2), on C^n
                hz = np.zeros((q, q), dtype=np.complex128)
                hz[m1 + j, i] = 0.5
                hz[i, m1 + j] = 0.5
                constraints.append(
                    ({1: hz, 0: -(g + g.conj().T) / 2}, 0.0, "=")
                )
                hz = np.zeros((q, q), dtype=np.complex128)
                hz[m1 + j, i] = 0.5j
                hz[i, m1 + j] = -0.5j
                constraints.append(
                    ({1: hz, 0: -(g - g.conj().T) / 2j}, 0.0, "=")
                )
        problem = SdpProblem(
            blocks=(n, q),
            objective={0: a_op, 1: -np.eye(q, dtype=np.complex128)},
            constraints=constraints,
            sense="max",
        )
        sol = _solve_tolerant(problem)
        rho = _project_density(sol.blocks[0])

    cross = _gram_cross(k1, rho, k2)
    beta_sq = float(np.trace(rho @ a_op).real) - 2.0 * trace_norm(cross)
    beta = float(np.sqrt(max(beta_sq, 0.0)))

    w_star = _steering_contraction(cross)
    if sol is not None:
        # The polar read-off is exact only at optimizers with a unique
        # maximizing contraction; the dual read-off covers the rest, but
        # carries the solver's tolerance, which the polar one beats on
        # nearly identical maps.  Keep whichever attains less.
        w_dual = _dual_contraction(sol.y, m1, m2)
        if (_model_top(a_op, k1, k2, w_dual)
                < _model_top(a_op, k1, k2, w_star)):
            w_star = w_dual
    contraction = Contraction(w_star)
    pair = common_pair_from_contraction(t1, t2, contraction)
    witness = operator_norm(pair[0].v - pair[1].v)
    return BuresResult(
        value=beta,
        beta_squared=beta_sq,
        rho=rho,
        contraction=contraction,
        pair=pair,
        witness=witness,
        witness_gap=abs(witness - beta),
        sdp_gap=sol.gap if sol is not None else 0.0,
        iterations=sol.iterations if sol is not None else 0,
    )


def bures_fixed_pair(d1: Dilation, d2: Dilation) -> float:
    """Distance ||V1 - V2|| of two dilations in one common representation."""
    if (d1.d, d1.n, d1.m) != (d2.d, d2.n, d2.m):
        raise ValueError("dilations do not live in a common representation")
    return operator_norm(d1.v - d2.v)


# ----------------------------------------------------------------------------
# Bures distance through 2x2 cp extensions


@dataclass
class ExtensionResult:
    """Optimal 2x2-block cp extension certifying the Bures distance."""

    value: float
    value_squared: float
    d: int
    n: int
    choi: np.ndarray          # Choi of the extension into M_2(M_n), domain first
    defect: np.ndarray        # T̂11(1) + T̂22(1) - T̂12(1) - T̂21(1)
    sdp_gap: float
    iterations: int

    def block_choi(self, s: int, t: int) -> np.ndarray:
        """Choi matrix of the (s, t) corner map of the extension."""
        d, n = self.d, self.n
        six = self.choi.reshape(d, 2, n, d, 2, n)
        return np.ascontiguousarray(six[:, s, :, :, t, :]).reshape(d * n, d * n)

    def block_at_identity(self, s: int, t: int) -> np.ndarray:
        """Value of the (s, t) corner map at the identity."""
        return partial_trace_first(self.block_choi(s, t), self.d, self.n)


def _column_factor(choi: np.ndarray, cutoff: float = 1e-10) -> np.ndarray:
    """Q with J = Q Q†, columns spanning the Choi support (from eigh)."""
    w, u = eigh(choi)
    keep = w > cutoff
    return u[:, keep] * np.sqrt(w[keep])[np.newaxis, :]


def bures_extension(t1: CpMap, t2: CpMap) -> ExtensionResult:
    """Bures distance through the completely positive 2x2 extension program.

    Minimizes || T̂11(1) + T̂22(1) - T̂12(1) - T̂21(1) ||^(1/2) over cp maps
    T̂ into M_2(M_n) whose diagonal corners are exactly T1 and T2. The
    off-diagonal Choi block is parametrized as Y = Q1 C Q2† with a
    contraction block [[1, C],[C†, 1]] ⪰ 0 and Q_i the column factors of the
    fixed diagonal Choi blocks, which keeps a strictly feasible interior
    point (C = 0) even when the Choi blocks are rank deficient.
    """
    if (t1.d_in, t1.d_out) != (t2.d_in, t2.d_out):
        raise ValueError(
            f"dimension mismatch: ({t1.d_in},{t1.d_out}) vs ({t2.d_in},{t2.d_out})"
        )
    d, n = t1.d_in, t1.d_out
    side = d * n
    j1, j2 = t1.choi, t2.choi
    a_op = check_hermitian(t1.at_identity() + t2.at_identity())
    q1 = _column_factor(j1)
    q2 = _column_factor(j2)
    r1, r2 = q1.shape[1], q2.shape[1]

    if r1 == 0 and r2 == 0:
        raise ValueError("degenerate input: both maps are zero")

    if r1 == 0 or r2 == 0:
        # The off-diagonal blocks are forced to zero; the defect is A itself.
        y = np.zeros((side, side), dtype=np.complex128)
        val_sq = float(eigh(a_op)[0][-1])
        gap, iters = 0.0, 0
    else:
        q = r1 + r2
        constraints = []
        # (a,b) pin both diagonal corners of the contraction block to identity
        for h in hermitian_basis(r1):
            hz = np.zeros((q, q), dtype=np.complex128)
            hz[:r1, :r1] = h
            constraints.append(({0: hz}, float(np.trace(h).real), "="))
        for h in hermitian_basis(r2):
            hz = np.zeros((q, q), dtype=np.complex128)
            hz[r1:, r1:] = h
            constraints.append(({0: hz}, float(np.trace(h).real), "="))
        # (c) slack block S = t*1 - A + B(Y) + B(Y)† with Y = Q1 C Q2†
        eye_n = np.eye(n, dtype=np.complex128)
        for h in hermitian_basis(n):
            g = q2.conj().T @ np.kron(np.eye(d, dtype=np.complex128), h) @ q1
            hz = np.zeros((q, q), dtype=np.complex128)
            hz[r1:, :r1] = g
            hz[:r1, r1:] = g.conj().T
            coeff = {
                1: h,
                2: -float(np.trace(h).real) * np.ones((1, 1), dtype=np.complex128),
                0: -hz,
            }
            constraints.append((coeff, -float(np.trace(h @ a_op).real), "="))
        problem = SdpProblem(
            blocks=(q, n, 1),
            objective={2: np.ones((1, 1), dtype=np.complex128)},
            constraints=constraints,
            sense="min",
        )
        sol = _solve_tolerant(problem)
        gap, iters = sol.gap, sol.iterations
        c = sol.blocks[0][:r1, r1:]
        # project the recovered block to an exact contraction
        uc, sc, vch = np.linalg.svd(c, full_matrices=False)
        c = (uc * np.clip(sc, None, 1.0)) @ vch
        y = q1 @ c @ q2.conj().T

    cross = partial_trace_first(y, d, n)
    defect = check_hermitian(a_op - cross - cross.conj().T)
    val_sq = float(eigh(defect)[0][-1])
    val_sq = max(val_sq, 0.0)

    big = np.zeros((2 * side, 2 * side), dtype=np.complex128)
    big[:side, :side] = j1
    big[:side, side:] = y
    big[side:, :side] = y.conj().T
    big[side:, side:] = j2
    choi = (
        big.reshape(2, d, n, 2, d, n)
        .transpose(1, 0, 2, 4, 3, 5)
        .reshape(2 * side, 2 * side)
    )
    return ExtensionResult(
        value=float(np.sqrt(val_sq)),
        value_squared=val_sq,
        d=d,
        n=n,
        choi=choi,
        defect=defect,
        sdp_gap=gap,
        iterations=iters,
    )


# ----------------------------------------------------------------------------
# positive functionals (preparations): fidelity, state distance, reflections


def fidelity(rho0, rho1) -> float:
    """Uhlmann fidelity ||sqrt(rho0) sqrt(rho1)||_1 of two psd operators."""
    r0 = check_positive_operator(rho0)
    r1 = check_positive_operator(rho1)
    if r0.shape != r1.shape:
        raise ValueError("operators act on different spaces")
    return trace_norm(psd_sqrt(r0) @ psd_sqrt(r1))


def bures_states(rho0, rho1) -> float:
    """Bures distance of two positive functionals given by psd operators.

    Equals the minimum of || psi0 - psi1 || over joint purifications, i.e.
    sqrt( tr rho0 + tr rho1 - 2 F(rho0, rho1) ).
    """
    r0 = check_positive_operator(rho0)
    r1 = check_positive_operator(rho1)
    if r0.shape != r1.shape:
        raise ValueError("operators act on different spaces")
    gap = float(np.trace(r0).real + np.trace(r1).real) - 2.0 * fidelity(r0, r1)
    return float(np.sqrt(max(gap, 0.0)))


def radon_nikodym_operator(rho0, rho1, support_tol: float = 1e-10) -> np.ndarray:
    """The positive operator h with h rho0 h = rho1, for dominated pairs.

    Requires supp(rho1) ⊆ supp(rho0) (checked at tolerance `support_tol`);
    h is supported on supp(rho0) and is the unique psd solution there:
    h = rho0^(-1/2) (rho0^(1/2) rho1 rho0^(1/2))^(1/2) rho0^(-1/2).
    """
    r0 = check_positive_operator(rho0)
    r1 = check_positive_operator(rho1)
    if r0.shape != r1.shape:
        raise ValueError("operators act on different spaces")
    w, u = eigh(r0)
    scale = float(w[-1]) if w.size else 0.0
    if scale <= 0.0:
        raise ValueError("dominance violated: rho0 is zero")
    support = w > scale * 1e-12
    comp = u[:, ~support]
    leak = float(np.trace(comp.conj().T @ r1 @ comp).real) if comp.shape[1] else 0.0
    if leak > support_tol:
        raise ValueError(
            f"dominance violated: rho1 leaks {leak:.3e} outside supp(rho0)"
        )
    root = np.sqrt(w[support])
    u_s = u[:, support]
    half = (u_s * root) @ u_s.conj().T
    inv_half = (u_s / root) @ u_s.conj().T
    mid = psd_sqrt(half @ r1 @ half)
    h = inv_half @ mid @ inv_half
    return (h + h.conj().T) / 2


@dataclass
class ReflectionCertificate:
    """The two-sided functional bound chain through the Radon-Nikodym reflection."""

    beta: float
    beta_squared: float
    reflection_value: float   # (omega0 - omega1)(2p - 1)
    norm_diff: float          # || rho0 - rho1 ||_1
    rn_defect: float          # || h rho0 h - rho1 ||  (max abs entry)
    slack_lower: float        # reflection_value - beta^2
    slack_upper: float        # norm_diff - reflection_value
    slack_sqrt: float         # sqrt(norm_diff) - beta
    passed: bool = True


def reflection_certificate(rho0, rho1, tol: float = 1e-8) -> ReflectionCertificate:
    """Certify beta^2 ≤ (omega0-omega1)(2p-1) ≤ ||omega0-omega1|| for a dominated pair.

    p is the spectral projector of the Radon-Nikodym operator h on [0, 1];
    2p - 1 is a reflection, so the middle quantity is also bounded by the
    norm distance, and the chain pins the state Bures distance between
    computable linear functionals.
    """
    r0 = check_positive_operator(rho0)
    r1 = check_positive_operator(rho1)
    h = radon_nikodym_operator(r0, r1)
    rn_defect = float(np.abs(h @ r0 @ h - r1).max())
    w, u = eigh(h)
    p_cols = u[:, w <= 1.0]
    p = p_cols @ p_cols.conj().T
    reflection = 2.0 * p - np.eye(p.shape[0])
    diff = r0 - r1
    mid = float(np.trace(diff @ reflection).real)
    norm_diff = trace_norm(diff)
    beta = bures_states(r0, r1)
    beta_sq = beta * beta
    cert = ReflectionCertificate(
        beta=beta,
        beta_squared=beta_sq,
        reflection_value=mid,
        norm_diff=norm_diff,
        rn_defect=rn_defect,
        slack_lower=mid - beta_sq,
        slack_upper=norm_diff - mid,
        slack_sqrt=float(np.sqrt(norm_diff)) - beta,
    )
    cert.passed = (
        cert.slack_lower >= -tol
        and cert.slack_upper >= -tol
        and cert.slack_sqrt >= -tol
        and rn_defect <= 1e-9
    )
    return cert


@dataclass
class MixtureCertificate:
    """Continuity of the functional Bures distance along convex mixtures."""

    s_grid: tuple
    distances: tuple          # beta((1-s) rho0 + s rho1, rho1) per s
    base: float               # beta(rho0, rho1)
    bound: float              # sqrt(||omega0||) + sqrt(||omega1||)
    slacks: tuple             # sqrt(s) * bound - |base - distances[k]|
    worst_slack: float
    passed: bool


def mixture_certificate(rho0, rho1, s_grid=None, tol: float = 1e-8) -> MixtureCertificate:
    """Certify |beta(rho0, rho1) - beta((1-s) rho0 + s rho1, rho1)| ≤ sqrt(s) (sqrt||omega0|| + sqrt||omega1||)."""
    r0 = check_positive_operator(rho0)
    r1 = check_positive_operator(rho1)
    if s_grid is None:
        s_grid = tuple((k + 1) / 10.0 for k in range(9))
    base = bures_states(r0, r1)
    bound = float(np.sqrt(np.trace(r0).real) + np.sqrt(np.trace(r1).real))
    distances = []
    slacks = []
    for s in s_grid:
        if not 0.0 <= s <= 1.0:
            raise ValueError("mixture parameters must lie in [0, 1]")
        mix = (1.0 - s) * r0 + s * r1
        dist = bures_states(mix, r1)
        distances.append(dist)
        slacks.append(float(np.sqrt(s)) * bound - abs(base - dist))
    worst = min(slacks) if slacks else np.inf
    return MixtureCertificate(
        s_grid=tuple(s_grid),
        distances=tuple(distances),
        base=base,
        bound=bound,
        slacks=tuple(slacks),
        worst_slack=worst,
        passed=worst >= -tol,
    )


# ----------------------------------------------------------------------------
# certificates tying everything together


@dataclass
class MetricReport:
    """Continuity sandwich report for one pair of cp maps."""

    beta: float
    beta_ext: float | None
    cb_diff: float
    lower: float
    upper: float
    witness_gap: float
    slacks: dict
    seed: int | None
    dims: dict
    failed: tuple = ()        # names of the slacks that missed their gate

    @property
    def passed(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "beta_ext": self.beta_ext,
            "cb_diff": self.cb_diff,
            "lower": self.lower,
            "upper": self.upper,
            "witness_gap": self.witness_gap,
            "slacks": dict(self.slacks),
            "seed": self.seed,
            "dims": dict(self.dims),
        }


def continuity_certificate(
    t1: CpMap,
    t2: CpMap,
    seed: int | None = None,
    include_extension: bool = False,
    tol: float = 1e-5,
    witness_tol: float = 1e-5,
    residual_tol: float = 1e-8,
    agreement_tol: float = 1e-4,
) -> MetricReport:
    """Certify the sandwich  cb(T1-T2)/(sqrt cb T1 + sqrt cb T2) ≤ beta ≤ sqrt(cb(T1-T2)).

    Also checks that the constructed witness pair of dilations attains beta,
    which closes the exact bracket beta_squared <= beta^2 <= witness^2,
    that both witnesses dilate their maps, and that the exact cb bracket
    [cb_diff, upper] is narrow (its width, cb_bracket, shares the witness
    gate) and not inverted beyond roundoff.  All slacks are reported;
    `failed` names those that miss their tolerance, and `passed` is true
    when none does.
    """
    res = bures(t1, t2)
    cb1 = cp_cb_norm(t1)
    cb2 = cp_cb_norm(t2)
    denom = np.sqrt(cb1) + np.sqrt(cb2)
    if denom <= 0.0:
        raise ValueError("degenerate input: both maps are zero")
    cbr = cb_norm(difference(t1, t2))
    lower = cbr.value / denom
    upper = float(np.sqrt(max(cbr.value, 0.0)))

    res1 = verify_dilation(res.pair[0], t1)
    res2 = verify_dilation(res.pair[1], t2)
    slacks = {
        "lower": res.value - lower,
        "upper": upper - res.value,
        "witness_gap": res.witness_gap,
        "dilation_residual": max(res1, res2),
        "beta_sdp_gap": res.sdp_gap,
        "cb_sdp_gap": cbr.sdp_gap,
        "cb_bracket": cbr.upper - cbr.value,
    }
    beta_ext = None
    if include_extension:
        ext = bures_extension(t1, t2)
        beta_ext = ext.value
        slacks["extension_agreement"] = abs(res.value - ext.value)

    within = {
        "lower": slacks["lower"] >= -tol,
        "upper": slacks["upper"] >= -tol,
        "witness_gap": slacks["witness_gap"] <= witness_tol,
        "dilation_residual": slacks["dilation_residual"] <= residual_tol,
        "cb_bracket": (-bracket_roundoff(cbr.value) <= slacks["cb_bracket"]
                       <= witness_tol),
    }
    if include_extension:
        within["extension_agreement"] = (
            slacks["extension_agreement"] <= agreement_tol)
    return MetricReport(
        beta=res.value,
        beta_ext=beta_ext,
        cb_diff=cbr.value,
        lower=lower,
        upper=upper,
        witness_gap=res.witness_gap,
        slacks=slacks,
        seed=seed,
        dims={"d": t1.d_in, "n": t1.d_out,
              "m1": res.contraction.m1, "m2": res.contraction.m2},
        failed=tuple(name for name, ok in within.items() if not ok),
    )


@dataclass
class MonotonicityCertificate:
    """beta(S∘T1, S∘T2) ≤ sqrt(||S||) beta(T1, T2), and the mirrored version."""

    side: str
    before: float
    after: float
    norm_s: float
    slack: float
    passed: bool


def monotonicity_certificate(
    s: CpMap, t1: CpMap, t2: CpMap, side: str = "post", tol: float = 1e-5
) -> MonotonicityCertificate:
    """Certify that the Bures distance contracts under cp composition.

    side="post": compare beta(S∘T1, S∘T2) against sqrt(||S||) beta(T1, T2)
    (S applied after the maps); side="pre": compose with S on the input side.
    ||S|| = ||S(1)|| since S is completely positive.
    """
    from .maps import compose

    if side not in ("post", "pre"):
        raise ValueError("side must be 'post' or 'pre'")
    before = bures(t1, t2).value
    if side == "post":
        after = bures(compose(s, t1), compose(s, t2)).value
    else:
        after = bures(compose(t1, s), compose(t2, s)).value
    norm_s = cp_cb_norm(s)
    slack = float(np.sqrt(norm_s)) * before - after
    return MonotonicityCertificate(
        side=side,
        before=before,
        after=after,
        norm_s=norm_s,
        slack=slack,
        passed=slack >= -tol,
    )
