"""Distance measures between completely positive maps, with certificates.

Two central quantities:

* the cb-norm distance ``cb_norm(T1 - T2)``, computed by Watrous's
  semidefinite program for the cb norm (for Hermitian-preserving maps, the
  stabilized 1->1 norm of the predual with an ancilla no larger than the
  output space), solved once.  The program is posed on a factor
  J = B C B† of the difference's Choi matrix: on the range of the two
  maps' Kraus vectors when they number fewer than d*n, so that it has
  r^2 + 1 constraints for r Kraus operators in all, and on J itself
  otherwise; and at unit scale, as for the Bures program below.  Its
  primal state and its dual variable, carried back to J as Y' = B Y B†,
  each give an exact end of the bracket [value, upper], evaluated on J;

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
  An explicit witness pair of dilations built from w* attains the distance,
  and the 2x2 cp extension T̂_st(a) = V_s†(a⊗1)V_t of that pair is read off
  it, not solved for: the paper's extension form of the distance, with
  corners T1 and T2 and defect (V1 - V2)†(V1 - V2), so one solve gives
  both forms.

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

from dataclasses import dataclass

import numpy as np

from .linalg import (
    check_hermitian,
    eigh,
    hermitian_part,
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
    compose,
    difference,
)
from .dilations import (
    Contraction,
    Dilation,
    common_pair_from_contraction,
    minimal_dilation,
    verify_dilation,
)
from .sdp import SdpProblem, hermitian_basis, solve

__all__ = [
    "Check",
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


def _unit_scale(norm: float) -> float:
    """1 / the power of 4 at or below norm.

    The cb-norm and Bures programs are homogeneous in the maps, so each is
    posed divided by the power of 4 at or below the norm of T1(1) + T2(1)
    (of T(1) for the cb norm of one map):
    exact in floating point, 1 for channels, and the solver's absolute
    tolerances then mean the same at every scale of the maps.  The power is
    read off the binary exponent e of norm, in [2^(e-1), 2^e): a rounded
    log(norm)/log(4) lands next to a power of 4 on the wrong side of it.
    """
    _, e = np.frexp(norm)
    return np.ldexp(1.0, -2 * ((int(e) - 1) // 2))


# ----------------------------------------------------------------------------
# checks: the one place a value meets its tolerance


@dataclass(frozen=True)
class Check:
    """One gate: `value` must lie in [lo, hi], one end infinite if one-sided
    (lo=-tol for a slack, hi=tol for a defect).  `margin` is how far inside
    the value lies; negative means the check failed.  A NaN bound is
    refused: min() would pass over it and switch the gate off."""

    name: str
    value: float
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if np.isnan(self.lo) or np.isnan(self.hi):
            raise ValueError(f"check {self.name!r} has a NaN bound")

    @property
    def margin(self) -> float:
        return min(self.value - self.lo, self.hi - self.value)

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


class _Checked:
    """A certificate whose verdict derives from its `checks` tuple."""

    checks: tuple

    @property
    def failed(self) -> tuple:
        return tuple(c.name for c in self.checks if not c.passed)

    @property
    def passed(self) -> bool:
        return not self.failed


# ----------------------------------------------------------------------------
# cb norm


@dataclass
class CbNormResult:
    """cb norm with its SDP gap and an exact bracket [value, upper].

    value is the program's exact optimum at the solve's projected state and
    upper the value of a feasible dual point, so value <= cb norm <= upper
    holds at whatever iterate the solver returns.
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
        b = f.kraus_vectors
        return HermMap(f.d_in, f.d_out, b, np.ones(b.shape[1]))
    raise ValueError("expected a CpMap or HermMap")


def cb_norm(f) -> CbNormResult:
    """cb norm of a Hermitian-preserving map, by one SDP with an exact bracket.

    Watrous's cb-norm program (arXiv:1207.5726) maximizes tr(J Z) over
    Hermitian Z with -1⊗rho ≼ Z ≼ 1⊗rho and a state rho.  It is posed on a
    factor J = B C B† of the Choi matrix whose columns span the range of J:
    maximize tr(C X) over -G(rho) ≼ X ≼ G(rho), G(rho) = B†(1⊗rho)B, with
    the psd split X1 = G(rho) - X, X2 = G(rho) + X.  For B of r columns that
    is blocks (n, r, r) and r^2 + 1 constraints, and for each Hermitian
    basis element h of M_r the state block's coefficient is
    -2 sum_a B_a h B_a†, with B_a the n x r slab of B at domain index a.
    At every rho both programs have the optimum ||S J S||_1 below.

    * When the map's r Kraus vectors number fewer than d*n, B is an
      orthonormal basis of their span (QR of the factor) and C = B† J B.
      Orthonormal columns keep G(rho) as well conditioned as rho itself;
      the Kraus vectors of nearly identical maps are nearly parallel, and
      posed on them directly the program stalls.
    * Otherwise B = 1 and C = J: the program over the Choi matrix itself.

    The program is homogeneous in J, so C is posed at unit scale: divided
    by the power of 4 at or below ||sum_a F_a F_a†|| for the map's factor
    F (T1(1) + T2(1) for a difference), which is exact.  Its two sides give
    the bracket, both evaluated on the true J:

    * value = ||S J S||_1 with S = 1⊗sqrt(rho) at the projected state rho,
      the exact optimum over the Choi matrix at that rho, attained by
      Z = S sign(S J S) S;
    * upper = lambda_max(2 Tr_d Y') for the dual point Y' = B Y B†
      (scaled back), feasible for the dual over J because
      B(Y ± C/2)B† = Y' ± J/2, and shifted by the least multiple of 1 that
      makes Y' ± J/2 ⪰ 0, which absorbs the roundoff of the factoring.

    Accepts a CpMap or HermMap.
    """
    f = _as_hermmap(f)
    d, n = f.d_in, f.d_out
    side = d * n
    j = f.choi
    b = f.factor
    slabs = b.reshape(d, n, -1)
    a_norm = operator_norm(np.einsum("akr,alr->kl", slabs, slabs.conj()))

    if a_norm == 0.0 or np.abs(j).max() <= 1e-14 * a_norm:
        return CbNormResult(value=0.0, upper=0.0, sdp_gap=0.0, iterations=0)

    unit = _unit_scale(a_norm)
    if b.shape[1] < side:
        b = np.linalg.qr(b)[0]
    else:
        b = np.eye(side, dtype=np.complex128)
    c = unit * (b.conj().T @ j @ b)
    q = b.shape[1]
    constraints = [({0: np.eye(n, dtype=np.complex128)}, 1.0, "=")]
    for h in hermitian_basis(q):
        coeff = {
            1: h,
            2: h,
            0: -2.0 * partial_trace_first(b @ h @ b.conj().T, d, n),
        }
        constraints.append((coeff, 0.0, "="))
    sol = solve(SdpProblem(
        blocks=(n, q, q),
        objective={1: -0.5 * c, 2: 0.5 * c},
        constraints=constraints,
    ))
    s = np.kron(np.eye(d), psd_sqrt(_project_density(sol.blocks[0])))
    value = trace_norm(s @ j @ s)

    y = b @ -sol.aty[1] @ b.conj().T / unit
    shift = max(0.0, -float(np.linalg.eigvalsh(y - j / 2)[0]),
                -float(np.linalg.eigvalsh(y + j / 2)[0]))
    upper = float(np.linalg.eigvalsh(
        2.0 * partial_trace_first(y, d, n) + 2.0 * d * shift * np.eye(n))[-1])
    return CbNormResult(
        value=value,
        upper=upper,
        sdp_gap=sol.gap / unit,
        iterations=sol.iterations,
    )


# ----------------------------------------------------------------------------
# Bures distance between cp maps


def _gram_cross(k1: np.ndarray, rho: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """N(rho)_ji = tr(K_j^(2) rho K_i^(1)†), shape (m2, m1)."""
    return np.einsum("jab,bc,iac->ji", k2, rho, k1.conj(), optimize=True)


def _omega(w: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Omega(w) = sum_ij w_ij K_i^(1)† K_j^(2), an operator on the output space."""
    return np.einsum("ij,iab,jac->bc", w, k1.conj(), k2, optimize=True)


def _steering_contraction(cross: np.ndarray) -> np.ndarray:
    """w = (polar factor of N)†, the optimal steering contraction for N(rho)."""
    return polar_unitary_part(cross).conj().T


def _model_top(a_op: np.ndarray, k1: np.ndarray, k2: np.ndarray,
               w: np.ndarray) -> float:
    """lambda_max(A - Omega(w) - Omega(w)†), the squared norm the witness
    pair built from the contraction w attains."""
    om = _omega(w, k1, k2)
    model = a_op - om - om.conj().T
    return float(np.linalg.eigvalsh((model + model.conj().T) / 2)[-1])


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


def _as_dilation(t) -> Dilation:
    """A Dilation as it is; a CpMap's minimal dilation."""
    return t if isinstance(t, Dilation) else minimal_dilation(t)


def bures(t1, t2) -> BuresResult:
    """Bures distance between two cp maps, with witness pair and certificates.

    One SDP solve over the maps' Kraus families, posed at unit scale so that
    its absolute tolerances mean the same at every scale of the maps (the
    reported sdp_gap is scaled back).  Its primal gives the state
    side: the objective re-evaluated exactly at the projected optimizer rho
    (an attained lower bound on beta^2).  For equal maps beta_squared is 0
    only up to roundoff, a few units of 1e-16 for channels, so bures(T, T)
    can return its square root, about 2e-8.  The contraction side comes
    from two read-offs, the polar factor of N(rho) and the corner of the
    solve's dual on the epigraph block; the one whose model
    A - Omega(w) - Omega(w)† has the smaller top eigenvalue builds the
    witness dilation pair, which attains beta up to the witness gap.

    Each map is a CpMap or a dilation of it.  A CpMap is replaced by its
    minimal dilation, so a caller that already holds the minimal dilations
    passes them in and each is built once.
    """
    min1, min2 = _as_dilation(t1), _as_dilation(t2)
    if (min1.d, min1.n) != (min2.d, min2.n):
        raise ValueError(
            f"dimension mismatch: ({min1.d},{min1.n}) vs ({min2.d},{min2.n})"
        )
    n = min1.n
    m1, m2 = min1.m, min2.m
    if m1 == 0 and m2 == 0:
        raise ValueError("degenerate input: both maps are zero")
    k1, k2 = min1.kraus, min2.kraus
    a_op = check_hermitian(min1.at_identity() + min2.at_identity())

    unit = _unit_scale(operator_norm(a_op))

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
                g = unit * k1[i].conj().T @ k2[j]   # K_i^(1)† K_j^(2), on C^n
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
        sol = solve(SdpProblem(
            blocks=(n, q),
            objective={0: unit * a_op, 1: -np.eye(q, dtype=np.complex128)},
            constraints=constraints,
        ))
        rho = _project_density(sol.blocks[0])

    cross = _gram_cross(k1, rho, k2)
    beta_sq = float(np.trace(rho @ a_op).real) - 2.0 * trace_norm(cross)
    beta = float(np.sqrt(max(beta_sq, 0.0)))

    w_star = _steering_contraction(cross)
    if sol is not None:
        # The polar read-off is exact only at optimizers with a unique
        # maximizing contraction; the dual read-off covers the rest, but
        # carries the solver's tolerance, which the polar one beats on
        # nearly identical maps.  Keep whichever attains less.  Dual
        # feasibility on the epigraph block makes its corner a contraction;
        # roundoff can leave the norm a hair above 1.
        w_dual = sol.aty[1][:m1, m1:]
        w_dual = w_dual / max(1.0, operator_norm(w_dual))
        if (_model_top(a_op, k1, k2, w_dual)
                < _model_top(a_op, k1, k2, w_star)):
            w_star = w_dual
    contraction = Contraction(w_star)
    pair = common_pair_from_contraction(min1, min2, contraction)
    witness = operator_norm(pair[0].v - pair[1].v)
    return BuresResult(
        value=beta,
        beta_squared=beta_sq,
        rho=rho,
        contraction=contraction,
        pair=pair,
        witness=witness,
        witness_gap=abs(witness - beta),
        sdp_gap=sol.gap / unit if sol is not None else 0.0,
        iterations=sol.iterations if sol is not None else 0,
    )


def _check_common(d1: Dilation, d2: Dilation) -> None:
    """Raise unless the two dilations share one representation space."""
    if (d1.d, d1.n, d1.m) != (d2.d, d2.n, d2.m):
        raise ValueError("dilations do not live in a common representation")


def bures_fixed_pair(d1: Dilation, d2: Dilation) -> float:
    """Distance ||V1 - V2|| of two dilations in one common representation."""
    _check_common(d1, d2)
    return operator_norm(d1.v - d2.v)


# ----------------------------------------------------------------------------
# Bures distance through 2x2 cp extensions


@dataclass
class ExtensionResult:
    """The 2x2-block cp extension of a common pair of dilations.

    Its diagonal corners are the two maps, and value^2 is the top eigenvalue
    of its defect.  Built from the witness pair of `bures`, it attains the
    Bures distance up to the witness gap, with no solve of its own.
    """

    value: float
    value_squared: float
    d: int
    n: int
    choi: np.ndarray          # Choi of the extension into M_2(M_n), domain first
    defect: np.ndarray        # T̂11(1) + T̂22(1) - T̂12(1) - T̂21(1)

    def block_choi(self, s: int, t: int) -> np.ndarray:
        """Choi matrix of the (s, t) corner map of the extension."""
        d, n = self.d, self.n
        six = self.choi.reshape(d, 2, n, d, 2, n)
        return np.ascontiguousarray(six[:, s, :, :, t, :]).reshape(d * n, d * n)


def bures_extension(d1: Dilation, d2: Dilation) -> ExtensionResult:
    """The cp extension T̂_st(a) = V_s†(a⊗1)V_t of a common pair (V1, V2).

    The Bures distance is the infimum of
    || T̂11(1) + T̂22(1) - T̂12(1) - T̂21(1) ||^(1/2) over cp maps T̂ into
    M_2(M_n) whose diagonal corners are T1 and T2, and a common pair of
    dilations builds one such map with no solve.  Its Choi matrix is the
    Gram product Q Q† of the stacked column factors Q = [Q1; Q2] (columns
    the vectorized conjugate Kraus operators of V1 and of V2), reordered
    domain first: cp by construction, with corners J1 and J2 and
    off-diagonal block Q1 Q2†.  Its defect is (V1 - V2)†(V1 - V2), formed
    without the cancellation of the four corners, so its value is
    ||V1 - V2||: the Bures distance at the witness pair `bures` returns.
    """
    _check_common(d1, d2)
    d, n = d1.d, d1.n
    # rows (a, s, k): Q[(a, s, k), i] = conj(K_i^(s)[a, k])
    q = np.stack([d1.kraus, d2.kraus], axis=2).reshape(d1.m, 2 * d * n).conj().T
    diff = d1.v - d2.v
    defect = hermitian_part(diff.conj().T @ diff)
    val_sq = max(float(np.linalg.eigvalsh(defect)[-1]), 0.0)
    return ExtensionResult(
        value=float(np.sqrt(val_sq)),
        value_squared=val_sq,
        d=d,
        n=n,
        choi=q @ q.conj().T,
        defect=defect,
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


def radon_nikodym_operator(rho0, rho1) -> np.ndarray:
    """The positive operator h with h rho0 h = rho1, for dominated pairs.

    Requires supp(rho1) ⊆ supp(rho0) (checked at tolerance 1e-10);
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
    if leak > 1e-10:
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
class ReflectionCertificate(_Checked):
    """The two-sided functional bound chain through the Radon-Nikodym reflection.

    Checks: the slacks `lower`, `upper`, `sqrt`, and `rn_defect`."""

    beta: float
    beta_squared: float
    reflection_value: float   # (omega0 - omega1)(2p - 1)
    norm_diff: float          # || rho0 - rho1 ||_1
    rn_defect: float          # || h rho0 h - rho1 ||  (max abs entry)
    slack_lower: float        # reflection_value - beta^2
    slack_upper: float        # norm_diff - reflection_value
    slack_sqrt: float         # sqrt(norm_diff) - beta
    checks: tuple


def reflection_certificate(rho0, rho1, tol: float = 1e-8,
                           rn_defect_tol: float = 1e-9) -> ReflectionCertificate:
    """Certify beta^2 ≤ (omega0-omega1)(2p-1) ≤ ||omega0-omega1|| for a dominated pair.

    p is the spectral projector of the Radon-Nikodym operator h on [0, 1];
    2p - 1 is a reflection, so the middle quantity is also bounded by the
    norm distance, and the chain pins the state Bures distance between
    computable linear functionals.  The slacks may dip to -tol, and the
    defect of h rho0 h = rho1 may reach rn_defect_tol.
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
    slacks = {"lower": mid - beta_sq, "upper": norm_diff - mid,
              "sqrt": float(np.sqrt(norm_diff)) - beta}
    return ReflectionCertificate(
        beta=beta,
        beta_squared=beta_sq,
        reflection_value=mid,
        norm_diff=norm_diff,
        rn_defect=rn_defect,
        slack_lower=slacks["lower"],
        slack_upper=slacks["upper"],
        slack_sqrt=slacks["sqrt"],
        checks=(*(Check(name, v, lo=-tol) for name, v in slacks.items()),
                Check("rn_defect", rn_defect, hi=rn_defect_tol)),
    )


@dataclass
class MixtureCertificate(_Checked):
    """Continuity of the functional Bures distance along convex mixtures.

    Checks: one slack per mixture parameter s, named "s=<s>"."""

    s_grid: tuple
    distances: tuple          # beta((1-s) rho0 + s rho1, rho1) per s
    base: float               # beta(rho0, rho1)
    bound: float              # sqrt(||omega0||) + sqrt(||omega1||)
    slacks: tuple             # sqrt(s) * bound - |base - distances[k]|
    worst_slack: float
    checks: tuple


def mixture_certificate(rho0, rho1, tol: float = 1e-8) -> MixtureCertificate:
    """Certify |beta(rho0, rho1) - beta((1-s) rho0 + s rho1, rho1)| ≤ sqrt(s) (sqrt||omega0|| + sqrt||omega1||)
    for s = 0.1, 0.2, ..., 0.9."""
    r0 = check_positive_operator(rho0)
    r1 = check_positive_operator(rho1)
    s_grid = tuple((k + 1) / 10.0 for k in range(9))
    base = bures_states(r0, r1)
    bound = float(np.sqrt(np.trace(r0).real) + np.sqrt(np.trace(r1).real))
    distances = []
    slacks = []
    for s in s_grid:
        mix = (1.0 - s) * r0 + s * r1
        dist = bures_states(mix, r1)
        distances.append(dist)
        slacks.append(float(np.sqrt(s)) * bound - abs(base - dist))
    return MixtureCertificate(
        s_grid=s_grid,
        distances=tuple(distances),
        base=base,
        bound=bound,
        slacks=tuple(slacks),
        worst_slack=min(slacks),
        checks=tuple(Check(f"s={s:g}", slack, lo=-tol)
                     for s, slack in zip(s_grid, slacks)),
    )


# ----------------------------------------------------------------------------
# certificates tying everything together


@dataclass
class MetricReport(_Checked):
    """Continuity sandwich report for one pair of cp maps.

    Each check gates the slack of the same name (see continuity_certificate)."""

    beta: float
    beta_ext: float
    cb_diff: float
    lower: float
    upper: float
    witness_gap: float
    slacks: dict
    seed: int | None
    dims: dict
    checks: tuple

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
    tol: float = 1e-5,
    witness_tol: float = 1e-5,
    residual_tol: float = 1e-8,
) -> MetricReport:
    """Certify the sandwich  cb(T1-T2)/(sqrt cb T1 + sqrt cb T2) ≤ beta ≤ sqrt(cb(T1-T2)).

    Also checks that the constructed witness pair of dilations attains beta,
    which closes the exact bracket beta_squared <= beta^2 <= witness^2,
    that both witnesses dilate their maps, and that the exact cb bracket
    [cb_diff, upper] is narrow (its width, cb_bracket, shares the witness
    gate) and not inverted beyond roundoff.  beta_ext is the value of the
    cp extension of the witness pair; the report takes one solve per distance.
    All slacks are reported, and the gated ones each carry a Check of the
    same name; `failed` names those that miss their tolerance, and
    `passed` is true when none does.
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
    checks = [
        Check("lower", slacks["lower"], lo=-tol),
        Check("upper", slacks["upper"], lo=-tol),
        Check("witness_gap", slacks["witness_gap"], hi=witness_tol),
        Check("dilation_residual", slacks["dilation_residual"],
              hi=residual_tol),
        Check("cb_bracket", slacks["cb_bracket"],
              lo=-bracket_roundoff(cbr.value), hi=witness_tol),
    ]
    return MetricReport(
        beta=res.value,
        beta_ext=bures_extension(*res.pair).value,
        cb_diff=cbr.value,
        lower=lower,
        upper=upper,
        witness_gap=res.witness_gap,
        slacks=slacks,
        seed=seed,
        dims={"d": t1.d_in, "n": t1.d_out,
              "m1": res.contraction.m1, "m2": res.contraction.m2},
        checks=tuple(checks),
    )


@dataclass
class MonotonicityCertificate(_Checked):
    """beta(S∘T1, S∘T2) ≤ sqrt(||S||) beta(T1, T2) for S composed after the
    maps ("post") and for S composed before them ("pre").

    `after` and `norm_s` are keyed "post"/"pre", and so are the checks,
    whose values are the slacks sqrt(norm_s) * before - after."""

    before: float
    after: dict
    norm_s: dict
    checks: tuple


def monotonicity_certificate(
    post: CpMap, pre: CpMap, t1: CpMap, t2: CpMap, tol: float = 1e-5
) -> MonotonicityCertificate:
    """Certify that the Bures distance contracts under cp composition.

    Compares beta(post∘T1, post∘T2) (post applied after the maps) and
    beta(T1∘pre, T2∘pre) (pre composed on the input side) against
    sqrt(||S||) beta(T1, T2), which is solved once for both sides.
    ||S|| = ||S(1)|| since S is completely positive.
    """
    before = bures(t1, t2).value
    after = {"post": bures(compose(post, t1), compose(post, t2)).value,
             "pre": bures(compose(t1, pre), compose(t2, pre)).value}
    norm_s = {"post": cp_cb_norm(post), "pre": cp_cb_norm(pre)}
    return MonotonicityCertificate(
        before=before,
        after=after,
        norm_s=norm_s,
        checks=tuple(
            Check(side, float(np.sqrt(norm_s[side])) * before - after[side],
                  lo=-tol)
            for side in ("post", "pre")),
    )
