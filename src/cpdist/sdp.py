"""Dense semidefinite programming over Hermitian psd blocks.

Problems are stated in the standard block form

    optimize    sum_b <C_b, X_b>
    subject to  sum_b <A_kb, X_b>  (= or <=)  rhs_k,      X_b psd Hermitian,

with <A, X> = tr(A X) for Hermitian A, X. The solver is a primal-dual
path-following interior point method with Nesterov-Todd scaling and a
Mehrotra-style adaptive centering parameter (two Newton solves per iteration,
no second-order corrector). It is entirely deterministic: no randomness, no
external solver, dense LAPACK factorizations only.

Complex Hermitian blocks of size q > 1 are embedded as real symmetric blocks
of size 2q via  A -> [[Re A, -Im A], [Im A, Re A]] / 2  (the factor 2
correction keeps all inner products equal); the recovered complex solution is
the invariant average of the real block, which preserves objective,
constraints and positive semidefiniteness. 1x1 blocks stay real, and each
"<=" constraint gets a private 1x1 slack block.

Intended scale: block sizes up to a few tens, constraint counts up to a few
hundred. Everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_hermitian

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SdpError",
    "SdpNoConvergence",
    "solve",
    "hermitian_basis",
]

# Convergence target: both relative residuals within FEAS_TOL, and the
# duality gap within GAP_ABS or, relative to the objective, GAP_REL.
GAP_ABS = 1e-8
GAP_REL = 1e-9
FEAS_TOL = 1e-9
# Iteration budget, read on every call to solve().
MAX_ITER = 200


class SdpError(Exception):
    """Base class for solver failures."""


class SdpNoConvergence(SdpError):
    """Raised when the iteration budget is exhausted; carries the best iterate."""

    def __init__(self, message: str, best: "SdpSolution | None" = None):
        super().__init__(message)
        self.best = best


def hermitian_basis(q: int):
    """Yield the standard Hermitian basis of q x q matrices (q^2 elements).

    Diagonal units E_kk first, then for each pair k < l the real part element
    (E_kl + E_lk)/2 and the imaginary part element (i E_kl - i E_lk)/2.
    """
    for k in range(q):
        h = np.zeros((q, q), dtype=np.complex128)
        h[k, k] = 1.0
        yield h
    for k in range(q):
        for l in range(k + 1, q):
            h = np.zeros((q, q), dtype=np.complex128)
            h[k, l] = 0.5
            h[l, k] = 0.5
            yield h
            h = np.zeros((q, q), dtype=np.complex128)
            h[k, l] = 0.5j
            h[l, k] = -0.5j
            yield h


@dataclass
class SdpProblem:
    """A block SDP. Coefficients are Hermitian matrices keyed by block index.

    blocks:       sizes of the Hermitian psd variable blocks.
    objective:    {block index: Hermitian coefficient}.
    constraints:  list of (coefficients, rhs, relation) with relation "=" or "<=".
    sense:        "min" or "max".
    """

    blocks: tuple
    objective: dict
    constraints: list
    sense: str = "min"

    def __post_init__(self):
        self.blocks = tuple(int(q) for q in self.blocks)
        if not self.blocks or any(q < 1 for q in self.blocks):
            raise ValueError("block sizes must be positive")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        self.objective = {
            int(b): self._coeff(b, mat) for b, mat in self.objective.items()
        }
        checked = []
        for coeffs, rhs, rel in self.constraints:
            rhs = float(rhs)
            if not np.isfinite(rhs):
                raise ValueError("constraint right-hand side must be finite")
            if rel not in ("=", "<="):
                raise ValueError(f"relation must be '=' or '<=', got {rel!r}")
            checked.append(
                ({int(b): self._coeff(b, mat) for b, mat in coeffs.items()}, rhs, rel)
            )
        self.constraints = checked

    def _coeff(self, b, mat) -> np.ndarray:
        b = int(b)
        if not 0 <= b < len(self.blocks):
            raise ValueError(f"block index {b} out of range")
        m = check_hermitian(mat)
        q = self.blocks[b]
        if m.shape != (q, q):
            raise ValueError(
                f"coefficient for block {b} has shape {m.shape}, expected {(q, q)}"
            )
        return m


@dataclass
class SdpSolution:
    """Solver output: primal blocks (complex Hermitian psd), dual data, certificates."""

    blocks: list
    y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool = True
    slacks: np.ndarray | None = None


# ----------------------------------------------------------------------------
# complex <-> real embedding


def _embed_coeff(a: np.ndarray) -> np.ndarray:
    """Real symmetric embedding of a Hermitian coefficient, inner products preserved."""
    re, im = a.real, a.imag
    top = np.hstack([re, -im])
    bot = np.hstack([im, re])
    return 0.5 * np.vstack([top, bot])


def _unembed_psd(x: np.ndarray, q: int) -> np.ndarray:
    """Recover the complex psd block from a real symmetric embedded solution."""
    re = 0.5 * (x[:q, :q] + x[q:, q:])
    im = 0.5 * (x[q:, :q] - x[:q, q:])
    z = re + 1j * im
    return (z + z.conj().T) / 2


# ----------------------------------------------------------------------------
# dense real block solver


def _chol_psd(x: np.ndarray) -> np.ndarray:
    """Cholesky factor with a tiny diagonal lift when roundoff spoils positivity."""
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh((x + x.T) / 2)
        lift = max(1e-14, -2.0 * float(w[0])) if w.size else 1e-14
        return np.linalg.cholesky((x + x.T) / 2 + lift * np.eye(x.shape[0]))


def _max_step(x_chol: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with X + alpha dX psd, given the Cholesky factor of X."""
    g = np.linalg.solve(x_chol, np.linalg.solve(x_chol, dx).T).T
    w = np.linalg.eigvalsh((g + g.T) / 2)
    lam = float(w[0]) if w.size else 0.0
    if lam >= -1e-16:
        return np.inf
    return -1.0 / lam


class _RealSdp:
    """min sum_b <C_b, X_b> s.t. sum_b <A_kb, X_b> = b_k, X_b psd (real symmetric)."""

    def __init__(self, dims, c_blocks, a_tensors, rhs):
        self.dims = dims
        self.c = c_blocks
        self.a = a_tensors            # per block: (m, q, q)
        self.b = rhs
        self.m = rhs.size
        self.norm_b = float(np.linalg.norm(rhs))
        self.norm_c = float(np.sqrt(sum(np.sum(cb * cb) for cb in c_blocks)))

    def apply(self, xb):
        out = np.zeros(self.m)
        for t, x in zip(self.a, xb):
            out += np.einsum("kij,ij->k", t, x)
        return out

    def apply_t(self, y):
        return [np.einsum("kij,k->ij", t, y) for t in self.a]

    def inner_c(self, xb):
        return float(sum(np.sum(cb * x) for cb, x in zip(self.c, xb)))

    def solve(self):
        dims = self.dims
        nu = float(sum(dims))
        scale = max(
            10.0,
            max(np.sqrt(q) for q in dims),
            max(
                (1.0 + abs(bk)) / (1.0 + float(np.sqrt(sum(np.sum(t[k] * t[k]) for t in self.a))))
                for k, bk in enumerate(self.b)
            ),
        )
        eta = max(10.0, max(np.sqrt(q) for q in dims), self.norm_c)
        x = [scale * np.eye(q) for q in dims]
        s = [eta * np.eye(q) for q in dims]
        y = np.zeros(self.m)

        best = None
        best_score = np.inf

        for it in range(MAX_ITER):
            rp = self.b - self.apply(x)
            aty = self.apply_t(y)
            rd = [cb - sb - at for cb, sb, at in zip(self.c, s, aty)]
            pobj = self.inner_c(x)
            dobj = float(self.b @ y)
            gap = pobj - dobj
            relgap = abs(gap) / (1.0 + max(abs(pobj), abs(dobj)))
            pres = float(np.linalg.norm(rp)) / (1.0 + self.norm_b)
            dres = float(np.sqrt(sum(np.sum(r * r) for r in rd))) / (1.0 + self.norm_c)

            score = max(pres, dres, relgap)
            if score < best_score:
                best_score = score
                best = ([xb.copy() for xb in x], y.copy(), [sb.copy() for sb in s],
                        it, pres, dres)

            if pres <= FEAS_TOL and dres <= FEAS_TOL and (
                abs(gap) <= GAP_ABS or relgap <= GAP_REL
            ):
                return x, y, s, it, pres, dres, True

            mu = float(sum(np.sum(xb * sb) for xb, sb in zip(x, s))) / nu
            if not np.isfinite(mu) or mu <= 0.0:
                break

            # Near the optimum the scaled system can lose positive
            # definiteness to rounding; in that case stop stepping and
            # return the best iterate seen so far instead of raising.
            try:
                # Nesterov-Todd scaling W (W S W = X per block) and helpers.
                lx = [_chol_psd(xb) for xb in x]
                ls = [_chol_psd(sb) for sb in s]
                w_blocks = []
                s_inv = []
                for lxb, lsb in zip(lx, ls):
                    _, sig, vt = np.linalg.svd(lsb.T @ lxb)
                    r = lxb @ vt.T / np.sqrt(sig)[np.newaxis, :]
                    w_blocks.append(r @ r.T)
                    inv_l = np.linalg.inv(lsb)
                    s_inv.append(inv_l.T @ inv_l)

                waw = []  # per block tensor of W A_k W rows
                for t, wb in zip(self.a, w_blocks):
                    waw.append(np.einsum("ij,kjl,lm->kim", wb, t, wb,
                                         optimize=True))
                m_mat = np.zeros((self.m, self.m))
                for t, ww in zip(self.a, waw):
                    m_mat += np.einsum("kij,lij->kl", t, ww, optimize=True)
                m_sym = (m_mat + m_mat.T) / 2
                try:
                    m_chol = np.linalg.cholesky(m_sym)
                except np.linalg.LinAlgError:
                    evals = np.linalg.eigvalsh(m_sym)
                    lift = max(-2.0 * float(evals[0]),
                               1e-14 * max(float(evals[-1]), 1.0))
                    m_chol = np.linalg.cholesky(
                        m_sym + lift * np.eye(self.m)
                    )

                a_wrdw = np.zeros(self.m)
                for t, wb, rdb in zip(self.a, w_blocks, rd):
                    a_wrdw += np.einsum("kij,ij->k", t, wb @ rdb @ wb)
                a_sinv = np.zeros(self.m)
                for t, sib in zip(self.a, s_inv):
                    a_sinv += np.einsum("kij,ij->k", t, sib)

                def newton(sigma_mu):
                    rhs = self.b + a_wrdw - sigma_mu * a_sinv
                    dy = np.linalg.solve(
                        m_chol.T, np.linalg.solve(m_chol, rhs)
                    )
                    atdy = self.apply_t(dy)
                    ds = [rdb - at for rdb, at in zip(rd, atdy)]
                    dx = []
                    for xb, wb, dsb, sib in zip(x, w_blocks, ds, s_inv):
                        blk = sigma_mu * sib - xb - wb @ dsb @ wb
                        dx.append((blk + blk.T) / 2)
                    return dx, dy, ds

                # Predictor: pure Newton step toward the boundary.
                dx_a, dy_a, ds_a = newton(0.0)
                ap = min(1.0, 0.98 * min(
                    _max_step(l, d) for l, d in zip(lx, dx_a)))
                ad = min(1.0, 0.98 * min(
                    _max_step(l, d) for l, d in zip(ls, ds_a)))
                mu_aff = sum(
                    np.sum((xb + ap * dxb) * (sb + ad * dsb))
                    for xb, dxb, sb, dsb in zip(x, dx_a, s, ds_a)
                ) / nu
                sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

                # Corrector: recentered step with the adaptive sigma.
                dx, dy, ds = newton(sigma * mu)
                ap = min(1.0, 0.98 * min(
                    _max_step(l, d) for l, d in zip(lx, dx)))
                ad = min(1.0, 0.98 * min(
                    _max_step(l, d) for l, d in zip(ls, ds)))
            except np.linalg.LinAlgError:
                break
            if not (np.isfinite(ap) and np.isfinite(ad)) or ap <= 0 or ad <= 0:
                break
            x = [xb + ap * dxb for xb, dxb in zip(x, dx)]
            s = [sb + ad * dsb for sb, dsb in zip(s, ds)]
            y = y + ad * dy

        if best is None:
            raise SdpError("interior point iteration broke down at the initial point")
        xb, yb, sb, it, pres, dres = best
        return xb, yb, sb, it, pres, dres, False


# ----------------------------------------------------------------------------
# public driver


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve a block SDP to the certified gap, deterministically.

    Raises SdpNoConvergence (carrying the best iterate as `.best`) when
    MAX_ITER iterations run out before the GAP_ABS/GAP_REL gap and FEAS_TOL
    feasibility targets are met.
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    n_user = len(problem.blocks)
    n_slack = sum(1 for _, _, rel in problem.constraints if rel == "<=")

    dims = []
    for q in problem.blocks:
        dims.append(1 if q == 1 else 2 * q)
    dims.extend([1] * n_slack)

    def to_real(b, mat):
        if problem.blocks[b] == 1:
            return mat.real.reshape(1, 1).copy()
        return _embed_coeff(mat)

    c_blocks = [np.zeros((q, q)) for q in dims]
    for b, mat in problem.objective.items():
        c_blocks[b] = sign * to_real(b, mat)

    m = len(problem.constraints)
    a_tensors = [np.zeros((m, q, q)) for q in dims]
    rhs = np.zeros(m)
    slack_at = n_user
    slack_index = np.full(m, -1, dtype=int)
    for k, (coeffs, bk, rel) in enumerate(problem.constraints):
        rhs[k] = bk
        for b, mat in coeffs.items():
            a_tensors[b][k] = to_real(b, mat)
        if rel == "<=":
            a_tensors[slack_at][k, 0, 0] = 1.0
            slack_index[k] = slack_at
            slack_at += 1

    real = _RealSdp(dims, c_blocks, a_tensors, rhs)
    x, y, s, iterations, pres, dres, converged = real.solve()

    blocks = []
    for b in range(n_user):
        q = problem.blocks[b]
        if q == 1:
            blocks.append(np.array([[x[b][0, 0]]], dtype=np.complex128))
        else:
            blocks.append(_unembed_psd(x[b], q))
    slacks = np.array(
        [x[slack_index[k]][0, 0] if slack_index[k] >= 0 else 0.0 for k in range(m)]
    )

    pobj = real.inner_c(x)
    dobj = float(rhs @ y)
    solution = SdpSolution(
        blocks=blocks,
        y=y,
        primal_value=sign * pobj,
        dual_value=sign * dobj,
        gap=abs(pobj - dobj),
        iterations=iterations,
        primal_residual=pres,
        dual_residual=dres,
        converged=converged,
        slacks=slacks,
    )
    if not converged:
        raise SdpNoConvergence(
            f"no convergence after {MAX_ITER} iterations "
            f"(primal residual {pres:.3e}, dual residual {dres:.3e}, "
            f"gap {abs(pobj - dobj):.3e})",
            best=solution,
        )
    return solution
