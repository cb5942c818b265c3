"""Semidefinite programming over Hermitian psd blocks, on sparse constraints.

Problems are stated in the standard block form

    optimize    sum_b <C_b, X_b>
    subject to  sum_b <A_kb, X_b>  (= or <=)  rhs_k,      X_b psd Hermitian,

with <A, X> = tr(A X) = Re sum_ab A[a,b] conj(X[a,b]) for Hermitian A, X.
The solver is a primal-dual path-following interior point method with
Nesterov-Todd scaling and a Mehrotra-style adaptive centering parameter (one
factorization of the Schur complement and two Newton directions per
iteration, no second-order corrector). It is entirely deterministic: no
randomness, no external solver, LAPACK factorizations only.

The iterates X, S and the NT scaling W are complex Hermitian q x q blocks,
as the problem states them; each "<=" constraint gets a private 1x1 slack
block. Each Newton direction is refined once against A dX = rp with the
same factorization of the Schur complement.

Constraints are held as entry lists, never as dense matrices: applying the
constraint map or its adjoint is a gather and a bincount scatter over the
nonzero entries. The Schur complement is

    M_kl = sum_b Re tr(h_kb w_b h_lb w_b),

with h_kb the coefficient of row k on block b and w_b its NT scaling. A
block whose rows hold few entries against its side gathers that sum entry
by entry from K[(a,b),(c,d)] = w[b,c] w[d,a] (Fujisawa, Kojima and Nakata,
Math. Program. 79, 1997); a block with dense rows multiplies w h_l w out.
Blocks with identical coefficients, such as the psd split X1 = G(rho) - X,
X2 = G(rho) + X of the cb-norm program, share one sum.

Intended scale: block sides up to a few tens, constraint counts up to a few
thousand. The m x m Schur matrix is dense, and so are the blocks X, S, W.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
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
    "adjoint",
]

# Convergence target: both relative residuals within FEAS_TOL, and the
# duality gap within GAP_ABS or, relative to the objective, GAP_REL.
GAP_ABS = 1e-8
GAP_REL = 1e-9
FEAS_TOL = 1e-9
# Iteration budget, read on every call to solve().
MAX_ITER = 200

# A block gathers its Schur complement over pairs of entries when no row
# holds more than this many complex entries per unit of block side; denser
# rows multiply w h_l w out, at a cost that does not grow with the entries.
GATHER_ENTRIES_PER_SIDE = 0.5

# The per-phase timers of SdpSolution.phase_s.
PHASES = ("assembly", "schur", "factor", "step", "scaling")


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
    """Solver output: primal blocks (complex Hermitian psd), dual data, certificates.

    phase_s holds the seconds the solve spent in each of PHASES: building the
    entry lists, the Schur complement, its factorization and solve, the
    step-length search, and the NT scaling. The rest of the solve (residuals
    and Newton directions) is in none of them.
    """

    blocks: list
    y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    phase_s: dict
    converged: bool = True
    slacks: np.ndarray | None = None


def adjoint(problem: SdpProblem, y, b: int) -> np.ndarray:
    """sum_k y_k A_kb, the constraint map's adjoint at y on block b, as a
    complex Hermitian matrix read off the problem's own coefficients."""
    q = problem.blocks[b]
    out = np.zeros((q, q), dtype=np.complex128)
    for yk, (coeffs, _, _) in zip(y, problem.constraints):
        if b in coeffs:
            out += yk * coeffs[b]
    return out


# ----------------------------------------------------------------------------
# constraints as entry lists


class _Block:
    """One complex Hermitian q x q psd block of the kernel and its constraint
    coefficients, held as the nonzero entries (row k, a, b, h_k[a, b]) of the
    coefficients, sorted by row.

    For the Schur complement, `prow`, `pcol` and `pv` hold the s-th entry of
    each row in `schur_rows` at [s, row], as two flat positions and the value
    (zero where the row has fewer entries).
    """

    def __init__(self, q: int, rows, a, b, v):
        self.q = q
        self.rows, self.a, self.b, self.v = rows, a, b, v
        self.flat = a * q + b

        self.schur_rows, counts = np.unique(rows, return_counts=True)
        rows_u = self.schur_rows
        # where the block's Schur rows sit in M: a slice when they are contiguous
        self.schur_span = (
            (slice(rows_u[0], rows_u[-1] + 1),) * 2
            if rows_u.size and rows_u[-1] - rows_u[0] + 1 == rows_u.size
            else np.ix_(rows_u, rows_u))
        self.local = np.repeat(np.arange(rows_u.size), counts)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        width = int(counts.max()) if counts.size else 0
        # An entry (a, b) meets K = outer(w.T, w), raveled, at a*q^3 + b*q
        # from the row side and at b*q^2 + a from the column side.
        self.prow = np.zeros((width, rows_u.size), dtype=int)
        self.pcol = np.zeros((width, rows_u.size), dtype=int)
        self.pv = np.zeros((width, rows_u.size), dtype=np.complex128)
        self.prow[slot, self.local] = a * q ** 3 + b * q
        self.pcol[slot, self.local] = b * q * q + a
        self.pv[slot, self.local] = v
        self.gather = width <= GATHER_ENTRIES_PER_SIDE * q

    def apply(self, x: np.ndarray, m: int) -> np.ndarray:
        """(<h_k, x>)_k = (Re sum_ab h_k[a,b] conj(x[a,b]))_k over the m rows."""
        return np.bincount(self.rows, minlength=m,
                           weights=(self.v * x[self.a, self.b].conj()).real)

    def apply_t(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k h_k."""
        q = self.q
        yv = y[self.rows] * self.v
        h = (np.bincount(self.flat, weights=yv.real, minlength=q * q)
             + 1j * np.bincount(self.flat, weights=yv.imag, minlength=q * q))
        return h.reshape(q, q)

    def same_coefficients(self, other: "_Block") -> bool:
        return self.q == other.q and all(
            np.array_equal(u, w) for u, w in (
                (self.rows, other.rows), (self.a, other.a),
                (self.b, other.b), (self.v, other.v)))

    def schur(self, ws) -> np.ndarray:
        """sum over w in ws of Re tr(h_k w h_l w), for the rows k, l in
        schur_rows, up to its antisymmetric part; every block in the sum has
        these coefficients."""
        if self.gather:
            return self._schur_gather(ws)
        return self._schur_dense(ws)

    def _schur_gather(self, ws) -> np.ndarray:
        # K[(a,b),(c,d)] = sum_w w[b,c] w[d,a], the sum of outer(w.T, w)
        # reordered, is symmetric in its two entries, and entry (k, l)
        # of the result is Re sum_{e in k, f in l} v_e v_f K[e, f]: one
        # gather per pair of entry slots (s, t).  Pair (t, s) is the
        # transpose of pair (s, t), so pair (s, t) counts twice and only the
        # symmetric part of the sum is right.
        width = self.pv.shape[0]
        k = (np.stack([w.T.ravel() for w in ws], axis=1)
             @ np.stack([w.ravel() for w in ws])).ravel()
        out = np.zeros((self.schur_rows.size,) * 2)
        for s in range(width):
            vs = self.pv[s][:, None]
            for t in range(s, width):
                g = np.take(k, self.prow[s][:, None] + self.pcol[t])
                g *= self.pv[t]
                g *= vs if t == s else 2.0 * vs
                out += g.real
        return out

    def _schur_dense(self, ws) -> np.ndarray:
        # H_l -> sum_w w H_l w, then the real part of the row-by-row inner
        # products tr(H_k T_l) as two real matrix products.
        size, q = self.schur_rows.size, self.q
        h = np.zeros((size, q, q), dtype=np.complex128)
        h[self.local, self.a, self.b] = self.v
        t = sum(w @ h @ w for w in ws)
        hf = h.reshape(size, q * q)
        tf = t.transpose(0, 2, 1).reshape(size, q * q)
        return hf.real @ tf.real.T - hf.imag @ tf.imag.T


# ----------------------------------------------------------------------------
# block solver


def _dot(us, vs) -> float:
    """sum_b Re tr(u_b v_b) over two lists of Hermitian blocks."""
    return float(sum(np.vdot(v, u).real for u, v in zip(us, vs)))


def _chol_psd(x: np.ndarray) -> np.ndarray:
    """Cholesky factor with a tiny diagonal lift when roundoff spoils positivity."""
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        h = (x + x.conj().T) / 2
        w = np.linalg.eigvalsh(h)
        lift = max(1e-14, -2.0 * float(w[0])) if w.size else 1e-14
        return np.linalg.cholesky(h + lift * np.eye(x.shape[0]))


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs by forward and back substitution, 64 rows at a
    time, given the real Cholesky factor L."""
    edges = list(range(0, chol.shape[0], 64)) + [chol.shape[0]]
    spans = list(zip(edges, edges[1:]))
    y = np.empty_like(rhs)
    for i0, i1 in spans:
        y[i0:i1] = np.linalg.solve(chol[i0:i1, i0:i1],
                                   rhs[i0:i1] - chol[i0:i1, :i0] @ y[:i0])
    x = np.empty_like(rhs)
    for i0, i1 in reversed(spans):
        x[i0:i1] = np.linalg.solve(chol[i0:i1, i0:i1].T,
                                   y[i0:i1] - chol[i1:, i0:i1].T @ x[i1:])
    return x


def _max_step(inv_chol: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with X + alpha dX psd, given the inverse Cholesky factor of X."""
    g = inv_chol @ dx @ inv_chol.conj().T
    w = np.linalg.eigvalsh((g + g.conj().T) / 2)
    lam = float(w[0]) if w.size else 0.0
    if lam >= -1e-16:
        return np.inf
    return -1.0 / lam


class _Kernel:
    """min sum_b <C_b, X_b> s.t. sum_b <A_kb, X_b> = b_k, X_b psd Hermitian,
    assembled from an SdpProblem: one 1x1 slack block per "<=" constraint,
    the objective negated for "max"."""

    def __init__(self, problem: SdpProblem):
        self.sign = 1.0 if problem.sense == "min" else -1.0
        m = len(problem.constraints)
        # per block: the (rows, a, b, values) of its entries, row by row
        entries = [[(np.zeros(0, dtype=int),) * 3 + (np.zeros(0, dtype=complex),)]
                   for _ in problem.blocks]
        self.slack_rows = []
        for k, (coeffs, _, rel) in enumerate(problem.constraints):
            for b, mat in coeffs.items():
                ia, ib = np.nonzero(mat)
                entries[b].append((np.full(ia.size, k), ia, ib, mat[ia, ib]))
            if rel == "<=":
                self.slack_rows.append(k)
        self.blocks = [_Block(q, *map(np.concatenate, zip(*parts)))
                       for q, parts in zip(problem.blocks, entries)]
        zero = np.zeros(1, dtype=int)
        self.blocks.extend(_Block(1, np.array([k]), zero, zero, np.ones(1, complex))
                           for k in self.slack_rows)

        # Blocks with identical coefficients share one Schur sum.
        self.groups = []
        for i, blk in enumerate(self.blocks):
            for group in self.groups:
                if blk.same_coefficients(self.blocks[group[0]]):
                    group.append(i)
                    break
            else:
                self.groups.append([i])

        self.c = [np.zeros((blk.q,) * 2, dtype=np.complex128) for blk in self.blocks]
        for b, mat in problem.objective.items():
            self.c[b] = self.sign * mat
        self.b = np.array([bk for _, bk, _ in problem.constraints])
        self.m = m
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_c = float(np.sqrt(_dot(self.c, self.c)))
        self.phase_s = dict.fromkeys(PHASES, 0.0)

    @contextmanager
    def _timed(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[phase] += time.perf_counter() - t0

    def apply(self, xb):
        return sum(blk.apply(x, self.m) for blk, x in zip(self.blocks, xb))

    def apply_t(self, y):
        return [blk.apply_t(y) for blk in self.blocks]

    def schur(self, ws) -> np.ndarray:
        """M_kl = sum_b Re tr(h_kb w_b h_lb w_b) for the NT scalings `ws`."""
        out = np.zeros((self.m, self.m))
        for group in self.groups:
            blk = self.blocks[group[0]]
            if blk.rows.size:
                out[blk.schur_span] += blk.schur([ws[i] for i in group])
        return (out + out.T) / 2

    def solve(self):
        dims = [blk.q for blk in self.blocks]
        nu = float(sum(dims))
        row_norm_sq = sum(
            np.bincount(blk.rows, weights=np.abs(blk.v) ** 2, minlength=self.m)
            for blk in self.blocks)
        scale = max(
            10.0,
            max(np.sqrt(q) for q in dims),
            float(np.max((1.0 + np.abs(self.b)) / (1.0 + np.sqrt(row_norm_sq)))),
        )
        eta = max(10.0, max(np.sqrt(q) for q in dims), self.norm_c)
        x = [scale * np.eye(q, dtype=np.complex128) for q in dims]
        s = [eta * np.eye(q, dtype=np.complex128) for q in dims]
        y = np.zeros(self.m)

        best = None
        best_score = np.inf

        for it in range(MAX_ITER):
            rp = self.b - self.apply(x)
            aty = self.apply_t(y)
            rd = [cb - sb - at for cb, sb, at in zip(self.c, s, aty)]
            pobj = _dot(self.c, x)
            dobj = float(self.b @ y)
            gap = pobj - dobj
            relgap = abs(gap) / (1.0 + max(abs(pobj), abs(dobj)))
            pres = float(np.linalg.norm(rp)) / (1.0 + self.norm_b)
            dres = float(np.sqrt(_dot(rd, rd))) / (1.0 + self.norm_c)

            score = max(pres, dres, relgap)
            if score < best_score:
                best_score = score
                best = ([xb.copy() for xb in x], y.copy(), it, pres, dres)

            if pres <= FEAS_TOL and dres <= FEAS_TOL and (
                abs(gap) <= GAP_ABS or relgap <= GAP_REL
            ):
                return x, y, it, pres, dres, True

            mu = _dot(x, s) / nu
            if not np.isfinite(mu) or mu <= 0.0:
                break

            # Near the optimum the scaled system can lose positive
            # definiteness to rounding; in that case stop stepping and
            # return the best iterate seen so far instead of raising.
            try:
                with self._timed("scaling"):
                    # Nesterov-Todd scaling W (W S W = X per block) and the
                    # inverse Cholesky factors of X and S.
                    lx = [_chol_psd(xb) for xb in x]
                    ls = [_chol_psd(sb) for sb in s]
                    inv_lx = [np.linalg.inv(lxb) for lxb in lx]
                    inv_ls = [np.linalg.inv(lsb) for lsb in ls]
                    w = []
                    for lxb, lsb in zip(lx, ls):
                        _, sig, vh = np.linalg.svd(lsb.conj().T @ lxb)
                        r = lxb @ vh.conj().T / np.sqrt(sig)[np.newaxis, :]
                        w.append(r @ r.conj().T)
                    s_inv = [il.conj().T @ il for il in inv_ls]

                with self._timed("schur"):
                    m_sym = self.schur(w)
                a_wrdw = self.apply([wb @ rdb @ wb for wb, rdb in zip(w, rd)])
                a_sinv = self.apply(s_inv)
                with self._timed("factor"):
                    try:
                        m_chol = np.linalg.cholesky(m_sym)
                    except np.linalg.LinAlgError:
                        evals = np.linalg.eigvalsh(m_sym)
                        lift = max(-2.0 * float(evals[0]),
                                   1e-14 * max(float(evals[-1]), 1.0))
                        m_chol = np.linalg.cholesky(
                            m_sym + lift * np.eye(self.m)
                        )
                    # The right-hand side b + A(W Rd W) - sigma_mu A(S^-1) is
                    # affine in sigma_mu: one solve gives both of its parts.
                    z0, z1 = _cho_solve(
                        m_chol, np.column_stack([self.b + a_wrdw, a_sinv])).T

                def newton(sigma_mu):
                    dy = z0 - sigma_mu * z1
                    ds = [rdb - at for rdb, at in zip(rd, self.apply_t(dy))]
                    dx = [sigma_mu * sib - xb - wb @ dsb @ wb
                          for xb, wb, dsb, sib in zip(x, w, ds, s_inv)]
                    # One refinement against A dX = rp with the same factor:
                    # unrefined, the primal residual stalls just above
                    # FEAS_TOL once the gap has closed.
                    with self._timed("factor"):
                        delta = _cho_solve(m_chol, rp - self.apply(dx))
                    at = self.apply_t(delta)
                    ds = [dsb - atb for dsb, atb in zip(ds, at)]
                    dx = [dxb + wb @ atb @ wb for dxb, wb, atb in zip(dx, w, at)]
                    return [(d + d.conj().T) / 2 for d in dx], dy + delta, ds

                def step(dx, ds):
                    with self._timed("step"):
                        ap = min(1.0, 0.98 * min(
                            _max_step(l, d) for l, d in zip(inv_lx, dx)))
                        ad = min(1.0, 0.98 * min(
                            _max_step(l, d) for l, d in zip(inv_ls, ds)))
                    return ap, ad

                # Predictor: pure Newton step toward the boundary.
                dx_a, dy_a, ds_a = newton(0.0)
                ap, ad = step(dx_a, ds_a)
                mu_aff = _dot([xb + ap * dxb for xb, dxb in zip(x, dx_a)],
                              [sb + ad * dsb for sb, dsb in zip(s, ds_a)]) / nu
                sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

                # Corrector: recentered step with the adaptive sigma.
                dx, dy, ds = newton(sigma * mu)
                ap, ad = step(dx, ds)
            except np.linalg.LinAlgError:
                break
            if not (np.isfinite(ap) and np.isfinite(ad)) or ap <= 0 or ad <= 0:
                break
            x = [xb + ap * dxb for xb, dxb in zip(x, dx)]
            s = [sb + ad * dsb for sb, dsb in zip(s, ds)]
            y = y + ad * dy

        if best is None:
            raise SdpError("interior point iteration broke down at the initial point")
        return (*best, False)


# ----------------------------------------------------------------------------
# public driver


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve a block SDP to the certified gap, deterministically.

    Raises SdpNoConvergence (carrying the best iterate as `.best`) when
    MAX_ITER iterations run out before the GAP_ABS/GAP_REL gap and FEAS_TOL
    feasibility targets are met.
    """
    t0 = time.perf_counter()
    kernel = _Kernel(problem)
    assembly_s = time.perf_counter() - t0
    x, y, iterations, pres, dres, converged = kernel.solve()
    kernel.phase_s["assembly"] = assembly_s

    nb = len(problem.blocks)
    slacks = np.zeros(kernel.m)
    slacks[kernel.slack_rows] = [xb[0, 0].real for xb in x[nb:]]
    pobj = _dot(kernel.c, x)
    dobj = float(kernel.b @ y)
    sign = kernel.sign
    solution = SdpSolution(
        blocks=x[:nb],
        y=y,
        primal_value=sign * pobj,
        dual_value=sign * dobj,
        gap=abs(pobj - dobj),
        iterations=iterations,
        primal_residual=pres,
        dual_residual=dres,
        converged=converged,
        slacks=slacks,
        phase_s=kernel.phase_s,
    )
    if not converged:
        raise SdpNoConvergence(
            f"no convergence after {MAX_ITER} iterations "
            f"(primal residual {pres:.3e}, dual residual {dres:.3e}, "
            f"gap {abs(pobj - dobj):.3e})",
            best=solution,
        )
    return solution
