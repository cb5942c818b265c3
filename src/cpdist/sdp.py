"""Semidefinite programming over Hermitian psd blocks, on sparse constraints.

Problems are stated in the standard block form

    optimize    sum_b <C_b, X_b>
    subject to  sum_b <A_kb, X_b>  (= or <=)  rhs_k,      X_b psd Hermitian,

with <A, X> = tr(A X) for Hermitian A, X. The solver is a primal-dual
path-following interior point method with Nesterov-Todd scaling and a
Mehrotra-style adaptive centering parameter (one factorization of the Schur
complement and two Newton directions per iteration, no second-order
corrector). It is entirely deterministic: no randomness, no external solver,
LAPACK factorizations only.

Complex Hermitian blocks of size q > 1 are embedded as real symmetric blocks
of size 2q via  A -> [[Re A, -Im A], [Im A, Re A]] / 2  (the factor 2
correction keeps all inner products equal); the recovered complex solution is
the invariant average of the real block, which preserves objective,
constraints and positive semidefiniteness. 1x1 blocks stay real, and each
"<=" constraint gets a private 1x1 slack block.

Constraints are held as entry lists, never as dense matrices: applying the
constraint map or its adjoint is a gather and a bincount scatter over the
nonzero entries. The Schur complement M_kl = sum_b tr(A_kb W_b A_lb W_b) is
built in the complex form of the embedding,

    tr(A_k W A_l W) = 1/2 Re tr(h_k w h_l w),

with h_k the complex coefficient and w the complex q x q form of the NT
scaling W, which is projected onto the embedding's structure first so that
the Schur matrix and the Newton directions use one scaling. A block whose
rows hold few entries against its side gathers that sum entry by entry from
K[(a,b),(c,d)] = w[b,c] w[d,a] (Fujisawa, Kojima and Nakata, Math. Program.
79, 1997); a block with dense rows multiplies w h_l w out. Blocks with
identical coefficients, such as the psd split X1 = G(rho) - X,
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
    step-length search, and the NT scaling. The rest of the solve (residuals,
    Newton directions, the final unembedding) is in none of them.
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
# complex <-> real embedding


def _embed(z: np.ndarray) -> np.ndarray:
    """The real form [[Re z, -Im z], [Im z, Re z]] of a complex matrix."""
    re, im = z.real, z.imag
    return np.vstack([np.hstack([re, -im]), np.hstack([im, re])])


def _complex_part(x: np.ndarray, q: int) -> np.ndarray:
    """The complex q x q matrix whose real form is nearest the 2q x 2q block x:
    the invariant average of x."""
    return 0.5 * (x[:q, :q] + x[q:, q:]) + 0.5j * (x[q:, :q] - x[:q, q:])


# ----------------------------------------------------------------------------
# constraints as entry lists


class _Block:
    """One psd block of the kernel and its constraint coefficients, held as
    the nonzero entries (row k, a, b, h_k[a, b]) of the q x q Hermitian
    coefficients, sorted by row. The block itself is the real 2q x 2q
    embedding for q > 1 and stays real for q = 1.

    For the Schur complement, `prow`, `pcol` and `pv` hold the s-th entry of
    each row in `schur_rows` at [s, row], as two flat positions and the value
    (zero where the row has fewer entries).
    """

    def __init__(self, q: int, rows, a, b, v):
        self.q = q
        self.side = 1 if q == 1 else 2 * q
        # With x and w the complex forms of the blocks X and W (the average
        # of an embedded block; a 1x1 block itself),
        #   <A_k, X> = Re sum_ab h_k[a,b] conj(x[a,b]),
        #   tr(A_k W A_l W) = factor * Re tr(h_k w h_l w).
        self.factor = 1.0 if q == 1 else 0.5
        self.rows, self.a, self.b = rows, a, b
        self.v = v.real if q == 1 else v
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
        self.pv = np.zeros((width, rows_u.size), dtype=self.v.dtype)
        self.prow[slot, self.local] = a * q ** 3 + b * q
        self.pcol[slot, self.local] = b * q * q + a
        self.pv[slot, self.local] = self.v
        self.gather = width <= GATHER_ENTRIES_PER_SIDE * q

    def apply(self, x: np.ndarray, m: int) -> np.ndarray:
        """(<A_k, X>)_k over the m constraint rows."""
        xc = x if self.q == 1 else _complex_part(x, self.q)
        return np.bincount(self.rows, minlength=m,
                           weights=(self.v * xc[self.a, self.b].conj()).real)

    def apply_t(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k A_k: the real form of (1/2) sum_k y_k h_k."""
        q = self.q
        yv = y[self.rows] * self.v
        h = np.bincount(self.flat, weights=yv.real, minlength=q * q)
        if q == 1:
            return h.reshape(1, 1)
        h = h + 1j * np.bincount(self.flat, weights=yv.imag, minlength=q * q)
        return 0.5 * _embed(h.reshape(q, q))

    def same_coefficients(self, other: "_Block") -> bool:
        return self.q == other.q and all(
            np.array_equal(u, w) for u, w in (
                (self.rows, other.rows), (self.a, other.a),
                (self.b, other.b), (self.v, other.v)))

    def schur(self, omegas) -> np.ndarray:
        """sum over w in omegas of factor * Re tr(h_k w h_l w), for the rows
        k, l in schur_rows, up to its antisymmetric part; every block in the
        sum has these coefficients."""
        if self.gather:
            return self._schur_gather(omegas)
        return self._schur_dense(omegas)

    def _schur_gather(self, omegas) -> np.ndarray:
        # K[(a,b),(c,d)] = sum_w w[b,c] w[d,a], the sum of outer(w.T, w)
        # reordered, is symmetric in its two entries, and entry (k, l)
        # of the result is Re sum_{e in k, f in l} v_e v_f K[e, f]: one
        # gather per pair of entry slots (s, t).  Pair (t, s) is the
        # transpose of pair (s, t), so pair (s, t) counts twice and only the
        # symmetric part of the sum is right.
        width = self.pv.shape[0]
        k = (np.stack([w.T.ravel() for w in omegas], axis=1)
             @ np.stack([w.ravel() for w in omegas])).ravel()
        out = np.zeros((self.schur_rows.size,) * 2)
        for s in range(width):
            vs = self.pv[s][:, None]
            for t in range(s, width):
                g = np.take(k, self.prow[s][:, None] + self.pcol[t])
                g *= self.pv[t]
                g *= vs if t == s else 2.0 * vs
                out += g.real
        return self.factor * out

    def _schur_dense(self, omegas) -> np.ndarray:
        # H_l -> sum_w w H_l w, then the real part of the row-by-row inner
        # products tr(H_k T_l) as two real matrix products.
        size, q = self.schur_rows.size, self.q
        h = np.zeros((size, q, q), dtype=self.v.dtype)
        h[self.local, self.a, self.b] = self.v
        t = sum(w @ h @ w for w in omegas)
        hf = h.reshape(size, q * q)
        tf = t.transpose(0, 2, 1).reshape(size, q * q)
        out = hf.real @ tf.real.T
        if np.iscomplexobj(tf):
            out -= hf.imag @ tf.imag.T
        return self.factor * out


# ----------------------------------------------------------------------------
# real block solver


def _chol_psd(x: np.ndarray) -> np.ndarray:
    """Cholesky factor with a tiny diagonal lift when roundoff spoils positivity."""
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh((x + x.T) / 2)
        lift = max(1e-14, -2.0 * float(w[0])) if w.size else 1e-14
        return np.linalg.cholesky((x + x.T) / 2 + lift * np.eye(x.shape[0]))


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs by forward and back substitution, 64 rows at a
    time, given the Cholesky factor L."""
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
    g = inv_chol @ dx @ inv_chol.T
    w = np.linalg.eigvalsh((g + g.T) / 2)
    lam = float(w[0]) if w.size else 0.0
    if lam >= -1e-16:
        return np.inf
    return -1.0 / lam


class _RealSdp:
    """min sum_b <C_b, X_b> s.t. sum_b <A_kb, X_b> = b_k, X_b psd (real symmetric),
    assembled from an SdpProblem: its blocks embedded, one 1x1 slack block per
    "<=" constraint, the objective negated for "max"."""

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
        self.blocks.extend(_Block(1, np.array([k]), zero, zero, np.ones(1))
                           for k in self.slack_rows)
        self.dims = [blk.side for blk in self.blocks]

        # Blocks with identical coefficients share one Schur sum.
        self.groups = []
        for i, blk in enumerate(self.blocks):
            for group in self.groups:
                if blk.same_coefficients(self.blocks[group[0]]):
                    group.append(i)
                    break
            else:
                self.groups.append([i])

        self.c = [np.zeros((q, q)) for q in self.dims]
        for b, mat in problem.objective.items():
            q = problem.blocks[b]
            self.c[b] = self.sign * (
                mat.real.reshape(1, 1).copy() if q == 1 else 0.5 * _embed(mat))
        self.b = np.array([bk for _, bk, _ in problem.constraints])
        self.m = m
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_c = float(np.sqrt(sum(np.sum(cb * cb) for cb in self.c)))
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

    def inner_c(self, xb):
        return float(sum(np.sum(cb * x) for cb, x in zip(self.c, xb)))

    def schur(self, omegas) -> np.ndarray:
        """M_kl = sum_b tr(A_kb W_b A_lb W_b), for the W_b whose complex forms
        (the 1x1 blocks as they are) are `omegas`."""
        out = np.zeros((self.m, self.m))
        for group in self.groups:
            blk = self.blocks[group[0]]
            if blk.rows.size:
                out[blk.schur_span] += blk.schur([omegas[i] for i in group])
        return (out + out.T) / 2

    def solve(self):
        dims = self.dims
        nu = float(sum(dims))
        # ||A_k||_F^2 = tr(A_k A_k) = factor * sum |h_k[a,b]|^2
        row_norm_sq = sum(
            np.bincount(blk.rows, weights=blk.factor * np.abs(blk.v) ** 2,
                        minlength=self.m)
            for blk in self.blocks)
        scale = max(
            10.0,
            max(np.sqrt(q) for q in dims),
            float(np.max((1.0 + np.abs(self.b)) / (1.0 + np.sqrt(row_norm_sq)))),
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
                with self._timed("scaling"):
                    # Nesterov-Todd scaling W (W S W = X per block), projected
                    # onto the embedding's structure, and the inverse
                    # Cholesky factors of X and S.
                    lx = [_chol_psd(xb) for xb in x]
                    ls = [_chol_psd(sb) for sb in s]
                    inv_lx = [np.linalg.inv(lxb) for lxb in lx]
                    inv_ls = [np.linalg.inv(lsb) for lsb in ls]
                    w_blocks, omegas = [], []
                    for blk, lxb, lsb in zip(self.blocks, lx, ls):
                        _, sig, vt = np.linalg.svd(lsb.T @ lxb)
                        r = lxb @ vt.T / np.sqrt(sig)[np.newaxis, :]
                        w = r @ r.T
                        if blk.q > 1:
                            w = _complex_part(w, blk.q)
                            w_blocks.append(_embed(w))
                        else:
                            w_blocks.append(w)
                        omegas.append(w)
                    s_inv = [il.T @ il for il in inv_ls]

                with self._timed("schur"):
                    m_sym = self.schur(omegas)
                a_wrdw = self.apply([wb @ rdb @ wb for wb, rdb in zip(w_blocks, rd)])
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
                    atdy = self.apply_t(dy)
                    ds = [rdb - at for rdb, at in zip(rd, atdy)]
                    dx = []
                    for xb, wb, dsb, sib in zip(x, w_blocks, ds, s_inv):
                        blk = sigma_mu * sib - xb - wb @ dsb @ wb
                        dx.append((blk + blk.T) / 2)
                    return dx, dy, ds

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
                mu_aff = sum(
                    np.sum((xb + ap * dxb) * (sb + ad * dsb))
                    for xb, dxb, sb, dsb in zip(x, dx_a, s, ds_a)
                ) / nu
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
    t0 = time.perf_counter()
    real = _RealSdp(problem)
    assembly_s = time.perf_counter() - t0
    x, y, s, iterations, pres, dres, converged = real.solve()
    real.phase_s["assembly"] = assembly_s

    blocks = []
    for b, q in enumerate(problem.blocks):
        if q == 1:
            blocks.append(np.array([[x[b][0, 0]]], dtype=np.complex128))
        else:
            z = _complex_part(x[b], q)
            blocks.append((z + z.conj().T) / 2)
    slacks = np.zeros(real.m)
    slacks[real.slack_rows] = [xb[0, 0] for xb in x[len(problem.blocks):]]

    pobj = real.inner_c(x)
    dobj = float(real.b @ y)
    sign = real.sign
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
        phase_s=real.phase_s,
    )
    if not converged:
        raise SdpNoConvergence(
            f"no convergence after {MAX_ITER} iterations "
            f"(primal residual {pres:.3e}, dual residual {dres:.3e}, "
            f"gap {abs(pobj - dobj):.3e})",
            best=solution,
        )
    return solution
