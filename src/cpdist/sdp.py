"""Semidefinite programming over Hermitian psd blocks, on sparse constraints.

Problems are stated in the standard block form, and every one is maximized:

    maximize    sum_b <C_b, X_b>
    subject to  sum_b <A_kb, X_b> = rhs_k,      X_b psd Hermitian,

with <A, X> = tr(A X) = Re sum_ab A[a,b] conj(X[a,b]) for Hermitian A, X.
A minimization is stated with the negated objective, an inequality with a
slack block of its own. The solver is a primal-dual path-following interior
point method with Nesterov-Todd scaling and Mehrotra's predictor-corrector
(SIAM J. Optim. 2, 1992): the predictor's directions set the centering
parameter and the corrector's second-order term, which is formed in the NT
frame as in SDPT3 (Todd, Toh and Tütüncü, SIAM J. Optim. 8, 1998). One
factorization of the Schur complement serves both Newton directions of an
iteration. It is entirely deterministic: no randomness, no external solver,
LAPACK factorizations only.

The iteration starts from X = scale I, S = eta I, y = 0 as SDPT3 does, but
with floors of 1 where SDPT3 takes 10: `metrics` poses every program at
unit scale, and from 10 I the first iterations did little but shrink mu.
The predictor steps 0.95 of the way to the boundary; the corrector takes
SDPT3's adaptive fraction 0.9 + 0.09 min(ap, ad) from the predictor's step
lengths ap, ad (Toh, Todd and Tütüncü, Optim. Methods Softw. 11, 1999), so
that it steps further the better the predictor went.

The NT frame comes from the SVD ls† lx = U diag(lam) V† of the Cholesky
factors of X and S: G = lx V lam^-1/2 and G^-1 = lam^-1/2 U† ls† take both
to G^-1 X G^-† = G† S G = diag(lam), W = G G† is the NT scaling, and
S^-1 = G diag(1/lam) G†. The largest steps are read off the directions in
that frame, lam^-1/2 (G^-1 dX G^-†) lam^-1/2 and lam^-1/2 (G† dS G) lam^-1/2,
by one stacked eigvalsh.

The iterate is block-diagonal: X, S, W and the Newton directions are each
one complex Hermitian Q x Q matrix, Q the sum of the block sides, with the
blocks on its diagonal and zeros elsewhere. Each step of an iteration
(Cholesky, the NT SVD, the step-length eigvalsh, inner products, the
constraint map) is then one numpy call however many blocks the problem has.
Cholesky and products keep the zeros off the blocks exact; W and the
corrector's right-hand side, which come from the SVD, are masked to the
blocks.

An SdpProblem gathers each block's constraint coefficients into one
(m_b, q, q) stack and gates it at once (shape, finite entries, Hermiticity
at HERMITICITY_ATOL, then (A + A†)/2, the bits check_hermitian gives); the
kernel reads each block's entries with one nonzero over its stack.
Constraints are held as one entry list, never as dense matrices: applying
the constraint map or its adjoint is a gather and a bincount scatter over
the nonzero entries, and the solution carries that adjoint at its y, block
by block, as `aty`. The Schur complement is

    M_kl = sum_b Re tr(h_kb w_b h_lb w_b),

with h_kb the coefficient of row k on block b and w_b its slice of W. A
block whose rows hold few entries against its side gathers that sum entry
by entry from K[(a,b),(c,d)] = w[b,c] w[d,a] (Fujisawa, Kojima and Nakata,
Math. Program. 79, 1997); a block with dense rows multiplies w h_l w out.
Blocks with identical coefficients, such as the psd split X1 = G(rho) - X,
X2 = G(rho) + X of the cb-norm program, share one sum, and only the first
of them builds its tables.

M is factored once per iteration (Cholesky, solved by substitution 64 rows
at a time); each Newton direction is one solve with that factor, refined
once against A dX = rp. When roundoff spoils the positivity of M, the factor
is of M plus a tiny diagonal lift, and the solution counts these iterations
in `schur_lifts`. X and S take no lift: a failed step stops the solve,
naming why. So does primal infeasibility, detected as in SDPT3: the dual
objective b.y outgrowing ||A^T y + S||, so that y nears a certificate.

Intended scale: block sides up to a few tens, constraint counts up to a few
thousand. The m x m Schur matrix is dense, and so are X, S and W.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import HERMITICITY_ATOL

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

# A block gathers its Schur complement over pairs of entries when no row
# holds more than this many complex entries per unit of block side; denser
# rows multiply w h_l w out, at a cost that does not grow with the entries.
GATHER_ENTRIES_PER_SIDE = 0.5

# The per-phase timers of SdpSolution.phase_s.
PHASES = ("assembly", "schur", "factor", "step", "scaling", "rest")


class SdpError(Exception):
    """Base class for solver failures."""


class SdpNoConvergence(SdpError):
    """Raised when a solve stops short of its target; the message says why,
    and `.best` carries the best iterate."""

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
    """A block SDP, maximized; coefficients are Hermitian, keyed by block index.

    blocks:       sizes of the Hermitian psd variable blocks.
    objective:    {block index: Hermitian coefficient}.
    constraints:  list of (coefficients, rhs, "=") equality constraints.

    Each block's constraint coefficients are gated as one (m_b, q, q) stack,
    held with the rows they belong to in `_stacks`; the matrices of
    `constraints` are views of these stacks.
    """

    blocks: tuple
    objective: dict
    constraints: list
    _stacks: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.blocks = tuple(int(q) for q in self.blocks)
        if not self.blocks or any(q < 1 for q in self.blocks):
            raise ValueError("block sizes must be positive")
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        objective = {self._index(b): mat for b, mat in self.objective.items()}
        self.objective = {b: self._gate(b, [mat])[0] for b, mat in objective.items()}
        checked = []
        rows = [[] for _ in self.blocks]
        mats = [[] for _ in self.blocks]
        for k, (coeffs, rhs, rel) in enumerate(self.constraints):
            rhs = float(rhs)
            if not np.isfinite(rhs):
                raise ValueError("constraint right-hand side must be finite")
            if rel != "=":
                raise ValueError(
                    f"relation must be '=', got {rel!r}; state an inequality "
                    "with a slack block")
            blocks = [self._index(b) for b in coeffs]
            for b, mat in zip(blocks, coeffs.values()):
                rows[b].append(k)
                mats[b].append(mat)
            checked.append((dict.fromkeys(blocks), rhs, rel))
        self._stacks = [(np.array(r, dtype=int), self._gate(b, m))
                        for b, (r, m) in enumerate(zip(rows, mats))]
        for b, (_, stack) in enumerate(self._stacks):
            for k, mat in zip(rows[b], stack):
                checked[k][0][b] = mat
        self.constraints = checked

    def _index(self, b) -> int:
        b = int(b)
        if not 0 <= b < len(self.blocks):
            raise ValueError(f"block index {b} out of range")
        return b

    def _gate(self, b: int, mats) -> np.ndarray:
        """Block b's coefficients as one (len(mats), q, q) stack, gated and
        symmetrized as check_hermitian gates each matrix."""
        q = self.blocks[b]
        for mat in mats:
            if np.shape(mat) != (q, q):
                raise ValueError(f"coefficient for block {b} has shape "
                                 f"{np.shape(mat)}, expected {(q, q)}")
        a = np.array(mats, dtype=np.complex128).reshape(len(mats), q, q)
        if not np.isfinite(a).all():
            raise ValueError(f"coefficient for block {b} has non-finite entries")
        ah = a.conj().transpose(0, 2, 1)
        skew = 0.5 * float(np.abs(a - ah).max(initial=0.0))
        if skew > HERMITICITY_ATOL:
            raise ValueError(f"coefficient for block {b} is not Hermitian: "
                             f"anti-Hermitian part {skew:.3e}")
        # (a + ah) / 2 to the same bits, in place: full-rank programs hold
        # stacks of tens of megabytes
        a += ah
        a /= 2
        return a


@dataclass
class SdpSolution:
    """Solver output: primal blocks (complex Hermitian psd), dual data, certificates.

    aty holds sum_k y_k A_kb on each block b at the returned dual vector y.
    phase_s holds the seconds the solve spent in each of PHASES: building the
    entry lists, the Schur complement, its factorization and solves, the
    step lengths (the directions in the NT frame and one stacked eigvalsh
    per direction), the NT scaling, and the rest (residuals, right-hand
    sides and Newton directions); they sum to the solve's wall time.
    schur_lifts counts the iterations whose Schur factorization needed the
    diagonal lift.
    """

    blocks: list
    y: np.ndarray
    aty: list
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    phase_s: dict
    schur_lifts: int


# ----------------------------------------------------------------------------
# constraints as entry lists


class _Block:
    """One complex Hermitian q x q psd block, at rows and columns `span` of
    the kernel's iterate, and its share of the kernel's entry list: the
    entries (row k, h_k[a, b]) as views `rows` and `v`, sorted by row, and
    their positions a*q + b in the block as `flat`.

    Its Schur sum over `schur_rows` takes the gather route when no row holds
    more than GATHER_ENTRIES_PER_SIDE entries per unit of side, and the dense
    route otherwise.  `tabulate` builds only what that route reads: the
    gather `prow`, `pcol` and `pv`, the s-th entry of each row at [s, row]
    as two flat positions and the value (zero where the row has fewer
    entries); the dense route the rows' coefficients `h`.
    """

    def __init__(self, q: int, off: int, rows, a, b, v):
        self.q = q
        self.span = slice(off, off + q)
        self.rows, self.v = rows, v
        self.flat = a * q + b
        self.schur_rows, self.counts = np.unique(rows, return_counts=True)
        self.gather = int(self.counts.max(initial=0)) <= GATHER_ENTRIES_PER_SIDE * q

    def tabulate(self):
        """Build the tables of the block's Schur route."""
        q, counts = self.q, self.counts
        size = self.schur_rows.size
        self.schur_span = np.ix_(self.schur_rows, self.schur_rows)
        local = np.repeat(np.arange(size), counts)
        if self.gather:
            width = int(counts.max(initial=0))
            slot = np.arange(local.size) - np.repeat(np.cumsum(counts) - counts, counts)
            # An entry (a, b) meets K = outer(w.T, w), raveled, at a*q^3 + b*q
            # from the row side and at b*q^2 + a from the column side.
            a, b = np.divmod(self.flat, q)
            self.prow = np.zeros((width, size), dtype=int)
            self.pcol = np.zeros((width, size), dtype=int)
            self.pv = np.zeros((width, size), dtype=np.complex128)
            self.prow[slot, local] = a * q ** 3 + b * q
            self.pcol[slot, local] = b * q * q + a
            self.pv[slot, local] = self.v
        else:
            h = np.zeros((size, q * q), dtype=np.complex128)
            h[local, self.flat] = self.v
            self.h = h.reshape(size, q, q)

    def same_coefficients(self, other: "_Block") -> bool:
        return self.q == other.q and all(
            np.array_equal(u, w) for u, w in (
                (self.rows, other.rows), (self.flat, other.flat),
                (self.v, other.v)))

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
        h = self.h
        size, q = self.schur_rows.size, self.q
        t = sum(w @ h @ w for w in ws)
        hf = h.reshape(size, q * q)
        tf = t.transpose(0, 2, 1).reshape(size, q * q)
        return hf.real @ tf.real.T - hf.imag @ tf.imag.T


# ----------------------------------------------------------------------------
# block-diagonal solver


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Re tr(u v) for two Hermitian matrices."""
    return float(np.vdot(v, u).real)


def _schur_cholesky(m_sym: np.ndarray):
    """The real Cholesky factor of a Schur matrix, and whether roundoff spoiled
    its positivity, so that it factors the matrix plus a tiny diagonal lift."""
    try:
        return np.linalg.cholesky(m_sym), False
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvalsh(m_sym)
        lift = max(-2.0 * float(evals[0]), 1e-14 * max(float(evals[-1]), 1.0))
        return np.linalg.cholesky(m_sym + lift * np.eye(m_sym.shape[0])), True


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs by forward and back substitution, 64 rows at a
    time, given the real Cholesky factor L.  Multiplying by the inverses of
    the diagonal blocks instead loses the accuracy near the optimum that
    the refinement of the Newton directions relies on.  A factor of one
    panel takes the two solves directly."""
    if chol.shape[0] <= 64:
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
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


def _nt_frame(lx: np.ndarray, ls: np.ndarray):
    """The Nesterov-Todd frame of X = lx lx† and S = ls ls†: with
    ls† lx = U diag(lam) V†, G = lx V lam^-1/2 has G^-1 = lam^-1/2 U† ls†,
    and G^-1 X G^-† = G† S G = diag(lam).  Returns the stack (G^-1, G†)
    and lam; W = G G† is the NT scaling (W S W = X)."""
    u, lam, vh = np.linalg.svd(ls.conj().T @ lx)
    root = np.sqrt(lam)[:, np.newaxis]
    return np.stack([u.conj().T @ ls.conj().T, vh @ lx.conj().T]) / root, lam


def _frame_steps(frame: np.ndarray, lam: np.ndarray, dx, ds):
    """The directions in the NT frame, (G^-1 dX G^-†, G† dS G), and the
    largest alpha with X + alpha dX psd and with S + alpha dS psd: since
    X + alpha dX = G (diag(lam) + alpha G^-1 dX G^-†) G†, it is -1 over the
    least eigenvalue of lam^-1/2 (G^-1 dX G^-†) lam^-1/2, and likewise for S;
    both from one stacked eigvalsh."""
    t = frame @ np.stack([dx, ds]) @ frame.conj().transpose(0, 2, 1)
    root = np.sqrt(lam)
    least = np.linalg.eigvalsh(t / np.outer(root, root))[:, 0]
    return t, np.where(least < -1e-16, -1.0 / np.minimum(least, -1e-16), np.inf)


class _Kernel:
    """min <C, X> s.t. <A_k, X> = b_k, X psd Hermitian and block-diagonal,
    assembled from an SdpProblem with its objective negated.

    The problem's blocks sit on the diagonal of the Q x Q iterate in their
    order.  The constraints are one entry list (row k, position, h_k entry)
    over the iterate, block by block and each block's entries by row; each
    _Block holds views of its part.  Each iteration takes a predictor and a
    corrector step, both from one Schur factorization, in the NT frame of
    X and S.  phase_s is charged by laps of one clock, which starts with the
    assembly."""

    def __init__(self, problem: SdpProblem):
        self._clock = time.perf_counter()
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.m = m = len(problem.constraints)
        dims = problem.blocks
        offs = np.concatenate([[0], np.cumsum(dims)])
        self.side = side = int(offs[-1])

        # per block: the (rows, a, b, values) of its entries, row by row
        parts = []
        for block_rows, stack in problem._stacks:
            j, ia, ib = np.nonzero(stack)
            parts.append((block_rows[j], ia, ib, stack[j, ia, ib]))
        counts = [part[0].size for part in parts]
        rows, a, b, v = (np.concatenate([part[i] for part in parts])
                         for i in range(4))
        del parts
        off = np.repeat(offs[:-1], counts)
        self.rows, self.v = rows, v
        self.pos = (off + a) * side + off + b
        ends = np.concatenate([[0], np.cumsum(counts)])
        self.blocks = [_Block(q, int(o), rows[i0:i1], a[i0:i1], b[i0:i1], v[i0:i1])
                       for q, o, i0, i1 in zip(dims, offs, ends, ends[1:])]

        # Blocks with identical coefficients share one Schur sum.
        self.groups = []
        for i, blk in enumerate(self.blocks):
            for group in self.groups:
                if blk.same_coefficients(self.blocks[group[0]]):
                    group.append(i)
                    break
            else:
                self.groups.append([i])
                blk.tabulate()

        self.off_blocks = np.ones((side, side), dtype=bool)
        for blk in self.blocks:
            self.off_blocks[blk.span, blk.span] = False
        self.c = np.zeros((side, side), dtype=np.complex128)
        for blk_index, mat in problem.objective.items():
            span = self.blocks[blk_index].span
            self.c[span, span] = -mat
        self.b = np.array([bk for _, bk, _ in problem.constraints])
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_c = float(np.sqrt(_dot(self.c, self.c)))
        self.schur_lifts = 0
        self._lap("assembly")

    def _lap(self, phase: str):
        """Charge the time since the last lap to `phase`."""
        now = time.perf_counter()
        self.phase_s[phase] += now - self._clock
        self._clock = now

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(<h_k, x>)_k = (Re sum_ab h_k[a,b] conj(x[a,b]))_k over the m rows."""
        return np.bincount(self.rows, minlength=self.m,
                           weights=(self.v * x.ravel()[self.pos].conj()).real)

    def apply_t(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k h_k, block-diagonal."""
        n = self.side * self.side
        yv = y[self.rows] * self.v
        h = (np.bincount(self.pos, weights=yv.real, minlength=n)
             + 1j * np.bincount(self.pos, weights=yv.imag, minlength=n))
        return h.reshape(self.side, self.side)

    def schur(self, w: np.ndarray) -> np.ndarray:
        """M_kl = sum_b Re tr(h_kb w_b h_lb w_b) for the block-diagonal NT
        scaling `w`."""
        out = np.zeros((self.m, self.m))
        for group in self.groups:
            blk = self.blocks[group[0]]
            if blk.rows.size:
                out[blk.schur_span] += blk.schur(
                    [w[self.blocks[i].span, self.blocks[i].span] for i in group])
        return (out + out.T) / 2

    def solve(self):
        """Iterate to the target; returns (x, s, y, iterations, primal
        residual, dual residual, stop): stop is None at the target, and else
        says why the iteration stopped, with the best iterate seen."""
        dims = [blk.q for blk in self.blocks]
        nu = float(self.side)
        row_norm_sq = np.bincount(self.rows, weights=np.abs(self.v) ** 2,
                                  minlength=self.m)
        scale = max(
            1.0,
            max(np.sqrt(q) for q in dims),
            float(np.max((1.0 + np.abs(self.b)) / (1.0 + np.sqrt(row_norm_sq)))),
        )
        eta = max(1.0, max(np.sqrt(q) for q in dims), self.norm_c)
        eye = np.eye(self.side, dtype=np.complex128)
        x = scale * eye
        s = eta * eye
        y = np.zeros(self.m)

        best = None
        best_score = np.inf

        for it in range(MAX_ITER):
            rp = self.b - self.apply(x)
            rd = self.c - s - self.apply_t(y)
            pobj = _dot(self.c, x)
            dobj = float(self.b @ y)
            gap = pobj - dobj
            relgap = abs(gap) / (1.0 + max(abs(pobj), abs(dobj)))
            pres = float(np.linalg.norm(rp)) / (1.0 + self.norm_b)
            dres = float(np.sqrt(_dot(rd, rd))) / (1.0 + self.norm_c)

            score = max(pres, dres, relgap)
            if score < best_score:
                best_score = score
                # x, s and y are replaced, never written to, by each step
                best = (x, s, y, it, pres, dres)

            if pres <= FEAS_TOL and dres <= FEAS_TOL and (
                abs(gap) <= GAP_ABS or relgap <= GAP_REL
            ):
                self._lap("rest")
                return x, s, y, it, pres, dres, None

            # Primal infeasibility, as SDPT3 detects it: b.y grows without
            # bound against A^T y + S = C - Rd, so that y tends to a
            # certificate with b.y > 0 and A^T y ≼ 0.
            ratio = dobj / max(1.0, np.sqrt(_dot(self.c - rd, self.c - rd)))
            if ratio > 1e8:
                stop = (f"primal infeasible at iteration {it}: "
                        f"b.y / max(1, ||A^T y + S||) = {ratio:.3e}")
                break

            mu = _dot(x, s) / nu
            if not np.isfinite(mu) or mu <= 0.0:
                stop = f"broke down at iteration {it}: mu = <X, S>/nu = {mu:.3e}"
                break

            failing = "the Cholesky factorization of X"
            try:
                self._lap("rest")
                lx = np.linalg.cholesky(x)
                failing = "the Cholesky factorization of S"
                ls = np.linalg.cholesky(s)
                failing = "the Newton step"
                frame, lam = _nt_frame(lx, ls)
                gh = frame[1]
                # W = G G†; whatever the SVD's roundoff, it couples no two
                # blocks.
                w = gh.conj().T @ gh
                w[self.off_blocks] = 0.0
                self._lap("scaling")

                m_sym = self.schur(w)
                self._lap("schur")
                m_chol, lifted = _schur_cholesky(m_sym)
                self.schur_lifts += lifted
                self._lap("factor")
                wrdw = w @ rd @ w

                def newton(target):
                    # The direction with dX + W dS W = target, dS = Rd - A^T dy
                    # and A dX = rp: M dy = rp + A(W Rd W - target), solved
                    # whole.  Left to the refinement, the image of the
                    # corrector's second-order term let some primal
                    # residuals creep above FEAS_TOL.
                    rhs = rp + self.apply(wrdw - target)
                    self._lap("rest")
                    dy = _cho_solve(m_chol, rhs)
                    self._lap("factor")
                    ds = rd - self.apply_t(dy)
                    dx = target - w @ ds @ w
                    # Refinement against A dX = rp with the same factor:
                    # unrefined, the primal residual stalls just above
                    # FEAS_TOL once the gap has closed.
                    residual = rp - self.apply(dx)
                    self._lap("rest")
                    delta = _cho_solve(m_chol, residual)
                    self._lap("factor")
                    at = self.apply_t(delta)
                    dy = dy + delta
                    ds = ds - at
                    dx = dx + w @ at @ w
                    return (dx + dx.conj().T) / 2, dy, ds

                def step(dx, ds, fraction):
                    self._lap("rest")
                    t, steps = _frame_steps(frame, lam, dx, ds)
                    ap, ad = np.minimum(1.0, fraction * steps)
                    self._lap("step")
                    return t, ap, ad

                # Predictor: pure Newton step toward the boundary.
                dx_a, dy_a, ds_a = newton(-x)
                (xt, st), ap, ad = step(dx_a, ds_a, 0.95)
                mu_aff = _dot(x + ap * dx_a, s + ad * ds_a) / nu
                sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

                # Corrector: recentred on sigma mu, with Mehrotra's
                # second-order term from the predictor's directions X~, S~:
                #   dX + W dS W = G[sigma mu diag(1/lam)
                #                   - (X~S~ + S~X~) / (lam_i + lam_j)]G† - X.
                p = xt @ st
                t = (np.diag(sigma * mu / lam)
                     - (p + p.conj().T) / np.add.outer(lam, lam))
                target = gh.conj().T @ t @ gh
                target[self.off_blocks] = 0.0
                dx, dy, ds = newton(target - x)
                # SDPT3's step fraction: the further the predictor got, the
                # closer the corrector goes to the boundary.
                _, ap, ad = step(dx, ds, 0.9 + 0.09 * min(ap, ad))
            except np.linalg.LinAlgError as exc:
                stop = f"broke down at iteration {it}: {failing} failed ({exc})"
                break
            if not (np.isfinite(ap) and np.isfinite(ad)) or ap <= 0 or ad <= 0:
                stop = f"broke down at iteration {it}: step sizes {ap:.3e}, {ad:.3e}"
                break
            x = x + ap * dx
            s = s + ad * ds
            y = y + ad * dy
        else:
            stop = f"no convergence after {MAX_ITER} iterations"

        self._lap("rest")
        if best is None:
            raise SdpError(f"no finite iterate: {stop}")
        return (*best, stop)


# ----------------------------------------------------------------------------
# public driver


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve a block SDP to the certified gap, deterministically.

    Raises SdpNoConvergence (carrying the best iterate as `.best`) when the
    iteration breaks down, naming the iteration and the cause, or when
    MAX_ITER iterations run out before the GAP_ABS/GAP_REL gap and FEAS_TOL
    feasibility targets are met.
    """
    kernel = _Kernel(problem)
    x, _, y, iterations, pres, dres, stop = kernel.solve()
    pobj = _dot(kernel.c, x)
    dobj = float(kernel.b @ y)
    blocks, aty = ([z[blk.span, blk.span].copy() for blk in kernel.blocks]
                   for z in (x, kernel.apply_t(y)))
    kernel._lap("rest")
    solution = SdpSolution(
        blocks=blocks,
        y=y,
        aty=aty,
        primal_value=-pobj,
        dual_value=-dobj,
        gap=abs(pobj - dobj),
        iterations=iterations,
        primal_residual=pres,
        dual_residual=dres,
        phase_s=kernel.phase_s,
        schur_lifts=kernel.schur_lifts,
    )
    if stop is not None:
        raise SdpNoConvergence(
            f"{stop} (primal residual {pres:.3e}, dual residual {dres:.3e}, "
            f"gap {abs(pobj - dobj):.3e})",
            best=solution,
        )
    return solution
