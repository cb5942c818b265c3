"""Independently coded reference routines used to cross-check the library.

Everything here deliberately avoids the code paths of the package (LAPACK
svd/eigh wrappers, einsum kernels, the SDP engine): singular values come
from one-sided Jacobi rotations, top eigenvalues from power iteration,
partial traces from explicit index loops, unitary-pair distances from the
geometry of eigenphases, LP optima from vertex enumeration, the SDP
Schur complement and dual operator from loops over the complex
coefficients, and interior-point step lengths from inverse Cholesky
factors.
"""

import itertools

import numpy as np


def jacobi_singular_values(a, sweeps: int = 60, tol: float = 1e-14):
    """Singular values by one-sided Jacobi: rotate column pairs until
    mutually orthogonal; the singular values are the column norms."""
    work = np.array(a, dtype=np.complex128)
    if work.ndim != 2 or work.size == 0:
        return np.zeros(0)
    if work.shape[0] < work.shape[1]:
        work = work.conj().T
    m, n = work.shape
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                cp = work[:, p]
                cq = work[:, q]
                alpha = float(np.real(cp.conj() @ cp))
                beta = float(np.real(cq.conj() @ cq))
                gamma = complex(cp.conj() @ cq)
                g = abs(gamma)
                scale = np.sqrt(alpha * beta)
                if scale <= 0.0 or g <= tol * scale:
                    continue
                off = max(off, g / scale)
                phase = gamma / g
                zeta = (beta - alpha) / (2.0 * g)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * cp - s * np.conj(phase) * cq
                new_q = s * cp + c * np.conj(phase) * cq
                work[:, p] = new_p
                work[:, q] = new_q
        if off <= tol:
            break
    sv = np.sqrt(np.sum(np.abs(work) ** 2, axis=0))
    return np.sort(sv)[::-1]


def jacobi_trace_norm(a) -> float:
    return float(jacobi_singular_values(a).sum())


def power_top_eigenvalue(h, iters: int = 20000, tol: float = 1e-15) -> float:
    """Top eigenvalue of a Hermitian matrix by shifted power iteration."""
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    shift = float(np.abs(h).sum(axis=1).max()) + 1.0   # Gershgorin bound
    mat = h + shift * np.eye(n)
    vec = np.ones(n, dtype=np.complex128)
    vec += 1e-3 * (1j ** np.arange(n)) * np.arange(1, n + 1)
    vec /= np.linalg.norm(vec)
    value = 0.0
    for _ in range(iters):
        nxt = mat @ vec
        nrm = np.linalg.norm(nxt)
        if nrm == 0.0:
            return -shift
        nxt /= nrm
        new_value = float(np.real(nxt.conj() @ mat @ nxt))
        if abs(new_value - value) <= tol * max(1.0, abs(new_value)):
            value = new_value
            break
        value = new_value
        vec = nxt
    return value - shift


def loop_partial_trace_first(x, d: int, n: int):
    """Partial trace over the first tensor factor, written as index loops."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.zeros((n, n), dtype=np.complex128)
    for a in range(d):
        for i in range(n):
            for j in range(n):
                out[i, j] += x[a * n + i, a * n + j]
    return out


def _point_segment_distance(p, a, b) -> float:
    """Distance in the plane from p to the segment [a, b] (complex numbers)."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = np.clip(((p - a).conjugate() * ab).real / denom, 0.0, 1.0)
    return abs(p - (a + t * ab))


def hull_distance_to_origin(points) -> float:
    """Distance from 0 to the convex hull of the given complex points."""
    pts = np.asarray(points, dtype=np.complex128)
    if pts.size == 0:
        raise ValueError("need at least one point")
    if pts.size == 1:
        return float(abs(pts[0]))
    order = np.argsort(np.angle(pts))
    pts = pts[order]
    angles = np.angle(pts)
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    if float(gaps.max()) <= np.pi + 1e-14:
        return 0.0   # origin inside (or on the boundary of) the hull
    best = np.inf
    for k in range(len(pts)):
        a = pts[k]
        b = pts[(k + 1) % len(pts)]
        best = min(best, _point_segment_distance(0.0 + 0.0j, a, b))
    return float(best)


def unitary_pair_values(u1, u2):
    """(bures, cb-norm distance) for a pair of unitary conjugation channels.

    Both are functions of how far the origin sits from the hull of the
    eigenvalues of U1†U2: with that distance written as c, the squared
    dilation distance is 2 - 2c and the cb distance of the difference is
    2 sqrt(1 - c^2).
    """
    w = np.asarray(u1).conj().T @ np.asarray(u2)
    eigs = np.linalg.eigvals(w)
    c = hull_distance_to_origin(eigs)
    beta = float(np.sqrt(max(2.0 - 2.0 * c, 0.0)))
    cb = 2.0 * float(np.sqrt(max(1.0 - c * c, 0.0)))
    return beta, cb


def fidelity_from_product_spectrum(rho0, rho1) -> float:
    """Fidelity as the sum of square roots of eigenvalues of rho0 rho1.

    The nonzero spectrum of sqrt(rho0) rho1 sqrt(rho0) equals that of the
    (non-Hermitian) product rho0 rho1, so no matrix square roots or
    singular values are needed.
    """
    prod = np.asarray(rho0) @ np.asarray(rho1)
    eigs = np.linalg.eigvals(prod)
    vals = np.clip(eigs.real, 0.0, None)
    return float(np.sqrt(vals).sum())


def bures_states_from_product_spectrum(rho0, rho1) -> float:
    t0 = float(np.trace(np.asarray(rho0)).real)
    t1 = float(np.trace(np.asarray(rho1)).real)
    fid = fidelity_from_product_spectrum(rho0, rho1)
    return float(np.sqrt(max(t0 + t1 - 2.0 * fid, 0.0)))


def lp_min_by_vertex_enumeration(a, b, c, feas_tol: float = 1e-9) -> float:
    """min c'x s.t. Ax = b, x >= 0 over a bounded polytope, by enumerating
    basic feasible solutions (vertices)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    p, q = a.shape
    best = np.inf
    for cols in itertools.combinations(range(q), p):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.min(x_b) < -feas_tol:
            continue
        best = min(best, float(c[list(cols)] @ x_b))
    if not np.isfinite(best):
        raise ValueError("polytope has no vertex (infeasible or degenerate)")
    return best


def dense_schur(problem, ws):
    """M_kl = sum_b Re tr(h_kb w_b h_lb w_b) for an SdpProblem, by explicit
    index loops over the complex coefficients h_kb and NT scalings w_b;
    `ws` holds one w_b per block.
    """
    m = len(problem.constraints)
    coeffs = []                      # per block: {row: coefficient}
    for b in range(len(problem.blocks)):
        coeffs.append({k: c[b] for k, (c, _, _) in enumerate(problem.constraints)
                       if b in c})
    out = np.zeros((m, m))
    for rows, w in zip(coeffs, ws):
        q = w.shape[0]
        for k, h_k in rows.items():
            for l, h_l in rows.items():
                total = 0j
                for a, b, c, d in itertools.product(range(q), repeat=4):
                    total += h_k[a, b] * w[b, c] * h_l[c, d] * w[d, a]
                out[k, l] += total.real
    return out


def dense_adjoint(problem, y, b):
    """sum_k y_k A_kb for an SdpProblem, summed row by row over the dense
    coefficients of block b."""
    q = problem.blocks[b]
    out = np.zeros((q, q), dtype=np.complex128)
    for yk, (coeffs, _, _) in zip(y, problem.constraints):
        if b in coeffs:
            out += yk * coeffs[b]
    return out


def max_steps(inv_chols, dirs):
    """Largest alpha with X + alpha dX psd, for each pair of an inverse
    Cholesky factor of X and a direction dX, from one stacked eigvalsh."""
    g = np.stack([l @ d @ l.conj().T for l, d in zip(inv_chols, dirs)])
    lam = np.linalg.eigvalsh((g + g.conj().transpose(0, 2, 1)) / 2)[:, 0]
    return np.where(lam < -1e-16, -1.0 / np.minimum(lam, -1e-16), np.inf)
