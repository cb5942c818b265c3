"""Stinespring dilations of cp maps, and constructive moves between them.

A dilation of ``T`` (mapping d x d matrices to n x n matrices) is an operator

    V : C^n → C^d ⊗ C^m      with      V† (a ⊗ 1_m) V = T(a),

stored as a (d*m, n) matrix whose rows are indexed (d-factor, multiplicity)
with the d-factor major. The representation on the dilation space is always
the canonical amplification a ↦ a ⊗ 1_m, so only the multiplicity m is kept.
Slicing V along the multiplicity index recovers a Kraus family and vice
versa: that layout is read only through :attr:`Dilation.kraus`, the (m, d, n)
Kraus stack, and written only by :func:`dilation_from_kraus`. The minimal
dilation mixes the given Kraus family by the eigenvectors of its Gram matrix,
so m equals the Kraus rank.

Two constructions produce dilations of *different* maps living in one common
representation space, which is what distance-of-dilation computations need:

* :func:`common_pair_from_contraction` pads dilations of two maps (minimal
  ones, in a distance computation) into multiplicity m1 + m2 and rotates the
  second one by a contraction w : C^m2 → C^m1 together with its defect
  sqrt(1 - w† w).
* :func:`triangle_dilations` splices two such common pairs (for T1,T2 and
  T2,T3), given the three minimal dilations, into a single multiplicity
  m̂1 + m̂2 + m̂3 representation carrying all three maps at once, preserving
  both pairwise overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, hermitian_part, operator_norm, psd_sqrt
from .maps import CpMap, _kraus_stack

__all__ = [
    "Dilation",
    "Contraction",
    "dilation_from_kraus",
    "minimal_dilation",
    "verify_dilation",
    "intertwiner_from_minimal",
    "common_pair_from_contraction",
    "triangle_dilations",
]

# Gram eigenvalues at or below this fraction of the largest one are treated
# as zero when building a minimal dilation.
KRAUS_CUTOFF = 1e-10

# A pair (V, T) is accepted as a dilation when the worst block residual
# max_ab ||V_a† V_b - T(E_ab)|| stays below this.
DILATION_RTOL = 1e-8

# intertwiner_from_minimal refuses pairs whose Kraus spans disagree by more
# than this (they would not dilate the same map).
INTERTWINER_RTOL = 1e-6


@dataclass
class Dilation:
    """An isometry-like dilation operator V: C^n → C^d ⊗ C^m."""

    d: int
    n: int
    m: int
    v: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.m < 0:
            raise ValueError("dilation dimensions must be positive (m may be 0)")
        self.v = as_matrix(self.v)
        if self.v.shape != (self.d * self.m, self.n):
            raise ValueError(
                f"dilation operator has shape {self.v.shape}, "
                f"expected {(self.d * self.m, self.n)}"
            )

    @property
    def kraus(self) -> np.ndarray:
        """The Kraus family as one (m, d, n) stack, K_i[a, :] = V[(a, i), :]
        (a view of v)."""
        return self.v.reshape(self.d, self.m, self.n).transpose(1, 0, 2)

    def at_identity(self) -> np.ndarray:
        """T(1) = V† V for the map T this operator dilates."""
        return hermitian_part(self.v.conj().T @ self.v)

    def map(self) -> CpMap:
        """The cp map this operator dilates."""
        return CpMap(self.d, self.n, self.kraus)

    def padded(self, extra: int) -> "Dilation":
        """Same map, multiplicity enlarged by `extra` zero slots."""
        if extra < 0:
            raise ValueError("padding must be nonnegative")
        return dilation_from_kraus(
            np.concatenate([self.kraus, _zero_slots(extra, self.d, self.n)]),
            self.d, self.n)


@dataclass
class Contraction:
    """A contraction w: C^m2 → C^m1 (operator norm at most 1 up to roundoff)."""

    w: np.ndarray

    def __post_init__(self):
        self.w = as_matrix(self.w)
        norm = operator_norm(self.w)
        if norm > 1.0 + 1e-10:
            raise ValueError(f"contraction violation: operator norm {norm!r} > 1")

    @property
    def m1(self) -> int:
        return self.w.shape[0]

    @property
    def m2(self) -> int:
        return self.w.shape[1]

    def defect(self) -> np.ndarray:
        """sqrt(1 - w† w), the defect operator on C^m2."""
        gram = self.w.conj().T @ self.w
        return psd_sqrt(np.eye(self.m2) - gram)


def _zero_slots(m: int, d: int, n: int) -> np.ndarray:
    """m zero Kraus operators, as an (m, d, n) stack."""
    return np.zeros((m, d, n), dtype=np.complex128)


def dilation_from_kraus(kraus, d: int, n: int) -> Dilation:
    """Stack a Kraus family (a list, or an (m, d, n) stack) into the dilation
    operator with multiplicity m."""
    stack = _kraus_stack(kraus, d, n)
    return Dilation(d, n, len(stack),
                    stack.transpose(1, 0, 2).reshape(d * len(stack), n))


def minimal_dilation(t: CpMap) -> Dilation:
    """The minimal dilation of `t`: multiplicity equals the Kraus rank.

    The Gram matrix G_ij = tr(K_j† K_i) of the given family has the nonzero
    spectrum of the Choi matrix. Its eigenvectors u_k whose eigenvalues lie
    above KRAUS_CUTOFF times the largest mix the family into the orthogonal
    minimal one, L_k = sum_i conj(u_ik) K_i, with tr(L_k† L_k) the eigenvalue.
    Repeated calls on equal Kraus families give identical data.
    """
    flat = t.kraus.reshape(len(t.kraus), t.d_in * t.d_out)
    lam, u = np.linalg.eigh(flat @ flat.conj().T)
    keep = lam > KRAUS_CUTOFF * lam.max(initial=0.0)
    return dilation_from_kraus(_mix_slices(u[:, keep].conj().T, t.kraus),
                               t.d_in, t.d_out)


def verify_dilation(dil: Dilation, t: CpMap) -> float:
    """Worst-case residual max_ab || V_a† V_b - T(E_ab) || over matrix units.

    V_a is the a-th d-factor block row of V; the pair (dil, t) is a genuine
    dilation iff the residual vanishes.
    """
    if (dil.d, dil.n) != (t.d_in, t.d_out):
        raise ValueError(
            f"dimension mismatch: dilation ({dil.d},{dil.n}) vs map ({t.d_in},{t.d_out})"
        )
    blocks = dil.kraus
    e = np.zeros((dil.d, dil.d), dtype=np.complex128)
    worst = 0.0
    for a in range(dil.d):
        for b in range(dil.d):
            e[a, b] = 1.0
            res = operator_norm(blocks[:, a].conj().T @ blocks[:, b] - t.apply(e))
            e[a, b] = 0.0
            worst = max(worst, res)
    return worst


def intertwiner_from_minimal(minimal: Dilation, dil: Dilation) -> np.ndarray:
    """Isometry u: C^m̂ → C^m with (1_d ⊗ u) V̂ = V for dilations of one map.

    Solves K_j = sum_i u_ji K̂_i in least squares over the flattened Kraus
    families and refuses (ValueError) if the residual exceeds INTERTWINER_RTOL,
    which happens exactly when the two operators do not dilate the same map.
    """
    if (minimal.d, minimal.n) != (dil.d, dil.n):
        raise ValueError("dilations act between different spaces")
    mhat, m = minimal.m, dil.m
    if mhat == 0:
        u = np.zeros((m, 0), dtype=np.complex128)
        if operator_norm(dil.v) > INTERTWINER_RTOL:
            raise ValueError("dilations do not dilate the same map (zero vs nonzero)")
        return u
    a = minimal.kraus.reshape(mhat, -1).T                # (d*n, mhat)
    b = dil.kraus.reshape(m, -1).T                       # (d*n, m)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)            # (mhat, m)
    u = x.T
    residual = np.abs(a @ x - b).max()
    if residual > INTERTWINER_RTOL:
        raise ValueError(
            f"dilations do not dilate the same map (intertwiner residual {residual:.3e})"
        )
    # u is automatically an isometry because the minimal Kraus family is a
    # basis of the common span; roundoff aside, u† u = 1_m̂ .
    return u


def _mix_slices(coeff: np.ndarray, slices: np.ndarray) -> np.ndarray:
    """Rows L_i = sum_j coeff_ij K_j for a stacked Kraus tensor (m, d, n)."""
    return np.einsum("ij,jab->iab", coeff, slices)


def common_pair_from_contraction(dil1: Dilation, dil2: Dilation,
                                 contraction: Contraction):
    """Dilations of T1 and T2 in one common representation, steered by a contraction.

    With dilations V̂1 (multiplicity m1) of T1 and V̂2 (multiplicity m2) of
    T2, and a contraction w: C^m2 → C^m1, builds on multiplicity m1 + m2:

        V1 = V̂1 ⊕ 0,
        V2 = (1 ⊗ w) V̂2  ⊕  (1 ⊗ sqrt(1 - w† w)) V̂2,

    so that V1† V2 = sum_ij w_ij K̂_i^(1)† K̂_j^(2). Both operators dilate
    their maps exactly, whether or not V̂1 and V̂2 are minimal; the choice of
    w only moves the overlap.
    """
    if (dil1.d, dil1.n) != (dil2.d, dil2.n):
        raise ValueError(
            f"dimension mismatch: ({dil1.d},{dil1.n}) vs ({dil2.d},{dil2.n})")
    if contraction.w.shape != (dil1.m, dil2.m):
        raise ValueError(
            f"contraction has shape {contraction.w.shape}, "
            f"expected {(dil1.m, dil2.m)} from the multiplicities"
        )
    k2 = dil2.kraus
    v2 = np.concatenate([_mix_slices(contraction.w, k2),
                         _mix_slices(contraction.defect(), k2)])
    return dil1.padded(dil2.m), dilation_from_kraus(v2, dil1.d, dil1.n)


def triangle_dilations(min1: Dilation, min2: Dilation, min3: Dilation,
                       pair12, pair23):
    """Three dilations in one representation preserving both pairwise overlaps.

    `min1`, `min2`, `min3` are the minimal dilations of T1, T2, T3.
    `pair12` = (V1, V2) must be a common-representation pair for (T1, T2) and
    `pair23` = (W2, W3) one for (T2, T3); all seven inputs must agree on the
    underlying spaces. The output (Ṽ1, Ṽ2, Ṽ3) lives on multiplicity
    m̂1 + m̂2 + m̂3 (the minimal multiplicities) and satisfies

        Ṽ2† Ṽ1 = V2† V1      and      Ṽ2† Ṽ3 = W2† W3,

    so the operator-norm triangle inequality chains through Ṽ2:
    ||Ṽ1 - Ṽ3|| ≤ ||V1 - V2|| + ||W2 - W3||.
    """
    for dil, name in ((min1, "min1"), (min2, "min2"), (min3, "min3")):
        if (dil.d, dil.n) != (min1.d, min1.n):
            raise ValueError(f"{name} acts between different spaces")
    t1, t2, t3 = min1.map(), min2.map(), min3.map()
    v1, v2 = pair12
    w2, w3 = pair23
    for dil, t, name in ((v1, t1, "pair12[0]"), (v2, t2, "pair12[1]"),
                         (w2, t2, "pair23[0]"), (w3, t3, "pair23[1]")):
        res = verify_dilation(dil, t)
        if res > DILATION_RTOL:
            raise ValueError(f"{name} does not dilate its map (residual {res:.3e})")
    if v1.m != v2.m or w2.m != w3.m:
        raise ValueError("each pair must share one representation space")

    d, n = min1.d, min1.n
    mh1, mh3 = min1.m, min3.m

    u1 = intertwiner_from_minimal(min1, v1)              # (v1.m, mh1)
    u2 = intertwiner_from_minimal(min2, v2)              # (v2.m, mh2)
    u2b = intertwiner_from_minimal(min2, w2)             # (w2.m, mh2)
    u3 = intertwiner_from_minimal(min3, w3)              # (w3.m, mh3)

    # Ṽ1: defect part on the first slot, the pair12 overlap pulled back to
    # the minimal multiplicity of T2 on the middle slot.
    c1 = u1.conj().T @ u2 @ u2.conj().T @ u1             # (mh1, mh1)
    s1 = psd_sqrt(np.eye(mh1) - c1)
    tilde1 = np.concatenate([
        _mix_slices(s1, min1.kraus),
        _mix_slices(u2.conj().T, v1.kraus),  # rows: sum_j conj(u2)_ji K_j^(V1)
        _zero_slots(mh3, d, n)])

    # Ṽ2: the minimal dilation of T2 sits in the middle slot.
    tilde2 = np.concatenate(
        [_zero_slots(mh1, d, n), min2.kraus, _zero_slots(mh3, d, n)])

    # Ṽ3: mirror image of Ṽ1 through pair23.
    c3 = u3.conj().T @ u2b @ u2b.conj().T @ u3           # (mh3, mh3)
    s3 = psd_sqrt(np.eye(mh3) - c3)
    tilde3 = np.concatenate([
        _zero_slots(mh1, d, n),
        _mix_slices(u2b.conj().T, w3.kraus),
        _mix_slices(s3, min3.kraus)])

    return tuple(dilation_from_kraus(k, d, n) for k in (tilde1, tilde2, tilde3))
