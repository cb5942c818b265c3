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
* :func:`triangle_dilations` glues the two contraction-steered common pairs
  of (T1, T2) and (T2, T3) along min2 ⊕ 0: given the three minimal
  dilations and the two contractions, it writes down in closed form one
  multiplicity m̂1 + m̂2 + m̂3 representation carrying all three maps at
  once, preserving both pairwise overlaps.
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

# intertwiner_from_minimal refuses pairs whose Kraus spans disagree, or whose
# intertwiner misses being an isometry, by more than this relative amount
# (they would not dilate the same map).
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
    families.  Refuses (ValueError) unless the residual is within
    INTERTWINER_RTOL of the larger Kraus scale (the largest absolute Kraus
    entry of the two) and ||u† u - 1|| is within INTERTWINER_RTOL: both hold
    exactly when the two operators dilate the same map, at any scale.
    """
    if (minimal.d, minimal.n) != (dil.d, dil.n):
        raise ValueError("dilations act between different spaces")
    mhat, m, dn = minimal.m, dil.m, dil.d * dil.n
    a = minimal.kraus.reshape(mhat, dn).T                # (d*n, mhat)
    b = dil.kraus.reshape(m, dn).T                       # (d*n, m)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    if mhat == 0:
        if scale > 0.0:
            raise ValueError("dilations do not dilate the same map (zero vs nonzero)")
        return np.zeros((m, 0), dtype=np.complex128)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)            # (mhat, m)
    u = x.T
    residual = np.abs(a @ x - b).max(initial=0.0) / scale
    defect = operator_norm(u.conj().T @ u - np.eye(mhat))
    if residual > INTERTWINER_RTOL or defect > INTERTWINER_RTOL:
        raise ValueError(
            f"dilations do not dilate the same map (relative intertwiner "
            f"residual {residual:.3e}, isometry defect {defect:.3e})"
        )
    return u


def _mix_slices(coeff: np.ndarray, slices: np.ndarray) -> np.ndarray:
    """Rows L_i = sum_j coeff_ij K_j for a stacked Kraus tensor (m, d, n)."""
    return np.einsum("ij,jab->iab", coeff, slices)


def _steered(dil: Dilation, contraction: Contraction) -> np.ndarray:
    """The Kraus stack of (1 ⊗ w) V̂ ⊕ (1 ⊗ sqrt(1 - w† w)) V̂ for V̂ = `dil`,
    on multiplicity m1 + m2 for w: C^m2 → C^m1."""
    k = dil.kraus
    return np.concatenate([_mix_slices(contraction.w, k),
                           _mix_slices(contraction.defect(), k)])


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
    return (dil1.padded(dil2.m),
            dilation_from_kraus(_steered(dil2, contraction), dil1.d, dil1.n))


def triangle_dilations(min1: Dilation, min2: Dilation, min3: Dilation,
                       c12: Contraction, c23: Contraction):
    """Three dilations in one representation preserving both pairwise overlaps.

    `min1`, `min2`, `min3` are dilations of T1, T2, T3 on one pair of spaces
    (the minimal ones, in a distance computation), with multiplicities m1,
    m2, m3. `c12` = w12 (m1 x m2) steers the common pair (V1, V2) =
    common_pair_from_contraction(min1, min2, c12), and `c23` = w23 (m2 x m3)
    the pair (W2, W3) of (min2, min3). The triple glues the two steered
    pairs along min2 ⊕ 0, in closed form on multiplicity m1 + m2 + m3:

        Ṽ1 = (1 ⊗ sqrt(1 - w12 w12†)) V̂1  ⊕  (1 ⊗ w12†) V̂1  ⊕  0,
        Ṽ2 = 0  ⊕  V̂2  ⊕  0,
        Ṽ3 = 0  ⊕  (1 ⊗ w23) V̂3  ⊕  (1 ⊗ sqrt(1 - w23† w23)) V̂3.

    Each Ṽi dilates Ti exactly, and

        Ṽ2† Ṽ1 = V2† V1      and      Ṽ2† Ṽ3 = W2† W3,

    so the operator-norm triangle inequality chains through Ṽ2:
    ||Ṽ1 - Ṽ3|| ≤ ||V1 - V2|| + ||W2 - W3||.
    """
    for dil, name in ((min2, "min2"), (min3, "min3")):
        if (dil.d, dil.n) != (min1.d, min1.n):
            raise ValueError(f"{name} acts between different spaces")
    for c, name, shape in ((c12, "c12", (min1.m, min2.m)),
                           (c23, "c23", (min2.m, min3.m))):
        if c.w.shape != shape:
            raise ValueError(
                f"{name} has shape {c.w.shape}, expected {shape} from the "
                "multiplicities")
    d, n, m1, m2, m3 = min1.d, min1.n, min1.m, min2.m, min3.m
    # (1 ⊗ w12†) V̂1 ⊕ sqrt(1 - w12 w12†) V̂1, its two slots swapped below
    steered1 = _steered(min1, Contraction(c12.w.conj().T))
    tilde1 = np.concatenate(
        [steered1[m2:], steered1[:m2], _zero_slots(m3, d, n)])
    tilde2 = np.concatenate(
        [_zero_slots(m1, d, n), min2.kraus, _zero_slots(m3, d, n)])
    tilde3 = np.concatenate([_zero_slots(m1, d, n), _steered(min3, c23)])
    return tuple(dilation_from_kraus(k, d, n) for k in (tilde1, tilde2, tilde3))
