"""Completely positive maps between matrix algebras, in the Heisenberg picture.

Conventions
-----------
A cp map ``T`` with input algebra of d_in x d_in matrices and output algebra
of d_out x d_out matrices acts as

    T(a) = sum_i  K_i† a K_i,

with Kraus operators ``K_i`` of shape (d_in, d_out); equivalently each K_i is
a linear map from the d_out-dimensional Hilbert space into the
d_in-dimensional one. ``T`` is unital iff sum_i K_i† K_i = identity.

The Choi matrix follows the domain-factor-first convention,

    J(T) = sum_{ij} E_ij ⊗ T(E_ij),

a (d_in * d_out)-dimensional Hermitian matrix, psd iff T is completely
positive. A :class:`CpMap` computes it from the Kraus family on first read.
With w_i the conjugated row-major flattening of K_i, J(T) = sum_i w_i w_i†,
so the (d_in * d_out) x m matrix B = [w_1 ... w_m] of Kraus vectors is a
factor of the Choi matrix. Differences of cp maps are carried around as
:class:`HermMap`: the Kraus vectors of both maps side by side and a sign
per column, J = B diag(signs) B†, which is the form the cb-norm program is
posed on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    as_matrix,
    check_hermitian,
    eigh,
    hermitian_part,
)

__all__ = [
    "CpMap",
    "HermMap",
    "choi_from_kraus",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "random_channel",
    "compose",
    "difference",
    "check_positive_operator",
    "random_density",
]

# Roundoff allowed when checking T(1) = 1, an operator's positivity or a
# state's unit trace.
OPERATOR_ATOL = 1e-10


def _kraus_vectors(kraus, d_in: int, d_out: int) -> np.ndarray:
    """The (d_in * d_out) x m matrix whose column w_m is the conjugated
    row-major flattening of K_m, so that J = sum_m w_m w_m†."""
    columns = []
    for k in kraus:
        k = as_matrix(k)
        if k.shape != (d_in, d_out):
            raise ValueError(
                f"Kraus operator has shape {k.shape}, expected {(d_in, d_out)}"
            )
        columns.append(k.conj().reshape(-1))
    if not columns:
        return np.zeros((d_in * d_out, 0), dtype=np.complex128)
    return np.stack(columns, axis=1)


def _outer_sum(vectors: np.ndarray) -> np.ndarray:
    """sum_m w_m w_m† over the columns of `vectors`, one outer product at a time."""
    side = vectors.shape[0]
    j = np.zeros((side, side), dtype=np.complex128)
    for w in vectors.T:
        j += np.outer(w, w.conj())
    return j


def choi_from_kraus(kraus, d_in: int, d_out: int) -> np.ndarray:
    """Choi matrix sum_ij E_ij ⊗ T(E_ij) of the map with the given Kraus family."""
    return _outer_sum(_kraus_vectors(kraus, d_in, d_out))


@dataclass
class CpMap:
    """A completely positive map held as a Kraus family."""

    d_in: int
    d_out: int
    kraus: list = field(default_factory=list)

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("dimensions must be positive")
        self.kraus = [as_matrix(k) for k in self.kraus]
        for k in self.kraus:
            if k.shape != (self.d_in, self.d_out):
                raise ValueError(
                    f"Kraus operator has shape {k.shape}, "
                    f"expected {(self.d_in, self.d_out)}"
                )

    @cached_property
    def choi(self) -> np.ndarray:
        """The Choi matrix, computed from the Kraus family on first read."""
        return _outer_sum(self.kraus_vectors)

    @cached_property
    def kraus_vectors(self) -> np.ndarray:
        """The Kraus vectors as columns: a factor B of the Choi matrix, J = B B†."""
        return _kraus_vectors(self.kraus, self.d_in, self.d_out)

    def apply(self, a) -> np.ndarray:
        """Evaluate T(a) = sum_i K_i† a K_i for a d_in x d_in argument."""
        a = as_matrix(a)
        if a.shape != (self.d_in, self.d_in):
            raise ValueError(
                f"argument has shape {a.shape}, expected {(self.d_in, self.d_in)}"
            )
        out = np.zeros((self.d_out, self.d_out), dtype=np.complex128)
        for k in self.kraus:
            out += k.conj().T @ a @ k
        return out

    def at_identity(self) -> np.ndarray:
        """T(1) = sum_i K_i† K_i, the cp-map cb-norm witness block."""
        out = np.zeros((self.d_out, self.d_out), dtype=np.complex128)
        for k in self.kraus:
            out += k.conj().T @ k
        return hermitian_part(out)

    def rescaled(self, factor: float) -> "CpMap":
        """The cp map factor * T, realized by scaling the Kraus family by sqrt(factor)."""
        if factor < 0:
            raise ValueError("cp maps can only be rescaled by nonnegative factors")
        root = np.sqrt(factor)
        return CpMap(self.d_in, self.d_out, [root * k for k in self.kraus])

    def is_unital(self) -> bool:
        defect = np.abs(self.at_identity() - np.eye(self.d_out)).max()
        return defect <= OPERATOR_ATOL


@dataclass
class HermMap:
    """A Hermitian-preserving map a ↦ sum_i signs_i K_i† a K_i (typically a
    difference of cp maps), held as a factor of its Choi matrix.

    `factor` is the (d_in * d_out) x r matrix B of Kraus vectors (see
    :attr:`CpMap.kraus_vectors`) and `signs` holds one ±1 per column, so that
    J = B diag(signs) B†.
    """

    d_in: int
    d_out: int
    factor: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        side = self.d_in * self.d_out
        self.factor = np.asarray(self.factor, dtype=np.complex128)
        self.signs = np.asarray(self.signs, dtype=float)
        if self.factor.ndim != 2 or self.factor.shape[0] != side:
            raise ValueError(
                f"factor has shape {self.factor.shape}, expected ({side}, r)"
            )
        if self.signs.shape != (self.factor.shape[1],):
            raise ValueError(
                f"{self.signs.size} signs for {self.factor.shape[1]} columns"
            )
        if np.any(np.abs(self.signs) != 1.0):
            raise ValueError("signs must be +1 or -1")

    @cached_property
    def choi(self) -> np.ndarray:
        """J = B diag(signs) B†: the Gram sum of the positive columns minus
        that of the negative ones, computed on first read."""
        positive = self.signs > 0
        return check_hermitian(_outer_sum(self.factor[:, positive])
                               - _outer_sum(self.factor[:, ~positive]))

    def apply(self, a) -> np.ndarray:
        """Evaluate the map on a d_in x d_in argument by contracting the Choi matrix."""
        a = as_matrix(a)
        if a.shape != (self.d_in, self.d_in):
            raise ValueError(
                f"argument has shape {a.shape}, expected {(self.d_in, self.d_in)}"
            )
        j4 = self.choi.reshape(self.d_in, self.d_out, self.d_in, self.d_out)
        return np.einsum("ij,ikjl->kl", a, j4)


def difference(t1: CpMap, t2: CpMap) -> HermMap:
    """The Hermitian-preserving map T1 - T2 (dimensions must match): both
    Kraus factors side by side, signed +1 and -1."""
    if (t1.d_in, t1.d_out) != (t2.d_in, t2.d_out):
        raise ValueError(
            f"dimension mismatch: ({t1.d_in},{t1.d_out}) vs ({t2.d_in},{t2.d_out})"
        )
    b1, b2 = t1.kraus_vectors, t2.kraus_vectors
    return HermMap(t1.d_in, t1.d_out, np.hstack([b1, b2]),
                   np.concatenate([np.ones(b1.shape[1]), -np.ones(b2.shape[1])]))


def identity_channel(d: int) -> CpMap:
    """The identity map on d x d matrices."""
    return CpMap(d, d, [np.eye(d, dtype=np.complex128)])


def unitary_channel(u) -> CpMap:
    """Conjugation a ↦ u† a u by a unitary (or isometry-shaped) matrix."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError("unitary_channel expects a square matrix")
    d = u.shape[0]
    if np.abs(u.conj().T @ u - np.eye(d)).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    return CpMap(d, d, [u])


def depolarizing_channel(d: int) -> CpMap:
    """The completely depolarizing map a ↦ tr(a)/d * identity."""
    kraus = []
    scale = 1.0 / np.sqrt(d)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = scale
            kraus.append(e)
    return CpMap(d, d, kraus)


def random_channel(d: int, n: int, m: int, seed) -> CpMap:
    """Haar-random unital channel from d x d matrices to n x n matrices with m Kraus terms.

    Draws a Haar isometry V: C^n → C^d ⊗ C^m by QR of a complex Gaussian
    matrix (R-diagonal phases fixed so the draw is the unique Haar point) and
    slices it into Kraus operators; the result satisfies T(1) = 1 exactly.

    Requires d*m >= n (no isometry otherwise) and m <= d*n: Kraus rank
    equals m almost surely, and a larger m would force a rank-deficient
    family, which is refused.
    """
    if d < 1 or n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    if d * m < n:
        raise ValueError(f"no isometry with d*m = {d * m} < n = {n}")
    if m > d * n:
        raise ValueError(f"m = {m} exceeds the maximal Kraus rank d*n = {d * n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * m, n)) + 1j * rng.standard_normal((d * m, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    v = q * phases[np.newaxis, :]
    slices = v.reshape(d, m, n)
    return CpMap(d, n, [np.ascontiguousarray(slices[:, i, :]) for i in range(m)])


def compose(s: CpMap, t: CpMap) -> CpMap:
    """The composition S ∘ T acting as a ↦ S(T(a)).

    T maps d x d matrices to n x n matrices, S maps n x n matrices onward;
    the Kraus family of the composition is all products K_i L_j with K_i
    from T and L_j from S.
    """
    if t.d_out != s.d_in:
        raise ValueError(
            f"cannot compose: inner dimensions differ ({t.d_out} vs {s.d_in})"
        )
    kraus = [k @ l for k in t.kraus for l in s.kraus]
    return CpMap(t.d_in, s.d_out, kraus)


def check_positive_operator(rho) -> np.ndarray:
    """Validate a psd operator (Hermitian, eigenvalues ≥ -OPERATOR_ATOL);
    returns it symmetrized."""
    r = check_hermitian(rho)
    w, _ = eigh(r)
    if w.size and w[0] < -OPERATOR_ATOL:
        raise ValueError(f"operator is not psd (min eigenvalue {w[0]:.3e})")
    return r


def random_density(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Random full-trace density matrix from a Wishart draw of the given rank."""
    rng = np.random.default_rng(rng)
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
