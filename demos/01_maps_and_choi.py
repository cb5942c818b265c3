"""Completely positive maps: Kraus operators, Choi matrices, and norms.

A cp map T from d x d matrices to n x n matrices is stored in the Heisenberg
picture, T(a) = sum_i K_i^dag a K_i with Kraus operators K_i of shape (d, n).
This script builds a few maps, computes their Choi matrices, reduces a
Kraus family to a minimal one through its Gram matrix, and exercises the
small linear-algebra toolbox that the rest of the package is built on.

Run:  python3 demos/01_maps_and_choi.py
"""

import numpy as np

from cpdist.dilations import minimal_dilation
from cpdist.linalg import operator_norm, partial_trace_first, trace_norm
from cpdist.maps import (
    CpMap,
    compose,
    depolarizing_channel,
    difference,
    identity_channel,
    random_channel,
    unitary_channel,
)


def main():
    rng = np.random.default_rng(20260814)

    # A hand-rolled amplitude-damping style map on qubits.
    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    t = CpMap(2, 2, [k0, k1])
    print("amplitude-damping style map:")
    print(f"  dims d={t.d_in} -> n={t.d_out}, Kraus rank {minimal_dilation(t).m}")
    print(f"  unital: {t.is_unital()}   T(1) =\n{np.round(t.at_identity(), 6)}")

    # The Choi matrix J(T) = sum_ij E_ij (x) T(E_ij) is psd, and its rank is
    # the Kraus rank.
    j = t.choi
    print(f"  Choi matrix is {j.shape[0]}x{j.shape[1]}, min eigenvalue "
          f"{np.linalg.eigvalsh(j)[0]:+.2e}, rank {np.linalg.matrix_rank(j)}")

    # A redundant Kraus family (each operator split in two halves) reduces to
    # the minimal one: the eigenvectors of its Gram matrix tr(K_j^dag K_i)
    # mix it into orthogonal operators, one per nonzero eigenvalue.
    redundant = CpMap(2, 2, [k / np.sqrt(2) for k in t.kraus for _ in range(2)])
    back = minimal_dilation(redundant).map()
    resid = max(
        operator_norm(t.apply(a) - back.apply(a))
        for a in (np.eye(2), np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]]))
    )
    print(f"  {len(redundant.kraus)} Kraus terms reduce to {len(back.kraus)},"
          f" action residual {resid:.2e}")

    # T(1) is the partial trace of the Choi matrix over the domain factor.
    print(
        "  partial-trace identity |T(1) - tr_1 J| ="
        f" {operator_norm(t.at_identity() - partial_trace_first(j, 2, 2)):.2e}"
    )

    # Stock channels and composition.
    ident = identity_channel(2)
    depol = depolarizing_channel(2)
    haar_u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    rot = unitary_channel(haar_u)
    chain = compose(depol, compose(rot, t))
    print("\ncomposition depol . rot . damp:")
    print(f"  {len(chain.kraus)} Kraus operators, Kraus rank {minimal_dilation(chain).m}")
    print(f"  unital: {chain.is_unital()}")

    # Random channels are exactly reproducible from their seed.
    a = random_channel(3, 2, 2, seed=11)
    b = random_channel(3, 2, 2, seed=11)
    same = all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
    print(f"\nrandom_channel(3, 2, 2, seed=11) deterministic: {same}")

    # Differences of cp maps are hermiticity-preserving; their size is
    # measured with trace and operator norms of the Choi difference.
    delta = difference(ident, depol)
    print("\nidentity vs completely depolarizing:")
    print(f"  Choi-difference trace norm  {trace_norm(delta.choi):.6f}")
    print(f"  Choi-difference op norm     {operator_norm(delta.choi):.6f}")
    print(f"  difference at identity      {operator_norm(delta.apply(np.eye(2))):.2e}")


if __name__ == "__main__":
    main()
