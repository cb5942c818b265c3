"""Stinespring dilations: minimality, intertwiners, and common representations.

Every cp map T from d x d to n x n matrices factors as T(a) = V^dag (a (x) 1_m) V
through an operator V: C^n -> C^d (x) C^m.  The multiplicity m is minimal when
it equals the Kraus rank.  Two maps can always be dilated into one *common*
representation; the freedom in doing so is parametrized by a contraction, and
splicing two common pairs into a common triple is what makes the dilation
distance a genuine metric.

Run:  python3 demos/02_dilations.py
"""

import numpy as np

from cpdist.dilations import (
    Contraction,
    common_pair_from_contraction,
    intertwiner_from_minimal,
    minimal_dilation,
    triangle_dilations,
    verify_dilation,
)
from cpdist.linalg import operator_norm
from cpdist.maps import random_channel


def main():
    rng = np.random.default_rng(3)

    t1 = random_channel(2, 2, 2, seed=100)
    t2 = random_channel(2, 2, 3, seed=101)
    t3 = random_channel(2, 2, 2, seed=102)

    # Minimal dilations: multiplicity equals Kraus rank, residual ~ 0.
    d1, d2, d3 = minimal_dilation(t1), minimal_dilation(t2), minimal_dilation(t3)
    for name, dil, t in (("T1", d1, t1), ("T2", d2, t2), ("T3", d3, t3)):
        print(
            f"{name}: multiplicity {dil.m} (the Kraus rank; {len(t.kraus)} given),"
            f" dilation residual {verify_dilation(dil, t):.2e}"
        )

    # Any dilation of the same map factors through the minimal one by an
    # isometric intertwiner u: the minimal environment embeds into the big one.
    fat = d1.padded(3)
    u = intertwiner_from_minimal(d1, fat)
    print(
        f"\npadded dilation of T1 (m={fat.m}): intertwiner is {u.shape[0]}x{u.shape[1]},"
        f" isometry defect {operator_norm(u.conj().T @ u - np.eye(d1.m)):.2e}"
    )

    # A common representation of T1 and T2 steered by a contraction w.
    # The overlap V1^dag V2 is exactly the w-weighted sum of Kraus products.
    w = rng.normal(size=(d1.m, d2.m)) + 1j * rng.normal(size=(d1.m, d2.m))
    w = 0.7 * w / operator_norm(w)
    v1, v2 = common_pair_from_contraction(d1, d2, Contraction(w))
    print(
        f"\ncommon pair on multiplicity {v1.m}:"
        f" residuals {verify_dilation(v1, t1):.2e}, {verify_dilation(v2, t2):.2e}"
    )
    overlap = v1.v.conj().T @ v2.v
    target = sum(
        w[i, j] * d1.kraus[i].conj().T @ d2.kraus[j]
        for i in range(d1.m)
        for j in range(d2.m)
    )
    print(f"  overlap identity |V1*V2 - sum_ij w_ij K_i* L_j| = {operator_norm(overlap - target):.2e}")

    # Splicing: given common pairs for (T1,T2) and (T2,T3), build a common
    # triple that preserves BOTH pairwise overlaps.  This is the engine behind
    # the triangle inequality for the dilation distance.
    w23 = rng.normal(size=(d2.m, d3.m))
    w23 = 0.5 * w23 / operator_norm(w23)
    pair23 = common_pair_from_contraction(d2, d3, Contraction(w23))
    u1, u2, u3 = triangle_dilations(d1, d2, d3, (v1, v2), pair23)
    print(f"\nspliced triple on multiplicity {u1.m}:")
    for name, ud, t in (("T1", u1, t1), ("T2", u2, t2), ("T3", u3, t3)):
        print(f"  {name} residual {verify_dilation(ud, t):.2e}")
    keep12 = operator_norm(u1.v.conj().T @ u2.v - v1.v.conj().T @ v2.v)
    keep23 = operator_norm(u2.v.conj().T @ u3.v - pair23[0].v.conj().T @ pair23[1].v)
    print(f"  overlap (1,2) preserved to {keep12:.2e}, overlap (2,3) to {keep23:.2e}")
    dist = lambda a, b: operator_norm(a.v - b.v)  # noqa: E731
    print(
        f"  triangle check: |U1-U3| = {dist(u1, u3):.6f}"
        f" <= |U1-U2| + |U2-U3| = {dist(u1, u2) + dist(u2, u3):.6f}"
    )


if __name__ == "__main__":
    main()
