"""Distances between cp maps, with machine-checkable certificates.

Two distances are computed for a pair of cp maps:

  * the Bures (dilation) distance  beta = min over common representations
    of the operator-norm distance between Stinespring operators, and
  * the cb-norm distance  ||T1 - T2||_cb  of the difference map.

They control each other through a two-sided sandwich

    cb_diff / (sqrt(norm T1(1)) + sqrt(norm T2(1)))  <=  beta  <=  sqrt(cb_diff),

so either can certify continuity statements about the other.  Every solve
returns certified data: an SDP duality gap, a feasible witness (a state and a
contraction), and an exact bracket [lo, hi] on the distance whose two ends
re-evaluate those witnesses.

Run:  python3 demos/03_distance_certificates.py
"""

import numpy as np

from cpdist.maps import difference, random_channel, unitary_channel
from cpdist.metrics import bures, bures_extension, cb_norm, continuity_certificate
from cpdist.serialize import dumps


def main():
    t1 = random_channel(2, 2, 2, seed=42)
    t2 = random_channel(2, 2, 2, seed=43)

    # --- Bures distance with its optimality certificates -------------------
    res = bures(t1, t2)
    print("Bures distance between two random qubit channels:")
    print(f"  beta                 {res.beta.lo:.12f}")
    print(f"  SDP duality gap      {res.sdp_gap:.2e}")
    print(f"  exact bracket        [{res.beta.lo:.12f}, {res.beta.hi:.12f}]")
    print(f"  bracket width        {res.beta.width:.2e}   (witness pair - state)")
    rho = res.rho
    print(f"  witness state: trace {np.trace(rho).real:.6f}, min eig {min(np.linalg.eigvalsh(rho)):.2e}")

    # --- cb-norm distance ---------------------------------------------------
    cb = cb_norm(difference(t1, t2))
    print("\ncompletely bounded norm of the difference:")
    print(f"  cb_diff              {cb.cb.lo:.12f}")
    print(f"  SDP duality gap      {cb.sdp_gap:.2e}")
    print(f"  exact bracket        [{cb.cb.lo:.12f}, {cb.cb.hi:.12f}]")
    print(f"  bracket width        {cb.cb.width:.2e}   (dual point - primal point)")

    # --- the sandwich, stated with the numbers above ------------------------
    denom = np.sqrt(np.linalg.norm(t1.at_identity(), 2)) + np.sqrt(
        np.linalg.norm(t2.at_identity(), 2)
    )
    print("\nsandwich inequality:")
    print(f"  lower  cb/(s1+s2) = {cb.cb.lo / denom:.9f}")
    print(f"  beta              = {res.beta.lo:.9f}")
    print(f"  upper  sqrt(cb)   = {np.sqrt(cb.cb.lo):.9f}")

    # --- the same, packaged: one call, one machine-checkable report ---------
    report = continuity_certificate(t1, t2, seed=7)
    print("\ncontinuity_certificate report (deterministic JSON):")
    print(dumps(report.to_dict()))

    # --- the extension form of beta, read off the witness pair ------------
    # T̂_st(a) = V_s†(a⊗1)V_t is a cp 2x2 extension with corners T1 and T2;
    # at the witness pair its defect's norm is the witness norm squared, with
    # no second solve: the report's beta_ext, which witness_gap already gates
    ext = bures_extension(*res.pair)
    print(f"extension of the witness pair: beta_ext = {ext.value:.12f} (|beta - beta_ext| = {abs(ext.value - res.beta.lo):.2e})")
    print(f"  min eig of its Choi matrix {np.linalg.eigvalsh(ext.choi)[0]:.2e}   (cp)")

    # --- a pair with a known closed form ------------------------------------
    u1 = unitary_channel(np.eye(2))
    u2 = unitary_channel(np.diag([1.0, -1.0]))
    ru = bures(u1, u2)
    cu = cb_norm(difference(u1, u2))
    print("\nidentity vs diag(1,-1) conjugation (antipodal eigenphases):")
    print(f"  beta = {ru.beta.lo:.12f}   (sqrt(2) = {np.sqrt(2):.12f})")
    print(f"  cb   = {cu.cb.lo:.12f}   (exact value 2)")


if __name__ == "__main__":
    main()
