"""The Hermitian-block semidefinite solver on problems with known answers.

The distance computations reduce to small semidefinite programs.  The solver
used throughout is a primal-dual interior-point method over products of
Hermitian blocks; it is deterministic and returns duality-gap and residual
certificates with every solution.  Every problem is a maximization: a
minimum is the negated maximum of the negated objective.  Here the solver is
run on three textbook problems whose answers are available from plain
linear algebra.

Run:  python3 demos/05_sdp_solver.py
"""

import numpy as np

from cpdist.sdp import SdpProblem, hermitian_basis, solve


def top_eigenvalue(h):
    """max <H, X>  s.t.  tr X = 1,  X >= 0   --- equals lambda_max(H)."""
    q = h.shape[0]
    prob = SdpProblem(
        blocks=(q,),
        objective={0: h},
        constraints=[({0: np.eye(q)}, 1.0, "=")],
    )
    return solve(prob)


def trace_norm_sdp(a):
    """Trace norm of a via the standard 2x2-block epigraph program."""
    p, q = a.shape
    s = p + q
    corner = np.zeros((s, s), dtype=complex)
    corner[:p, p:] = a / 2.0
    corner = corner + corner.conj().T
    constraints = []
    for h in hermitian_basis(p):
        lift = np.zeros((s, s), dtype=complex)
        lift[:p, :p] = h
        constraints.append(({0: lift}, float(np.trace(h).real), "="))
    for h in hermitian_basis(q):
        lift = np.zeros((s, s), dtype=complex)
        lift[p:, p:] = h
        constraints.append(({0: lift}, float(np.trace(h).real), "="))
    prob = SdpProblem(blocks=(s,), objective={0: corner}, constraints=constraints)
    return solve(prob)


def small_lp():
    """min x1 + 2 x2  s.t.  x1 + x2 >= 1,  x1 >= 0,  x2 >= 0  (answer: 1).

    The solver maximizes -(x1 + 2 x2); the minimum is the negated optimum.
    The inequality is the equality x1 + x2 - s = 1 with a slack s >= 0.
    """
    one = np.ones((1, 1))
    prob = SdpProblem(
        blocks=(1, 1, 1),
        objective={0: -one, 1: -2.0 * one},
        constraints=[({0: one, 1: one, 2: -one}, 1.0, "=")],
    )
    sol = solve(prob)
    return -sol.primal_value, sol


def main():
    rng = np.random.default_rng(5)

    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    sol = top_eigenvalue(h)
    exact = max(np.linalg.eigvalsh(h))
    print("top eigenvalue as an SDP:")
    print(f"  solver {sol.primal_value:.12f}   eigh {exact:.12f}   error {abs(sol.primal_value - exact):.2e}")
    print(f"  duality gap {sol.gap:.2e} in {sol.iterations} iterations")

    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    sol = trace_norm_sdp(a)
    exact = np.linalg.svd(a, compute_uv=False).sum()
    print("\ntrace norm as an SDP:")
    print(f"  solver {sol.primal_value:.12f}   svd  {exact:.12f}   error {abs(sol.primal_value - exact):.2e}")
    print(f"  duality gap {sol.gap:.2e} in {sol.iterations} iterations")

    value, sol = small_lp()
    print("\na linear program as 1x1 blocks:")
    print(f"  solver {value:.12f}   exact 1.0   error {abs(value - 1.0):.2e}")
    print(f"  primal residual {sol.primal_residual:.2e}, dual residual {sol.dual_residual:.2e}")

    # Determinism: the exact same floats on a repeat solve.
    again, _ = small_lp()
    print(f"  repeat solve identical: {again == value}")


if __name__ == "__main__":
    main()
