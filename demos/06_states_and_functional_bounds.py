"""State-level distances, functional bounds, and monotonicity.

cp maps into the scalars (n = 1) are positive functionals, i.e. states up to
normalization, and there the dilation distance collapses to the Bures
distance of density operators built on Uhlmann fidelity.  This script checks
that collapse numerically, then walks the functional-level toolbox:

  * the Radon-Nikodym operator h with  h rho0 h = rho1  for dominated pairs,
  * the reflection chain  beta^2 <= <reflection defect> <= ||rho0 - rho1||_1,
  * the mixture bound, which shrinks the distance along the segment
    rho_s = (1-s) rho0 + s rho1,
  * monotonicity: composing with a channel never increases the distance.

Run:  python3 demos/06_states_and_functional_bounds.py
"""

import numpy as np

from cpdist.dilations import minimal_dilation
from cpdist.linalg import trace_norm
from cpdist.maps import CpMap, compose, random_channel, random_density
from cpdist.metrics import (
    bures,
    bures_states,
    fidelity,
    mixture_certificate,
    monotonicity_certificate,
    radon_nikodym_operator,
    reflection_certificate,
)


def functional_from_state(rho):
    """The cp map a -> tr(rho a) as a map into 1x1 matrices."""
    vals, vecs = np.linalg.eigh(rho)
    kraus = [np.sqrt(max(v, 0.0)) * vecs[:, [i]] for i, v in enumerate(vals) if v > 1e-14]
    return CpMap(rho.shape[0], 1, kraus)


def main():
    rng = np.random.default_rng(17)

    # --- scalar-valued cp maps reduce to the state-level Bures distance ----
    rho0 = random_density(3, rng)
    rho1 = random_density(3, rng)
    f0, f1 = functional_from_state(rho0), functional_from_state(rho1)
    res = bures(f0, f1)
    direct = bures_states(rho0, rho1)
    print("scalar-valued cp maps vs density-operator Bures distance:")
    print(f"  dilation optimizer {res.beta.lo:.12f}")
    print(f"  fidelity formula   {direct:.12f}   (fidelity = {fidelity(rho0, rho1):.9f})")
    print(f"  difference         {abs(res.beta.lo - direct):.2e}")

    # --- Radon-Nikodym operator for a dominated pair ------------------------
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0 = (g + g.conj().T) / 2
    rho_dom = h0 @ rho0 @ h0
    rho_dom /= np.trace(rho_dom).real
    h = radon_nikodym_operator(rho0, rho_dom)
    defect = trace_norm(h @ rho0 @ h - rho_dom)
    print("\nRadon-Nikodym operator h with h rho0 h = rho1:")
    print(f"  reconstruction defect {defect:.2e}, h psd with min eig {min(np.linalg.eigvalsh(h)):.2e}")

    # --- the reflection chain ------------------------------------------------
    cert = reflection_certificate(rho0, rho_dom)
    print("\nreflection chain beta^2 <= reflection value <= trace-norm distance:")
    slack = {c.name: c.value for c in cert.checks}
    print(f"  beta^2           {cert.beta ** 2:.9f}")
    print(f"  reflection value {cert.reflection_value:.9f}   (slack {slack['lower']:+.2e})")
    print(f"  ||rho0 - rho1||_1  {cert.norm_diff:.9f}   (slack {slack['upper']:+.2e})")
    print(f"  beta <= sqrt(||rho0 - rho1||_1): slack {slack['sqrt']:+.2e}   passed={cert.passed}")

    # --- the mixture bound ---------------------------------------------------
    # |beta(rho_s, rho1) - beta(rho0, rho1)| <= sqrt(s) * (sqrt||w0|| + sqrt||w1||)
    mix = mixture_certificate(rho0, rho1)
    print("\nmixture bound along rho_s = (1-s) rho0 + s rho1:")
    print(f"  beta(rho0, rho1) = {mix.base:.9f}, coefficient = {mix.bound:.6f}")
    print(f"  {'s':>5}   beta(rho_s, rho1)   |change|      sqrt(s)*coeff")
    for s, dist in zip(mix.s_grid, mix.distances):
        print(
            f"  {s:5.3f}   {dist:.9f}       {abs(mix.base - dist):.9f}   {np.sqrt(s) * mix.bound:.9f}"
        )
    print(f"  worst slack {min(c.value for c in mix.checks):+.3e}   passed={mix.passed}")

    # --- monotonicity under composition -------------------------------------
    # beta(S.T1, S.T2) <= sqrt(||S(1)||) * beta(T1, T2); slack is the margin.
    t1 = random_channel(2, 2, 2, seed=500)
    t2 = random_channel(2, 2, 2, seed=501)
    s_chan = random_channel(2, 2, 2, seed=502)
    mono = monotonicity_certificate(s_chan, s_chan, t1, t2)
    post, pre = mono.checks
    print("\nmonotonicity: composing with a channel S contracts the distance")
    print(f"  beta(T1, T2)        = {mono.before:.9f}   (||S(1)|| = {mono.norm_s['post']:.6f})")
    print(f"  post (S after T_i)  = {mono.after['post']:.9f}   margin {post.value:+.3e}  passed={post.passed}")
    print(f"  pre  (T_i after S)  = {mono.after['pre']:.9f}   margin {pre.value:+.3e}  passed={pre.passed}")
    composed = compose(s_chan, t1)
    print(f"  (composed map: {len(composed.kraus)} Kraus operators, "
          f"Kraus rank {minimal_dilation(composed).m})")


if __name__ == "__main__":
    main()
