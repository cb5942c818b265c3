"""Distances between completely positive maps on matrix algebras.

The package computes two metrics on cp maps T: M_d -> M_n given by Kraus
families — the cb-norm distance and the Bures distance
(the infimum of ||V1 - V2|| over Stinespring dilations in a common
representation) — and certifies, per instance, the continuity sandwich
between them, witness attainment, metric axioms, monotonicity under
composition, and the functional-level bound chains.

Everything is organized around certified numerics: semidefinite programs
with duality-gap reporting, exact re-evaluation of feasible points (one
Bures solve gives a state and a contraction that bracket beta from both
sides, and one cb-norm solve gives a primal and a dual point that bracket
the cb norm), and explicit witness constructions.
"""

from .linalg import (
    eigh,
    hermitian_part,
    operator_norm,
    partial_trace_first,
    polar_unitary_part,
    psd_sqrt,
    trace_norm,
)
from .maps import (
    CpMap,
    HermMap,
    compose,
    depolarizing_channel,
    difference,
    identity_channel,
    random_channel,
    random_density,
    unitary_channel,
)
from .dilations import (
    Contraction,
    Dilation,
    common_pair_from_contraction,
    dilation_from_kraus,
    intertwiner_from_minimal,
    minimal_dilation,
    triangle_dilations,
    verify_dilation,
)
from .sdp import (
    SdpError,
    SdpNoConvergence,
    SdpProblem,
    SdpSolution,
    solve,
)
from .metrics import (
    Bracket,
    BuresResult,
    CbNormResult,
    ExtensionResult,
    MetricReport,
    bures,
    bures_extension,
    bures_fixed_pair,
    bures_states,
    cb_norm,
    continuity_certificate,
    cp_cb_norm,
    fidelity,
    mixture_certificate,
    monotonicity_certificate,
    radon_nikodym_operator,
    reflection_certificate,
)
from .serialize import channel_from_dict, channel_to_dict
from .verify import run_batch, run_instance

__version__ = "0.1.0"

__all__ = [
    "eigh",
    "hermitian_part",
    "operator_norm",
    "partial_trace_first",
    "polar_unitary_part",
    "psd_sqrt",
    "trace_norm",
    "CpMap",
    "HermMap",
    "channel_from_dict",
    "channel_to_dict",
    "compose",
    "depolarizing_channel",
    "difference",
    "identity_channel",
    "random_channel",
    "random_density",
    "unitary_channel",
    "Contraction",
    "Dilation",
    "common_pair_from_contraction",
    "dilation_from_kraus",
    "intertwiner_from_minimal",
    "minimal_dilation",
    "triangle_dilations",
    "verify_dilation",
    "SdpError",
    "SdpNoConvergence",
    "SdpProblem",
    "SdpSolution",
    "solve",
    "Bracket",
    "BuresResult",
    "CbNormResult",
    "ExtensionResult",
    "MetricReport",
    "bures",
    "bures_extension",
    "bures_fixed_pair",
    "bures_states",
    "cb_norm",
    "continuity_certificate",
    "cp_cb_norm",
    "fidelity",
    "mixture_certificate",
    "monotonicity_certificate",
    "radon_nikodym_operator",
    "reflection_certificate",
    "run_batch",
    "run_instance",
    "__version__",
]
