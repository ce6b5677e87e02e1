"""Synthesis and verification of robustly monotonically convergent ILC.

The package computes learning functions for iterative learning control of
uncertain linear discrete-time plants.  Feasibility of a guaranteed
contraction rate gamma is expressed as a sum-of-squares condition on a
polynomial matrix in the uncertainty parameters, compiled to a semidefinite
program and minimized over the learning gains.  Independent sampling and
trial-simulation checks validate every synthesized certificate.

Modules
-------
polyalg     array-backed polynomials/matrices with affine decision terms
soscompiler SOS feasibility -> semidefinite program (Gram matrix form)
sdp         self-contained primal-dual SDP solver
timedomain  lifted (finite-horizon) synthesis
freqdomain  transfer-function (infinite-horizon) synthesis
verify      brute-force sampled contraction rates
simulate    ILC trial simulation against the guaranteed rate
cli         command line front end
"""

from .polyalg import (
    AffinePoly,
    PolyMatrix,
    AffinityError,
    DegenerateDenominator,
    homogenize,
    substitute_squares,
)
from .soscompiler import SdpProblem, compile_sos, monomial_basis, check_certificate
from .sdp import SdpSolution, SolverFailure, solve
from .result import SynthesisResult
from .freqdomain import (
    NoncausalFir,
    UncertainTransferFunction,
    EmptyPolytope,
    JuryReport,
    jury_stability,
    simplexify,
    synth_freq_nominal,
    synth_freq_robust,
)
from .timedomain import (
    LiftedUncertainPlant,
    LiftedFilter,
    TimeSynthesisProblem,
    SingularPlant,
    InfeasibleAtAllK,
    markov_from_coeffs,
    synth_time,
)
from .verify import (
    SampleGrid,
    UnitCirclePole,
    make_grid,
    sampled_gamma_time,
    sampled_gamma_freq,
)
from .simulate import (
    TrialConfig,
    TrialTrace,
    Divergent,
    run_ilc,
    asymptotic_error,
    sample_disturbance,
)

__all__ = [
    "AffinePoly",
    "PolyMatrix",
    "AffinityError",
    "DegenerateDenominator",
    "homogenize",
    "substitute_squares",
    "SdpProblem",
    "compile_sos",
    "monomial_basis",
    "check_certificate",
    "SdpSolution",
    "SolverFailure",
    "solve",
    "SynthesisResult",
    "NoncausalFir",
    "UncertainTransferFunction",
    "EmptyPolytope",
    "JuryReport",
    "jury_stability",
    "simplexify",
    "synth_freq_nominal",
    "synth_freq_robust",
    "LiftedUncertainPlant",
    "LiftedFilter",
    "TimeSynthesisProblem",
    "SingularPlant",
    "InfeasibleAtAllK",
    "markov_from_coeffs",
    "synth_time",
    "SampleGrid",
    "UnitCirclePole",
    "make_grid",
    "sampled_gamma_time",
    "sampled_gamma_freq",
    "TrialConfig",
    "TrialTrace",
    "Divergent",
    "run_ilc",
    "asymptotic_error",
    "sample_disturbance",
]

__version__ = "0.1.0"
