"""Networked LTI resilience toolkit.

Models two-subsystem networked control systems, decides whether every
locally stabilizing controller pair keeps the interconnection stable,
synthesizes the supervisory compensator that enforces that property on
dense couplings, constructs certified destabilizing controllers for
non-cascade networks, and reproduces a five-generator power-grid
experiment end to end.
"""

from .lti import (FrequencyResponse, StateSpace, blockdiag, default_grid,
                  eval_frequency, feedback_interconnect, is_hurwitz,
                  spectral_abscissa)
from .network import (CascadeVerdict, NetworkedSystem, ResilienceReport,
                      Subsystem, interconnect, is_cascade, is_weakly_resilient)
from .compensator import (Compensator, PerformanceBound, attach_compensator,
                          cascade_reference, performance_bound,
                          synthesize_compensator,
                          synthesize_observer_compensator, verify_triangular)
from .synthesis import (HinfResult, RiccatiSolution, SynthesisError,
                        design_observer_gain, design_theta, hinf_norm,
                        solve_care)
from .youla import (AllPassParam, DestabilizerResult, GeneralizedPlant,
                    YoulaController, allpass_fit, allpass_ss,
                    design_nominal_gains, destabilizer_search,
                    realize_controller)
from .simulate import ReferenceSignal, Scenario, Trajectory, run_scenario, simulate

__version__ = "0.1.0"

__all__ = [
    "AllPassParam", "CascadeVerdict", "Compensator", "DestabilizerResult",
    "FrequencyResponse", "GeneralizedPlant", "HinfResult", "NetworkedSystem",
    "PerformanceBound", "ReferenceSignal", "ResilienceReport",
    "RiccatiSolution", "Scenario", "StateSpace", "Subsystem",
    "SynthesisError", "Trajectory", "YoulaController", "allpass_fit",
    "allpass_ss", "attach_compensator", "blockdiag", "cascade_reference",
    "default_grid", "design_nominal_gains", "design_observer_gain",
    "design_theta", "destabilizer_search", "eval_frequency",
    "feedback_interconnect", "hinf_norm", "interconnect", "is_cascade",
    "is_hurwitz", "is_weakly_resilient", "performance_bound",
    "realize_controller", "run_scenario", "simulate", "solve_care",
    "spectral_abscissa", "synthesize_compensator",
    "synthesize_observer_compensator", "verify_triangular",
]
