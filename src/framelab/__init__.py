"""framelab: exact step-function calculus for continuous frame experiments."""

from .intervals import IntervalSet
from .lp import CoordinateVector
from .stepfn import StepFunction, haar_mother
from .translate_frame import (Generator, GeneratorRejected, RademacherSpec,
                              ValidationReport, biorthogonality_matrix,
                              build_rademacher_generator, generator_certificates,
                              rademacher_function, synthesis_over_set,
                              validate_generator, young_check)
from .pettis import unconditionality_scan
from .wavelet_frame import (StudyRow, WaveletSystem, averaged_conjugate_reconstruction,
                            box_reconstruct, convergence_study, member,
                            reconstruction_identity_gap)
from .diagnostics import (CompletenessReport, CounterexampleReport, DiscreteFrame,
                          SpaceTag, boundedly_complete_probe, counterexample_frame,
                          counterexample_report, tail_dual_norm, unit_vector_frame)
from .sampling import (SamplingPlan, SweepRow, commensurate_step, default_window,
                       reconstruction_matrix, sampling_sweep)

__version__ = "0.1.0"

__all__ = [
    "CompletenessReport", "CoordinateVector", "CounterexampleReport",
    "DiscreteFrame", "Generator", "GeneratorRejected", "IntervalSet",
    "RademacherSpec", "SamplingPlan", "SpaceTag", "StepFunction", "StudyRow",
    "SweepRow", "ValidationReport", "WaveletSystem",
    "averaged_conjugate_reconstruction", "biorthogonality_matrix",
    "box_reconstruct", "build_rademacher_generator", "commensurate_step",
    "convergence_study", "counterexample_frame", "counterexample_report",
    "default_window", "generator_certificates", "haar_mother", "member",
    "rademacher_function", "reconstruction_identity_gap",
    "reconstruction_matrix", "sampling_sweep", "synthesis_over_set",
    "tail_dual_norm", "unconditionality_scan", "unit_vector_frame",
    "validate_generator", "young_check",
]
