"""framelab: exact step-function calculus for continuous frame experiments."""

from .intervals import IntervalSet
from .lp import CoordinateVector
from .stepfn import StepFunction, haar_mother
from .translate_frame import (Generator, GeneratorRejected, RademacherSpec,
                              ValidationReport, analysis_function,
                              biorthogonality_matrix, build_rademacher_generator,
                              frame_vector, generator_certificates,
                              rademacher_function, sign_pattern,
                              synthesis_over_set, translate_series,
                              validate_generator, young_check)
from .pettis import exact_set_supremum, unconditionality_scan
from .wavelet_frame import (GridIndex, StudyRow, WaveletSystem,
                            averaged_conjugate_reconstruction, box_reconstruct,
                            convergence_study, discrete_partial_reconstruct,
                            full_grid, grid_partial_sum, member,
                            reconstruction_identity_gap, snap_to_grid)
from .diagnostics import (CompletenessReport, CounterexampleReport, DiscreteFrame,
                          SpaceTag, TailReport, boundedly_complete_probe,
                          counterexample_frame, counterexample_report,
                          estimate_tail_dual_norm, project_frame,
                          suppression_ratio_scan, tail_dual_norm, tail_functional,
                          tail_report,
                          unit_vector_frame)
from .sampling import (SamplingPlan, SweepRow, commensurate_step, default_window,
                       reconstruction_matrix, sample_frame, sampling_sweep)

__version__ = "0.1.0"

__all__ = [
    "CompletenessReport", "CoordinateVector", "CounterexampleReport",
    "DiscreteFrame", "Generator", "GeneratorRejected", "GridIndex",
    "IntervalSet", "RademacherSpec", "SamplingPlan", "SpaceTag",
    "StepFunction", "StudyRow", "SweepRow", "TailReport", "ValidationReport",
    "WaveletSystem", "analysis_function", "averaged_conjugate_reconstruction",
    "biorthogonality_matrix", "box_reconstruct", "build_rademacher_generator",
    "commensurate_step", "convergence_study", "counterexample_frame",
    "counterexample_report", "default_window", "discrete_partial_reconstruct",
    "estimate_tail_dual_norm", "exact_set_supremum", "frame_vector",
    "full_grid", "generator_certificates", "grid_partial_sum", "haar_mother",
    "member", "project_frame", "rademacher_function",
    "reconstruction_identity_gap", "reconstruction_matrix", "sample_frame",
    "sampling_sweep", "sign_pattern", "snap_to_grid",
    "suppression_ratio_scan", "synthesis_over_set", "tail_dual_norm",
    "tail_functional", "tail_report",
    "translate_series", "unconditionality_scan", "unit_vector_frame",
    "validate_generator", "young_check",
]
