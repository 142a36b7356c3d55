"""framelab: exact step-function calculus for continuous frame experiments.

The public names load on first access (PEP 562 module ``__getattr__``), so
``import framelab`` and ``import framelab.cli`` run none of the library
modules: a caller compiles and imports only the modules whose names it reads.
"""

import importlib

# the module that defines each public name
_SOURCES = {
    "lp": ("CoordinateVector",),
    "stepfn": ("StepFunction", "haar_mother"),
    "reports": ("GeneratorRejected",),
    "translate_frame": ("Generator", "RademacherSpec", "ValidationReport",
                        "biorthogonality_matrix", "build_rademacher_generator",
                        "synthesis_over_set", "validate_generator", "young_check"),
    "pettis": ("unconditionality_scan",),
    "wavelet_frame": ("StudyRow", "WaveletSystem", "convergence_study",
                      "reconstruction_identity_gaps"),
    "diagnostics": ("CompletenessReport", "CounterexampleReport", "DiscreteFrame",
                    "SpaceTag", "boundedly_complete_probe", "counterexample_frame",
                    "counterexample_report", "tail_dual_norm", "unit_vector_frame"),
    "sampling": ("SamplingPlan", "SweepRow", "commensurate_step", "default_window",
                 "reconstruction_matrix", "sampling_sweep"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name`` and bind the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
