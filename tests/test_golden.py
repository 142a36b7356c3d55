"""Byte-identity of the CLI artifacts against pinned copies.

Each config below runs through ``main`` and its JSON artifact (and CSV,
where the kind writes one) must equal the file of the same name under
``tests/golden`` byte for byte.  The translate-frame files were written by
this same ``main`` before the unit fold of a generator moved onto
``Generator`` and before the lattice filter of ``SamplingPlan.points`` was
vectorised; the wavelet, counterexample and diagnostics files before the
cell-grid merge, the cell widths and the wavelet lattice dropped
``np.unique``, ``np.diff`` and ``np.meshgrid``.  A change that claims to
keep every artifact is held to it here.

The generators are dyadic Rademacher generators like the benchmark's: six
Gaussian unit-l2 coefficients at 0..5 (64 cells a unit), and four at
-2, 0, 1, 4, which leaves gaps in the support.  The wavelet targets are
the benchmark's three: the indicator of [0, 0.3), the Haar mother and a
step function on sixteenths of [0, 1).  The wavelet-reconstruct run at
M = 3, N = 8 is the benchmark's largest merge.
"""

import json
import pathlib

import pytest

from framelab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CONTIGUOUS = {"rademacher": {"coefficients": [
    [0, -0.36416343372860027], [1, 0.029451595484672695], [2, -0.5375022521674642],
    [3, -0.6804625584011997], [4, 0.2717565893119529], [5, -0.20181176564545122]]}}
GAPPED = {"rademacher": {"coefficients": [[-2, 0.5], [0, -0.5], [1, 0.5], [4, 0.5]],
                         "resolution": 2}}
INDICATOR = {"indicator": [0.0, 0.3]}
HAAR = {"named": "haar"}
STEP = {"step_function": {"breakpoints": [0.0, 0.1875, 0.5, 0.625, 0.8125, 1.0],
                          "values": [0.42, -1.37, 0.8, 2.05, -0.61]}}

CONFIGS = {
    "validate-generator": {"kind": "validate-generator", "seed": 777,
                           "params": {"generator": CONTIGUOUS}},
    "biorthogonality": {"kind": "biorthogonality", "seed": 777,
                        "params": {"generator": CONTIGUOUS, "window": 6}},
    "reconstruct": {"kind": "reconstruct", "seed": 777,
                    "params": {"generator": CONTIGUOUS, "window": 4, "num_vectors": 5,
                               "p_list": [1.5, 2.0, 3.0]}},
    "reconstruct-gapped": {"kind": "reconstruct", "seed": 778,
                           "params": {"generator": GAPPED, "window": 5, "num_vectors": 3,
                                      "p_list": [2.0]}},
    "suppression-scan": {"kind": "suppression-scan", "seed": 777,
                         "params": {"generator": CONTIGUOUS, "window": 4, "trials": 6,
                                    "p": 2.0}},
    "young-fuzz": {"kind": "young-fuzz", "seed": 777,
                   "params": {"draws": 15, "max_terms": 7, "p_list": [1.5, 2.0, 3.0]}},
    "sampling-sweep": {"kind": "sampling-sweep", "seed": 777,
                       "params": {"generator": CONTIGUOUS, "window": 2,
                                  "steps": [1.0 / 64.0, 0.37, 0.185], "p": 2.0}},
    "sampling-sweep-gapped": {"kind": "sampling-sweep", "seed": 778,
                              "params": {"generator": GAPPED, "window": 1,
                                         "steps": [1.0 / 32.0, 0.3], "p": 3.0}},
    "wavelet-reconstruct-haar": {"kind": "wavelet-reconstruct", "seed": 777,
                                 "params": {"target": HAAR, "p": 1.5, "M_list": [1, 2, 3],
                                            "N_list": [1, 2, 4]}},
    "wavelet-reconstruct-indicator": {"kind": "wavelet-reconstruct", "seed": 777,
                                      "params": {"target": INDICATOR, "p": 3.0,
                                                 "M_list": [3], "N_list": [8]}},
    "wavelet-reconstruct-step": {"kind": "wavelet-reconstruct", "seed": 777,
                                 "params": {"target": STEP, "p": 2.0, "M_list": [1, 2],
                                            "N_list": [1, 3]}},
    "wavelet-identity-indicator": {"kind": "wavelet-identity", "seed": 777,
                                   "params": {"target": INDICATOR, "p_list": [1.5, 2.0, 3.0],
                                              "M_list": [1, 2], "N_list": [1, 2]}},
    "wavelet-identity-haar": {"kind": "wavelet-identity", "seed": 777,
                              "params": {"target": HAAR, "p_list": [2.0], "M_list": [2],
                                         "N_list": [3]}},
    "wavelet-identity-step": {"kind": "wavelet-identity", "seed": 777,
                              "params": {"target": STEP, "p_list": [1.5, 3.0],
                                         "M_list": [1, 2], "N_list": [2, 3]}},
    "counterexample": {"kind": "counterexample", "seed": 777,
                       "params": {"K": 50, "reconstruction_limit": 50}},
    "counterexample-large": {"kind": "counterexample", "seed": 777,
                             "params": {"K": 2000, "reconstruction_limit": 30}},
    "diagnostics": {"kind": "diagnostics", "seed": 777,
                    "params": {"window": 12, "p": 2.0}},
    "diagnostics-wide": {"kind": "diagnostics", "seed": 777,
                         "params": {"window": 60, "p": 3.0}},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_the_pinned_copies(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    assert main(["run", str(config), "--out", str(tmp_path / name), "--quiet"]) == 0
    pinned = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert pinned, f"no pinned artifact for {name}"
    written = sorted(p.name for p in tmp_path.glob(f"{name}.*"))
    assert written == pinned
    for fname in pinned:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname
