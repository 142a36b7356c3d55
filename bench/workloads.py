"""Experiment configs for each benchmark workload, built from a seed.

A workload is an ordered job list.  Each job is a framelab config record
(kind, seed, params) plus a name; the runner adds the ``out`` path.  The
same workload seed always gives the same list.  Sizes are fixed per
workload so that the cost of a pass does not depend on the seed; the seed
only draws values (generator coefficients, target breakpoints, exponents
and the per-job RNG seeds the experiments use).  See README.md for why
each workload exists and why schema maxima are not used.
"""

import json
import math
import os

import numpy as np

WORKLOADS = ("translate-scan", "wavelet-grid", "discrete-frames")

# Acceptance criteria 1-2: 8 coefficients at indices 0..7, dyadic depths
# 1..8, so every generator has 2 + 4 + ... + 256 = 510 cells on [0, 8).
GENERATOR_TERMS = 8
GENERATORS_PER_PASS = 3
BIORTHOGONALITY_WINDOW = 16
RECONSTRUCT_WINDOW = 8
RECONSTRUCT_VECTORS = 8
SCAN_WINDOW = 8
SCAN_TRIALS = 30
YOUNG_DRAWS = 60
# cli accepts max_terms up to 8, but its draw takes that many distinct
# indices from -3..3, so 8 raises; 7 is the largest size that runs.
YOUNG_MAX_TERMS = 7
SAMPLING_WINDOW = 4
# 1/256 is the finest generator cell, hence commensurate (exact); the
# other two are an incommensurate refinement pair.
SAMPLING_STEPS = [1.0 / 256.0, 0.37, 0.185]

P_GRID = [1.5, 2.0, 3.0]
WAVELET_M = [1, 2, 3]
WAVELET_N = [1, 2, 4]
IDENTITY_M = [1, 2]
IDENTITY_N = [1, 2]
LARGE_M = [3]
LARGE_N = [8]
# Criteria 5-6 target; dense, every lattice member near [0, 1) touches it.
INDICATOR = {"indicator": [0.0, 0.3]}
# The Haar mother; sparse, most coefficients vanish exactly.
HAAR = {"named": "haar"}
STEP_CELLS = 5
STEP_GRID = 16

# Criterion 7 size; 1.6 s against the criterion's 1.0 s budget today.
COUNTEREXAMPLE_K = 10_000
COUNTEREXAMPLE_LIMIT = 50
DIAGNOSTICS_WINDOW = 400
DIAGNOSTICS_JOBS = 2
DIAGNOSTICS_P = [1.5, 2.0, 2.5, 3.0, 4.0]


def _job_seed(rng):
    return int(rng.integers(0, 2 ** 32))


def _job(jobs, rng, kind, params):
    name = f"{len(jobs):02d}-{kind}"
    jobs.append({"name": name,
                 "config": {"kind": kind, "seed": _job_seed(rng), "params": params}})


def unit_coefficients(rng):
    """Unit-l2 coefficient values for indices 0..GENERATOR_TERMS-1."""
    vals = rng.standard_normal(GENERATOR_TERMS)
    vals /= math.sqrt(float(np.dot(vals, vals)))
    return [float(v) for v in vals]


def dyadic_step_target(rng):
    """Step function of STEP_CELLS cells on [0, 1), breakpoints drawn from (1/STEP_GRID)Z."""
    inner = np.sort(rng.choice(np.arange(1, STEP_GRID), size=STEP_CELLS - 1,
                               replace=False))
    breakpoints = [0.0] + [float(k) / STEP_GRID for k in inner] + [1.0]
    values = [float(v) for v in rng.standard_normal(STEP_CELLS)]
    return {"step_function": {"breakpoints": breakpoints, "values": values}}


def _translate_scan(rng):
    jobs = []
    for _ in range(GENERATORS_PER_PASS):
        coeffs = unit_coefficients(rng)
        gen = {"rademacher": {"coefficients": [[n, c] for n, c in enumerate(coeffs)]}}
        _job(jobs, rng, "validate-generator", {"generator": gen})
        _job(jobs, rng, "biorthogonality",
             {"generator": gen, "window": BIORTHOGONALITY_WINDOW})
        _job(jobs, rng, "reconstruct",
             {"generator": gen, "window": RECONSTRUCT_WINDOW,
              "num_vectors": RECONSTRUCT_VECTORS, "p_list": list(P_GRID)})
        _job(jobs, rng, "suppression-scan",
             {"generator": gen, "window": SCAN_WINDOW, "trials": SCAN_TRIALS,
              "p": 2.0})
        _job(jobs, rng, "young-fuzz",
             {"draws": YOUNG_DRAWS, "max_terms": YOUNG_MAX_TERMS,
              "p_list": list(P_GRID)})
        _job(jobs, rng, "sampling-sweep",
             {"generator": gen, "window": SAMPLING_WINDOW,
              "steps": list(SAMPLING_STEPS), "p": 2.0})
    return jobs


def _wavelet_grid(rng):
    jobs = []
    step_a = dyadic_step_target(rng)
    step_b = dyadic_step_target(rng)
    p_a, p_b = (float(p) for p in rng.choice(P_GRID, size=2))
    for target, p in ((INDICATOR, 2.0), (HAAR, 1.5), (step_a, p_a), (step_b, p_b)):
        _job(jobs, rng, "wavelet-reconstruct",
             {"target": target, "p": p, "M_list": list(WAVELET_M),
              "N_list": list(WAVELET_N)})
    _job(jobs, rng, "wavelet-reconstruct",
         {"target": INDICATOR, "p": 3.0, "M_list": list(LARGE_M),
          "N_list": list(LARGE_N)})
    for target in (INDICATOR, HAAR, step_a, step_b):
        _job(jobs, rng, "wavelet-identity",
             {"target": target, "p_list": list(P_GRID), "M_list": list(IDENTITY_M),
              "N_list": list(IDENTITY_N)})
    return jobs


def _discrete_frames(rng):
    jobs = []
    _job(jobs, rng, "counterexample",
         {"K": COUNTEREXAMPLE_K, "reconstruction_limit": COUNTEREXAMPLE_LIMIT})
    for p in rng.choice(DIAGNOSTICS_P, size=DIAGNOSTICS_JOBS, replace=False):
        _job(jobs, rng, "diagnostics", {"window": DIAGNOSTICS_WINDOW, "p": float(p)})
    return jobs


_BUILDERS = {
    "translate-scan": _translate_scan,
    "wavelet-grid": _wavelet_grid,
    "discrete-frames": _discrete_frames,
}


def make_jobs(workload, seed):
    """The workload's job list for this seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)


def write_configs(jobs, workdir):
    """Write each job's config file; returns (config paths, artifact bases)."""
    paths, bases = [], []
    for job in jobs:
        base = os.path.join(workdir, job["name"])
        config = dict(job["config"], out=base)
        path = base + ".config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        paths.append(path)
        bases.append(base)
    return paths, bases
