"""Regenerate reference.json: result fields of every seed-independent config.

A config is seed-independent when every workload seed in SEEDS yields it.
Its result fields, as the program at the current checkout computes them,
become the reference the benchmark compares against.  Rerun this only when
a change of results is intended, and say why in the change description.

    python3 bench/make_reference.py
"""

import json
import os
import shutil
import sys
import tempfile

from run import ROOT, WORK_DIR, import_framelab, limit_blas_threads

SEEDS = range(8)


def main():
    limit_blas_threads()
    cli = import_framelab()
    from checks import REFERENCE_PATH, reference_key, result_fields
    from workloads import WORKLOADS, make_jobs, write_configs
    fixed = {}
    for workload in WORKLOADS:
        per_seed = [{reference_key(j["config"]): j for j in make_jobs(workload, s)}
                    for s in SEEDS]
        for key in set.intersection(*(set(d) for d in per_seed)):
            fixed[key] = per_seed[0][key]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=WORK_DIR)
    references = {}
    try:
        keys = sorted(fixed)
        paths, bases = write_configs([fixed[k] for k in keys], workdir)
        for key, path, base in zip(keys, paths, bases):
            if cli.main(["run", path, "--quiet"]) != 0:
                raise SystemExit(f"reference job failed: {key}")
            with open(base + ".json", "r", encoding="utf-8") as fh:
                references[key] = result_fields(json.load(fh))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(references)} references to {os.path.relpath(REFERENCE_PATH, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
