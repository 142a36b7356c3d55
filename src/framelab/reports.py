"""Deterministic report serialization.

Reports must be byte identical when an experiment is rerun with the same
config and seed, so everything funnels through canonical JSON (sorted
keys, shortest round-trip floats) and CSV with '.' decimals, '\n' line
ends and a mandatory header.  Every file embeds the artifact version and
a digest of the config that produced it.  JSON has no token for a
non-finite float, so one is written as the string Python's ``repr`` gives
it, "inf", "-inf" or "nan", the same text a CSV cell holds.
"""

import hashlib
import json
import math

ARTIFACT_VERSION = "0.2.0"


def sanitize(obj):
    """Coerce numpy scalars and containers to plain JSON-ready Python values.

    A non-finite float becomes its ``repr`` string: "inf", "-inf" or "nan".
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()
    if isinstance(obj, float):
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def canonical_json(obj):
    return json.dumps(sanitize(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_digest(config):
    """sha256 over the canonical form of the effective experiment config."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def format_cell(value):
    """Stable text form for one CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows, digest, seed):
    lines = [f"# artifact_version={ARTIFACT_VERSION} config_digest={digest} seed={seed}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json_report(path, payload):
    text = json.dumps(sanitize(payload), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
