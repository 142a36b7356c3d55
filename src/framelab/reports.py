"""Deterministic report serialization.

Reports must be byte identical when an experiment is rerun with the same
config and seed, so everything funnels through canonical JSON (sorted
keys, shortest round-trip floats) and CSV with '.' decimals, '\n' line
ends and a mandatory header.  Every file embeds the artifact version and
a digest of the config that produced it.  JSON has no token for a
non-finite float, so one is written as the string Python's ``repr`` gives
it, "inf", "-inf" or "nan", the same text a CSV cell holds.

A JSON report is the text of ``json.dumps(sanitize(payload), sort_keys=True,
indent=2, allow_nan=False)``, written in one walk of the payload, as ``json``'s
C encoder takes no ``indent``.  A JSON leaf and a CSV cell pass one rule,
``_leaf``: a numpy scalar's ``.item()``, then a finite float's ``repr``.
"""

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _quoted

ARTIFACT_VERSION = "0.2.0"


class GeneratorRejected(ValueError):
    """Raised when a candidate generator fails a validation condition; the
    CLI, which imports this numpy-free module at start-up, writes its report."""

    def __init__(self, report):
        super().__init__("; ".join(report.failures))
        self.report = report


def _leaf(obj):
    """A JSON leaf: a numpy scalar as its Python value, a non-finite float as its repr."""
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()
    if isinstance(obj, float):
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def sanitize(obj):
    """Coerce numpy scalars and containers to plain JSON-ready Python values.

    A non-finite float becomes its ``repr`` string: "inf", "-inf" or "nan".
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return _leaf(obj)


def canonical_json(obj):
    return json.dumps(sanitize(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_digest(config):
    """sha256 over the canonical form of the effective experiment config."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def format_cell(value):
    """Stable text form for one CSV cell, by the leaf rule of the JSON text."""
    value = _leaf(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def write_csv(path, header, rows, digest, seed):
    lines = [f"# artifact_version={ARTIFACT_VERSION} config_digest={digest} seed={seed}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# the JSON text of a leaf of each plain type; bool comes before int, its base
_SCALAR_TEXT = {bool: lambda v: "true" if v else "false", type(None): lambda v: "null",
                str: _quoted, int: int.__repr__,
                float: lambda v: repr(v) if math.isfinite(v) else _quoted(repr(v))}


def _json_text(obj, indent):
    """``json.dumps(sanitize(obj), sort_keys=True, indent=2, allow_nan=False)``,
    ``obj`` starting on a line whose ``indent`` is a newline and spaces."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, (dict, list, tuple)):
        inner = indent + "  "
        if isinstance(obj, dict):
            items = {str(k): v for k, v in obj.items()}
            parts = [f"{_quoted(k)}: {_json_text(items[k], inner)}" for k in sorted(items)]
            ends = "{}"
        else:
            parts, ends = [_json_text(v, inner) for v in obj], "[]"
        return ends[0] + inner + ("," + inner).join(parts) + indent + ends[1] if parts else ends
    obj = _leaf(obj)
    for cls, text in _SCALAR_TEXT.items():
        if isinstance(obj, cls):
            return text(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def write_json_report(path, payload):
    text = _json_text(payload, "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
