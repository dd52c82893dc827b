"""Deterministic CSV/JSON serialization helpers.

Floats are written with repr (shortest round-trip form, '.' decimal separator)
so replaying an experiment with the same seed produces byte-identical files
regardless of worker count or platform locale.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REPORT_VERSION = "rfcond-report/3"


def write_csv(path, header: list[str], rows) -> None:
    """Each cell as `jsonable` encodes it, and an empty cell for None."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else jsonable(v) for v in row])


def jsonable(obj):
    """Recursively convert numpy scalars/arrays; non-finite floats become
    strings since JSON has no encoding for them."""
    # Floats and strs first: they are most of a CSV's cells.
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else str(x)  # "inf", "-inf" or "nan"
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def json_report(payload: dict) -> str:
    """Render a report dict (insertion order preserved) with a version field first."""
    body = {"version": REPORT_VERSION}
    body.update(jsonable(payload))
    return json.dumps(body, indent=2, ensure_ascii=False) + "\n"


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_report(payload), encoding="utf-8")
