"""CSV and JSON emission with loss-free, byte-stable formatting.

Integers are written exactly; floats via ``repr`` (shortest round-trip
form); booleans as 1/0.  Lines always end in a bare newline so identical
inputs give byte-identical files on every platform.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

TRACE_HEADER = ("iteration", "z_mu", "z_star", "best_true", "evals", "B")
RUNTIME_HEADER = ("n", "replication", "seed", "lambda", "mu", "evals", "iterations", "success")


def format_cell(value) -> str:
    if type(value) is int:  # the common cell; a bool is not ``int`` by type
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(format_cell, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
