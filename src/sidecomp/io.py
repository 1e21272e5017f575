"""JSON file formats for tuples, kernel specs, and reports.

Complex entries are serialized as two-element arrays [re, im]. A tuple file
is {"m": int, "d": int, "matrices": [...]} where matrices is a list of m
row-major d x d matrices. Reports are emitted in canonical form (sorted keys,
fixed separators) so identical inputs produce byte-identical output. See
docs/formats.md for the complete description.
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .policy import STACK_BYTE_BUDGET
from .tuples import OperatorTuple, operator_tuple

if TYPE_CHECKING:       # imported where used, so that tuple files never load rkhs
    from .rkhs import DiagonalKernelSpec, TruncationGrid


def matrix_to_obj(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def matrix_from_obj(obj, name: str = "matrix") -> np.ndarray:
    try:
        rows = [[complex(e[0], e[1]) for e in row] for row in obj]
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed {name}: entries must be [re, im] pairs") from exc
    M = np.asarray(rows, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"malformed {name}: not two-dimensional")
    return M


def tuple_to_obj(T: OperatorTuple) -> dict:
    return {"m": T.m, "d": T.d, "matrices": [matrix_to_obj(A) for A in T]}


def tuple_from_obj(obj) -> OperatorTuple:
    if not isinstance(obj, dict) or not isinstance(obj.get("matrices"), list):
        raise ValueError("tuple object must be a dict with a 'matrices' list")
    mats = [matrix_from_obj(M, f"matrix {i}") for i, M in enumerate(obj["matrices"])]
    T = operator_tuple(mats)
    for field in ("m", "d"):
        if field in obj and _integer(obj[field], field) != getattr(T, field):
            raise ValueError(f"declared {field}={obj[field]} does not match matrices")
    return T


def _integer(value, name: str) -> int:
    """``value`` of the field ``name`` as an int; a bool, a number with a
    fractional part or anything ``int()`` refuses raises ValueError."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"'{name}' must be an integer, got {value!r}") from exc
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    return n


def load_tuple(path: str) -> OperatorTuple:
    with open(path, "r", encoding="utf-8") as fh:
        return tuple_from_obj(json.load(fh))


_PRESETS = {
    "drury_arveson": "drury_arveson",
    "bergman": "bergman_k",
    "bergman_k": "bergman_k",
    "hardy": "hardy_like",
    "hardy_like": "hardy_like",
    "custom": "custom",
}


def kernel_job_from_obj(obj) -> tuple[DiagonalKernelSpec | None, TruncationGrid, str]:
    """Parse {"m", "preset", "k"?, "dmax", "custom_fhat"?}.

    Returns (spec, grid, preset-name); spec is None for the "spherical_shift"
    preset, which has no coefficient rule. A job over ``STACK_BYTE_BUDGET``
    is refused before its grid is enumerated.
    """
    from .rkhs import DiagonalKernelSpec, TruncationGrid

    if not isinstance(obj, dict):
        raise ValueError("kernel spec must be a JSON object")
    try:
        m, dmax, preset = obj["m"], obj["dmax"], str(obj["preset"])
    except KeyError as exc:
        raise ValueError("kernel spec needs integer 'm', 'dmax' and a 'preset'") from exc
    m, dmax = _integer(m, "m"), _integer(dmax, "dmax")
    # the model tuple takes 16 m d^2 bytes, drury_arveson's Koszul stack C(m, 2)
    # times as many; TruncationGrid.build refuses m < 1 and dmax < 0
    d = math.comb(m + dmax, m) if m >= 1 and dmax >= 0 else 0
    copies = max(1, m * (m - 1) // 2) if _PRESETS.get(preset) == "drury_arveson" else 1
    size = 16 * m * d * d * copies
    if size > STACK_BYTE_BUDGET:
        raise ValueError(f"the grid of m={m}, dmax={dmax} has d={d} labels, and its arrays "
                         f"need {size} bytes, more than the budget of {STACK_BYTE_BUDGET}")
    grid = TruncationGrid.build(m, dmax)
    if preset == "spherical_shift":
        return None, grid, preset
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    tag = _PRESETS[preset]
    if tag == "drury_arveson":
        return DiagonalKernelSpec.drury_arveson(m), grid, tag
    if tag == "bergman_k":
        try:
            k = float(obj["k"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("bergman preset needs a numeric exponent 'k'") from exc
        return DiagonalKernelSpec.bergman(m, k), grid, tag
    if tag == "hardy_like":
        return DiagonalKernelSpec.hardy(m), grid, tag
    entries = obj.get("custom_fhat")
    if not entries:
        raise ValueError("custom preset needs 'custom_fhat' entries")
    table = {}
    try:
        for alpha, value in entries:
            table[tuple(int(a) for a in alpha)] = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError("'custom_fhat' entries must be [alpha, value] pairs, alpha a "
                         "list of integers and value a number") from exc
    # the rule must cover the grid and its upper neighbours: every index of
    # degree at most dmax + 1
    missing = sorted(a for a in TruncationGrid.build(m, dmax + 1).indices if a not in table)
    if missing:
        more = "..." if len(missing) > 4 else ""
        raise ValueError(f"custom coefficient rule is missing {missing[:4]}{more}")
    return DiagonalKernelSpec.custom(m, table), grid, tag


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False) + "\n"
