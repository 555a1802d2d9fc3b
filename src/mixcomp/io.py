"""JSON schemas for candidate sets, operators, and reports.

Complex numbers are [re, im] pairs of decimal numbers, matrices are lists
of rows. Floats go through Python's repr, which is the shortest decimal
that round-trips, so a written set re-reads to bit-identical matrices.
An operator file's matrix is instead one base64 string of its row-major
little-endian complex128 bytes; readers also accept the rows form.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from itertools import chain
from typing import Any

import numpy as np

from .comparison import MeasurementOperator, OperatorKind, Provenance
from .errors import InputError, InternalCheckError
from .states import CandidateSet, DensityMatrix, candidate_set, from_ensemble

SCHEMA_VERSION = 1


def pair_to_complex(entry: Any, context: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise InputError(f"{context}: expected a [re, im] number pair, got {entry!r}")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise InputError(f"{context}: a number is too large for a double") from None


def matrix_to_rows(a: np.ndarray) -> list[list[list[float]]]:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def rows_to_matrix(rows: Any, context: str) -> np.ndarray:
    """A list of rows of [re, im] pairs as a complex matrix.

    One flattening pass checks that every row is a list, every entry a list
    or tuple and every number an int or a float (not a bool), and numpy
    converts all numbers at once. Viewed as complex128, the float64 pairs
    carry the bits of complex(float(re), float(im)), signed zeros included.
    Input that fails any of this takes the entry-by-entry walk, which
    accepts what it always accepted and otherwise names the offending row.
    """
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{context}: matrix must be a non-empty list of rows")
    if all(isinstance(row, list) for row in rows):
        entries = list(chain.from_iterable(rows))
        if set(map(type, entries)) <= {list, tuple} and set(
            map(type, chain.from_iterable(entries))
        ) <= {int, float}:
            try:
                a = np.array(rows, dtype=np.float64)
            except (ValueError, OverflowError):  # ragged rows or pairs, a huge integer
                a = None
            if a is not None and a.shape == (len(rows), len(rows[0]), 2):
                return a.view(np.complex128)[..., 0]
    width = None
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"{context}: row {r} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(
                f"{context}: row {r} has {len(row)} entries, expected {width}"
            )
        out.append([pair_to_complex(e, f"{context}, row {r}") for e in row])
    return np.asarray(out, dtype=np.complex128)


def _base64_to_matrix(text: str, context: str) -> np.ndarray:
    """Base64 of row-major little-endian complex128 bytes; 16 D**2 bytes give side D."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise InputError(f"{context}: not valid base64: {exc}") from None
    side = math.isqrt(len(raw) // 16)
    if side < 1 or 16 * side * side != len(raw):
        raise InputError(f"{context}: {len(raw)} bytes are not 16*D**2 for a positive D")
    return np.frombuffer(raw, "<c16").reshape(side, side)


def _positive_int(value: Any, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputError(f"{context} must be a positive integer, got {value!r}")
    return value


def entries_to_vector(entries: Any, context: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{context}: vector must be a non-empty list of [re, im] pairs")
    return np.asarray(
        [pair_to_complex(e, context) for e in entries], dtype=np.complex128
    )


def _require_version(obj: Any, context: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{context}: top level must be a JSON object")
    v = obj.get("schema_version")
    if isinstance(v, bool) or v != SCHEMA_VERSION:
        raise InputError(
            f"{context}: schema_version {v!r} is not supported (expected {SCHEMA_VERSION})"
        )


def candidate_set_to_obj(cs: CandidateSet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": cs.dim,
        "states": [
            {"label": lbl, "matrix": matrix_to_rows(st.matrix)}
            for lbl, st in zip(cs.labels, cs.states)
        ],
    }


def candidate_set_from_obj(obj: Any) -> CandidateSet:
    """Parse a candidate-set object; messages name the offending state label."""
    _require_version(obj, "candidate set")
    entries = obj.get("states")
    if not isinstance(entries, list) or len(entries) < 2:
        raise InputError("candidate set: 'states' must be a list of at least 2 entries")
    dim = obj.get("dim")
    if dim is not None:
        _positive_int(dim, "candidate set: 'dim'")
    labels = []
    states = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputError(f"candidate set: state #{pos} is not an object")
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise InputError(f"candidate set: state #{pos} needs a non-empty string label")
        try:
            if "matrix" in entry:
                m = rows_to_matrix(entry["matrix"], "matrix")
                state = DensityMatrix(m)
            elif "ensemble" in entry:
                ens = entry["ensemble"]
                if not isinstance(ens, dict):
                    raise InputError("'ensemble' must be an object")
                weights = ens.get("weights")
                vectors = ens.get("vectors")
                if not isinstance(weights, list) or not isinstance(vectors, list):
                    raise InputError("ensemble needs 'weights' and 'vectors' lists")
                vs = [
                    entries_to_vector(v, f"vector {i}") for i, v in enumerate(vectors)
                ]
                state = from_ensemble(weights, vs)
            else:
                raise InputError("needs either a 'matrix' or an 'ensemble'")
        except Exception as exc:
            raise InputError(f"state '{label}': {exc}") from exc
        if dim is not None and state.dim != dim:
            raise InputError(
                f"state '{label}' has dimension {state.dim}, file declares dim {dim}"
            )
        labels.append(label)
        states.append(state)
    try:
        return candidate_set(states, labels)
    except Exception as exc:
        raise InputError(f"candidate set: {exc}") from exc


def operator_to_obj(m: MeasurementOperator) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": m.kind.value,
        "n": m.n,
        "dim": m.dim,
        "provenance": m.provenance.value,
        "matrix": base64.b64encode(m.matrix.astype("<c16", copy=False).tobytes()).decode("ascii"),
    }


def operator_from_obj(obj: Any) -> MeasurementOperator:
    _require_version(obj, "operator file")
    try:
        kind = OperatorKind(obj.get("kind"))
    except ValueError:
        raise InputError(
            f"operator file: 'kind' must be 'M1' or 'M2', got {obj.get('kind')!r}"
        ) from None
    try:
        prov = Provenance(obj.get("provenance"))
    except ValueError:
        raise InputError(
            f"operator file: unknown provenance {obj.get('provenance')!r}, expected "
            f"one of {[p.value for p in Provenance]}"
        ) from None
    if prov.kind is not kind:
        raise InputError(
            f"operator file: provenance {prov.value} is a {prov.kind.value} "
            f"construction but kind says {kind.value}"
        )
    n = _positive_int(obj.get("n"), "operator file: 'n'")
    dim = _positive_int(obj.get("dim"), "operator file: 'dim'")
    matrix = obj.get("matrix")
    if isinstance(matrix, str):
        matrix = _base64_to_matrix(matrix, "operator matrix")
    else:
        matrix = rows_to_matrix(matrix, "operator matrix")
    try:
        return MeasurementOperator(n=n, dim=dim, matrix=matrix, provenance=prov)
    except Exception as exc:
        raise InputError(f"operator file: {exc}") from exc


def load_json(path: str, context: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{context}: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise InputError(f"{context}: {path} is not valid JSON: {exc}") from exc


def dump_json(obj: Any, path: str | None, indent: int | None = 2) -> None:
    """Write to the path, or to stdout when the path is None.

    Reports are indented for reading. Set and operator files are written
    compact (``indent=None``), which lets CPython use its C encoder: the
    indenting one is pure Python and several times slower on a matrix.

    NaN and Infinity are not JSON. Every number written derives from
    validated finite input, so a non-finite one is a bug and raises
    InternalCheckError instead of producing a file no strict parser reads.
    A path that cannot be written raises InputError naming it.
    """
    try:
        text = json.dumps(obj, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise InternalCheckError(f"cannot write strict JSON: {exc}") from exc
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def read_candidate_set(path: str) -> CandidateSet:
    return candidate_set_from_obj(load_json(path, "candidate set"))


def write_candidate_set(cs: CandidateSet, path: str | None) -> None:
    dump_json(candidate_set_to_obj(cs), path, indent=None)


def read_operator(path: str) -> MeasurementOperator:
    return operator_from_obj(load_json(path, "operator file"))


def write_operator(m: MeasurementOperator, path: str | None) -> None:
    dump_json(operator_to_obj(m), path, indent=None)
