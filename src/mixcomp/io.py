"""JSON schemas for candidate sets, operators, and reports.

Complex numbers are [re, im] pairs of decimal numbers, matrices are lists
of rows. Every number in a file, a matrix entry or an ensemble weight,
passes one rule: a JSON int or float, not a bool, that fits a double.
Floats go through Python's repr, which is the shortest decimal that
round-trips, so a written set re-reads to bit-identical matrices.
An operator file's matrix is instead one base64 string of its row-major
little-endian complex128 bytes, encoded and written piece by piece from
the matrix's own buffer; readers also accept the rows form.

A malformed file raises InputError, whose message names the state or the
file. The readers decide no exit code: any other error, such as a
MemoryError while a matrix is validated, reaches the caller unchanged.
"""

from __future__ import annotations

import base64
import errno
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

import numpy as np

from .comparison import MeasurementOperator, OperatorKind, Provenance
from .errors import InputError, InternalCheckError
from .states import CandidateSet, DensityMatrix, candidate_set, from_ensemble

SCHEMA_VERSION = 1


def _is_number(x: Any) -> bool:
    """The rule for every number in a file: a JSON int or float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _double(x: Any, context: str) -> float:
    """A number that passes ``_is_number`` as a double; an int too large for one is refused."""
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"{context}: a number is too large for a double") from None


def pair_to_complex(entry: Any, context: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2 or not all(map(_is_number, entry)):
        raise InputError(f"{context}: expected a [re, im] number pair, got {entry!r}")
    return complex(_double(entry[0], context), _double(entry[1], context))


def _weights(weights: list) -> list[float]:
    """Ensemble weights under the number rule of matrix entries; an error names the weight."""
    out = []
    for i, w in enumerate(weights):
        if not _is_number(w):
            raise InputError(f"weight {i}: expected a number, got {w!r}")
        out.append(_double(w, f"weight {i}"))
    return out


def matrix_to_rows(a: np.ndarray) -> list[list[list[float]]]:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def rows_to_matrix(rows: Any, context: str) -> np.ndarray:
    """A list of rows of [re, im] pairs as a complex matrix; an error names its row."""
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{context}: matrix must be a non-empty list of rows")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"{context}: row {r} is not a list")
        if len(row) != len(rows[0]):
            raise InputError(
                f"{context}: row {r} has {len(row)} entries, expected {len(rows[0])}"
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
    """Parse a candidate-set object; an InputError names the offending state label."""
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
                state = from_ensemble(_weights(weights), vs)
            else:
                raise InputError("needs either a 'matrix' or an 'ensemble'")
        except InputError as exc:
            raise InputError(f"state '{label}': {exc}") from exc
        if dim is not None and state.dim != dim:
            raise InputError(
                f"state '{label}' has dimension {state.dim}, file declares dim {dim}"
            )
        labels.append(label)
        states.append(state)
    try:
        return candidate_set(states, labels)
    except InputError as exc:
        raise InputError(f"candidate set: {exc}") from exc


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
    except InputError as exc:
        raise InputError(f"operator file: {exc}") from exc


def load_json(path: str, context: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{context}: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise InputError(f"{context}: {path} is not valid JSON: {exc}") from exc


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The path opened for writing, or stdout for None; an OSError names the path."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def dump_json(obj: Any, path: str | None, indent: int | None = 2) -> None:
    """Write to the path, or to stdout when the path is None.

    Reports are indented for reading. Set files are written compact
    (``indent=None``), which lets CPython use its C encoder: the
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
    with _output(path) as fh:
        fh.write(text + "\n")


def require_writable(path: str | None) -> None:
    """Raise now the InputError a write to ``path`` would raise, creating nothing.

    Refused with open's reason: the empty path, a directory at the path, a
    missing parent, one that is not a directory, and a file or parent that
    the process may not write (reported as EACCES, whatever access(2)
    found). The path None, stdout, is always writable.
    """
    if path is None:
        return
    try:
        if not path:
            code = errno.ENOENT  # what open("") raises
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif os.path.exists(path):
            code = 0 if os.access(path, os.W_OK) else errno.EACCES
        else:
            parent = os.path.dirname(path) or "."
            os.stat(parent)  # a missing parent raises ENOENT, a file on its way ENOTDIR
            if not os.path.isdir(parent):
                code = errno.ENOTDIR
            else:
                code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    except OSError as exc:
        code = exc.errno
    if code:
        raise InputError(f"cannot write {path}: {os.strerror(code)}")


def read_candidate_set(path: str) -> CandidateSet:
    return candidate_set_from_obj(load_json(path, "candidate set"))


def write_candidate_set(cs: CandidateSet, path: str | None) -> None:
    dump_json(candidate_set_to_obj(cs), path, indent=None)


def read_operator(path: str) -> MeasurementOperator:
    return operator_from_obj(load_json(path, "operator file"))


def write_operator(m: MeasurementOperator, path: str | None) -> None:
    """Write json.dumps of the operator object plus a newline, byte for byte.

    The base64 string is never held whole: each 1 MiB piece of it encodes a
    slice of 3 * 2**18 bytes of the matrix's own buffer, and slices of a
    multiple of 3 bytes encode, without padding, to the pieces of the string
    that all the bytes give.
    """
    head = json.dumps({"schema_version": SCHEMA_VERSION, "kind": m.kind.value, "n": m.n,
                       "dim": m.dim, "provenance": m.provenance.value})
    raw = np.ascontiguousarray(m.matrix, "<c16").reshape(-1).view(np.uint8)
    step = 3 << 18
    with _output(path) as fh:
        fh.write(head[:-1] + ', "matrix": "')
        for start in range(0, raw.size, step):
            fh.write(base64.b64encode(raw[start:start + step]).decode("ascii"))
        fh.write('"}\n')
