import base64
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import io
from mixcomp.comparison import MeasurementOperator, OperatorKind, Provenance, build_m2_pair
from mixcomp.errors import InputError, InternalCheckError
from mixcomp.states import demo_set, random_density, candidate_set


class TestComplexEncoding:
    def test_pair_round_trip(self):
        z = complex(0.1, -2.5)
        assert io.pair_to_complex([z.real, z.imag], "x") == z

    @pytest.mark.parametrize("bad", [[1.0], [1.0, 2.0, 3.0], "ab", [True, 0.0], None, [1.0, "x"]])
    def test_bad_pairs_rejected(self, bad):
        with pytest.raises(InputError):
            io.pair_to_complex(bad, "x")

    def test_matrix_round_trip_is_exact(self):
        m = random_density(3, 2, 99).matrix
        back = io.rows_to_matrix(io.matrix_to_rows(m), "m")
        assert np.array_equal(m, back)

    def test_ragged_matrix_rejected(self):
        rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
        with pytest.raises(InputError) as err:
            io.rows_to_matrix(rows, "m")
        assert "row 1" in str(err.value)

    @staticmethod
    def entrywise(rows, context):
        """The per-entry parse: the reference for bits and for messages."""
        if not isinstance(rows, list) or not rows:
            raise InputError(f"{context}: matrix must be a non-empty list of rows")
        out = []
        for r, row in enumerate(rows):
            if not isinstance(row, list):
                raise InputError(f"{context}: row {r} is not a list")
            if len(row) != len(rows[0]):
                raise InputError(f"{context}: row {r} has {len(row)} entries, expected {len(rows[0])}")
            out.append([io.pair_to_complex(e, f"{context}, row {r}") for e in row])
        return np.asarray(out, dtype=np.complex128)

    @pytest.mark.parametrize("rows", [
        [[[0.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [5e-324, -1.7976931348623157e308]]],
        [[[2**53 + 1, -(2**64) - 1]], [[10**300 + 7, 0]]],
        [[(1, 2.5)]],
        [[[np.float64(1.0), 2.0]]],
        [[[float("nan"), 0.0]]],
        [[]],
        [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
        [[[1.0, 0.0]], "row"],
        [[[True, 0.0]]],
        [[[1.0, "2"]]],
        [[[1.0, 2.0, 3.0]]],
        [[[1.0, [2.0]]]],
        [[{"re": 1.0, "im": 2.0}]],
        [[[10**400, 0]]],
        [[[0.5, 0.5]], [[1.0]]],
    ], ids=lambda rows: repr(rows)[:32])
    def test_matrix_parse_matches_the_entrywise_walk(self, rows):
        try:
            expected = self.entrywise(rows, "m")
        except InputError as exc:
            with pytest.raises(InputError) as err:
                io.rows_to_matrix(rows, "m")
            assert str(err.value) == str(exc)
            return
        got = io.rows_to_matrix(rows, "m")
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_random_matrix_parse_is_bit_exact(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        m[rng.random(m.shape) < 0.1] = -0.0
        rows = json.loads(json.dumps(io.matrix_to_rows(m)))
        assert io.rows_to_matrix(rows, "m").tobytes() == self.entrywise(rows, "m").tobytes()


class TestCandidateSetSchema:
    def test_round_trip_demo_set(self):
        cs = demo_set("eq26")
        back = io.candidate_set_from_obj(io.candidate_set_to_obj(cs))
        assert back.labels == cs.labels
        for i in range(cs.k):
            assert np.array_equal(back.matrix(i), cs.matrix(i))

    def test_ensemble_form_parses(self):
        obj = {
            "schema_version": 1,
            "dim": 2,
            "states": [
                {"label": "a", "ensemble": {"weights": [1.0], "vectors": [[[1.0, 0.0], [0.0, 0.0]]]}},
                {"label": "b", "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            ],
        }
        cs = io.candidate_set_from_obj(obj)
        assert np.array_equal(cs.matrix(0), np.diag([1.0, 0.0]))
        assert np.array_equal(cs.matrix(1), np.diag([0.0, 1.0]))

    def test_wrong_schema_version(self):
        with pytest.raises(InputError) as err:
            io.candidate_set_from_obj({"schema_version": 2, "states": []})
        assert "schema_version" in str(err.value)

    def test_error_names_offending_label(self):
        obj = {
            "schema_version": 1,
            "states": [
                {"label": "good", "matrix": [[[1.0, 0.0]]]},
                {"label": "crooked", "matrix": [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
            ],
        }
        with pytest.raises(InputError) as err:
            io.candidate_set_from_obj(obj)
        assert "crooked" in str(err.value)

    def test_declared_dim_must_match(self):
        obj = {
            "schema_version": 1,
            "dim": 3,
            "states": [
                {"label": "a", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
                {"label": "b", "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            ],
        }
        with pytest.raises(InputError) as err:
            io.candidate_set_from_obj(obj)
        assert "dim" in str(err.value)

    def test_state_without_payload_rejected(self):
        obj = {"schema_version": 1, "states": [{"label": "a"}, {"label": "b"}]}
        with pytest.raises(InputError) as err:
            io.candidate_set_from_obj(obj)
        assert "'a'" in str(err.value)


def reference_obj(m):
    """The operator object whose json.dumps, plus a newline, an operator file must be."""
    return {
        "schema_version": 1,
        "kind": m.kind.value,
        "n": m.n,
        "dim": m.dim,
        "provenance": m.provenance.value,
        "matrix": base64.b64encode(m.matrix.astype("<c16", copy=False).tobytes()).decode("ascii"),
    }


def random_operator(side, n=1):
    rng = np.random.default_rng(side)
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return MeasurementOperator(n=n, dim=round(side ** (1 / n)), matrix=m,
                               provenance=Provenance.M1_MAXIMAL)


# signed zeros, subnormals and +-1e300: entries whose bits a text round trip could lose
ODD_ENTRIES = np.array([[-0.0, 5e-324 - 0.0j], [complex(1e300, -1e300), complex(-0.0, 2.5e-310)]])

WRITTEN = {
    "orth2-eq24": lambda: build_m2_pair(demo_set("orth2"), 2),
    "D=1": lambda: MeasurementOperator(n=1, dim=1, matrix=np.ones((1, 1)),
                                       provenance=Provenance.M2_MAXIMAL),
    "odd-entries": lambda: MeasurementOperator(n=1, dim=2, matrix=ODD_ENTRIES,
                                               provenance=Provenance.M1_MAXIMAL),
    # 1 920 000 base64 characters: two 1 MiB pieces, the second one short
    "D=300": lambda: random_operator(300),
}


class TestOperatorSchema:
    @pytest.mark.parametrize("make", WRITTEN.values(), ids=WRITTEN.keys())
    def test_written_bytes_are_json_dumps_of_the_object(self, make, tmp_path, capsys):
        op = make()
        expected = json.dumps(reference_obj(op)) + "\n"
        path = tmp_path / "op.json"
        io.write_operator(op, str(path))
        assert path.read_bytes() == expected.encode("ascii")
        io.write_operator(op, None)
        assert capsys.readouterr().out == expected

    def test_write_holds_no_whole_copy_of_the_text(self, tmp_path):
        op = random_operator(576, n=2)
        path = str(tmp_path / "op.json")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            io.write_operator(op, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the base64 text alone is 4/3 of the matrix's bytes
        assert peak - before <= 2.5 * op.matrix.nbytes

    def test_round_trip(self):
        op = build_m2_pair(demo_set("orth2"), 2)
        back = io.operator_from_obj(reference_obj(op))
        assert back.n == op.n and back.dim == op.dim
        assert back.provenance is op.provenance
        assert np.array_equal(back.matrix, op.matrix)
        assert back.kind is OperatorKind.M2

    def test_matrix_is_base64_of_little_endian_complex128(self):
        op = build_m2_pair(demo_set("orth2"), 2)
        text = reference_obj(op)["matrix"]
        assert isinstance(text, str) and len(text) == 4 * -(-16 * 16 // 3)
        raw = base64.b64decode(text, validate=True)
        assert np.frombuffer(raw, "<c16").reshape(4, 4).tobytes() == op.matrix.tobytes()

    def test_round_trip_is_bit_exact(self):
        m = ODD_ENTRIES
        op = MeasurementOperator(n=1, dim=2, matrix=m, provenance=Provenance.M1_MAXIMAL)
        back = io.operator_from_obj(json.loads(json.dumps(reference_obj(op))))
        assert back.matrix.tobytes() == m.tobytes()
        assert np.signbit(back.matrix[0, 0].real) and np.signbit(back.matrix[1, 1].real)

    @pytest.mark.parametrize("matrix, message", [
        ("AAAA*AAA", "not valid base64"),
        ("AAAA\u00e9AAA", "not valid base64"),
        ("AAAA\nAAA", "not valid base64"),
        ("AAA", "not valid base64"),
        ("", "0 bytes"),
        (base64.b64encode(bytes(24)).decode(), "24 bytes"),
        (base64.b64encode(bytes(16 * 5)).decode(), "80 bytes"),
        (base64.b64encode(np.eye(3, dtype="<c16").tobytes()).decode(), "does not match dim**n"),
        (base64.b64encode(np.full((4, 4), np.nan, "<c16").tobytes()).decode(), "NaN or Inf"),
        (3.5, "list of rows"),
        ({"re": 1.0}, "list of rows"),
        (None, "list of rows"),
    ], ids=["star", "non-ascii", "newline", "padding", "empty", "partial-entry",
            "not-square", "wrong-side", "nan", "float", "object", "null"])
    def test_malformed_binary_matrix_rejected(self, matrix, message):
        obj = {**reference_obj(build_m2_pair(demo_set("orth2"), 2)), "matrix": matrix}
        with pytest.raises(InputError) as err:
            io.operator_from_obj(obj)
        assert message in str(err.value)

    def test_kind_provenance_mismatch_rejected(self):
        op = build_m2_pair(demo_set("orth2"), 2)
        obj = reference_obj(op)
        obj["kind"] = "M1"
        with pytest.raises(InputError) as err:
            io.operator_from_obj(obj)
        assert "provenance" in str(err.value)

    def test_unknown_provenance_rejected(self):
        op = build_m2_pair(demo_set("orth2"), 2)
        obj = reference_obj(op)
        obj["provenance"] = "homemade"
        with pytest.raises(InputError):
            io.operator_from_obj(obj)

    def test_wrong_matrix_size_rejected(self):
        obj = {
            "schema_version": 1,
            "kind": "M1",
            "n": 2,
            "dim": 2,
            "provenance": "M1_maximal",
            "matrix": io.matrix_to_rows(np.eye(3)),
        }
        with pytest.raises(InputError):
            io.operator_from_obj(obj)


class TestFileHelpers:
    def test_json_files_round_trip(self, tmp_path):
        cs = candidate_set([random_density(2, 1, 1), random_density(2, 2, 2)])
        path = tmp_path / "set.json"
        io.write_candidate_set(cs, str(path))
        again = io.read_candidate_set(str(path))
        for i in range(2):
            assert np.array_equal(again.matrix(i), cs.matrix(i))

    def test_unreadable_path(self):
        with pytest.raises(InputError):
            io.read_candidate_set("/nonexistent/set.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(InputError) as err:
            io.read_candidate_set(str(p))
        assert "JSON" in str(err.value)

    def test_dump_to_stdout(self, capsys):
        io.dump_json({"x": 1}, None)
        out = capsys.readouterr().out
        assert json.loads(out) == {"x": 1}

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_refused_and_nothing_written(self, tmp_path, bad):
        path = tmp_path / "report.json"
        with pytest.raises(InternalCheckError):
            io.dump_json({"p": bad}, str(path))
        assert not path.exists()

    def test_empty_path_refused_as_open_refuses_it(self):
        with pytest.raises(InputError) as err:
            io.require_writable("")
        with pytest.raises(InputError) as late:
            io.dump_json({"x": 1}, "")
        assert str(err.value) == str(late.value) == "cannot write : No such file or directory"

    def test_require_writable_creates_nothing_and_names_a_denied_write(self, tmp_path, monkeypatch):
        target = tmp_path / "r.json"
        io.require_writable(None)
        io.require_writable(str(target))
        assert not target.exists()
        monkeypatch.setattr(io.os, "access", lambda *args: False)
        denied = f"cannot write {target}: Permission denied"
        # the parent of a new file
        with pytest.raises(InputError) as err:
            io.require_writable(str(target))
        assert str(err.value) == denied
        # an existing file, left as it was
        target.write_text("kept")
        with pytest.raises(InputError) as err:
            io.require_writable(str(target))
        assert str(err.value) == denied
        assert target.read_text() == "kept"


# Any JSON value, with the numbers a strict parser refuses or a double cannot hold
NUMBERS = (st.integers() | st.sampled_from([10**400, -(10**400), 2**1024]) | st.floats())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=12,
)
# lists of [re, im] pairs and lists of those, so that validation sees odd numbers
PAIRS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=3)
SHAPED = PAIRS | st.lists(PAIRS, min_size=1, max_size=3)
BASE64 = st.binary(max_size=80).map(lambda raw: base64.b64encode(raw).decode())


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "file.json"


def read_back(path, obj, reader):
    """The reader's result on ``obj`` written to ``path``; only an InputError may escape."""
    path.write_text(json.dumps(obj))
    try:
        return reader(str(path))
    except InputError:
        return None


class TestReaderContract:
    """Whatever JSON value a field holds, a reader returns or raises InputError."""

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(["matrix", "weights", "vectors", "label", "dim"]),
           value=JSON_VALUES | SHAPED)
    def test_set_reader(self, scratch_file, field, value):
        e0, e1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
        obj = {"schema_version": 1, "states": [
            {"label": "a", "ensemble": {"weights": [0.5, 0.5], "vectors": [e0, e1]}},
            {"label": "b", "matrix": [[[0.0, 0.0]] * 2, e1]},
        ]}
        if field == "dim":
            obj["dim"] = value
        elif field == "matrix":
            obj["states"][1]["matrix"] = value
        elif field == "label":
            obj["states"][1]["label"] = value
        else:
            obj["states"][0]["ensemble"][field] = value
        cs = read_back(scratch_file, obj, io.read_candidate_set)
        if cs is not None:
            assert all(np.all(np.isfinite(st.matrix)) for st in cs.states)

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(["n", "dim", "kind", "provenance", "matrix"]),
           value=JSON_VALUES | SHAPED | BASE64)
    def test_operator_reader(self, scratch_file, field, value):
        obj = {**reference_obj(build_m2_pair(demo_set("orth2"), 2)), field: value}
        op = read_back(scratch_file, obj, io.read_operator)
        if op is not None:
            assert np.all(np.isfinite(op.matrix))
