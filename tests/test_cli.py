import base64
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mixcomp import cli, comparison, io, oracle
from mixcomp.cli import analyze_set, format_summary, main
from mixcomp.comparison import DEFAULT_CAP, MeasurementOperator, Provenance, build_m1, residuals_ok
from mixcomp.errors import InternalCheckError
from mixcomp.linalg import Tolerances
from mixcomp.states import DensityMatrix, candidate_set, demo_set, random_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_demo(tmp_path, name):
    path = tmp_path / f"{name}.json"
    io.write_candidate_set(demo_set(name), str(path))
    return str(path)


def set_led_by(entry):
    """A set file whose first state entry is ``entry``, followed by a valid one."""
    return {"schema_version": 1, "states": [entry, {"label": "b", "matrix": [[[1, 0]]]}]}


def b64(m):
    """The operator-file encoding of a matrix."""
    return base64.b64encode(np.asarray(m, "<c16").tobytes()).decode()


class TestAnalyze:
    def test_eq26_n2_reports_no_m2(self, tmp_path, capsys):
        path = write_demo(tmp_path, "eq26")
        code, out, err = run(capsys, "analyze", path, "--n", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["existence"] == {"m1": False, "m2": False}
        assert rep["conditions"]["m2_necessary"] is True
        assert "m2_necessary" in err

    def test_eq26_n3_reports_m2_with_quarter_probability(self, tmp_path, capsys):
        path = write_demo(tmp_path, "eq26")
        code, out, _ = run(capsys, "analyze", path, "--n", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["existence"]["m2"] is True
        maximal = next(op for op in rep["operators"] if op["provenance"] == "M2_maximal")
        assert maximal["best_distinct_probability"] >= 0.25 - 1e-9
        assert maximal["best_distinct_tuple"] == [0, 1, 2]

    def test_out_file_moves_summary_to_stdout(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "analyze", path, "--n", "2", "--out", str(out_path))
        assert code == 0
        assert err == ""
        assert "corollary1" in out
        rep = json.loads(out_path.read_text())
        assert rep["conditions"]["corollary1"] is True
        assert rep["povm"]["assembled"] is True
        assert rep["povm"]["alpha"] == 1.0

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "states": "nope"}')
        code, _, err = run(capsys, "analyze", str(bad), "--n", "2")
        assert code == 2
        assert "states" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "/does/not/exist.json", "--n", "2")
        assert code == 2

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        code, _, err = run(capsys, "analyze", path, "--n", "13")
        assert code == 3
        assert "cap" in err

    def test_n_below_two_exits_2(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        code, _, _ = run(capsys, "analyze", path, "--n", "1")
        assert code == 2
        code, _, err = run(capsys, "construct", path, "--n", "1", "--operator", "m1",
                           "--method", "eq13")
        assert code == 2
        assert "tuple size n" in err

    def test_supports_computed_once_per_tolerances(self, monkeypatch):
        cs = candidate_set([random_density(3, 1, seed) for seed in (1, 2, 3)])
        calls = []
        support_of = comparison.support_of

        def counted(*args, **kwargs):
            calls.append(args)
            return support_of(*args, **kwargs)

        monkeypatch.setattr(comparison, "support_of", counted)
        rep = analyze_set(cs, 3, Tolerances(), DEFAULT_CAP)
        # both maximal operators and all three explicit constructions ran
        assert len(rep["operators"]) == 5
        assert len(calls) == 3
        analyze_set(cs, 3, Tolerances(), DEFAULT_CAP)
        assert len(calls) == 3
        analyze_set(cs, 3, Tolerances(1e-8), DEFAULT_CAP)
        assert len(calls) == 6

    def test_povm_holds_one_operator_per_kind(self, monkeypatch):
        products, freed = [], []
        build_m2_product, assemble_povm = cli.build_m2_product, cli.assemble_povm

        def product(*args):
            op = build_m2_product(*args)
            products.append(weakref.ref(op))
            return op

        def assemble(*args):
            freed.extend(ref() is None for ref in products)
            return assemble_povm(*args)

        monkeypatch.setattr(cli, "build_m2_product", product)
        monkeypatch.setattr(cli, "assemble_povm", assemble)
        rep = analyze_set(demo_set("orth2"), 2, Tolerances(), DEFAULT_CAP)
        assert [op["provenance"] for op in rep["operators"]][2:] == [
            "M1_eq13", "M2_product_eq27", "M2_pair_eq24",
        ]
        # eq. 24 took the M2 slot and released the eq. 27 operator
        assert freed == [True]
        assert rep["povm"]["m2_provenance"] == "M2_pair_eq24"

    @pytest.mark.parametrize("cs,n,zero", [
        (demo_set("orth2"), 2, None),
        # M1 maximal proven zero by the generator, M2 maximal from the span
        # loop, and the eq27 product built
        (candidate_set([random_density(3, 1, 1), random_density(3, 2, 12),
                        random_density(3, 2, 22)]), 3, "M1_maximal"),
    ], ids=["orth2-povm", "certified-zero"])
    def test_no_eigensolve_outside_povm(self, monkeypatch, cs, n, zero):
        solves, certificates = [], []
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                solves.append(np.shape(a)[0])
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        span_certificate = comparison._span_certificate

        def counted(*args):
            cert = span_certificate(*args)
            certificates.append(cert is not None and cert[0] > cert[1])
            return cert

        monkeypatch.setattr(comparison, "_span_certificate", counted)
        rep = analyze_set(cs, n, Tolerances(), DEFAULT_CAP)
        # every operator's self-check and rank come from its eps certificate,
        # the generator certificate from a Cholesky factorization, and the
        # POVM's lowest eigenvalue from the explicit operators' d x d factors
        assert cs.dim ** n not in solves
        if zero is None:
            assert rep["povm"]["assembled"] is True
        else:
            assert len(rep["operators"]) == 3 and any(certificates)
            assert next(op["rank"] for op in rep["operators"] if op["provenance"] == zero) == 0

    @pytest.mark.parametrize("text", [
        b'{"schema_version": 1, "states": [[[[1' + b"0" * 5000 + b', 0]]]]}',
        b'{"schema_version": 1, "states": ' + b"[" * 100000 + b"]" * 100000 + b"}",
        b'{"schema_version": 1, "states": "\xff\xfe"}',
    ], ids=["5001-digit-integer", "deep-nesting", "not-utf8"])
    def test_unparsable_set_file_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        code, _, err = run(capsys, "analyze", str(bad), "--n", "2")
        assert code == 2
        assert "Traceback" not in err
        assert "is not valid JSON" in err

    def test_report_fields_echo_inputs(self, tmp_path, capsys):
        path = write_demo(tmp_path, "nested2")
        code, out, _ = run(capsys, "analyze", path, "--n", "2", "--tol", "1e-8")
        rep = json.loads(out)
        assert rep["input"]["k"] == 2
        assert rep["input"]["dim"] == 2
        assert rep["input"]["tolerances"]["rank"] == 1e-8
        assert rep["input"]["tolerances"]["sym"] == 1e-9
        assert rep["reduction"]["survivors"] == [1]

    @pytest.mark.xfail(raises=InternalCheckError, strict=True, reason=(
        "the eq. 13 operator is unambiguous, but its best identical tuple fires with "
        "0.2851**3 = 0.0232 < tol.prob = 0.03, and analyze aborts with exit 4"))
    def test_witness_below_probability_resolution_is_no_internal_error(self):
        # a diagonal corpus set: candidate 1 puts weight 0.2851 outside the others'
        # span, so P^(x3) fires below tol.prob. No nonzero eigenvalue is below 0.2851,
        # so the supports are the same at 3e-2 as at 1e-9: nothing is truncated.
        cs = candidate_set([
            np.diag([0.30257022173252335, 0.0, 0.6974297782674767]),
            np.diag([0.0, 0.28511536057937426, 0.7148846394206257]),
            np.diag([0.40036805049743485, 0.0, 0.5996319495025652]),
        ])
        rep = analyze_set(cs, 3, Tolerances(3e-2), DEFAULT_CAP)
        assert rep["conditions"]["m1_witnesses"] == [1]

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "the eq. 13 operator of three rank-1 states is unambiguous, but its best identical "
        "tuple fires at 1.004e-10 < tol.prob = 1e-9, and analyze exits 4"))
    def test_rank_one_witness_below_probability_resolution_exits_0(self, tmp_path, capsys):
        path = str(tmp_path / "set.json")
        gen = ("gen", "--d", "3", "--k", "3", "--ranks", "1,1,1", "--seed", "3425877822")
        assert run(capsys, *gen, "--out", path)[0] == 0
        code, _, err = run(capsys, "analyze", path, "--n", "5")
        assert code == 0, err


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(True)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["gen", "--d", "2", "--k", "2", "--ranks", "1,1"]) == 0
        assert main(["gen", "--d", "0", "--k", "2", "--ranks", "1,1"]) == 2
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


class TestToleranceResolution:
    def test_env_var_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MIXCOMP_TOL", "1e-6")
        path = write_demo(tmp_path, "orth2")
        code, out, _ = run(capsys, "analyze", path, "--n", "2")
        assert code == 0
        assert json.loads(out)["input"]["tolerances"]["rank"] == 1e-6

    def test_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MIXCOMP_TOL", "not-a-number")
        path = write_demo(tmp_path, "orth2")
        code, out, _ = run(capsys, "analyze", path, "--n", "2", "--tol", "1e-9")
        assert code == 0
        assert json.loads(out)["input"]["tolerances"]["rank"] == 1e-9

    def test_broken_env_var_without_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MIXCOMP_TOL", "not-a-number")
        path = write_demo(tmp_path, "orth2")
        code, _, err = run(capsys, "analyze", path, "--n", "2")
        assert code == 2
        assert "MIXCOMP_TOL" in err

    def test_nonpositive_tol_exits_2(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        code, _, _ = run(capsys, "analyze", path, "--n", "2", "--tol", "0")
        assert code == 2

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_tol_flag_exits_2(self, tmp_path, capsys, bad):
        path = write_demo(tmp_path, "orth2")
        out_path = tmp_path / "report.json"
        code, _, err = run(capsys, "analyze", path, "--n", "2", f"--tol={bad}",
                           "--out", str(out_path))
        assert code == 2
        assert "finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_env_var_exits_2(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.setenv("MIXCOMP_TOL", bad)
        path = write_demo(tmp_path, "orth2")
        code, out, err = run(capsys, "analyze", path, "--n", "2")
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestConstruct:
    @pytest.mark.parametrize(
        "name,operator,method,n",
        [
            ("orth2", "m1", "eq13", 2),
            ("orth2", "m1", "maximal", 2),
            ("orth2", "m2", "eq24", 2),
            ("orth2", "m2", "eq27", 2),
            ("eq26", "m2", "eq27", 3),
            ("eq26", "m2", "maximal", 3),
        ],
    )
    def test_builds_and_round_trips(self, tmp_path, capsys, name, operator, method, n):
        path = write_demo(tmp_path, name)
        out_path = tmp_path / "op.json"
        code, _, _ = run(
            capsys, "construct", path, "--n", str(n),
            "--operator", operator, "--method", method, "--out", str(out_path),
        )
        assert code == 0
        op = io.read_operator(str(out_path))
        assert op.n == n
        assert residuals_ok(op.residuals(), Tolerances())

    def test_stdout_payload_parses(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        code, out, err = run(capsys, "construct", path, "--n", "2", "--operator", "m1", "--method", "eq13")
        assert code == 0
        obj = json.loads(out)
        assert obj["provenance"] == "M1_eq13"
        assert "rank" in err

    def test_operator_method_mismatch_exits_2(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        code, _, err = run(capsys, "construct", path, "--n", "2", "--operator", "m1", "--method", "eq27")
        assert code == 2
        assert "eq27" in err

    def test_i0_restricted_to_eq13(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        code, _, _ = run(
            capsys, "construct", path, "--n", "2",
            "--operator", "m2", "--method", "eq24", "--i0", "0",
        )
        assert code == 2

    def test_infeasible_construction_exits_2(self, tmp_path, capsys):
        path = write_demo(tmp_path, "eq26")
        code, _, err = run(capsys, "construct", path, "--n", "2", "--operator", "m1", "--method", "eq13")
        assert code == 2
        assert "escape" in err or "exist" in err

    def test_reused_parser_keeps_no_state(self, tmp_path, capsys, monkeypatch):
        # --i0 1 in one call must not reach the next call of the same process:
        # each output equals the one of a process of its own
        path = write_demo(tmp_path, "orth2")
        base = ["construct", path, "--n", "2", "--operator", "m1", "--method", "eq13"]
        calls = [base + ["--i0", "1"], base]
        in_process = []
        for i, argv in enumerate(calls):
            out = tmp_path / f"op-{i}.json"
            code, stdout, err = run(capsys, *argv, "--out", str(out))
            in_process.append((code, stdout, err, out.read_bytes()))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        for i, argv in enumerate(calls):
            out = tmp_path / f"alone-{i}.json"
            proc = subprocess.run([sys.executable, "-m", "mixcomp.cli", *argv, "--out", str(out)],
                                  capture_output=True, text=True, env=env, check=False)
            assert in_process[i] == (proc.returncode, proc.stdout, proc.stderr, out.read_bytes())
        assert in_process[0][3] != in_process[1][3]

    def test_too_short_tuple_exits_2(self, tmp_path, capsys):
        path = write_demo(tmp_path, "eq26")
        code, _, err = run(capsys, "construct", path, "--n", "2", "--operator", "m2", "--method", "eq27")
        assert code == 2
        assert "n >= 3" in err

    def test_operator_firing_on_forbidden_tuple_exits_4_unwritten(
            self, tmp_path, capsys, monkeypatch):
        path = write_demo(tmp_path, "orth2")
        out_path = tmp_path / "op.json"
        monkeypatch.setattr(cli, "build_m2_pair", lambda cs, n, tol, cap: MeasurementOperator(
            n, cs.dim, np.eye(cs.dim**n), Provenance.M2_PAIR_EQ24))
        code, out, err = run(capsys, "construct", path, "--n", "2", "--operator", "m2",
                             "--method", "eq24", "--out", str(out_path))
        assert (code, out) == (4, "")
        assert err == ("internal error: M2_pair_eq24 operator fired on forbidden tuple (0, 0) "
                       "with probability 1.000e+00\n")
        assert not out_path.exists()


class TestVerify:
    def test_constructed_operator_passes(self, tmp_path, capsys):
        set_path = write_demo(tmp_path, "eq26")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "3", "--operator", "m2",
            "--method", "eq27", "--out", str(op_path))
        code, out, _ = run(capsys, "verify", str(op_path), set_path)
        assert code == 0
        rep = json.loads(out)
        assert rep["invariants"]["valid"] is True
        assert rep["unambiguous"]["ok"] is True
        assert rep["nontrivial"]["ok"] is True
        assert rep["nontrivial"]["best_probability"] == pytest.approx(0.125)

    def test_tampered_operator_reported_not_crashed(self, tmp_path, capsys):
        set_path = write_demo(tmp_path, "orth2")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "2", "--operator", "m2",
            "--method", "eq24", "--out", str(op_path))
        obj = json.loads(op_path.read_text())
        obj["matrix"] = io.matrix_to_rows(3.0 * io.read_operator(str(op_path)).matrix)
        op_path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(op_path), set_path)
        assert code == 0
        rep = json.loads(out)
        assert rep["invariants"]["valid"] is False
        assert rep["invariants"]["above_identity"] == pytest.approx(2.0)

    @pytest.fixture
    def solves(self, monkeypatch):
        """The side of every eigvalsh the verify run makes."""
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a)[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @staticmethod
    def rewritten(op_path, matrix):
        """Replace the operator file's matrix, keeping its other fields."""
        obj = json.loads(op_path.read_text())
        obj["matrix"] = io.matrix_to_rows(matrix)
        op_path.write_text(json.dumps(obj))

    @pytest.mark.parametrize("name,operator,method,rank", [
        ("eq26", "m2", "eq27", 1),
        ("gen", "m1", "maximal", 46),
        ("gen", "m2", "maximal", 55),
    ])
    def test_projector_file_is_certified_without_eigensolve(
            self, tmp_path, capsys, solves, name, operator, method, rank):
        if name == "gen":
            set_path = str(tmp_path / "set.json")
            run(capsys, "gen", "--d", "4", "--k", "2", "--ranks", "1,2", "--seed", "1",
                "--out", set_path)
        else:
            set_path = write_demo(tmp_path, name)
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "3", "--operator", operator,
            "--method", method, "--out", str(op_path))
        solves.clear()
        code, out, _ = run(capsys, "verify", str(op_path), set_path)
        assert code == 0
        rep = json.loads(out)
        op = io.read_operator(str(op_path))
        side = len(op.matrix)
        assert side not in solves
        inv = rep["invariants"]
        assert inv["certified"] is True and inv["valid"] is True
        assert rep["operator"]["rank"] == rank and rep["unambiguous"]["ok"] is True
        # the reported bound is near(eps) of the file's own product, and it
        # bounds what one eigvalsh of the same matrix returns
        assert inv["psd_violation"] == inv["above_identity"] == op._near() <= 1e-9
        assert inv["projector_residual"] == op._projector_bound()[0]
        w = np.linalg.eigvalsh(comparison._hermitian_part(op.matrix))
        assert inv["psd_violation"] >= max(0.0, -float(w[0]))
        assert inv["above_identity"] >= max(0.0, float(w[-1]) - 1.0)

    def test_non_projector_file_takes_one_eigensolve(self, tmp_path, capsys, solves):
        # half a projector: eigenvalues 0 and 1/2, valid but no projector
        set_path = write_demo(tmp_path, "eq26")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "3", "--operator", "m2",
            "--method", "eq27", "--out", str(op_path))
        half = 0.5 * io.read_operator(str(op_path)).matrix
        self.rewritten(op_path, half)
        solves.clear()
        code, out, _ = run(capsys, "verify", str(op_path), set_path)
        assert code == 0
        inv = json.loads(out)["invariants"]
        assert solves == [27]
        w = np.linalg.eigvalsh(comparison._hermitian_part(half))
        assert inv["certified"] is False and inv["valid"] is True
        assert inv["psd_violation"] == max(0.0, -float(w[0]))
        assert inv["above_identity"] == max(0.0, float(w[-1]) - 1.0) == 0.0

    def test_negative_eigenvalue_file_stays_invalid(self, tmp_path, capsys):
        # an exact projector with one kernel eigenvalue pushed to -1e-6
        set_path = write_demo(tmp_path, "eq26")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "3", "--operator", "m2",
            "--method", "eq27", "--out", str(op_path))
        m = io.read_operator(str(op_path)).matrix
        _, v = np.linalg.eigh(m)
        x = v[:, :1]
        self.rewritten(op_path, m - 1e-6 * (x @ x.conj().T))
        code, out, _ = run(capsys, "verify", str(op_path), set_path)
        assert code == 0
        inv = json.loads(out)["invariants"]
        assert inv["certified"] is False and inv["valid"] is False
        assert inv["psd_violation"] == pytest.approx(1e-6, rel=1e-6)

    def test_non_hermitian_operator_exits_2(self, tmp_path, capsys):
        set_path = write_demo(tmp_path, "orth2")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "2", "--operator", "m1",
            "--method", "eq13", "--out", str(op_path))
        obj = json.loads(op_path.read_text())
        m = io.read_operator(str(op_path)).matrix.copy()
        m[0, 1] += 1e-6
        obj["matrix"] = io.matrix_to_rows(m)
        op_path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", str(op_path), set_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrix is not Hermitian: ")

    def test_non_hermitian_operator_exits_before_the_scan(self, tmp_path, capsys, monkeypatch):
        set_path = write_demo(tmp_path, "orth2")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "2", "--operator", "m1",
            "--method", "eq13", "--out", str(op_path))
        obj = json.loads(op_path.read_text())
        m = io.read_operator(str(op_path)).matrix.copy()
        m[0, 1] += 1e-6
        obj["matrix"] = io.matrix_to_rows(m)
        op_path.write_text(json.dumps(obj))
        scans, solves = [], []
        scan, eigvalsh = oracle._probabilities, np.linalg.eigvalsh

        def counted_scan(*args):
            scans.append(args)
            return scan(*args)

        def counted_solve(*args, **kwargs):
            solves.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(oracle, "_probabilities", counted_scan)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_solve)
        code, out, err = run(capsys, "verify", str(op_path), set_path)
        assert (code, out) == (2, "")
        assert err.startswith("error: matrix is not Hermitian: ")
        assert scans == [] and solves == []

    def test_cap_below_the_operator_exits_3_without_a_report(self, tmp_path, capsys):
        set_path = write_demo(tmp_path, "orth2")
        op_path, rep_path = tmp_path / "op.json", tmp_path / "rep.json"
        run(capsys, "construct", set_path, "--n", "2", "--operator", "m1",
            "--method", "eq13", "--out", str(op_path))
        code, out, err = run(capsys, "verify", str(op_path), set_path,
                             "--cap", "3", "--out", str(rep_path))
        assert (code, out) == (3, "")
        assert err == "error: composite dimension 2**2 = 4 exceeds cap 3; raise the cap to proceed\n"
        assert not rep_path.exists()
        code, _, _ = run(capsys, "verify", str(op_path), set_path, "--cap", "4",
                         "--out", str(rep_path))
        assert code == 0 and rep_path.exists()

    def test_overflowing_entry_exits_2(self, tmp_path, capsys):
        set_path = write_demo(tmp_path, "orth2")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "2", "--operator", "m1",
            "--method", "eq13", "--out", str(op_path))
        obj = json.loads(op_path.read_text())
        obj["matrix"] = io.matrix_to_rows(io.read_operator(str(op_path)).matrix)
        obj["matrix"][0][0][0] = 10**400
        op_path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "verify", str(op_path), set_path)
        assert code == 2
        assert "Traceback" not in err
        assert "too large" in err

    def test_binary_and_rows_forms_give_identical_reports(self, tmp_path, capsys):
        set_path = tmp_path / "set.json"
        io.write_candidate_set(
            candidate_set([random_density(3, 1, 11), random_density(3, 2, 12)]), str(set_path))
        op_path, rows_path = tmp_path / "op.json", tmp_path / "rows.json"
        code, _, _ = run(capsys, "construct", str(set_path), "--n", "2", "--operator", "m1",
                         "--method", "maximal", "--out", str(op_path))
        assert code == 0
        obj = json.loads(op_path.read_text())
        assert isinstance(obj["matrix"], str)
        obj["matrix"] = io.matrix_to_rows(io.read_operator(str(op_path)).matrix)
        rows_path.write_text(json.dumps(obj))
        binary = run(capsys, "verify", str(op_path), str(set_path))
        assert binary[0] == 0 and json.loads(binary[1])["invariants"]["valid"] is True
        assert run(capsys, "verify", str(rows_path), str(set_path)) == binary

    @pytest.mark.parametrize("tamper, message", [
        (lambda text, m: "*" + text[1:], "error: operator matrix: not valid base64: "),
        (lambda text, m: b64(m.ravel()[:-1]), "error: operator matrix: 240 bytes "),
        (lambda text, m: b64(np.eye(2)), "error: operator file: operator shape (2, 2) "),
        (lambda text, m: b64(np.where(np.eye(4), np.inf, m)), "error: operator file: "
         "operator contains NaN or Inf"),
        (lambda text, m: b64(m + 1e-6 * np.eye(4, k=1)), "error: matrix is not Hermitian: "),
        (lambda text, m: 42, "error: operator matrix: matrix must be a non-empty list of rows"),
    ], ids=["character", "byte-count", "side", "inf", "non-hermitian", "number"])
    def test_malformed_binary_matrix_exits_2(self, tmp_path, capsys, tamper, message):
        set_path = write_demo(tmp_path, "orth2")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "2", "--operator", "m1",
            "--method", "eq13", "--out", str(op_path))
        obj = json.loads(op_path.read_text())
        obj["matrix"] = tamper(obj["matrix"], io.read_operator(str(op_path)).matrix)
        op_path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", str(op_path), set_path)
        assert (code, out) == (2, "")
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("target, field, message", [
        ("operator", "n", "operator file: 'n' must be a positive integer, got True"),
        ("operator", "dim", "operator file: 'dim' must be a positive integer, got True"),
        ("operator", "schema_version", "operator file: schema_version True is not supported"),
        ("set", "dim", "candidate set: 'dim' must be a positive integer, got True"),
        ("set", "schema_version", "candidate set: schema_version True is not supported"),
    ], ids=["operator-n", "operator-dim", "operator-version", "set-dim", "set-version"])
    def test_boolean_for_an_integer_field_exits_2(self, tmp_path, capsys, target, field, message):
        set_path = write_demo(tmp_path, "orth2")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", set_path, "--n", "2", "--operator", "m1",
            "--method", "eq13", "--out", str(op_path))
        path = op_path if target == "operator" else Path(set_path)
        obj = json.loads(path.read_text())
        obj[field] = True
        if (target, field) == ("operator", "n"):  # dim**True = 2: a 2x2 matrix passes the shape check
            obj["matrix"] = io.matrix_to_rows(np.diag([1.0, 0.0]))
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", str(op_path), set_path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        orth2 = write_demo(tmp_path, "orth2")
        eq26 = write_demo(tmp_path, "eq26")
        op_path = tmp_path / "op.json"
        run(capsys, "construct", orth2, "--n", "2", "--operator", "m1",
            "--method", "eq13", "--out", str(op_path))
        code, _, _ = run(capsys, "verify", str(op_path), eq26)
        assert code == 2


class TestGen:
    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "gen", "--d", "3", "--k", "2", "--ranks", "1,2", "--seed", "5", "--out", str(a))
        run(capsys, "gen", "--d", "3", "--k", "2", "--ranks", "1,2", "--seed", "5", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_generated_set_analyzes(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        run(capsys, "gen", "--d", "2", "--k", "2", "--ranks", "1,1", "--seed", "3", "--out", str(path))
        code, out, _ = run(capsys, "analyze", str(path), "--n", "2")
        assert code == 0
        assert json.loads(out)["input"]["k"] == 2

    def test_rank_count_must_match_k(self, capsys):
        code, _, err = run(capsys, "gen", "--d", "3", "--k", "2", "--ranks", "1,2,3")
        assert code == 2
        assert "ranks" in err

    def test_rank_out_of_range(self, capsys):
        code, _, _ = run(capsys, "gen", "--d", "2", "--k", "2", "--ranks", "1,3")
        assert code == 2

    def test_non_numeric_ranks(self, capsys):
        code, _, _ = run(capsys, "gen", "--d", "2", "--k", "2", "--ranks", "1,x")
        assert code == 2

    def test_identical_states_exit_2(self, capsys):
        # in d = 1 every state is [[1]]
        code, out, err = run(capsys, "gen", "--d", "1", "--k", "2", "--ranks", "1,1")
        assert (code, out) == (2, "")
        assert err.startswith("error: generated set is invalid: states 'sigma1' and 'sigma2' ")
        assert "numerically identical" in err and len(err.splitlines()) == 1

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "gen", "--d", "2", "--k", "2", "--ranks", "1,1", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --seed must be non-negative, got -1\n"


class TestDemo:
    def test_eq26_writes_set_and_reports(self, tmp_path, capsys):
        code, out, _ = run(capsys, "demo", "eq26", "--out-dir", str(tmp_path))
        assert code == 0
        n2 = json.loads((tmp_path / "eq26_report_n2.json").read_text())
        n3 = json.loads((tmp_path / "eq26_report_n3.json").read_text())
        assert n2["existence"]["m2"] is False
        assert n3["existence"]["m2"] is True
        assert n2["existence"]["m1"] is False and n3["existence"]["m1"] is False
        cs = io.read_candidate_set(str(tmp_path / "eq26.json"))
        assert cs.k == 3

    def test_orth2_has_both_and_povm(self, tmp_path, capsys):
        code, _, _ = run(capsys, "demo", "orth2", "--out-dir", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "orth2_report_n2.json").read_text())
        assert rep["existence"] == {"m1": True, "m2": True}
        assert rep["conditions"]["corollary1"] is True
        assert rep["povm"]["assembled"] is True
        assert rep["povm"]["inconclusive_min_eigenvalue"] >= -1e-9

    def test_nested2_m1_only(self, tmp_path, capsys):
        code, _, _ = run(capsys, "demo", "nested2", "--out-dir", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "nested2_report_n2.json").read_text())
        assert rep["existence"] == {"m1": True, "m2": False}
        assert rep["conditions"]["corollary1"] is False

    def test_unknown_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "wat"])
        assert exc.value.code == 2

    def test_out_dir_naming_a_file_exits_2(self, tmp_path, capsys):
        path = write_demo(tmp_path, "orth2")
        code, out, err = run(capsys, "demo", "orth2", "--out-dir", path)
        assert (code, out) == (2, "")
        assert err == f"error: cannot create directory {path}: File exists\n"


class TestRoundTrip:
    def test_rewritten_set_gives_bit_identical_verdicts(self, tmp_path, capsys):
        first = tmp_path / "gen.json"
        run(capsys, "gen", "--d", "3", "--k", "3", "--ranks", "1,2,2", "--seed", "17",
            "--out", str(first))
        cs1 = io.read_candidate_set(str(first))
        second = tmp_path / "rewritten.json"
        io.write_candidate_set(cs1, str(second))
        cs2 = io.read_candidate_set(str(second))
        tol = Tolerances()
        rep1 = analyze_set(cs1, 2, tol, 4096)
        rep2 = analyze_set(cs2, 2, tol, 4096)
        assert rep1 == rep2

    def test_summary_is_pure_function_of_report(self, tmp_path, capsys):
        cs = demo_set("eq26")
        rep = analyze_set(cs, 3, Tolerances(), 4096)
        assert format_summary(rep) == format_summary(json.loads(json.dumps(rep)))


class TestSummaryTable:
    """The best-tuple column is at least 12 wide and one wider than its longest tuple."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_long_tuples_keep_a_space_before_p(self, n):
        rep = analyze_set(demo_set("orth2"), n, Tolerances(), DEFAULT_CAP)
        lines = format_summary(rep).splitlines()
        header = lines.index("operators:") + 1
        at = lines[header].index(" p ") + 1
        for op, row in zip(rep["operators"], lines[header + 1:]):
            tup = cli._fmt_tuple(op["best_tuple"])
            assert row[at - 1] == " " and row[:at].rstrip().endswith(" " + tup)
            assert float(row[at:]) == op["best_probability"]

    def test_short_tuples_keep_their_bytes(self):
        rep = analyze_set(demo_set("orth2"), 5, Tolerances(), DEFAULT_CAP)
        table = format_summary(rep).splitlines()[9:15]
        assert table == [
            "  provenance        rank  unambig nontriv best tuple  p         ",
            "  M1_maximal           2  true    true    (0,0,0,0,0) 1         ",
            "  M2_maximal          30  true    true    (0,0,0,0,1) 1         ",
            "  M1_eq13              1  true    true    (0,0,0,0,0) 1         ",
            "  M2_product_eq27      8  true    true    (1,0,0,0,0) 1         ",
            "  M2_pair_eq24         8  true    true    (1,0,0,0,0) 1         ",
        ]


class TestUnboundedInputs:
    """Inputs that once did unbounded work or ended in a traceback."""

    @pytest.mark.parametrize("n", ["5000", "100000"])
    def test_huge_n_exits_3_without_forming_the_dimension(self, tmp_path, capsys, n):
        path = write_demo(tmp_path, "orth2")
        code, out, err = run(capsys, "analyze", path, "--n", n)
        assert (code, out) == (3, "")
        assert err == f"error: composite dimension 2**{n} exceeds cap 4096; raise the cap to proceed\n"

    @pytest.mark.parametrize("n, dim, side", [(10**7, 3, 1), (2, 10**4000, 4)],
                             ids=["huge-n", "huge-dim"])
    def test_operator_file_with_huge_power_exits_2(self, tmp_path, capsys, n, dim, side):
        set_path = write_demo(tmp_path, "orth2")
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps({"schema_version": 1, "kind": "M1", "provenance": "M1_eq13",
                                       "n": n, "dim": dim, "matrix": b64(np.eye(side))}))
        code, out, err = run(capsys, "verify", str(op_path), set_path)
        assert (code, out) == (2, "")
        assert "does not match dim**n" in err
        assert "4300 digits" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["analyze", "construct", "verify"])
    @pytest.mark.parametrize("where, reason", [
        ("missing/r.json", "No such file or directory"),
        (".", "Is a directory"),
        ("orth2.json/r.json", "Not a directory"),
    ])
    def test_unwritable_report_exits_2(self, tmp_path, capsys, monkeypatch, command, where, reason):
        path = write_demo(tmp_path, "orth2")
        op_path = str(tmp_path / "op.json")
        io.write_operator(build_m1(demo_set("orth2"), 2), op_path)
        ran = []

        def spy(name, real):
            def called(*args, **kwargs):
                ran.append(name)
                return real(*args, **kwargs)
            return called

        for module in (cli, comparison):
            monkeypatch.setattr(module, "check_conditions", spy("conditions", module.check_conditions))
        monkeypatch.setattr(oracle, "_probabilities", spy("scan", oracle._probabilities))
        argv = {
            "analyze": ["analyze", path, "--n", "2"],
            "construct": ["construct", path, "--n", "2", "--operator", "m1", "--method", "eq13"],
            "verify": ["verify", op_path, path],
        }[command]
        target = str(tmp_path / where)
        code, out, err = run(capsys, *argv, "--out", target)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: {reason}\n"
        # refused before any work, and nothing was created
        assert ran == []
        assert sorted(os.listdir(tmp_path)) == ["op.json", "orth2.json"]

    def test_empty_out_path_refused_before_any_build(self, tmp_path, capsys, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return comparison.build_maximal(*args, **kwargs)

        monkeypatch.setattr(cli, "build_maximal", counted)
        code, out, err = run(capsys, "analyze", write_demo(tmp_path, "orth2"), "--n", "2",
                             "--out", "")
        assert (code, out) == (2, "")
        assert err == "error: cannot write : No such file or directory\n"
        assert built == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", write_demo(tmp_path, "orth2"), "--n", "2",
                             "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "error: cannot write /dev/full: No space left on device\n"


class TestInputErrors:
    """Malformed input ends in exit 2 and one stderr line naming the fault."""

    @pytest.mark.parametrize("command, obj, message", [
        ("verify", {"schema_version": 1, "kind": "M3", "provenance": "M1_eq13", "n": 2,
                    "dim": 2, "matrix": "AAAA"},
         "operator file: 'kind' must be 'M1' or 'M2', got 'M3'"),
        ("analyze", [1, 2], "candidate set: top level must be a JSON object"),
        ("verify", [1, 2], "operator file: top level must be a JSON object"),
        ("analyze", set_led_by(3), "candidate set: state #0 is not an object"),
        ("analyze", set_led_by({"matrix": [[[1, 0]]]}),
         "candidate set: state #0 needs a non-empty string label"),
        ("analyze", set_led_by({"label": "e", "ensemble": [1]}),
         "state 'e': 'ensemble' must be an object"),
        ("analyze", set_led_by({"label": "e", "ensemble": {"weights": [1.0]}}),
         "state 'e': ensemble needs 'weights' and 'vectors' lists"),
        ("analyze", set_led_by({"label": "e", "ensemble": {"weights": [1.0], "vectors": [[]]}}),
         "state 'e': vector 0: vector must be a non-empty list of [re, im] pairs"),
        ("analyze", set_led_by({"label": "e", "ensemble": {
            "weights": [0.5, 0.5], "vectors": [[[1, 0]], [[1, 0], [0, 0]]]}}),
         "state 'e': ensemble vectors mix dimensions 1 and 2"),
        *[("analyze", set_led_by({"label": "e", "ensemble": {
            "weights": weights, "vectors": [[[1, 0]]] * len(weights)}}),
           f"state 'e': weight 0: expected a number, got {shown}")
          for weights, shown in ((["0.5", "0.5"], "'0.5'"), ([True], "True"),
                                 ([None], "None"), ([[0.5], [0.5]], "[0.5]"))],
        ("analyze", set_led_by({"label": "e", "ensemble": {
            "weights": [10**400], "vectors": [[[1, 0]]]}}),
         "state 'e': weight 0: a number is too large for a double"),
        # finite numbers whose norm or sum overflows: refused without a numpy warning
        ("analyze", set_led_by({"label": "e", "ensemble": {
            "weights": [1.0], "vectors": [[[1e200, 0]]]}}),
         "state 'e': ensemble vector has norm inf, expected 1"),
        ("analyze", set_led_by({"label": "e", "ensemble": {
            "weights": [1e308, 1e308], "vectors": [[[1, 0]], [[1, 0]]]}}),
         "state 'e': ensemble weights sum to inf, expected 1"),
        # finite and Hermitian, but past 8.9e307: (A + A^dagger)/2 overflows, and
        # eigh then fails to converge (3 x 3) or leaves a NaN spectrum (2 x 2)
        *[("analyze", set_led_by({"label": "e", "matrix": matrix}),
           "state 'e': density matrix entries overflow a double when symmetrized")
          for matrix in ([[[0.5, 0], [1e308, 0], [0, 0]], [[1e308, 0], [0.5, 0], [0, 0]],
                          [[0, 0]] * 3],
                         [[[1.7e308, 0], [0, 0]], [[0, 0], [-1.7e308, 0]]])],
        ("analyze", {"schema_version": 1, "states": [{"label": "a", "matrix": [[[1, 0]]]},
                                                     {"label": "b", "matrix": [[[1, 0]]]}]},
         "candidate set: states 'a' and 'b' are numerically identical (max difference 0.000e+00)"),
        ("gen", None, "--k must be at least 2, got 1"),
    ], ids=["operator-kind", "set-list", "operator-list", "state-not-object", "no-label",
            "ensemble-not-object", "ensemble-no-lists", "ensemble-empty-vector",
            "ensemble-mixed-dims", "weights-strings", "weights-boolean", "weights-null",
            "weights-nested", "weights-huge-int", "norm-overflow", "sum-overflow",
            "overflow-3x3", "overflow-2x2",
            "equal-states", "gen-one-state"])
    def test_malformed_input_exits_2_with_one_line(self, tmp_path, capsys, command, obj, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = {
            "analyze": ["analyze", str(bad), "--n", "2"],
            "verify": ["verify", str(bad), write_demo(tmp_path, "orth2")],
            "gen": ["gen", "--d", "2", "--k", "1", "--ranks", "1"],
        }[command]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestEscapingErrors:
    """Failures outside the library's own exceptions still end in an exit code."""

    @staticmethod
    def exhausted(*args, **kwargs):
        raise MemoryError()

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_maximal", self.exhausted)
        path = write_demo(tmp_path, "orth2")
        code, _, err = run(capsys, "analyze", path, "--n", "2")
        assert code == 3
        assert err.strip() == "error: out of memory; lower --cap or the tuple size n"

    def test_linalg_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def diverged(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(oracle, "verify_unambiguous", diverged)
        path = write_demo(tmp_path, "orth2")
        code, _, err = run(capsys, "analyze", path, "--n", "2")
        assert code == 4
        assert len(err.strip().splitlines()) == 1
        assert "did not converge" in err

    def test_memory_error_while_verify_builds_its_operator_exits_3(self, tmp_path, capsys,
                                                                   monkeypatch):
        path = write_demo(tmp_path, "orth2")
        op_path = str(tmp_path / "op.json")
        io.write_operator(build_m1(demo_set("orth2"), 2), op_path)
        monkeypatch.setattr(MeasurementOperator, "__post_init__", self.exhausted)
        code, out, err = run(capsys, "verify", op_path, path)
        assert (code, out) == (3, "")
        assert err == "error: out of memory; lower --cap or the tuple size n\n"

    def test_memory_error_while_a_state_is_validated_exits_3(self, tmp_path, capsys,
                                                             monkeypatch):
        path = write_demo(tmp_path, "orth2")
        monkeypatch.setattr(DensityMatrix, "__post_init__", self.exhausted)
        code, out, err = run(capsys, "analyze", path, "--n", "2")
        assert (code, out) == (3, "")
        assert err == "error: out of memory; lower --cap or the tuple size n\n"

    def test_linalg_error_while_a_set_is_read_exits_4(self, tmp_path, capsys, monkeypatch):
        def diverged(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = write_demo(tmp_path, "orth2")
        monkeypatch.setattr(np.linalg, "eigh", diverged)
        code, out, err = run(capsys, "analyze", path, "--n", "2")
        assert (code, out) == (4, "")
        assert err == "internal error: linear algebra failed: Eigenvalues did not converge\n"

    def test_explicit_operator_that_never_fires_aborts(self, monkeypatch):
        monkeypatch.setattr(cli, "build_m1", lambda cs, n, i0, tol, cap: MeasurementOperator(
            n, cs.dim, np.zeros((cs.dim**n,) * 2), Provenance.M1_EQ13))
        with pytest.raises(InternalCheckError, match=(
                r"^M1_eq13 operator never fires above tol\.prob = 1\.000e-09: "
                r"best probability 0\.000e\+00 at \(0, 0\)$")):
            analyze_set(demo_set("orth2"), 2, Tolerances(), DEFAULT_CAP)
