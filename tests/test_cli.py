"""End-to-end command line checks, all in-process via main(argv)."""

import csv
import json
import math

import numpy as np
import pytest

from medqsl import builtin_pair, format_ast, parse_file
from medqsl.cli import main


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MEDQSL_WORKERS", raising=False)
    return tmp_path


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestEvolve:
    def test_writes_trajectory_and_manifest(self, tmp_path):
        rc = main([
            "evolve", "--ham", "direct-optimal:2", "--state", "ket:00",
            "--tmax", str(math.pi / 2), "--dt", "1e-3",
        ])
        assert rc == 0
        rows = _read_csv(tmp_path / "trajectory.csv")
        assert rows[0]["T"] == "0"
        near_quarter = min(
            rows, key=lambda r: abs(float(r["T"]) - math.pi / 4)
        )
        assert abs(float(near_quarter["negativity"]) - 0.5) < 1e-6
        manifest = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert manifest["subcommand"] == "evolve"
        assert manifest["outputs"] == ["trajectory.csv"]
        assert "numpy" in manifest["versions"]

    def test_builtin_pair_default_state(self, tmp_path):
        rc = main([
            "evolve", "--ham", "cmi-entangled", "--tmax", "0.8",
            "--dt", "0.01", "--out", "ent.csv",
        ])
        assert rc == 0
        rows = _read_csv(tmp_path / "ent.csv")
        for r in rows:
            t = float(r["T"])
            if t <= math.pi / 4:
                assert abs(float(r["negativity"]) - 0.5 * math.sin(2 * t)) < 1e-6

    def test_lindblad_flag(self, tmp_path):
        rc = main([
            "evolve", "--ham", "open-system", "--tmax", "0.3", "--dt", "0.01",
            "--lindblad", "C=dephasing:0.1", "--out", "open.csv",
        ])
        assert rc == 0
        assert (tmp_path / "open.csv").exists()

    def test_lindblad_on_qutrit_mediator(self, tmp_path):
        spec = tmp_path / "q.hspec"
        spec.write_text("system A:2; system B:2; system C:3;\n"
                        "H = 1/sqrt(2)*X(A)@GX(C,1) + 1/sqrt(2)*Y(B)@GY(C,2);\n")
        rc = main(["evolve", "--ham", str(spec), "--state", "ket:002", "--tmax", "0.5",
                   "--dt", "0.1", "--lindblad", "C=damping:0.2,A=dephasing:0.1",
                   "--out", "q.csv"])
        assert rc == 0
        rows = _read_csv(tmp_path / "q.csv")
        assert len(rows) == 6 and float(rows[-1]["bures_angle_from_initial"]) > 0

    def test_bipartition_flag(self, tmp_path):
        rc = main([
            "evolve", "--ham", "cmi-entangled", "--tmax", "0.1", "--dt", "0.05",
            "--bipartition", "A,B:C", "--out", "cut.csv",
        ])
        assert rc == 0
        rows = _read_csv(tmp_path / "cut.csv")
        # across the AB:C cut the entangled-mediator state starts at 1/2
        assert abs(float(rows[0]["negativity"]) - 0.5) < 1e-10


class TestBound:
    def test_json_on_stdout(self, capsys):
        rc = main([
            "bound", "--ham", "direct-optimal:2", "--state", "ket:00",
            "--target", "maxent",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["bound"] - math.pi / 4) < 1e-12
        assert abs(doc["angle"] - math.pi / 4) < 1e-12
        assert doc["d"] == 2
        assert abs(doc["reference_bounds"]["di"] - math.pi / 4) < 1e-12

    def test_normalize_echoes_scale(self, capsys):
        rc = main([
            "bound", "--ham", "direct-optimal:2", "--state", "ket:00",
            "--target", "maxent", "--normalize",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["normalize_scale"] - 1.0) < 1e-10

    def test_comma_ket_literal(self, capsys):
        rc = main([
            "bound", "--ham", "direct-optimal:3", "--state", "ket:0,0",
            "--target", "maxent",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 3


class TestReproduce:
    def test_fig2(self, tmp_path):
        rc = main(["reproduce", "fig2", "--d", "3", "--dt", "0.01"])
        assert rc == 0
        rows = _read_csv(tmp_path / "fig2.csv")
        t_first = math.acos(1.0 / math.sqrt(3))
        near = min(rows, key=lambda r: abs(float(r["T"]) - t_first))
        assert abs(float(near["negativity"]) - 1.0) < 1e-3
        manifest = json.loads((tmp_path / "fig2.manifest.json").read_text())
        assert manifest["config"]["d"] == 3

    def test_sweep_outputs(self, tmp_path):
        rc = main([
            "reproduce", "rate-zero", "--n", "3", "--seed", "5",
            "--out", "rz",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "rz.json").read_text())
        assert report["violations"] == []
        env = (tmp_path / "rz.envelope.csv").read_text().splitlines()
        assert env[0] == "T,max,mean,p99"
        manifest = json.loads((tmp_path / "rz.manifest.json").read_text())
        assert set(manifest["outputs"]) == {"rz.json", "rz.envelope.csv"}

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        for w, base in ((1, "a"), (2, "b")):
            rc = main([
                "reproduce", "conjecture-d2", "--n", "6", "--seed", "9",
                "--workers", str(w), "--out", base,
            ])
            assert rc == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (
            (tmp_path / "a.envelope.csv").read_bytes()
            == (tmp_path / "b.envelope.csv").read_bytes()
        )

    def test_d_reaches_commuting_null(self, tmp_path):
        rc = main(["reproduce", "commuting-null", "--d", "3", "--n", "2", "--out", "cn"])
        assert rc == 0
        assert json.loads((tmp_path / "cn.json").read_text())["config"]["d"] == 3

    def test_d_reaches_rate_zero(self, tmp_path):
        # qutrit jumps: the zero first-order rate holds closed and open
        rc = main(["reproduce", "rate-zero", "--d", "3", "--n", "1000", "--out", "rz"])
        assert rc == 0
        report = json.loads((tmp_path / "rz.json").read_text())
        assert report["config"]["d"] == 3
        assert report["violations"] == []

    @pytest.mark.parametrize("argv, flag", [
        (["conjecture-d2", "--tmax", "0.5"], "--tmax"),
        (["commuting-null", "--dt", "0.5"], "--dt"),
        (["conjecture-d3", "--d", "2"], "--d"),
        (["fig2", "--n", "5"], "--n"),
        (["cmi-product", "--workers", "2"], "--workers"),
    ], ids=["tmax-to-sweep", "dt-to-sweep", "d-to-conjecture", "n-to-fig2",
            "workers-to-pair"])
    def test_ignored_flag_is_refused(self, tmp_path, capsys, argv, flag):
        assert main(["reproduce", *argv, "--out", "x"]) == 2
        assert f"does not take {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dt_defaults_only_for_trajectories(self, tmp_path):
        assert main(["reproduce", "cmi-product", "--tmax", "0.01", "--out", "cp"]) == 0
        assert len(_read_csv(tmp_path / "cp.csv")) == 11
        manifest = json.loads((tmp_path / "cp.manifest.json").read_text())
        assert manifest["config"]["dt"] == 1e-3
        assert main(["reproduce", "rate-zero", "--n", "1", "--out", "rz"]) == 0
        manifest = json.loads((tmp_path / "rz.manifest.json").read_text())
        assert manifest["config"]["dt"] is None

    def test_builtin_pair_names(self, tmp_path):
        rc = main([
            "reproduce", "cmi-product", "--tmax", "0.2", "--dt", "0.1",
            "--out", "cp",
        ])
        assert rc == 0
        assert (tmp_path / "cp.csv").exists()


class TestParse:
    def _write(self, tmp_path, text, name="h.hspec"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_valid_is_silent(self, tmp_path, capsys):
        path = self._write(tmp_path, "system A:2; H = X(A);")
        assert main(["parse", "--check", path]) == 0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ""

    def test_emit_canonical(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "system A:2; system B:2; H = X(A)@X(B) + 0.5*Z(A);"
        )
        assert main(["parse", "--check", path, "--emit", "canonical"]) == 0
        assert capsys.readouterr().out == format_ast(parse_file(path))

    def test_emit_matrix(self, tmp_path, capsys):
        golden = (
            "system A:2;\nsystem B:2;\nsystem C:2;\n"
            "H = 1/sqrt(2)*X(A)@Y(C) + 1/sqrt(2)*Y(B)@X(C);\n"
        )
        path = self._write(tmp_path, golden)
        assert main(["parse", "--check", path, "--emit", "matrix"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = np.array(
            [[complex(re, im) for re, im in row] for row in doc["matrix"]]
        )
        ref, _ = builtin_pair("cmi-product")
        np.testing.assert_allclose(got, ref.matrix, atol=1e-12)
        assert doc["layout"] == [["A", 2], ["B", 2], ["C", 2]]

    def test_malformed_reports_position(self, tmp_path, capsys):
        path = self._write(tmp_path, "system A:2;\nH = X(B);")
        assert main(["parse", "--check", path]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "^" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["parse", "--check", str(tmp_path / "no.hspec")]) == 2
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_hamiltonian(self, capsys):
        rc = main(["bound", "--ham", "mystery", "--target", "maxent"])
        assert rc == 2
        assert "unknown Hamiltonian" in capsys.readouterr().err

    def test_bad_ket_literal(self, capsys):
        rc = main([
            "bound", "--ham", "direct-optimal:2", "--state", "ket:xy",
            "--target", "maxent",
        ])
        assert rc == 2

    def test_bad_lindblad_entry(self, capsys):
        rc = main([
            "evolve", "--ham", "cmi-product", "--tmax", "0.1",
            "--lindblad", "nonsense",
        ])
        assert rc == 2
        assert "lindblad" in capsys.readouterr().err

    def test_unknown_jump_type(self, capsys):
        rc = main(["evolve", "--ham", "cmi-product", "--tmax", "0.1",
                   "--lindblad", "A=thermal:0.1"])
        assert rc == 2
        assert "unknown jump type 'thermal'; choices" in capsys.readouterr().err

    def test_negative_rate(self, capsys):
        rc = main([
            "evolve", "--ham", "cmi-product", "--tmax", "0.1",
            "--lindblad", "dephasing:-0.5",
        ])
        assert rc == 2

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate(self, rate, capsys):
        rc = main(["evolve", "--ham", "cmi-product", "--tmax", "0.1",
                   "--lindblad", f"dephasing:{rate}"])
        assert rc == 2
        assert f"rate '{rate}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bound", "--target", "maxent"],
        ["evolve", "--tmax", "0.1"],
    ], ids=["bound", "evolve"])
    @pytest.mark.parametrize("entry", ["pure", "density", "infinity"])
    def test_non_finite_state(self, tmp_path, capsys, argv, entry):
        nan = tmp_path / "nan.json"
        rows = [[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]
        if entry == "pure":
            nan.write_text('{"layout": [["A", 2], ["B", 2]], '
                           '"pure": [[1, 0], [NaN, 0], [0, 0], [0, 0]]}')
            where = "at [1]"
        elif entry == "density":
            rows[2][3] = rows[3][2] = [float("nan"), 0]
            nan.write_text(json.dumps({"layout": [["A", 2], ["B", 2]], "density": rows}))
            where = "at [[2, 3], [3, 2]]"
        else:
            # inf - inf in the Hermitian check: only the error line reaches stderr
            rows[0][0] = [float("inf"), 0]
            nan.write_text(json.dumps({"layout": [["A", 2], ["B", 2]], "density": rows}))
            where = "at [[0, 0]]"
        rc = main([argv[0], "--ham", "direct-optimal:2", "--state", str(nan), *argv[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite entries" in err and where in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("emit", [[], ["--emit", "matrix"]])
    def test_overflowing_hspec_number(self, tmp_path, capsys, emit):
        for body in ("1/sqrt(1" + "0" * 400 + ")", "1" + "0" * 5000):
            spec = tmp_path / "big.hspec"
            spec.write_text(f"system A:2; system B:2;\nH = {body}*X(A)@X(B);\n")
            assert main(["parse", "--check", str(spec), *emit]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "line 2" in captured.err and "finite float" in captured.err

    def test_stationary_is_exit_4(self, tmp_path, capsys):
        spec = tmp_path / "zz.hspec"
        spec.write_text("system A:2; system B:2; H = Z(A)@Z(B);")
        rc = main([
            "bound", "--ham", str(spec), "--state", "ket:00",
            "--target", "ket:11",
        ])
        assert rc == 4
        assert "vacuous" in capsys.readouterr().err

    def test_redraw_cap_is_exit_4(self, monkeypatch, capsys):
        # with no redraws allowed every instance counts as stationary
        monkeypatch.setattr("medqsl.sweep._REDRAW_CAP", 0)
        rc = main(["reproduce", "rate-zero", "--n", "1", "--out", "rz"])
        assert rc == 4
        assert "stationary" in capsys.readouterr().err

    def test_positivity_lost_is_exit_3(self, tmp_path, capsys):
        rc = main(["evolve", "--ham", "open-system", "--lindblad", "damping:1000",
                   "--tmax", "0.01", "--dt", "0.01"])
        assert rc == 3
        assert "reduce the step" in capsys.readouterr().err

    def test_dimension_cap(self, tmp_path, capsys):
        # d**3 = 10**6 is refused before a single instance is drawn
        assert main(["reproduce", "rate-zero", "--d", "100", "--out", "rz"]) == 2
        assert "cap" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        spec = tmp_path / "big.hspec"
        spec.write_text("system A:100000;\nH = I(A);")
        assert main(["evolve", "--ham", str(spec), "--state", "ket:0", "--tmax", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 1, col 10" in err and "^" in err

    def test_negative_workers(self, capsys):
        rc = main(["reproduce", "rate-zero", "--n", "1", "--workers", "-5"])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_missing_state_for_hspec(self, tmp_path, capsys):
        spec = tmp_path / "x.hspec"
        spec.write_text("system A:2; H = X(A);")
        rc = main(["bound", "--ham", str(spec), "--target", "maxent"])
        assert rc == 2
        assert "--state" in capsys.readouterr().err
