"""End-to-end command line checks, all in-process via main(argv)."""

import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from medqsl import (
    Hamiltonian, SystemLayout, TimeGrid, builtin_pair, format_ast, maximally_entangled,
    parse_file, save_state, sweep,
)
from medqsl import cli, dynamics
from medqsl.cli import main


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MEDQSL_WORKERS", raising=False)
    return tmp_path


def _not_run(*args, **kwargs):
    raise AssertionError("a block ran")


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestJsonDocuments:
    def test_every_document_is_json_dumps(self, monkeypatch, tmp_path):
        # each document the CLI writes, as json_text writes it, has the
        # bytes of json.dumps(indent=2, sort_keys=True): a report and its
        # manifest, the bound output and the parse --emit matrix output
        seen = []
        original = cli.json_text

        def recording(doc):
            seen.append((doc, original(doc)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "json_text", recording)
        monkeypatch.setattr(sweep, "json_text", recording)
        spec = tmp_path / "h.hspec"
        spec.write_text("system A:2; system B:2; H = 0.5*X(A)@X(B) + Z(B);")
        assert main(["reproduce", "smi", "--n", "2", "--out", "smi"]) == 0
        assert main(["bound", "--ham", "direct-optimal:2", "--state", "ket:00",
                     "--target", "maxent", "--normalize"]) == 0
        assert main(["parse", "--check", str(spec), "--emit", "matrix"]) == 0
        assert len(seen) == 4
        for doc, text in seen:
            assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "smi.json").read_text() == seen[0][1]


class TestParserOnce:
    """One parser per process: consecutive calls see nothing of each other."""

    @staticmethod
    def _help(parser, argv, capsys):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        assert info.value.code == 0
        return capsys.readouterr().out

    @staticmethod
    def _config(base):
        return json.loads(Path(base + ".manifest.json").read_text())["config"]

    @pytest.mark.parametrize("argv", [["--help"], ["evolve", "--help"], ["reproduce", "-h"]])
    def test_help_matches_a_fresh_parser(self, capsys, argv):
        fresh = self._help(cli._build_parser.__wrapped__(), argv, capsys)
        assert "usage: medqsl" in fresh
        assert self._help(cli._build_parser(), argv, capsys) == fresh
        assert main(["bound", "--ham", "direct-optimal:2", "--state", "ket:00",
                     "--target", "maxent", "--normalize"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().out == fresh

    def test_consecutive_calls_share_no_state(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        assert main(["reproduce", "conjecture-d2", "--n", "3", "--seed", "5",
                     "--workers", "1", "--out", "sweep"]) == 0
        assert main(["evolve", "--ham", "direct-optimal:2", "--state", "ket:00",
                     "--target", "maxent", "--bipartition", "A:B",
                     "--lindblad", "dephasing:0.1", "--tmax", "0.02", "--dt", "0.01",
                     "--out", "open.csv"]) == 0
        assert main(["evolve", "--ham", "direct-optimal:2", "--state", "ket:00",
                     "--tmax", "0.002", "--out", "closed.csv"]) == 0
        with pytest.raises(SystemExit):
            main(["evolve", "--tmax", "0.1", "--no-such-flag"])
        assert main(["reproduce", "fig2", "--tmax", "0.002", "--out", "fig2"]) == 0
        assert self._config("sweep") == {"name": "conjecture-d2", "n": 3, "d": 2, "seed": 5,
                                         "tmax": None, "dt": None, "workers": 1}
        assert self._config("open")["lindblad"] == "dephasing:0.1"
        assert self._config("closed") == {
            "ham": "direct-optimal:2", "state": "ket:00", "target": None,
            "bipartition": None, "lindblad": None, "tmax": 0.002, "dt": 1e-3}
        assert self._config("fig2") == {"name": "fig2", "n": None, "d": 2, "seed": None,
                                        "tmax": 0.002, "dt": 1e-3, "workers": None}
        assert len(_read_csv("closed.csv")) == 3


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

    def test_target_flag(self, tmp_path):
        # from |00> the optimal coupling reaches the maximally entangled
        # target at pi/4, while the fidelity to the initial state falls
        rc = main(["evolve", "--ham", "direct-optimal:2", "--state", "ket:00",
                   "--target", "maxent", "--tmax", str(math.pi / 4),
                   "--dt", str(math.pi / 8), "--out", "tgt.csv"])
        assert rc == 0
        rows = _read_csv(tmp_path / "tgt.csv")
        assert abs(float(rows[0]["fidelity_to_target"]) - 1 / math.sqrt(2)) < 1e-10
        assert abs(float(rows[-1]["fidelity_to_target"]) - 1.0) < 1e-10
        assert abs(float(rows[-1]["bures_angle_from_initial"]) - math.pi / 4) < 1e-6

    def test_bipartition_flag(self, tmp_path):
        rc = main([
            "evolve", "--ham", "cmi-entangled", "--tmax", "0.1", "--dt", "0.05",
            "--bipartition", "A,B:C", "--out", "cut.csv",
        ])
        assert rc == 0
        rows = _read_csv(tmp_path / "cut.csv")
        # across the AB:C cut the entangled-mediator state starts at 1/2
        assert abs(float(rows[0]["negativity"]) - 0.5) < 1e-10

    @pytest.mark.parametrize("lindblad", [[], ["--lindblad", "dephasing:0.1"]],
                             ids=["unitary", "lindblad"])
    def test_unknown_bipartition_label(self, tmp_path, capsys, lindblad):
        rc = main(["evolve", "--ham", "cmi-entangled", "--tmax", "0.1",
                   "--bipartition", "A:Z", *lindblad])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no subsystem labeled 'Z' in layout ('A', 'B', 'C')\n")
        assert not (tmp_path / "trajectory.csv").exists()


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

    def test_manifest_records_peak_memory(self, tmp_path):
        # the manifest alone records the run's peak resident set, in MiB; the
        # report and its envelope stay free of it
        assert main(["reproduce", "conjecture-d2", "--n", "3", "--out", "cd"]) == 0
        manifest = json.loads((tmp_path / "cd.manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mb"], float) and 1 < manifest["peak_rss_mb"] < 1e4
        for out in ("cd.json", "cd.envelope.csv"):
            assert "rss" not in (tmp_path / out).read_text()

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
        (["fig2", "--seed", "99"], "--seed"),
        (["cmi-product", "--seed", "99"], "--seed"),
    ], ids=["tmax-to-sweep", "dt-to-sweep", "d-to-conjecture", "n-to-fig2",
            "workers-to-pair", "seed-to-fig2", "seed-to-pair"])
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

    def test_manifest_records_resolved_defaults(self, tmp_path):
        # flag-less runs: the manifest holds the values the run used, not null;
        # a trajectory draws nothing, so its seed is null
        assert main(["reproduce", "fig2"]) == 0
        manifest = json.loads((tmp_path / "fig2.manifest.json").read_text())
        assert manifest["config"] == {"name": "fig2", "seed": None, "n": None, "d": 2,
                                      "tmax": math.pi / 2, "dt": 1e-3, "workers": None}
        assert manifest["seed"] is None
        assert len(_read_csv(tmp_path / "fig2.csv")) == 1571
        assert main(["reproduce", "rate-zero"]) == 0
        manifest = json.loads((tmp_path / "rate-zero.manifest.json").read_text())
        assert manifest["config"] == {"name": "rate-zero", "seed": 7, "n": 1000, "d": 2,
                                      "tmax": None, "dt": None, "workers": None}
        assert manifest["seed"] == 7
        report = json.loads((tmp_path / "rate-zero.json").read_text())
        assert report["config"]["n_instances"] == 1000

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

    @pytest.mark.parametrize("field, body", [
        ("density", '"density": 5'),
        ("pure", '"pure": [["x", 0], [0, 0], [0, 0], [0, 0]]'),
        ("pure", '"pure": [1, 0, 0, 0]'),
    ], ids=["density-number", "string-entry", "flat-pure"])
    def test_malformed_state_file(self, tmp_path, capsys, field, body):
        (tmp_path / "bad.json").write_text('{"layout": [["A", 2], ["B", 2]], ' + body + "}")
        rc = main(["bound", "--ham", "direct-optimal:2", "--state", "bad.json",
                   "--target", "maxent"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad '{field}' field") and len(err.splitlines()) == 1

    def test_non_integer_state_dimension(self, tmp_path, capsys):
        # int() would have read 2.9 as a qubit and run the bound
        (tmp_path / "bad.json").write_text(
            '{"layout": [["A", 2.9], ["B", 2.9]], "pure": [[1, 0], [0, 0], [0, 0], [0, 0]]}')
        rc = main(["bound", "--ham", "direct-optimal:2", "--state", "bad.json",
                   "--target", "maxent"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: subsystem 'A' has dimension 2.9: not an integer\n"

    def test_state_file_on_another_layout(self, tmp_path, capsys):
        save_state(maximally_entangled(SystemLayout((("A", 3), ("B", 3)))), "qutrits.json")
        rc = main(["bound", "--ham", "direct-optimal:2", "--state", "qutrits.json",
                   "--target", "maxent"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "state layout (('A', 3), ('B', 3)) does not match" in err
        assert "Hamiltonian layout (('A', 2), ('B', 2))" in err

    def test_trajectory_cap_returns_at_once(self, tmp_path, capsys, monkeypatch):
        # 1e7 + 1 retained 4x4 states: refused before the time array, an
        # eigensolve or any state is built
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(TimeGrid, "times", property(refuse))
        monkeypatch.setattr("medqsl.hamiltonians.hermitian_eig", refuse)
        rc = main(["evolve", "--ham", "direct-optimal:2", "--state", "ket:00",
                   "--tmax", "10000", "--dt", "1e-3"])
        assert rc == 2
        assert "above the cap of 2 GiB" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("emit", [[], ["--emit", "matrix"]])
    def test_overflowing_hspec_number(self, tmp_path, capsys, emit):
        for body in ("1/sqrt(1" + "0" * 400 + ")", "1" + "0" * 5000):
            spec = tmp_path / "big.hspec"
            spec.write_text(f"system A:2; system B:2;\nH = {body}*X(A)@X(B);\n")
            assert main(["parse", "--check", str(spec), *emit]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "line 2" in captured.err and "finite float" in captured.err

    @pytest.mark.parametrize("argv", [
        ["parse", "--check", "big.hspec", "--emit", "matrix"],
        ["evolve", "--ham", "big.hspec", "--state", "ket:00", "--tmax", "0.1"],
    ], ids=["parse", "evolve"])
    def test_overflowing_hspec_sum(self, tmp_path, capsys, argv):
        # each coefficient fits a float, their sum does not
        big = "1" + "0" * 308
        (tmp_path / "big.hspec").write_text(
            f"system A:2; system B:2;\nH = {big}*X(A)@X(B)\n  + {big}*X(A)@X(B);\n")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 3, col 315:")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "trajectory.csv").exists()

    def test_stationary_is_exit_4(self, tmp_path, capsys):
        spec = tmp_path / "zz.hspec"
        spec.write_text("system A:2; system B:2; H = Z(A)@Z(B);")
        rc = main([
            "bound", "--ham", str(spec), "--state", "ket:00",
            "--target", "ket:11",
        ])
        assert rc == 4
        assert "vacuous" in capsys.readouterr().err

    def test_stationary_draw_is_exit_4(self, monkeypatch, capsys):
        # with every drawn coupling H = 1, the one drawn instance of each run
        # is stationary (conjecture-d2's stream 0 is its witness, which is not
        # drawn): the run exits 4 and names the stream
        original = sweep.random_mediated_hamiltonian

        def unit(*args):
            h = original(*args)
            return Hamiltonian(h.layout, np.broadcast_to(np.eye(h.layout.dim), h.matrix.shape))

        monkeypatch.setattr(sweep, "random_mediated_hamiltonian", unit)
        for name, n, sid in (("rate-zero", "1", 0), ("conjecture-d2", "2", 1)):
            rc = main(["reproduce", name, "--n", n, "--out", "rz"])
            assert rc == 4, name
            assert capsys.readouterr().err.startswith(f"error: stream {sid}: state is stationary")

    def test_huge_instance_count_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # 10^12 instances would keep 65 float64 values each: refused at once,
        # before any block is built or drawn
        monkeypatch.setattr(sweep, "_cmi_block", _not_run)
        start = time.perf_counter()
        rc = main(["reproduce", "conjecture-d2", "--n", "1000000000000",
                   "--out", str(tmp_path / "huge")])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n = 1000000000000 instances of 65 times need ")
        assert err.endswith("above the cap of 2 GiB; the largest n allowed is 4129776\n")
        assert not list(tmp_path.iterdir())

    def test_positivity_lost_is_exit_3(self, monkeypatch, capsys):
        # ten factor-form substeps of 1e-3 at rate 1000 overshoot (the exact
        # map, which this run would take, does not)
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        rc = main(["evolve", "--ham", "open-system", "--lindblad", "damping:1000",
                   "--tmax", "0.01", "--dt", "0.01"])
        assert rc == 3
        assert "reduce the step" in capsys.readouterr().err

    def test_divergent_stepper_is_exit_3(self, monkeypatch, capsys):
        # the factor-form stepped state overflows between output points: exit
        # 3, and the error line is all that reaches stderr (the exact map,
        # which this run would take, does not diverge)
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        rc = main(["evolve", "--ham", "open-system", "--tmax", "0.5", "--dt", "0.1",
                   "--lindblad", "dephasing:1e4"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: matrix has 64 non-finite entries")
        assert err.endswith(" at T=0.1; reduce the step or the rates\n")
        assert err.count("\n") == 1

    def test_factor_run_too_long_is_exit_2(self, tmp_path, capsys):
        # 10^9 factor-form substeps at n = 27, where the map does not fit,
        # are refused before stepping, and no file is written; the same span
        # at n = 8 takes the exact map and finishes
        argv = ["--state", "ket:000", "--lindblad", "dephasing:0.1", "--tmax", "1e6",
                "--dt", "1e6"]
        (tmp_path / "q3.hspec").write_text(
            "system A:3; system B:3; system C:3;\nH = GX(A,1)@GX(C,1) + GY(B,2)@GY(C,2);\n")
        assert main(["evolve", "--ham", "q3.hspec", *argv, "--out", "q3.csv"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: 1000000000 RK4 substeps at dimension 27 exceed the cap of "
                       "1e+11 substeps x n^3; shorten the run\n")
        assert [p.name for p in tmp_path.iterdir()] == ["q3.hspec"]
        (tmp_path / "q2.hspec").write_text(
            "system A:2; system B:2; system C:2;\nH = 0.5*X(A)@X(C) + 0.5*Y(B)@Y(C);\n")
        assert main(["evolve", "--ham", "q2.hspec", *argv, "--out", "q2.csv"]) == 0
        assert [row["T"] for row in _read_csv(tmp_path / "q2.csv")] == ["0", "1000000"]

    @pytest.mark.parametrize("state", ["ket:000", "mixed.json"])
    def test_overflowing_phases_are_exit_2(self, tmp_path, capsys, state):
        # max|w| = 10, so the phase of T = 1.7e308 overflows: refused before
        # any numpy warning, the error line alone on stderr, no file written
        (tmp_path / "ovf.hspec").write_text(
            "system A:2; system B:2; system C:2;\nH = 5*Z(A)@Z(C) + 5*X(B)@Z(C);\n")
        save_state(builtin_pair("cmi-classical")[1], tmp_path / "mixed.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["evolve", "--ham", "ovf.hspec", "--state", state, "--tmax", "1.7e308",
                       "--dt", "1e307", "--out", "ovf.csv"])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err == (
            "error: the phase max|w| (T - start) overflows a float at T = 1.7e+308 "
            "(max|w| = 10); shorten the run\n")
        assert not (tmp_path / "ovf.csv").exists()

    @pytest.mark.parametrize("lindblad", [[], ["--lindblad", "dephasing:0.1"]],
                             ids=["closed", "open"])
    def test_infinite_step_is_exit_2(self, tmp_path, capsys, lindblad):
        # refused by the grid before any numpy warning, the error line alone
        # on stderr, no file written; 1e308, whose RK4 substeps overflow a
        # float, gives a one-point grid, which takes no step and is written
        (tmp_path / "dt.hspec").write_text(
            "system A:2; system B:2; system C:2;\nH = 0.5*X(A)@X(C) + 0.5*Y(B)@Y(C);\n")
        argv = ["evolve", "--ham", "dt.hspec", "--state", "ket:000", *lindblad, "--tmax", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--dt", "inf", "--out", "inf.csv"])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err == "error: step must be positive and finite, got inf\n"
        assert not (tmp_path / "inf.csv").exists()
        assert main([*argv, "--dt", "1e308", "--out", "one.csv"]) == 0
        assert [row["T"] for row in _read_csv(tmp_path / "one.csv")] == ["0"]

    def test_step_too_large_to_count_is_exit_2(self, tmp_path, capsys):
        # 1e306 / 1e-3 overflows a float: the open run is refused before stepping
        (tmp_path / "dt.hspec").write_text(
            "system A:2; system B:2; system C:2;\nH = 0.5*X(A)@X(C) + 0.5*Y(B)@Y(C);\n")
        rc = main(["evolve", "--ham", "dt.hspec", "--state", "ket:000", "--lindblad",
                   "dephasing:0.1", "--tmax", "1.7e308", "--dt", "1e306", "--out", "big.csv"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: a step of 1e+306 has too many RK4 substeps to count\n")
        assert not (tmp_path / "big.csv").exists()

    def test_phases_past_their_last_digits_are_exit_2(self, tmp_path, capsys):
        # max|w| = 10: phases up to 1e21 rad, whose ulp is 1.3e5 rad, are
        # refused, the error line alone on stderr, no file written; the same
        # coupling on a 1e-3 grid runs
        (tmp_path / "ph.hspec").write_text(
            "system A:2; system B:2; system C:2;\nH = 5*Z(A)@Z(C) + 5*X(B)@Z(C);\n")
        argv = ["evolve", "--ham", "ph.hspec", "--state", "ket:000", "--out", "ph.csv"]
        assert main([*argv, "--tmax", "1e20", "--dt", "1e19"]) == 2
        assert capsys.readouterr().err == (
            "error: the phase max|w| (T - start) = 1e+21 rad at T = 1e+20 exceeds 5.63e+14 rad, "
            "where a phase's ulp is 1/8 rad (max|w| = 10); shorten the run\n")
        assert not (tmp_path / "ph.csv").exists()
        assert main([*argv, "--tmax", "1", "--dt", "1e-3"]) == 0
        assert len(_read_csv(tmp_path / "ph.csv")) == 1001

    def test_overflowing_jump_rates_are_exit_2(self, tmp_path, capsys):
        # sum Q+Q of two jumps at rate 1e308 overflows: refused before any
        # numpy warning, the rates named, the error line alone on stderr, no
        # file written
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["evolve", "--ham", "direct-optimal:2", "--state", "ket:00",
                       "--lindblad", "dephasing:1e308", "--tmax", "0.01", "--dt", "0.001",
                       "--out", "huge.csv"])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err == (
            "error: the jump rates (A 1e+308, B 1e+308) overflow K = -iM - sum_q Q+Q / 2; "
            "lower the rates\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dt, step, bound", [("1e300", "1e+300", "2.97e+300"),
                                                 ("1e9", "1e+09", "2.97e+09")])
    def test_step_past_the_squaring_cap_is_exit_2(self, tmp_path, capsys, dt, step, bound):
        # exp(L dT) at ||L dT||_1 <= 2.97 dT: 1e300 would overflow in about
        # 1,000 squarings and 1e9 takes 29, one above the cap; both are refused
        # before the map is formed, with no numpy warning and no file written,
        # and 1e8 (26 squarings) runs
        (tmp_path / "open3.hspec").write_text(
            "system A:2; system B:2; system C:2;\n"
            "H = 0.5*X(A)@X(C) + 0.5*Y(B)@Y(C) + 0.3*Z(A)@Z(C);\n")
        argv = ["evolve", "--ham", "open3.hspec", "--state", "ket:000",
                "--lindblad", "dephasing:0.1", "--out", "big.csv"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--tmax", str(3 * float(dt)), "--dt", dt])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err == (
            f"error: the exact map exp(L dT) of a step of {step} (||L dT||_1 up to {bound}) "
            "takes more than 28 squarings, each doubling its roundoff; shorten the step\n")
        assert not Path("big.csv").exists()
        assert main([*argv, "--tmax", "1e8", "--dt", "1e8"]) == 0
        assert [row["T"] for row in _read_csv("big.csv")] == ["0", "100000000"]

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


# every name the package re-exported when ``import medqsl`` imported all its modules
EXPORTED = (
    "ArgOutOfRangeError", "BadDimensionError", "DimensionMismatchError", "FullOrEmptySetError",
    "HSpecSyntaxError", "LayoutMismatchError", "MedqslError", "NotHermitianError", "NotPSDError",
    "PartitionMismatchError", "PauliOnQuditError", "PositionedError", "PositivityLostError",
    "StationaryStateError", "UnknownLabelError",
    "Bipartition", "DensityState", "SystemLayout", "bures_angle", "embed_operator",
    "is_classically_correlated_on", "load_state", "maximally_entangled", "mutual_information",
    "negativity", "partial_trace", "purity", "save_state", "uhlmann_fidelity",
    "von_neumann_entropy",
    "BUILTIN_PAIRS", "EnergyMoments", "Hamiltonian", "builtin_pair",
    "classical_mediator_example", "cmi_product_example", "commuting_mediated", "direct_optimal",
    "energy_moments", "entangled_mediator_example", "generalized_x", "generalized_y",
    "open_system_example",
    "JumpOperatorSet", "TimeGrid", "Trajectory", "entanglement_change_at_zero",
    "evolve_lindblad", "evolve_unitary", "first_max_entanglement_time", "negativity_curve",
    "BoundReport", "conjecture_bound", "di_bound", "smi_bound", "swap_stage_fidelity",
    "unified_bound",
    "RngStream", "haar_pure", "random_density", "random_hermitian",
    "random_mediated_hamiltonian",
    "EXPERIMENTS", "SweepConfig", "SweepReport", "run_cmi_uncorrelated", "run_commuting_null",
    "run_fig2", "run_rate_zero", "run_smi_protocol", "run_sweep",
    "Coefficient", "HSpecAst", "OpRef", "Term", "build", "format_ast", "parse", "parse_file",
)

# a fresh interpreter imports the CLI, runs main(argv) when argv is given, and prints
# its exit code and the modules it has loaded
_COLD_RUN = """
import json, sys
from medqsl import cli
rc = cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps([rc, sorted(sys.modules)]))
"""

_COLD_EXPORTS = """
import sys
import medqsl
assert not [m for m in sys.modules if m.startswith("medqsl.")], "import medqsl loaded a module"
for name in sys.argv[1:]:
    exec(f"from medqsl import {name}")
print("ok")
"""


def _fresh(code: str, *argv: str) -> str:
    """The stdout of ``python -c code argv`` in a fresh interpreter that finds this medqsl."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestColdStart:
    """Each command imports only the code it runs, checked in a fresh interpreter."""

    @staticmethod
    def _run(*argv):
        rc, modules = json.loads(_fresh(_COLD_RUN, *argv))
        return rc, set(modules)

    def test_importing_the_cli_loads_its_own_modules(self):
        _, modules = self._run()
        assert {m for m in modules if m.startswith("medqsl")} == {
            "medqsl", "medqsl.cli", "medqsl.dynamics", "medqsl.errors", "medqsl.hamiltonians",
            "medqsl.linalg", "medqsl.randgen", "medqsl.states", "medqsl.tolerances"}
        assert not modules & {"multiprocessing", "numpy.ma", "concurrent.futures"}

    @pytest.mark.parametrize("lindblad", [[], ["--lindblad", "damping:0.2"]],
                             ids=["closed", "open"])
    def test_evolve_loads_no_sweep_hspec_qsl_pool_or_masked_arrays(self, lindblad):
        # a mixed start, so the fidelity, entropy and their rank loops all run
        rc, modules = self._run("evolve", "--ham", "open-system", *lindblad,
                                "--tmax", "0.01", "--out", "cold.csv")
        assert rc == 0 and len(_read_csv("cold.csv")) == 11
        assert not modules & {"multiprocessing", "numpy.ma", "medqsl.sweep", "medqsl.hspec",
                              "medqsl.qsl"}

    def test_one_worker_sweep_loads_no_pool_or_masked_arrays(self):
        rc, modules = self._run("reproduce", "conjecture-d2", "--n", "3", "--workers", "1",
                                "--out", "cold")
        assert rc == 0 and json.loads(Path("cold.json").read_text())["envelope"]["p99"]
        assert not modules & {"multiprocessing", "numpy.ma"}

    def test_every_exported_name_still_imports(self):
        # each from a fresh interpreter, where ``import medqsl`` loaded none of them
        assert _fresh(_COLD_EXPORTS, *EXPORTED) == "ok\n"
        import medqsl

        assert sorted(medqsl.__all__) == sorted(EXPORTED)

    def test_moved_defaults_keep_their_old_names(self):
        from medqsl import randgen

        assert sweep.TRAJECTORY_GRID is dynamics.TRAJECTORY_GRID
        assert sweep.SweepConfig("rate-zero").seed == randgen.DEFAULT_SEED == 7
