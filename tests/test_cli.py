import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from kazvol.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, main


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "n": 1, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    }))
    return str(path)


@pytest.fixture
def theta4_file(tmp_path):
    verts = np.vstack([np.eye(4), -np.eye(4)]).tolist()
    path = tmp_path / "theta4.json"
    path.write_text(json.dumps({"n": 2, "vertices": verts}))
    return str(path)


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text(json.dumps({"n": 2, "vertices": [[0, 0, 0, 0], [2, 0, 0, 0]]}))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBasicCommands:
    def test_faces(self, square_file, capsys):
        code, out = run(["faces", square_file], capsys)
        assert code == EXIT_OK
        assert "[4, 4, 1]" in out

    def test_volume(self, square_file, capsys):
        code, out = run(["volume", square_file], capsys)
        assert code == EXIT_OK
        assert "vol_2 = 2" in out

    def test_rho_inline(self, capsys):
        payload = json.dumps({"n": 2, "vectors": [[1, 0, 0, 0], [0, 0, 1, 0]]})
        code, out = run(["rho", payload], capsys)
        assert code == EXIT_OK
        assert "rho = 1" in out

    def test_angle(self, square_file, capsys):
        code, out = run(["angle", square_file, "--face", "0",
                         "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "outer angle" in out

    def test_pseudovolume(self, square_file, capsys):
        code, out = run(["pseudovolume", square_file, "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "2.82842712" in out

    def test_intrinsic(self, square_file, capsys):
        code, out = run(["intrinsic", square_file, "--k", "2",
                         "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "v_2 = 2" in out

    def test_phi_volume(self, theta4_file, capsys):
        code, out = run(["phi-volume", theta4_file, "--k", "2",
                         "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "v_2^rho" in out

    def test_mixed_ball(self, segment_file, capsys):
        code, out = run(["mixed", segment_file, "--ball",
                         "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "2.6666" in out

    def test_eps_expand(self, square_file, capsys):
        code, out = run(["eps-expand", square_file, "--eps", "0.5",
                         "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "eps^" in out

    def test_smooth_ball(self, tmp_path, capsys):
        body = tmp_path / "ball.json"
        body.write_text(json.dumps({"kind": "ball", "n": 2}))
        code, out = run(["smooth", str(body), "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "6.28318530718" in out

    def test_discriminant(self, capsys):
        payload = json.dumps({"matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]})
        code, out = run(["discriminant", payload], capsys)
        assert code == EXIT_OK
        assert "D_2 = 1" in out


class TestJsonReports:
    def test_report_stdout(self, square_file, capsys):
        code, out = run(["pseudovolume", square_file, "--samples", "50000",
                         "--json"], capsys)
        assert code == EXIT_OK
        start = out.index("{")
        end = out.rindex("}") + 1
        report = json.loads(out[start:end])
        assert report["command"] == "pseudovolume"
        assert report["seed"] == 42
        assert report["values"]["value"] == pytest.approx(2.8284271247, rel=1e-9)

    def test_report_wall_time(self, theta4_file, capsys):
        code, out = run(["pseudovolume", theta4_file, "--json"], capsys)
        assert code == EXIT_OK
        report = json.loads(out[out.index("{"):out.rindex("}") + 1])
        assert report["wall_time"] > 0.0

    def test_report_file(self, square_file, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _ = run(["volume", square_file, "--json", str(out_file)], capsys)
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["values"]["volume"] == pytest.approx(2.0)


class TestDeterminism:
    # A vertex of Theta_4 has a 4-dimensional normal cone, so its angle is
    # still sampled (P_2 of Theta_4 is exact and the same for every seed).
    def test_same_seed_same_output(self, theta4_file, capsys):
        _, out1 = run(["angle", theta4_file, "--face", "0", "--samples", "50000",
                       "--seed", "7"], capsys)
        _, out2 = run(["angle", theta4_file, "--face", "0", "--samples", "50000",
                       "--seed", "7"], capsys)
        line1 = next(l for l in out1.splitlines() if l.startswith("outer angle"))
        line2 = next(l for l in out2.splitlines() if l.startswith("outer angle"))
        assert line1 == line2

    def test_different_seed_differs(self, theta4_file, capsys):
        _, out1 = run(["angle", theta4_file, "--face", "0", "--samples", "50000",
                       "--seed", "7"], capsys)
        _, out2 = run(["angle", theta4_file, "--face", "0", "--samples", "50000",
                       "--seed", "8"], capsys)
        line1 = next(l for l in out1.splitlines() if l.startswith("outer angle"))
        line2 = next(l for l in out2.splitlines() if l.startswith("outer angle"))
        assert line1 != line2

    def test_verify_independent_of_hash_seed(self):
        def values(hash_seed):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(
                [sys.executable, "-m", "kazvol.cli", "verify", "--suite", "tables",
                 "--samples", "20000", "--json", "-"],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)["values"]

        assert values("1") == values("2")

    def test_json_stdout_holds_only_the_report(self):
        # Check names contain braces, so only a clean stdout parses as a whole.
        proc = subprocess.run(
            [sys.executable, "-m", "kazvol.cli", "verify", "--suite", "tables",
             "--samples", "20000", "--json", "-"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "verify"
        assert "checks passed" in proc.stderr
        assert "done in" in proc.stderr


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run(["faces", "/nonexistent/path.json"], capsys)
        assert code == EXIT_INPUT

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(["faces", str(bad)], capsys)
        assert code == EXIT_INPUT

    def test_missing_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": [[0, 0]]}))
        code, _ = run(["faces", str(bad)], capsys)
        assert code == EXIT_INPUT

    def test_dimension_cap(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({
            "n": 5, "vertices": np.eye(10).tolist()}))
        code, _ = run(["faces", str(big)], capsys)
        assert code == EXIT_CAP

    @pytest.mark.parametrize("command", ["smooth", "angle", "pseudovolume", "discriminant"])
    @pytest.mark.parametrize("samples", ["0", "0.5", "nan", "inf"])
    def test_samples_below_one(self, command, samples, square_file, tmp_path, capsys):
        body = tmp_path / "ball.json"
        body.write_text(json.dumps({"kind": "ball", "n": 2}))
        args = {"smooth": ["smooth", str(body)],
                "angle": ["angle", square_file, "--face", "0"],
                "pseudovolume": ["pseudovolume", square_file],
                "discriminant": ["discriminant", '{"matrices": [[[1]]]}']}[command]
        code = main(args + ["--samples", samples])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "--samples" in err

    def test_verify_subset(self, capsys):
        code, out = run(["verify", "--suite", "invariants",
                         "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out


class TestEntryPoint:
    def test_installed_script(self, square_file):
        exe = shutil.which("kazvol")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "volume", square_file],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "vol_2 = 2" in proc.stdout

    def test_module_invocation(self, square_file):
        proc = subprocess.run(
            [sys.executable, "-m", "kazvol.cli", "volume", square_file],
            capture_output=True, text=True)
        assert proc.returncode == 0
