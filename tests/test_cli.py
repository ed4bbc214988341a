import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from kazvol import load_polytope
from kazvol import polytope as pt
from kazvol.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main


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

    def test_intrinsic_reports_monte_carlo_error(self, tmp_path, capsys):
        # The edges of a 9-point cloud in C^3 have 5-dimensional normal cones, so v_1 is sampled.
        cloud = tmp_path / "cloud.json"
        cloud.write_text(json.dumps({
            "n": 3, "vertices": np.random.default_rng(2026).normal(size=(9, 6)).tolist()}))
        report = tmp_path / "report.json"
        code, out = run(["intrinsic", str(cloud), "--k", "1", "--samples", "2000",
                         "--json", str(report)], capsys)
        values = json.loads(report.read_text())["values"]
        assert code == EXIT_OK
        assert values["std_error"] > 0 and "monte_carlo" in values["method"]
        assert f"± {values['std_error']:.3g}" in out

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

    def test_vertex_angle_reports_draws_used(self, theta4_file, tmp_path, capsys):
        # A vertex of Theta_4 has a 4-dimensional normal cone, so it is sampled.
        report = tmp_path / "report.json"
        code, _ = run(["angle", theta4_file, "--face", "0", "--samples", "5000",
                       "--json", str(report)], capsys)
        values = json.loads(report.read_text())["values"]
        assert code == EXIT_OK
        assert values["method"] == "monte_carlo"
        assert 0 < values["samples_used"] <= 5000
        assert values["bound"] == 0.0 and values["std_error"] > 0.0

    def test_smooth_ball(self, tmp_path, capsys):
        body = tmp_path / "ball.json"
        body.write_text(json.dumps({"kind": "ball", "n": 2}))
        code, out = run(["smooth", str(body), "--samples", "50000"], capsys)
        assert code == EXIT_OK
        assert "6.28318530718" in out

    def test_smooth_reports_cubature_without_sampling(self, tmp_path, capsys, monkeypatch):
        import kazvol.smooth_bodies as sb

        calls = []
        monkeypatch.setattr(sb, "sphere_sample", lambda *a: calls.append(a))
        body = tmp_path / "lower_ball.json"
        body.write_text(json.dumps({"kind": "lower_ball", "n": 3}))
        report = tmp_path / "report.json"
        code, out = run(["smooth", str(body), "--json", str(report)], capsys)
        values = json.loads(report.read_text())["values"]
        assert code == EXIT_OK
        assert values["method"] == "integral" and values["nodes"] > 0
        assert abs(values["value"] - 32 * np.pi / 15) <= values["std_error"] + values["bound"]
        assert calls == []

    def test_smooth_oracle_runs_monte_carlo(self, tmp_path, capsys):
        body = tmp_path / "ball.json"
        body.write_text(json.dumps({"kind": "ball", "n": 2}))
        report = tmp_path / "report.json"
        code, out = run(["smooth", str(body), "--oracle", "--samples", "5000",
                         "--json", str(report)], capsys)
        values = json.loads(report.read_text())["values"]
        assert code == EXIT_OK
        assert values["method"] == "integral"
        assert values["mc_value"] == pytest.approx(values["value"], rel=1e-12)
        assert values["mc_std_error"] < 1e-8
        assert "Monte Carlo cross-check" in out

    def test_verify_tables_exact_at_few_samples(self, capsys):
        # At 30,000 samples no second C^3 cubature rule fits; the one-dimensional
        # integral needs no samples, so P3(B_5) and P3(B_6) come out exact anyway.
        code, out = run(["verify", "--suite", "tables", "--samples", "30000", "--json", "-"],
                        capsys)
        checks = {c["name"]: c for c in json.loads(out)["values"]["checks"]}
        assert code == EXIT_OK
        for name, expected in (("P3(B_5) sphere quadrature", 32 * np.pi / 15),
                               ("P3(B_6) sphere quadrature", np.pi**2)):
            detail = checks[name]["detail"]
            sigma, bound = re.match(r"\S+ ± (\S+) \+ (\S+) vs", detail).groups()
            assert checks[name]["passed"] and detail.endswith("(integral)")
            assert float(sigma) == 0.0 and float(bound) < 1e-12 * expected

    @pytest.mark.parametrize("command", ["intrinsic", "phi-volume"])
    def test_k0_exact_without_sampling(self, command, theta4_file, tmp_path, capsys,
                                       monkeypatch):
        import kazvol.cone_geometry as cg

        calls = []
        monkeypatch.setattr(cg, "sphere_sample", lambda *a: calls.append(a))
        report = tmp_path / "report.json"
        code, _ = run([command, theta4_file, "--k", "0", "--json", str(report)], capsys)
        assert code == EXIT_OK
        assert json.loads(report.read_text())["values"]["value"] == 1.0
        assert calls == []

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


DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
THETA4 = os.path.join(DATA, "theta4.json")
BALL2 = os.path.join(DATA, "ball2.json")
RHO_DOC = json.dumps({"n": 2, "vectors": [[1, 0, 0, 0], [0, 0, 1, 0]]})
MATRICES = json.dumps({"matrices": [[[1, 0], [0, 1]], [[2, 0], [0, 1]]]})


class TestReportSchema:
    KEYS = ["command", "inputs", "seed", "samples", "flags", "values", "per_face", "wall_time"]

    @pytest.mark.parametrize("argv,inputs,flags", [
        (["rho", RHO_DOC], [RHO_DOC], {}),
        (["faces", THETA4], [THETA4], {}),
        (["angle", THETA4, "--face", "0,1"], [THETA4], {"face": [0, 1]}),
        (["volume", THETA4], [THETA4], {}),
        (["intrinsic", THETA4, "--k", "2"], [THETA4], {"k": 2}),
        (["phi-volume", THETA4, "--k", "3"], [THETA4], {"k": 3}),
        (["pseudovolume", THETA4], [THETA4], {}),
        (["mixed", THETA4, THETA4], [THETA4, THETA4], {"ball": False}),
        (["mixed", THETA4, "--ball"], [THETA4], {"ball": True}),
        (["eps-expand", THETA4, "--eps", "0.5"], [THETA4], {"eps": 0.5}),
        (["smooth", BALL2, "--mixed", BALL2], [BALL2, BALL2], {}),
        (["discriminant", MATRICES], [MATRICES], {"method": "auto"}),
        (["verify", "--suite", "tables"], [], {"suite": "tables"}),
    ])
    def test_keys_inputs_and_flags(self, argv, inputs, flags, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(argv + ["--samples", "3000", "--seed", "7", "--json", str(path)])
        report = json.loads(path.read_text())
        assert code == EXIT_OK
        assert list(report) == self.KEYS
        assert report["command"] == argv[0]
        assert report["inputs"] == inputs and report["flags"] == flags
        assert report["seed"] == 7 and report["samples"] == 3000
        assert (report["per_face"] != []) == (argv[0] == "pseudovolume")

    def test_failed_check_writes_report_and_exits_1(self, tmp_path, capsys, monkeypatch):
        from kazvol import verification

        monkeypatch.setattr(verification, "run_suite", lambda name, samples, stream: [
            verification.Check("planted", False, "always fails")])
        path = tmp_path / "report.json"
        code = main(["verify", "--suite", "tables", "--json", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert json.loads(path.read_text())["values"]["failures"] == 1
        assert "[FAIL] tables: planted" in out and "done in" not in out

    @pytest.mark.parametrize("argv", [
        ["rho", RHO_DOC], ["faces", THETA4], ["angle", THETA4, "--face", "0"],
        ["volume", THETA4], ["intrinsic", THETA4, "--k", "1"],
        ["phi-volume", THETA4, "--k", "1"], ["pseudovolume", THETA4],
        ["eps-expand", THETA4], ["discriminant", MATRICES], ["verify"],
    ])
    def test_oracle_only_on_mixed_and_smooth(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err


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


def _faces_oracle(source) -> str:
    """``kazvol faces`` stdout up to its timing line, rendered one ``Face`` at a time
    from its attributes."""
    P = load_polytope(source)
    head = [f"ambient C^{P.ambient_n}, real dimension {P.dim_real}, {P.n_vertices} vertices",
            f"face vector: {P.face_vector()}"]
    return "\n".join(head + [f"  k={f.k} vertices={list(f.vertex_ids)} vol={f.volume_k:.9g} "
                             f"rho={f.rho:.9g}{' (improper)' if f.k == P.dim_real else ''}"
                             for f in P.all_faces()]) + "\n"


def _inline(points) -> str:
    points = np.asarray(points, dtype=float)
    return json.dumps({"n": points.shape[1] // 2, "vertices": points.tolist()})


_THETA4 = np.vstack([np.eye(4), -np.eye(4)])
_CUBE4 = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
FACES_CASES = {
    "cloud in C^3": _inline(np.random.default_rng(501).normal(size=(14, 6))),
    "cube4": os.path.join(DATA, "cube4.json"),
    "theta4 + cube": _inline((_THETA4[:, None, :] + _CUBE4[None, :, :]).reshape(-1, 4)),
    "segment": os.path.join(DATA, "segment.json"),
    "point": _inline([[0.5, -1.0, 2.0, 0.25]]),
    "flat triangle in C^2": _inline([[0, 0, 0, 0], [1, 0, 0.5, 0], [0, 1, 0, 0.25]]),
}


@pytest.mark.parametrize("case", sorted(FACES_CASES))
def test_faces_output_matches_per_face_rendering(case, capsys):
    """Every dimension printed from its columns reads as the rendering over ``Face``
    objects: simplices only, squares and cubes, a sum's faces, d = 1, d = 0 and a flat
    polygon."""
    code, out = run(["faces", FACES_CASES[case]], capsys)
    want = _faces_oracle(FACES_CASES[case])
    assert code == EXIT_OK
    assert out.startswith(want) and out[len(want):].startswith("done in")


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run(["faces", "/nonexistent/path.json"], capsys)
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("command", ["pseudovolume", "smooth", "mixed", "rho", "discriminant"])
    def test_missing_file_is_named(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code = main([command, missing, "--samples", "1000"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "missing.json" in err

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

    @pytest.mark.parametrize("command,text,named", [
        ("faces", "[1, 2]", "JSON object"),
        ("smooth", "[1, 2]", "JSON object"),
        ("faces", '{"n": 1, "vertices": 5}', "field 'vertices'"),
        ("faces", '{"n": null, "vertices": [[0, 0], [1, 0]]}', "field 'n'"),
        ("smooth", '{"kind": "ball", "n": null}', "field 'n'"),
        # int() would read 1.5 and true as 1: a float or bool n is an input error.
        ("faces", '{"n": 1.5, "vertices": [[0, 0]]}', "field 'n': expected an integer"),
        ("faces", '{"n": true, "vertices": [[0, 0]]}', "field 'n': expected an integer"),
        ("faces", '{"n": 1.0, "vertices": [[0, 0]]}', "field 'n': expected an integer"),
        ("smooth", '{"kind": "ball", "n": 2.5}', "field 'n': expected an integer"),
        ("smooth", '{"kind": "lower_ball", "n": false}', "field 'n': expected an integer"),
        ("rho", '{"n": 1.5, "vectors": [[1, 0]]}', "field 'n': expected an integer"),
        ("rho", '{"n": true, "vectors": [[1, 0]]}', "field 'n': expected an integer"),
        ("rho", '{"n": 1, "vectors": null}', "field 'vectors'"),
        ("rho", '{"n": 1, "vectors": [[NaN, 0]]}', "field 'vectors'"),
        ("volume", '{"n": 1, "vertices": [["1/0", 0], [1, 0]]}', "field 'vertices'"),
        ("discriminant", '{"matrices": [[[[1]]]]}', "field 'matrices'"),
        ("discriminant", '{"matrices": [[[[1, 2, 3]]]]}', "field 'matrices'"),
        # A JSON boolean is no number, though float, complex and int read true as 1.
        ("faces", '{"n": 1, "vertices": [[true, 0], [0, false]]}', "field 'vertices'"),
        ("rho", '{"n": 1, "vectors": [[true, false]]}', "field 'vectors'"),
        ("discriminant", '{"matrices": [[[true]]]}', "field 'matrices'"),
        ("smooth", '{"kind": "ellipsoid", "n": 1, "Q": [[true, 0], [0, 2]]}', "field 'Q'"),
    ])
    def test_malformed_document(self, command, text, named, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        code = main([command, str(doc), "--samples", "1000"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and named in err

    def test_indefinite_ellipsoid(self, capsys):
        body = json.dumps({"kind": "ellipsoid", "n": 1, "Q": [[1, 0], [0, -1]]})
        code = main(["smooth", body, "--samples", "1000"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "positive semidefinite" in err

    def test_dimension_cap(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({
            "n": 5, "vertices": np.eye(10).tolist()}))
        code, _ = run(["faces", str(big)], capsys)
        assert code == EXIT_CAP

    @pytest.mark.parametrize("kind, first, mixed", [("ball", 2, 3), ("ball", 3, 2),
                                                     ("lower_ball", 1, 2)])
    def test_smooth_bodies_from_different_spaces(self, kind, first, mixed, capsys):
        """Also where the first body, a segment in C^1, has a singular line."""
        code = main(["smooth", json.dumps({"kind": kind, "n": first}),
                     "--mixed", json.dumps({"kind": "ball", "n": mixed}), "--samples", "1000"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "must share the ambient space" in err

    @pytest.mark.parametrize("command", ["pseudovolume", "faces"])
    @pytest.mark.parametrize("value", ["1e400", "-1e400", "NaN"])
    def test_non_finite_vertex(self, command, value, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"n": 1, "vertices": [[0, 0], [{value}, 1], [1, 1]]}}')
        code = main([command, str(bad), "--samples", "1000"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "point 1 is not finite" in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps(self, eps, theta4_file, capsys):
        code = main(["eps-expand", theta4_file, "--eps", eps, "--samples", "1000"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "eps must be finite" in err

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

    def test_smooth_lower_ball_in_c1(self, capsys):
        # The segment [-i, i], and [-(1 + i), 1 + i] from a Q whose null vector is off-axis.
        for body in ({"kind": "lower_ball", "n": 1},
                     {"kind": "ellipsoid", "n": 1, "Q": [[1, 1], [1, 1]]}):
            code = main(["smooth", json.dumps(body)])
            err = capsys.readouterr().err
            assert code == EXIT_INPUT
            assert "input error" in err and "singular line" in err

    @pytest.mark.parametrize("diagonal", [[0, 1, 1, 0], [1, 0, 1, 0]])
    def test_smooth_kernel_of_dimension_two(self, diagonal, capsys):
        # The disks of the totally real plane span{i e_1, e_2} (P_2 = pi) and of R^2.
        body = {"kind": "ellipsoid", "n": 2, "Q": np.diag(diagonal).tolist()}
        code = main(["smooth", json.dumps(body), "--samples", "1000"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "ker Q has dimension 2" in err

    @pytest.mark.parametrize("s", [1e-200, 1e-160, 1e120, 1e150, 1e200])
    def test_smooth_at_extreme_scales(self, s, tmp_path, capsys):
        # P_2 of the ellipsoid with Q = s I is 2 pi s; the report holds that finite number.
        body = {"kind": "ellipsoid", "n": 2, "Q": (s * np.eye(4)).tolist()}
        path = tmp_path / "report.json"
        assert main(["smooth", json.dumps(body), "--json", str(path)]) == EXIT_OK
        values = json.loads(path.read_text(),
                            parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))["values"]
        assert values["value"] == pytest.approx(2 * np.pi * s, rel=1e-13, abs=0)

    def test_smooth_value_beyond_float_range(self, capsys):
        # P_3 of Q = 1e250 I is pi^2 * 1e375.
        body = {"kind": "ellipsoid", "n": 3, "Q": (1e250 * np.eye(6)).tolist()}
        assert main(["smooth", json.dumps(body)]) == EXIT_INPUT
        assert "P_3 or Q_3 of these bodies overflows a float" in capsys.readouterr().err

    def test_permutation_cap(self, capsys):
        mats = json.dumps({"matrices": [np.eye(7).tolist()] * 7})
        code = main(["discriminant", mats, "--method", "permutation"])
        err = capsys.readouterr().err
        assert code == EXIT_CAP
        assert "resource cap" in err and "permutation path limited to n <= 6" in err

    def test_degenerate_position(self, tmp_path, capsys):
        """The 4-cube moved by 1e-8: within the default --tol of a degenerate position the
        lattice fails the Euler relation and the run exits 2 naming the tolerance; at
        --tol 1e-7 the points are the cube."""
        cube = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
        points = cube + np.random.default_rng(0).normal(size=(16, 4)) * 1e-8
        doc = json.dumps({"n": 2, "vertices": points.tolist()})
        code = main(["faces", doc])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "Euler relation" in err and "tolerance 1e-09" in err
        path = tmp_path / "report.json"
        assert main(["faces", doc, "--tol", "1e-7", "--json", str(path)]) == EXIT_OK
        assert json.loads(path.read_text())["values"]["face_vector"] == [16, 32, 24, 8, 1]

    def test_degenerate_position_volume(self, capsys):
        """``volume`` reads only the improper face, and ``hull`` still checks the whole
        lattice: the moved 4-cube exits 2 naming the Euler relation, as ``faces`` does."""
        cube = np.array(list(itertools.product([-1.0, 1.0], repeat=4)))
        points = cube + np.random.default_rng(0).normal(size=(16, 4)) * 1e-8
        doc = json.dumps({"n": 2, "vertices": points.tolist()})
        code = main(["volume", doc, "--tol", "1e-9"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error" in err and "Euler relation" in err and "tolerance 1e-09" in err

    @pytest.mark.parametrize("scale", [1e80, 1e100])
    def test_huge_coordinates_are_a_hull(self, scale, capsys):
        """A ℂ² cloud at 1e80 or 1e100 once raised Qhull's "flat initial simplex" error
        with a traceback; Qhull now gets it scaled by a power of two."""
        points = np.random.default_rng(8).normal(size=(10, 4)) * scale
        code, out = run(["faces", json.dumps({"n": 2, "vertices": points.tolist()})], capsys)
        assert code == EXIT_OK
        assert "vol=inf rho=0 (improper)" in out  # vol_4 past the float range

    def test_huge_coordinates_in_their_own_process(self, tmp_path):
        """At 1e140 Qhull once crashed the process (a segfault)."""
        path = tmp_path / "cloud.json"
        points = np.random.default_rng(8).normal(size=(10, 4)) * 1e140
        path.write_text(json.dumps({"n": 2, "vertices": points.tolist()}))
        proc = subprocess.run([sys.executable, "-m", "kazvol.cli", "volume", str(path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "vol_4 = inf" in proc.stdout

    def test_qhull_error_is_an_input_error(self, monkeypatch, capsys):
        def failing(points):
            raise pt.QhullError("QH6154 Qhull precision error: Initial simplex is flat\nmore")

        monkeypatch.setattr(pt, "ConvexHull", failing)
        code = main(["faces", json.dumps({"n": 2, "vertices": np.eye(4).tolist() + [[0] * 4]})])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "input error: Qhull: QH6154" in err
        assert "more" not in err and "Traceback" not in err

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
