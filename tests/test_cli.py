import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import minksum
from conftest import conditioned_scene, conditioned_spd, random_spd
from minksum.cli import main
from minksum.quadrature import build_quadrature
from minksum.steiner import area_sum_2d_pair
from minksum.spd import SpdMatrix

EXAMPLE_SCENE = {
    "dimension": 2,
    "ellipsoids": [
        {"matrix": [[5.0, 0.0], [0.0, 0.5]]},
        {"matrix": [[2.0, 2.0], [2.0, 5.0]]},
    ],
}

UNIT_BALL_2D = {"dimension": 2, "ellipsoids": [{"matrix": [[1.0, 0.0], [0.0, 1.0]]}]}


@pytest.fixture
def runner():
    return CliRunner()


def write_scene(tmp_path, obj, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def shoelace(points):
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestBoundaryCommand:
    def test_unit_ball_rows(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, ["boundary", path, "--samples", "4"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "n_1,n_2,x_1,x_2,kappa_1"
        assert len(lines) == 5
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == pytest.approx(vals[2], abs=1e-15)
            assert vals[1] == pytest.approx(vals[3], abs=1e-15)
            assert vals[4] == pytest.approx(1.0, abs=1e-15)

    def test_shoelace_area(self, runner, tmp_path):
        # 720 samples: with normal-uniform vertices the low-curvature arcs
        # carry long chords, so 360 points leave a ~2e-4 area deficit
        path = write_scene(tmp_path, EXAMPLE_SCENE)
        res = runner.invoke(main, ["boundary", path, "--samples", "720"])
        assert res.exit_code == 0
        rows = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in res.output.strip().split("\n")[1:]
            ]
        )
        area = shoelace(rows[:, 2:4])
        exact = area_sum_2d_pair(
            SpdMatrix(np.array(EXAMPLE_SCENE["ellipsoids"][0]["matrix"])),
            SpdMatrix(np.array(EXAMPLE_SCENE["ellipsoids"][1]["matrix"])),
        )
        assert area == pytest.approx(exact, rel=1e-4)

    def test_single_ellipse_on_boundary(self, runner, tmp_path):
        mat = [[2.0, 0.5], [0.5, 1.0]]
        path = write_scene(tmp_path, {"dimension": 2, "ellipsoids": [{"matrix": mat}]})
        res = runner.invoke(main, ["boundary", path, "--samples", "32"])
        assert res.exit_code == 0
        a = np.array(mat)
        inv2 = np.linalg.inv(a @ a)
        for line in res.output.strip().split("\n")[1:]:
            vals = [float(v) for v in line.split(",")]
            x = np.array(vals[2:4])
            assert x @ inv2 @ x == pytest.approx(1.0, abs=1e-10)

    def test_3d_boundary(self, runner, tmp_path):
        path = write_scene(
            tmp_path,
            {"dimension": 3, "ellipsoids": [{"matrix": np.eye(3).tolist()}]},
        )
        res = runner.invoke(main, ["boundary", path, "--samples", "50"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "n_1,n_2,n_3,x_1,x_2,x_3,kappa_1,kappa_2"
        assert len(lines) == 51

    def test_4d_normals_cover_sphere(self, runner, tmp_path):
        path = write_scene(
            tmp_path,
            {"dimension": 4, "ellipsoids": [{"matrix": np.eye(4).tolist()}]},
        )
        res = runner.invoke(main, ["boundary", path, "--samples", "360"])
        assert res.exit_code == 0
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in res.output.strip().split("\n")[1:]]
        )
        assert rows.shape == (360, 11)
        normals = rows[:, :4]
        assert np.all(normals.max(axis=0) > 0) and np.all(normals.min(axis=0) < 0)

    @pytest.mark.parametrize("dim, samples, resolution", [(3, 200, 15), (4, 360, 8)])
    def test_normals_reach_top_and_bottom_of_rule(self, runner, tmp_path, dim, samples, resolution):
        # the rule's rows ascend in u_N; the printed rows span all of them
        path = write_scene(tmp_path, {"dimension": dim, "ellipsoids": [{"matrix": np.eye(dim).tolist()}]})
        res = runner.invoke(main, ["boundary", path, "--samples", str(samples)])
        assert res.exit_code == 0
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in res.output.strip().split("\n")[1:]]
        )
        last = build_quadrature(dim, resolution).nodes[:, -1]
        assert len(np.unique(rows[:, :dim], axis=0)) == samples
        assert rows[:, dim - 1].max() == last.max()
        assert rows[:, dim - 1].min() == last.min()


class TestVolumeCommand:
    def test_divergence_single(self, runner, tmp_path):
        path = write_scene(
            tmp_path,
            {"dimension": 2, "ellipsoids": [{"matrix": [[2.0, 0.0], [0.0, 3.0]]}]},
        )
        res = runner.invoke(main, ["volume", path])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["method"] == "divergence"
        assert payload["value"] == pytest.approx(6 * math.pi, rel=1e-10)
        assert abs(payload["refinement_delta"]) < 1e-10

    def test_steiner_2d(self, runner, tmp_path):
        path = write_scene(tmp_path, EXAMPLE_SCENE)
        res = runner.invoke(main, ["volume", path, "--method", "steiner"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["exact"] is True
        assert payload["value"] == pytest.approx(134.64183305, rel=1e-8)

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_steiner_2d_extreme_magnitude_ratio(self, runner, tmp_path, scale):
        a = [[2.0, 0.3], [0.3, 1.0]]
        tiny = (scale * np.array([[1.0, -0.2], [-0.2, 3.0]])).tolist()
        for mats in ([a, tiny], [tiny, a]):
            path = write_scene(tmp_path, {"dimension": 2, "ellipsoids": [{"matrix": m} for m in mats]})
            res = runner.invoke(main, ["volume", path, "--method", "steiner"])
            assert res.exit_code == 0, res.output
            value = json.loads(res.output)["value"]
            assert value == pytest.approx(math.pi * np.linalg.det(a), rel=1e-15)

    def test_steiner_3d_quiet_on_well_conditioned_terms(self, tmp_path):
        # no warning on stderr when every term is below COND_WARN
        rng = np.random.default_rng(3)
        mats = [conditioned_spd(rng, 2e4).tolist() for _ in range(4)]
        path = write_scene(tmp_path, {"dimension": 3, "ellipsoids": [{"matrix": m} for m in mats]})
        src = str(Path(minksum.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "minksum.cli", "volume", path, "--method", "steiner"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0
        assert out.stderr == ""

    def test_steiner_3d_past_the_parser_limit(self, runner, tmp_path):
        # three terms of condition 1e6, whose products A_i A_k^-1 reach
        # condition 1e12: the sandwich never validates such a product
        rng = np.random.default_rng(0)
        mats = [conditioned_spd(rng, 1e6).tolist() for _ in range(3)]
        path = write_scene(tmp_path, {"dimension": 3, "ellipsoids": [{"matrix": m} for m in mats]})
        res = runner.invoke(main, ["volume", path, "--method", "steiner"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["lower"] <= payload["value"] <= payload["upper"]

    def test_steiner_3d_triple_bounds(self, runner, tmp_path):
        scene = {
            "dimension": 3,
            "ellipsoids": [
                {"matrix": np.eye(3).tolist()},
                {"matrix": (2 * np.eye(3)).tolist()},
                {"matrix": np.diag([1.0, 1.0, 1.5]).tolist()},
            ],
        }
        path = write_scene(tmp_path, scene)
        res = runner.invoke(main, ["volume", path, "--method", "steiner"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["exact"] is False
        div = json.loads(
            runner.invoke(main, ["volume", path, "--method", "divergence"]).output
        )
        assert payload["lower"] <= div["value"] * (1 + 1e-9)
        assert div["value"] <= payload["upper"] * (1 + 1e-9)

    def test_steiner_3d_bounds_bracket_value(self, runner, tmp_path):
        # terms up to condition 1e2: the sandwich's ellipsoid areas are
        # closed forms, so lower and upper bracket the reported value
        scene = conditioned_scene(0, 3, 2.0)
        path = write_scene(
            tmp_path, {"dimension": 3, "ellipsoids": [{"matrix": a.tolist()} for a in scene.stack]}
        )
        res = runner.invoke(main, ["volume", path, "--method", "steiner"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["lower"] <= payload["value"] <= payload["upper"]

    @pytest.mark.parametrize("m, exact", [(1, True), (2, True), (3, False)])
    def test_steiner_3d_exact_flag(self, runner, tmp_path, m, exact):
        # a 3D pair is closed-form; triple terms are sphere means by quadrature
        mats = [np.eye(3), np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 1.0, 1.0])][:m]
        path = write_scene(
            tmp_path, {"dimension": 3, "ellipsoids": [{"matrix": a.tolist()} for a in mats]}
        )
        res = runner.invoke(main, ["volume", path, "--method", "steiner"])
        assert res.exit_code == 0
        assert json.loads(res.output)["exact"] is exact

    def test_montecarlo_requires_seed(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, ["volume", path, "--method", "montecarlo"])
        assert res.exit_code == 2

    def test_montecarlo_with_seed(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(
            main,
            ["volume", path, "--method", "montecarlo", "--samples", "100000", "--seed", "5"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["value"] - math.pi) <= 4 * payload["std_error"]
        assert payload["seed"] == 5

    def test_methods_mutually_consistent(self, runner, tmp_path):
        path = write_scene(tmp_path, EXAMPLE_SCENE)
        div = json.loads(runner.invoke(main, ["volume", path]).output)["value"]
        ste = json.loads(
            runner.invoke(main, ["volume", path, "--method", "steiner"]).output
        )["value"]
        mc = json.loads(
            runner.invoke(
                main,
                [
                    "volume",
                    path,
                    "--method",
                    "montecarlo",
                    "--samples",
                    "200000",
                    "--seed",
                    "9",
                ],
            ).output
        )
        assert ste == pytest.approx(div, rel=1e-6)
        assert abs(mc["value"] - div) <= 4 * mc["std_error"]


class TestBoundsCommand:
    def test_example_pair_fields(self, runner, tmp_path):
        path = write_scene(tmp_path, EXAMPLE_SCENE)
        res = runner.invoke(main, ["bounds", path])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert math.pi * payload["inner_john_det"] == pytest.approx(113.14, rel=5e-3)
        assert math.pi * payload["inner_sum_det"] == pytest.approx(108.38, rel=5e-3)
        assert payload["lower_volume"] <= payload["upper_volume"]
        assert len(payload["bm_chain"]) == 4

    def test_homothetic_chain_collapse(self, runner, tmp_path):
        scene = {
            "dimension": 2,
            "ellipsoids": [
                {"matrix": [[1.0, 0.2], [0.2, 2.0]]},
                {"matrix": [[2.0, 0.4], [0.4, 4.0]]},
            ],
        }
        path = write_scene(tmp_path, scene)
        payload = json.loads(runner.invoke(main, ["bounds", path]).output)
        chain = payload["bm_chain"]
        assert chain[1] == pytest.approx(chain[2], abs=1e-10)
        assert chain[2] == pytest.approx(chain[3], abs=1e-10)

    def test_random_triple_sandwich(self, runner, tmp_path):
        rng = np.random.default_rng(90)
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        mats = [
            (q @ np.diag(rng.uniform(0.5, 2.0, 2)) @ q.T).tolist() for _ in range(3)
        ]
        path = write_scene(tmp_path, {"dimension": 2, "ellipsoids": [{"matrix": m} for m in mats]})
        payload = json.loads(runner.invoke(main, ["bounds", path]).output)
        div = json.loads(runner.invoke(main, ["volume", path]).output)["value"]
        assert payload["lower_volume"] <= div * (1 + 1e-9)
        assert div <= payload["upper_volume"] * (1 + 1e-9)


    @pytest.mark.parametrize("command", ["bounds", "plot"])
    def test_ill_conditioned_term(self, runner, tmp_path, command):
        # condition 1e6: its square (condition 1e12) would fail SPD
        # validation, which runs only where matrices enter and leave the library
        scene = {
            "dimension": 2,
            "ellipsoids": [
                {"matrix": [[1000.0, 0.0], [0.0, 0.001]]},
                {"matrix": [[1.0, 0.3], [0.3, 2.0]]},
            ],
        }
        res = runner.invoke(main, [command, write_scene(tmp_path, scene)])
        assert res.exit_code == 0


    @pytest.mark.filterwarnings("ignore:ellipsoid .* condition number:UserWarning")
    @pytest.mark.parametrize("command", [["bounds"], ["volume", "--method", "steiner"]])
    def test_2d_terms_near_the_parser_limit(self, runner, tmp_path, command):
        # two terms of condition 10^9.9, where the 2D area read NaN under
        # both the Haswell and the SkylakeX kernels: bounds exited 5 (the
        # sandwich failed on it) and steiner exited 2
        rng = np.random.default_rng([1, 2])
        mats = [conditioned_spd(rng, 10**9.9, 2).tolist() for _ in range(2)]
        path = write_scene(tmp_path, {"dimension": 2, "ellipsoids": [{"matrix": m} for m in mats]})
        res = runner.invoke(main, [command[0], path, *command[1:]])
        assert res.exit_code == 0, res.output


class TestPlotCommand:
    def test_example_curve_count_and_colors(self, runner, tmp_path):
        path = write_scene(tmp_path, EXAMPLE_SCENE)
        res = runner.invoke(main, ["plot", path])
        assert res.exit_code == 0
        svg = res.output
        assert svg.count("<polyline") == 5
        for color in ("black", "green", "blue", "red"):
            assert f'stroke="{color}"' in svg

    def test_single_ball(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, ["plot", path, "--show", "sum"])
        assert res.exit_code == 0
        assert res.output.count("<polyline") == 2
        assert 'stroke="black"' in res.output
        assert 'stroke="green"' in res.output

    def test_3d_rejected(self, runner, tmp_path):
        path = write_scene(
            tmp_path, {"dimension": 3, "ellipsoids": [{"matrix": np.eye(3).tolist()}]}
        )
        res = runner.invoke(main, ["plot", path])
        assert res.exit_code == 4

    def test_unknown_curve(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, ["plot", path, "--show", "sum,bogus"])
        assert res.exit_code == 2


class TestOracleCommand:
    def test_requires_seed(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, ["oracle", path])
        assert res.exit_code == 2

    def test_estimate(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, ["oracle", path, "--samples", "100000", "--seed", "3"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["value"] - math.pi) <= 4 * payload["std_error"]

    @pytest.mark.parametrize(
        "args",
        [
            ["oracle", "--samples", "1000", "--seed", "-1"],
            ["volume", "--method", "montecarlo", "--samples", "1000", "--seed", "-1"],
        ],
        ids=["oracle", "volume-mc"],
    )
    def test_negative_seed(self, runner, tmp_path, args):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, [args[0], path, *args[1:]])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: --seed must be a non-negative integer\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["oracle", "--samples", "1000", "--seed", "1"],
            ["volume", "--method", "montecarlo", "--samples", "1000", "--seed", "1"],
        ],
        ids=["oracle", "volume-mc"],
    )
    def test_4d_estimate(self, runner, tmp_path, args):
        path = write_scene(
            tmp_path,
            {"dimension": 4, "ellipsoids": [{"matrix": np.eye(4).tolist()}]},
        )
        res = runner.invoke(main, [args[0], path, *args[1:]])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert abs(payload["value"] - math.pi**2 / 2) <= 3 * payload["std_error"]


class TestErrorHandling:
    def test_missing_file(self, runner):
        res = runner.invoke(main, ["volume", "/nonexistent/scene.json"])
        assert res.exit_code == 3

    def test_invalid_json(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["volume", str(path)])
        assert res.exit_code == 1

    def test_schema_error(self, runner, tmp_path):
        path = write_scene(tmp_path, {"dimension": 2})
        res = runner.invoke(main, ["volume", path])
        assert res.exit_code == 1

    def test_numeric_validation_error(self, runner, tmp_path):
        path = write_scene(
            tmp_path,
            {"dimension": 2, "ellipsoids": [{"matrix": [[1.0, 0.0], [0.0, -1.0]]}]},
        )
        res = runner.invoke(main, ["volume", path])
        assert res.exit_code == 2

    def test_non_finite_entry(self, runner, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dimension": 2, "ellipsoids": [{"matrix": [[NaN, 0.0], [0.0, 1.0]]}]}'
        )
        res = runner.invoke(main, ["volume", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["volume", "--method", "montecarlo", "--samples", "10", "--seed", "1"],
            ["volume", "-r", "2"],
            ["bounds", "-r", "2"],
        ],
        ids=["volume-mc-samples", "volume-resolution", "bounds-resolution"],
    )
    def test_library_value_error_exits_2(self, runner, tmp_path, args):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, [args[0], path, *args[1:]])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("dim", [True, 1])
    def test_bad_dimension_is_schema_error(self, runner, tmp_path, dim):
        path = write_scene(
            tmp_path, {"dimension": dim, "ellipsoids": [{"matrix": [[1.0]]}]}
        )
        res = runner.invoke(main, ["volume", path])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")

    def test_bounds_error_exits_5(self, tmp_path):
        # a 4D pair of terms of condition 5e6: the N >= 4 volume of record is
        # the per-term chart quadrature, which at the default resolution
        # reads the volume 34% below the inner bound (under the Haswell,
        # SkylakeX, SandyBridge and Zen OpenBLAS kernels), so `bounds` raises
        # BoundsError; a fresh process shows the real stderr
        rng = np.random.default_rng(8)
        mats = [conditioned_spd(rng, 5e6, dim=4) for _ in range(2)]
        scene = {"dimension": 4, "ellipsoids": [{"matrix": a.tolist()} for a in mats]}
        path = write_scene(tmp_path, scene)
        src = str(Path(minksum.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "minksum.cli", "bounds", path],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 5
        assert out.stdout == ""
        assert out.stderr.startswith("error: bound sandwich violated: ")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("scale", [1e300, 1e-150])
    @pytest.mark.parametrize("command", [["bounds"], ["volume", "--method", "steiner"]])
    def test_extreme_magnitude_exits_2(self, runner, tmp_path, scale, command):
        # one term of a 3D pair scaled to 1e300 or 1e-150: the products
        # overflow or underflow (numpy's RuntimeWarnings, left aside here)
        # and Carlson's R_G divides by zero, which exits 2 like any
        # numeric error instead of ending in a traceback
        rng = np.random.default_rng(5)
        mats = [random_spd(rng, 3) * scale, random_spd(rng, 3)]
        path = write_scene(tmp_path, {"dimension": 3, "ellipsoids": [{"matrix": a.tolist()} for a in mats]})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = runner.invoke(main, [command[0], path, *command[1:]], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "error: " in res.stderr

    def test_write_failure(self, runner, tmp_path):
        path = write_scene(tmp_path, UNIT_BALL_2D)
        res = runner.invoke(main, ["volume", path, "--out", "/nonexistent/dir/out.json"])
        assert res.exit_code == 3


class TestDeterminism:
    COMMANDS = [
        ["boundary", "--samples", "64"],
        ["volume"],
        ["volume", "--method", "steiner"],
        ["volume", "--method", "montecarlo", "--samples", "50000", "--seed", "42"],
        ["bounds"],
        ["plot"],
        ["oracle", "--samples", "50000", "--seed", "42"],
    ]

    def test_byte_identical_runs(self, runner, tmp_path):
        path = write_scene(tmp_path, EXAMPLE_SCENE)
        for cmd in self.COMMANDS:
            args = [cmd[0], path] + cmd[1:]
            first = runner.invoke(main, args)
            second = runner.invoke(main, args)
            assert first.exit_code == 0, f"{cmd}: {first.output}"
            assert first.stdout_bytes == second.stdout_bytes, f"differs: {cmd}"


class TestStartup:
    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert minksum.__version__ in res.stdout

    def test_import_skips_scipy_optimize(self, tmp_path):
        # src/ never imports scipy: not on `import minksum.cli`, not on import
        # of any module, not in any CLI command (a fresh interpreter), and no
        # import statement names it
        import ast
        import pkgutil

        rng = np.random.default_rng(11)
        scenes = {}
        for dim, m in ((2, 2), (3, 3)):
            mats = [random_spd(rng, dim) for _ in range(m)]
            scenes[dim] = write_scene(
                tmp_path, {"dimension": dim, "ellipsoids": [{"matrix": a.tolist()} for a in mats]},
                name=f"scene{dim}.json",
            )
        commands = [
            ["volume", scenes[3]], ["volume", scenes[3], "--method", "steiner"],
            ["volume", scenes[2], "--method", "steiner"], ["bounds", scenes[3]],
            ["bounds", scenes[2]], ["boundary", scenes[3], "--samples", "10"],
            ["plot", scenes[2]], ["oracle", scenes[3], "--samples", "2000", "--seed", "1"],
        ]
        package = Path(minksum.__file__).resolve().parent
        names = [f"minksum.{m.name}" for m in pkgutil.iter_modules([str(package)])]
        code = "\n".join(
            [
                "import contextlib, importlib, io, sys",
                "from minksum.cli import main",
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
                f"for name in {names!r}: importlib.import_module(name)",
                f"for argv in {commands!r}:",
                "    with contextlib.redirect_stdout(io.StringIO()):",
                "        main(argv, standalone_mode=False)",
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
            ]
        )
        src = str(package.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.split() == ["[]", "[]"]
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                assert not any(m.startswith("scipy") for m in modules), f"{path.name}: {modules}"


BROKEN_ENTRIES = [
    "nonsymmetric", "singular", "indefinite", "nonfinite", "ragged", "nonsquare",
    "wrong_size", "empty", "scalar", "strings", "nulls", "objects",
]


def _entry(draw, n, kind):
    """An n x n matrix entry: SPD, or broken in the way `kind` names."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    spd = q @ np.diag(rng.uniform(0.3, 3.0, n)) @ q.T
    if kind == "spd":
        return spd.tolist()
    if kind == "nonsymmetric":
        return (spd + np.triu(rng.uniform(0.5, 1.0, (n, n)), 1)).tolist()
    if kind in ("singular", "indefinite"):
        first = -1.0 if kind == "indefinite" else 0.0
        return (q @ np.diag([first, *rng.uniform(0.3, 3.0, n - 1)]) @ q.T).tolist()
    if kind == "nonfinite":
        mat = spd.tolist()
        mat[0][-1] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        return mat
    if kind == "ragged":
        return [row[: i + 1] for i, row in enumerate(spd.tolist())]
    if kind == "nonsquare":
        return spd[:, :-1].tolist()
    if kind == "wrong_size":
        return np.eye(n + 1).tolist()
    if kind == "empty":
        return draw(st.sampled_from([[], [[]]]))
    if kind == "scalar":
        return draw(st.sampled_from([1.0, True, "1", None]))
    if kind == "strings":
        return [[str(v) for v in row] for row in spd.tolist()]
    if kind == "nulls":
        return [[None] * n for _ in range(n)]
    return [[{"value": 1.0}] * n for _ in range(n)]


@st.composite
def malformed_scenes(draw):
    """A scene of SPD terms with at most one defect: a wrong type, a bad
    dimension, a broken matrix, a bad item or an extra key."""
    n = draw(st.sampled_from([2, 3]))
    defect = draw(
        st.sampled_from(
            ["none", "top", "dimension", "ellipsoids", "item", "center", "both_keys", "no_keys",
             *BROKEN_ENTRIES]
        )
    )
    if defect == "top":
        return draw(st.sampled_from([None, [], "scene", 2, {"dimension": n}, {"ellipsoids": []}]))
    m = draw(st.integers(1, 4))
    items = [{draw(st.sampled_from(["matrix", "shape"])): _entry(draw, n, "spd")} for _ in range(m)]
    bad = draw(st.integers(0, m - 1))
    if defect in BROKEN_ENTRIES:
        items[bad] = {draw(st.sampled_from(["matrix", "shape"])): _entry(draw, n, defect)}
    elif defect == "item":
        items[bad] = draw(st.sampled_from([None, [1.0], "matrix", 1.0]))
    elif defect == "center":
        items[bad]["center"] = [0.0] * n
    elif defect == "both_keys":
        items[bad] = {"matrix": _entry(draw, n, "spd"), "shape": _entry(draw, n, "spd")}
    elif defect == "no_keys":
        items[bad] = {"radius": 1.0}
    ellipsoids = items
    if defect == "ellipsoids":
        ellipsoids = draw(st.sampled_from([[], {}, "ellipsoids", None, 1.0]))
    dim = n
    if defect == "dimension":
        dim = draw(st.sampled_from([True, False, 1, 0, -2, float(n), str(n), None, [n], n + 1]))
    return {"dimension": dim, "ellipsoids": ellipsoids}


class TestMalformedScenes:
    """Every command keeps its contract on any scene file: an exit code in
    0..5, no traceback, and JSON (or, for boundary and plot, data) on stdout
    only when it succeeds."""

    COMMANDS = [
        (["boundary", "--samples", "6"], False),
        (["volume"], True),
        (["volume", "--method", "steiner"], True),
        (["volume", "--method", "montecarlo", "--samples", "1000", "--seed", "3"], True),
        (["bounds"], True),
        (["plot"], False),
        (["oracle", "--samples", "1000", "--seed", "3"], True),
    ]

    @staticmethod
    def _reject_constant(name):
        raise ValueError(f"{name} is not JSON")

    @settings(max_examples=100)
    @given(scene=malformed_scenes())
    def test_exit_codes_and_streams(self, tmp_path_factory, scene):
        path = tmp_path_factory.mktemp("fuzz") / "scene.json"
        path.write_text(json.dumps(scene))
        runner = CliRunner()
        for extra, is_json in self.COMMANDS:
            # an exception the CLI does not handle propagates and fails the
            # test: a fresh process would print its traceback and exit 1
            res = runner.invoke(main, [extra[0], str(path), *extra[1:]], catch_exceptions=False)
            assert res.exit_code in range(6), (extra, scene, res.stderr)
            assert "Traceback" not in res.stderr
            if res.exit_code != 0:
                assert res.stdout == ""
                assert "error: " in res.stderr
            elif is_json:
                json.loads(res.stdout, parse_constant=self._reject_constant)
            else:
                assert res.stdout
