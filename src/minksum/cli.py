"""Command-line front end.

Commands: boundary (CSV of boundary points and curvatures), volume
(divergence / steiner / montecarlo JSON report), bounds (volume-bound
JSON report), plot (deterministic SVG figure, 2D only), oracle
(Monte-Carlo estimate).

Exit codes: 1 scene schema error, 2 numeric validation error (any
ValueError or ArithmeticError a command raises), 3 I/O error, 4 plot
requested for a non-2D scene, 5 a bound violated a guaranteed inequality
(BoundsError).  Data goes to --out or stdout; diagnostics to stderr.
Monte-Carlo commands require an explicit --seed; there is no wall-clock
seeding.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import __version__, bounds, curvature, geometry, oracle, quadrature, steiner, svgfig
from .geometry import EllipsoidSum, SceneSchemaError, SceneValidationError
from .spd import SpdError

EXIT_SCHEMA = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
EXIT_PLOT_DIM = 4
EXIT_BOUNDS = 5


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _numeric_errors(command):
    """Report a library ValueError or ArithmeticError as exit 2, a BoundsError as 5."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            _fail(EXIT_NUMERIC, str(exc))
        except bounds.BoundsError as exc:
            _fail(EXIT_BOUNDS, str(exc))

    return run


def _check_seed(seed: int | None, missing: str):
    """Exit 2 unless a Monte Carlo seed was given and is non-negative."""
    if seed is None:
        _fail(EXIT_NUMERIC, missing)
    if seed < 0:
        _fail(EXIT_NUMERIC, "--seed must be a non-negative integer")


def _load_scene(path: str) -> EllipsoidSum:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read scene file: {exc}")
    except json.JSONDecodeError as exc:
        _fail(EXIT_SCHEMA, f"scene file is not valid JSON: {exc}")
    try:
        return geometry.scene_from_json(raw)
    except SceneSchemaError as exc:
        _fail(EXIT_SCHEMA, str(exc))
    except (SceneValidationError, SpdError) as exc:
        _fail(EXIT_NUMERIC, str(exc))


def _emit(text: str, out: str | None):
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write output: {exc}")


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        _fail(EXIT_NUMERIC, "result is not finite")


@click.group()
@click.version_option(version=__version__)
def main():
    """Minkowski sums of ellipsoids: boundaries, curvatures, volume bounds."""


@main.command()
@click.argument("scene_path", type=click.Path())
@click.option("--samples", "-k", default=360, show_default=True, help="Normal count.")
@click.option("--out", type=click.Path(), default=None, help="CSV output path.")
@_numeric_errors
def boundary(scene_path, samples, out):
    """Export boundary points and principal curvatures as CSV."""
    scene = _load_scene(scene_path)
    if samples < 1:
        _fail(EXIT_NUMERIC, "--samples must be positive")
    if scene.dim == 2:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        res = 4
        while res ** (scene.dim - 1) < samples:
            res += 1
        normals = quadrature.build_quadrature(scene.dim, res).nodes[:samples]

    points = geometry.boundary_points(scene, normals)
    red = curvature.reduced_stack(scene, normals)
    lam = np.linalg.eigvalsh(red)
    kappas = np.sort(1.0 / lam, axis=1)

    dim = scene.dim
    header = (
        [f"n_{i + 1}" for i in range(dim)]
        + [f"x_{i + 1}" for i in range(dim)]
        + [f"kappa_{i + 1}" for i in range(dim - 1)]
    )
    lines = [",".join(header)]
    for k in range(normals.shape[0]):
        row = [*normals[k], *points[k], *kappas[k]]
        lines.append(",".join(repr(float(v)) for v in row))
    _emit("\n".join(lines) + "\n", out)


@main.command()
@click.argument("scene_path", type=click.Path())
@click.option(
    "--method",
    type=click.Choice(["divergence", "steiner", "montecarlo"]),
    default="divergence",
    show_default=True,
)
@click.option("--resolution", "-r", default=None, type=int, help="Quadrature resolution.")
@click.option("--samples", default=1_000_000, show_default=True, help="MC sample count.")
@click.option("--seed", default=None, type=int, help="MC seed (required for montecarlo).")
@click.option("--out", type=click.Path(), default=None, help="JSON output path.")
@_numeric_errors
def volume(scene_path, method, resolution, samples, seed, out):
    """Volume of the Minkowski sum by the selected method."""
    scene = _load_scene(scene_path)
    if resolution is None:
        resolution = quadrature.default_resolution(scene.dim)
    payload: dict = {"method": method, "dimension": scene.dim, "terms": scene.m}

    if method == "divergence":
        quad = quadrature.build_quadrature(scene.dim, resolution)
        coarse = quadrature.build_quadrature(scene.dim, max(resolution // 2, 4))
        value = quadrature.volume_divergence(scene, quad)
        payload["value"] = value
        payload["resolution"] = resolution
        payload["refinement_delta"] = value - quadrature.volume_divergence(
            scene, coarse
        )
    elif method == "steiner":
        if scene.dim == 2:
            payload["value"] = steiner.area_sum_2d_recursive(scene)
        elif scene.dim == 3:
            if scene.m <= 2:
                payload["value"] = steiner.volume_sum_3d_mixed(scene)
            else:
                quad = quadrature.build_quadrature(3, resolution)
                report = steiner.volume_sum_3d_bounds(scene, quad)
                payload["value"] = report.exact_value
                payload["lower"] = report.lower
                payload["upper"] = report.upper
        else:
            _fail(EXIT_NUMERIC, "steiner method supports N in {2, 3} only")
        # 3D triple terms (m >= 3) are sphere means taken by quadrature
        payload["exact"] = scene.dim == 2 or scene.m <= 2
    else:
        _check_seed(seed, "--seed is required for the montecarlo method")
        est = oracle.monte_carlo_volume(scene, samples, seed)
        payload["value"] = est.value
        payload["std_error"] = est.std_error
        payload["samples"] = est.samples
        payload["seed"] = est.seed
        payload["ambiguous"] = est.ambiguous

    _emit(_json_text(payload), out)


@main.command("bounds")
@click.argument("scene_path", type=click.Path())
@click.option("--resolution", "-r", default=None, type=int, help="Quadrature resolution.")
@click.option("--out", type=click.Path(), default=None, help="JSON output path.")
@_numeric_errors
def bounds_cmd(scene_path, resolution, out):
    """Inner/outer ellipsoidal volume bounds and the comparison chain."""
    scene = _load_scene(scene_path)
    if resolution is None:
        resolution = quadrature.default_resolution(scene.dim)
    quad = quadrature.build_quadrature(scene.dim, resolution)
    report = bounds.volume_bounds(scene, quad)
    _emit(_json_text(report.to_json()), out)


@main.command()
@click.argument("scene_path", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="SVG output path.")
@click.option(
    "--show",
    default="sum,inner,john",
    show_default=True,
    help="Comma-separated curves: sum,inner,john,outer.",
)
@_numeric_errors
def plot(scene_path, out, show):
    """Render a 2D scene (terms, sum boundary, bounding ellipses) as SVG."""
    scene = _load_scene(scene_path)
    if scene.dim != 2:
        _fail(EXIT_PLOT_DIM, "plot supports 2D scenes only")
    selected = tuple(s for s in show.split(",") if s)
    _emit(svgfig.render_scene_svg(scene, show=selected), out)


@main.command("oracle")
@click.argument("scene_path", type=click.Path())
@click.option(
    "--samples", default=1_000_000, show_default=True, help="Sample count (at least 1000)."
)
@click.option("--seed", default=None, type=int, help="PRNG seed (required).")
@click.option("--out", type=click.Path(), default=None, help="JSON output path.")
@_numeric_errors
def oracle_cmd(scene_path, samples, seed, out):
    """Monte-Carlo volume estimate (independent validation oracle)."""
    scene = _load_scene(scene_path)
    _check_seed(seed, "--seed is required; wall-clock seeding is not supported")
    est = oracle.monte_carlo_volume(scene, samples, seed)
    _emit(_json_text(est.to_json()), out)


if __name__ == "__main__":
    main()
