"""Which paths the plain reference kernels serve.

C(n) stacks (`curvature._curvature`), tangent bases and their reduction,
the support-gap ascent (`geometry.max_support_gap`) and the geometric
mean (`spd._geometric_mean_raw`) keep the paper's plain forms because no
volume, bound, oracle or CLI path calls them: the integrals and the
N <= 3 curvatures read `area_factors` and `closed_form_curvatures`, and
the bounds check no containment at run time.  Each test below makes the
plain kernels raise and runs one of those paths as the benchmark's ops
do; a change that sends such a path through a plain kernel fails here,
and the kernel's speed then needs a decision.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from minksum import bounds, curvature, geometry, oracle, quadrature, spd
from minksum.cli import main
from minksum.geometry import EllipsoidSum, scene_to_json

from conftest import conditioned_spd

PLAIN_KERNELS = [
    (curvature, "_curvature"),
    (curvature, "tangent_basis_stack"),
    (curvature, "_reduce"),
    (geometry, "max_support_gap"),
    (spd, "_geometric_mean_raw"),
]


class PlainKernelCalled(Exception):
    pass


@pytest.fixture(autouse=True)
def plain_kernels_raise(monkeypatch):
    for module, name in PLAIN_KERNELS:

        def refuse(*args, _name=name, **kwargs):
            raise PlainKernelCalled(_name)

        monkeypatch.setattr(module, name, refuse)


def scene(dim, m, seed):
    """m terms of condition log-uniform on [1, 10^3.5], as the benchmark draws them."""
    rng = np.random.default_rng([seed, dim, m])
    return EllipsoidSum.from_matrices(
        [conditioned_spd(rng, 10.0 ** rng.uniform(0.0, 3.5), dim) for _ in range(m)]
    )


def test_the_guard_raises():
    with pytest.raises(PlainKernelCalled):
        curvature.reduced_stack(scene(4, 2, 0), np.eye(4))


@pytest.mark.parametrize("dim", [2, 3])
def test_bounds(dim):
    quad = quadrature.build_quadrature(dim, quadrature.default_resolution(dim))
    for m in range(1, 7):
        rep = bounds.volume_bounds(scene(dim, m, 1), quad)
        assert rep.lower_volume <= rep.upper_volume


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_volume(dim):
    res = quadrature.default_resolution(dim)
    quad = quadrature.build_quadrature(dim, res)
    coarse = quadrature.build_quadrature(dim, max(res // 2, 4))
    sc = scene(dim, 3, 2)
    values = [
        quadrature.volume_divergence(sc, quad),
        quadrature.volume_divergence(sc, coarse),
        quadrature.surface_area(sc, quad),
    ]
    if dim <= 3:
        values.append(quadrature.gaussian_curvature_integral(sc, quad))
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("dim", [2, 3])
def test_oracle(dim):
    est = oracle.monte_carlo_volume(scene(dim, 3, 3), 20_000, 7)
    assert est.value > 0.0


@pytest.mark.parametrize(
    "dim, command",
    [
        (dim, command)
        for dim in (2, 3)
        for command in (
            ["boundary", "--samples", "360"],
            ["volume"],
            ["volume", "--method", "steiner"],
            ["bounds"],
            ["oracle", "--samples", "2000", "--seed", "11"],
        )
    ]
    + [(2, ["plot"])],
)
def test_cli(tmp_path, dim, command):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_to_json(scene(dim, 3, 4))))
    res = CliRunner().invoke(main, [command[0], str(path), *command[1:]], catch_exceptions=False)
    assert res.exit_code == 0, res.output
