"""The structural guards of the package: each states that one piece of the
solve is written in one place, by a pattern that a second statement of it
would match.  The same patterns run as steps of the CI workflow.
"""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "klayer"


def matches(pattern: str, names=None) -> list[str]:
    """The lines of the package's modules (those named, else all) that match
    pattern, as 'module:line: text'."""
    paths = [PACKAGE / f"{name}.py" for name in names] if names else sorted(PACKAGE.glob("*.py"))
    regex = re.compile(pattern)
    return [
        f"{path.name}:{number}: {line}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if regex.search(line)
    ]


def test_the_package_is_found():
    assert matches(r"^def newton\(", ["core"])


@pytest.mark.parametrize(
    "pattern, names, allowed, remedy",
    [
        # the ball's r^(n-1) trapezoid rule is stated by core.radial_weights
        # and core.radial_cumulative alone
        (r"\b(np|numpy)\.(trapezoid|trapz)\b", None, 0,
         "integrate through core.radial_weights or core.radial_cumulative"),
        # every steady solve runs core.newton, whose loop is the one
        # range(MAX_ITERS ...)
        (r"range\(MAX_ITERS", None, 1, "solve through core.newton with a NewtonSystem"),
        # every steady pair is a core.SteadyState of its W and integral(W^p)
        (r"^class \w*Steady", None, 1, "return a core.SteadyState of W and integral(W^p)"),
        # the layer quantities of a ball's steady state are measured by
        # asymptotics.measure alone; the CLI's reports read it
        (r"\b(boundary_slope|measure_thickness)\b", ["cli"], 0,
         "report through asymptotics.measure"),
        # a steady state's integral(W^p) is the one core.newton returns
        (r"\*\*\s*params\.p\b", ["mass_constraint", "planar2d", "evolve_radial"], 0,
         "take integral(W^p) from what core.newton returns"),
    ],
    ids=["one-radial-quadrature", "one-newton", "one-steady-record", "one-report",
         "one-integral"],
)
def test_one_statement(pattern, names, allowed, remedy):
    found = matches(pattern, names)
    assert len(found) <= allowed, f"{remedy}:\n" + "\n".join(found)
