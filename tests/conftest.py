"""What several test files share: the Whitham/quadratic problem, its wave at
mu = 3e-3, and the reading of a failure's stderr line."""

import json

import pytest

from solwave.functionals import Problem
from solwave.nonlinearity import quadratic
from solwave.solver import SolveConfig, minimize_constrained
from solwave.symbols import whitham

PROB = Problem(whitham(), quadratic())


@pytest.fixture(scope="session")
def wave():
    return minimize_constrained(PROB, SolveConfig(mu=3e-3, tol_residual=1e-11))


def error_line(err: str) -> dict:
    """A failure's stderr: exactly one strict-JSON line, with no NaN or inf."""
    [line] = err.splitlines()
    return json.loads(line, parse_constant=lambda c: pytest.fail(f"non-finite {c} in {line}"))
