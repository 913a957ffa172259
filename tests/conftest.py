"""What several test files share: the Whitham/quadratic problem, its wave at
mu = 3e-3, seeded band-limited noise, and the reading of a failure's stderr line."""

import json

import numpy as np
import pytest

from solwave.functionals import Problem
from solwave.grid import band_noise
from solwave.nonlinearity import quadratic
from solwave.solver import SolveConfig, minimize_constrained
from solwave.symbols import whitham

PROB = Problem(whitham(), quadratic())


@pytest.fixture(scope="session")
def wave():
    return minimize_constrained(PROB, SolveConfig(mu=3e-3, tol_residual=1e-11))


def noise(seed, grid, band, amp=1.0):
    """``amp`` times a unit-L2 field on the modes |m| <= band, drawn from Philox(seed)."""
    return band_noise(grid, band, np.random.Generator(np.random.Philox(seed))) * amp


def error_line(err: str) -> dict:
    """A failure's stderr: exactly one strict-JSON line, with no NaN or inf."""
    [line] = err.splitlines()
    return json.loads(line, parse_constant=lambda c: pytest.fail(f"non-finite {c} in {line}"))
