"""Error types shared across the package.

Every failure carries a machine-readable ``code`` and an ``exit_code``
hint so batch drivers map outcomes without parsing messages:
1 = bad configuration/usage, 2 = model regime (no wave there),
3 = iteration or resolution failure.
"""


class SolwaveError(Exception):
    code = "ERROR"
    exit_code = 3

    def __init__(self, message: str = "", **info):
        super().__init__(message or self.code)
        self.info = info


class ConfigError(SolwaveError):
    code = "CONFIG"
    exit_code = 1


class GridMismatch(SolwaveError):
    code = "GRID_MISMATCH"
    exit_code = 1


class OutOfDomain(SolwaveError):
    code = "OUT_OF_DOMAIN"
    exit_code = 1


class ExponentWindow(SolwaveError):
    code = "EXPONENT_WINDOW"
    exit_code = 1


class SymbolViolation(SolwaveError):
    code = "SYMBOL_INVALID"
    exit_code = 2


class SubcriticalSpeed(SolwaveError):
    code = "SUBCRITICAL_SPEED"
    exit_code = 2


class MuTooLarge(SolwaveError):
    code = "MU_TOO_LARGE"
    exit_code = 2


class Blowup(SolwaveError):
    code = "BLOWUP"
    exit_code = 2


class BallExit(SolwaveError):
    code = "BALL_EXIT"
    exit_code = 2


class MaxIterations(SolwaveError):
    code = "MAX_ITER"
    exit_code = 3


class NoConvergence(SolwaveError):
    code = "NO_CONVERGENCE"
    exit_code = 3


class TailTooLarge(SolwaveError):
    code = "TAIL_TOO_LARGE"
    exit_code = 3


class ResolutionLoss(SolwaveError):
    code = "RESOLUTION_LOSS"
    exit_code = 3
