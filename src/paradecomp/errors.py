"""Error taxonomy shared across the package.

Every failure that callers are expected to catch carries a short stable
``code`` string (used verbatim in CLI output) and an ``exit_status`` so the
command line layer can map exceptions to process exit codes without a big
table of its own.  Exit conventions: 1 usage, 2 hypothesis/precondition
failures on otherwise well-formed input, 3 broken internal invariants.
"""

from __future__ import annotations


class ParadecompError(Exception):
    code = "ERROR"
    exit_status = 2

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def as_json(self) -> dict:
        out = {"error": self.code, "message": self.message}
        if self.details:
            out["details"] = _plain(self.details)
        return out


def _plain(obj):
    # keep detail payloads JSON-friendly without dragging json into here
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [_plain(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


class GraphFormatError(ParadecompError):
    code = "BAD_GRAPH"
    exit_status = 1


class PiecesFormatError(ParadecompError):
    code = "BAD_PIECES"
    exit_status = 1


class ForestFormatError(ParadecompError):
    code = "BAD_FOREST"
    exit_status = 1


class UnknownVertexError(ParadecompError):
    code = "UNKNOWN_VERTEX"
    exit_status = 1


class InvalidMatchingError(ParadecompError):
    code = "BAD_MATCHING"
    exit_status = 1


class BadCapError(ParadecompError):
    code = "BAD_CAP"
    exit_status = 1


class BadLetterError(ParadecompError):
    code = "BAD_LETTER"
    exit_status = 1


class FixedBaseError(ParadecompError):
    code = "FIXED_BASE"
    exit_status = 2


class MarginTooSmallError(ParadecompError):
    code = "MARGIN_TOO_SMALL"
    exit_status = 1


class NotPerfectOnInteriorError(ParadecompError):
    code = "NOT_PERFECT_ON_INTERIOR"
    exit_status = 2


class BallTruncatedError(ParadecompError):
    code = "BALL_TRUNCATED"
    exit_status = 2


class HypothesisFailedError(ParadecompError):
    code = "HYPOTHESIS_FAILED"
    exit_status = 2


class BudgetExhaustedError(ParadecompError):
    code = "BUDGET_EXHAUSTED"
    exit_status = 2


class WindowTooSmallError(ParadecompError):
    code = "WINDOW_TOO_SMALL"
    exit_status = 2


class HallViolatedError(ParadecompError):
    code = "HALL_VIOLATED"
    exit_status = 3


class ExtensionStuckError(ParadecompError):
    code = "EXTENSION_STUCK"
    exit_status = 3


class FreeActionViolationError(ParadecompError):
    code = "FREENESS_VIOLATED"
    exit_status = 3


class InvariantError(ParadecompError):
    code = "INVARIANT"
    exit_status = 3
