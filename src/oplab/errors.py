"""Error taxonomy for the operator laboratory.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse raises the usual ValueError/TypeError.
"""
from __future__ import annotations


class OplabError(Exception):
    """Base class for laboratory-specific failures."""


class RepresentationError(OplabError):
    """An operation was asked of a window whose lattice kind does not support it."""


class WindowMismatchError(OplabError):
    """Two operands live on different truncation windows."""


class UnitarityError(OplabError):
    """An operand required to be unitary (within tolerance) is not."""


class SingularOperatorError(OplabError):
    """An operand required to be safely invertible is numerically singular."""


class PreconditionError(OplabError):
    """A documented precondition failed; message names the residual."""


class WindowExhaustedError(OplabError):
    """A constructive search ran out of window before placing all requested objects."""


class BoundaryContaminationError(OplabError):
    """A spectral quantity has no clean gap; a larger window is needed."""


class MethodDisagreementError(OplabError):
    """Two index methods that both apply returned different integers."""


class StageError(OplabError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


class ConfigError(OplabError, ValueError):
    """Experiment configuration failed validation; message lists every bad field."""

    def __init__(self, problems: str | list[str]):
        if isinstance(problems, str):
            problems = [problems]
        super().__init__("; ".join(problems))
        self.problems = tuple(problems)


class OpmatHeaderError(OplabError, ValueError):
    """Operator file header is missing, not JSON, or has the wrong format tag."""


class OpmatDimensionError(OplabError, ValueError):
    """Operator file header dimensions disagree with the payload or target window."""


class OpmatPayloadError(OplabError, ValueError):
    """Operator file payload is truncated or not decodable."""
