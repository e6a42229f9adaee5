"""Error types shared across the package.

Every failure that callers are expected to handle carries a stable string
``code``. The CLI maps these onto its exit-code contract: validation and
usage problems exit 2, resource limits exit 3.
"""

from __future__ import annotations


class CodedError(Exception):
    """Base class for errors with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class ValidationError(CodedError):
    """Malformed or contract-violating input (CLI exit 2)."""


class LimitError(CodedError):
    """A configured resource limit was exceeded (CLI exit 3)."""


# Validation codes
SELF_LOOP = "SELF_LOOP"
ISOLATED_NODE = "ISOLATED_NODE"
DUPLICATE_EDGE = "DUPLICATE_EDGE"
NODE_INDEX_OUT_OF_RANGE = "NODE_INDEX_OUT_OF_RANGE"
INVALID_SCHEMA = "INVALID_SCHEMA"
NON_BIJECTIVE = "NON_BIJECTIVE"
UNKNOWN_PAIR = "UNKNOWN_PAIR"
NON_SYMMETRIC = "NON_SYMMETRIC"
SPACE_MISMATCH = "SPACE_MISMATCH"
VARIANT_MISMATCH = "VARIANT_MISMATCH"
SHAPE_MISMATCH = "SHAPE_MISMATCH"
FILE_NOT_FOUND = "FILE_NOT_FOUND"
# Any other operating-system error on reading an input or writing an output.
IO_ERROR = "IO_ERROR"

# Limit codes
MEMORY_LIMIT = "MEMORY_LIMIT"
ITERATION_LIMIT = "ITERATION_LIMIT"
NO_CONVERGENCE = "NO_CONVERGENCE"
