"""Exception types shared across the workbench.

The CLI maps ConfigurationError to exit code 2, DataError to exit code 3
and DivergenceError to exit code 4; harness.run_and_emit has by then
written the result files of the tasks that finished before the
divergence, the last RunResult harness.run_tasks yielded.  Everything
else is a plain crash.
"""


class CilbenchError(Exception):
    """Base class for all workbench errors."""


class ConfigurationError(CilbenchError):
    """Invalid or inconsistent configuration / arguments."""


class DataError(CilbenchError):
    """Malformed input data (bad file, corrupt record, non-finite values)."""


class ShapeError(CilbenchError):
    """Dimension mismatch between model and data."""


class DivergenceError(CilbenchError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
