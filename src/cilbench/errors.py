"""Exception types shared across the workbench.

The CLI maps ConfigurationError to exit code 2, DataError to exit code 3
and DivergenceError to exit code 4 (after writing the result files of the
tasks that finished before the divergence); everything else is a plain
crash.
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
    """Training produced a non-finite loss.

    run_experiment sets partial to the RunResult of the tasks finished
    before the diverged one (None when the first task diverged).
    """

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
        self.partial = None
