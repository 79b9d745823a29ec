import numpy as np
import pytest


@pytest.fixture
def pixel_rows():
    """pixel_rows(n, seed): n random 3072-wide rows of pixel bytes."""

    def make(n, seed):
        return np.random.default_rng(seed).integers(0, 256, size=(n, 3072), dtype=np.uint8)

    return make
