import numpy as np
import pytest

from streampca import (
    AdaptiveConfig,
    RngState,
    SampleStore,
    dual_pca,
    run_adaptive,
)

# Shared regression fixture: a 5-dimensional, 10-step Gaussian stream drawn
# from the in-repo generator with seed 42. Small enough to cross-check the
# streaming update against a scalar transcription, rich enough to exercise
# rank saturation (only 5 components fit in 5 dimensions).
FIXTURE_D = 5
FIXTURE_N = 10
FIXTURE_SEED = 42


def overflowing_store():
    """A 3x4 store of finite samples whose squares overflow float64."""
    x = np.arange(12.0).reshape(3, 4)
    x[0] = [1e200, -1e200, 1e200, 2e200]
    return SampleStore.from_matrix(x)


@pytest.fixture(scope="session")
def fixture_matrix():
    return RngState(FIXTURE_SEED).gaussian((FIXTURE_D, FIXTURE_N))


@pytest.fixture(scope="session")
def fixture_store(fixture_matrix):
    return SampleStore.from_matrix(fixture_matrix)


@pytest.fixture(scope="session")
def fixture_batch_space(fixture_store):
    return dual_pca(fixture_store)


@pytest.fixture(scope="session")
def fixture_adaptive_state(fixture_matrix):
    samples = [fixture_matrix[:, j] for j in range(FIXTURE_N)]
    config = AdaptiveConfig(space_limit=FIXTURE_N, processing_limit=FIXTURE_N)
    return run_adaptive(samples, config)
