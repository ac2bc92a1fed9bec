from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from steinclt import (
    NonIIDSource, exponential_source, gaussian_source, noniid_catalog, rademacher_source, sources,
    uniform_source,
)

# four uniform components whose diagonal covariances sum to the identity
_VECTOR_SCALES = np.sqrt([[0.1, 0.4], [0.2, 0.3], [0.3, 0.2], [0.4, 0.1]])

_SPLIT_SOURCES = {
    "gaussian": lambda: (gaussian_source(2), 16),
    "rademacher": lambda: (rademacher_source(2), 16),
    "uniform": lambda: (uniform_source(2), 16),
    "exponential": lambda: (exponential_source(2), 16),
    "noniid-scalar": lambda: (noniid_catalog("rademacher", 2, 8), 8),
    "noniid-vector": lambda: (NonIIDSource([(uniform_source(2), s) for s in _VECTOR_SCALES]), 4),
    # 8 and 4 raw bytes a row: a share of delta_hat's rows starts on a 4- or 8-row boundary
    "uniform-k1-n4": lambda: (uniform_source(1), 4),
    "noniid-scalar-n13": lambda: (noniid_catalog("rademacher", 2, 13), 13),
    # 1 and 6 raw bytes a row: shares start on a 32- or 16-row boundary
    "rademacher-k1-n4": lambda: (rademacher_source(1), 4),
    "rademacher-k3-n9": lambda: (rademacher_source(3), 9),
}


@pytest.fixture(params=sorted(_SPLIT_SOURCES))
def split_source(request):
    """(source, n): the four iid laws and a scalar- and a vector-scaled non-iid source at
    k = 2, and four raw-word laws whose rows are shorter than a Philox step, two of them
    Rademacher at k = 1 and 3."""
    return _SPLIT_SOURCES[request.param]()


@pytest.fixture
def split_three_ways(monkeypatch):
    """run(call) gives call() with the process's pool, with no pool, and in three parts."""

    def run(call):
        results = [call()]
        with monkeypatch.context() as m:
            m.setattr(sources, "_block_pool", lambda: None)
            results.append(call())
        with ThreadPoolExecutor(2, thread_name_prefix="steinclt-block") as pool:
            with monkeypatch.context() as m:
                m.setattr(sources, "_block_pool", lambda: pool)
                m.setattr(sources, "_usable_cpus", lambda: 3)
                results.append(call())
        return results

    return run
