from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from steinclt import NonIIDSource, noniid_catalog, rademacher_source, sources, uniform_source

# four uniform components whose diagonal covariances sum to the identity
_VECTOR_SCALES = np.sqrt([[0.1, 0.4], [0.2, 0.3], [0.3, 0.2], [0.4, 0.1]])

_SPLIT_SOURCES = {
    "rademacher": lambda: (rademacher_source(2), 16),
    "uniform": lambda: (uniform_source(2), 16),
    "noniid-scalar": lambda: (noniid_catalog("rademacher", 2, 8), 8),
    "noniid-vector": lambda: (NonIIDSource([(uniform_source(2), s) for s in _VECTOR_SCALES]), 4),
}


@pytest.fixture(params=sorted(_SPLIT_SOURCES))
def split_source(request):
    """(source, n) at k = 2: two iid laws, a scalar-scaled and a vector-scaled non-iid one."""
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
