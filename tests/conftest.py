"""Shared instance corpus for the test suite.

Everything is seeded; the corpus is a deterministic function of this file.
"""

import pytest
from hypothesis import settings

from cvckit.graph import bipartite_random, first_connected, gnp_random

# the default profile, ci, draws the same examples on every run, so a
# property test that fails in CI fails the same way locally and the
# suite's wall time compares between runs; `--hypothesis-profile=explore`
# draws fresh examples instead
settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("ci")


def connected_gnp(n, p, seed):
    return first_connected(gnp_random, (n, p), seed)[0]


def connected_bipartite(n1, n2, p, seed):
    return first_connected(bipartite_random, (n1, n2, p), seed)[0]


def small_corpus(count=500, base_seed=1000):
    """Mixed corpus of connected instances, 4 <= n <= 14.

    Four G(n, p) densities cycle through, with every fifth instance a
    small random bipartite graph.  Names encode the recipe.
    """
    out = []
    densities = (0.2, 0.35, 0.5, 0.7)
    for i in range(count):
        if i % 5 == 4:
            n1 = 2 + i % 5
            n2 = 2 + (i // 5) % 5
            p = 0.4 + 0.2 * ((i // 25) % 2)
            g = connected_bipartite(n1, n2, p, 10_000 + i)
            name = f"bip_{n1}_{n2}_i{i}"
        else:
            n = 4 + i % 11
            p = densities[(i // 11) % 4]
            g = connected_gnp(n, p, base_seed + i)
            name = f"gnp_{n}_{int(p * 100):03d}_i{i}"
        out.append((name, g))
    return out


@pytest.fixture(scope="session")
def corpus500():
    return small_corpus()


@pytest.fixture(scope="session")
def corpus60():
    return small_corpus(count=60)
