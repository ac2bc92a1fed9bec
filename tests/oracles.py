"""Exact laws to check Monte Carlo estimates against.

The iid Rademacher sum S_n = (Y_1 + ... + Y_n)/sqrt(n) in R^k lives on the
lattice {(2j - n)/sqrt(n)}^k with product-binomial weights.  For small
(n + 1)^k the lattice is enumerated outright, and each point is built with
the float operations the sampler uses, so a set's `contains` sees the very
values a draw can take (a float level such as 1.5000000000000002 then puts
the lattice point 1.5 on the side that a sample puts it).
"""

import itertools
import math

import numpy as np


def rademacher_lattice(k, n):
    """(points, weights): every value of S_n in R^k, shape ((n + 1)^k, k), with its probability."""
    values = np.arange(n + 1) * 2.0
    values -= n
    values /= math.sqrt(n)
    pmf = np.array([math.comb(n, j) for j in range(n + 1)]) / 2.0**n
    index = np.array(list(itertools.product(range(n + 1), repeat=k)))
    return values[index], np.prod(pmf[index], axis=1)


def rademacher_delta(family, k, n):
    """max over the family of |P(S_n in C) - Phi(C)|: the exact value `delta_hat` estimates."""
    points, weights = rademacher_lattice(k, n)
    probabilities = np.array([weights[C.contains(points)].sum() for C in family.sets])
    return float(np.max(np.abs(probabilities - family.measures)))
