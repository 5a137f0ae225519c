"""Seeded corpora shared by several test modules.

``conftest.py`` builds the geometric corpus once per session, so every
module that needs it reuses the same built instances.
"""

import math
import random
from dataclasses import dataclass

from setmaxima.generators import GenerationError, gen_convex_instance, gen_keys
from setmaxima.geomlattice import build_geometric_lattice
from setmaxima.order import KeySpace
from setmaxima.solvers import solve_bruteforce, solve_bucket, solve_lattice, solve_sort

N_GEOMETRIC = 200
K_CYCLE = (3, 4, 6, 8)


@dataclass
class GeometricCase:
    seed: int
    instance: object
    glat: object
    keys: KeySpace
    results: dict


def build_geometric_corpus():
    """The acceptance suite's geometric corpus: N_GEOMETRIC convex instances
    of n in [100, 2000), m <= n / 10 and k cycling through K_CYCLE, each
    built and solved by the four solvers."""
    cases = []
    seed = 0
    while len(cases) < N_GEOMETRIC:
        seed += 1
        rng = random.Random(77_000 + seed)
        n = int(10 ** rng.uniform(2.0, math.log10(2000)))
        m = rng.randint(2, max(2, min(200, n // 10)))
        k = K_CYCLE[seed % len(K_CYCLE)]
        try:
            instance = gen_convex_instance(n=n, m=m, k=k, seed=seed)
        except GenerationError:
            continue
        glat = build_geometric_lattice(instance)
        keys = gen_keys(n, seed + 900_000)
        results = {
            "brute": solve_bruteforce(glat.system, keys),
            "sort": solve_sort(glat.system, keys),
            "bucket": solve_bucket(glat.system, keys),
            "lattice": solve_lattice(
                glat.system, keys, prebuilt=(glat.lattice, glat.covers)
            ),
        }
        cases.append(GeometricCase(seed, instance, glat, keys, results))
    return cases
