"""Seeded corpora shared by several test modules.

``conftest.py`` builds the geometric corpus once per session, so every
module that needs it reuses the same built instances.
"""

import math
import random
from dataclasses import dataclass

from setmaxima.generators import GenerationError, gen_convex_instance, gen_keys, gen_random_system
from setmaxima.geometry import ConvexPolygon, Point2, strict_hull
from setmaxima.geomlattice import (
    GeometricInstance,
    build_geometric_lattice,
    circle_embedding,
    induced_system,
)
from setmaxima.order import KeySpace
from setmaxima.setsystem import SetSystem
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


def abstract_systems(count):
    """The acceptance suite's abstract systems: ``count`` random systems of
    n in [1, 200] and m <= 50, each with its seed."""
    seed = 0
    built = 0
    while built < count:
        seed += 1
        rng = random.Random(10_000 + seed)
        n = rng.randint(1, 200)
        m = min(rng.randint(1, 50), 2**n - 1)
        density = rng.uniform(0.05, 0.9)
        try:
            system = gen_random_system(n, m, density, seed=seed)
        except GenerationError:
            continue
        yield seed, system
        built += 1


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


def tangency_heavy_instances(count):
    """``count`` small instances on integer grids, which make shared edges,
    vertex contacts and nesting common; each with its trial number."""
    rng = random.Random(2)
    built = 0
    trial = 0
    while built < count:
        trial += 1
        m = rng.randint(2, 5)
        polys = []
        for _ in range(m):
            for _ in range(80):
                pts = [
                    Point2(rng.randint(0, 12), rng.randint(0, 12))
                    for _ in range(rng.randint(3, 6))
                ]
                h = strict_hull(pts)
                if 3 <= len(h) <= 4:
                    polys.append(ConvexPolygon(tuple(h)))
                    break
        if len(polys) < m:
            continue
        points = tuple(
            Point2(rng.randint(0, 12), rng.randint(0, 12))
            for _ in range(rng.randint(4, 20))
        )
        inst = GeometricInstance(points=points, polygons=tuple(polys), k=4)
        try:
            induced_system(inst)
        except ValueError:  # a polygon holds no point, or two hold the same
            continue
        yield inst, trial
        built += 1


def mixed_circle_embeddings(count, seed):
    """``count`` circle embeddings whose sets hold 1 to 5 elements, so
    points, segments and full polygons meet in every combination."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 9)
        sets = {frozenset(rng.sample(range(n), rng.randint(1, min(5, n)))) for _ in range(6)}
        sets = sorted(sets, key=sorted)[: rng.randint(2, 6)]
        yield circle_embedding(SetSystem(n=n, sets=tuple(sets)))
