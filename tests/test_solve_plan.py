"""The solve plan compile against the per-layer compile it replaced.

``reference_compile_plan`` is that compile: the labels sorted by layer
and ``label_sort_key``, a slot dict, one ``sorted(phi)`` per node, and one
``reference_compile_layer`` call per layer over Python lists of slots.
``Lattice.solve_plan`` must give an equal plan (every array with its
dtype, the labels and the budget) on the acceptance corpora, the
tangency-heavy instances, the mixed circle embeddings, the benchmark's
workload shapes and hand-built lattices with virtual nodes, and raise the
same error on faulty covers.
"""

import random
import tracemalloc
from itertools import groupby

import numpy as np
import pytest

from corpora import abstract_systems, mixed_circle_embeddings, tangency_heavy_instances
from setmaxima import lattice
from setmaxima.generators import gen_convex_instance, gen_keys, gen_random_system
from setmaxima.geomlattice import build_geometric_lattice, solve_lattice_geometric
from setmaxima.lattice import (
    Lattice,
    LatticeError,
    SolvePlan,
    build_lattice,
    compute_parents,
    format_label,
    good_covers,
    label_sort_key,
)
from setmaxima.order import compile_classes
from setmaxima.setsystem import system_from_lists
from test_solvers import _assert_same_scan, _plain, reference_compile_layer

N_ABSTRACT = 1000


def fs(*items):
    return frozenset(items)


def reference_compile_plan(lat, covers):
    labels = sorted(lat.nodes, key=lambda lb: (len(lb), label_sort_key(lb)))
    slot = {label: i for i, label in enumerate(labels)}
    members = [sorted(lat.nodes[label].phi) for label in labels]
    if any(phi and phi[0] < 0 for phi in members):
        raise LatticeError("a class holds a negative element index")
    lengths = np.fromiter(map(len, members), np.int64, len(members))
    slots = np.flatnonzero(lengths)
    source = np.fromiter((e for phi in members for e in phi), np.int64, int(lengths.sum()))
    classes = compile_classes(slots, lengths[slots], source)
    layers = []
    for layer, group in groupby(labels, key=len):
        if layer < 2:
            continue
        children, parents = [], []
        for label in group:
            cover = covers.get(label)
            if cover is None:
                raise LatticeError(f"node {format_label(label)} has no cover")
            missing = [c for c in cover if c not in slot]
            if missing:
                raise LatticeError(
                    f"cover member {format_label(missing[0])} of "
                    f"{format_label(label)} is not a lattice node"
                )
            children += [slot[label]] * len(cover)
            parents += [slot[c] for c in cover]
        layers.append((layer, reference_compile_layer(children, parents)))
    layers.reverse()
    outputs = np.array([slot[frozenset((i,))] for i in range(1, lat.m + 1)], dtype=np.int64)
    budget = lat.n + sum(len(c) for c in covers.values())
    return SolvePlan(tuple(labels), classes, tuple(layers), outputs, budget)


def assert_plan_as_reference(lat, covers):
    got, want = lat._compile_plan(covers), reference_compile_plan(lat, covers)
    assert got.labels == want.labels
    assert lat.labels_by_layer() == list(want.labels)
    _assert_same_scan(got.classes, want.classes)
    assert [layer for layer, _ in got.layers] == [layer for layer, _ in want.layers]
    for (_, push), (_, expected) in zip(got.layers, want.layers):
        _assert_same_scan(push, expected)
    assert _plain(got.outputs) == _plain(want.outputs)
    assert got.budget == want.budget


def _raised(compile_plan, lat, covers):
    with pytest.raises(Exception) as caught:
        compile_plan(lat, covers)
    return type(caught.value), str(caught.value)


def assert_raises_as_reference(lat, covers):
    assert _raised(Lattice._compile_plan, lat, covers) == _raised(reference_compile_plan, lat, covers)


def _covered(system):
    lat = compute_parents(build_lattice(system))
    return lat, good_covers(lat)


def test_plans_equal_the_reference_on_the_abstract_corpus():
    for _, system in abstract_systems(N_ABSTRACT):
        assert_plan_as_reference(*_covered(system))


def test_plans_equal_the_reference_on_the_geometric_corpus(geometric_corpus):
    for case in geometric_corpus:
        assert_plan_as_reference(case.glat.lattice, case.glat.covers)


def test_plans_equal_the_reference_on_degenerate_geometry():
    instances = [inst for inst, _ in tangency_heavy_instances(120)]
    instances += mixed_circle_embeddings(60, 5)
    for inst in instances:
        glat = build_geometric_lattice(inst)
        assert_plan_as_reference(glat.lattice, glat.covers)


def test_plans_equal_the_reference_on_the_workload_shapes():
    for inst in (gen_convex_instance(20000, 2000, 4, seed=2), gen_convex_instance(20000, 200, 8, seed=2)):
        glat = build_geometric_lattice(inst)
        assert_plan_as_reference(glat.lattice, glat.covers)
    assert_plan_as_reference(*_covered(gen_random_system(2000, 30, 0.5, seed=2)))


def _shuffled(lat, rng, virtual=()):
    """The lattice's nodes, and ``virtual`` labels as virtual nodes, added
    in a random order, with parents computed again."""
    nodes = [(label, node.phi, node.virtual) for label, node in lat.nodes.items()]
    nodes += [(label, frozenset(), True) for label in virtual]
    rng.shuffle(nodes)
    copy = Lattice(m=lat.m, n=lat.n)
    for label, phi, is_virtual in nodes:
        copy.add_node(label, phi, virtual=is_virtual)
    return compute_parents(copy)


def test_one_wide_label_compiles_in_memory_linear_in_the_labels():
    # set i holds element 0 and element i: the node {1..m} stands beside m
    # singletons, so a table of every label padded to the widest would
    # hold m * m numbers (32 MB of int64 at m = 2000)
    m = 2000
    lat, covers = _covered(system_from_lists(m + 1, [{0, i} for i in range(1, m + 1)]))
    assert max(map(len, lat.nodes)) == m and len(lat.nodes) == m + 1
    tracemalloc.start()
    try:
        plan = lat._compile_plan(covers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.labels[-1] == frozenset(range(1, m + 1))
    assert peak < 2_000_000
    assert_plan_as_reference(lat, covers)


def test_plans_equal_the_reference_on_hand_built_lattices():
    rng = random.Random(5)
    for seed in range(40):
        system = gen_random_system(rng.randint(5, 80), rng.randint(2, 70), rng.uniform(0.1, 0.8), seed)
        lat = build_lattice(system)
        # unions of two labels that are not nodes yet become virtual nodes
        labels = list(lat.nodes)
        unions = {rng.choice(labels) | rng.choice(labels) for _ in range(6)}
        shuffled = _shuffled(lat, rng, sorted(unions - set(labels), key=sorted))
        covers = good_covers(shuffled)
        assert_plan_as_reference(shuffled, covers)
        # any lattice nodes make a cover, in any order and of any layer, and
        # a covers dict may name labels that are not nodes
        for label in rng.sample(list(covers), min(5, len(covers))):
            covers[label] = tuple(rng.sample(labels, rng.randint(0, 3)))
        covers[fs(system.m + 1, system.m + 2)] = (fs(1),)
        try:
            reference_compile_plan(shuffled, covers)
        except ValueError:  # a slot pushes and receives in one layer
            assert_raises_as_reference(shuffled, covers)
        else:
            assert_plan_as_reference(shuffled, covers)
    # no node above the first layer, and no node at all
    lat = _shuffled(build_lattice(system_from_lists(3, [{0}, {1, 2}])), rng)
    assert_plan_as_reference(lat, {})
    assert_plan_as_reference(Lattice(m=0, n=0), {})


def test_faulty_covers_raise_as_the_reference():
    rng = random.Random(9)
    for seed in range(60):
        lat, covers = _covered(gen_random_system(rng.randint(5, 60), rng.randint(3, 20), 0.5, seed))
        faulty = dict(covers)
        for label in rng.sample(list(covers), min(len(covers), rng.randint(1, 3))):
            if rng.random() < 0.5:
                del faulty[label]
            else:
                faulty[label] = (*covers[label], fs(99, 100))
        if faulty == covers:  # no node above the first layer
            continue
        assert_raises_as_reference(lat, faulty)


def _replaced(covers, changes):
    """``covers`` with ``changes`` made, a None cover deleted."""
    return {label: cover for label, cover in {**covers, **changes}.items() if cover is not None}


def test_the_first_faulty_label_in_slot_order_names_the_error():
    # {1,2} comes before {2,3}, which comes before {1,2,3}; the negative
    # class member is reported before any cover fault
    system = system_from_lists(4, [{0, 1, 3}, {1, 2, 3}, {2, 3}])
    lat, covers = _covered(system)
    bad_member = (fs(1), fs(7))
    cases = [
        ({fs(1, 2): bad_member, fs(2, 3): None}, r"cover member \{7\} of \{1,2\} is not a lattice node"),
        ({fs(1, 2): None, fs(2, 3): bad_member}, r"node \{1,2\} has no cover"),
        ({fs(2, 3): bad_member, fs(1, 2, 3): None}, r"cover member \{7\} of \{2,3\}"),
        ({fs(2, 3): None, fs(1, 2, 3): bad_member}, r"node \{2,3\} has no cover"),
    ]
    for changes, message in cases:
        faulty = _replaced(covers, changes)
        with pytest.raises(LatticeError, match=message):
            lat._compile_plan(faulty)
        assert_raises_as_reference(lat, faulty)
    lat.add_node(fs(4), frozenset({-1}))
    for changes, _ in cases:
        with pytest.raises(LatticeError, match="negative element index"):
            lat._compile_plan(_replaced(covers, changes))
        assert_raises_as_reference(lat, _replaced(covers, changes))


def test_solve_plan_needs_no_label_sort(monkeypatch):
    # the plan's slot order comes from one array sort: with the per-label
    # sort key and ``labels_by_layer`` unusable, a batch of solves still
    # compiles its plan, once
    glat = build_geometric_lattice(gen_convex_instance(n=150, m=12, k=4, seed=9))
    want = [solve_lattice_geometric(glat, gen_keys(glat.system.n, seed)) for seed in range(20)]
    glat.lattice._plan = None

    def forbidden(*args, **kwargs):
        raise AssertionError("labels sorted one at a time")

    monkeypatch.setattr(lattice, "label_sort_key", forbidden)
    monkeypatch.setattr(Lattice, "labels_by_layer", forbidden)
    compile_plan = Lattice._compile_plan
    compiled = []
    monkeypatch.setattr(
        Lattice, "_compile_plan", lambda self, covers: compiled.append(covers) or compile_plan(self, covers)
    )
    got = [solve_lattice_geometric(glat, gen_keys(glat.system.n, seed)) for seed in range(20)]
    assert got == want
    assert len(compiled) == 1 and compiled[0] is glat.covers
