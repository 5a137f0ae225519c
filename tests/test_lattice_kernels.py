"""The batched parent and greedy-cover kernels against per-node loops.

``reference_parents`` and ``reference_greedy_cover`` are those loops: each
node's candidates come from the files of its indices and are tested one at
a time on Python-int masks, and each greedy pick scans the parents in
``label_sort_key`` order.  The kernels must give equal parents, and equal
covers in equal dict order, on random systems whose labels span one to
three 64-bit words, on the acceptance geometric corpus, on the
tangency-heavy instances and on the mixed circle embeddings.
"""

import random
from collections import Counter

import pytest

from corpora import mixed_circle_embeddings, tangency_heavy_instances
from setmaxima import lattice
from setmaxima.generators import gen_random_system
from setmaxima.geomlattice import build_geometric_lattice
from setmaxima.lattice import (
    Lattice,
    LatticeError,
    build_lattice,
    compute_parents,
    format_label,
    good_cover_greedy,
    good_covers,
    label_sort_key,
)


def fs(*items):
    return frozenset(items)


def mask(label):
    """The label as a Python int, index i at bit i - 1."""
    return sum(1 << (i - 1) for i in label)


def reference_parents(lat):
    """Each node's parents, one candidate at a time: label -> frozenset."""
    nodes = list(lat.nodes.values())
    freq = Counter(i for node in nodes for i in node.label)
    files = {}
    for node in nodes:
        rarest = min(node.label, key=lambda i: (freq[i], i))
        files.setdefault(rarest, []).append(node)
    order = {node.label: (-node.layer, label_sort_key(node.label)) for node in nodes}
    masks = {node.label: mask(node.label) for node in nodes}
    parents = {}
    for node in nodes:
        jm = masks[node.label]
        subs = [
            cand
            for i in node.label
            for cand in files.get(i, ())
            if masks[cand.label] & jm == masks[cand.label] and masks[cand.label] != jm
        ]
        # largest candidates first; keep those below no kept one
        subs.sort(key=lambda s: order[s.label])
        kept = []
        for cand in subs:
            if not any(masks[cand.label] & masks[keep.label] == masks[cand.label] for keep in kept):
                kept.append(cand)
        parents[node.label] = frozenset(c.label for c in kept)
    return parents


def reference_greedy_cover(node):
    """Largest marginal coverage first, the smallest label on ties."""
    parents = sorted(node.parents, key=label_sort_key)
    remaining = [(p, mask(p)) for p in parents]
    uncovered = mask(node.label)
    chosen = []
    while uncovered:
        best, best_gain = -1, 0
        for idx, (_, pm) in enumerate(remaining):
            gain = (pm & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = idx, gain
        if best_gain == 0:
            raise LatticeError(f"node {format_label(node.label)} has no good-cover")
        label, pm = remaining.pop(best)
        chosen.append(label)
        uncovered &= ~pm
    return tuple(sorted(chosen, key=label_sort_key))


def reference_covers(lat):
    return {
        label: reference_greedy_cover(lat.nodes[label])
        for label in sorted(lat.nodes, key=lambda lb: (len(lb), label_sort_key(lb)))
        if len(label) >= 2
    }


def random_systems(count=75):
    """Seeded systems with m = 1, 3, .., 149, so labels cross bits 64 and 128."""
    for seed in range(count):
        rng = random.Random(31_000 + seed)
        m = 1 + 2 * seed % 150
        n = rng.randint(max(8, m // 4), 200)
        yield gen_random_system(n, m, rng.uniform(0.05, 0.9), seed)


def copy_lattice(lat):
    """The same nodes, virtual ones included, with no parents yet."""
    copy = Lattice(m=lat.m, n=lat.n)
    for label, node in lat.nodes.items():
        copy.add_node(label, node.phi, virtual=node.virtual)
    return copy


def assert_kernels_match(lat):
    want = reference_parents(lat)
    compute_parents(lat)
    assert {label: node.parents for label, node in lat.nodes.items()} == want
    covers = good_covers(lat)
    assert list(covers.items()) == list(reference_covers(lat).items())
    return covers


def test_kernels_match_reference_on_random_systems():
    widths = Counter()
    for system in random_systems():
        lat = build_lattice(system)
        widths[(max(max(label) for label in lat.nodes) - 1) // 64 + 1] += 1
        # the one-node kernel, on a sample of the nodes
        for label, cover in list(assert_kernels_match(lat).items())[::25]:
            assert good_cover_greedy(lat.nodes[label], lat) == cover
    assert set(widths) == {1, 2, 3}


def test_kernels_match_reference_on_acceptance_geometric_corpus(geometric_corpus):
    for case in geometric_corpus:
        assert_kernels_match(copy_lattice(case.glat.lattice))


def test_kernels_match_reference_on_tangency_and_circle_instances():
    built = [build_geometric_lattice(inst) for inst, _ in tangency_heavy_instances(120)]
    built += [build_geometric_lattice(inst) for inst in mixed_circle_embeddings(60, 5)]
    for glat in built:
        assert_kernels_match(copy_lattice(glat.lattice))
        # the geometric fallback calls the one-node kernel
        for label in glat.fallback_labels:
            node = glat.lattice.nodes.get(label)
            if node is not None and not node.virtual:
                assert glat.covers[label] == reference_greedy_cover(node)


@pytest.mark.parametrize("block", [1, 7])
def test_block_boundaries_do_not_change_results(monkeypatch, block):
    # every third random system; only the smaller ones one pair at a time
    systems = [s for s in list(random_systems())[::3] if s.m <= 60 or block > 1]
    default = []
    for system in systems:
        lat = compute_parents(build_lattice(system))
        default.append(({lb: node.parents for lb, node in lat.nodes.items()}, good_covers(lat)))
    monkeypatch.setattr(lattice, "_BLOCK", block)
    for system, (parents, covers) in zip(systems, default):
        lat = compute_parents(build_lattice(system))
        assert {lb: node.parents for lb, node in lat.nodes.items()} == parents
        assert list(good_covers(lat).items()) == list(covers.items())


def test_good_covers_needs_parents():
    lat = build_lattice(gen_random_system(40, 8, 0.5, seed=11))
    with pytest.raises(LatticeError, match="parents not computed"):
        good_covers(lat)


def test_good_covers_names_the_first_uncoverable_node_by_layer():
    # {1,2} fails in the second round and {3,4,5} in the first; {1,2} comes
    # first in labels_by_layer() order, so it is the one named
    lat = Lattice(m=6, n=0)
    for label in (*(fs(i) for i in range(1, 7)), fs(3, 4), fs(3, 4, 5), fs(1, 2)):
        lat.add_node(label, frozenset())
    compute_parents(lat)
    lat.node({1, 2}).parents = frozenset({fs(1)})
    lat.node({3, 4, 5}).parents = frozenset({fs(6)})
    with pytest.raises(LatticeError, match=r"node \{1,2\} has no good-cover: some index is in no parent"):
        good_covers(lat)
    lat.node({1, 2}).parents = frozenset({fs(1), fs(2)})
    with pytest.raises(LatticeError, match=r"node \{3,4,5\} has no good-cover"):
        good_covers(lat)


def test_parents_and_covers_make_no_per_node_mask_or_cover_call(monkeypatch):
    # nodes hold no mask, and only the exact cover search makes masks, of
    # one node and its parents: a greedy build calls no per-node search
    lat = build_lattice(gen_random_system(400, 30, 0.5, seed=3))
    counts = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in ("good_cover_exact", "good_cover_greedy"):
        monkeypatch.setattr(lattice, name, counted(name, getattr(lattice, name)))
    covers = lattice.good_covers(lattice.compute_parents(lat))
    assert len(covers) > 100 and counts == {}
    lat.add_virtual(fs(1, 31))
    assert not any(hasattr(node, "mask") for node in lat.nodes.values())
    # the counters see a call when one happens
    node = lat.nodes[next(iter(covers))]
    lattice.good_cover_greedy(node, lat)
    lattice.good_cover_exact(node, lat, budget=len(node.parents))
    assert counts == {"good_cover_greedy": 1, "good_cover_exact": 1}
