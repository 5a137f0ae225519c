import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmaxima.arrays import sort_pairs
from setmaxima.generators import gen_keys
from setmaxima.order import (
    ComparisonLedger,
    KeySpace,
    compile_classes,
    compile_layer,
    compile_sort,
)
from test_solvers import _assert_same_scan, _merge_sort, reference_compile_layer


def _classes(pairs):
    """``compile_classes`` of (slot, members) pairs."""
    pairs = list(pairs)
    return compile_classes(
        [slot for slot, _ in pairs],
        [len(members) for _, members in pairs],
        [e for _, members in pairs for e in members],
    )


def _max_of_class(ks, members, ledger):
    """The member of largest key, as the one class of a ``propagate`` call."""
    return int(ks.propagate(_classes([(0, members)]), (), ledger)[0])


def test_compare_greater_and_ledger():
    ks = KeySpace([5, 2])
    ledger = ComparisonLedger()
    assert ks.compare(0, 1, ledger) == 1
    assert ledger.count == 1


def test_compare_antisymmetry():
    ks = KeySpace([5, 2])
    ledger = ComparisonLedger()
    assert ks.compare(1, 0, ledger) == -1
    assert ledger.count == 1


def test_compare_errors():
    ks = KeySpace([5, 2])
    ledger = ComparisonLedger()
    with pytest.raises(ValueError):
        ks.compare(1, 1, ledger)
    with pytest.raises(IndexError):
        ks.compare(0, 2, ledger)
    with pytest.raises(IndexError):
        ks.compare(-3, 0, ledger)
    assert ledger.count == 0


def test_distinct_keys_required():
    with pytest.raises(ValueError):
        KeySpace([1, 2, 1])


def test_argmax_reconstruction_matches_position_of_n():
    # tournament by audited compares finds where the value n sits
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        keys = list(range(1, n + 1))
        rng.shuffle(keys)
        ks = KeySpace(keys)
        ledger = ComparisonLedger()
        best = 0
        for i in range(1, n):
            if ks.compare(i, best, ledger) > 0:
                best = i
        assert best == keys.index(n)
        assert ledger.count == n - 1


def test_max_of_class_singleton():
    ks = KeySpace(list(range(1, 9)))
    ledger = ComparisonLedger()
    assert _max_of_class(ks, [7], ledger) == 7
    assert ledger.count == 0


def test_max_of_class_tournament():
    ks = KeySpace([3, 1, 2])
    ledger = ComparisonLedger()
    assert _max_of_class(ks, [0, 1, 2], ledger) == 0
    assert ledger.count == 2


def test_max_of_class_against_raw_scan():
    rng = random.Random(7)
    keys = rng.sample(range(1, 1000), 10)
    ks = KeySpace(keys)
    ledger = ComparisonLedger()
    got = _max_of_class(ks, list(range(10)), ledger)
    assert got == max(range(10), key=keys.__getitem__)
    assert ledger.count == 9


def test_max_of_class_errors():
    ks = KeySpace([1, 2])
    ledger = ComparisonLedger()
    with pytest.raises(ValueError):
        _max_of_class(ks, [], ledger)
    with pytest.raises(ValueError):
        _max_of_class(ks, [0, 1, 0], ledger)
    assert ledger.count == 0


@given(st.permutations(list(range(1, 8))), st.data())
def test_strict_total_order_on_triples(perm, data):
    ks = KeySpace(perm)
    n = len(perm)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda v: v != i))
    k = data.draw(st.integers(0, n - 1).filter(lambda v: v not in (i, j)))
    ledger = ComparisonLedger()
    assert ks.compare(i, j, ledger) == -ks.compare(j, i, ledger)
    if ks.compare(i, j, ledger) < 0 and ks.compare(j, k, ledger) < 0:
        assert ks.compare(i, k, ledger) < 0


def test_transcript_records_pairs():
    ks = KeySpace([4, 1, 3, 2])
    ledger = ComparisonLedger(record_transcript=True)
    _max_of_class(ks, [0, 1, 2, 3], ledger)
    assert ledger.transcript == ((1, 0), (2, 0), (3, 0))
    assert ComparisonLedger().transcript is None


def test_random_keyspace_is_seeded_permutation():
    a = gen_keys(50, seed=3)
    b = gen_keys(50, seed=3)
    c = gen_keys(50, seed=4)
    assert a.oracle_keys() == b.oracle_keys()
    assert a.oracle_keys() != c.oracle_keys()
    assert sorted(a.oracle_keys()) == list(range(1, 51))


def _compare_max(ks, indices, ledger):
    best = indices[0]
    for idx in indices[1:]:
        if ks.compare(idx, best, ledger) > 0:
            best = idx
    return best


def _compare_propagate(ks, steps, champion, ledger):
    for child, parents in steps:
        value = champion[child]
        if value is None:
            continue
        for parent in parents:
            cur = champion[parent]
            if cur is None or cur == value:
                champion[parent] = value
            elif ks.compare(value, cur, ledger) > 0:
                champion[parent] = value


def test_max_of_class_range_errors():
    ks = KeySpace([1, 2, 3])
    # element 3 is beyond these keys, as when the keys are shorter than the system
    for indices in ([0, 3], [-1, 0], [1, -1], [0, 1, 2, 3]):
        with pytest.raises(IndexError):
            _compare_max(ks, indices, ComparisonLedger())
        ledger = ComparisonLedger()
        with pytest.raises(IndexError):
            _max_of_class(ks, indices, ledger)
        assert ledger.count == 0
    # unlike the per-pair path, a single out-of-range index is caught too
    with pytest.raises(IndexError):
        _max_of_class(ks, [3], ComparisonLedger())


def test_max_of_class_transcript_equals_compare_calls():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        ks = gen_keys(n, seed)
        indices = rng.sample(range(n), rng.randint(1, n))
        ledger = ComparisonLedger(record_transcript=True)
        reference = ComparisonLedger(record_transcript=True)
        assert _max_of_class(ks, indices, ledger) == _compare_max(ks, indices, reference)
        assert ledger.transcript == reference.transcript
        assert ledger.count == reference.count == len(indices) - 1


def _layer(steps):
    """Compile (child slot, parent slots) steps, one push per parent."""
    (layer,) = compile_layer([c for c, into in steps for _ in into], [p for _, into in steps for p in into])
    return layer


def _listed(champion, slots=0):
    """The champions ``propagate`` returns as a list of at least ``slots``,
    None for an empty slot."""
    listed = [None if v == -1 else v for v in champion.tolist()]
    return listed + [None] * (slots - len(listed))


def _propagate(ks, start, layers, ledger):
    """``propagate`` from a champion list (None for an empty slot): each
    held element is a one-member class, which costs no comparison."""
    classes = _classes([(slot, (e,)) for slot, e in enumerate(start) if e is not None])
    return _listed(ks.propagate(classes, layers, ledger), len(start))


def test_reduce_classes_equals_max_of_class_calls():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        ks = gen_keys(n, seed)
        elements = list(range(n))
        rng.shuffle(elements)
        classes, slot = [], 0
        while elements:
            size = rng.randint(1, len(elements))
            classes.append((slot, tuple(sorted(elements[:size]))))
            elements, slot = elements[size:], slot + rng.randint(1, 3)
        batch = _classes(classes)
        assert batch.span - 1 == max(members[-1] for _, members in classes)
        ledger = ComparisonLedger(record_transcript=True)
        champion = ks.propagate(batch, (), ledger)
        # the slots run up to the last class's; the ones between are empty
        assert champion.size == classes[-1][0] + 1
        reference = ComparisonLedger(record_transcript=True)
        expected = [None] * champion.size
        for s, members in classes:
            expected[s] = _compare_max(ks, members, reference)
        assert _listed(champion) == expected
        assert ledger.transcript == reference.transcript
        assert ledger.count == reference.count


def test_reduce_classes_range_checks_top_once():
    ks = KeySpace([1, 2, 3])
    ledger = ComparisonLedger(record_transcript=True)
    with pytest.raises(IndexError):
        ks.propagate(_classes([(0, (0, 1)), (1, (2, 3))]), (), ledger)
    assert ledger.count == 0 and ledger.transcript == ()
    champion = ks.propagate(_classes([(0, (0, 1)), (1, (2,))]), (), ledger)
    assert _listed(champion) == [1, 2] and ledger.count == 1
    assert ks.propagate(_classes([]), (), ledger).size == 0
    assert ledger.count == 1


def test_propagate_transcript_equals_compare_calls():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        ks = gen_keys(n, seed)
        # children are slots 0..c-1, parents are slots c..; a parent may
        # start empty or already hold a child's element
        c = rng.randint(1, 6)
        slots = c + rng.randint(1, 6)
        champion = [rng.choice([None] + list(range(n))) for _ in range(slots)]
        steps = [
            (child, tuple(rng.sample(range(c, slots), rng.randint(1, slots - c))))
            for child in range(c)
        ]
        expected = list(champion)
        reference = ComparisonLedger(record_transcript=True)
        _compare_propagate(ks, steps, expected, reference)
        ledger = ComparisonLedger(record_transcript=True)
        assert _propagate(ks, champion, [_layer(steps)], ledger) == expected
        assert ledger.transcript == reference.transcript
        assert ledger.count == reference.count


def test_propagate_range_errors():
    # element 3 is beyond these keys, as when the keys are shorter than the
    # system, and -1 is a negative index
    ks = KeySpace([1, 2, 3])
    layer = _layer([(0, (1,))])
    for champion in ([3, 0], [0, 3], [-1, 0]):
        with pytest.raises(IndexError):
            _compare_propagate(ks, [(0, (1,))], list(champion), ComparisonLedger())
        ledger = ComparisonLedger()
        with pytest.raises(IndexError):
            _propagate(ks, champion, [layer], ledger)
        assert ledger.count == 0
    # a slot past every class is an empty slot, not an error
    ledger = ComparisonLedger()
    assert _propagate(ks, [0, 1], [_layer([(0, (2,))])], ledger) == [0, 1, 0]
    assert ledger.count == 0
    # a negative slot, or a slot that pushes and receives in one layer
    with pytest.raises(IndexError):
        _layer([(0, (-1,))])
    with pytest.raises(IndexError):
        _classes([(-1, (0,))])
    with pytest.raises(ValueError):
        _layer([(0, (1,)), (1, (2,))])
    with pytest.raises(ValueError):
        compile_layer([0, 1], [2])
    # each layer is checked on its own: slot 1 receives in the first layer
    # and pushes in the second
    assert len(compile_layer([0, 1], [1, 2], [1, 1])) == 2
    with pytest.raises(ValueError, match="pushes and receives"):
        compile_layer([0, 1, 3], [1, 2, 1], [1, 2])
    with pytest.raises(ValueError, match="one layer"):
        compile_layer([0, 1], [1, 2], [1])
    with pytest.raises(IndexError, match="negative slot in a push layer: -2"):
        compile_layer([0, 1], [1, -2], [1, 1])
    assert compile_layer([], [], []) == ()


def test_compile_classes_rejects_empty_repeated_and_negative_members():
    with pytest.raises(ValueError, match="^the class of slot 3 is empty$"):
        compile_classes([0, 3, 5], [1, 0, 1], [0, 1])
    with pytest.raises(ValueError, match="^a class holds an element twice$"):
        compile_classes([0, 1], [2, 2], [1, 2, 3, 3])
    with pytest.raises(IndexError, match="^negative index in a class batch: -2$"):
        compile_classes([0], [2], [4, -2])
    with pytest.raises(ValueError, match="one slot and one length"):
        compile_classes([0, 1], [2], [1, 2])
    with pytest.raises(ValueError, match="one slot and one length"):
        compile_classes([0], [2], [1, 2, 3])
    # one element in two classes is legal: each class checks its own members
    scan = compile_classes([4, 2], [2, 1], [7, 1, 7])
    assert scan.targets.tolist() == [4, 2] and scan.heads.tolist() == [0, 2]
    assert scan.pushes.tolist() == [1] and scan.met.tolist() == [0]
    assert scan.pushed.tolist() == [1]
    # members of any size: 2^32 in class 0 is not 0 in class 1, and the
    # pairs that do not fit one int64 each are sorted exactly too
    compile_classes([0, 1], [1, 1], [1 << 32, 0])
    compile_classes([0, 1], [1, 1], [2**63 - 1, 2**63 - 1])
    with pytest.raises(ValueError, match="twice"):
        compile_classes([0], [3], [2**63 - 1, 0, 2**63 - 1])
    with pytest.raises(IndexError, match=rf"^negative index in a class batch: {-(2**62)}$"):
        compile_classes([0, 1], [2, 1], [-(2**62), 2**62, 2**62])


_INT64 = st.integers(-(2**63), 2**63 - 1)


@given(st.lists(st.tuples(st.integers(0, 2**63 - 1) | st.integers(0, 9), _INT64 | st.integers(-3, 3))))
def test_sort_pairs_is_the_lexicographic_order(pairs):
    major = np.array([a for a, _ in pairs], dtype=np.int64)
    minor = np.array([b for _, b in pairs], dtype=np.int64)
    got = sort_pairs(major, minor)
    assert list(zip(*(side.tolist() for side in got))) == sorted(pairs)
    assert all(side.dtype == np.int64 for side in got)


def test_propagate_one_call_over_many_layers_equals_a_call_per_layer():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        ks = gen_keys(n, seed)
        # slots form groups, deepest first; each child pushes into later
        # groups, so the parents of one layer are the children of the next
        bounds = [0]
        for _ in range(rng.randint(2, 5)):
            bounds.append(bounds[-1] + rng.randint(1, 5))
        start = [rng.choice([None] + list(range(n))) for _ in range(bounds[-1])]
        layers = [
            [
                (child, tuple(rng.sample(range(hi, bounds[-1]),
                                         rng.randint(1, min(3, bounds[-1] - hi)))))
                for child in range(lo, hi)
            ]
            for lo, hi in zip(bounds, bounds[1:-1])
        ]
        compiled = [_layer(steps) for steps in layers]
        # one call lays out every layer as a call per layer does
        together = compile_layer(
            [c for steps in layers for c, into in steps for _ in into],
            [p for steps in layers for _, into in steps for p in into],
            [sum(len(into) for _, into in steps) for steps in layers],
        )
        assert len(together) == len(compiled)
        for got, want, steps in zip(together, compiled, layers):
            _assert_same_scan(got, want)
            _assert_same_scan(got, reference_compile_layer(
                [c for c, into in steps for _ in into], [p for _, into in steps for p in into]
            ))
        per_layer, expected = list(start), list(start)
        per_layer_ledger = ComparisonLedger(record_transcript=True)
        for layer in compiled:
            per_layer = _propagate(ks, per_layer, [layer], per_layer_ledger)
        ledger = ComparisonLedger(record_transcript=True)
        one_call = _propagate(ks, start, compiled, ledger)
        reference = ComparisonLedger(record_transcript=True)
        _compare_propagate(ks, [step for steps in layers for step in steps], expected, reference)
        assert one_call == per_layer == expected
        assert ledger.transcript == per_layer_ledger.transcript == reference.transcript
        assert ledger.count == per_layer_ledger.count == reference.count


def test_propagate_range_checks_every_champion_before_comparing():
    # slot 2 holds element 3, beyond these keys; no push reads it, and the
    # class of slot 0 would compare before any push
    ks = KeySpace([1, 2, 3])
    layer = _layer([(0, (1,))])
    for classes in ([(0, (0,)), (1, (1,)), (2, (3,))], [(0, (0, 2)), (1, (1,)), (2, (3,))]):
        ledger = ComparisonLedger(record_transcript=True)
        with pytest.raises(IndexError, match="out of range in propagate: 3"):
            ks.propagate(_classes(classes), [layer], ledger)
        assert ledger.count == 0 and ledger.transcript == ()


def test_propagate_free_moves():
    ks = KeySpace([1, 2, 3])
    ledger = ComparisonLedger()
    start = [2, None, 2, None]
    assert _propagate(ks, start, [_layer([(0, (1, 2)), (3, (1,))])], ledger) == [2, 2, 2, None]
    assert ledger.count == 0


# keys of any size and sign: beyond int64 the key space ranks them by a
# Python sort instead of ``np.argsort``
_KEYS = st.one_of(
    st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=12, unique=True),
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12, unique=True),
    st.lists(st.integers(2**63, 2**64 + 5), min_size=1, max_size=12, unique=True),
)


@settings(max_examples=150, deadline=None)
@given(_KEYS, st.data())
def test_reduce_classes_kernel_equals_per_pair_reference(keys, data):
    # the class reduction alone: a ``propagate`` call with no layer
    ks = KeySpace(keys)
    n = len(keys)
    classes = data.draw(st.lists(
        st.tuples(st.integers(0, 9), st.lists(st.integers(0, n - 1), min_size=1, unique=True)),
        max_size=6, unique_by=lambda c: c[0],
    ))
    ledger = ComparisonLedger(record_transcript=True)
    champion = ks.propagate(_classes(classes), (), ledger)
    assert champion.size == max((s for s, _ in classes), default=-1) + 1
    reference = ComparisonLedger(record_transcript=True)
    expected = [None] * 10
    for slot, members in classes:
        expected[slot] = _compare_max(ks, members, reference)
        assert expected[slot] == max(members, key=keys.__getitem__)
    assert _listed(champion, 10) == expected
    assert ledger.transcript == reference.transcript
    assert ledger.count == reference.count == sum(len(m) - 1 for _, m in classes)


@settings(max_examples=200, deadline=None)
@given(_KEYS, st.data())
def test_propagate_kernel_equals_per_pair_reference(keys, data):
    # slots split into groups, deepest first; each layer pushes one group
    # into later ones.  The classes, in any slot order, may leave a slot
    # empty; with a single group there is no layer.  Few elements make a
    # parent that already holds the pushed element, or the same element
    # arriving on two paths, common.
    ks = KeySpace(keys)
    n = len(keys)
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    bounds = [0]
    for size in sizes:
        bounds.append(bounds[-1] + size)
    slots = bounds[-1]
    classes = data.draw(st.lists(
        st.tuples(st.integers(0, slots - 1),
                  st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)),
        max_size=slots, unique_by=lambda c: c[0],
    ))
    layers = []
    for lo, hi in zip(bounds, bounds[1:-1]):
        layers.append([
            (child, tuple(data.draw(st.lists(st.integers(hi, slots - 1), max_size=3, unique=True))))
            for child in data.draw(st.permutations(range(lo, hi)))
        ])
    ledger = ComparisonLedger(record_transcript=True)
    champion = ks.propagate(_classes(classes), [_layer(steps) for steps in layers], ledger)
    # the slots run up to the largest one a class or a push names
    named = [s for s, _ in classes] + [
        slot for steps in layers for child, into in steps if into for slot in (child, *into)
    ]
    assert champion.size == max(named, default=-1) + 1
    reference = ComparisonLedger(record_transcript=True)
    expected = [None] * slots
    for slot, members in classes:
        expected[slot] = _compare_max(ks, members, reference)
        assert expected[slot] == max(members, key=keys.__getitem__)
    _compare_propagate(ks, [step for steps in layers for step in steps], expected, reference)
    assert _listed(champion, slots) == expected
    assert ledger.transcript == reference.transcript
    assert ledger.count == reference.count


@pytest.mark.parametrize("keys", [
    [1, 2, 1],
    [-5, 3, -5],
    [2**64, 7, 2**64],
    [-(2**70), 2**70, -(2**70)],
])
def test_duplicate_keys_rejected_on_both_ranking_paths(keys):
    with pytest.raises(ValueError, match="keys must be pairwise distinct"):
        KeySpace(keys)


@pytest.mark.parametrize("keys, bad", [
    ([0.5, -0.5], "key 0 is not an integer: 0.5"),
    ([1.9, 3.2], "key 0 is not an integer: 1.9"),
    ([4, 2.0, 7], "key 1 is not an integer: 2.0"),
    ([3, 1, np.float64(2.5)], "key 2 is not an integer"),
    ([2**70, Fraction(1, 3)], "key 1 is not an integer"),
], ids=["halves", "truncated", "integral-float", "numpy-float", "fraction"])
def test_non_integer_keys_rejected_before_ranking(keys, bad):
    # a float would truncate: [0.5, -0.5] to two equal keys, [1.9, 3.2] to (1, 3)
    with pytest.raises(TypeError, match=re.escape(bad)):
        KeySpace(keys)


def test_integer_keys_of_every_kind_accepted():
    keys = [np.int64(-7), 2**64, -(2**70), np.int32(3), 0, np.uint8(200)]
    ks = KeySpace(keys)
    assert ks.oracle_keys() == tuple(keys)
    # as Python ints, which the JSON instance format can write
    assert {type(k) for k in ks.oracle_keys()} == {int}
    assert ks.merge_sort(compile_sort(range(6)), ComparisonLedger()).tolist() == [2, 0, 4, 3, 5, 1]
    small = KeySpace(iter([np.int64(5), -2, np.int16(9)]))
    assert small.oracle_keys() == (5, -2, 9)
    assert small.merge_sort(compile_sort(range(3)), ComparisonLedger()).tolist() == [1, 0, 2]


def test_keys_beyond_int64_rank_by_value():
    keys = [2**64 + 3, -(2**65), 2**63, 5, -1]
    ks = KeySpace(keys)
    ledger = ComparisonLedger(record_transcript=True)
    assert _max_of_class(ks, range(5), ledger) == 0
    assert ks.merge_sort(compile_sort(range(5)), ComparisonLedger()).tolist() == [1, 4, 3, 2, 0]
    assert ledger.transcript == ((1, 0), (2, 0), (3, 0), (4, 0))


def test_merge_sort_transcript_equals_compare_calls():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(0, 60)
        ks = gen_keys(n, seed)
        # odd seeds sort a shuffled subset of the elements, not range(n)
        items = list(range(n)) if seed % 2 == 0 else rng.sample(range(n), rng.randint(0, n))
        ledger = ComparisonLedger(record_transcript=True)
        reference = ComparisonLedger(record_transcript=True)
        got = ks.merge_sort(compile_sort(items), ledger).tolist()
        assert got == _merge_sort(list(items), ks, reference)
        assert got == sorted(items, key=ks.oracle_keys().__getitem__)
        assert ledger.transcript == reference.transcript
        assert ledger.count == reference.count


def test_merge_sort_errors_before_any_comparison():
    ks = KeySpace([1, 2, 3])
    # element 3 is beyond these keys, as when the keys are shorter than the system
    for items, error in (
        ([0, 3], IndexError),
        ([-1, 0], IndexError),
        ([0, 1, 2, 3], IndexError),
        ([1, 2, 1], ValueError),
    ):
        with pytest.raises(error):
            _merge_sort(items, ks, ComparisonLedger())
        ledger = ComparisonLedger()
        with pytest.raises(error):
            ks.merge_sort(compile_sort(items), ledger)
        assert ledger.count == 0
    # unlike the per-pair path, a single out-of-range index is caught too
    with pytest.raises(IndexError):
        ks.merge_sort(compile_sort([3]), ComparisonLedger())


# sizes around powers of two, where the split tree gains a level
_SORT_SIZES = st.one_of(
    st.integers(0, 300),
    st.sampled_from([2**j + d for j in range(1, 11) for d in (-1, 0, 1)]),
)


@settings(max_examples=200, deadline=None)
@given(_SORT_SIZES, st.integers(0, 40), st.randoms(use_true_random=False))
def test_merge_sort_kernel_equals_per_pair_reference(size, spare, rng):
    # a shuffled subset of a larger key space: neither contiguous nor in order
    ks = gen_keys(size + spare, rng.randrange(2**32))
    items = rng.sample(range(size + spare), size)
    ledger = ComparisonLedger(record_transcript=True)
    reference = ComparisonLedger(record_transcript=True)
    assert ks.merge_sort(compile_sort(items), ledger).tolist() == _merge_sort(items, ks, reference)
    assert ledger.count == reference.count
    assert ledger.transcript == reference.transcript


def test_compiled_sort_batch_errors_before_any_comparison():
    ks = gen_keys(6, 1)
    for items, error in (
        ([2, 5, 2], ValueError),
        ([0, 0], ValueError),
        ([-1, 3], IndexError),
        ([4, -7, 1], IndexError),
        ([6], IndexError),
        ([0, 1, 2, 3, 4, 5, 6], IndexError),
        ([9, 0], IndexError),
    ):
        ledger = ComparisonLedger(record_transcript=True)
        with pytest.raises(error):
            ks.merge_sort(compile_sort(items), ledger)
        assert ledger.count == 0 and ledger.transcript == ()
    # a batch compiled for a larger key space is refused by a smaller one
    batch = compile_sort(range(7))
    ledger = ComparisonLedger(record_transcript=True)
    with pytest.raises(IndexError):
        ks.merge_sort(batch, ledger)
    assert ledger.count == 0 and ledger.transcript == ()
    larger = gen_keys(7, 1)
    assert larger.merge_sort(batch, ledger).tolist() == sorted(range(7), key=larger.oracle_keys().__getitem__)
