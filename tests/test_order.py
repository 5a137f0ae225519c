import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setmaxima.order import ComparisonLedger, KeySpace


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
    assert ks.max_of_class([7], ledger) == 7
    assert ledger.count == 0


def test_max_of_class_tournament():
    ks = KeySpace([3, 1, 2])
    ledger = ComparisonLedger()
    assert ks.max_of_class([0, 1, 2], ledger) == 0
    assert ledger.count == 2


def test_max_of_class_against_raw_scan():
    rng = random.Random(7)
    keys = rng.sample(range(1, 1000), 10)
    ks = KeySpace(keys)
    ledger = ComparisonLedger()
    got = ks.max_of_class(list(range(10)), ledger)
    assert got == max(range(10), key=keys.__getitem__)
    assert ledger.count == 9


def test_max_of_class_errors():
    ks = KeySpace([1, 2])
    with pytest.raises(ValueError):
        ks.max_of_class([], ComparisonLedger())
    with pytest.raises(ValueError):
        ks.max_of_class([0, 0], ComparisonLedger())


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
    ks.max_of_class([0, 1, 2, 3], ledger)
    assert ledger.transcript == ((1, 0), (2, 0), (3, 0))
    assert ComparisonLedger().transcript is None


def test_random_keyspace_is_seeded_permutation():
    a = KeySpace.random(50, seed=3)
    b = KeySpace.random(50, seed=3)
    c = KeySpace.random(50, seed=4)
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
            ks.max_of_class(indices, ledger)
        assert ledger.count == 0
    # unlike the per-pair path, a single out-of-range index is caught too
    with pytest.raises(IndexError):
        ks.max_of_class([3], ComparisonLedger())


def test_max_of_class_transcript_equals_compare_calls():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        ks = KeySpace.random(n, seed)
        indices = rng.sample(range(n), rng.randint(1, n))
        ledger = ComparisonLedger(record_transcript=True)
        reference = ComparisonLedger(record_transcript=True)
        assert ks.max_of_class(indices, ledger) == _compare_max(ks, indices, reference)
        assert ledger.transcript == reference.transcript
        assert ledger.count == reference.count == len(indices) - 1


def test_propagate_transcript_equals_compare_calls():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        ks = KeySpace.random(n, seed)
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
        ks.propagate(steps, champion, ledger)
        assert champion == expected
        assert ledger.transcript == reference.transcript
        assert ledger.count == reference.count


def test_propagate_range_errors():
    # element 3 is beyond these keys, as when the keys are shorter than the system
    ks = KeySpace([1, 2, 3])
    for champion in ([3, 0], [0, 3], [-1, 0]):
        with pytest.raises(IndexError):
            _compare_propagate(ks, [(0, (1,))], list(champion), ComparisonLedger())
        ledger = ComparisonLedger()
        with pytest.raises(IndexError):
            ks.propagate([(0, (1,))], list(champion), ledger)
        assert ledger.count == 0
    # a slot beyond the champion list
    with pytest.raises(IndexError):
        ks.propagate([(0, (2,))], [0, 1], ComparisonLedger())


def test_propagate_free_moves():
    ks = KeySpace([1, 2, 3])
    champion = [2, None, 2, None]
    ledger = ComparisonLedger()
    ks.propagate([(0, (1, 2)), (3, (1,))], champion, ledger)
    assert champion == [2, 2, 2, None]
    assert ledger.count == 0
