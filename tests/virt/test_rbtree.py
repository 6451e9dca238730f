"""Unit + property tests for the red-black tree."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.virt.rbtree import RedBlackTree
from tests.virt.reference_rbtree import RedBlackTree as ReferenceRedBlackTree


def test_insert_get_roundtrip():
    t = RedBlackTree()
    for k in [5, 1, 9, 3, 7]:
        t.insert(k, k * 10)
    assert len(t) == 5
    for k in [5, 1, 9, 3, 7]:
        assert t.get(k) == k * 10
    assert 3 in t and 4 not in t


def test_get_missing_raises():
    t = RedBlackTree()
    with pytest.raises(KeyError):
        t.get(1)


def test_duplicate_insert_rejected():
    t = RedBlackTree()
    t.insert(1, "a")
    with pytest.raises(KeyError):
        t.insert(1, "b")


def test_items_sorted():
    t = RedBlackTree()
    for k in [5, 1, 9, 3, 7]:
        t.insert(k, None)
    assert t.keys() == [1, 3, 5, 7, 9]


def test_floor_semantics():
    t = RedBlackTree()
    for k in [10, 20, 30]:
        t.insert(k, f"v{k}")
    assert t.floor(5) is None
    assert t.floor(10) == (10, "v10")
    assert t.floor(25) == (20, "v20")
    assert t.floor(99) == (30, "v30")


def test_min_key():
    t = RedBlackTree()
    assert t.min_key() is None
    for k in [7, 3, 9]:
        t.insert(k, None)
    assert t.min_key() == 3


def test_delete_returns_value_and_removes():
    t = RedBlackTree()
    for k in range(20):
        t.insert(k, k)
    assert t.delete(7) == 7
    assert 7 not in t
    assert len(t) == 19
    t.validate()
    with pytest.raises(KeyError):
        t.delete(7)


def test_invariants_hold_under_sequential_inserts():
    t = RedBlackTree()
    for k in range(1000):
        t.insert(k, None)
    t.validate()
    assert t.keys() == list(range(1000))


def test_visit_count_grows_logarithmically():
    """The Table 2 mechanism: per-insert work grows with tree size."""

    def avg_visits_for(n):
        t = RedBlackTree()
        for k in range(n):
            t.insert(k, None)
        return t.visits / n

    small, large = avg_visits_for(256), avg_visits_for(16384)
    assert large > small * 1.3  # grows...
    assert large < small * 4.0  # ...but sub-linearly (logarithmic-ish)


def test_depth_is_balanced():
    t = RedBlackTree()
    n = 4096
    for k in range(n):  # adversarial: sorted order
        t.insert(k, None)

    def depth(node):
        if node is t.nil:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(t.root) <= 2 * math.log2(n + 1) + 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10_000), unique=True, min_size=1, max_size=300))
def test_property_inserts_preserve_invariants(keys):
    t = RedBlackTree()
    for k in keys:
        t.insert(k, k)
    t.validate()
    assert t.keys() == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 1000), unique=True, min_size=2, max_size=200),
    st.data(),
)
def test_property_mixed_insert_delete(keys, data):
    t = RedBlackTree()
    for k in keys:
        t.insert(k, k)
    doomed = data.draw(
        st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=len(keys))
    )
    for k in doomed:
        t.delete(k)
        t.validate()
    survivors = sorted(set(keys) - set(doomed))
    assert t.keys() == survivors
    assert len(t) == len(survivors)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10_000), unique=True, min_size=1, max_size=200),
       st.integers(0, 10_000))
def test_property_floor_matches_reference(keys, query):
    t = RedBlackTree()
    for k in keys:
        t.insert(k, str(k))
    below = [k for k in keys if k <= query]
    expected = (max(below), str(max(below))) if below else None
    assert t.floor(query) == expected


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 6)),
        st.tuples(st.just("insert"), st.integers(0, 3000)),
        st.tuples(st.just("delete"), st.integers(0, 3000)),
        st.tuples(st.just("delete_max"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2000), unique=True, max_size=40), _OPS)
def test_property_visits_match_frozen_reference(initial, ops):
    """Every op charges the visits of the original tree, which has no
    append path: ascending appends, random inserts (duplicates included),
    deletes of random keys and of the maximum followed by more appends."""
    tree, ref = RedBlackTree(), ReferenceRedBlackTree()

    def both(op, key):
        outcomes = []
        for t in (tree, ref):
            try:
                if op == "insert":
                    t.insert(key, key)
                else:
                    t.delete(key)
                outcomes.append(None)
            except KeyError:
                outcomes.append(KeyError)
        assert outcomes[0] is outcomes[1]
        assert tree.visits == ref.visits
        assert tree.keys() == ref.keys()
        tree.validate()

    for k in initial:
        both("insert", k)
    for op, arg in ops:
        keys = ref.keys()
        if op == "append":
            top = keys[-1] if keys else 0
            for step in range(1, arg + 1):
                both("insert", top + 3 * step)
        elif op == "insert":
            both("insert", arg)
        elif op == "delete":
            both("delete", keys[arg % len(keys)] if keys and arg % 2 else arg)
        elif keys:
            both("delete", keys[-1])
