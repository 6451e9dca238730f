"""Differential tests: list translation by (run × entry) segment against
the frozen per-page translation in ``tests/virt/reference_translate.py``.

Two maps are built by the same inserts; one answers through the frozen
reference, the other through :class:`VmmMemoryMap`. After every call both
must agree on the result (values, dtype, a fresh writable array), the
charged ns, the cache counts, the cached entry, the backend's own
visit/level counters, and the exception class and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.costs import CostModel
from repro.hw.memory import FrameRangeList
from repro.virt.memmap import VmmMemoryMap
from tests.virt import reference_translate as reference

SCALAR = "scalar"


def _state(mm: VmmMemoryMap):
    backend = mm.backend
    touched = (backend.tree.visits if backend.name == "rbtree"
               else backend.map.levels_touched)
    return (mm.last_op_work_ns, mm.total_work_ns, mm.cache_hits,
            mm.cache_misses, mm._cache, touched)


def _call(fn, *args):
    try:
        return fn(*args)
    except (KeyError, ValueError) as err:  # class and message compared below
        return err


def _build(backend, coalesce, inserts):
    mm = VmmMemoryMap(CostModel(), backend=backend, coalesce=coalesce)
    for gpa, hpas in inserts:
        mm.insert_mapping(gpa, np.asarray(hpas, dtype=np.int64))
    return mm


def check_against_reference(backend, coalesce, inserts, calls):
    """Run ``calls`` — (kind, argument) with kind "translate", "peek" or
    :data:`SCALAR` — on a reference map and a map under test."""
    ref = _build(backend, coalesce, inserts)
    new = _build(backend, coalesce, inserts)
    for kind, arg in calls:
        if kind == SCALAR:
            want = _call(ref.translate, arg)
            got = _call(new.translate, arg)
        else:
            ref_fn, new_fn = {
                "translate": (reference.translate_array, new.translate_array),
                "peek": (reference.peek_translate_array, new.peek_translate_array),
            }[kind]
            query = np.asarray(arg, dtype=np.int64)
            before = query.copy()
            want = _call(ref_fn, ref, query.copy())
            got = _call(new_fn, query)
            assert np.array_equal(query, before), "input modified"
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray), got
                assert got.dtype == np.int64
                assert np.array_equal(got, want)
                assert got.flags.writeable
                assert not np.shares_memory(got, query)
        if isinstance(want, Exception):
            assert type(got) is type(want), (kind, arg, got, want)
            assert str(got) == str(want)
        elif not isinstance(want, np.ndarray):
            assert got == want
        assert _state(new) == _state(ref), (kind, arg)


BACKENDS = [(b, c) for b in ("rbtree", "radix") for c in (False, True)]
IDS = [f"{b}-{'coalesce' if c else 'per_page'}" for b, c in BACKENDS]

#: Three inserts: at GPA 4, a contiguous host run of 8 (one entry when
#: coalescing) then 4 scattered frames; at GPA 16, directly adjacent, a
#: run of 6; at GPA 23, after a one-page hole at 22, a run of 4. GPAs
#: 0..3 lie below the first entry and 27.. above the last.
LAYOUT = [
    (4, np.r_[np.arange(100, 108), np.arange(200, 208, 2)]),
    (16, np.arange(300, 306)),
    (23, np.arange(400, 404)),
]

NAMED = {
    "run_inside_one_entry": [("translate", np.arange(5, 11)),
                             ("translate", np.arange(6, 9))],
    "run_across_adjacent_entries": [("translate", np.arange(9, 20)),
                                    ("peek", np.arange(4, 22))],
    "run_across_a_gap": [("translate", np.arange(20, 25)),
                         ("peek", np.arange(20, 25))],
    "run_ending_in_the_gap": [("translate", np.arange(18, 23))],
    "run_starting_in_the_gap": [("translate", np.arange(22, 25))],
    "duplicates": [("translate", [7, 7, 7, 12, 12, 7, 7])],
    "descending": [("translate", np.arange(26, 15, -1)),
                   ("translate", np.arange(21, 3, -1))],
    "single_pfn": [("translate", [17]), ("translate", [17]), ("peek", [17])],
    "below_first_entry": [("translate", [6, 7, 2, 3]),
                          ("translate", [22, 3]),
                          ("translate", np.arange(2, 8)),
                          ("peek", np.arange(2, 8))],
    "above_last_entry": [("translate", np.arange(24, 29)),
                         ("translate", [40]), ("peek", [40])],
    "first_unmapped_in_input_order": [("translate", [26, 27, 22, 5])],
    "empty_input": [("translate", []), ("peek", [])],
    "cache_warmed_by_scalar": [(SCALAR, 8), ("translate", np.arange(6, 20)),
                               (SCALAR, 17), ("translate", np.arange(17, 22)),
                               (SCALAR, 25), ("translate", [26, 24])],
    "cache_warmed_by_list": [("translate", np.arange(16, 19)),
                             ("translate", np.arange(18, 22)),
                             ("translate", np.arange(21, 16, -1))],
}


@pytest.mark.parametrize("backend, coalesce", BACKENDS, ids=IDS)
@pytest.mark.parametrize("case", sorted(NAMED))
def test_named_case_matches_reference(backend, coalesce, case):
    check_against_reference(backend, coalesce, LAYOUT, NAMED[case])


@pytest.mark.parametrize("backend, coalesce", BACKENDS, ids=IDS)
def test_empty_map_matches_reference(backend, coalesce):
    check_against_reference(backend, coalesce, [], [
        ("translate", [0]), ("peek", [0]), ("translate", []), ("peek", []),
        (SCALAR, 0)])


@st.composite
def scenarios(draw):
    backend, coalesce = draw(st.sampled_from(BACKENDS))
    gpa = draw(st.sampled_from([0, 0, 3]))
    host = 1000
    inserts = []
    for _ in range(draw(st.integers(0, 4))):
        steps = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=0, max_size=11))
        hpas = host + np.cumsum([0] + steps)
        inserts.append((gpa, hpas))
        host += 100
        gpa += len(hpas) + draw(st.sampled_from([0, 0, 1, 2]))
    top = gpa + 2

    def piece():
        start = st.integers(0, top)
        return st.one_of(
            st.tuples(start, st.integers(1, 24)).map(
                lambda p: np.arange(p[0], p[0] + p[1])),
            st.tuples(start, st.integers(1, 24)).map(
                lambda p: np.arange(p[0] + p[1], p[0], -1)),
            st.tuples(start, st.integers(1, 4)).map(lambda p: [p[0]] * p[1]),
        )

    query = st.lists(piece(), min_size=0, max_size=4).map(
        lambda parts: np.concatenate([[]] + parts))
    calls = draw(st.lists(
        st.one_of(st.tuples(st.sampled_from(["translate", "translate", "peek"]), query),
                  st.tuples(st.just(SCALAR), st.integers(0, top))),
        min_size=1, max_size=6))
    return backend, coalesce, inserts, calls


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_property_matches_reference(scenario):
    check_against_reference(*scenario)


@pytest.mark.parametrize("backend, coalesce", BACKENDS, ids=IDS)
def test_insert_runs_equals_insert_pfns(backend, coalesce):
    """A run list inserts the entries, and charges the work, of its
    flattened PFNs; physically adjacent runs merge when coalescing."""
    runs = FrameRangeList([500, 508, 600, 700], [8, 4, 3, 1])
    by_pfns = VmmMemoryMap(CostModel(), backend=backend, coalesce=coalesce)
    by_runs = VmmMemoryMap(CostModel(), backend=backend, coalesce=coalesce)
    want = by_pfns.insert_mapping(10, runs.pfns())
    assert by_runs.insert_mapping(10, runs) == want
    assert by_runs.num_entries == by_pfns.num_entries == (3 if coalesce else 16)
    gpas = np.arange(10, 26)
    assert np.array_equal(by_runs.translate_array(gpas), runs.pfns())
    by_pfns.translate_array(gpas)
    assert _state(by_runs) == _state(by_pfns)
