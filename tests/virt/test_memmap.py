"""Unit tests for the VMM memory map (both backends)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.costs import CostModel
from repro.virt.memmap import MapEntry, TranslationError, VmmMemoryMap


@pytest.fixture(params=["rbtree", "radix"])
def mmap(request):
    # coalescing maps keep entry counts in run units; the per-page
    # default (shipped-Palacios behaviour) has its own tests below
    return VmmMemoryMap(CostModel(), backend=request.param, coalesce=True)


def test_map_entry_translate():
    e = MapEntry(100, 10, 5000)
    assert e.translate(100) == 5000
    assert e.translate(109) == 5009
    with pytest.raises(KeyError):
        e.translate(110)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        VmmMemoryMap(CostModel(), backend="avl")


def test_contiguous_hpa_makes_one_entry(mmap):
    work = mmap.insert_mapping(0, np.arange(1000, 1512, dtype=np.int64))
    assert mmap.num_entries == 1
    assert work > 0
    assert mmap.translate(0) == 1000
    assert mmap.translate(511) == 1511


def test_scattered_hpa_makes_entry_per_page(mmap):
    hpas = np.arange(1000, 1064, 2, dtype=np.int64)  # 32 discontiguous pages
    mmap.insert_mapping(0, hpas)
    assert mmap.num_entries == 32
    for i, h in enumerate(hpas):
        assert mmap.translate(i) == h


def test_overlap_rejected(mmap):
    mmap.insert_mapping(10, np.arange(100, 110, dtype=np.int64))
    with pytest.raises(ValueError, match="overlaps"):
        mmap.insert_mapping(15, np.arange(200, 210, dtype=np.int64))
    with pytest.raises(ValueError, match="overlaps"):
        mmap.insert_mapping(5, np.arange(200, 210, dtype=np.int64))
    # adjacent is fine
    mmap.insert_mapping(20, np.arange(200, 210, dtype=np.int64))


def test_translate_unmapped_raises(mmap):
    mmap.insert_mapping(10, np.arange(100, 110, dtype=np.int64))
    with pytest.raises(TranslationError):
        mmap.translate(9)
    with pytest.raises(TranslationError):
        mmap.translate(20)
    with pytest.raises(TranslationError):
        mmap.translate_array(np.array([10, 25]))


def test_translate_array_matches_scalar(mmap):
    hpas = np.array([50, 51, 52, 90, 91, 200], dtype=np.int64)
    mmap.insert_mapping(0, hpas)
    got = mmap.translate_array(np.arange(6, dtype=np.int64))
    assert (got == hpas).all()
    scalar = [mmap.translate(i) for i in range(6)]
    assert scalar == list(hpas)


def test_cache_hit_accounting(mmap):
    mmap.insert_mapping(0, np.arange(1000, 1512, dtype=np.int64))  # one run
    mmap.cache_hits = mmap.cache_misses = 0
    mmap.translate(0)   # miss (cold cache)
    mmap.translate(1)   # hit
    mmap.translate(2)   # hit
    assert mmap.cache_misses == 1
    assert mmap.cache_hits == 2


def test_translate_array_cache_accounting(mmap):
    mmap.insert_mapping(0, np.arange(1000, 1512, dtype=np.int64))
    mmap.cache_hits = mmap.cache_misses = 0
    mmap.translate_array(np.arange(512, dtype=np.int64))
    assert mmap.cache_misses == 1  # single run: one real lookup
    assert mmap.cache_hits == 511
    # warm cache: a second walk over the same run has zero misses
    mmap.translate_array(np.arange(512, dtype=np.int64))
    assert mmap.cache_misses == 1


def test_remove_mapping_roundtrip(mmap):
    hpas = np.arange(1000, 1032, 2, dtype=np.int64)
    mmap.insert_mapping(0, hpas)
    n = mmap.num_entries
    work = mmap.remove_mapping(0, 16)
    assert work > 0
    assert mmap.num_entries == 0
    with pytest.raises(TranslationError):
        mmap.translate(0)
    del n


def test_remove_partial_range_rejected(mmap):
    mmap.insert_mapping(0, np.arange(100, 110, dtype=np.int64))
    with pytest.raises(KeyError):
        mmap.remove_mapping(0, 5)


@pytest.fixture(params=[(b, c) for b in ("rbtree", "radix") for c in (False, True)],
                ids=lambda p: f"{p[0]}-{'coalesce' if p[1] else 'per_page'}")
def any_mmap(request):
    backend, coalesce = request.param
    return VmmMemoryMap(CostModel(), backend=backend, coalesce=coalesce)


def test_negative_host_pfn_rejected(any_mmap):
    with pytest.raises(ValueError, match="negative"):
        any_mmap.insert_mapping(0, np.array([5, -1, 7], dtype=np.int64))
    with pytest.raises(ValueError, match="negative"):
        any_mmap.insert_mapping(0, np.array([-3, -2], dtype=np.int64))


def test_empty_or_negative_removal_rejected(any_mmap):
    any_mmap.insert_mapping(0, np.arange(100, 110, dtype=np.int64))
    for npages in (0, -1):
        with pytest.raises(ValueError):
            any_mmap.remove_mapping(0, npages)
    assert any_mmap.num_entries in (1, 10)
    assert (any_mmap.translate_array(np.arange(10)) == np.arange(100, 110)).all()


#: Measured on the per-entry dict store this columnar one replaced:
#: (two RAM-block inserts, three attachment inserts, middle removal,
#: translate walk, cache hits, cache misses, entries left).
_PINNED = {
    ("rbtree", False): ([15, 30], [18435, 24000, 26385], 15495, 24368, 1022, 194, 194),
    ("rbtree", True): ([15, 30], [11445, 15165, 16605], 9180, 16726, 1084, 132, 132),
    ("radix", False): ([24576, 24576], [4608] * 3, 4608, 13400, 1022, 194, 194),
    ("radix", True): ([24576, 24576], [4608] * 3, 4608, 10672, 1084, 132, 132),
}


@pytest.mark.parametrize("backend, coalesce", sorted(_PINNED))
def test_cost_accounting_pinned(backend, coalesce):
    """Coalesced RAM blocks, three attachments of 32 contiguous plus 64
    scattered host frames, the middle one removed, then one walk over all
    that is left: every charged ns and cache count is a literal."""
    mm = VmmMemoryMap(CostModel(), backend=backend, coalesce=coalesce)
    ram = [mm.insert_mapping(0, np.arange(5000, 5512), coalesce=True),
           mm.insert_mapping(512, np.arange(9000, 9512), coalesce=True)]
    attachments = [
        np.r_[np.arange(20000, 20032), np.arange(40000, 40128, 2)] + 1000 * k
        for k in range(3)
    ]
    inserts = [mm.insert_mapping(1024 + 96 * k, hpas)
               for k, hpas in enumerate(attachments)]
    removed = mm.remove_mapping(1024 + 96, 96)
    gpas = np.r_[np.arange(0, 1120), np.arange(1216, 1312)]
    got = mm.translate_array(gpas)
    want = np.r_[np.arange(5000, 5512), np.arange(9000, 9512),
                 attachments[0], attachments[2]]
    assert (got == want).all()
    assert (ram, inserts, removed, mm.last_op_work_ns, mm.cache_hits,
            mm.cache_misses, mm.num_entries) == _PINNED[backend, coalesce]


def test_max_gpa_pfn(mmap):
    assert mmap.max_gpa_pfn() == 0
    mmap.insert_mapping(100, np.arange(5, dtype=np.int64) + 50)
    assert mmap.max_gpa_pfn() == 105


def test_rb_insert_work_grows_with_scatter():
    """Under coalescing, scattered host frames mean many entries mean
    more tree work; contiguous frames collapse to one entry."""
    costs = CostModel()
    contiguous = VmmMemoryMap(costs, backend="rbtree", coalesce=True)
    w_contig = contiguous.insert_mapping(0, np.arange(4096, dtype=np.int64) + 10_000)
    scattered = VmmMemoryMap(costs, backend="rbtree", coalesce=True)
    w_scatter = scattered.insert_mapping(
        0, np.arange(0, 8192, 2, dtype=np.int64) + 10_000
    )
    assert w_scatter > 50 * w_contig


def test_default_palacios_inserts_per_page():
    """The shipped behaviour the paper measures (§5.4): one tree entry per
    delivered PFN, even when the host frames are contiguous."""
    costs = CostModel()
    mm = VmmMemoryMap(costs, backend="rbtree")  # coalesce defaults False
    contiguous = np.arange(4096, dtype=np.int64) + 10_000
    work = mm.insert_mapping(0, contiguous)
    assert mm.num_entries == 4096
    # same translations as a coalesced map
    assert (mm.translate_array(np.arange(4096, dtype=np.int64)) == contiguous).all()
    # and the work matches a scattered coalesced insert of equal size
    scattered = VmmMemoryMap(costs, backend="rbtree", coalesce=True)
    w_scatter = scattered.insert_mapping(
        0, np.arange(0, 8192, 2, dtype=np.int64) + 10_000
    )
    assert abs(work - w_scatter) / w_scatter < 0.1


def test_ablation_coalescing_removes_insert_work():
    """Ablation C: coalescing contiguous exports recovers native-like cost."""
    costs = CostModel()
    contiguous = np.arange(262144 // 16, dtype=np.int64) + 10_000
    per_page = VmmMemoryMap(costs, backend="rbtree", coalesce=False)
    merged = VmmMemoryMap(costs, backend="rbtree", coalesce=True)
    w_pp = per_page.insert_mapping(0, contiguous)
    w_m = merged.insert_mapping(0, contiguous)
    assert w_m < w_pp / 1000


def test_radix_beats_rbtree_on_scattered_inserts():
    """Ablation A's premise, at the data-structure level."""
    costs = CostModel()
    hpas = np.arange(0, 65536, 2, dtype=np.int64)  # 32768 scattered pages
    rb = VmmMemoryMap(costs, backend="rbtree")
    radix = VmmMemoryMap(costs, backend="radix")
    w_rb = rb.insert_mapping(0, hpas)
    w_radix = radix.insert_mapping(0, hpas)
    assert w_radix < w_rb / 3


def test_peek_translate_array_costs_nothing(mmap):
    mmap.insert_mapping(0, np.arange(100, 110, dtype=np.int64))
    before = mmap.total_work_ns
    got = mmap.peek_translate_array(np.arange(10, dtype=np.int64))
    assert (got == np.arange(100, 110)).all()
    assert mmap.total_work_ns == before
    with pytest.raises(TranslationError):
        mmap.peek_translate_array(np.array([99]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 5000), unique=True, min_size=1, max_size=150))
def test_property_translation_is_exact(hpa_list):
    mmap = VmmMemoryMap(CostModel(), backend="rbtree")
    hpas = np.array(sorted(hpa_list), dtype=np.int64)
    mmap.insert_mapping(0, hpas)
    got = mmap.translate_array(np.arange(len(hpas), dtype=np.int64))
    assert (got == hpas).all()
    peek = mmap.peek_translate_array(np.arange(len(hpas), dtype=np.int64))
    assert (peek == hpas).all()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["rbtree", "radix"]),
    st.lists(
        st.tuples(st.integers(0, 40), st.lists(st.integers(0, 300), min_size=1,
                                                max_size=12, unique=True),
                  st.booleans(), st.booleans()),
        min_size=1, max_size=12,
    ),
)
def test_property_matches_page_dict_model(backend, ops):
    """Mappings placed in random free slots (below and above existing
    ones) and removed again agree page by page with a plain dict."""
    mm = VmmMemoryMap(CostModel(), backend=backend)
    model = {}      # gpa -> hpa
    mappings = []   # (gpa_start, npages, entries)
    for slot, hpa_list, coalesce, remove_one in ops:
        hpas = np.array(hpa_list, dtype=np.int64)
        gpa = 1000 * slot
        if any(g in model for g in range(gpa, gpa + len(hpas))):
            with pytest.raises(ValueError, match="overlaps"):
                mm.insert_mapping(gpa, hpas, coalesce)
        else:
            before = mm.num_entries
            mm.insert_mapping(gpa, hpas, coalesce)
            mappings.append((gpa, len(hpas), mm.num_entries - before))
            model.update(zip(range(gpa, gpa + len(hpas)), hpa_list))
        if remove_one and mappings:
            gpa, npages, entries = mappings.pop(len(mappings) // 2)
            before = mm.num_entries
            mm.remove_mapping(gpa, npages)
            assert before - mm.num_entries == entries
            for g in range(gpa, gpa + npages):
                del model[g]
        assert mm.num_entries == sum(e for _g, _n, e in mappings)
        assert mm.max_gpa_pfn() == max((g + n for g, n, _e in mappings), default=0)
        if model:
            gpas = np.array(sorted(model), dtype=np.int64)
            want = np.array([model[g] for g in gpas.tolist()], dtype=np.int64)
            assert (mm.translate_array(gpas) == want).all()
            assert [mm.translate(int(g)) for g in gpas[::5]] == want[::5].tolist()
