"""The in situ stop/go poller against the frozen loop it replaced.

``poll_u64_at_least`` parks on its word and checks it from bare engine
callbacks. To the engine it must be the loop in ``reference_poll.py``:
the same wake ns, the same ``call_at`` count, and the same order of every
callback at one ns, whichever mapping or store path writes the word. Each
scenario runs twice on fresh rigs, once per poller, and every engine
push ``(now, ns, seq)`` is recorded along with a log of stores, wakes
and a recorder process's reads.
"""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.costs import PAGE_4K, CostModel
from repro.hw.memory import MappedRegion, PhysicalMemory
from repro.sim.engine import Engine
from repro.sim.process import Interrupt
from repro.virt.guest import GuestPhysicalMemory
from repro.virt.memmap import VmmMemoryMap
from repro.workloads import insitu
from repro.xemem.shmem import AttachedRegion
from tests.workloads import reference_poll

POLLERS = {"reference": reference_poll.poll_u64_at_least,
           "awaitable": insitu.poll_u64_at_least}

#: The shared region's two frames, deliberately out of order.
PFNS = (7, 3)
HORIZON_NS = 6_000_000
#: Word offsets: inside page 0, straddling the page boundary, in page 1.
OFFSETS = (8, PAGE_4K - 4, PAGE_4K + 16)
#: A second poller's word, on the same tick grid as the first.
SECOND = PAGE_4K + 40
VIEWS = ("exporter", "attacher", "guest", "attached")
PATHS = ("write:exporter", "write:attacher", "write:guest", "write:attached",
         "fill", "page_view")


class RecordingEngine(Engine):
    """An engine that logs each ``call_at`` as ``(now, when, seq)``."""

    def __init__(self):
        super().__init__()
        self.pushes = []

    def call_at(self, when_ns, callback, *args):
        self.pushes.append((self.now, when_ns, self._seq))
        super().call_at(when_ns, callback, *args)


def make_views():
    """Four windows onto one pair of host frames: the exporter's and an
    attacher's mapping, a guest-backed mapping resolved through a VMM
    memory map, and an attachment that checks it is still live."""
    mem = PhysicalMemory([16 * PAGE_4K])
    pfns = np.array(PFNS, dtype=np.int64)
    memmap = VmmMemoryMap(CostModel())
    memmap.insert_mapping(0, pfns)
    guest = GuestPhysicalMemory(SimpleNamespace(memmap=memmap), mem)
    attacher = mem.map_region(pfns)
    return mem, {
        "exporter": mem.map_region(pfns),
        "attacher": attacher,
        "guest": guest.map_region(np.arange(len(pfns))),
        "attached": AttachedRegion(apid=1, segid=1, proc=None, vaddr=0,
                                   npages=len(pfns), kind="remote", view=attacher),
    }


def store(views, path: str, offset: int, value: int) -> None:
    """Write ``value`` at ``offset`` along one store path."""
    if path.startswith("write:"):
        insitu.write_u64(views[path[len("write:"):]], offset, value)
    elif path == "fill":
        views["exporter"].fill(value & 0xFF)
    else:  # raw page-view handles, a piece per page the word touches
        data = np.frombuffer(struct.pack("<Q", value), dtype=np.uint8)
        pos = 0
        while pos < 8:
            page, in_page = divmod(offset + pos, PAGE_4K)
            take = min(8 - pos, PAGE_4K - in_page)
            handle = views["exporter"].page_view(page)
            handle[in_page:in_page + take] = data[pos:pos + take]
            pos += take


def tick_grid(park_ns: int, horizon_ns: int = HORIZON_NS) -> list:
    """The ns of every check a poller parked at ``park_ns`` makes."""
    grid, t, interval = [], park_ns, reference_poll.POLL_START_NS
    while t + interval <= horizon_ns:
        t += interval
        grid.append(t)
        interval = min(interval * 2, reference_poll.POLL_CAP_NS)
    return grid


def run_scenario(poll, sc: dict) -> dict:
    engine = RecordingEngine()
    _mem, views = make_views()
    log = []
    offset, view = sc["offset"], views[sc["view"]]
    if sc["initial"]:
        insitu.write_u64(views["exporter"], offset, sc["initial"])

    def do_store(path, word, value):
        log.append(("store", engine.now, path, value))
        store(views, path, word, value)

    def writer(push_ns, when_ns, path, word, value):
        yield engine.sleep(push_ns)
        engine.call_at(when_ns, do_store, path, word, value)

    def poller(name, view, word, target):
        yield engine.sleep(sc["park_ns"])
        yield from poll(engine, view, word, target)
        log.append(("wake", name, engine.now))
        yield engine.sleep(0)
        log.append(("after", name, engine.now))

    def recorder(times):
        for when in times:
            yield engine.sleep(when - engine.now)
            log.append(("read", engine.now,
                        insitu.read_u64(views["exporter"], offset)))

    def spawn_recorder():
        times = sorted({t for t in tick_grid(sc["park_ns"])
                        + [w[0] for w in sc["writes"]] if t <= HORIZON_NS})
        engine.spawn(recorder(times), name="recorder")

    if sc["recorder_first"]:
        spawn_recorder()
    for when_ns, push_ns, path, word, value in sc["writes"]:
        engine.spawn(writer(push_ns, when_ns, path, word, value), name="writer")
    engine.spawn(poller("first", view, offset, sc["target"]), name="first")
    if sc["second"]:
        engine.spawn(poller("second", views["attacher"], SECOND, 1), name="second")
    if not sc["recorder_first"]:
        spawn_recorder()
    engine.run(until_ns=HORIZON_NS)
    return {"log": log, "pushes": engine.pushes, "seq": engine._seq,
            "queued": engine.queue_len}


def assert_same(sc: dict) -> dict:
    ref, got = (run_scenario(POLLERS[k], sc) for k in ("reference", "awaitable"))
    assert got["log"] == ref["log"]
    assert got["seq"] == ref["seq"]
    assert got["pushes"] == ref["pushes"]
    assert got["queued"] == ref["queued"]
    return got


def wake_ns(result: dict, name: str = "first"):
    return next((e[2] for e in result["log"] if e[:2] == ("wake", name)), None)


@st.composite
def scenarios(draw):
    park_ns = draw(st.integers(0, 5_000))
    grid = tick_grid(park_ns)
    offset = draw(st.sampled_from(OFFSETS))
    writes = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):  # exactly on a check
            k = draw(st.integers(0, len(grid) - 1))
            when = grid[k]
            prev = grid[k - 1] if k else park_ns
            push = draw(st.sampled_from([0, prev, prev + 1, when])
                        | st.integers(0, when))
        else:
            when = draw(st.integers(0, HORIZON_NS))
            push = draw(st.integers(0, when))
        path = draw(st.sampled_from(PATHS))
        word = draw(st.sampled_from([offset, offset, SECOND]))
        writes.append((when, min(push, when), path, word, draw(st.integers(0, 4))))
    return {
        "park_ns": park_ns, "offset": offset, "writes": writes,
        "view": draw(st.sampled_from(VIEWS)),
        "target": draw(st.integers(1, 3)),
        "initial": draw(st.sampled_from([0, 0, 1, 3])),
        "recorder_first": draw(st.booleans()),
        "second": draw(st.booleans()),
    }


@settings(max_examples=150, deadline=None)
@given(scenarios())
@example({"park_ns": 0, "offset": 8, "view": "attacher", "target": 2,
          "initial": 0, "recorder_first": True, "second": True,
          "writes": [(3_000, 1_000, "write:exporter", 8, 2),
                     (7_000, 7_000, "write:guest", 8, 2),
                     (7_000, 3_000, "page_view", SECOND, 1)]})
def test_poller_matches_frozen_loop(sc):
    assert_same(sc)


def scenario(**kw) -> dict:
    base = {"park_ns": 0, "offset": 8, "view": "exporter", "target": 1,
            "initial": 0, "recorder_first": False, "second": False,
            "writes": []}
    return {**base, **kw}


@pytest.mark.parametrize("push_ns, woke", [
    (0, 3_000),      # the store's entry precedes the 3 us check's
    (1_000, 3_000),  # the writer's 1 us entry runs ahead of the 1 us check
    (1_001, 7_000),  # pushed after the 1 us check queued the 3 us one
    (3_000, 7_000),  # a store at the check's own ns, pushed after it
])
def test_store_on_a_check_is_seen_by_queue_order(push_ns, woke):
    sc = scenario(writes=[(3_000, push_ns, "write:attacher", 8, 1)])
    assert wake_ns(assert_same(sc)) == woke


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("view", VIEWS)
def test_every_store_path_wakes_every_view(path, view):
    sc = scenario(view=view, writes=[(5_000, 0, path, 8, 1)])
    assert wake_ns(assert_same(sc)) == 7_000


def test_target_already_met_yields_nothing():
    got = assert_same(scenario(initial=3, target=3, park_ns=500))
    assert wake_ns(got) == 500
    gen = insitu.poll_u64_at_least(Engine(), make_views()[1]["exporter"], 0, 0)
    assert list(gen) == []


def test_word_reached_then_lowered_before_the_next_check():
    sc = scenario(writes=[(3_500, 0, "write:exporter", 8, 1),
                          (6_000, 0, "fill", 8, 0),
                          (20_000, 0, "write:guest", 8, 1)])
    assert wake_ns(assert_same(sc)) == 31_000


def test_straddling_word_is_read_through_the_view():
    sc = scenario(offset=PAGE_4K - 4,
                  writes=[(2_000, 0, "page_view", PAGE_4K - 4, 1)])
    assert wake_ns(assert_same(sc)) == 3_000


def test_plain_region_checks_skip_the_read_path(monkeypatch):
    reads = []
    original = MappedRegion.read

    def counting_read(self, offset, length):
        reads.append(offset)
        return original(self, offset, length)

    monkeypatch.setattr(MappedRegion, "read", counting_read)
    engine = Engine()
    _mem, views = make_views()
    proc = engine.spawn(insitu.poll_u64_at_least(engine, views["attacher"], 8, 1))
    engine.call_at(500_000, insitu.write_u64, views["exporter"], 8, 1)
    engine.run(until_ns=HORIZON_NS)
    assert proc.finished and proc.finished_at == 511_000
    assert reads == [8]  # the park-time check; the nine checks read the frame


def run_detached(poll):
    """Poll through an attachment that is detached while parked."""
    engine = Engine()
    _mem, views = make_views()
    attached = views["attached"]
    log = []

    def poller():
        try:
            yield from poll(engine, attached, 8, 1)
        except RuntimeError as err:
            log.append(("raised", engine.now, str(err)))

    def detacher():
        yield engine.sleep(2_000)
        attached.detached = True

    engine.spawn(poller(), name="poller")
    engine.spawn(detacher(), name="detacher")
    engine.run(until_ns=HORIZON_NS)
    return log, engine._seq, engine.queue_len


def test_detached_attachment_fails_the_poller_at_its_next_check():
    got = run_detached(insitu.poll_u64_at_least)
    assert got == run_detached(reference_poll.poll_u64_at_least)
    assert got[0] == [("raised", 3_000, "attachment 1 already detached")]
    assert got[2] == 0


def run_interrupted(poll):
    """Interrupt a parked poller between its 1 us and 3 us checks."""
    engine = RecordingEngine()
    _mem, views = make_views()
    log = []

    def poller():
        try:
            yield from poll(engine, views["exporter"], 8, 1)
        except Interrupt as intr:
            log.append(("interrupted", engine.now, intr.cause))

    proc = engine.spawn(poller(), name="poller")

    def interrupter():
        yield engine.sleep(2_000)
        proc.interrupt("stop")

    engine.spawn(interrupter(), name="interrupter")
    engine.run(until_ns=2_000)
    pending = [when for _now, when, _seq in engine.pushes if when > engine.now]
    parked = (engine.queue_len, pending, engine._seq)
    engine.run(until_ns=HORIZON_NS)  # the word never reaches the target
    return log, parked, engine._seq, engine.queue_len, proc.finished


def test_interrupt_leaves_one_stale_check():
    got = run_interrupted(insitu.poll_u64_at_least)
    assert got == run_interrupted(reference_poll.poll_u64_at_least)
    log, (queued, pending, seq_parked), seq_end, left, finished = got
    assert log == [("interrupted", 2_000, "stop")]
    assert (queued, pending) == (1, [3_000])  # only the abandoned 3 us check
    assert seq_end == seq_parked  # it runs stale and pushes nothing
    assert left == 0 and finished


def test_schedule_constants_match_the_frozen_loop():
    assert (insitu.POLL_START_NS, insitu.POLL_CAP_NS) == (
        reference_poll.POLL_START_NS, reference_poll.POLL_CAP_NS)


def test_interrupt_at_a_check_ns_is_delivered():
    """An interrupt issued at the ns of a check queued ahead of it.

    The frozen loop's check resumed the generator first, so the
    interrupt arrived for a finished suspension and was dropped; the
    poller then polled on. A check that finds the word short resumes
    nothing, so the interrupt is delivered. Nothing in the package
    interrupts a poller, so no result depends on the difference."""
    def run(poll):
        engine = RecordingEngine()
        _mem, views = make_views()
        log = []

        def poller():
            try:
                yield from poll(engine, views["exporter"], 8, 1)
            except Interrupt:
                log.append(("interrupted", engine.now))

        proc = engine.spawn(poller(), name="poller")

        def interrupter():
            yield engine.sleep(3_000)
            proc.interrupt()

        engine.spawn(interrupter(), name="interrupter")
        engine.run(until_ns=HORIZON_NS)
        return log, proc.finished

    assert run(reference_poll.poll_u64_at_least) == ([], False)
    assert run(insitu.poll_u64_at_least) == ([("interrupted", 3_000)], True)
