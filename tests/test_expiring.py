import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import FakeClock
from hbesso.expiring import ExpiringTable

# few keys, so the machine re-adds keys after pop and after expiry
KEYS = st.sampled_from(("a", "b", "c"))


def test_entry_gone_at_its_expiry_instant():
    clock = FakeClock()
    table = ExpiringTable()
    assert table.add("k", "v", clock() + 10, clock())
    clock.advance(9.5)
    assert table.get("k", clock()) == "v"
    clock.advance(0.5)
    assert table.get("k", clock()) is None
    assert table.pop("k", clock()) is None


def test_add_refuses_live_key_and_readmits_expired_key():
    clock = FakeClock()
    table = ExpiringTable()
    assert table.add("k", 1, clock() + 10, clock())
    assert not table.add("k", 2, clock() + 99, clock())
    assert table.get("k", clock()) == 1
    clock.advance(10)
    assert table.add("k", 3, clock() + 10, clock())
    assert table.get("k", clock()) == 3
    assert len(table) == 1


def test_popped_then_readded_key_outlives_its_old_expiry():
    clock = FakeClock()
    table = ExpiringTable()
    table.add("k", 1, clock() + 10, clock())
    assert table.pop("k", clock()) == 1
    table.add("k", 2, clock() + 20, clock())
    clock.advance(15)
    assert table.get("k", clock()) == 2


def test_len_shrinks_once_the_clock_passes_expiry():
    clock = FakeClock()
    table = ExpiringTable()
    for i in range(100):
        table.add(f"k{i}", i, clock() + 1 + i % 10, clock())
    assert len(table) == 100
    clock.advance(5)
    table.get("none", clock())
    assert len(table) == 50
    clock.advance(5)
    table.get("none", clock())
    assert len(table) == 0


def test_concurrent_add_admits_exactly_one():
    clock = FakeClock()
    table = ExpiringTable()
    barrier = threading.Barrier(32)
    results = []

    def attempt(n):
        barrier.wait()
        results.append(table.add("k", n, clock() + 10, clock()))

    threads = [threading.Thread(target=attempt, args=(n,)) for n in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results.count(True) == 1
    assert len(table) == 1



class ExpiringTableModel(RuleBasedStateMachine):
    """Add, get and pop under a clock that only moves forward, against a
    dict of key -> (expires_at, value); an entry is live while now < expires_at."""

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.table = ExpiringTable()
        self.model = {}

    def _advance(self, dt):
        self.clock.advance(dt)
        now = self.clock()
        self.model = {k: e for k, e in self.model.items() if e[0] > now}
        return now

    @rule(key=KEYS, value=st.integers(), ttl=st.integers(1, 20), dt=st.integers(0, 10))
    def add(self, key, value, ttl, dt):
        now = self._advance(dt)
        inserted = self.table.add(key, value, now + ttl, now)
        assert inserted == (key not in self.model)
        if inserted:
            self.model[key] = (now + ttl, value)

    @rule(key=KEYS, dt=st.integers(0, 10))
    def get(self, key, dt):
        now = self._advance(dt)
        expected = self.model.get(key, (None, None))[1]
        assert self.table.get(key, now) == expected

    @rule(key=KEYS, dt=st.integers(0, 10))
    def pop(self, key, dt):
        now = self._advance(dt)
        expected = self.model.pop(key, (None, None))[1]
        assert self.table.pop(key, now) == expected

    @invariant()
    def same_length(self):
        assert len(self.table) == len(self.model)


TestExpiringTableModel = ExpiringTableModel.TestCase
TestExpiringTableModel.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)


def test_a_stale_queue_head_does_not_delay_the_entries_behind_it():
    # in-order entries; "b" is popped and added again with a later expiry
    # while "a" still heads the queue, so once "a" goes the queue's head
    # names "b" under its old expiry
    clock = FakeClock()
    start = clock()
    table = ExpiringTable()
    for i, key in enumerate("abc"):
        table.add(key, i, start + 10 + i, start)
    assert table.pop("b", start) == 1
    table.add("b", 3, start + 20, start)
    for t, live in ((9.5, 3), (10, 2), (11, 2), (12, 1), (19.5, 1), (20, 0)):
        clock.now = start + t
        table.get("none", clock())
        assert len(table) == live, t


def test_an_entry_added_after_later_ones_is_gone_at_its_own_instant():
    clock = FakeClock()
    start = clock()
    table = ExpiringTable()
    table.add("late", 1, start + 20, start)
    table.add("later", 2, start + 30, start)
    clock.advance(1)
    table.add("early", 3, start + 5, clock())
    clock.now = start + 4.5
    assert table.get("early", clock()) == 3
    clock.now = start + 5
    assert table.get("early", clock()) is None
    assert len(table) == 2
    clock.now = start + 20
    assert table.get("late", clock()) is None
    assert table.get("later", clock()) == 2
    assert len(table) == 1


def test_a_sweep_behind_a_live_head_keeps_the_live_entries_in_order():
    # every tenth entry stays live behind "head"; the rest are consumed
    clock = FakeClock()
    start = clock()
    table = ExpiringTable()
    table.add("head", -1, start + 10, start)
    kept = []
    for i in range(200):
        table.add(f"k{i}", i, start + 10 + i, start)
        if i % 10:
            assert table.pop(f"k{i}", start) == i
        else:
            kept.append(i)
    assert len(table._queue_keys) <= 2 * len(table) + 17
    for i in kept:
        clock.now = start + 10 + i
        assert table.get(f"k{i}", clock() - 0.5) == i
        assert table.get(f"k{i}", clock()) is None
        assert len(table) == len(kept) - 1 - kept.index(i)
