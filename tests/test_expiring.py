import threading

from conftest import FakeClock
from hbesso.expiring import ExpiringTable


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

