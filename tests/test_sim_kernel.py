"""Tests for the discrete-event kernel and synchronization primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    AllOf,
    Barrier,
    Channel,
    CountDownLatch,
    Resource,
    Semaphore,
    SimKernel,
)


class TestEventLoop:
    def test_time_advances_in_order(self):
        k = SimKernel()
        seen = []
        k.schedule(2.0, lambda: seen.append(("b", k.now)))
        k.schedule(1.0, lambda: seen.append(("a", k.now)))
        k.run()
        assert seen == [("a", 1.0), ("b", 2.0)]

    def test_fifo_at_same_timestamp(self):
        k = SimKernel()
        seen = []
        for i in range(5):
            k.schedule(1.0, seen.append, i)
        k.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        k = SimKernel()
        with pytest.raises(SimulationError):
            k.schedule(-1.0, lambda: None)

    def test_run_until(self):
        k = SimKernel()
        seen = []
        k.schedule(1.0, seen.append, 1)
        k.schedule(5.0, seen.append, 5)
        k.run(until=2.0)
        assert seen == [1]
        assert k.now == 2.0
        k.run()
        assert seen == [1, 5]

    def test_no_wallclock_dependency(self):
        k = SimKernel()
        k.schedule(1e9, lambda: None)  # a billion simulated seconds
        assert k.run() == 1e9


class TestProcesses:
    def test_process_returns_value(self):
        k = SimKernel()

        def worker():
            yield k.timeout(3.0)
            return "done"

        assert k.run_process(worker()) == "done"
        assert k.now == 3.0

    def test_process_awaits_process(self):
        k = SimKernel()

        def child():
            yield k.timeout(1.0)
            return 21

        def parent():
            value = yield k.spawn(child())
            return value * 2

        assert k.run_process(parent()) == 42

    def test_yield_list_waits_for_all(self):
        k = SimKernel()

        def child(d):
            yield k.timeout(d)
            return d

        def parent():
            values = yield [k.spawn(child(3.0)), k.spawn(child(1.0))]
            return values

        assert k.run_process(parent()) == [3.0, 1.0]
        assert k.now == 3.0

    def test_exception_propagates_to_awaiter(self):
        k = SimKernel()

        def bad():
            yield k.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield k.spawn(bad())
            except ValueError:
                return "caught"
            return "missed"

        assert k.run_process(parent()) == "caught"

    def test_uncaught_exception_raised_by_run(self):
        k = SimKernel()

        def bad():
            yield k.timeout(1.0)
            raise RuntimeError("unhandled")

        k.spawn(bad())
        with pytest.raises(RuntimeError, match="unhandled"):
            k.run()

    def test_deadlock_detection_in_run_process(self):
        k = SimKernel()

        def stuck():
            yield k.event()  # never resolved

        with pytest.raises(SimulationError, match="deadlock"):
            k.run_process(stuck())

    def test_bad_yield_type_fails_process(self):
        k = SimKernel()

        def bad():
            yield 42

        with pytest.raises(SimulationError, match="yielded"):
            k.run_process(bad())

    def test_spawn_requires_generator(self):
        k = SimKernel()
        with pytest.raises(SimulationError):
            k.spawn(lambda: None)

    def test_yield_none_cooperates(self):
        k = SimKernel()
        order = []

        def a():
            order.append("a1")
            yield None
            order.append("a2")

        def b():
            order.append("b1")
            yield None
            order.append("b2")

        k.spawn(a())
        k.spawn(b())
        k.run()
        assert order == ["a1", "b1", "a2", "b2"]


class TestFutures:
    def test_double_resolve_rejected(self):
        k = SimKernel()
        f = k.event()
        f.resolve(1)
        with pytest.raises(SimulationError):
            f.resolve(2)

    def test_value_before_resolve_rejected(self):
        k = SimKernel()
        with pytest.raises(SimulationError):
            _ = k.event().value

    def test_callback_after_done_still_fires(self):
        k = SimKernel()
        f = k.event()
        f.resolve("x")
        seen = []
        f.add_callback(lambda fut: seen.append(fut.value))
        k.run()
        assert seen == ["x"]

    def test_all_of_empty(self):
        k = SimKernel()
        f = AllOf(k, [])
        k.run()
        assert f.value == []


class TestResource:
    def test_serializes_beyond_capacity(self):
        k = SimKernel()
        res = Resource(k, capacity=2)
        finish = []

        def worker(i):
            yield res.acquire()
            yield k.timeout(1.0)
            res.release()
            finish.append((i, k.now))

        for i in range(4):
            k.spawn(worker(i))
        k.run()
        assert [t for _i, t in finish] == [1.0, 1.0, 2.0, 2.0]

    def test_release_without_acquire(self):
        k = SimKernel()
        with pytest.raises(SimulationError):
            Resource(k, 1).release()

    def test_capacity_validation(self):
        k = SimKernel()
        with pytest.raises(SimulationError):
            Resource(k, 0)

    def test_counters(self):
        k = SimKernel()
        res = Resource(k, 1)

        def worker():
            yield res.acquire()
            assert res.in_use == 1
            res.release()

        k.run_process(worker())
        assert res.in_use == 0 and res.queued == 0


class TestSemaphoreChannel:
    def test_semaphore_caps_concurrency(self):
        k = SimKernel()
        sem = Semaphore(k, 2)
        running = [0]
        peak = [0]

        def worker():
            yield sem.acquire()
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            yield k.timeout(1.0)
            running[0] -= 1
            sem.release()

        for _ in range(6):
            k.spawn(worker())
        k.run()
        assert peak[0] == 2

    def test_channel_fifo(self):
        k = SimKernel()
        ch = Channel(k)
        got = []

        def consumer():
            for _ in range(3):
                item = yield ch.get()
                got.append(item)

        def producer():
            yield k.timeout(1.0)
            for i in range(3):
                ch.put(i)

        k.spawn(consumer())
        k.spawn(producer())
        k.run()
        assert got == [0, 1, 2]

    def test_channel_buffers_when_no_getter(self):
        k = SimKernel()
        ch = Channel(k)
        ch.put("a")
        assert len(ch) == 1

        def consumer():
            return (yield ch.get())

        assert k.run_process(consumer()) == "a"


class TestBarrierLatch:
    def test_barrier_releases_together(self):
        k = SimKernel()
        bar = Barrier(k, 3)
        times = []

        def party(delay):
            yield k.timeout(delay)
            yield bar.wait()
            times.append(k.now)

        for d in (1.0, 2.0, 5.0):
            k.spawn(party(d))
        k.run()
        assert times == [5.0, 5.0, 5.0]

    def test_barrier_reusable(self):
        k = SimKernel()
        bar = Barrier(k, 2)
        laps = []

        def party(i):
            for lap in range(2):
                yield k.timeout(i + 1.0)
                yield bar.wait()
                laps.append((i, lap, k.now))

        k.spawn(party(0))
        k.spawn(party(1))
        k.run()
        assert [t for _i, _l, t in laps] == [2.0, 2.0, 4.0, 4.0]

    def test_latch(self):
        k = SimKernel()
        latch = CountDownLatch(k, 2)

        def waiter():
            yield latch.future
            return k.now

        def worker():
            yield k.timeout(1.0)
            latch.count_down()
            yield k.timeout(1.0)
            latch.count_down()

        k.spawn(worker())
        assert k.run_process(waiter()) == 2.0

    def test_latch_zero_is_released(self):
        k = SimKernel()
        assert CountDownLatch(k, 0).future.done

    def test_latch_misuse(self):
        k = SimKernel()
        latch = CountDownLatch(k, 1)
        latch.count_down()
        with pytest.raises(SimulationError):
            latch.count_down()


@given(st.lists(st.floats(min_value=0.001, max_value=100), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_kernel_fires_in_nondecreasing_time(delays):
    """Property: event firing times are globally nondecreasing."""
    k = SimKernel()
    fired = []
    for d in delays:
        k.schedule(d, lambda: fired.append(k.now))
    k.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
