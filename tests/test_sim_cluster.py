"""Tests for machines, network, RPC, and cluster assembly."""

import pytest

from repro.errors import MachineFailureError, RPCError, SimulationError
from repro.sim import (
    CC1_4XLARGE,
    Cluster,
    Machine,
    MESSAGE_OVERHEAD_BYTES,
    Network,
    SimKernel,
)


class TestMachine:
    def test_execute_charges_cycles(self):
        k = SimKernel()
        m = Machine(k, 0, num_cores=1, clock_hz=1e9)

        def job():
            yield from m.execute(2e9)
            return k.now

        assert k.run_process(job()) == 2.0
        assert m.cycles_executed == 2e9
        assert m.busy_seconds == 2.0

    def test_cores_limit_parallelism(self):
        k = SimKernel()
        m = Machine(k, 0, num_cores=2, clock_hz=1e9)
        done = []

        def job(i):
            yield from m.execute(1e9)
            done.append((i, k.now))

        for i in range(4):
            k.spawn(job(i))
        k.run()
        assert [t for _i, t in done] == [1.0, 1.0, 2.0, 2.0]
        assert m.utilization(2.0) == pytest.approx(1.0)

    def test_slowdown_interval_integration(self):
        k = SimKernel()
        m = Machine(k, 0, num_cores=1, clock_hz=1e9)
        m.add_slowdown(1.0, 2.0, 0.5)  # half speed for 1 second
        # 2e9 cycles: 1s full speed (1e9), then 1s at half (0.5e9),
        # then 0.5s full -> total 2.5s.
        assert m.work_duration(2e9, 0.0) == pytest.approx(2.5)

    def test_halt_interval(self):
        k = SimKernel()
        m = Machine(k, 0, num_cores=1, clock_hz=1e9)
        m.add_slowdown(0.5, 15.5, 0.0)
        assert m.work_duration(1e9, 0.0) == pytest.approx(16.0)

    def test_overlapping_slowdowns_rejected(self):
        k = SimKernel()
        m = Machine(k, 0)
        m.add_slowdown(0.0, 2.0, 0.5)
        with pytest.raises(SimulationError):
            m.add_slowdown(1.0, 3.0, 0.5)

    def test_eternal_halt_detected(self):
        k = SimKernel()
        m = Machine(k, 0, clock_hz=1e9)
        m.add_slowdown(0.0, float("inf"), 0.0)
        with pytest.raises(SimulationError):
            m.work_duration(1.0, 0.0)

    def test_killed_machine_rejects_work(self):
        k = SimKernel()
        m = Machine(k, 0)
        m.kill()
        assert not m.alive
        with pytest.raises(MachineFailureError):
            # execute() raises before the first yield
            next(iter(m.execute(1.0)))
        m.restore()
        assert m.alive


class TestNetwork:
    def _net(self, n=2, **kw):
        k = SimKernel()
        net = Network(k, **kw)
        machines = [Machine(k, i) for i in range(n)]
        for m in machines:
            net.attach(m)
        return k, net, machines

    def test_delivery_time_includes_latency_and_serialization(self):
        k, net, _ = self._net(latency=0.01, bandwidth_bps=1e6)
        arrivals = []
        size = 1e6 - MESSAGE_OVERHEAD_BYTES  # 1 second on the wire
        net.send(0, 1, size, lambda p: arrivals.append((k.now, p)), "hi")
        k.run()
        assert arrivals == [(1.01, "hi")]

    def test_egress_serializes_messages(self):
        k, net, _ = self._net(latency=0.0, bandwidth_bps=1e6)
        arrivals = []
        size = 1e6 - MESSAGE_OVERHEAD_BYTES
        net.send(0, 1, size, lambda p: arrivals.append(k.now))
        net.send(0, 1, size, lambda p: arrivals.append(k.now))
        k.run()
        assert arrivals == [1.0, 2.0]

    def test_effective_bandwidth_cap(self):
        k, net, _ = self._net(
            latency=0.0, bandwidth_bps=1e9, effective_bandwidth_bps=1e6
        )
        assert net.rate == 1e6

    def test_local_send_is_free(self):
        k, net, _ = self._net()
        arrivals = []
        net.send(0, 0, 1e9, lambda p: arrivals.append(k.now))
        k.run()
        assert arrivals == [0.0]
        assert net.stats[0].bytes_sent == 0.0

    def test_byte_accounting(self):
        k, net, _ = self._net()
        net.send(0, 1, 1000, lambda p: None)
        k.run()
        assert net.stats[0].bytes_sent == 1000 + MESSAGE_OVERHEAD_BYTES
        assert net.stats[0].messages_sent == 1
        assert net.stats[1].bytes_received == 1000 + MESSAGE_OVERHEAD_BYTES
        assert (
            sum(s.bytes_sent for s in net.stats.values())
            == 1000 + MESSAGE_OVERHEAD_BYTES
        )
        assert net.mean_mbps_per_machine(1.0) == pytest.approx(
            (1000 + MESSAGE_OVERHEAD_BYTES) / 2 / 1e6
        )

    def test_messages_to_dead_machine_dropped(self):
        k, net, machines = self._net()
        machines[1].kill()
        arrivals = []
        net.send(0, 1, 100, lambda p: arrivals.append(p))
        k.run()
        assert arrivals == []
        assert net.stats[1].messages_received == 0

    def test_unknown_machine_rejected(self):
        k, net, _ = self._net()
        with pytest.raises(SimulationError):
            net.send(0, 9, 10, lambda p: None)

    def test_double_attach_rejected(self):
        k = SimKernel()
        net = Network(k)
        m = Machine(k, 0)
        net.attach(m)
        with pytest.raises(SimulationError):
            net.attach(m)


class TestRpc:
    def test_call_roundtrip(self):
        cluster = Cluster(2)
        cluster.rpc[1].register("add", lambda sender, a, b: a + b)

        def caller():
            return (yield cluster.rpc[0].call(1, "add", 100, 2, 3))

        assert cluster.kernel.run_process(caller()) == 5

    def test_generator_handler_waits(self):
        cluster = Cluster(2)
        k = cluster.kernel

        def slow_handler(sender, x):
            yield k.timeout(1.0)
            return x * 10

        cluster.rpc[1].register("slow", slow_handler)

        def caller():
            value = yield cluster.rpc[0].call(1, "slow", 100, 7)
            return value, k.now

        value, t = k.run_process(caller())
        assert value == 70
        assert t > 1.0

    def test_handler_exception_propagates_to_caller(self):
        cluster = Cluster(2)

        def bad(sender):
            raise ValueError("remote boom")

        cluster.rpc[1].register("bad", bad)

        def caller():
            try:
                yield cluster.rpc[0].call(1, "bad", 10)
            except ValueError as exc:
                return str(exc)

        assert cluster.kernel.run_process(caller()) == "remote boom"

    def test_missing_handler_fails_call(self):
        cluster = Cluster(2)

        def caller():
            try:
                yield cluster.rpc[0].call(1, "nope", 10)
            except RPCError:
                return "rpc-error"

        assert cluster.kernel.run_process(caller()) == "rpc-error"

    def test_cast_one_way(self):
        cluster = Cluster(2)
        seen = []
        cluster.rpc[1].register("note", lambda sender, x: seen.append((sender, x)))
        cluster.rpc[0].cast(1, "note", 50, "hello")
        cluster.kernel.run()
        assert seen == [(0, "hello")]

    def test_self_call_skips_network(self):
        cluster = Cluster(1)
        cluster.rpc[0].register("echo", lambda sender, x: x)

        def caller():
            return (yield cluster.rpc[0].call(0, "echo", 10, "x"))

        assert cluster.kernel.run_process(caller()) == "x"
        assert cluster.network.stats[0].bytes_sent == 0

    def test_duplicate_handler_rejected(self):
        cluster = Cluster(1)
        cluster.rpc[0].register("m", lambda s: None)
        with pytest.raises(RPCError):
            cluster.rpc[0].register("m", lambda s: None)


class TestCluster:
    def test_build_shape(self):
        cluster = Cluster(4)
        assert cluster.num_machines == 4
        assert cluster.total_cores == 32
        assert cluster.instance is CC1_4XLARGE
        assert cluster.machine(2).machine_id == 2

    def test_cost_fine_grained(self):
        cluster = Cluster(64)
        one_hour = cluster.cost(3600.0)
        assert one_hour == pytest.approx(64 * 1.30)
        assert cluster.cost(1800.0) == pytest.approx(one_hour / 2)

    def test_cost_rejects_negative(self):
        with pytest.raises(SimulationError):
            Cluster(1).cost(-1.0)

    def test_needs_at_least_one_machine(self):
        with pytest.raises(SimulationError):
            Cluster(0)
