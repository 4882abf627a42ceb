"""Distributed termination detection (Misra 1983; paper Secs. 4.2.2, 4.4).

The simulated locking engine (:mod:`repro.distributed.locking`) is
fully asynchronous — no barriers — so "are we done?" is itself a
distributed problem: every machine must be idle *and* no scheduling
messages may be in flight. The classic marker solution: a token
circulates the ring 0 → 1 → … → n-1 → 0. A machine holds the token
until it is locally idle, then forwards it. Machines turn *black* when
they perform or receive work; the token's counter resets at a black
machine (clearing it) and increments at a white one. When the counter
reaches ``n`` the token has witnessed a full quiet round — any message
sent before the round would have blackened its receiver — so the
computation has terminated and a stop broadcast goes out.

:func:`install_termination` runs the token as real byte-charged RPC
messages on the simulated cluster; :func:`misra_visit` is its counter
arithmetic. The runtime locking engine (:mod:`repro.runtime.locking`)
needs no token: its lockstep rounds route every message through one
coordinator, which sees quiescence directly.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.sim.cluster import Cluster
from repro.sim.kernel import Future

#: Wire size of the token and of the stop broadcast.
TOKEN_BYTES = 16


def misra_visit(count: int, black: bool, num_machines: int) -> Tuple[int, bool]:
    """One token visit at an idle machine: ``(new_count, terminated)``.

    The counter resets at a black machine (which the visit clears) and
    increments at a white one; termination is witnessed when the counter
    reaches the ring size — a full circuit of white, idle machines.
    """
    count = 0 if black else count + 1
    return count, count >= num_machines


def install_termination(
    cluster: Cluster,
    wait_idle: Callable[[int], Future],
    take_black: Callable[[int], bool],
    on_terminate: Callable[[int], None],
) -> Dict[str, object]:
    """Wire Misra marker termination detection into every RPC node.

    Parameters
    ----------
    cluster:
        The simulated deployment (token travels its RPC mesh as real,
        byte-charged messages).
    wait_idle:
        ``wait_idle(machine_id) -> Future`` resolving when that machine
        is locally idle (empty scheduler, nothing in flight).
    take_black:
        ``take_black(machine_id) -> bool`` returning whether the machine
        did or received work since the token's last visit, clearing the
        flag.
    on_terminate:
        ``on_terminate(machine_id)`` invoked on every machine when the
        stop broadcast arrives.

    Returns a control dict: ``start(at_machine=0)`` injects the token;
    ``state`` is a live mapping with ``terminated`` (bool) and ``hops``
    (token forwardings, for diagnostics).
    """
    n = cluster.num_machines
    state = {"terminated": False, "hops": 0}

    def make_token_handler(machine_id: int):
        def handle_token(sender: int, count: int):
            yield wait_idle(machine_id)
            if state["terminated"]:
                return
            state["hops"] += 1
            count, done = misra_visit(count, take_black(machine_id), n)
            if done:
                state["terminated"] = True
                for peer in range(n):
                    cluster.rpc[machine_id].cast(peer, "__stop", TOKEN_BYTES)
            else:
                nxt = (machine_id + 1) % n
                cluster.rpc[machine_id].cast(
                    nxt, "__token", TOKEN_BYTES, count
                )

        return handle_token

    def make_stop_handler(machine_id: int):
        def handle_stop(sender: int) -> None:
            on_terminate(machine_id)

        return handle_stop

    for machine_id, node in cluster.rpc.items():
        node.register("__token", make_token_handler(machine_id), replace=True)
        node.register("__stop", make_stop_handler(machine_id), replace=True)

    def start(at_machine: int = 0) -> None:
        cluster.rpc[at_machine].cast(at_machine, "__token", TOKEN_BYTES, 0)

    return {"start": start, "state": state}
