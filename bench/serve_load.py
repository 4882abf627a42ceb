"""Load generator for the serve workloads.

Closed loop: two ``SocketClient`` connections, each sending its next
request only when the previous reply has arrived. A connection's
segment is a list of requests that is a function of the seed alone
(vertex, read or write, scope or point, written value); the host
process receives nothing but the requests. Every measured segment
replays the same lists, so segments are repeated measurements of the
same work — heal waves are heavy-tailed, and segments cut from one long
stream differed by 2x in wall on a steady machine.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from bench import ROOT
from bench.measure import BenchError
from repro.errors import EngineError
from repro.obs import percentile
from repro.serve import ReadReply, SocketClient, WriteReply

CONNECTIONS = 2

#: ``(kind, sent, answered, ok)`` per request.
Sample = Tuple[str, float, float, bool]


class Host:
    """One ``bench.serve_host`` subprocess, from spawn to final report."""

    def __init__(self, size: Dict[str, Any], telemetry: bool) -> None:
        spawned = time.perf_counter()
        self._proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "bench.serve_host",
                "--vertices", str(size["vertices"]),
                "--seed", str(size["graph_seed"]),
                "--epsilon", repr(size["epsilon"]),
                "--telemetry", str(int(telemetry)),
            ],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            address = tuple(self._line()["address"])
            self.clients = [SocketClient(address) for _ in range(CONNECTIONS)]
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        #: Spawn until the socket accepted both connections.
        self.start_s = time.perf_counter() - spawned

    def _line(self) -> Dict[str, Any]:
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError(
                f"serve host exited with code {self._proc.wait()} before replying"
            )
        return json.loads(line)

    def command(self, word: str) -> None:
        self._proc.stdin.write(word + "\n")
        self._proc.stdin.flush()

    def close(self) -> Dict[str, Any]:
        """Drain and stop the host; its report, once it has exited."""
        try:
            for client in self.clients:
                client.close()
            self.command("close")
            report = self._line()
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        return report


Request = Tuple[str, int, Any]


def segment_requests(size: Dict[str, Any], seed: int, connection: int) -> List[Request]:
    """The ``(kind, vertex, argument)`` requests of one connection's segment."""
    rng = random.Random(seed * CONNECTIONS + connection)
    vertices = size["vertices"]
    requests: List[Request] = []
    for _ in range(size["segment_requests"]):
        vertex = rng.randrange(vertices)
        if rng.random() < size["write_frac"]:
            requests.append(("write", vertex, rng.uniform(0.5, 2.0) / vertices))
        else:
            requests.append(("read", vertex, rng.random() < size["scope_frac"]))
    return requests


def _drive(client: SocketClient, requests: List[Request], out: List[Sample]) -> None:
    for kind, vertex, argument in requests:
        sent = time.perf_counter()
        try:
            if kind == "write":
                ok = isinstance(client.write(vertex, argument), WriteReply)
            else:
                ok = isinstance(client.read(vertex, scope=argument), ReadReply)
        except EngineError:
            ok = False
        out.append((kind, sent, time.perf_counter(), ok))
        if not ok:
            return  # a shed or broken connection: the rest go unanswered


def run_segment(host: Host, requests: List[List[Request]]) -> List[Sample]:
    """Every connection sends its list of requests; all samples, merged."""
    outs: List[List[Sample]] = [[] for _ in host.clients]
    threads = [
        threading.Thread(target=_drive, args=(client, listed, out))
        for client, listed, out in zip(host.clients, requests, outs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for out in outs for sample in out]


def segment_wall(samples: List[Sample]) -> float:
    return max(s[2] for s in samples) - min(s[1] for s in samples)


def latency_ms(samples: List[Sample], kind: str, q: float) -> float:
    """Client-observed percentile of one request kind; 0 with no sample."""
    return percentile([(s[2] - s[1]) * 1e3 for s in samples if s[0] == kind], q)
