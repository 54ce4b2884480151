"""The serve-zipf request mix and an asyncio HTTP/1.1 load generator.

The mix and the arrival schedules are pure functions of the workload
seed.  The generator keeps at most ``nproc`` keep-alive connections and
runs either closed (send the next request when a connection frees up) or
open (send on a seeded Poisson schedule, and time each request from when
it was due, so a stall also charges the requests queued behind it).
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from common import median, percentile

#: ``(family, n)`` points of the hot set: responses of about 20-90 KB.
HOT_POINTS = (
    ("kstar", 48), ("kstar", 64), ("path", 96), ("path", 128),
    ("cycle", 64), ("random_tree", 96), ("grid", 64), ("gnp_sparse", 64),
    ("star", 64), ("caterpillar", 64), ("wheel", 64), ("lollipop", 64),
)

#: Families for fresh ``(family, n)`` points (graph build + advice + run).
FRESH_FAMILIES = (
    "path", "cycle", "star", "wheel", "caterpillar", "random_tree",
    "gnp_sparse", "grid", "lollipop", "kstar",
)
FRESH_SIZES = range(24, 97)

#: Share of requests with a key the daemon has not seen: a new scheduler
#: seed on a hot point (simulation only; graph and advice are cached) or a
#: new ``(family, n)`` point (everything computed).
NEW_SEED_SHARE = 0.04
NEW_POINT_SHARE = 0.01

#: Requests in flight per connection in a closed-loop pass.
PIPELINE_DEPTH = 4

_CONNECTION_ERRORS = (asyncio.TimeoutError, OSError, ValueError, asyncio.IncompleteReadError)

#: Constant seed of the popularity ranking: the workload seed draws from
#: the mix, it does not reshape it.
_RANK_SEED = 20_061


def hot_set() -> List[Dict[str, object]]:
    """Every hot request, most popular first (zipf rank order)."""
    keys: List[Dict[str, object]] = []
    for family, n in HOT_POINTS:
        for task in ("broadcast", "wakeup"):
            for level in ("full", "counters"):
                keys.append(_simulate(family, n, task, level, "sync", 0))
        keys.append({"job": "advice", "family": family, "n": n})
    random.Random(_RANK_SEED).shuffle(keys)
    return keys


def _simulate(family, n, task, level, scheduler, seed) -> Dict[str, object]:
    return {
        "job": "simulate", "task": task, "family": family, "n": n,
        "trace_level": level, "scheduler": scheduler, "scheduler_seed": seed,
    }


def request_id(request: Dict[str, object]) -> str:
    """The client's identity for a request (the mix never sends two
    spellings of one key)."""
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


class Mix:
    """The seeded request stream of one daemon's lifetime.

    Every batch carries exactly its share of fresh keys (rounded), at
    seeded positions, and fresh keys take turns over families and hot
    points: the seed moves where the work falls, hardly how much there is.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.hot = hot_set()
        self.weights = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(self.hot))))
        self._seeds = itertools.count(1_000)
        self._points = self._fresh_points()
        bases = [r for r in self.hot if r["job"] == "simulate"]
        self.rng.shuffle(bases)
        self._bases = itertools.cycle(bases)

    def _fresh_points(self) -> List[Dict[str, object]]:
        """New ``(family, n)`` requests, popped from the end: families
        take turns, each with its sizes shuffled, alternating tasks."""
        hot = set(HOT_POINTS)
        sizes = {}
        for family in FRESH_FAMILIES:
            sizes[family] = [n for n in FRESH_SIZES if (family, n) not in hot]
            self.rng.shuffle(sizes[family])
        turns = [
            _simulate(family, sizes[family][i], ("broadcast", "wakeup")[i % 2], ("full", "counters")[i // 2 % 2], "sync", 0)
            for i in range(len(FRESH_SIZES))
            for family in FRESH_FAMILIES
            if i < len(sizes[family])
        ]
        return turns[::-1]

    def _new_seed(self) -> Dict[str, object]:
        return dict(next(self._bases), scheduler="random", scheduler_seed=next(self._seeds))

    def take(self, count: int) -> List[Dict[str, object]]:
        batch = self.rng.choices(self.hot, cum_weights=self.weights, k=count)
        points = round(count * NEW_POINT_SHARE)
        slots = self.rng.sample(range(count), points + round(count * NEW_SEED_SHARE))
        for k, i in enumerate(slots):
            batch[i] = self._points.pop() if k < points and self._points else self._new_seed()
        return batch


def poisson_arrivals(rng: random.Random, rate: float, count: int) -> List[float]:
    """Offsets (s) of ``count`` arrivals at mean rate ``rate``."""
    out, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One request: times on the loop clock and the HTTP status (0 when
    no answer came)."""

    index: int
    due: float
    sent: float
    done: float
    status: int


@dataclass
class Step:
    """One closed pass or one open-loop rate step."""

    rate: Optional[float]
    outcomes: List[Outcome] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    backlog_at_end: int = 0
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status != 200)

    def latencies_ms(self) -> List[float]:
        """Due-to-done latency of the answered requests (failed ones miss
        the limit through :meth:`meets`)."""
        return [1e3 * (o.done - o.due) for o in self.outcomes if o.status == 200]

    def p50_ms(self) -> float:
        return median(self.latencies_ms())

    def p99_ms(self) -> Optional[float]:
        return percentile(self.latencies_ms(), 0.99)

    def backlog_grew(self) -> bool:
        """Requests still unanswered when the last one fell due, beyond
        what a stable queue holds at this rate."""
        return self.backlog_at_end > max(10, 0.05 * len(self.outcomes))

    def meets(self, slo_p99_ms: float) -> bool:
        p99 = self.p99_ms()
        return (
            self.failed == 0
            and p99 is not None
            and p99 <= slo_p99_ms
            and not self.backlog_grew()
        )


# ----------------------------------------------------------------------
# The HTTP client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def send(self, method: str, path: str, body: bytes = b"") -> None:
        if self.writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("ascii") + body)

    async def receive(self) -> Tuple[int, bytes]:
        """The next response on the connection (responses come in order)."""
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def call(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        await self.send(method, path, body)
        return await self.receive()


class LoadGenerator:
    """Drives one daemon over at most ``connections`` connections."""

    def __init__(self, host: str, port: int, connections: int, timeout_s: float = 10.0) -> None:
        self.conns = [Connection(host, port) for _ in range(connections)]
        self.timeout_s = timeout_s
        #: Request id -> every sampled response body of that request.
        self.sampled: Dict[str, List[bytes]] = {}

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    async def get_json(self, path: str):
        status, body = await asyncio.wait_for(self.conns[0].call("GET", path), self.timeout_s)
        if status != 200:
            raise ConnectionError(f"GET {path} -> HTTP {status}")
        return json.loads(body)

    def _keep(self, request: Dict[str, object], status: int, reply: bytes, sample: bool) -> None:
        if sample and status == 200:
            self.sampled.setdefault(request_id(request), []).append(reply)

    async def run(
        self,
        requests: Sequence[Dict[str, object]],
        arrivals: Optional[Sequence[float]] = None,
        sample: Sequence[bool] = (),
        rate: Optional[float] = None,
    ) -> Step:
        """Send ``requests``: open loop on ``arrivals`` (offsets in s), or
        closed loop when ``arrivals`` is None.  ``sample[i]`` keeps the
        body of request ``i`` for the byte check."""
        loop = asyncio.get_running_loop()
        step = Step(rate=rate)
        sample = list(sample) + [False] * (len(requests) - len(sample))
        bodies = [json.dumps(r).encode("utf-8") for r in requests]
        begin = loop.time()
        if arrivals is None:
            cursor = iter(range(len(requests)))
            await asyncio.gather(*(self._pipeline(c, cursor, bodies, requests, sample, step) for c in self.conns))
        else:
            await self._open_loop(arrivals, bodies, requests, sample, step)
        step.wall_s = loop.time() - begin
        step.outcomes.sort(key=lambda o: o.index)
        return step

    async def _pipeline(self, conn, cursor, bodies, requests, sample, step) -> None:
        """Closed loop on one connection with up to ``PIPELINE_DEPTH``
        requests in flight, so the daemon never idles waiting for the
        client to wake up: the pass measures the daemon."""
        loop = asyncio.get_running_loop()
        inflight = collections.deque()
        exhausted = False
        while True:
            try:
                while not exhausted and len(inflight) < PIPELINE_DEPTH:
                    i = next(cursor, None)
                    if i is None:
                        exhausted = True
                        break
                    inflight.append((i, loop.time()))
                    await conn.send("POST", "/v1/jobs", bodies[i])
                if not inflight:
                    return
                status, reply = await asyncio.wait_for(conn.receive(), self.timeout_s)
            except _CONNECTION_ERRORS:
                # The stream is out of step: everything in flight on it failed.
                done = loop.time()
                step.outcomes += [Outcome(i, sent, sent, done, 0) for i, sent in inflight]
                inflight.clear()
                await conn.close()
                continue
            i, sent = inflight.popleft()
            step.outcomes.append(Outcome(i, sent, sent, loop.time(), status))
            self._keep(requests[i], status, reply, sample[i])

    async def _open_loop(self, arrivals, bodies, requests, sample, step) -> None:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        pending = [0]
        start = loop.time() + 0.005

        async def produce():
            for i, offset in enumerate(arrivals):
                due = start + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                step.lags.append(loop.time() - due)
                pending[0] += 1
                queue.put_nowait((i, due))
            step.backlog_at_end = pending[0]
            for _ in self.conns:
                queue.put_nowait(None)

        async def consume(conn: Connection):
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, due = item
                sent = loop.time()
                try:
                    status, reply = await asyncio.wait_for(conn.call("POST", "/v1/jobs", bodies[i]), self.timeout_s)
                except _CONNECTION_ERRORS:
                    status, reply = 0, b""
                    await conn.close()  # the stream is out of step; reconnect on next use
                pending[0] -= 1
                step.outcomes.append(Outcome(i, due, sent, loop.time(), status))
                self._keep(requests[i], status, reply, sample[i])

        await asyncio.gather(produce(), *(consume(c) for c in self.conns))
