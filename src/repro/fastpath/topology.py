"""Flat-array (CSR-style) compilation of a port-labeled graph.

The legacy engine answers "who is behind port ``p`` of node ``v``, and on
which of *their* ports does the message arrive?" with two nested-dict
walks per delivered message
(``graph.neighbor_via(v, p)`` + ``graph.port(u, v)``).
:class:`CompiledTopology` precomputes both answers for every ``(node,
port)`` pair into flat arrays so the inner loop does two list indexings
instead:

    base = offsets[i]                  # node i's slice of the port space
    j     = neighbor_at[base + p]      # dense index of the neighbor
    aport = arrival_at[base + p]       # arrival port at that neighbor

Nodes are numbered ``0..n-1`` in the graph's deterministic insertion
order (the same order ``graph.nodes()`` yields, which is also the
engine's init order), so a compiled index is meaningful across every
consumer of the same frozen graph.  ``reprs`` additionally precomputes
``repr(label)`` per node — the component of the synchronous delivery key
that is by far the most expensive to recompute per message.

Compilation happens once, at :meth:`PortLabeledGraph.freeze` time, and
the result is cached on the graph itself (``graph._compiled``); a frozen
graph cannot change, so the cache never goes stale.  For sweep drivers,
:meth:`repro.parallel.cache.ConstructionCache.topology` additionally
memoizes topologies by ``(family, n, seed)`` content address.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Tuple

__all__ = ["CompiledTopology", "compile_topology", "compiled_topology"]


class CompiledTopology:
    """The flat-array form of one frozen port-labeled graph.

    Attributes
    ----------
    labels:
        Node labels, dense index -> label (graph insertion order).
    index:
        label -> dense index (the inverse of ``labels``).
    reprs:
        ``repr(label)`` per dense index (synchronous delivery keys).
    degrees:
        ``deg(v)`` per dense index.
    offsets:
        CSR row starts: node ``i`` owns slots ``offsets[i] ..
        offsets[i+1] - 1`` of the two port arrays; ``offsets[n]`` is
        ``2 * num_edges``.
    neighbor_at:
        ``neighbor_at[offsets[i] + p]`` is the dense index of the node
        behind port ``p`` of node ``i``.
    arrival_at:
        ``arrival_at[offsets[i] + p]`` is the port on which that message
        arrives at the neighbor.
    source_index:
        Dense index of the source, or ``-1`` if none is designated.
    """

    __slots__ = (
        "labels",
        "index",
        "reprs",
        "degrees",
        "offsets",
        "neighbor_at",
        "arrival_at",
        "source_index",
    )

    def __init__(
        self,
        labels: Tuple[Hashable, ...],
        index: Dict[Hashable, int],
        reprs: Tuple[str, ...],
        degrees: "array",
        offsets: "array",
        neighbor_at: "array",
        arrival_at: "array",
        source_index: int,
    ) -> None:
        self.labels = labels
        self.index = index
        self.reprs = reprs
        self.degrees = degrees
        self.offsets = offsets
        self.neighbor_at = neighbor_at
        self.arrival_at = arrival_at
        self.source_index = source_index

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.neighbor_at) // 2

    def neighbor_via(self, i: int, port: int) -> int:
        """Dense index of the node behind port ``port`` of node ``i``."""
        if not 0 <= port < self.degrees[i]:
            raise IndexError(f"no port {port} at compiled node {i}")
        return self.neighbor_at[self.offsets[i] + port]

    def arrival_port(self, i: int, port: int) -> int:
        """Arrival port of a message sent through port ``port`` of node ``i``."""
        if not 0 <= port < self.degrees[i]:
            raise IndexError(f"no port {port} at compiled node {i}")
        return self.arrival_at[self.offsets[i] + port]

    def __repr__(self) -> str:
        return f"CompiledTopology(n={self.num_nodes}, m={self.num_edges})"


def compile_topology(graph) -> CompiledTopology:
    """Compile a validated :class:`~repro.network.graph.PortLabeledGraph`.

    Called by ``freeze()``; use :func:`compiled_topology` to get the
    cached instance of an already-frozen graph.
    """
    # Read the two port maps directly: a validated graph numbers the ports
    # of every node 0..deg-1, so each row is one dict lookup per port.
    by_port = graph._port_to_neighbor
    by_neighbor = graph._neighbor_to_port
    labels: Tuple[Hashable, ...] = tuple(by_port)
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    degrees = array("l", [len(by_port[v]) for v in labels])
    offsets = array("l", [0] * (n + 1))
    total = 0
    for i in range(n):
        total += degrees[i]
        offsets[i + 1] = total
    neighbors = []
    arrivals = []
    for v in labels:
        ports = by_port[v]
        row = [ports[p] for p in range(len(ports))]
        neighbors.extend([index[u] for u in row])
        arrivals.extend([by_neighbor[u][v] for u in row])
    neighbor_at = array("l", neighbors)
    arrival_at = array("l", arrivals)
    reprs = tuple(repr(v) for v in labels)
    source_index = index[graph.source] if graph.has_source else -1
    return CompiledTopology(
        labels, index, reprs, degrees, offsets, neighbor_at, arrival_at, source_index
    )


def compiled_topology(graph) -> CompiledTopology:
    """The cached :class:`CompiledTopology` of a frozen graph.

    Graphs frozen since this module exists carry their topology already;
    older pickles (or exotic construction paths) get compiled here on
    first use.  Raises :class:`ValueError` for unfrozen graphs — a
    mutable graph could invalidate the cache.
    """
    topo = getattr(graph, "_compiled", None)
    if topo is None:
        if not graph.frozen:
            raise ValueError("compiled_topology requires a frozen graph")
        topo = compile_topology(graph)
        graph._compiled = topo
    return topo
