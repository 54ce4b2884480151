"""Stock network topologies with explicit port labelings.

Two kinds of builders live here:

* The paper's canonical labeled complete graph ``K*_n``
  (:func:`complete_graph_star`), which both lower-bound constructions start
  from.  The paper labels the port at node ``i`` of the edge to ``j`` as
  ``(i - j) mod (n - 1)``; as stated that map is not injective for interior
  ``i`` (ports of ``j`` and ``j + n - 1`` collide), so we use the standard
  *rotational* labeling ``(j - i - 1) mod n``, which is a bijection onto
  ``{0, ..., n - 2}`` at every node and serves the identical role in the
  proofs: a fixed, explicit, canonical port labeling of ``K_n``.
* General families used by the benchmarks and tests: paths, cycles, stars,
  complete bipartite graphs, grids, hypercubes, balanced trees, random trees,
  Erdős–Rényi graphs made connected, and random regular graphs.  Every random
  builder takes an explicit :class:`random.Random` — or a ``seed`` from
  which one is constructed — so graph generation never touches the
  module-level RNG and is reproducible end to end; every builder returns a
  frozen, validated :class:`PortLabeledGraph` with node ``1`` (or the
  family's natural origin) as source.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import networkx as nx

from .graph import GraphError, PortLabeledGraph

#: Seed used when a random builder is called with neither ``rng`` nor
#: ``seed`` — an arbitrary but fixed default, so bare calls are still
#: deterministic.
DEFAULT_SEED = 0


def resolve_rng(
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    default_seed: int = DEFAULT_SEED,
) -> random.Random:
    """An explicit RNG for graph generation: ``rng`` wins, else a fresh
    ``random.Random(seed)`` (``seed`` defaulting to ``default_seed``).

    Centralizing this keeps every builder off the module-level ``random``
    state (lint rule MDL003's concern) without forcing callers to build
    their own :class:`random.Random` instances.
    """
    if rng is not None:
        return rng
    return random.Random(default_seed if seed is None else seed)


__all__ = [
    "DEFAULT_SEED",
    "resolve_rng",
    "complete_graph_star",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite",
    "grid_graph",
    "hypercube_graph",
    "balanced_tree",
    "random_tree",
    "random_connected_gnp",
    "random_regular",
    "lollipop_graph",
    "barbell_graph",
    "wheel_graph",
    "caterpillar_graph",
    "FAMILY_BUILDERS",
]


def complete_graph_star(n: int) -> PortLabeledGraph:
    """The canonically port-labeled complete graph ``K*_n``.

    Nodes are labeled ``1..n``; the port at node ``i`` of the edge towards
    node ``j`` is ``(j - i - 1) mod n``, a bijection onto ``{0, ..., n - 2}``
    at every node.  Node ``1`` is the source, as in both lower-bound proofs.
    """
    if n < 2:
        raise GraphError("K*_n needs n >= 2")
    g = PortLabeledGraph()
    nodes = range(1, n + 1)
    # Both maps list neighbors in ascending order at every node: map
    # iteration order reaches rows and traces, so it is part of the output.
    for x in nodes:
        g._neighbor_to_port[x] = {w: (w - x - 1) % n for w in nodes if w != x}
        g._port_to_neighbor[x] = {(w - x - 1) % n: w for w in nodes if w != x}
    g.set_source(1)
    return g.freeze()


def _finish(g: nx.Graph, source=None, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    out = PortLabeledGraph.from_networkx(g, source=source, port_order=port_order, rng=rng)
    return out.freeze()


def path_graph(n: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """Path on nodes ``0..n-1`` with source ``0``."""
    if n < 1:
        raise GraphError("path needs n >= 1... and n >= 2 to be a network")
    return _finish(nx.path_graph(n), source=0, port_order=port_order, rng=rng)


def cycle_graph(n: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """Cycle on nodes ``0..n-1`` with source ``0``."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return _finish(nx.cycle_graph(n), source=0, port_order=port_order, rng=rng)


def star_graph(n: int, center_source: bool = True) -> PortLabeledGraph:
    """Star with center ``0`` and leaves ``1..n-1``.

    ``center_source=False`` puts the source on leaf ``1``, which maximizes
    broadcast distance.
    """
    if n < 2:
        raise GraphError("star needs n >= 2")
    return _finish(nx.star_graph(n - 1), source=0 if center_source else 1)


def complete_bipartite(a: int, b: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """Complete bipartite graph ``K_{a,b}`` with source on the first side."""
    if a < 1 or b < 1:
        raise GraphError("both sides must be non-empty")
    return _finish(nx.complete_bipartite_graph(a, b), source=0, port_order=port_order, rng=rng)


def grid_graph(rows: int, cols: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """2D grid with tuple-labeled nodes and source at the origin corner."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    g = nx.grid_2d_graph(rows, cols)
    return _finish(g, source=(0, 0), port_order=port_order, rng=rng)


def hypercube_graph(dim: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """``dim``-dimensional hypercube on ``2^dim`` integer-labeled nodes."""
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    g = nx.hypercube_graph(dim)
    relabeled = nx.relabel_nodes(
        g, {v: int("".join(map(str, v)), 2) for v in g.nodes()}
    )
    return _finish(relabeled, source=0, port_order=port_order, rng=rng)


def balanced_tree(branching: int, height: int) -> PortLabeledGraph:
    """Complete ``branching``-ary tree of the given height, root as source."""
    if branching < 1 or height < 1:
        raise GraphError("balanced tree needs branching >= 1 and height >= 1")
    return _finish(nx.balanced_tree(branching, height), source=0)


def random_tree(
    n: int,
    rng: Optional[random.Random] = None,
    port_order: str = "sorted",
    seed: Optional[int] = None,
) -> PortLabeledGraph:
    """Uniform random labeled tree on ``0..n-1`` (via a random Prüfer sequence)."""
    if n < 2:
        raise GraphError("random tree needs n >= 2")
    rng = resolve_rng(rng, seed)
    if n == 2:
        g = nx.path_graph(2)
    else:
        prufer = [rng.randrange(n) for __ in range(n - 2)]
        g = nx.from_prufer_sequence(prufer)
    return _finish(g, source=0, port_order=port_order, rng=rng)


def random_connected_gnp(
    n: int,
    p: float,
    rng: Optional[random.Random] = None,
    port_order: str = "sorted",
    max_tries: int = 200,
    seed: Optional[int] = None,
) -> PortLabeledGraph:
    """Erdős–Rényi ``G(n, p)``, resampled until connected, else patched to connectivity.

    Draws up to ``max_tries`` samples and returns the first connected one.
    If none is connected — certain for ``p = 0``, and the usual outcome when
    ``p`` is well below the connectivity threshold ``ln(n) / n`` — the last
    sample is patched instead of failing, so the builder is total: its nodes
    are walked in a random order, and each consecutive pair that is still in
    different components gets an edge.  A patched graph is *not* a connected
    ``G(n, p)`` sample; it is ``G(n, p)`` plus the fewest edges that connect
    it.  ``FAMILY_BUILDERS["gnp_sparse"]`` (``p = 3 / (n - 1)``) takes that
    path from ``n = 256`` on.

    The result is byte-identical to sampling each try with
    ``networkx.gnp_random_graph(n, p, seed=rng.randrange(2**32))``, testing
    ``networkx.is_connected`` and patching with ``networkx.has_path``: same
    edges, same port labels, same ``rng`` state afterwards.  The draws are
    replayed in numpy (see :func:`_sample_connected_gnp`).
    """
    if n < 2:
        raise GraphError("G(n, p) needs n >= 2")
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    if max_tries < 1:
        raise GraphError("max_tries must be >= 1")
    rng = resolve_rng(rng, seed)
    edges, __, __ = _sample_connected_gnp(n, p, rng, max_tries)
    g = nx.empty_graph(n)
    g.add_edges_from(edges)
    return _finish(g, source=0, port_order=port_order, rng=rng)


def _gnp_uniforms(bits, seed: int, count: int):
    """The first ``count`` values of ``random.Random(seed).random()``, as one array.

    ``bits`` is a numpy ``MT19937`` that gets the Mersenne Twister state
    ``random.Random(seed)`` starts from; CPython and numpy both turn two
    32-bit outputs ``a, b`` into ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``,
    so the doubles agree bit for bit.  (``numpy.random.RandomState(seed)``
    seeds differently for a one-word key and must not be used here.)
    """
    import numpy as np
    from numpy.random import Generator

    state = random.Random(seed).getstate()[1]
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    return Generator(bits).random(count)


def _find(parent: List[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merges(parent: List[int], us: List[int], vs: List[int], target: int) -> int:
    """Union every edge ``(us[k], vs[k])`` into ``parent``; return the merge
    count, stopping early once it reaches ``target``."""
    merged = 0
    for u, v in zip(us, vs):
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            merged += 1
            if merged == target:
                break
    return merged


def _sample_connected_gnp(
    n: int, p: float, rng: random.Random, max_tries: int
) -> Tuple[List[Tuple[int, int]], int, bool]:
    """The edge list :func:`random_connected_gnp` builds its graph from.

    Returns ``(edges, tries, fell_back)``: ``tries`` samples were drawn, and
    ``fell_back`` says whether none was connected and the last one was
    patched.  ``edges`` is in the order ``networkx.gnp_random_graph`` adds
    them — ``itertools.combinations(range(n), 2)`` order, which is what
    ``numpy.triu_indices(n, 1)`` enumerates — followed by any patch edges,
    so adding them to ``networkx.empty_graph(n)`` reproduces its adjacency
    order exactly.  Each try consumes one ``rng.randrange(2**32)`` as the
    networkx seed; ``p = 0`` and ``p = 1`` consume nothing else, as in
    networkx.  Rejected samples never become graph objects: too few edges
    or an untouched node rejects a sample before union-find runs.
    """
    import numpy as np
    from numpy.random import MT19937

    us, vs = np.triu_indices(n, 1)
    bits = MT19937(0)
    for tries in range(1, max_tries + 1):
        seed = rng.randrange(2**32)
        if p >= 1:
            a, b = us, vs
        elif p <= 0:
            a, b = us[:0], vs[:0]
        else:
            mask = _gnp_uniforms(bits, seed, len(us)) < p
            a, b = us[mask], vs[mask]
        if len(a) < n - 1:
            continue
        touched = np.zeros(n, dtype=bool)
        touched[a] = True
        touched[b] = True
        if touched.all() and _merges(list(range(n)), a.tolist(), b.tolist(), n - 1) == n - 1:
            return list(zip(a.tolist(), b.tolist())), tries, False
    a, b = a.tolist(), b.tolist()
    edges = list(zip(a, b))
    order = list(range(n))
    rng.shuffle(order)
    parent = list(range(n))
    _merges(parent, a, b, n - 1)
    for prev, cur in zip(order, order[1:]):
        rp, rc = _find(parent, prev), _find(parent, cur)
        if rp != rc:
            parent[rp] = rc
            edges.append((prev, cur))
    return edges, max_tries, True


def random_regular(
    n: int,
    degree: int,
    rng: Optional[random.Random] = None,
    port_order: str = "sorted",
    seed: Optional[int] = None,
) -> PortLabeledGraph:
    """Connected random ``degree``-regular graph on ``0..n-1``."""
    if degree * n % 2 != 0:
        raise GraphError("degree * n must be even")
    if degree >= n:
        raise GraphError("degree must be < n")
    rng = resolve_rng(rng, seed)
    for __ in range(200):
        g = nx.random_regular_graph(degree, n, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            return _finish(g, source=0, port_order=port_order, rng=rng)
    raise GraphError("could not sample a connected regular graph")


def lollipop_graph(clique: int, tail: int, source_in_clique: bool = True) -> PortLabeledGraph:
    """A ``clique``-clique with a ``tail``-node path attached.

    The classic worst case for sequential token traversal; with the source
    in the clique, flooding pays the clique before the tail hears anything.
    """
    if clique < 3 or tail < 1:
        raise GraphError("lollipop needs clique >= 3 and tail >= 1")
    g = nx.lollipop_graph(clique, tail)
    source = 0 if source_in_clique else clique + tail - 1
    return _finish(g, source=source)


def barbell_graph(bell: int, bridge: int) -> PortLabeledGraph:
    """Two ``bell``-cliques joined by a ``bridge``-node path; source in one bell."""
    if bell < 3 or bridge < 0:
        raise GraphError("barbell needs bell >= 3 and bridge >= 0")
    g = nx.barbell_graph(bell, bridge)
    return _finish(g, source=0)


def wheel_graph(n: int, center_source: bool = False) -> PortLabeledGraph:
    """Wheel on ``n`` nodes (hub 0 + cycle); source on the rim by default."""
    if n < 4:
        raise GraphError("wheel needs n >= 4")
    g = nx.wheel_graph(n)
    return _finish(g, source=0 if center_source else 1)


def caterpillar_graph(spine: int, legs_per_node: int) -> PortLabeledGraph:
    """A spine path with ``legs_per_node`` leaves hanging off every spine node."""
    if spine < 2 or legs_per_node < 0:
        raise GraphError("caterpillar needs spine >= 2 and legs >= 0")
    g = nx.Graph()
    g.add_nodes_from(range(spine))
    for a, b in zip(range(spine), range(1, spine)):
        g.add_edge(a, b)
    next_label = spine
    for s in range(spine):
        for __ in range(legs_per_node):
            g.add_node(next_label)
            g.add_edge(s, next_label)
            next_label += 1
    return _finish(g, source=0)


#: Named builders of ``n -> graph`` used by sweeps and benchmarks.  Random
#: families get a fixed seed derived from ``n`` (the historical values, so
#: sweeps stay byte-for-byte reproducible across versions).
FAMILY_BUILDERS = {
    "path": lambda n: path_graph(n),
    "cycle": lambda n: cycle_graph(max(3, n)),
    "star": lambda n: star_graph(n),
    "complete": lambda n: complete_graph_star(n),
    # The paper's name for the canonically port-labeled complete graph.
    "kstar": lambda n: complete_graph_star(n),
    "grid": lambda n: grid_graph(max(1, int(n**0.5)), max(1, (n + int(n**0.5) - 1) // max(1, int(n**0.5)))),
    "random_tree": lambda n: random_tree(n, seed=10_000 + n),
    "gnp_sparse": lambda n: random_connected_gnp(n, min(1.0, 3.0 / max(1, n - 1)), seed=20_000 + n),
    "gnp_dense": lambda n: random_connected_gnp(n, 0.5, seed=30_000 + n),
    "lollipop": lambda n: lollipop_graph(max(3, n // 2), max(1, n - max(3, n // 2))),
    "barbell": lambda n: barbell_graph(max(3, n // 2), max(0, n - 2 * max(3, n // 2))),
    "wheel": lambda n: wheel_graph(max(4, n)),
    "caterpillar": lambda n: caterpillar_graph(max(2, n // 4), 3),
}
