"""Byte-identity of the fast graph builders against their networkx originals.

``random_connected_gnp`` replays networkx's rejection sampler in numpy,
``complete_graph_star`` fills its port maps directly, and
``compile_topology`` reads the port maps without method calls.  Each test
here rebuilds the same graph the original way — networkx stays the test
oracle — and demands the same node order, the same insertion order of both
port dicts, the same source, the same compiled arrays and, for the random
builders, the same RNG state afterwards.
"""

import random
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import CompiledTopology, compile_topology
from repro.network import (
    FAMILY_BUILDERS,
    PortLabeledGraph,
    clique_family_graph,
    complete_graph_star,
    random_connected_gnp,
    sample_edge_tuple,
    subdivision_family_graph,
)
from repro.network.builders import _sample_connected_gnp

#: ``gnp_sparse`` sizes the ``default`` verdict profile builds (E1/E3/E4 at
#: 16..256, E7/E9/E14 at 64, E10-E13 at 8..64) plus the ``full`` profile's 512.
GNP_SPARSE_SIZES = (8, 16, 32, 64, 128, 256, 512)
#: ``gnp_dense`` appears only in E1/E3/E4: 16..256, and 512 in ``full``.
GNP_DENSE_SIZES = (16, 32, 64, 128, 256, 512)


def sparse_params(n):
    return min(1.0, 3.0 / max(1, n - 1)), 20_000 + n


def dense_params(n):
    return 0.5, 30_000 + n


def reference_gnp(n, p, rng, port_order="sorted", max_tries=200):
    """The networkx rejection sampler ``random_connected_gnp`` replaces."""
    g = None
    for __ in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            break
    else:
        order = list(g.nodes())
        rng.shuffle(order)
        for prev, cur in zip(order, order[1:]):
            if not nx.has_path(g, prev, cur):
                g.add_edge(prev, cur)
    out = PortLabeledGraph.from_networkx(g, source=0, port_order=port_order, rng=rng)
    return out.freeze()


def reference_kstar(n):
    """``K*_n`` edge by edge, as the builder used to make it."""
    g = PortLabeledGraph()
    for i in range(1, n + 1):
        g.add_node(i)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g.add_edge(i, j, port_u=(j - i - 1) % n, port_v=(i - j - 1) % n)
    g.set_source(1)
    return g.freeze()


def reference_compile(graph):
    """``compile_topology`` through the public per-slot accessors."""
    labels = tuple(graph.nodes())
    index = {label: i for i, label in enumerate(labels)}
    degrees = array("l", (graph.degree(v) for v in labels))
    offsets = array("l", [0])
    neighbor_at = array("l")
    arrival_at = array("l")
    for v in labels:
        offsets.append(offsets[-1] + graph.degree(v))
        for p in range(graph.degree(v)):
            u = graph.neighbor_via(v, p)
            neighbor_at.append(index[u])
            arrival_at.append(graph.port(u, v))
    source_index = index[graph.source] if graph.has_source else -1
    reprs = tuple(repr(v) for v in labels)
    return CompiledTopology(
        labels, index, reprs, degrees, offsets, neighbor_at, arrival_at, source_index
    )


def topology_fingerprint(topo):
    return (
        topo.labels,
        topo.index,
        topo.reprs,
        topo.degrees,
        topo.offsets,
        topo.neighbor_at,
        topo.arrival_at,
        topo.source_index,
    )


def fingerprint(graph):
    """Everything observable about a frozen graph, insertion orders included."""
    return (
        [(v, list(ports.items())) for v, ports in graph._port_to_neighbor.items()],
        [(v, list(nbrs.items())) for v, nbrs in graph._neighbor_to_port.items()],
        graph.source,
        topology_fingerprint(graph._compiled),
    )


def assert_gnp_identical(n, p, seed, port_order="sorted", max_tries=200):
    ours_rng, ref_rng = random.Random(seed), random.Random(seed)
    ours = random_connected_gnp(n, p, ours_rng, port_order=port_order, max_tries=max_tries)
    ref = reference_gnp(n, p, ref_rng, port_order=port_order, max_tries=max_tries)
    assert fingerprint(ours) == fingerprint(ref)
    assert ours_rng.getstate() == ref_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 80),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    port_order=st.sampled_from(["sorted", "random"]),
    max_tries=st.integers(1, 8),
)
def test_gnp_replays_networkx(n, p, seed, port_order, max_tries):
    assert_gnp_identical(n, p, seed, port_order, max_tries)


@pytest.mark.parametrize("n", GNP_SPARSE_SIZES)
def test_gnp_sparse_profile_sizes_replay_networkx(n):
    p, seed = sparse_params(n)
    assert_gnp_identical(n, p, seed)
    assert fingerprint(FAMILY_BUILDERS["gnp_sparse"](n)) == fingerprint(
        random_connected_gnp(n, p, seed=seed)
    )


@pytest.mark.parametrize("n", GNP_DENSE_SIZES)
def test_gnp_dense_profile_sizes_replay_networkx(n):
    p, seed = dense_params(n)
    assert_gnp_identical(n, p, seed)
    assert fingerprint(FAMILY_BUILDERS["gnp_dense"](n)) == fingerprint(
        random_connected_gnp(n, p, seed=seed)
    )


# ``gnp_sparse`` samples at p = 3/(n-1), below the connectivity threshold:
# from n = 256 on every one of the 200 tries is disconnected, and the graph
# is the patched last sample rather than a connected G(n, p) draw.
GNP_SPARSE_TRIES = {8: 1, 16: 4, 32: 5, 64: 39, 128: 76, 256: 200, 512: 200}


@pytest.mark.parametrize("n", GNP_SPARSE_SIZES)
def test_gnp_sparse_fallback_is_pinned(n):
    p, seed = sparse_params(n)
    __, tries, fell_back = _sample_connected_gnp(n, p, random.Random(seed), 200)
    assert tries == GNP_SPARSE_TRIES[n]
    assert fell_back is (n >= 256)


@pytest.mark.parametrize("n", (2, 3, 7, 64, 256))
def test_kstar_matches_edge_by_edge_build(n):
    assert fingerprint(complete_graph_star(n)) == fingerprint(reference_kstar(n))


CONSTRUCTIONS = {
    "G_nS": lambda: subdivision_family_graph(16, sample_edge_tuple(16, 16, seed=3)),
    "G_nk": lambda: clique_family_graph(16, 4, seed=9)[0],
}


@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("n", (5, 16, 37))
def test_compile_matches_accessor_walk_on_families(family, n):
    graph = FAMILY_BUILDERS[family](n)
    assert topology_fingerprint(compile_topology(graph)) == topology_fingerprint(
        reference_compile(graph)
    )


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_compile_matches_accessor_walk_on_constructions(name):
    graph = CONSTRUCTIONS[name]()
    assert topology_fingerprint(compile_topology(graph)) == topology_fingerprint(
        reference_compile(graph)
    )
