"""Byte-identity of the numpy gadget builders against their per-node originals.

``sample_edge_tuple_sparse`` replays ``random.Random.randrange`` from raw
Mersenne Twister words, ``_gadget_tree`` runs the BFS one level at a time
over arrays, and ``gadget_spanning_program`` assembles the send tables in
bulk.  The per-node Python loops they replace are kept below, verbatim
apart from their names, as the test oracle: each test demands the same
edge tuples, the same RNG state afterwards, the same tree, the same
program arrays, the same ``oracle_bits`` and the same ``GraphError``.
"""

import random
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import children_ports_code_length
from repro.network.builders import resolve_rng
from repro.network.graph import Edge, GraphError
from repro.vectorized.core import ReplicaProgram
from repro.vectorized.gadgets import (
    _gadget_tree,
    gadget_spanning_program,
    sample_edge_tuple_sparse,
)

_I64 = np.int64

#: The ``full`` verdict profile's E15 sizes up to 20,000; the 50,000 and
#: 100,000 points are pinned by the benchmark digests instead.
FULL_SIZES = (2000, 5000, 10000, 20000)


# ----------------------------------------------------------------------
# The oracle: the per-node loops, as they were
# ----------------------------------------------------------------------
def reference_sample_edge_tuple_sparse(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> List[Edge]:
    m = n * (n - 1) // 2
    if count > m:
        raise GraphError(f"cannot pick {count} distinct edges from K*_{n}")
    rng = resolve_rng(rng, seed)
    seen = set()
    out: List[Edge] = []
    while len(out) < count:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            continue
        seen.add(edge)
        out.append(edge)
    return out


def reference_gadget_tree(n: int, edge_tuple) -> Dict[int, Tuple[int, int, int]]:
    skey: Dict[Tuple[int, int], int] = {}
    w_edge: Dict[int, Tuple[int, int]] = {}
    s_adj: Dict[int, List[Tuple[int, int]]] = {}
    for i, (u, v) in enumerate(edge_tuple, start=1):
        lo, hi = (u, v) if u < v else (v, u)
        if (lo, hi) in skey:
            raise GraphError("edges to subdivide must be distinct")
        w = n + i
        skey[(lo, hi)] = w
        w_edge[w] = (lo, hi)
        s_adj.setdefault(lo, []).append((hi, w))
        s_adj.setdefault(hi, []).append((lo, w))

    undisc_orig = set(range(2, n + 1))
    undisc_w = set(w_edge)
    links: Dict[int, Tuple[int, int, int]] = {}
    frontier = [1]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            if u <= n:
                # An original node: candidates are the undiscovered
                # originals reachable through intact edges, plus the
                # undiscovered hidden nodes on its own S-edges — each at
                # the cyclic port the K*_n slot would have used.
                cand: List[Tuple[int, int, int]] = []
                for j in sorted(undisc_orig):
                    edge = (u, j) if u < j else (j, u)
                    if edge in skey:
                        continue
                    cand.append(((j - u - 1) % n, j, (u - j - 1) % n))
                for v, w in s_adj.get(u, ()):
                    if w in undisc_w:
                        cand.append(((v - u - 1) % n, w, 0 if u < v else 1))
                cand.sort()
                for pport, x, cport in cand:
                    if x <= n:
                        undisc_orig.discard(x)
                    else:
                        undisc_w.discard(x)
                    links[x] = (u, pport, cport)
                    nxt.append(x)
            else:
                lo, hi = w_edge[u]
                for pport, x, other in ((0, lo, hi), (1, hi, lo)):
                    if x in undisc_orig:
                        undisc_orig.discard(x)
                        links[x] = (u, pport, (other - x - 1) % n)
                        nxt.append(x)
        frontier = nxt
        # Rebuild to a right-sized table: a set emptied by discard keeps
        # its old capacity, and iterating it per expansion above would
        # scan every stale slot — turning the O(n) sweep quadratic.
        undisc_orig = set(undisc_orig)
    if undisc_orig or undisc_w:
        raise GraphError("G_{n,S} came out disconnected; bad edge tuple")
    return links


def reference_gadget_spanning_program(
    n: int,
    edge_tuple,
    max_messages: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> Tuple[ReplicaProgram, int]:
    count = len(edge_tuple)
    N = n + count
    links = reference_gadget_tree(n, edge_tuple)
    children: Dict[int, List[Tuple[int, int, int]]] = {}
    for child, (par, pport, cport) in links.items():
        children.setdefault(par, []).append((pport, child, cport))

    send_counts = np.zeros(N, dtype=_I64)
    dest: List[int] = []
    aport: List[int] = []
    oracle_bits = 0
    for idx in range(N):
        # children_port_map sorts ports ascending, which is also the
        # decode order of encode_children_ports — so the send list below
        # is the order the scheme would emit.
        ch = sorted(children.get(idx + 1, ()))
        send_counts[idx] = len(ch)
        oracle_bits += children_ports_code_length(len(ch), N)
        for _pport, child, cport in ch:
            dest.append(child - 1)
            aport.append(cport)

    # repr ranks of the integer labels 1..N (decimal-string order), the
    # same ranks VectorTopology would derive from the explicit graph.
    rank = np.unique(np.arange(1, N + 1).astype(str), return_inverse=True)[1].astype(
        _I64
    )
    init_active = np.zeros(N, dtype=bool)
    init_active[0] = True  # node 1, the source, at dense index 0
    program = ReplicaProgram(
        num_nodes=N,
        kind="ports",
        rank=rank,
        init_active=init_active,
        init_informed=init_active.copy(),
        max_messages=max_messages,
        max_steps=max_steps,
        send_counts=send_counts,
        send_dest=np.array(dest, dtype=_I64),
        send_aport=np.array(aport, dtype=_I64),
    )
    return program, oracle_bits


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def tree_links(n, edge_tuple):
    """``_gadget_tree``'s arrays, read back as the oracle's dict."""
    parent, pport, cport = _gadget_tree(n, edge_tuple)
    return {
        i + 1: (int(parent[i]), int(pport[i]), int(cport[i]))
        for i in range(1, len(parent))
    }


ARRAY_FIELDS = (
    "rank", "init_active", "init_informed", "send_counts", "send_dest", "send_aport",
)


def assert_same_program(n, edge_tuple, **limits):
    expected, expected_bits = reference_gadget_spanning_program(n, edge_tuple, **limits)
    program, bits = gadget_spanning_program(n, edge_tuple, **limits)
    assert bits == expected_bits
    assert type(bits) is int
    for field in ("num_nodes", "kind", "max_messages", "max_steps"):
        assert getattr(program, field) == getattr(expected, field), field
    for field in ARRAY_FIELDS:
        got, want = getattr(program, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def assert_same_gadget(n, edge_tuple):
    assert tree_links(n, edge_tuple) == reference_gadget_tree(n, edge_tuple)
    assert_same_program(n, edge_tuple)


def assert_same_sample(n, count, seed):
    """Same tuple, by ``seed=`` and by ``rng=``, and the same RNG state after."""
    ref_rng, rng = random.Random(seed), random.Random(seed)
    expected = reference_sample_edge_tuple_sparse(n, count, rng=ref_rng)
    got = sample_edge_tuple_sparse(n, count, rng=rng)
    assert got == expected
    assert all(type(x) is int for edge in got for x in edge)
    assert rng.getstate() == ref_rng.getstate()
    assert rng.random() == ref_rng.random()
    assert sample_edge_tuple_sparse(n, count, seed=seed) == expected
    return expected


def oriented(edge_tuple, flip_seed):
    """``edge_tuple`` with each edge's endpoints swapped at random."""
    flips = random.Random(flip_seed)
    return [(v, u) if flips.random() < 0.5 else (u, v) for u, v in edge_tuple]


# ----------------------------------------------------------------------
# Property: random gadgets, every count from empty to all of K_n
# ----------------------------------------------------------------------
@st.composite
def gadget_cases(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    count = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    flip_seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, count, seed, flip_seed


@settings(max_examples=150, deadline=None)
@given(gadget_cases())
def test_random_gadgets_match_the_loops(case):
    n, count, seed, flip_seed = case
    edge_tuple = oriented(assert_same_sample(n, count, seed), flip_seed)
    assert_same_gadget(n, edge_tuple)


@settings(max_examples=50, deadline=None)
@given(gadget_cases(), st.data())
def test_bad_edge_tuples_raise_the_same_error(case, data):
    n, count, seed, flip_seed = case
    edge_tuple = oriented(reference_sample_edge_tuple_sparse(n, max(count, 1), seed=seed), flip_seed)
    u, v = data.draw(st.sampled_from(edge_tuple))
    at = data.draw(st.integers(min_value=0, max_value=len(edge_tuple)))
    bad = edge_tuple[:at] + [data.draw(st.sampled_from([(u, v), (v, u)]))] + edge_tuple[at:]
    for fn in (reference_gadget_tree, _gadget_tree, gadget_spanning_program):
        with pytest.raises(GraphError, match="edges to subdivide must be distinct"):
            fn(n, bad)


def test_a_hidden_node_off_the_graph_is_an_error():
    # Both endpoints outside 1..n: the oracle's BFS never reaches the
    # hidden node and reports a disconnected gadget.
    bad = [(1, 2), (0, 9)]
    with pytest.raises(GraphError, match="disconnected"):
        reference_gadget_tree(4, bad)
    for fn in (_gadget_tree, gadget_spanning_program):
        with pytest.raises(GraphError):
            fn(4, bad)


@pytest.mark.parametrize("bad", [[(2, 2)], [(1, 2), (3, 5)], [(0, 3)]])
def test_edges_off_k_n_are_refused(bad):
    # The loops accepted these and built a tree with ports K*_4 lacks.
    for fn in (_gadget_tree, gadget_spanning_program):
        with pytest.raises(GraphError, match="two distinct nodes of 1..4"):
            fn(4, bad)


def test_sampling_past_one_word_per_draw_is_refused():
    with pytest.raises(GraphError, match="n < 2\\*\\*32"):
        sample_edge_tuple_sparse(2**32, 1, seed=0)
    assert len(sample_edge_tuple_sparse(2**32 - 1, 3, seed=0)) == 3


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_too_many_edges_is_the_same_error(n):
    count = n * (n - 1) // 2 + 1
    with pytest.raises(GraphError) as expected:
        reference_sample_edge_tuple_sparse(n, count, seed=0)
    with pytest.raises(GraphError) as got:
        sample_edge_tuple_sparse(n, count, seed=0)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_empty_and_negative_counts_draw_nothing(n):
    for count in (0, -3):
        rng = random.Random(5)
        before = rng.getstate()
        assert sample_edge_tuple_sparse(n, count, rng=rng) == []
        assert rng.getstate() == before


def test_the_rng_keeps_its_gauss_cache():
    ref_rng, rng = random.Random(3), random.Random(3)
    ref_rng.gauss(0, 1)
    rng.gauss(0, 1)
    assert sample_edge_tuple_sparse(40, 300, rng=rng) == reference_sample_edge_tuple_sparse(
        40, 300, rng=ref_rng
    )
    assert rng.getstate() == ref_rng.getstate()
    assert rng.gauss(0, 1) == ref_rng.gauss(0, 1)


# ----------------------------------------------------------------------
# Pinned adversarial shapes
# ----------------------------------------------------------------------
ADVERSARIAL_SIZES = (2, 3, 4, 7, 16, 33)


@pytest.mark.parametrize("n", ADVERSARIAL_SIZES)
@pytest.mark.parametrize("flip_seed", [0, 1])
def test_every_source_edge_subdivided(n, flip_seed):
    assert_same_gadget(n, oriented([(1, j) for j in range(2, n + 1)], flip_seed))


@pytest.mark.parametrize("n", ADVERSARIAL_SIZES)
@pytest.mark.parametrize("flip_seed", [0, 1])
def test_half_the_source_edges_subdivided(n, flip_seed):
    assert_same_gadget(n, oriented([(1, j) for j in range(2, n + 1, 2)], flip_seed))


@pytest.mark.parametrize("n", [3, 4, 7, 16])
def test_edge_between_two_source_neighbours(n):
    assert_same_gadget(n, [(1, 2), (1, 3), (2, 3)])
    assert_same_gadget(n, [(3, 2), (2, 1), (3, 1)])
    # ... plus a second level that must route around the subdivisions
    if n >= 4:
        assert_same_gadget(n, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)])


@pytest.mark.parametrize("n", (1,) + ADVERSARIAL_SIZES)
def test_no_edges_is_plain_kstar(n):
    assert_same_gadget(n, [])


@pytest.mark.parametrize("n", ADVERSARIAL_SIZES)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_edge_subdivided(n, seed):
    edge_tuple = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    random.Random(seed).shuffle(edge_tuple)
    assert_same_gadget(n, oriented(edge_tuple, seed))
    assert_same_sample(n, len(edge_tuple), seed)


def test_star_of_subdivisions_away_from_the_source():
    # Node 2 has every edge subdivided, so it is reached only through
    # hidden nodes, two levels below its K*_n siblings.
    n = 9
    assert_same_gadget(n, [(2, j) for j in range(1, n + 1) if j != 2])


def test_limits_pass_through():
    edge_tuple = sample_edge_tuple_sparse(12, 12, seed=4)
    assert_same_program(12, edge_tuple, max_messages=7, max_steps=3)


# ----------------------------------------------------------------------
# The E15 grid, up to 20,000
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", FULL_SIZES)
def test_full_profile_grid(n):
    for seed in (0, 1, 2):
        edge_tuple = assert_same_sample(n, n, seed)
        assert_same_gadget(n, edge_tuple)


def test_full_profile_sizes_match_the_verdict_profile():
    from repro.verdict.criteria import PROFILES

    sizes = PROFILES["full"]["E15"]["n_values"]
    assert tuple(s for s in sizes if s <= 20000) == FULL_SIZES
