"""Implicit ``G_{n,S}`` programs: the Theorem 2.2 gadget at mega scale.

``G_{n,S}`` subdivides ``n`` edges of the complete graph ``K*_n`` — so it
has ``Θ(n²)`` edges, and at ``n = 10^5`` its CSR tables would need ~10¹⁰
slots.  No engine that *materializes* the graph can run it.  But the
tree-wakeup upper bound never touches most of that topology: the
spanning-tree oracle reads the graph only to run a BFS, and the scheme
then walks exactly the ``N - 1`` tree edges.  This module derives that
BFS tree *analytically* from ``(n, S)`` and emits a ``"ports"``-kind
:class:`~repro.vectorized.core.ReplicaProgram` — identical, node for
node and port for port, to what the explicit pipeline
(:func:`~repro.network.constructions.subdivision_family_graph` →
:class:`~repro.oracles.SpanningTreeWakeupOracle` →
:class:`~repro.algorithms.TreeWakeup`) produces, a correspondence pinned
by ``tests/test_engine_properties.py`` at explicit-feasible sizes.

The analytic shortcut rests on the gadget's port structure: at an
original node ``u`` of ``K*_n``, port ``p`` leads toward label
``((u + p) mod n) + 1`` — cyclic order starting at ``u + 1`` — whether or
not that slot was subdivided, and a hidden node ``w_i`` on edge
``{lo, hi}`` has port 0 to ``lo``, port 1 to ``hi``.  A BFS from the
source (node 1) has at most four levels: node 1, its ``K*_n``
neighbours and the hidden nodes on its S-edges, its S-neighbours, and
the remaining hidden nodes.  :func:`_gadget_tree` computes each level
with a few numpy passes over ``O(n + |S|)`` candidate edges, so the
whole tree — and the program built from it — costs
``O((n + |S|) log(n + |S|))`` for any ``S``, never ``Θ(n²)``.

:func:`sample_edge_tuple_sparse` replaces
:func:`~repro.network.constructions.sample_edge_tuple` above explicit
scale: the latter enumerates all ``Θ(n²)`` edges to sample ``n`` of them.
Rejection sampling draws the same uniform distribution over ordered
tuples of distinct edges but *not* the same sequence for a given seed —
cross-validation against the explicit path must share the edge tuple, not
the seed.

``tests/test_gadget_identity.py`` keeps the per-node Python loops these
functions replaced as their byte-identity oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from ..encoding import children_ports_code_length
from ..network.builders import copy_mt_state, resolve_rng
from ..network.graph import Edge, GraphError
from .core import ReplicaProgram, run_batch

__all__ = [
    "sample_edge_tuple_sparse",
    "gadget_spanning_program",
    "MegaGadgetRow",
    "mega_gadget_wakeup",
]

_I64 = np.int64


def sample_edge_tuple_sparse(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> List[Edge]:
    """``count`` distinct edges of ``K*_n``, uniform over ordered tuples.

    Same distribution as
    :func:`~repro.network.constructions.sample_edge_tuple`, but by
    rejection instead of enumerating all ``binom(n, 2)`` edges —
    ``O(count)`` expected draws when ``count = O(n)``.  Different draw
    sequence for a given seed than the dense sampler.

    The edges are those of the loop that draws
    ``u = rng.randrange(1, n + 1)``, then ``v`` the same way, skips
    ``u == v`` and repeated edges, and stops at ``count`` edges — replayed
    in numpy, with ``rng`` left in the state that loop would leave it in.
    ``randrange(1, n + 1)`` is ``1 + getrandbits(k)`` with
    ``k = n.bit_length()``, redrawn while ``>= n``, and for ``k <= 32``
    one ``getrandbits(k)`` is one 32-bit Mersenne Twister word shifted
    right by ``32 - k``; so ``n`` must be below ``2**32``.
    """
    m = n * (n - 1) // 2
    if count > m:
        raise GraphError(f"cannot pick {count} distinct edges from K*_{n}")
    own_rng = rng is None
    rng = resolve_rng(rng, seed)
    if count <= 0:
        return []
    k = n.bit_length()
    if k > 32:
        raise GraphError(f"sparse edge sampling needs n < 2**32, got {n}")
    from numpy.random import MT19937

    bits = MT19937(0)
    copy_mt_state(rng, bits)
    shift = np.uint64(32 - k)
    ends = np.empty(0, dtype=np.uint64)  # accepted randrange values, in order
    at = np.empty(0, dtype=np.intp)  # the word each one came from
    drawn = 0
    # Words enough for count pairs when count << m, with ~10% to spare.
    chunk = int(2.2 * count * (1 << k) / n) + 64
    while True:
        words = bits.random_raw(chunk) >> shift
        ok = np.flatnonzero(words < n)
        ends = np.concatenate([ends, words[ok] + 1])
        at = np.concatenate([at, ok + drawn])
        drawn += chunk
        pairs = ends.size // 2
        u, v = ends[0 : 2 * pairs : 2], ends[1 : 2 * pairs : 2]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        distinct = np.flatnonzero(u != v)
        first = _first_occurrences(lo[distinct] * (n + 1) + hi[distinct])
        if first.size >= count:
            picked = distinct[first[:count]]
            break
        chunk = drawn  # double the total and look again
    if not own_rng:
        # Advance the caller's rng past the word that completed the last
        # kept pair, exactly where the loop would have stopped.
        copy_mt_state(rng, bits)
        bits.random_raw(int(at[2 * picked[-1] + 1]) + 1, output=False)
        state = bits.state["state"]
        version, __, gauss_next = rng.getstate()
        rng.setstate((version, tuple(state["key"].tolist()) + (state["pos"],), gauss_next))
    return list(zip(lo[picked].tolist(), hi[picked].tolist()))


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Where each distinct value of ``keys`` first occurs, ascending."""
    if not keys.size:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    return np.sort(np.minimum.reduceat(order, starts))


def _csr_rows(start: np.ndarray, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR entries of ``nodes``: ``(entry index, index into nodes)`` per entry."""
    lens = start[nodes + 1] - start[nodes]
    owner = np.repeat(np.arange(nodes.size), lens)
    offset = start[nodes] - (np.cumsum(lens) - lens)
    return np.arange(owner.size) + offset[owner], owner


def _gadget_tree(n: int, edge_tuple) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS spanning tree of ``G_{n,S}`` as arrays ``(parent, pport, cport)``.

    Entry ``i`` of each describes the tree edge into label ``i + 1``: the
    parent's label, the port at the parent, the port at the child; the
    source's entry 0 is ``(0, -1, -1)``.  Original labels are ``1..n``;
    the hidden node on the ``i``-th edge of ``S`` is ``n + i``.

    Reproduces :func:`~repro.oracles.build_spanning_tree` (``kind="bfs"``)
    on the never-materialized gadget.  That BFS expands the frontier in
    discovery order, each node's neighbours in port order, and a node
    joins the tree under the first expansion that sees it.  Level by
    level this is a first-claim rule: every frontier node claims its
    undiscovered neighbours, each child goes to its claim first in
    ``(frontier position, port at parent)``, and the winners in that
    order are the next frontier.  Claims come from three sources:

    * a hidden node claims its two endpoints;
    * an original node claims the hidden nodes on its own S-edges, at
      the cyclic port the ``K*_n`` slot would have used;
    * an original node claims originals over intact edges.  Only one
      such claim per child ``j`` can win: the earliest original frontier
      node not S-adjacent to ``j``, which is among the first
      ``deg_S(j) + 1`` of them.  It is found as the first frontier slot
      not taken by an S-neighbour of ``j``, in ``O(deg_S(j))``.
    """
    count = len(edge_tuple)
    edges = np.fromiter(chain.from_iterable(edge_tuple), dtype=_I64).reshape(count, 2)
    N = n + count
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    if count and (lo.min() < 1 or hi.max() > n or (lo == hi).any()):
        raise GraphError(f"edges to subdivide must join two distinct nodes of 1..{n}")
    keys = np.sort(lo * (n + 1) + hi)
    if (keys[1:] == keys[:-1]).any():
        raise GraphError("edges to subdivide must be distinct")

    # S-adjacency of the originals as CSR: per label, (other end, hidden node).
    ends = np.concatenate([lo, hi])
    by_end = np.argsort(ends)
    s_other = np.concatenate([hi, lo])[by_end]
    s_hidden = np.tile(np.arange(n + 1, N + 1, dtype=_I64), 2)[by_end]
    s_start = np.zeros(n + 2, dtype=_I64)
    np.cumsum(np.bincount(ends, minlength=n + 1), out=s_start[1:])

    parent = np.zeros(N, dtype=_I64)
    pport = np.full(N, -1, dtype=_I64)
    cport = np.full(N, -1, dtype=_I64)
    seen = np.zeros(N + 1, dtype=bool)  # by label; slot 0 unused
    seen[1] = True
    slot = np.full(n + 1, -1, dtype=_I64)  # original label -> frontier slot
    rest = np.arange(2, n + 1, dtype=_I64)  # undiscovered originals
    frontier = np.ones(1, dtype=_I64)
    while frontier.size:
        pos = np.arange(frontier.size, dtype=_I64)
        is_orig = frontier <= n
        o_pos, o_lab = pos[is_orig], frontier[is_orig]
        h_pos, h_edge = pos[~is_orig], frontier[~is_orig] - (n + 1)

        # hidden -> endpoints: port 0 to lo, port 1 to hi
        a, b = lo[h_edge], hi[h_edge]
        claims = [(h_pos, np.zeros_like(h_pos), a, (b - a - 1) % n),
                  (h_pos, np.ones_like(h_pos), b, (a - b - 1) % n)]

        # original -> hidden nodes on its own S-edges
        entry, owner = _csr_rows(s_start, o_lab)
        u, v = o_lab[owner], s_other[entry]
        claims.append((o_pos[owner], (v - u - 1) % n, s_hidden[entry], (u > v).astype(_I64)))

        # original -> originals over intact edges: the S-neighbours of j
        # that are in the frontier take distinct slots; j goes to the
        # first free one, which is how many of them sit at their own rank.
        slot[o_lab] = np.arange(o_lab.size)
        entry, owner = _csr_rows(s_start, rest)
        taken = slot[s_other[entry]]
        slot[o_lab] = -1
        owner, taken = owner[taken >= 0], taken[taken >= 0]
        order = np.lexsort((taken, owner))
        owner, taken = owner[order], taken[order]
        lens = np.bincount(owner, minlength=rest.size)
        rank = np.arange(owner.size) - np.repeat(np.cumsum(lens) - lens, lens)
        free = np.bincount(owner[taken == rank], minlength=rest.size)
        j, free = rest[free < o_lab.size], free[free < o_lab.size]
        u = o_lab[free]
        claims.append((o_pos[free], (j - u - 1) % n, j, (u - j - 1) % n))

        c_pos, c_pport, c_child, c_cport = (np.concatenate(c) for c in zip(*claims))
        live = ~seen[c_child]
        c_pos, c_pport, c_child, c_cport = (
            c_pos[live], c_pport[live], c_child[live], c_cport[live]
        )
        # (position, port) is unique per claim: one neighbour per port
        order = np.argsort(c_pos * n + c_pport)
        win = order[_first_occurrences(c_child[order])]
        child = c_child[win]
        parent[child - 1] = frontier[c_pos[win]]
        pport[child - 1] = c_pport[win]
        cport[child - 1] = c_cport[win]
        seen[child] = True
        rest = rest[~seen[rest]]
        frontier = child
    if not seen[1:].all():
        raise GraphError("G_{n,S} came out disconnected; bad edge tuple")
    return parent, pport, cport


@lru_cache(maxsize=8)
def _repr_ranks(N: int) -> np.ndarray:
    """Ranks of the labels ``1..N`` in ``repr`` (decimal-string) order.

    The same ranks :class:`~repro.vectorized.program.VectorTopology`
    derives from an explicit graph's labels.  Padding a label with zeros
    to ``N``'s width keeps string order (``"0"`` is the least digit), and
    a label that is a padded prefix of another sorts first.  Read-only:
    one array serves every program of ``N`` nodes.
    """
    labels = np.arange(1, N + 1, dtype=_I64)
    width = len(str(N))
    digits = np.searchsorted(10 ** np.arange(width + 1, dtype=_I64), labels, side="right")
    order = np.lexsort((digits, labels * 10 ** (width - digits)))
    rank = np.empty(N, dtype=_I64)
    rank[order] = np.arange(N)
    rank.flags.writeable = False
    return rank


def gadget_spanning_program(
    n: int,
    edge_tuple,
    max_messages: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> Tuple[ReplicaProgram, int]:
    """The tree-wakeup run on ``G_{n,S}`` as a ``"ports"`` replica.

    Returns ``(program, oracle_bits)`` where ``oracle_bits`` is exactly
    what ``SpanningTreeWakeupOracle("bfs").predicted_size`` would report
    on the explicit graph — the same per-node
    :func:`~repro.encoding.children_ports_code_length` sum over the same
    BFS tree.
    """
    parent, pport, cport = _gadget_tree(n, edge_tuple)
    N = parent.size
    # Each node sends to its children in ascending port order: the order
    # children_port_map sorts them in and encode_children_ports decodes.
    order = np.argsort(parent[1:] * n + pport[1:])
    send_counts = np.bincount(parent[1:] - 1, minlength=N).astype(_I64)
    sizes, nodes = np.unique(send_counts, return_counts=True)
    oracle_bits = sum(
        int(k) * children_ports_code_length(int(size), N) for size, k in zip(sizes, nodes)
    )
    init_active = np.zeros(N, dtype=bool)
    init_active[0] = True  # node 1, the source, at dense index 0
    program = ReplicaProgram(
        num_nodes=N,
        kind="ports",
        rank=_repr_ranks(N),
        init_active=init_active,
        init_informed=init_active.copy(),
        max_messages=max_messages,
        max_steps=max_steps,
        send_counts=send_counts,
        send_dest=(order + 1).astype(_I64),
        send_aport=cport[1:][order],
    )
    return program, oracle_bits


@dataclass(frozen=True)
class MegaGadgetRow:
    """One mega-scale ``G_{n,S}`` tree-wakeup measurement.

    ``flooding_messages`` is the exact zero-advice cost ``2m - N + 1`` on
    the same graph — the ``Θ(n²)`` side of the Theorem 2.2 separation,
    computed analytically since nobody can afford to run it.
    """

    n: int
    seed: int
    gadget_nodes: int
    gadget_edges: int
    oracle_bits: int
    messages: int
    rounds: int
    success: bool
    flooding_messages: int

    @property
    def bits_per_node_log(self) -> float:
        """``oracle_bits / (N log2 N)`` — Theorem 2.1 predicts O(1)."""
        return self.oracle_bits / (self.gadget_nodes * math.log2(self.gadget_nodes))

    @property
    def messages_per_node(self) -> float:
        return self.messages / self.gadget_nodes


def _row_from_counters(n: int, seed: int, oracle_bits: int, rc) -> MegaGadgetRow:
    count = rc.informed_step.size - n
    N = n + count
    informed = int(np.count_nonzero(rc.informed_step >= 0)) + 1  # + the source
    m = n * (n - 1) // 2 + count
    return MegaGadgetRow(
        n=n,
        seed=seed,
        gadget_nodes=N,
        gadget_edges=m,
        oracle_bits=oracle_bits,
        messages=rc.messages_sent,
        rounds=rc.rounds,
        success=rc.completed and informed == N,
        flooding_messages=2 * m - N + 1,
    )


def mega_gadget_wakeup(n: int, seed: int = 0) -> MegaGadgetRow:
    """Tree wakeup on a random ``G_{n,S}`` without materializing it.

    Feasible to ``n = 10^6`` on one core: the graph is implicit, the tree
    is derived analytically, and the run is ``N - 1`` messages through
    the vectorized core.
    """
    edge_tuple = sample_edge_tuple_sparse(n, n, seed=seed)
    program, oracle_bits = gadget_spanning_program(n, edge_tuple)
    rc = run_batch([program])[0]
    return _row_from_counters(n, seed, oracle_bits, rc)
