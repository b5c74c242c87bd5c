"""Block-triangular normal form of the transient transition matrix and the
graph invariants it rests on: strongly connected components and block
periods.

The normal form orders the strongly connected components so that the permuted
matrix is lower block triangular: block i can only reach blocks j <= i.  The
order is canonical (deterministic for a fixed input): a block is placed as
soon as every block it points to is placed, and ties are broken by the
smallest original state index it contains.  Within a block, states keep their
input order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .model import SubstochasticModel


@dataclass(frozen=True)
class FrobeniusForm:
    """Permutation of the chain to lower block-triangular form.

    perm[p] is the 0-based original index of the state at normal-form
    position p, so permuted_Q = Q[perm][:, perm].  index_sets are 0-based
    ranges into the normal-form order.
    """

    perm: Tuple[int, ...]
    k: int
    block_sizes: Tuple[int, ...]
    index_sets: Tuple[range, ...]
    diag_blocks: Tuple[np.ndarray, ...]
    sub_blocks: Dict[Tuple[int, int], np.ndarray]
    permuted_Q: np.ndarray


def _strongly_connected_components(adj: List[List[int]]) -> List[List[int]]:
    """Tarjan's algorithm, iterative.  Returns components as sorted vertex
    lists, in reverse topological order of the condensation (sources last)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            # the edge loop keeps low[v] in a local and compares with `<`:
            # a call to min() per edge visit was most of its time
            low_v = low[v]
            succ = adj[v]
            advanced = False
            for i in range(pi, len(succ)):
                w = succ[i]
                index_w = index[w]
                if index_w == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if index_w < low_v and on_stack[w]:
                    low_v = index_w
            low[v] = low_v
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low_v < low[parent]:
                    low[parent] = low_v
            if low_v == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def _successor_lists(Q: np.ndarray) -> Tuple[List[List[int]], np.ndarray, np.ndarray]:
    """The digraph of Q: the successors of each state in increasing order,
    and the (rows, cols) of its exactly nonzero entries in row-major order."""
    rows, cols = np.nonzero(Q)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=Q.shape[0])))).tolist()
    flat = cols.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])], rows, cols


def condense(model: SubstochasticModel) -> FrobeniusForm:
    """Compute the canonical lower block-triangular form of model.Q.

    Blocks are the strongly connected components of the digraph of Q; the
    off-diagonal block (i, j) is recorded in sub_blocks iff some entry is
    exactly nonzero in the input (structural test, no tolerance).
    """
    Q = model.Q
    d = model.d
    adj, rows, cols = _successor_lists(Q)
    comps = _strongly_connected_components(adj)
    k = len(comps)
    comp_of = np.empty(d, dtype=np.intp)
    for c, comp in enumerate(comps):
        comp_of[comp] = c

    # condensation edges c -> c' when some state of c points into c'
    src, dst = comp_of[rows], comp_of[cols]
    cross = src != dst
    edges = [divmod(e, k) for e in set((src[cross] * k + dst[cross]).tolist())]
    unplaced_succ = [0] * k
    pred: List[List[int]] = [[] for _ in range(k)]
    for c, c2 in edges:
        unplaced_succ[c] += 1
        pred[c2].append(c)

    # canonical order: place a block once everything it points to is placed,
    # tie-broken by smallest original state index
    ready = [(comps[c][0], c) for c in range(k) if unplaced_succ[c] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for p in pred[c]:
            unplaced_succ[p] -= 1
            if unplaced_succ[p] == 0:
                heapq.heappush(ready, (comps[p][0], p))

    perm: List[int] = []
    block_sizes: List[int] = []
    for c in order:
        perm.extend(comps[c])
        block_sizes.append(len(comps[c]))
    permuted_Q = Q[np.ix_(perm, perm)]

    index_sets = []
    start = 0
    for size in block_sizes:
        index_sets.append(range(start, start + size))
        start += size
    diag_blocks = tuple(permuted_Q[np.ix_(r, r)] for r in index_sets)
    # block (i, j) in normal-form numbering for every condensation edge,
    # in sorted key order
    position = [0] * k
    for i, c in enumerate(order, start=1):
        position[c] = i
    keys = sorted((position[c], position[c2]) for c, c2 in edges)
    sub_blocks: Dict[Tuple[int, int], np.ndarray] = {
        (i, j): permuted_Q[np.ix_(index_sets[i - 1], index_sets[j - 1])] for i, j in keys
    }

    return FrobeniusForm(
        perm=tuple(perm),
        k=k,
        block_sizes=tuple(block_sizes),
        index_sets=tuple(index_sets),
        diag_blocks=diag_blocks,
        sub_blocks=sub_blocks,
        permuted_Q=permuted_Q,
    )


def block_period(block: np.ndarray) -> int:
    """Period of an irreducible block: gcd of (level(u) + 1 - level(v)) over
    all edges (u, v) of a BFS layering from vertex 0."""
    n = block.shape[0]
    if n == 1:
        return 1
    A = block != 0.0
    level = np.full(n, -1)
    level[0] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = A[frontier].any(axis=0) & (level == -1)
        level[frontier] = depth
    rows, cols = np.nonzero(A)
    return int(np.gcd.reduce(level[rows] + 1 - level[cols]))
