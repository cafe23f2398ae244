"""Capacitated directed network substrate.

The paper models the datacenter fabric as a directed graph ``G = (V, E)``
with an edge capacity ``c(e)`` for every edge (Section 1.1).  This module
provides :class:`Network`, a validated directed graph over plain
insertion-ordered dicts (the adjacency order of :class:`networkx.DiGraph`,
without networkx) with the operations every algorithm in the repository
needs:

* capacity lookups and aggregate statistics,
* hop-count searches: shortest paths, breadth-first distances and
  *candidate path* enumeration (Yen's algorithm, in a compiled C core with a
  Python fallback, used by the column/path LP formulation of Section 2.2
  and by the heuristic routers),
* bottleneck ("thickest path") queries used by the flow-decomposition routine
  of Section 4.2,
* deterministic edge indexing so LP variables can be laid out in arrays.

Nodes may be arbitrary hashable objects (the fat-tree builder uses structured
string names such as ``"host_3"`` and ``"edge_1_0"``).
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import itertools
import operator
import threading
from array import array
from typing import (
    Any,
    Container,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..native import CompiledCore

__all__ = ["Network", "Edge", "CandidateSet", "path_edges"]

Node = Hashable
Edge = Tuple[Node, Node]


def path_edges(path: Sequence[Node]) -> List[Edge]:
    """Return the list of directed edges traversed by a node path."""
    if len(path) < 2:
        return []
    return list(zip(path[:-1], path[1:]))


class CandidateSet(NamedTuple):
    """One memoized candidate path set (see :meth:`Network.candidate_set`).

    Shared by every caller that asks for the same key, hence immutable.
    """

    #: Node paths in Yen's order (shortest first); never empty.
    paths: Tuple[Tuple[Node, ...], ...]
    #: Each path's edges as ids of :meth:`Network.edge_index`, aligned with
    #: ``paths``.
    edge_ids: Tuple[Tuple[int, ...], ...]


class _PathMemo:
    """The path facts of one topology, filled lazily.

    The network drops it on every edit and starts an empty one on the next
    query, so a fact is never served for a graph other than the one it was
    computed on.  It pickles with its network (engine workers receive one),
    minus :attr:`native`, which holds this process's memory addresses.
    """

    def __init__(self) -> None:
        self.edge_index: Optional[Dict[Edge, int]] = None
        self.capacity_vector: Optional[Tuple[float, ...]] = None
        #: ``(source, target, max_paths, stretch)`` -> candidate set.
        self.candidates: Dict[Tuple[Node, Node, int, int], CandidateSet] = {}
        #: Every candidate path's node tuple -> its edge ids, the tuples its
        #: candidate set holds (filled by :meth:`Network.candidate_set`).
        self.path_ids: Dict[Tuple[Node, ...], Tuple[int, ...]] = {}
        #: ``(source, target)`` -> widest-path bottleneck capacity.
        self.widest: Dict[Tuple[Node, Node], float] = {}
        #: The graph over integer node ids (ids follow node insertion
        #: order): labels by id, ids by label, and each id's successor and
        #: predecessor ids in the graph's adjacency (edge insertion) order.
        self.labels: Tuple[Node, ...] = ()
        self.ids: Optional[Dict[Node, int]] = None
        self.succ: Tuple[Tuple[int, ...], ...] = ()
        self.pred: Tuple[Tuple[int, ...], ...] = ()
        #: The same adjacency in CSR form for the path core: successor
        #: offsets and ids, the :meth:`Network.edge_index` id of each
        #: successor entry, then predecessor offsets and ids.
        self.csr: Tuple[array, ...] = ()
        #: The edge index's own int objects by id, then -1 for the unused
        #: last slot of each path the core writes.  Compiled candidate sets
        #: take their edge ids from here, so they share these objects as
        #: the Python port's (looked up in the edge index) do; the
        #: interpreter caches no int above 256.
        self.edge_ints: Tuple[int, ...] = ()
        #: The path core's view of :attr:`csr` in this process, built on the
        #: first compiled query: a ``_CGraph`` and its address.
        self.native: Optional[Tuple[ctypes.Structure, int]] = None

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["native"] = None
        return state

    def fill_ids(
        self,
        succ: Mapping[Node, Mapping[Node, float]],
        pred: Mapping[Node, Mapping[Node, float]],
        edge_index: Dict[Edge, int],
    ) -> Dict[Node, int]:
        """Number the nodes of the graph with adjacency ``succ``/``pred``
        (:class:`Network`'s dicts) and lay out that adjacency, once."""
        if self.ids is None:
            self.labels = tuple(succ)
            ids = {node: i for i, node in enumerate(self.labels)}
            self.succ = tuple(tuple(ids[w] for w in succ[v]) for v in self.labels)
            self.pred = tuple(tuple(ids[w] for w in pred[v]) for v in self.labels)
            self.csr = (
                array("i", itertools.accumulate(map(len, self.succ), initial=0)),
                array("i", itertools.chain.from_iterable(self.succ)),
                array("i", [edge_index[v, w] for v in self.labels for w in succ[v]]),
                array("i", itertools.accumulate(map(len, self.pred), initial=0)),
                array("i", itertools.chain.from_iterable(self.pred)),
            )
            self.edge_ints = (*edge_index.values(), -1)
            self.ids = ids
        return self.ids

    def native_graph(self) -> int:
        """Address of the path core's view of this topology (per process)."""
        if self.native is None:
            graph = _CGraph(len(self.labels), *(a.buffer_info()[0] for a in self.csr))
            self.native = (graph, ctypes.addressof(graph))
        return self.native[1]


def _bfs(
    adjacency: Mapping[Node, Mapping[Node, float]], source: Node
) -> Tuple[Dict[Node, List[Node]], Dict[Node, int]]:
    """Breadth-first search from ``source`` along ``adjacency``.

    A port of ``networkx.predecessor(G, source, return_seen=True)``: for
    every node reached, its neighbours one level closer to ``source`` in
    the order the search met them, and its hop distance.  ``adjacency`` is
    a network's successor dicts, or its predecessor dicts for distances
    *to* ``source``.
    """
    level = 0
    next_level = [source]
    seen = {source: level}
    pred: Dict[Node, List[Node]] = {source: []}
    while next_level:
        level += 1
        this_level, next_level = next_level, []
        for v in this_level:
            for w in adjacency[v]:
                if w not in seen:
                    pred[w] = [v]
                    seen[w] = level
                    next_level.append(w)
                elif seen[w] == level:
                    pred[w].append(v)
    return pred, seen


def _paths_from_predecessors(
    source: Node, target: Node, pred: Dict[Node, List[Node]]
) -> Iterator[List[Node]]:
    """Every ``source -> target`` path through the BFS predecessor lists of
    :func:`_bfs`, in the order of networkx's
    ``_build_paths_from_predecessors`` (a depth-first walk back from
    ``target``).  Raises ``ValueError`` when first advanced if ``target``
    was not reached."""
    if target not in pred:
        raise ValueError(f"no path from {source!r} to {target!r} in the network")
    seen = {target}
    stack = [[target, 0]]
    top = 0
    while top >= 0:
        node, i = stack[top]
        if node == source:
            yield [p for p, _ in reversed(stack[: top + 1])]
        if len(pred[node]) > i:
            stack[top][1] = i + 1
            parent = pred[node][i]
            if parent in seen:
                continue
            seen.add(parent)
            top += 1
            if top == len(stack):
                stack.append([parent, 0])
            else:
                stack[top][:] = [parent, 0]
        else:
            seen.discard(node)
            top -= 1


def _spur_path(
    succ: Sequence[Sequence[int]],
    pred: Sequence[Sequence[int]],
    source: int,
    target: int,
    blocked: bytearray,
    skip: Container[int],
    budget: int,
) -> Optional[Tuple[int, ...]]:
    """networkx's bidirectional BFS behind Yen's algorithm, over node ids.

    A port of ``networkx.algorithms.simple_paths._bidirectional_pred_succ``
    with the same expansion order, meet test and path rebuild, so ties
    between equal-length paths resolve exactly as networkx resolves them.
    The search ignores every node ``v`` with ``blocked[v]`` set and every
    edge ``source -> w`` with ``w`` in ``skip``.  It gives up (``None``)
    after ``budget`` level expansions: the two searches first meet at the
    expansion numbered with the shortest remaining hop count, so the path
    found always has exactly as many hops as expansions were made.
    """
    forward: Dict[int, Optional[int]] = {source: None}
    reverse: Dict[int, Optional[int]] = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if budget <= 0:
            return None
        budget -= 1
        if len(forward_fringe) <= len(reverse_fringe):
            level, forward_fringe = forward_fringe, []
            for v in level:
                for w in succ[v]:
                    if blocked[w] or (v == source and w in skip):
                        continue
                    if w not in forward:
                        forward_fringe.append(w)
                        forward[w] = v
                    if w in reverse:
                        return _join(forward, reverse, w)
        else:
            level, reverse_fringe = reverse_fringe, []
            for v in level:
                for w in pred[v]:
                    if blocked[w] or (w == source and v in skip):
                        continue
                    if w not in reverse:
                        reverse[w] = v
                        reverse_fringe.append(w)
                    if w in forward:
                        return _join(forward, reverse, w)
    return None


def _join(
    forward: Dict[int, Optional[int]], reverse: Dict[int, Optional[int]], meet: int
) -> Tuple[int, ...]:
    """The path source -> ``meet`` -> target through both BFS trees."""
    path: List[int] = []
    v = forward[meet]
    while v is not None:
        path.append(v)
        v = forward[v]
    path.reverse()
    v = meet
    while v is not None:
        path.append(v)
        v = reverse[v]
    return tuple(path)


def _yen_paths(
    memo: _PathMemo,
    source: int,
    target: int,
    max_paths: int,
    stretch: Optional[int],
) -> List[Tuple[int, ...]]:
    """The leading ``max_paths`` paths of networkx's Yen's algorithm that
    are at most ``stretch`` hops longer than the shortest, as node-id
    tuples, in its order (``stretch=None`` admits every simple path).

    A port of networkx's unweighted Yen's algorithm: the same first path
    (an unrestricted bidirectional search), the same spur roots, the same
    ignored nodes (the root's earlier nodes) and ignored edges (each
    accepted path's edge out of the root, for every accepted path that
    shares the root; networkx also keeps the edges of earlier roots, but
    those leave ignored nodes and change nothing), and the same
    ``(cost, counter, path)`` heap, costed in nodes as networkx costs it,
    with duplicate paths dropped.  One addition: with ``max_hops`` the
    first path's hop count plus ``stretch``, a spur search from a root of
    ``i`` nodes stops after ``max_hops - (i - 1)`` expansions, so a path
    longer than ``max_hops`` is never pushed.  Such a path would pop after
    every shorter one anyway, skipping a push keeps the counter monotone,
    and the search ends when the heap runs dry.  Returns ``[]`` when
    ``target`` is unreachable.
    """
    if source == target:
        return [(source,)]
    succ, pred = memo.succ, memo.pred
    blocked = bytearray(len(succ))
    first = _spur_path(succ, pred, source, target, blocked, (), len(succ) - 1)
    if first is None:
        return []
    max_hops = len(succ) - 1 if stretch is None else len(first) - 1 + stretch
    heap = [(len(first), 0, first)]
    queued = {first}
    counter = 1
    accepted: List[Tuple[int, ...]] = []
    while heap:
        path = heapq.heappop(heap)[2]
        queued.remove(path)
        accepted.append(path)
        if len(accepted) == max_paths:
            break
        for i in range(1, len(path)):
            root = path[:i]
            skip = {p[i] for p in accepted if p[:i] == root}
            spur = _spur_path(
                succ, pred, path[i - 1], target, blocked, skip, max_hops - (i - 1)
            )
            if spur is not None:
                found = root[:-1] + spur
                if found not in queued:
                    heapq.heappush(heap, (i + len(spur), counter, found))
                    counter += 1
                    queued.add(found)
            blocked[path[i - 1]] = 1
        for v in path:
            blocked[v] = 0
    return accepted


_YEN_C_SOURCE = r"""
/* Yen's k shortest loopless paths over integer node ids, lowered to C99.
 *
 * A statement-for-statement port of _spur_path and _yen_paths in
 * repro/core/network.py, so its paths and their order are the Python
 * port's (and networkx's).  No global state: scratch memory is allocated
 * per call and freed on every return path, and output goes to buffers the
 * caller owns.
 */
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef unsigned long long u64;

/* The graph in CSR form, built once per topology by _PathMemo.fill_ids. */
typedef struct {
    int n;
    const int *succ_off;   /* n + 1 offsets into succ */
    const int *succ;       /* successor ids, in adjacency order */
    const int *succ_edge;  /* edge_index() id of each successor entry */
    const int *pred_off;   /* n + 1 offsets into pred */
    const int *pred;       /* predecessor ids, in adjacency order */
} yen_graph_t;

/* The accepted paths, in caller-owned buffers of `capacity` slots each. */
typedef struct {
    int *nodes;    /* the paths' node ids, back to back */
    int *edges;    /* at the slot of v_j: the id of edge v_j -> v_{j+1};
                      -1 at each path's last slot */
    i64 *ends;     /* ends[j]: the slot after path j */
    i64 capacity;
    i64 used;      /* out: slots written, or needed after YEN_NO_SPACE */
} yen_out_t;

#define YEN_NO_MEMORY (-1)
#define YEN_NO_SPACE (-2)

#define ABSENT (-1) /* not in a BFS tree: memset(0xff) */
#define ROOT (-2)   /* a tree's root, None in the Python port */
#define EMPTY (-1)  /* hash-table slots */
#define TOMB (-2)

typedef struct {
    i64 cost, counter, at; /* at: the path's record in the arena */
} entry_t;

typedef struct {
    int *forward, *reverse; /* BFS tree parents: the two dicts */
    int *fq, *rq;           /* tree nodes in insertion order */
    int *spur, *found;
    unsigned char *blocked, *skip;
    int *arena;             /* queued paths as [len, v_0, ...] records */
    i64 arena_len, arena_cap;
    entry_t *heap;          /* min-heap on (cost, counter) */
    i64 heap_len, heap_cap;
    i64 *table;             /* `queued`: arena offsets, open addressing */
    i64 table_cap, table_live, table_tombs;
} scratch_t;

/* _spur_path: networkx's bidirectional BFS under the ignore sets (blocked
 * nodes; edges source -> w with skip[w]), giving up after budget level
 * expansions.  Writes the path to s->spur and returns its node count, or
 * 0 for None.  Leaves forward and reverse all ABSENT again. */
static int spur_path(const yen_graph_t *g, scratch_t *s, int source,
                     int target, i64 budget) {
    int *forward = s->forward, *reverse = s->reverse;
    int *fq = s->fq, *rq = s->rq;
    const unsigned char *blocked = s->blocked, *skip = s->skip;
    int f_lo = 0, f_hi = 1, r_lo = 0, r_hi = 1, meet = -1, len = 0;
    forward[source] = ROOT;
    fq[0] = source;
    reverse[target] = ROOT;
    rq[0] = target;
    while (meet < 0 && f_lo < f_hi && r_lo < r_hi) {
        if (budget <= 0) break;
        budget -= 1;
        if (f_hi - f_lo <= r_hi - r_lo) {
            int level_end = f_hi;
            for (int a = f_lo; a < level_end && meet < 0; a++) {
                int v = fq[a];
                for (int p = g->succ_off[v]; p < g->succ_off[v + 1]; p++) {
                    int w = g->succ[p];
                    if (blocked[w] || (v == source && skip[w])) continue;
                    if (forward[w] == ABSENT) {
                        fq[f_hi++] = w;
                        forward[w] = v;
                    }
                    if (reverse[w] != ABSENT) {
                        meet = w;
                        break;
                    }
                }
            }
            f_lo = level_end;
        } else {
            int level_end = r_hi;
            for (int a = r_lo; a < level_end && meet < 0; a++) {
                int v = rq[a];
                for (int p = g->pred_off[v]; p < g->pred_off[v + 1]; p++) {
                    int w = g->pred[p];
                    if (blocked[w] || (w == source && skip[v])) continue;
                    if (reverse[w] == ABSENT) {
                        reverse[w] = v;
                        rq[r_hi++] = w;
                    }
                    if (forward[w] != ABSENT) {
                        meet = w;
                        break;
                    }
                }
            }
            r_lo = level_end;
        }
    }
    if (meet >= 0) { /* _join */
        for (int v = forward[meet]; v != ROOT; v = forward[v]) s->spur[len++] = v;
        for (int a = 0, b = len - 1; a < b; a++, b--) {
            int t = s->spur[a];
            s->spur[a] = s->spur[b];
            s->spur[b] = t;
        }
        for (int v = meet; v != ROOT; v = reverse[v]) s->spur[len++] = v;
    }
    for (int a = 0; a < f_hi; a++) forward[fq[a]] = ABSENT;
    for (int a = 0; a < r_hi; a++) reverse[rq[a]] = ABSENT;
    return len;
}

static u64 hash_path(const int *path, int len) {
    u64 h = 1469598103934665603ULL; /* FNV-1a */
    for (int j = 0; j < len; j++) {
        h ^= (u64)(unsigned int)path[j];
        h *= 1099511628211ULL;
    }
    return h;
}

/* The slot holding `path` in the table, or the EMPTY slot ending its probe
 * sequence. */
static i64 table_slot(const scratch_t *s, const int *path, int len) {
    i64 mask = s->table_cap - 1;
    for (i64 i = (i64)(hash_path(path, len) & (u64)mask);; i = (i + 1) & mask) {
        i64 at = s->table[i];
        if (at == EMPTY) return i;
        if (at != TOMB && s->arena[at] == len &&
            memcmp(s->arena + at + 1, path, (size_t)len * sizeof(int)) == 0)
            return i;
    }
}

/* Re-insert every live entry into a table of `cap` slots. */
static int table_resize(scratch_t *s, i64 cap) {
    i64 *old = s->table, old_cap = s->table_cap;
    i64 *table = malloc((size_t)cap * sizeof(i64));
    if (!table) return 0;
    for (i64 i = 0; i < cap; i++) table[i] = EMPTY;
    s->table = table;
    s->table_cap = cap;
    s->table_tombs = 0;
    for (i64 i = 0; i < old_cap; i++) {
        i64 at = old[i];
        if (at >= 0) {
            i64 mask = cap - 1, j = (i64)(hash_path(s->arena + at + 1, s->arena[at]) & (u64)mask);
            while (table[j] != EMPTY) j = (j + 1) & mask;
            table[j] = at;
        }
    }
    free(old);
    return 1;
}

static int heap_less(const entry_t *a, const entry_t *b) {
    return a->cost < b->cost || (a->cost == b->cost && a->counter < b->counter);
}

/* heapq.heappush(heap, (cost, counter, found)) and queued.add(found). */
static int push(scratch_t *s, i64 cost, i64 counter, const int *path, int len, i64 slot) {
    if (s->arena_len + len + 1 > s->arena_cap) {
        i64 cap = 2 * s->arena_cap;
        while (cap < s->arena_len + len + 1) cap *= 2;
        int *arena = realloc(s->arena, (size_t)cap * sizeof(int));
        if (!arena) return 0;
        s->arena = arena;
        s->arena_cap = cap;
    }
    i64 at = s->arena_len;
    s->arena[at] = len;
    memcpy(s->arena + at + 1, path, (size_t)len * sizeof(int));
    s->arena_len += len + 1;
    s->table[slot] = at;
    s->table_live++;
    if (2 * (s->table_live + s->table_tombs) > s->table_cap &&
        !table_resize(s, 4 * s->table_live > s->table_cap ? 2 * s->table_cap : s->table_cap))
        return 0;
    if (s->heap_len == s->heap_cap) {
        entry_t *heap = realloc(s->heap, (size_t)(2 * s->heap_cap) * sizeof(entry_t));
        if (!heap) return 0;
        s->heap = heap;
        s->heap_cap *= 2;
    }
    entry_t e = {cost, counter, at};
    i64 i = s->heap_len++;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (!heap_less(&e, &s->heap[parent])) break;
        s->heap[i] = s->heap[parent];
        i = parent;
    }
    s->heap[i] = e;
    return 1;
}

/* heapq.heappop(heap) and queued.remove(path): the popped record's arena
 * offset. */
static i64 pop(scratch_t *s) {
    i64 at = s->heap[0].at;
    entry_t last = s->heap[--s->heap_len];
    i64 i = 0, n = s->heap_len;
    while (n > 0) {
        i64 child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && heap_less(&s->heap[child + 1], &s->heap[child])) child++;
        if (!heap_less(&s->heap[child], &last)) break;
        s->heap[i] = s->heap[child];
        i = child;
    }
    if (n > 0) s->heap[i] = last;
    s->table[table_slot(s, s->arena + at + 1, s->arena[at])] = TOMB;
    s->table_live--;
    s->table_tombs++;
    return at;
}

/* accepted.append(path) as the output's path number `index`, with its
 * edge ids. */
static int accept(const yen_graph_t *g, yen_out_t *out, i64 index,
                  const int *path, int len) {
    i64 at = out->used;
    if (at + len > out->capacity) {
        out->used = at + len;
        return 0;
    }
    for (int j = 0; j < len; j++) {
        int u = path[j];
        out->nodes[at + j] = u;
        out->edges[at + j] = -1;
        if (j + 1 < len) {
            int p = g->succ_off[u];
            while (g->succ[p] != path[j + 1]) p++;
            out->edges[at + j] = g->succ_edge[p];
        }
    }
    out->used = at + len;
    out->ends[index] = out->used;
    return 1;
}

/* _yen_paths after its source == target case, on initialised scratch. */
static i64 yen(const yen_graph_t *g, scratch_t *s, int source, int target,
               i64 max_paths, i64 stretch, yen_out_t *out) {
    int n = g->n;
    int first = spur_path(g, s, source, target, n - 1);
    if (first == 0) return 0;
    i64 max_hops = stretch < 0 ? n - 1 : (i64)(first - 1) + stretch;
    if (!push(s, first, 0, s->spur, first, table_slot(s, s->spur, first)))
        return YEN_NO_MEMORY;
    i64 counter = 1, accepted = 0;
    while (s->heap_len > 0) {
        i64 at = pop(s);
        int len = s->arena[at];
        const int *path = out->nodes + out->used;
        if (!accept(g, out, accepted, s->arena + at + 1, len)) return YEN_NO_SPACE;
        accepted++;
        if (accepted == max_paths) break;
        for (int i = 1; i < len; i++) {
            /* skip = {p[i] for p in accepted if p[:i] == root} */
            for (i64 q = 0, start = 0; q < accepted; start = out->ends[q++]) {
                const int *p = out->nodes + start;
                if (out->ends[q] - start > i &&
                    memcmp(p, path, (size_t)i * sizeof(int)) == 0)
                    s->skip[p[i]] = 1;
            }
            int spur = spur_path(g, s, path[i - 1], target, max_hops - (i - 1));
            for (i64 q = 0, start = 0; q < accepted; start = out->ends[q++])
                if (out->ends[q] - start > i) s->skip[out->nodes[start + i]] = 0;
            if (spur > 0) {
                /* found = root[:-1] + spur */
                int found = i - 1 + spur;
                memcpy(s->found, path, (size_t)(i - 1) * sizeof(int));
                memcpy(s->found + i - 1, s->spur, (size_t)spur * sizeof(int));
                i64 slot = table_slot(s, s->found, found);
                if (s->table[slot] == EMPTY) {
                    if (!push(s, i + spur, counter, s->found, found, slot))
                        return YEN_NO_MEMORY;
                    counter += 1;
                }
            }
            s->blocked[path[i - 1]] = 1;
        }
        for (int j = 0; j < len; j++) s->blocked[path[j]] = 0;
    }
    return accepted;
}

/* The leading max_paths paths of Yen's order within `stretch` hops of the
 * shortest (stretch < 0: every simple path).  Returns their count (0 when
 * target is unreachable), YEN_NO_MEMORY, or YEN_NO_SPACE when the output
 * buffers are too small; out->used then says how many slots the next
 * path needed, and a call with larger buffers starts over. */
i64 repro_yen(const yen_graph_t *g, int source, int target, i64 max_paths,
              i64 stretch, yen_out_t *out) {
    out->used = 0;
    if (source == target) {
        int path[1] = {source};
        return accept(g, out, 0, path, 1) ? 1 : YEN_NO_SPACE;
    }
    int n = g->n;
    scratch_t s;
    memset(&s, 0, sizeof s);
    char *block = malloc((size_t)n * (6 * sizeof(int) + 2));
    s.arena_cap = 256;
    s.heap_cap = 64;
    s.table_cap = 64;
    s.arena = malloc((size_t)s.arena_cap * sizeof(int));
    s.heap = malloc((size_t)s.heap_cap * sizeof(entry_t));
    s.table = malloc((size_t)s.table_cap * sizeof(i64));
    i64 status = YEN_NO_MEMORY;
    if (block && s.arena && s.heap && s.table) {
        s.forward = (int *)block;
        s.reverse = s.forward + n;
        s.fq = s.reverse + n;
        s.rq = s.fq + n;
        s.spur = s.rq + n;
        s.found = s.spur + n;
        s.blocked = (unsigned char *)(s.found + n);
        s.skip = s.blocked + n;
        memset(s.forward, 0xff, 2 * (size_t)n * sizeof(int));
        memset(s.blocked, 0, 2 * (size_t)n);
        for (i64 i = 0; i < s.table_cap; i++) s.table[i] = EMPTY;
        status = yen(g, &s, source, target, max_paths, stretch, out);
    }
    free(block);
    free(s.arena);
    free(s.heap);
    free(s.table);
    return status;
}
"""

#: Statuses of ``repro_yen`` besides a path count.
_NO_MEMORY = -1
_NO_SPACE = -2
#: Output slots the first compiled query reserves (grown on demand).
_FIRST_SLOTS = 1024


class _CGraph(ctypes.Structure):
    """``yen_graph_t``: a :class:`_PathMemo`'s CSR arrays by address."""

    _fields_ = [
        ("n", ctypes.c_int),
        ("succ_off", ctypes.c_void_p),
        ("succ", ctypes.c_void_p),
        ("succ_edge", ctypes.c_void_p),
        ("pred_off", ctypes.c_void_p),
        ("pred", ctypes.c_void_p),
    ]


class _COut(ctypes.Structure):
    """``yen_out_t``: the output buffers of one process."""

    _fields_ = [
        ("nodes", ctypes.c_void_p),
        ("edges", ctypes.c_void_p),
        ("ends", ctypes.c_void_p),
        ("capacity", ctypes.c_longlong),
        ("used", ctypes.c_longlong),
    ]


def _declare(lib: ctypes.CDLL) -> None:
    """Argument and result types of ``repro_yen``."""
    fn = lib.repro_yen
    fn.restype = ctypes.c_longlong
    fn.argtypes = [
        ctypes.c_void_p,  # graph
        ctypes.c_int,  # source
        ctypes.c_int,  # target
        ctypes.c_longlong,  # max_paths
        ctypes.c_longlong,  # stretch (< 0: None)
        ctypes.c_void_p,  # out
    ]


#: The path core, built through the package's shared loader on the first
#: query and cached as ``repro_paths_<digest>.so``.
PATH_CORE = CompiledCore("repro_paths", "path core", _YEN_C_SOURCE, _declare)
#: Values clamped into the core's 64-bit arguments; no graph in memory has
#: that many paths or hops, so the clamp changes no answer.
_MAX_ARGUMENT = 1 << 62


class _CompiledYen:
    """The loaded path core with this process's output buffers."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._fn = lib.repro_yen
        self._out = _COut()
        self._out_address = ctypes.addressof(self._out)
        # One set of buffers per process: a query holds the lock from the
        # call until its paths are copied out.
        self._lock = threading.Lock()
        self.reserve(_FIRST_SLOTS)

    def reserve(self, slots: int) -> None:
        """Replace the output buffers with ``slots``-slot ones."""
        self._nodes = array("i", [0]) * slots
        self._edges = array("i", [0]) * slots
        self._ends = array("q", [0]) * slots
        self._out.nodes = self._nodes.buffer_info()[0]
        self._out.edges = self._edges.buffer_info()[0]
        self._out.ends = self._ends.buffer_info()[0]
        self._out.capacity = slots

    @property
    def slots(self) -> int:
        """Slots in each output buffer."""
        return self._out.capacity

    def __call__(
        self,
        memo: _PathMemo,
        source: int,
        target: int,
        max_paths: int,
        stretch: Optional[int],
    ) -> CandidateSet:
        """:func:`_yen_paths`, labelled, with each path's edge ids."""
        graph = memo.native_graph()
        max_paths = min(max_paths, _MAX_ARGUMENT)
        stretch = -1 if stretch is None else min(stretch, _MAX_ARGUMENT)
        out = self._out
        with self._lock:
            while True:
                count = self._fn(
                    graph, source, target, max_paths, stretch, self._out_address
                )
                if count != _NO_SPACE:
                    break
                self.reserve(max(2 * out.capacity, out.used))
            if count == _NO_MEMORY:
                raise MemoryError("the path core could not allocate its scratch")
            used = out.used
            labels, ints = memo.labels, memo.edge_ints
            nodes = tuple([labels[v] for v in self._nodes[:used]])
            edges = tuple([ints[e] for e in self._edges[:used]])
            ends = self._ends[:count]
        paths = []
        edge_ids = []
        start = 0
        for end in ends:
            paths.append(nodes[start:end])
            edge_ids.append(edges[start : end - 1])
            start = end
        return CandidateSet(tuple(paths), tuple(edge_ids))


_compiled: Optional[_CompiledYen] = None


def _compiled_port() -> Optional[_CompiledYen]:
    """The compiled Yen's port, loaded on first use; ``None`` without a C
    compiler (the Python port runs instead)."""
    global _compiled
    if _compiled is None:
        lib = PATH_CORE.load()
        if lib is not None:
            _compiled = _CompiledYen(lib)
    return _compiled


class Network:
    """A directed, capacitated network.

    The graph lives in three plain dicts, in the orders
    :class:`networkx.DiGraph` gives the same sequence of :meth:`add_node`
    and :meth:`add_edge` calls: nodes in first-seen order (``add_node``, or
    ``u`` then ``v`` in ``add_edge``), each node's successors and
    predecessors in the order their edges were first added, and re-adding
    an edge updates its capacity in place.  :meth:`edges` and
    :meth:`capacities` walk the nodes, then each node's successors.  Yen's
    tie-breaking, and with it every route, follows these orders (DESIGN.md
    §5), and :meth:`copy` and :meth:`scaled_capacities` replay the edges in
    insertion order so that a copy routes as the original does.

    A topology is fixed for a whole sweep or stream, so its path facts
    (edge index, capacity vector, the integer-id adjacency behind Yen's
    algorithm, candidate sets and the edge ids of their paths, widest-path
    bottlenecks) are memoized on first use and dropped by :meth:`add_node`
    and :meth:`add_edge`; build and edit the topology through those
    methods only.  Yen's algorithm runs in a compiled C core (built once
    per machine with the system compiler, on the first query) or, without
    a compiler, in the Python port it was lowered from; both give
    networkx's paths in networkx's order.  A network pickles with its memo, minus the C core's addresses,
    which each process rebuilds.

    Parameters
    ----------
    graph:
        Optional graph to copy: any object with ``.nodes`` and
        ``.edges(data=True)``, such as a :class:`networkx.DiGraph`.  Nodes
        are added in ``.nodes`` order, then edges in ``.edges`` order, with
        capacities read from the ``"capacity"`` edge attribute (missing
        attributes default to ``default_capacity``).
    default_capacity:
        Capacity assigned to edges added without an explicit capacity.
    """

    def __init__(self, graph: Optional[Any] = None, default_capacity: float = 1.0) -> None:
        if default_capacity <= 0:
            raise ValueError("default capacity must be positive")
        self.default_capacity = float(default_capacity)
        #: ``_succ[u][v]`` and ``_pred[v][u]``: the capacity of ``u -> v``.
        self._succ: Dict[Node, Dict[Node, float]] = {}
        self._pred: Dict[Node, Dict[Node, float]] = {}
        #: Every edge's capacity, in edge insertion order.
        self._capacity: Dict[Edge, float] = {}
        self._memo: Optional[_PathMemo] = None
        if graph is not None:
            for node in graph.nodes:
                self.add_node(node)
            for u, v, data in graph.edges(data=True):
                cap = float(data.get("capacity", default_capacity))
                self.add_edge(u, v, capacity=cap)

    # ------------------------------------------------------------------ build
    def add_node(self, node: Node) -> None:
        """Add an isolated node."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
        self._memo = None

    def add_edge(self, u: Node, v: Node, capacity: Optional[float] = None) -> None:
        """Add the directed edge ``u -> v`` with the given capacity (a
        second call for the same edge replaces its capacity)."""
        if u == v:
            raise ValueError(f"self-loop edges are not allowed: {u!r}")
        cap = self.default_capacity if capacity is None else float(capacity)
        if cap <= 0:
            raise ValueError(f"edge capacity must be positive, got {cap}")
        self.add_node(u)
        self.add_node(v)
        self._succ[u][v] = cap
        self._pred[v][u] = cap
        self._capacity[u, v] = cap
        self._memo = None

    def add_bidirectional_edge(
        self, u: Node, v: Node, capacity: Optional[float] = None
    ) -> None:
        """Add both ``u -> v`` and ``v -> u`` with the same capacity."""
        self.add_edge(u, v, capacity=capacity)
        self.add_edge(v, u, capacity=capacity)

    def _facts(self) -> _PathMemo:
        """The path memo of the current graph, started on the first query."""
        if self._memo is None:
            self._memo = _PathMemo()
        return self._memo

    # -------------------------------------------------------------- accessors
    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        return len(self._capacity)

    def nodes(self) -> List[Node]:
        return list(self._succ)

    def edges(self) -> List[Edge]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def has_edge(self, u: Node, v: Node) -> bool:
        return (u, v) in self._capacity

    def capacity(self, u: Node, v: Node) -> float:
        """Capacity of the directed edge ``u -> v``."""
        try:
            return self._capacity[u, v]
        except KeyError as exc:
            raise KeyError(f"edge {(u, v)!r} is not in the network") from exc

    def capacities(self) -> Dict[Edge, float]:
        """Map every edge to its capacity."""
        return {
            (u, v): cap for u, succ in self._succ.items() for v, cap in succ.items()
        }

    def min_capacity(self) -> float:
        """Smallest edge capacity in the network."""
        if not self._capacity:
            raise ValueError("network has no edges")
        return min(self._capacity.values())

    def out_edges(self, node: Node) -> List[Edge]:
        return [(node, v) for v in self._succ.get(node, ())]

    def in_edges(self, node: Node) -> List[Edge]:
        return [(u, node) for u in self._pred.get(node, ())]

    def incident_edges(self, node: Node) -> List[Edge]:
        """All edges touching ``node`` (in either direction)."""
        return self.in_edges(node) + self.out_edges(node)

    def edge_index(self) -> Dict[Edge, int]:
        """Deterministic ``edge -> column index`` mapping for LP layouts."""
        memo = self._facts()
        if memo.edge_index is None:
            memo.edge_index = {
                e: i for i, e in enumerate(sorted(self.edges(), key=repr))
            }
        return memo.edge_index

    def capacity_vector(self) -> Tuple[float, ...]:
        """Edge capacities indexed by the ids of :meth:`edge_index`."""
        memo = self._facts()
        if memo.capacity_vector is None:
            capacity = self._capacity
            memo.capacity_vector = tuple(capacity[e] for e in self.edge_index())
        return memo.capacity_vector

    # ------------------------------------------------------------------ paths
    def shortest_path(self, source: Node, target: Node) -> List[Node]:
        """An unweighted (hop-count) shortest path from source to target.

        networkx's ``shortest_path`` is a bidirectional BFS, the same
        search that gives Yen's first path, so this is the memoized
        one-path candidate set: the path ``nx.shortest_path`` returns.
        """
        return list(self.candidate_set(source, target, 1, 0).paths[0])

    def shortest_path_length(self, source: Node, target: Node) -> int:
        """Number of hops on a shortest path from source to target."""
        return len(self.shortest_path(source, target)) - 1

    def hop_distances(self, node: Node, reverse: bool = False) -> Dict[Node, int]:
        """Hop count from ``node`` to every node it reaches, or with
        ``reverse`` from every node that reaches it to ``node`` (a BFS
        along the edges, or against them)."""
        if node not in self._succ:
            raise ValueError(f"node {node!r} is not in the network")
        return _bfs(self._pred if reverse else self._succ, node)[1]

    def all_shortest_paths(
        self, source: Node, target: Node, limit: Optional[int] = None
    ) -> List[List[Node]]:
        """All hop-count shortest paths between two nodes, in the order of
        ``nx.all_shortest_paths``.

        ``limit`` truncates the enumeration (the fat-tree has at most
        ``(k/2)^2`` equal-cost paths, so the default unlimited enumeration is
        safe for the topologies shipped here, but arbitrary graphs may have
        exponentially many shortest paths).
        """
        if source not in self._succ:
            raise ValueError(f"no path from {source!r} to {target!r} in the network")
        pred, _ = _bfs(self._succ, source)
        return list(itertools.islice(_paths_from_predecessors(source, target, pred), limit))

    def k_shortest_paths(self, source: Node, target: Node, k: int) -> List[List[Node]]:
        """The ``k`` shortest simple paths (by hop count) in Yen's order, as
        networkx's Yen's algorithm yields them (the enumeration behind
        :meth:`candidate_set`, with no hop budget)."""
        if k <= 0:
            raise ValueError("k must be positive")
        return [list(path) for path in self._yen(source, target, k).paths]

    def candidate_paths(
        self,
        source: Node,
        target: Node,
        max_paths: int = 16,
        stretch: int = 0,
    ) -> List[List[Node]]:
        """Candidate path set used by the path-based LP formulation.

        Returns up to ``max_paths`` simple paths whose length is within
        ``stretch`` hops of the shortest path, in Yen's order (shortest
        first), exactly as networkx's Yen's algorithm yields them.  With
        ``stretch=0`` this is the set of equal-cost shortest paths (ECMP
        set), which on a fat-tree is exactly the set the paper's flow
        decomposition ends up using.  The lists are fresh copies of the
        memoized :meth:`candidate_set`, so callers may mutate them.
        """
        found = self.candidate_set(source, target, max_paths, stretch)
        return [list(path) for path in found.paths]

    def candidate_set(
        self,
        source: Node,
        target: Node,
        max_paths: int = 16,
        stretch: int = 0,
    ) -> CandidateSet:
        """The memoized candidate set behind :meth:`candidate_paths`.

        Yen's algorithm runs once per ``(source, target, max_paths,
        stretch)`` for the life of the topology and returns networkx's
        paths in networkx's order.  It runs in the compiled path core, a C
        port of the integer-id Python port :func:`_yen_paths`, which runs
        instead wherever no C compiler is available; the spur searches of
        both stop at the ``stretch`` hop budget instead of enumerating
        longer paths.  Later calls return the same immutable
        :class:`CandidateSet`, with each path's edge ids precomputed for
        load arrays indexed like :meth:`capacity_vector`.  Raises
        ``ValueError`` for ``max_paths < 1``, ``stretch < 0`` or an
        unreachable target.
        """
        if max_paths < 1:
            raise ValueError(f"max_paths must be at least 1, got {max_paths!r}")
        if stretch < 0:
            raise ValueError(f"stretch must be non-negative, got {stretch!r}")
        key = (source, target, max_paths, stretch)
        memo = self._facts()
        found = memo.candidates.get(key)
        if found is None:
            found = memo.candidates[key] = self._yen(source, target, max_paths, stretch)
            memo.path_ids.update(zip(found.paths, found.edge_ids))
        return found

    def path_edge_ids(self, path: Sequence[Node]) -> Tuple[int, ...]:
        """The :meth:`edge_index` ids of ``path``'s edges, in path order.

        A candidate path (of any :meth:`candidate_set` asked for so far) is
        answered with the edge ids its candidate set holds.  Any other path
        is checked edge by edge first, raising :meth:`validate_path`'s
        ``ValueError`` for a path of fewer than two nodes or one that uses
        a missing edge, so a lookup is also a validation.
        """
        nodes = path if type(path) is tuple else tuple(path)
        memo = self._facts()
        ids = memo.path_ids.get(nodes)
        if ids is None:
            self.validate_path(nodes)
            index = self.edge_index()
            ids = tuple([index[edge] for edge in zip(nodes, nodes[1:])])
        return ids

    def _yen(
        self,
        source: Node,
        target: Node,
        max_paths: int,
        stretch: Optional[int] = None,
    ) -> CandidateSet:
        """The leading ``max_paths`` paths of Yen's order with their edge ids.

        Only paths within ``stretch`` hops of the shortest are enumerated;
        ``None`` admits every simple path (at most ``num_nodes - 1`` hops).
        The compiled port runs when the path core loads, the Python port
        otherwise; both return the same paths in the same order.  Both
        counts must be integers (``TypeError`` otherwise).
        """
        max_paths = operator.index(max_paths)
        stretch = None if stretch is None else operator.index(stretch)
        memo = self._facts()
        index = self.edge_index()
        ids = memo.fill_ids(self._succ, self._pred, index)
        s, t = ids.get(source), ids.get(target)
        found = None
        if s is not None and t is not None:
            compiled = _compiled_port()
            if compiled is not None:
                found = compiled(memo, s, t, max_paths, stretch)
            else:
                labels = memo.labels
                paths = tuple(
                    tuple(labels[v] for v in path)
                    for path in _yen_paths(memo, s, t, max_paths, stretch)
                )
                edge_ids = tuple(
                    tuple(index[edge] for edge in zip(path, path[1:])) for path in paths
                )
                found = CandidateSet(paths, edge_ids)
        if found is None or not found.paths:
            raise ValueError(f"no path from {source!r} to {target!r} in the network")
        return found

    def bottleneck_capacity(self, path: Sequence[Node]) -> float:
        """Minimum edge capacity along a path (``c_m`` in Lemma 2)."""
        edges = path_edges(path)
        if not edges:
            raise ValueError("path must contain at least one edge")
        return min(self.capacity(u, v) for u, v in edges)

    def widest_path(self, source: Node, target: Node) -> List[Node]:
        """Maximum-bottleneck ("thickest") path from source to target.

        This is the Dijkstra variant referenced in Section 4.2 of the paper:
        it maximises the minimum residual capacity along the path and is the
        path-selection rule inside the flow-decomposition routine.
        """
        if not self.has_node(source) or not self.has_node(target):
            raise ValueError("source or target not in network")
        # Max-bottleneck Dijkstra: negate widths so heapq's min-heap pops the
        # widest frontier node first.
        best_width: Dict[Node, float] = {source: float("inf")}
        parent: Dict[Node, Node] = {}
        heap: List[Tuple[float, int, Node]] = [(-float("inf"), 0, source)]
        counter = 1
        visited = set()
        while heap:
            neg_width, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == target:
                break
            width = -neg_width
            for nxt, cap in self._succ[node].items():
                if nxt in visited:
                    continue
                cand = min(width, cap)
                if cand > best_width.get(nxt, 0.0):
                    best_width[nxt] = cand
                    parent[nxt] = node
                    heapq.heappush(heap, (-cand, counter, nxt))
                    counter += 1
        if target not in best_width:
            raise ValueError(f"no path from {source!r} to {target!r} in the network")
        # Reconstruct.
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def widest_bottleneck(self, source: Node, target: Node) -> float:
        """Bottleneck capacity of :meth:`widest_path`, memoized per pair.

        Flows share a handful of endpoint pairs, and the widest-path search
        is the most expensive part of every transfer lower bound (and of the
        LP builders' transfer-strengthening rows).
        """
        key = (source, target)
        widest = self._facts().widest
        bottleneck = widest.get(key)
        if bottleneck is None:
            bottleneck = self.bottleneck_capacity(self.widest_path(source, target))
            widest[key] = bottleneck
        return bottleneck

    # -------------------------------------------------------------- utilities
    def validate_path(self, path: Sequence[Node]) -> None:
        """Raise ``ValueError`` unless every consecutive pair is an edge."""
        if len(path) < 2:
            raise ValueError("path must contain at least two nodes")
        for u, v in path_edges(path):
            if not self.has_edge(u, v):
                raise ValueError(f"path uses missing edge {(u, v)!r}")

    def fingerprint(self) -> str:
        """Stable content digest of the topology (nodes, edges, capacities).

        Two :class:`Network` objects with the same node set and the same
        capacitated edge set produce the same fingerprint regardless of
        insertion order.  The experiment engine's run store uses this to key
        cached results by topology.
        """
        names = {node: repr(node) for node in self._succ}
        edges: List[Tuple[str, str]] = []
        for u, neighbours in self._succ.items():
            ru = names[u]
            for v, cap in neighbours.items():
                rv = names[v]
                # Keyed by ``repr((u, v))``, spelled from the node reprs.
                line = f"{ru}->{rv}:{cap!r}"
                edges.append((f"({ru}, {rv})", line))
        edges.sort(key=operator.itemgetter(0))
        lines = sorted(names.values()) + [line for _key, line in edges]
        digest = hashlib.sha256("".join(f"{line}\0" for line in lines).encode())
        return digest.hexdigest()[:16]

    def copy(self) -> "Network":
        """Deep copy of the network (it routes as this one does)."""
        return self.scaled_capacities(1.0)

    def scaled_capacities(self, factor: float) -> "Network":
        """Return a copy with every capacity multiplied by ``factor``.

        The copy adds the nodes, then the edges, in this network's
        insertion order, so every node's successors and predecessors keep
        their order, and with them Yen's tie-breaking.
        """
        if factor <= 0:
            raise ValueError("capacity scale factor must be positive")
        net = Network(default_capacity=self.default_capacity * factor)
        for node in self._succ:
            net.add_node(node)
        for (u, v), cap in self._capacity.items():
            net.add_edge(u, v, capacity=cap * factor)
        return net

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(nodes={self.num_nodes}, edges={self.num_edges})"
