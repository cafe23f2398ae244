"""Flow decomposition into paths (Section 2.2 rounding, step "FlowDecomposition").

The LP for circuit coflows without given paths produces, for every connection
request, a fractional single-commodity flow from its source to its sink.  The
rounding step decomposes that flow into a set of source-sink paths carrying
positive value — the classical flow-decomposition theorem (Ahuja, Magnanti &
Orlin).  As in the paper's implementation (Section 4.2), paths are extracted
*thickest first*: each iteration finds the maximum-bottleneck path in the
remaining flow support using the widest-path variant of Dijkstra's algorithm,
peels off its bottleneck value, and repeats.  Cycles carrying flow (which can
appear in LP optima without affecting deliverable volume) are cancelled first.

The module is deliberately independent of the LP code: it operates on a plain
``{edge: value}`` mapping, which also makes it easy to property-test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = ["PathFlow", "FlowDecomposition", "decompose_flow", "flow_value"]

Node = Hashable
Edge = Tuple[Node, Node]

#: Flow smaller than this is treated as numerical noise and dropped.
FLOW_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PathFlow:
    """One decomposed path and the amount of flow it carries."""

    path: Tuple[Node, ...]
    value: float

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("a path flow needs at least two nodes")
        if self.value <= 0:
            raise ValueError("path flow value must be positive")

    @property
    def edges(self) -> List[Edge]:
        return list(zip(self.path[:-1], self.path[1:]))

    @property
    def length(self) -> int:
        """Number of hops."""
        return len(self.path) - 1


@dataclass
class FlowDecomposition:
    """The result of decomposing a single-commodity flow."""

    source: Node
    sink: Node
    paths: List[PathFlow]
    #: flow remaining on edges after extraction (cycles / numerical residue)
    residual: Dict[Edge, float]

    @property
    def total_value(self) -> float:
        """Total source-to-sink flow carried by the extracted paths."""
        return float(sum(p.value for p in self.paths))

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def edge_loads(self) -> Dict[Edge, float]:
        """Per-edge flow implied by the extracted paths (for conservation checks)."""
        loads: Dict[Edge, float] = {}
        for pf in self.paths:
            for edge in pf.edges:
                loads[edge] = loads.get(edge, 0.0) + pf.value
        return loads

    def probabilities(self) -> List[float]:
        """Path selection probabilities for randomized rounding (value-proportional)."""
        total = self.total_value
        if total <= 0:
            raise ValueError("decomposition carries no flow")
        return [p.value / total for p in self.paths]


def flow_value(flow: Mapping[Edge, float], node: Node) -> float:
    """Net outgoing flow at ``node`` (outflow minus inflow)."""
    out = sum(v for (u, _), v in flow.items() if u == node)
    inc = sum(v for (_, w), v in flow.items() if w == node)
    return out - inc


def _widest_path(
    flow: Mapping[Edge, float], source: Node, sink: Node
) -> Optional[List[Node]]:
    """Maximum-bottleneck path from source to sink in the flow support graph."""
    adjacency: Dict[Node, List[Tuple[Node, float]]] = {}
    for (u, v), value in flow.items():
        if value > FLOW_TOLERANCE:
            adjacency.setdefault(u, []).append((v, value))
    best: Dict[Node, float] = {source: float("inf")}
    parent: Dict[Node, Node] = {}
    heap: List[Tuple[float, int, Node]] = [(-float("inf"), 0, source)]
    counter = 1
    visited = set()
    while heap:
        neg_width, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == sink:
            break
        width = -neg_width
        for nxt, value in adjacency.get(node, []):
            if nxt in visited:
                continue
            cand = min(width, value)
            if cand > best.get(nxt, 0.0):
                best[nxt] = cand
                parent[nxt] = node
                heapq.heappush(heap, (-cand, counter, nxt))
                counter += 1
    if sink not in best:
        return None
    path = [sink]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _find_cycle(flow: Mapping[Edge, float]) -> Optional[List[Edge]]:
    """A cycle of the positive-flow support, or ``None`` if it has none.

    A port of ``networkx.find_cycle(support, orientation="original")`` on
    the support as a ``DiGraph`` built edge by edge in ``flow``'s order:
    an edge depth-first search from each node in insertion order, which
    returns the first cycle that search closes.  Which cycle that is
    decides what :func:`_cancel_cycles` cancels first.
    """
    succ: Dict[Node, List[Node]] = {}
    for (u, v), value in flow.items():
        if value > FLOW_TOLERANCE:
            succ.setdefault(u, []).append(v)
            succ.setdefault(v, [])
    explored: Set[Node] = set()
    for start in succ:
        if start in explored:
            continue
        edges: List[Edge] = []
        seen = {start}
        active = {start}
        previous_head = None
        for tail, head in _edge_dfs(succ, start):
            if head in explored:
                continue
            if previous_head is not None and tail != previous_head:
                # Backtracked: pop the path back to the edge ending at tail.
                while True:
                    try:
                        popped = edges.pop()
                    except IndexError:
                        edges = []
                        active = {tail}
                        break
                    active.remove(popped[1])
                    if edges and tail == edges[-1][1]:
                        break
            edges.append((tail, head))
            if head in active:
                for i, (u, _) in enumerate(edges):
                    if u == head:
                        return edges[i:]
            seen.add(head)
            active.add(head)
            previous_head = head
        explored.update(seen)
    return None


def _edge_dfs(succ: Mapping[Node, Sequence[Node]], start: Node) -> Iterator[Edge]:
    """networkx's ``edge_dfs`` from ``start`` over a digraph's successor
    lists: every edge reachable from ``start``, depth first, each once."""
    pending: Dict[Node, Iterator[Node]] = {}
    stack = [start]
    while stack:
        node = stack[-1]
        if node not in pending:
            pending[node] = iter(succ[node])
        head = next(pending[node], _DONE)
        if head is _DONE:
            stack.pop()
        else:
            stack.append(head)
            yield node, head


#: End of a node's successors in :func:`_edge_dfs` (nodes may be ``None``).
_DONE = object()


def _cancel_cycles(flow: Dict[Edge, float]) -> None:
    """Remove flow circulating on cycles (it never reaches the sink).

    Repeatedly finds a cycle in the positive-flow support and subtracts its
    bottleneck value.  LP optima for completion-time objectives rarely contain
    cycles, but randomized tests do construct them.
    """
    while True:
        edges = _find_cycle(flow)
        if edges is None:
            return
        bottleneck = min(flow[e] for e in edges)
        for e in edges:
            flow[e] -= bottleneck
            if flow[e] <= FLOW_TOLERANCE:
                flow[e] = 0.0


def decompose_flow(
    flow: Mapping[Edge, float],
    source: Node,
    sink: Node,
    max_paths: Optional[int] = None,
    tolerance: float = FLOW_TOLERANCE,
) -> FlowDecomposition:
    """Decompose a single-commodity edge flow into thickest-first paths.

    Parameters
    ----------
    flow:
        ``{(u, v): value}`` with non-negative values.
    source, sink:
        Commodity endpoints.
    max_paths:
        Optional cap on the number of extracted paths (the remaining flow is
        reported in ``residual``).  By flow-decomposition theory at most
        ``|support edges|`` paths are ever needed, which is also the hard cap.
    tolerance:
        Flow below this value is treated as zero.

    Returns
    -------
    FlowDecomposition
        Paths with positive values plus whatever flow could not be routed
        source-to-sink (cycle remnants and numerical residue).
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    working: Dict[Edge, float] = {
        e: float(v) for e, v in flow.items() if float(v) > tolerance
    }
    for (u, v) in working:
        if u == v:
            raise ValueError(f"flow contains a self-loop {u!r}")
    _cancel_cycles(working)

    hard_cap = len(working) + 1
    cap = hard_cap if max_paths is None else min(max_paths, hard_cap)
    paths: List[PathFlow] = []
    for _ in range(cap):
        remaining = {e: v for e, v in working.items() if v > tolerance}
        if not remaining:
            break
        path = _widest_path(remaining, source, sink)
        if path is None:
            break
        edges = list(zip(path[:-1], path[1:]))
        bottleneck = min(working[e] for e in edges)
        if bottleneck <= tolerance:
            break
        paths.append(PathFlow(path=tuple(path), value=bottleneck))
        for e in edges:
            working[e] -= bottleneck
            if working[e] <= tolerance:
                working[e] = 0.0
    residual = {e: v for e, v in working.items() if v > tolerance}
    return FlowDecomposition(source=source, sink=sink, paths=paths, residual=residual)
