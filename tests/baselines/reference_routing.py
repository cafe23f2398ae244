"""Executable reference for the two heuristic routers.

Verbatim copies of ``random_route`` and ``load_balanced_route`` as they
stood before candidate sets were memoized on the network: a per-call
``(source, destination)`` dict of candidate lists, congestion in a dict
keyed by edge tuples, and ``network.capacity(*e)`` per edge.  The scheme
equivalence suite builds its legacy references on these, so the routers in
``repro.baselines`` are checked against an independent implementation
rather than against themselves.
"""

import random
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.baselines import respect_given_paths
from repro.core.flows import CoflowInstance, FlowId
from repro.core.network import Network, path_edges

Edge = Tuple[Hashable, Hashable]


def random_route(
    instance: CoflowInstance,
    network: Network,
    rng: random.Random,
    max_paths: int = 16,
) -> Dict[FlowId, Tuple[Hashable, ...]]:
    """Route every flow on a uniformly random candidate shortest path.

    Flows that already carry a path keep it.
    """
    paths = respect_given_paths(instance)
    cache: Dict[Tuple[Hashable, Hashable], List[List[Hashable]]] = {}
    for i, j, flow in instance.iter_flows():
        fid = (i, j)
        if fid in paths:
            continue
        key = (flow.source, flow.destination)
        if key not in cache:
            cache[key] = network.candidate_paths(*key, max_paths=max_paths)
        paths[fid] = tuple(rng.choice(cache[key]))
    return paths


def load_balanced_route(
    instance: CoflowInstance,
    network: Network,
    max_paths: int = 16,
) -> Dict[FlowId, Tuple[Hashable, ...]]:
    """Greedy least-congested routing over the candidate shortest paths.

    Flows are considered in decreasing size (largest first, the classical
    greedy for makespan-style load balancing); each picks the candidate path
    minimising the resulting maximum edge congestion (volume / capacity),
    breaking ties by path length and then deterministically.
    Flows that already carry a path keep it (their load is still counted).
    """
    load: Dict[Edge, float] = {}

    def add_load(path: Sequence[Hashable], size: float) -> None:
        for e in path_edges(list(path)):
            load[e] = load.get(e, 0.0) + size / network.capacity(*e)

    paths = respect_given_paths(instance)
    for fid, path in paths.items():
        add_load(path, instance.flow(fid).size)

    cache: Dict[Tuple[Hashable, Hashable], List[List[Hashable]]] = {}
    unrouted = [
        ((i, j), flow)
        for i, j, flow in instance.iter_flows()
        if (i, j) not in paths
    ]
    unrouted.sort(key=lambda item: (-item[1].size, item[0]))
    for fid, flow in unrouted:
        key = (flow.source, flow.destination)
        if key not in cache:
            cache[key] = network.candidate_paths(*key, max_paths=max_paths)
        best_path: Optional[Sequence[Hashable]] = None
        best_cost: Optional[Tuple[float, float, int]] = None
        for candidate in cache[key]:
            worst = 0.0
            total = 0.0
            for e in path_edges(candidate):
                contribution = load.get(e, 0.0) + flow.size / network.capacity(*e)
                worst = max(worst, contribution)
                total += load.get(e, 0.0)
            # Tie-break the bottleneck congestion by the total congestion so
            # flows spread over equal-cost paths even when an unavoidable
            # host uplink dominates the maximum.
            ranking = (worst, total, len(candidate))
            if best_cost is None or ranking < best_cost:
                best_cost = ranking
                best_path = candidate
        assert best_path is not None
        paths[fid] = tuple(best_path)
        add_load(best_path, flow.size)
    return paths
