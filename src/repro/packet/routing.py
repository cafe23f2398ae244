"""Packet-based coflows where paths are not given (Section 3.2).

The algorithm follows the paper's structure:

1. **Reformulation** — each packet becomes a unit of flow injected at its
   source copy ``(s, r)`` of the time-expanded graph ``G^T`` and absorbed at
   some destination copy ``(d, t)``; the split of the unit over arrival times
   ``t`` is fractional in the relaxation.

2. **Time-expanded LP** — the relaxation of (25)-(32).  Per packet we keep a
   flow variable on every ``G^T`` edge reachable after its release, with

   * flow conservation at every intermediate node copy,
   * one unit injected at the source copy,
   * absorption variables ``z[fid, t]`` = flow entering ``(d, t)``,
   * per-step unit capacity on every movement edge (a strengthening of the
     interval-aggregated congestion constraint (28) that is still a valid
     relaxation of integral schedules),
   * completion proxies ``c_fid >= sum_t t * z[fid, t]`` and coflow proxies
     ``C_i >= c_fid``, weighted in the objective.

3. **Rounding** — packets are assigned to powers-of-two arrival intervals by
   the *half-interval* rule (the first interval by which half of the packet's
   fractional arrival mass has landed); the packets of each interval are then
   routed and scheduled together by the Srinivasan–Teo substitute
   (:mod:`repro.packet.srinivasan_teo`), seeded with single paths obtained by
   decomposing each packet's fractional ``G^T`` flow (collapsed to ``G``) and
   rounding it randomly — exactly the per-interval structure of the paper.
   Interval batches run back-to-back, so the completion time of a packet in
   interval ``ell`` is ``O(tau_{ell+1})`` as in equation (37).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit.flow_decomposition import decompose_flow
from ..circuit.randomized_rounding import round_paths
from ..core.flows import Coflow, CoflowInstance, Flow, FlowId
from ..core.network import Network
from ..core.schedule import PacketSchedule, ScheduleError
from ..lp import ConstraintBlock, LinearProgram, LPSolution, solve
from .scheduling import list_schedule_packets
from .srinivasan_teo import route_and_schedule
from .time_expanded import TimeExpandedGraph

__all__ = ["PacketRoutingLP", "PacketRoutingRelaxation", "PacketRoutingScheduler"]

Edge = Tuple[Hashable, Hashable]


def _check_packet_instance(instance: CoflowInstance, network: Network) -> None:
    for i, j, flow in instance.iter_flows():
        if abs(flow.size - 1.0) > 1e-9:
            raise ValueError(
                f"packet-based coflows have unit-size flows; flow ({i},{j}) "
                f"has size {flow.size}"
            )
        if abs(flow.release_time - round(flow.release_time)) > 1e-9:
            raise ValueError(
                "packet release times must be integral time steps"
            )
        if not network.has_node(flow.source) or not network.has_node(flow.destination):
            raise ValueError("flow endpoints missing from the network")


def default_horizon(instance: CoflowInstance, network: Network) -> int:
    """A horizon ``T`` guaranteed to admit a feasible schedule.

    Scheduling packets one after another, each needs at most ``diameter``
    steps once started, so ``max release + packets * diameter`` always
    suffices (with a small safety margin).
    """
    diameter = 0
    for _, _, flow in instance.iter_flows():
        diameter = max(
            diameter, network.shortest_path_length(flow.source, flow.destination)
        )
    return int(math.ceil(instance.max_release_time)) + instance.num_flows * max(diameter, 1) + 2


@dataclass
class PacketRoutingRelaxation:
    """Solution of the time-expanded LP."""

    instance: CoflowInstance
    network: Network
    expanded: TimeExpandedGraph
    solution: LPSolution
    #: z[fid] -> arrival-mass per time step (length = horizon + 1)
    arrival_mass: Dict[FlowId, np.ndarray]
    flow_completion: Dict[FlowId, float]
    coflow_completion: Dict[int, float]
    #: per-packet fractional edge volumes collapsed back onto G
    edge_volumes: Dict[FlowId, Dict[Edge, float]]

    @property
    def objective(self) -> float:
        return self.solution.objective

    @property
    def lower_bound(self) -> float:
        """Lemma 7: the LP optimum lower-bounds the optimal objective."""
        return self.solution.objective

    def half_interval(self, fid: FlowId) -> int:
        """Powers-of-two interval containing the packet's half arrival mass."""
        mass = self.arrival_mass[fid]
        cumulative = 0.0
        for t, m in enumerate(mass):
            cumulative += m
            if cumulative >= 0.5 - 1e-9:
                return max(0, int(math.ceil(math.log2(max(t, 1)))))
        raise ScheduleError(f"packet {fid} has arrival mass {cumulative} < 1/2")

    def flow_order(self) -> List[FlowId]:
        return sorted(
            self.arrival_mass.keys(),
            key=lambda fid: (
                self.coflow_completion[fid[0]],
                self.flow_completion[fid],
                fid,
            ),
        )


class PacketRoutingLP:
    """Builder/solver for the time-expanded relaxation of (25)-(32)."""

    def __init__(
        self,
        instance: CoflowInstance,
        network: Network,
        horizon: Optional[int] = None,
    ) -> None:
        _check_packet_instance(instance, network)
        self.instance = instance
        self.network = network
        self.horizon = horizon or default_horizon(instance, network)
        self.expanded = TimeExpandedGraph(network=network, horizon=self.horizon)
        #: per-flow extraction metadata filled in by :meth:`build`
        self._extract: Dict[FlowId, Dict[str, object]] = {}

    # -------------------------------------------------------- reachability
    def _distance_maps(self):
        network = self.network
        distance_cache: Dict[Tuple[Hashable, str], Dict[Hashable, int]] = {}

        def dist_from(node: Hashable) -> Dict[Hashable, int]:
            key = (node, "from")
            if key not in distance_cache:
                distance_cache[key] = network.hop_distances(node)
            return distance_cache[key]

        def dist_to(node: Hashable) -> Dict[Hashable, int]:
            key = (node, "to")
            if key not in distance_cache:
                distance_cache[key] = network.hop_distances(node, reverse=True)
            return distance_cache[key]

        return dist_from, dist_to

    def build(self) -> LinearProgram:
        """Assemble the time-expanded LP through the bulk pipeline.

        Variable discovery (reachability filtering) is inherently per-packet,
        but each packet's variables are registered as one block and every
        constraint row is appended to a :class:`ConstraintBlock` (committed
        in one COO call) instead of building a dict + ``Constraint`` object
        per row.  Column lookups go through small per-packet maps built
        during discovery rather than the global key table.
        """
        instance, network, gt = self.instance, self.network, self.expanded
        T = gt.horizon
        lp = LinearProgram(name="packet-routing-time-expanded")
        self._extract = {}

        # Completion variables.
        c_range = lp.add_variables(
            [("c", i, j) for i, j, _flow in instance.iter_flows()], lower=0.0
        )
        lp.add_variables(
            [("C", i) for i in range(len(instance.coflows))],
            lower=0.0,
            objective=np.asarray([c.weight for c in instance.coflows], dtype=float),
        )
        C_start = c_range.stop
        c_col = {
            fid: c_range.start + pos for pos, fid in enumerate(instance.flow_ids())
        }

        dist_from, dist_to = self._distance_maps()
        infinite = T + 1
        edges = network.edges()
        nodes = network.nodes()

        # Per-packet variable discovery: one add_variables call per packet,
        # plus a per-packet map from G^T movement edge -> global column and a
        # per-(edge, t) capacity registry filled as columns are allocated.
        flow_cols: Dict[FlowId, Dict[Tuple, int]] = {}
        z_ranges: Dict[FlowId, range] = {}
        cap_cols: Dict[Tuple, List[int]] = {}

        for i, j, flow in instance.iter_flows():
            release = int(round(flow.release_time))
            from_src = dist_from(flow.source)
            to_dst = dist_to(flow.destination)
            dst = flow.destination

            def usable(u: Hashable, v: Hashable, t: int) -> bool:
                # departing u at step t, arriving v at t + 1
                if u == dst:
                    return False  # destination copies are absorbing
                if from_src.get(u, infinite) > t - release:
                    return False
                if to_dst.get(v, infinite) > T - (t + 1):
                    return False
                return True

            keys: List[Tuple] = []
            gt_edges: List[Tuple] = []
            moves: List[Optional[Tuple[Hashable, Hashable]]] = []
            for t in range(release, T):
                for u, v in edges:
                    if usable(u, v, t):
                        gt_edge = ((u, t), (v, t + 1))
                        keys.append(("f", i, j, gt_edge))
                        gt_edges.append(gt_edge)
                        moves.append((u, v))
                for v in nodes:
                    if usable(v, v, t):
                        gt_edge = ((v, t), (v, t + 1))
                        keys.append(("f", i, j, gt_edge))
                        gt_edges.append(gt_edge)
                        moves.append(None)  # waiting self-loop
            num_f = len(keys)
            keys.extend(("z", i, j, t) for t in range(release + 1, T + 1))
            block = lp.add_variables(keys, lower=0.0, upper=1.0)
            cols_of = {
                gt_edge: block.start + k for k, gt_edge in enumerate(gt_edges)
            }
            flow_cols[(i, j)] = cols_of
            z_ranges[(i, j)] = range(block.start + num_f, block.stop)
            for gt_edge, move in zip(gt_edges, moves):
                if move is not None:
                    cap_cols.setdefault(gt_edge, []).append(cols_of[gt_edge])
            self._extract[(i, j)] = {
                "f_range": range(block.start, block.start + num_f),
                "moves": moves,
                "z_range": z_ranges[(i, j)],
                "release": release,
            }

        # Flow conservation and absorption per packet, accumulated in one
        # ConstraintBlock (no per-row dicts or Constraint objects).
        block = ConstraintBlock(lp)
        for i, j, flow in instance.iter_flows():
            fid = (i, j)
            release = int(round(flow.release_time))
            src, dst = flow.source, flow.destination
            cols_of = flow_cols[fid]
            z_cols = z_ranges[fid]
            # Unit supply at the source copy (s, release).
            supply_cols = [
                cols_of[edge]
                for edge in gt.out_edges((src, release))
                if edge in cols_of
            ]
            block.add_row(supply_cols, 1.0, "==", 1.0, name=f"supply[{i},{j}]")

            # Conservation at intermediate copies (v, t), v != dst; flow may
            # neither appear nor disappear anywhere but the source copy and
            # the destination copies.
            for t in range(release, T):
                for v in nodes:
                    if v == dst or (v == src and t == release):
                        continue
                    cols: List[int] = []
                    vals: List[float] = []
                    for edge in gt.in_edges((v, t)):
                        col = cols_of.get(edge)
                        if col is not None:
                            cols.append(col)
                            vals.append(1.0)
                    for edge in gt.out_edges((v, t)):
                        col = cols_of.get(edge)
                        if col is not None:
                            cols.append(col)
                            vals.append(-1.0)
                    if cols:
                        block.add_row(cols, vals, "==", 0.0, name=f"cons[{i},{j},{v},{t}]")

            # Absorption: z[t] equals the flow entering the destination copy.
            for t in range(release + 1, T + 1):
                cols = [z_cols[t - (release + 1)]]
                vals = [-1.0]
                for edge in gt.in_edges((dst, t)):
                    col = cols_of.get(edge)
                    if col is not None:
                        cols.append(col)
                        vals.append(1.0)
                block.add_row(cols, vals, "==", 0.0, name=f"absorb[{i},{j},{t}]")
            block.add_row(
                np.arange(z_cols.start, z_cols.stop), 1.0, "==", 1.0,
                name=f"arrive[{i},{j}]",
            )
            # Completion proxies.
            block.add_row(
                np.concatenate(
                    (np.arange(z_cols.start, z_cols.stop), [c_col[fid]])
                ),
                np.concatenate(
                    (np.arange(release + 1, T + 1, dtype=float), [-1.0])
                ),
                "<=",
                0.0,
                name=f"completion[{i},{j}]",
            )
            block.add_row(
                [c_col[fid], C_start + i], [1.0, -1.0], "<=", 0.0,
                name=f"coflow[{i},{j}]",
            )

        # Unit capacity on every movement edge of G^T: the per-(edge, t)
        # column registry was filled during variable discovery, so no key
        # probing is needed here.
        for t in range(T):
            for u, v in edges:
                cols = cap_cols.get(((u, t), (v, t + 1)))
                if cols:
                    block.add_row(
                        cols, 1.0, "<=", 1.0, name=f"cap[{((u, t), (v, t + 1))}]"
                    )
        block.flush()
        return lp

    def relax(self) -> PacketRoutingRelaxation:
        lp = self.build()
        solution = solve(lp)
        T = self.expanded.horizon
        arrival_mass: Dict[FlowId, np.ndarray] = {}
        flow_completion: Dict[FlowId, float] = {}
        edge_volumes: Dict[FlowId, Dict[Edge, float]] = {}
        for i, j, _flow in self.instance.iter_flows():
            fid = (i, j)
            meta = self._extract[fid]
            release = meta["release"]
            mass = np.zeros(T + 1)
            z_vals = solution.take(meta["z_range"])
            mass[release + 1 : T + 1] = z_vals
            arrival_mass[fid] = mass
            flow_completion[fid] = solution.value(("c", i, j))
            # Collapse the per-packet G^T flow back onto G: only movement
            # variables (non-waiting) with significant value contribute.
            f_vals = solution.take(meta["f_range"])
            moves = meta["moves"]
            volumes: Dict[Edge, float] = {}
            for idx in np.nonzero(f_vals > 1e-9)[0]:
                move = moves[idx]
                if move is not None:
                    volumes[move] = volumes.get(move, 0.0) + float(f_vals[idx])
            edge_volumes[fid] = volumes
        coflow_completion = {
            i: solution.value(("C", i)) for i in range(len(self.instance.coflows))
        }
        return PacketRoutingRelaxation(
            instance=self.instance,
            network=self.network,
            expanded=self.expanded,
            solution=solution,
            arrival_mass=arrival_mass,
            flow_completion=flow_completion,
            coflow_completion=coflow_completion,
            edge_volumes=edge_volumes,
        )


@dataclass
class PacketRoutingResult:
    """Output of the Section-3.2 algorithm."""

    relaxation: PacketRoutingRelaxation
    schedule: PacketSchedule
    #: interval index each packet was assigned to by the half-interval rule
    assigned_intervals: Dict[FlowId, int]
    #: single path chosen per packet
    paths: Dict[FlowId, Tuple[Hashable, ...]]

    @property
    def objective(self) -> float:
        return self.schedule.weighted_completion_time(self.relaxation.instance)

    @property
    def lower_bound(self) -> float:
        return self.relaxation.lower_bound

    @property
    def approximation_ratio(self) -> float:
        lb = self.lower_bound
        return self.objective / lb if lb > 0 else 1.0


class PacketRoutingScheduler:
    """Joint routing + scheduling of packet coflows (paths not given)."""

    def __init__(
        self,
        instance: CoflowInstance,
        network: Network,
        horizon: Optional[int] = None,
        seed: Optional[int] = 0,
    ) -> None:
        _check_packet_instance(instance, network)
        self.instance = instance
        self.network = network
        self.seed = seed
        self._lp = PacketRoutingLP(instance, network, horizon=horizon)

    def relax(self) -> PacketRoutingRelaxation:
        return self._lp.relax()

    def schedule(
        self, relaxation: Optional[PacketRoutingRelaxation] = None
    ) -> PacketRoutingResult:
        """Half-interval assignment + per-interval routing and scheduling."""
        relaxation = relaxation or self.relax()
        instance, network = self.instance, self.network

        # 1. Single path per packet: decompose the collapsed LP flow and round.
        decompositions = {}
        for i, j, flow in instance.iter_flows():
            fid = (i, j)
            volumes = relaxation.edge_volumes.get(fid, {})
            if volumes:
                decompositions[fid] = decompose_flow(
                    volumes, source=flow.source, sink=flow.destination
                )
        rounded = round_paths(decompositions, seed=self.seed)
        paths: Dict[FlowId, Tuple[Hashable, ...]] = dict(rounded.paths)
        for i, j, flow in instance.iter_flows():
            # Fallback (e.g. numerically empty decomposition): shortest path.
            paths.setdefault((i, j), tuple(network.shortest_path(flow.source, flow.destination)))

        # 2. Assign packets to half-intervals and batch them.
        assigned: Dict[FlowId, int] = {
            fid: relaxation.half_interval(fid) for fid in instance.flow_ids()
        }
        batches: Dict[int, List[FlowId]] = {}
        for fid, interval in assigned.items():
            batches.setdefault(interval, []).append(fid)

        # 3. Route-and-schedule each batch with the Srinivasan-Teo substitute,
        #    running batches back-to-back.
        final = PacketSchedule()
        offset = 0
        priority = {
            fid: float(rank) for rank, fid in enumerate(relaxation.flow_order())
        }
        for interval in sorted(batches):
            batch_ids = sorted(batches[interval])
            # Build a sub-instance whose release times are relative to the batch start.
            index_map: Dict[FlowId, FlowId] = {}
            sub_coflows: List[Coflow] = []
            for new_i, fid in enumerate(batch_ids):
                flow = instance.flow(fid)
                release = max(0.0, flow.release_time - offset)
                sub_coflows.append(
                    Coflow(
                        flows=(
                            Flow(
                                source=flow.source,
                                destination=flow.destination,
                                size=1.0,
                                release_time=float(int(math.ceil(release))),
                            ),
                        ),
                        weight=1.0,
                    )
                )
                index_map[(new_i, 0)] = fid
            sub_instance = CoflowInstance(coflows=sub_coflows)
            preferred = {
                (new_i, 0): paths[index_map[(new_i, 0)]]
                for new_i in range(len(batch_ids))
            }
            sub_priority = {
                (new_i, 0): priority[index_map[(new_i, 0)]]
                for new_i in range(len(batch_ids))
            }
            _, sub_schedule = route_and_schedule(
                sub_instance,
                network,
                seed=None if self.seed is None else self.seed + interval,
                preferred=preferred,
                priority=sub_priority,
            )
            for sub_fid, original in index_map.items():
                for move in sub_schedule.moves(sub_fid):
                    final.add_move(original, move.time + offset, *move.edge)
            offset += sub_schedule.makespan() + 1

        final.validate(instance, network)
        return PacketRoutingResult(
            relaxation=relaxation,
            schedule=final,
            assigned_intervals=assigned,
            paths=paths,
        )
