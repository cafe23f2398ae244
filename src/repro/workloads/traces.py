"""Synthetic application traces.

The paper motivates coflows with the shuffle stage of data-parallel frameworks
(MapReduce, Dryad, Spark): a reducer can only start once *all* map outputs
destined to it have arrived.  These builders produce such structured
workloads, which the examples and the extension benchmarks use alongside the
Poisson instances of :mod:`repro.workloads.generator`:

* :func:`mapreduce_shuffle` — an all-to-all shuffle: every mapper host sends
  one flow to every reducer host, one coflow per job;
* :func:`broadcast` — one sender distributing the same volume to many
  receivers (Spark broadcast variables / Orchestra's cornet scenario);
* :func:`heavy_tailed_instance` — coflow widths and sizes drawn from a
  Pareto-like heavy-tailed distribution, mimicking the published Facebook
  trace statistics that the Varys line of work evaluates on (most coflows are
  narrow and small, a few are very wide and carry most of the bytes).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with this module)

from ..core.flows import Coflow, CoflowInstance, Flow
from ..core.network import Network
from ..core.topologies import host_nodes

__all__ = ["mapreduce_shuffle", "broadcast", "heavy_tailed_instance"]


def mapreduce_shuffle(
    network: Network,
    num_jobs: int = 2,
    mappers_per_job: int = 4,
    reducers_per_job: int = 4,
    bytes_per_pair: float = 1.0,
    release_gap: float = 0.0,
    weight: float = 1.0,
    seed: Optional[int] = 0,
) -> CoflowInstance:
    """All-to-all shuffle coflows: one coflow per job, a flow per (mapper, reducer).

    Mapper and reducer hosts are drawn without replacement per job; jobs are
    released ``release_gap`` apart.
    """
    if num_jobs < 1 or mappers_per_job < 1 or reducers_per_job < 1:
        raise ValueError("jobs, mappers and reducers must all be at least 1")
    hosts = host_nodes(network)
    if len(hosts) < mappers_per_job + reducers_per_job:
        raise ValueError(
            f"topology has {len(hosts)} hosts, need at least "
            f"{mappers_per_job + reducers_per_job} for disjoint mapper/reducer sets"
        )
    rng = np.random.default_rng(seed)
    coflows: List[Coflow] = []
    for job in range(num_jobs):
        chosen = rng.choice(len(hosts), size=mappers_per_job + reducers_per_job, replace=False)
        mappers = [hosts[int(i)] for i in chosen[:mappers_per_job]]
        reducers = [hosts[int(i)] for i in chosen[mappers_per_job:]]
        release = job * release_gap
        flows = [
            Flow(source=m, destination=r, size=bytes_per_pair, release_time=release)
            for m in mappers
            for r in reducers
        ]
        coflows.append(Coflow(flows=tuple(flows), weight=weight, name=f"shuffle_{job}"))
    return CoflowInstance(coflows=coflows, name=f"shuffle[{num_jobs}jobs]")


def broadcast(
    network: Network,
    num_receivers: int = 8,
    volume_per_receiver: float = 2.0,
    weight: float = 1.0,
    seed: Optional[int] = 0,
) -> CoflowInstance:
    """A single broadcast coflow: one sender, ``num_receivers`` receivers."""
    hosts = host_nodes(network)
    if len(hosts) < num_receivers + 1:
        raise ValueError("not enough hosts for the requested broadcast fan-out")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(hosts), size=num_receivers + 1, replace=False)
    sender = hosts[int(chosen[0])]
    receivers = [hosts[int(i)] for i in chosen[1:]]
    flows = [
        Flow(source=sender, destination=r, size=volume_per_receiver) for r in receivers
    ]
    return CoflowInstance(
        coflows=[Coflow(flows=tuple(flows), weight=weight, name="broadcast")],
        name="broadcast",
    )


def heavy_tailed_instance(
    network: Network,
    num_coflows: int = 10,
    width_tail_exponent: float = 1.5,
    max_width: int = 32,
    size_tail_exponent: float = 1.2,
    max_size: float = 64.0,
    seed: Optional[int] = 0,
) -> CoflowInstance:
    """Heavy-tailed coflow widths and flow sizes (Facebook-trace-like shape).

    Widths and sizes are drawn from truncated Pareto distributions: most
    coflows are narrow with small flows, a few are wide and large — the regime
    where coflow-aware scheduling matters most.
    """
    if num_coflows < 1:
        raise ValueError("need at least one coflow")
    hosts = host_nodes(network)
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    rng = np.random.default_rng(seed)
    coflows: List[Coflow] = []
    for c in range(num_coflows):
        width = int(min(max_width, max(1, round(rng.pareto(width_tail_exponent) + 1))))
        weight = float(1 + rng.poisson(1.0))
        flows: List[Flow] = []
        for _ in range(width):
            src, dst = rng.choice(len(hosts), size=2, replace=False)
            size = float(min(max_size, 1.0 + rng.pareto(size_tail_exponent)))
            flows.append(
                Flow(source=hosts[int(src)], destination=hosts[int(dst)], size=size)
            )
        coflows.append(Coflow(flows=tuple(flows), weight=weight, name=f"ht_{c}"))
    return CoflowInstance(coflows=coflows, name="heavy-tailed")
