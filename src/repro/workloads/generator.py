"""Random coflow workload generation (Section 4.1) and scenario families.

The paper generates each coflow instance randomly "with flow release times,
flow sizes, and coflow weights based on Poisson distributions" on a
128-server fat-tree, and varies two parameters: the *coflow width* (flows per
coflow, Figure 3) and the *number of coflows* (Figure 4), averaging 10 random
tries per point.  The exact distribution parameters are not reported; this
module exposes them as an explicit :class:`WorkloadConfig` with defaults
chosen so that the default fat-tree is moderately loaded (the qualitative
regime of the figures).

Beyond the paper's single Poisson-on-fat-tree workload, the config opens the
scenario space along three axes:

* **flow sizes** (:attr:`WorkloadConfig.flow_size_distribution`) —
  ``"poisson"`` (the paper), ``"pareto"`` (heavy-tailed with tail index
  :attr:`WorkloadConfig.pareto_shape`), and ``"facebook"`` (a trace-style
  mice/elephants mixture echoing the published Facebook coflow benchmark,
  where most flows are small and a few elephants carry most bytes);
* **endpoints** (:attr:`WorkloadConfig.endpoint_distribution`) —
  ``"uniform"`` over distinct host pairs (the paper's implicit traffic
  matrix), ``"skewed"`` (Zipf-popular hosts, modelling hot storage or
  service nodes), and ``"incast"`` (every flow of a coflow targets one
  destination, the classic partition-aggregate pattern);
* **topology** (:attr:`WorkloadConfig.topology`) — an optional declarative
  spec string resolved by :func:`repro.core.topologies.from_spec`, so a
  config alone fully describes a reproducible scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with this module)

from ..core.flows import Coflow, CoflowInstance, Flow
from ..core.network import Network
from ..core.topologies import from_spec, host_nodes

__all__ = [
    "WorkloadConfig",
    "CoflowGenerator",
    "generate_instance",
    "FLOW_SIZE_DISTRIBUTIONS",
    "ENDPOINT_DISTRIBUTIONS",
]

#: Supported flow-size families.
FLOW_SIZE_DISTRIBUTIONS = ("poisson", "pareto", "facebook")
#: Supported endpoint families.
ENDPOINT_DISTRIBUTIONS = ("uniform", "skewed", "incast")


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a random coflow workload.

    The defaults reproduce Section 4.1's Poisson workload; the distribution
    fields open the heavy-tailed / skewed / incast scenario families.

    Attributes
    ----------
    num_coflows:
        Number of coflows in the instance (Figure 4 sweeps this).
    coflow_width:
        Number of flows per coflow (Figure 3 sweeps this).
    mean_flow_size:
        Mean flow size (in capacity x time units; with 1 Gb/s links a size
        of 1 takes one time unit on an idle path).  All size families are
        parameterised to hit (approximately) this mean so sweeps stay
        comparable across families.
    release_rate:
        Rate of the Poisson process generating flow release times; release
        times are cumulative exponential gaps with this rate per coflow, so a
        larger rate packs flows closer together.  ``None`` releases every flow
        at time zero.
    coflow_arrival_rate:
        Rate of the Poisson arrival process *between coflows*: each coflow's
        releases are offset by a cumulative exponential gap with this rate,
        so coflows arrive over time instead of all being present up front —
        the operating regime of the online (re-planning) schemes.  ``None``
        (default, the paper's setting) applies no offset.
    mean_weight:
        Mean of the Poisson distribution of coflow weights
        (weights are ``1 + Poisson(mean - 1)``).
    unit_sizes:
        Force every flow size to 1 (packet-based workloads).
    seed:
        Base RNG seed; :class:`CoflowGenerator` advances it per instance.
    flow_size_distribution:
        ``"poisson"`` — sizes are ``1 + Poisson(mean - 1)`` (the paper);
        ``"pareto"`` — Pareto(:attr:`pareto_shape`) scaled to the configured
        mean, a heavy-tailed family whose largest flow dominates;
        ``"facebook"`` — a mice/elephants mixture (70% short exponential
        flows, 30% Pareto elephants) qualitatively matching the published
        Facebook coflow trace's size CDF.
    pareto_shape:
        Tail index of the Pareto families (must exceed 1 so the mean exists;
        smaller = heavier tail).
    endpoint_distribution:
        ``"uniform"`` — endpoints uniform over distinct host pairs;
        ``"skewed"`` — hosts weighted by a Zipf law with exponent
        :attr:`zipf_exponent` (a per-instance random permutation decides
        which hosts are hot); ``"incast"`` — each coflow draws one
        destination and all its flows converge on it from distinct-ish
        sources (fan-in = coflow width).
    zipf_exponent:
        Skew strength of the ``"skewed"`` endpoint family (0 = uniform).
    topology:
        Optional topology spec string (see
        :func:`repro.core.topologies.from_spec`), e.g. ``"fat_tree(k=4)"``.
        When set, :meth:`build_network` constructs the network so the config
        alone describes a full scenario; :class:`CoflowGenerator` still
        accepts an explicit network, which takes precedence.
    """

    num_coflows: int = 10
    coflow_width: int = 16
    mean_flow_size: float = 4.0
    release_rate: Optional[float] = 1.0
    coflow_arrival_rate: Optional[float] = None
    mean_weight: float = 2.0
    unit_sizes: bool = False
    seed: int = 0
    flow_size_distribution: str = "poisson"
    pareto_shape: float = 1.5
    endpoint_distribution: str = "uniform"
    zipf_exponent: float = 1.2
    topology: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_coflows < 1:
            raise ValueError("need at least one coflow")
        if self.coflow_width < 1:
            raise ValueError("coflow width must be at least one")
        if self.mean_flow_size < 1:
            raise ValueError("mean flow size must be at least 1")
        if self.mean_weight < 1:
            raise ValueError("mean weight must be at least 1")
        if self.release_rate is not None and self.release_rate <= 0:
            raise ValueError("release rate must be positive")
        if self.coflow_arrival_rate is not None and self.coflow_arrival_rate <= 0:
            raise ValueError("coflow arrival rate must be positive")
        if self.flow_size_distribution not in FLOW_SIZE_DISTRIBUTIONS:
            raise ValueError(
                f"unknown flow size distribution {self.flow_size_distribution!r} "
                f"(known: {', '.join(FLOW_SIZE_DISTRIBUTIONS)})"
            )
        if self.endpoint_distribution not in ENDPOINT_DISTRIBUTIONS:
            raise ValueError(
                f"unknown endpoint distribution {self.endpoint_distribution!r} "
                f"(known: {', '.join(ENDPOINT_DISTRIBUTIONS)})"
            )
        if self.pareto_shape <= 1.0:
            raise ValueError("pareto shape must exceed 1 (finite mean)")
        if self.zipf_exponent < 0.0:
            raise ValueError("zipf exponent must be non-negative")

    def with_width(self, coflow_width: int) -> "WorkloadConfig":
        """Copy with a different coflow width (Figure 3 sweep)."""
        return replace(self, coflow_width=coflow_width)

    def with_num_coflows(self, num_coflows: int) -> "WorkloadConfig":
        """Copy with a different number of coflows (Figure 4 sweep)."""
        return replace(self, num_coflows=num_coflows)

    def with_seed(self, seed: int) -> "WorkloadConfig":
        """Copy with a different RNG seed (one copy per random try)."""
        return replace(self, seed=seed)

    def build_network(self) -> Network:
        """Build the network named by :attr:`topology`.

        Raises ``ValueError`` when the config carries no topology spec.
        """
        if self.topology is None:
            raise ValueError(
                "config has no topology spec; pass a Network explicitly or "
                "set WorkloadConfig.topology"
            )
        return from_spec(self.topology)


class CoflowGenerator:
    """Draws random :class:`CoflowInstance` objects on a given topology."""

    def __init__(
        self, network: Optional[Network] = None, config: Optional[WorkloadConfig] = None
    ) -> None:
        config = config or WorkloadConfig()
        if network is None:
            network = config.build_network()
        hosts = host_nodes(network)
        if len(hosts) < 2:
            raise ValueError(
                "workload generation needs a topology with at least two hosts "
                "(nodes named 'host_*')"
            )
        self.network = network
        self.config = config
        self.hosts = hosts

    # ------------------------------------------------------------------ draws
    def _poisson_at_least_one(self, rng: np.random.Generator, mean: float) -> float:
        return float(1 + rng.poisson(max(mean - 1.0, 0.0)))

    def _flow_size(self, rng: np.random.Generator) -> float:
        cfg = self.config
        if cfg.unit_sizes:
            return 1.0
        if cfg.flow_size_distribution == "poisson":
            return self._poisson_at_least_one(rng, cfg.mean_flow_size)
        if cfg.flow_size_distribution == "pareto":
            # 1 + pareto(a) is Pareto with minimum 1 and mean a/(a-1); scale
            # so the family mean matches mean_flow_size.
            alpha = cfg.pareto_shape
            scale = cfg.mean_flow_size * (alpha - 1.0) / alpha
            return float(scale * (1.0 + rng.pareto(alpha)))
        # "facebook": mice/elephants mixture.  70% of flows are short
        # (exponential around a fraction of the mean), 30% are heavy-tailed
        # elephants; the weights keep the overall mean at mean_flow_size.
        mice_mean = 0.3 * cfg.mean_flow_size
        elephant_mean = (cfg.mean_flow_size - 0.7 * mice_mean) / 0.3
        if rng.random() < 0.7:
            return float(max(1.0, rng.exponential(mice_mean)))
        alpha = cfg.pareto_shape
        scale = elephant_mean * (alpha - 1.0) / alpha
        return float(scale * (1.0 + rng.pareto(alpha)))

    def _host_probabilities(self, rng: np.random.Generator) -> Optional[np.ndarray]:
        """Zipf popularity over a per-instance random permutation of hosts."""
        if self.config.endpoint_distribution != "skewed":
            return None
        ranks = rng.permutation(len(self.hosts))
        weights = 1.0 / np.power(1.0 + ranks, self.config.zipf_exponent)
        return weights / weights.sum()

    def _endpoints(
        self,
        rng: np.random.Generator,
        probabilities: Optional[np.ndarray],
        destination: Optional[str],
    ) -> Tuple[str, str]:
        if destination is not None:
            # incast: fixed per-coflow destination, any other host as source.
            while True:
                src = self.hosts[int(rng.integers(len(self.hosts)))]
                if src != destination:
                    return src, destination
        if probabilities is None:
            src, dst = rng.choice(len(self.hosts), size=2, replace=False)
            return self.hosts[int(src)], self.hosts[int(dst)]
        while True:
            src, dst = rng.choice(len(self.hosts), size=2, p=probabilities)
            if src != dst:
                return self.hosts[int(src)], self.hosts[int(dst)]

    def instance(self, seed_offset: int = 0, name: Optional[str] = None) -> CoflowInstance:
        """Generate one random instance (deterministic given config + offset)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + seed_offset)
        probabilities = self._host_probabilities(rng)
        coflows: List[Coflow] = []
        arrival = 0.0
        for c in range(cfg.num_coflows):
            weight = self._poisson_at_least_one(rng, cfg.mean_weight)
            destination: Optional[str] = None
            if cfg.endpoint_distribution == "incast":
                destination = self.hosts[int(rng.integers(len(self.hosts)))]
            if cfg.coflow_arrival_rate is not None:
                arrival += float(rng.exponential(1.0 / cfg.coflow_arrival_rate))
            release = arrival
            flows: List[Flow] = []
            for _ in range(cfg.coflow_width):
                src, dst = self._endpoints(rng, probabilities, destination)
                size = self._flow_size(rng)
                if cfg.release_rate is not None:
                    release += float(rng.exponential(1.0 / cfg.release_rate))
                flows.append(
                    Flow(source=src, destination=dst, size=size, release_time=release)
                )
            coflows.append(Coflow(flows=tuple(flows), weight=weight, name=f"coflow_{c}"))
        label = (
            f"{cfg.flow_size_distribution}/{cfg.endpoint_distribution}"
            f"[{cfg.num_coflows}x{cfg.coflow_width}]#{seed_offset}"
        )
        return CoflowInstance(coflows=coflows, name=name or label)

    def instances(self, count: int) -> List[CoflowInstance]:
        """Generate ``count`` independent instances (the paper averages 10)."""
        return [self.instance(seed_offset=k) for k in range(count)]


def generate_instance(
    network: Optional[Network] = None,
    config: Optional[WorkloadConfig] = None,
    seed_offset: int = 0,
) -> CoflowInstance:
    """Convenience wrapper: one random instance with the given config."""
    return CoflowGenerator(network, config or WorkloadConfig()).instance(seed_offset)
