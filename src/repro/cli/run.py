"""``repro run`` — one workload instance x one scheme, JSON result.

Generates a random coflow instance from a workload config (built from flags
or loaded from a YAML/JSON file), plans it with one scheme — an alias
like ``LP-Based`` or a composed ``pipeline(router=..., order=...)``
spec — runs the flow-level simulator, and prints a self-describing JSON
document:
provenance, topology fingerprint, the exact config (seed included), the
scheme signature, and every scalar metric.  The document carries everything
the experiment engine would persist for the same task, so a ``repro run``
is one reproducible cell of a sweep.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict

from ..analysis.artifacts import (
    build_schemes,
    known_scheme_names,
    load_document,
    provenance,
    strict_config_from_dict,
)
from ..sim.simulator import kernel_tier
from ..workloads.generator import (
    ENDPOINT_DISTRIBUTIONS,
    FLOW_SIZE_DISTRIBUTIONS,
    CoflowGenerator,
    WorkloadConfig,
)
from ..workloads.serialization import config_to_dict
from .main import cannot_write

#: CLI flag name (dest) -> WorkloadConfig field it overrides.
_CONFIG_FLAGS = (
    "num_coflows",
    "coflow_width",
    "mean_flow_size",
    "release_rate",
    "coflow_arrival_rate",
    "mean_weight",
    "seed",
    "flow_size_distribution",
    "pareto_shape",
    "endpoint_distribution",
    "zipf_exponent",
    "topology",
)


def configure(subparsers: argparse._SubParsersAction) -> None:
    """Register the ``run`` subparser."""
    parser = subparsers.add_parser(
        "run",
        help="run one instance x scheme and print the JSON result",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scheme",
        default="LP-Based",
        metavar="SPEC",
        help="scheme to plan with: an alias "
        f"({', '.join(known_scheme_names())}) or a pipeline composition "
        'such as "pipeline(router=lp, order=sebf, alloc=max-min, '
        'online=true)" (default: LP-Based)',
    )
    parser.add_argument(
        "--config",
        type=Path,
        metavar="FILE",
        help="YAML/JSON workload config mapping; explicit flags override it",
    )
    parser.add_argument(
        "--topology",
        help='topology spec string, e.g. "fat_tree(k=4)" '
        "(default: fat_tree(k=4) unless the config file sets one)",
    )
    parser.add_argument("--num-coflows", type=int, help="coflows in the instance")
    parser.add_argument("--coflow-width", type=int, help="flows per coflow")
    parser.add_argument("--mean-flow-size", type=float, help="mean flow size")
    parser.add_argument(
        "--release-rate", type=float, help="Poisson release rate (omit for default)"
    )
    parser.add_argument(
        "--coflow-arrival-rate",
        type=float,
        help="Poisson rate of coflow arrivals over time (the online regime; "
        "omit for the paper's all-at-once default)",
    )
    parser.add_argument("--mean-weight", type=float, help="mean coflow weight")
    parser.add_argument("--seed", type=int, help="instance RNG seed")
    parser.add_argument(
        "--flow-sizes",
        dest="flow_size_distribution",
        choices=FLOW_SIZE_DISTRIBUTIONS,
        help="flow-size family",
    )
    parser.add_argument(
        "--pareto-shape", type=float, help="tail index for the pareto families"
    )
    parser.add_argument(
        "--endpoints",
        dest="endpoint_distribution",
        choices=ENDPOINT_DISTRIBUTIONS,
        help="endpoint family",
    )
    parser.add_argument(
        "--zipf-exponent", type=float, help="skew strength of the skewed family"
    )
    parser.add_argument(
        "--output", type=Path, metavar="FILE", help="write the JSON here instead of stdout"
    )
    parser.set_defaults(func=execute)


def build_config(args: argparse.Namespace) -> WorkloadConfig:
    """Resolve the workload config: file values first, flags on top."""
    data: Dict[str, Any] = {}
    if args.config is not None:
        try:
            data.update(load_document(args.config))
        except (OSError, RuntimeError) as error:
            reason = getattr(error, "strerror", None) or error
            raise SystemExit(f"repro run: cannot read config {args.config}: {reason}")
        except ValueError as error:
            raise SystemExit(f"repro run: invalid config {args.config}: {error}")
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    data.setdefault("topology", "fat_tree(k=4)")
    try:
        return strict_config_from_dict(data, where="repro run config")
    except ValueError as error:
        raise SystemExit(f"repro run: {error}")


def execute(args: argparse.Namespace) -> int:
    """Run the instance and emit the JSON document."""
    config = build_config(args)
    try:
        network = config.build_network()
    except ValueError as error:
        raise SystemExit(f"repro run: topology {config.topology!r}: {error}")
    try:
        scheme = build_schemes([args.scheme])[0]
    except ValueError as error:
        # Malformed/unknown scheme specs exit cleanly, naming the bad stage
        # or scheme and listing the valid choices (no traceback).
        raise SystemExit(f"repro run: {error}")
    instance = CoflowGenerator(network, config).instance()
    # Dispatch through Scheme.simulate — exactly what one engine task does —
    # so online (re-planning) schemes run their arrival loop here too.
    try:
        result = scheme.simulate(instance, network)
    except ValueError as error:
        # Plan-time contract violations (e.g. router 'given' on an
        # unrouted instance) exit cleanly instead of a traceback.
        raise SystemExit(f"repro run: scheme {args.scheme!r}: {error}")
    except RuntimeError as error:
        # Solver failures exit cleanly with the enriched diagnostic (the
        # message carries solver status, HiGHS message and LP shape)
        # instead of a traceback.  The class is resolved here, not at
        # import, so a scheme that solves no LP never loads the LP stack.
        from ..lp.solver import LPInfeasibleError

        if not isinstance(error, LPInfeasibleError):
            raise
        raise SystemExit(f"repro run: scheme {args.scheme!r}: {error}")
    document = {
        "provenance": provenance(),
        "topology": {"spec": config.topology, "fingerprint": network.fingerprint()},
        "config": config_to_dict(config),
        "scheme": {"name": scheme.name, "signature": scheme.signature()},
        "instance": instance.name,
        # Provenance only: the tiers are bit-identical, so the tier that ran
        # for the scheme's allocator stays out of the signature and keys.
        "simulator": {"backend": kernel_tier(scheme.alloc)},
        "metrics": result.metrics(),
    }
    rendered = json.dumps(document, indent=2, sort_keys=True)
    if args.output is not None:
        try:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(rendered + "\n")
        except OSError as error:
            raise cannot_write("run", args.output, error) from None
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0
