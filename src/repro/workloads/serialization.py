"""JSON (de)serialization of coflow instances and workload configs.

Lets benchmark workloads be saved and replayed exactly, and makes it easy to
import externally collected coflow traces (e.g. the published Facebook trace
format: per-coflow lists of source/destination/bytes) into the data model.
Workload configs round-trip through plain dictionaries so the experiment
engine's run store can persist them (and key cached results on them).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Union

from ..core.flows import Coflow, CoflowInstance, Flow
from .generator import WorkloadConfig

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "config_to_dict",
    "config_from_dict",
]


def instance_to_dict(instance: CoflowInstance) -> Dict[str, Any]:
    """Convert an instance to a JSON-serializable dictionary."""
    return {
        "name": instance.name,
        "coflows": [
            {
                "name": coflow.name,
                "weight": coflow.weight,
                "flows": [
                    {
                        "source": flow.source,
                        "destination": flow.destination,
                        "size": flow.size,
                        "release_time": flow.release_time,
                        "path": list(flow.path) if flow.path is not None else None,
                    }
                    for flow in coflow.flows
                ],
            }
            for coflow in instance.coflows
        ],
    }


def instance_from_dict(data: Dict[str, Any]) -> CoflowInstance:
    """Inverse of :func:`instance_to_dict`."""
    coflows: List[Coflow] = []
    for coflow_data in data["coflows"]:
        flows = [
            Flow(
                source=f["source"],
                destination=f["destination"],
                size=float(f.get("size", 1.0)),
                release_time=float(f.get("release_time", 0.0)),
                path=tuple(f["path"]) if f.get("path") else None,
            )
            for f in coflow_data["flows"]
        ]
        coflows.append(
            Coflow(
                flows=tuple(flows),
                weight=float(coflow_data.get("weight", 1.0)),
                name=coflow_data.get("name"),
            )
        )
    return CoflowInstance(coflows=coflows, name=data.get("name"))


def config_to_dict(config: WorkloadConfig) -> Dict[str, Any]:
    """Convert a workload config to a JSON-serializable dictionary."""
    # Every field is an immutable scalar: no deep copy (``asdict``) needed.
    return {f.name: getattr(config, f.name) for f in fields(config)}


def config_from_dict(data: Dict[str, Any]) -> WorkloadConfig:
    """Inverse of :func:`config_to_dict`.

    Unknown keys are ignored so run stores written by newer versions (with
    extra config fields) still load.
    """
    known = {f.name for f in fields(WorkloadConfig)}
    return WorkloadConfig(**{k: v for k, v in data.items() if k in known})


def save_instance(instance: CoflowInstance, path: Union[str, Path]) -> None:
    """Write an instance to a JSON file."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: Union[str, Path]) -> CoflowInstance:
    """Read an instance from a JSON file."""
    return instance_from_dict(json.loads(Path(path).read_text()))
