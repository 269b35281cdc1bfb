"""Benchmark-trajectory summaries of ``repro report --json`` runs.

A *trajectory* flattens a payload into one ``{series: value}`` map of
every number in it — each non-bool numeric leaf, keyed by its path
(``fig8/speedup_vs_ri5cy/4``, ``cluster/points/0/power_mw``) — so
successive runs can be diffed mechanically: did a change move any
number the report prints?  The committed baseline lives at
``benchmarks/results/trajectory.json``; regenerate it by deleting the
file and running both producers into it::

    python -m repro report --json --trajectory benchmarks/results/trajectory.json > /dev/null
    python -m repro explore --space ci --trajectory benchmarks/results/trajectory.json --quiet > /dev/null

Writing *merges* into an existing trajectory file: series from the new
payload overwrite same-named entries, everything else is preserved.
That is how the two producers above share one file, and how benchmarks
that each record a few host-throughput series share theirs.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from ..telemetry.perfdiff import TRAJECTORY_SCHEMA


def build_trajectory(payload: dict) -> dict:
    """Flatten a jsonified report payload into a trajectory document."""
    entries: Dict[str, float] = {}

    def walk(node, path: Tuple[str, ...]) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (str(key),))
        elif isinstance(node, (list, tuple)):
            for index, value in enumerate(node):
                walk(value, path + (str(index),))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            entries["/".join(path)] = node

    walk(payload, ())
    return {
        "schema": TRAJECTORY_SCHEMA,
        "experiments": sorted(payload),
        "entries": dict(sorted(entries.items())),
    }


def merge_trajectory(existing: dict, doc: dict) -> dict:
    """Fold *doc* into *existing*: new series win, others survive."""
    entries = dict(existing.get("entries", {}))
    entries.update(doc["entries"])
    return {
        "schema": TRAJECTORY_SCHEMA,
        "experiments": sorted(
            set(existing.get("experiments", [])) | set(doc["experiments"])),
        "entries": dict(sorted(entries.items())),
    }


def write_trajectory(payload: dict, path: str) -> dict:
    """Build and write a trajectory document, merging into an existing
    same-schema file at *path*; returns the written document."""
    doc = build_trajectory(payload)
    try:
        with open(path) as handle:
            existing = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        existing = None
    if isinstance(existing, dict) \
            and existing.get("schema") == TRAJECTORY_SCHEMA:
        doc = merge_trajectory(existing, doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc
