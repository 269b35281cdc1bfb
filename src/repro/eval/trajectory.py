"""Benchmark-trajectory summaries of ``repro report --json`` runs.

A *trajectory* flattens a report payload into one ``{series: value}``
map of every cycle count in it — ``fig6/points/4/xpulpnn/hw/cycles`` and
friends — so successive runs can be diffed mechanically (did a kernel
change move any figure?).  The committed baseline lives at
``benchmarks/results/trajectory.json``; regenerate it with::

    python -m repro report --json --trajectory benchmarks/results/trajectory.json

Writing *merges* into an existing trajectory file: series from the new
payload overwrite same-named entries, everything else is preserved.
That lets partial runs (``repro report --json network --trajectory
...``) append their sections — the CI deployment job does exactly this
with the compiled-network cycle count — without clobbering the figure
series from a full run.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

SCHEMA = "repro-trajectory/1"

#: Leaf keys captured into the trajectory (cycle counts, the derived
#: throughput/share numbers the paper's figures plot, the compiled
#: deployment's DMA-traffic/overlap metrics, and the batch service's
#: host-side throughput — the ``serve/*`` series live in their own
#: ``benchmarks/results/serve_throughput.json`` file because wall-clock
#: numbers are machine-dependent).
_CAPTURE_SUFFIXES = ("cycles", "instructions", "macs_per_cycle",
                     "quant_share", "speedup", "overlap_pct", "dma_bytes",
                     "jobs_per_sec", "us_per_job", "points_per_sec",
                     "energy_uj", "area_mm2", "sim_ips")


def _captured(key: str) -> bool:
    return key == "cycles" or any(
        key == s or key.endswith("_" + s) for s in _CAPTURE_SUFFIXES)


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
        elif isinstance(node, bool):
            return
        elif isinstance(node, (int, float)):
            if path and _captured(path[-1]):
                entries["/".join(path)] = node

    walk(payload, ())
    return {
        "schema": SCHEMA,
        "experiments": sorted(payload),
        "entries": dict(sorted(entries.items())),
    }


def merge_trajectory(existing: dict, doc: dict) -> dict:
    """Fold *doc* into *existing*: new series win, others survive."""
    entries = dict(existing.get("entries", {}))
    entries.update(doc["entries"])
    return {
        "schema": SCHEMA,
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
    if isinstance(existing, dict) and existing.get("schema") == SCHEMA:
        doc = merge_trajectory(existing, doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc
