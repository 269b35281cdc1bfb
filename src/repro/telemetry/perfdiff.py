"""Perf-regression sentinel: diff two trajectory snapshots series by
series.

``repro perf diff A B`` compares two ``repro-trajectory/1`` documents
(the committed ``benchmarks/results/trajectory.json`` baseline, a fresh
``repro report`` + ``repro explore`` trajectory, or a wall-clock
benchmark file such as ``serve_throughput.json``) under one rule:

* **throughput series** — host wall-clock numbers, the ``serve/*`` and
  ``bench/*`` prefixes — must stay within ``DEFAULT_BAND`` (±25%),
  because machine load moves them without the code changing;
* **every other series** is derived deterministically by the simulator
  and must be **bit-identical**; any drift is a regression, full stop.
  This is the measurement discipline the paper's figures rest on;
* **every baseline series** must be present in the new document; a
  series that disappeared fails the diff like a drifted one.

The verdict is machine-readable (``repro-perf-diff/1``) and the CLI
exits non-zero on any regression, so CI gates on it directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..errors import ReproError

PERFDIFF_SCHEMA = "repro-perf-diff/1"

#: The trajectory document format :mod:`repro.eval.trajectory` writes.
TRAJECTORY_SCHEMA = "repro-trajectory/1"

#: Relative band for throughput (wall-clock) series.
DEFAULT_BAND = 0.25

#: Series prefixes that carry host wall-clock numbers, not simulated
#: cycles — these get the band check instead of bit-exactness.
THROUGHPUT_PREFIXES = ("serve/", "bench/")


class PerfDiffError(ReproError):
    """Unreadable or non-trajectory input to the sentinel."""


def load_trajectory(path: str) -> Dict[str, Any]:
    """Load and sanity-check a trajectory document."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise PerfDiffError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise PerfDiffError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("schema") != TRAJECTORY_SCHEMA:
        raise PerfDiffError(
            f"{path}: expected a {TRAJECTORY_SCHEMA} document, got "
            f"schema {doc.get('schema') if isinstance(doc, dict) else None!r}")
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        raise PerfDiffError(f"{path}: missing 'entries' map")
    return doc


def series_tolerance(series: str) -> Tuple[str, float]:
    """``(kind, relative_tolerance)`` for one series: throughput
    prefixes get ``DEFAULT_BAND``, everything else is exact."""
    if series.startswith(THROUGHPUT_PREFIXES):
        return "band", DEFAULT_BAND
    return "exact", 0.0


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of one compared series."""

    series: str
    old: float
    new: float
    kind: str            # "exact" | "band"
    tolerance: float
    ok: bool

    @property
    def rel_delta(self) -> float:
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old)

    def to_dict(self) -> Dict[str, Any]:
        rel = self.rel_delta
        return {
            "series": self.series,
            "old": self.old,
            "new": self.new,
            "kind": self.kind,
            "tolerance": self.tolerance,
            "rel_delta": round(rel, 6) if rel != float("inf") else "inf",
            "ok": self.ok,
        }


def diff_trajectories(old_doc: Dict[str, Any],
                      new_doc: Dict[str, Any]) -> Dict[str, Any]:
    """Compare two trajectory documents; returns the verdict document.

    ``verdict["ok"]`` is False iff any compared series regressed or any
    baseline series is absent from *new_doc*.  Series present only in
    *new_doc* are listed as ``added`` and never fail — trajectories
    legitimately grow as evals are added.
    """
    old_entries = old_doc.get("entries", {})
    new_entries = new_doc.get("entries", {})
    compared: List[SeriesVerdict] = []
    for series in sorted(set(old_entries) & set(new_entries)):
        old, new = float(old_entries[series]), float(new_entries[series])
        kind, tol = series_tolerance(series)
        if kind == "exact":
            ok = old_entries[series] == new_entries[series]
        else:
            ok = abs(new - old) <= tol * abs(old) if old != 0 \
                else new == old
        compared.append(SeriesVerdict(series=series, old=old, new=new,
                                      kind=kind, tolerance=tol, ok=ok))
    missing = sorted(set(old_entries) - set(new_entries))
    added = sorted(set(new_entries) - set(old_entries))
    regressions = [v for v in compared if not v.ok]
    return {
        "schema": PERFDIFF_SCHEMA,
        "ok": not regressions and not missing,
        "checked": len(compared),
        "exact_checked": sum(1 for v in compared if v.kind == "exact"),
        "band_checked": sum(1 for v in compared if v.kind == "band"),
        "regressions": [v.to_dict() for v in regressions],
        "added": added,
        "missing": missing,
    }


def diff_files(old_path: str, new_path: str) -> Dict[str, Any]:
    """File-level convenience wrapper around :func:`diff_trajectories`."""
    return diff_trajectories(load_trajectory(old_path),
                             load_trajectory(new_path))


def render_verdict(verdict: Dict[str, Any]) -> str:
    """Human-readable summary of a verdict document."""
    lines = [
        f"perf diff: {verdict['checked']} series compared "
        f"({verdict['exact_checked']} exact, {verdict['band_checked']} "
        f"banded), {len(verdict['added'])} added, "
        f"{len(verdict['missing'])} missing"
    ]
    for reg in verdict["regressions"]:
        if reg["kind"] == "exact":
            lines.append(
                f"  REGRESSION {reg['series']}: {reg['old']} -> "
                f"{reg['new']} (cycle-exact series must be bit-identical)")
        else:
            lines.append(
                f"  REGRESSION {reg['series']}: {reg['old']} -> "
                f"{reg['new']} ({reg['rel_delta']:+} exceeds "
                f"±{reg['tolerance']} band)")
    for series in verdict["missing"]:
        lines.append(f"  MISSING {series} (absent from the new document)")
    lines.append("verdict: " + ("OK" if verdict["ok"] else "REGRESSED"))
    return "\n".join(lines)
