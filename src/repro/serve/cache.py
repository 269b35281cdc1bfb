"""Content-addressed result cache for deterministic simulations.

The simulator is cycle-exact and fully deterministic, so a result is a
pure function of *(machine, code, config)*.  The cache stores each
result once under a key derived from exactly those three digests
(:func:`repro.serve.runners.cache_key_parts`) and serves every repeat
request from disk, bit-identically.

Layout (default root ``.repro-cache/``, override with ``REPRO_CACHE_DIR``
or the CLI's ``--cache-dir``)::

    .repro-cache/
      objects/ab/<key>.json      one entry per result (key = sha256 hex)
      artifacts/<key>/<name>     trace timelines etc. for that result

Entry files are self-validating: they carry the schema tag, their own
key, the key parts (for introspection), and a checksum over the
canonical payload JSON.  :meth:`ResultCache.get` treats *any*
inconsistency — unreadable JSON, schema drift, key/checksum mismatch —
as corruption: the entry is evicted (deleted) and the caller recomputes.
A corrupt cache can cost time, never correctness.

The store is bounded on demand: every hit touches its entry's mtime (an
access clock that survives ``noatime`` mounts), ``repro cache stats``
reports disk usage, and :meth:`ResultCache.prune` evicts least-recently-
used entries until the store fits a byte budget.  Hits, misses, and
evictions (labeled by reason) also feed the service-level metrics
registry (:mod:`repro.telemetry.metrics`).
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..telemetry import metrics as tmetrics
from .hashing import canonical_json, digest_of
from .jobs import ServeError

#: Bump when the entry layout or any runner's payload semantics change;
#: part of every cache key, so old entries simply miss.
CACHE_SCHEMA = "repro-cache/2"

#: Environment override for the cache root.
CACHE_ENV = "REPRO_CACHE_DIR"

DEFAULT_ROOT = ".repro-cache"


def default_cache_root() -> str:
    return os.environ.get(CACHE_ENV) or DEFAULT_ROOT


def open_cache(path: Optional[str] = None,
               enabled: bool = True) -> Optional["ResultCache"]:
    """Build a :class:`ResultCache` (or ``None`` when disabled)."""
    if not enabled:
        return None
    return ResultCache(path or default_cache_root())


def cache_key(parts: Dict[str, str]) -> str:
    """The content address: sha256 over the canonical key parts."""
    return digest_of(parts)


class ResultCache:
    """Disk-backed content-addressed store for job results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pruned = 0

    # -- paths -----------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def artifact_dir(self, key: str) -> Path:
        return self.root / "artifacts" / key

    # -- store / load ----------------------------------------------------

    def put(self, key: str, parts: Dict[str, str],
            payload: Dict[str, Any]) -> Path:
        """Persist *payload* under *key*; returns the entry path."""
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "parts": parts,
            "checksum": digest_of(payload),
            "payload": payload,
        }
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        text = canonical_json(entry)
        tmp.write_text(text)
        os.replace(tmp, path)  # atomic vs concurrent readers
        tmetrics.counter("serve.cache.bytes_stored").inc(len(text))
        return path

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Payload for *key*, or ``None`` (miss or evicted-as-corrupt)."""
        path = self.entry_path(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            tmetrics.counter("serve.cache.misses").inc()
            return None
        except (OSError, json.JSONDecodeError):
            self._evict(key)
            return None
        if (not isinstance(entry, dict)
                or entry.get("schema") != CACHE_SCHEMA
                or entry.get("key") != key
                or entry.get("checksum") != digest_of(entry.get("payload"))):
            self._evict(key)
            return None
        self.hits += 1
        tmetrics.counter("serve.cache.hits").inc()
        try:
            # Touch the access clock LRU pruning sorts by (atime is
            # unreliable under noatime mounts, so use mtime).
            os.utime(path)
        except OSError:  # pragma: no cover — read-only store
            pass
        return entry["payload"]

    def _evict(self, key: str) -> None:
        """Remove a corrupt entry (and its artifacts) and count a miss."""
        self.evictions += 1
        self.misses += 1
        tmetrics.counter("serve.cache.misses").inc()
        tmetrics.counter("serve.cache.evictions", reason="corrupt").inc()
        try:
            self.entry_path(key).unlink()
        except OSError:
            pass
        shutil.rmtree(self.artifact_dir(key), ignore_errors=True)

    # -- artifacts -------------------------------------------------------

    def write_artifact(self, key: str, name: str, payload: Any) -> Path:
        """Store a named artifact (JSON for dicts, text otherwise)."""
        if os.sep in name or name.startswith("."):
            raise ServeError(f"bad artifact name {name!r}")
        directory = self.artifact_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        if isinstance(payload, (dict, list)):
            path.write_text(json.dumps(payload, indent=1))
        else:
            path.write_text(str(payload))
        return path

    def artifacts_for(self, key: str) -> Dict[str, str]:
        """name -> path for every artifact stored under *key*."""
        directory = self.artifact_dir(key)
        if not directory.is_dir():
            return {}
        return {p.name: str(p) for p in sorted(directory.iterdir())}

    # -- bounding the store ----------------------------------------------

    def entries(self) -> List[Path]:
        """Every entry file on disk, oldest access first."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        found = [p for p in objects.glob("*/*.json")]
        return sorted(found, key=lambda p: (p.stat().st_mtime, p.name))

    def _entry_bytes(self, path: Path) -> int:
        """Bytes held by one entry: the record plus its artifacts."""
        total = path.stat().st_size
        artifacts = self.artifact_dir(path.stem)
        if artifacts.is_dir():
            total += sum(p.stat().st_size
                         for p in artifacts.rglob("*") if p.is_file())
        return total

    def disk_stats(self) -> Dict[str, int]:
        """What the store holds on disk right now."""
        entries = self.entries()
        return {
            "entries": len(entries),
            "bytes": sum(self._entry_bytes(p) for p in entries),
        }

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries until the store fits
        *max_bytes*; returns ``{"removed", "bytes_freed", "bytes_kept"}``.

        The access clock is each entry's mtime, refreshed on every hit,
        so warm results survive and cold sweeps age out first.
        """
        if max_bytes < 0:
            raise ServeError("prune budget must be >= 0 bytes")
        entries = self.entries()
        sizes = {p: self._entry_bytes(p) for p in entries}
        total = sum(sizes.values())
        removed = freed = 0
        for path in entries:  # oldest first
            if total <= max_bytes:
                break
            key = path.stem
            try:
                path.unlink()
            except OSError:  # pragma: no cover — racing pruner
                continue
            shutil.rmtree(self.artifact_dir(key), ignore_errors=True)
            total -= sizes[path]
            freed += sizes[path]
            removed += 1
        self.pruned += removed
        self.evictions += removed
        if removed:
            tmetrics.counter("serve.cache.evictions",
                             reason="pruned").inc(removed)
        return {"removed": removed, "bytes_freed": freed,
                "bytes_kept": total}

    # -- stats -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "pruned": self.pruned}

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")
