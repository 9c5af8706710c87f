"""The on-disk content-addressed run store.

Layout (all paths relative to the store root)::

    objects/<key[:2]>/<key>.json   # one artifact per completed run

The **objects directory is the only source of truth**: every query
(``has``/``get``/``keys``/``metas``) works off artifact files, and there is
no side index that concurrent writers could leave stale (an index file left
at the root by an older store layout is ignored).  Artifacts are written
atomically (temp file + ``os.replace`` in the same directory), which makes a
killed campaign resumable — an artifact either exists completely or not at
all, never half-written.

Every artifact embeds its own key and a SHA-256 of the canonical encoding of
its payload; :meth:`RunStore.get` verifies both and raises
:class:`StoreIntegrityError` on any mismatch, so a corrupted or hand-edited
artifact can never silently masquerade as a cached result.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.metrics.collector import ExperimentResult
from repro.metrics.export import dumps_deterministic
from repro.store.canonical import (
    STORE_SCHEMA_VERSION,
    canonical_dumps,
    dumps_jsonable,
    sha256_hex,
)
from repro.store.serialize import result_from_dict, result_to_dict

PathLike = Union[str, Path]

_KEY_HEX_LENGTH = 64  # SHA-256
_HEX_DIGITS = frozenset("0123456789abcdef")


class StoreError(Exception):
    """Base class for run-store failures."""


class StoreIntegrityError(StoreError):
    """An artifact's content does not match its recorded key or hash."""


def _validate_key(key: str) -> str:
    if (
        not isinstance(key, str)
        or len(key) != _KEY_HEX_LENGTH
        or not _HEX_DIGITS.issuperset(key)
    ):
        raise StoreError(f"malformed store key {key!r} (expected 64 lowercase hex chars)")
    return key


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + f".tmp.{os.getpid()}")
    temp.write_text(text)
    os.replace(temp, path)


class RunStore:
    """Content-addressed persistence for completed experiment runs."""

    OBJECTS_DIR = "objects"

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def objects_root(self) -> Path:
        return self.root / self.OBJECTS_DIR

    def object_path(self, key: str) -> Path:
        """Where the artifact for ``key`` lives (whether or not it exists)."""
        _validate_key(key)
        return self.objects_root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------

    def has(self, key: str) -> bool:
        """True when a completed artifact for ``key`` is on disk."""
        return self.object_path(key).exists()

    def put(
        self,
        key: str,
        result: ExperimentResult,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Persist ``result`` under ``key`` atomically; returns the artifact path.

        ``meta`` carries free-form provenance labels (campaign name, cell
        coordinates); it is stored alongside the payload but excluded from
        the integrity hash, so relabelling never invalidates a result.
        Re-putting an existing key overwrites it atomically (last write
        wins; payloads for the same key are byte-identical by construction).
        """
        payload = result_to_dict(result)
        body = canonical_dumps(payload)
        artifact = {
            "key": _validate_key(key),
            "schema": STORE_SCHEMA_VERSION,
            "payload_sha256": sha256_hex(body),
            "meta": dict(meta or {}),
            "payload": payload,
        }
        path = self.object_path(key)
        _atomic_write_text(path, dumps_deterministic(artifact))
        return path

    def get(self, key: str) -> ExperimentResult:
        """Load and verify the artifact for ``key``.

        Raises ``KeyError`` when absent and :class:`StoreIntegrityError`
        when the artifact fails verification (embedded key mismatch, hash
        mismatch, unparseable JSON, a non-object document or a NaN/Infinity
        in the payload).
        """
        artifact = self.get_artifact(key)
        return result_from_dict(artifact["payload"])

    def get_artifact(self, key: str) -> Dict[str, Any]:
        """The raw verified artifact document (payload + meta + hashes)."""
        path = self.object_path(key)
        if not path.exists():
            raise KeyError(f"store has no entry for key {key}")
        try:
            artifact = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(f"unparseable artifact {path}: {exc}") from exc
        if not isinstance(artifact, dict):
            raise StoreIntegrityError(
                f"artifact {path} is a JSON {type(artifact).__name__}, not an object"
            )
        if artifact.get("key") != key:
            raise StoreIntegrityError(
                f"artifact {path} records key {artifact.get('key')!r}, expected {key}"
            )
        try:
            body = dumps_jsonable(artifact.get("payload"))  # parsed: JSON primitives only
        except ValueError as exc:
            raise StoreIntegrityError(f"artifact {path} payload is not canonical: {exc}") from exc
        digest = sha256_hex(body)
        if digest != artifact.get("payload_sha256"):
            raise StoreIntegrityError(
                f"artifact {path} payload hash mismatch: "
                f"recorded {artifact.get('payload_sha256')}, recomputed {digest}"
            )
        return artifact

    def keys(self) -> List[str]:
        """All stored keys, sorted (scanned from the objects directory)."""
        if not self.objects_root.is_dir():
            return []
        found = []
        for shard in sorted(self.objects_root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                found.append(path.stem)
        return found

    def set_meta(
        self,
        key: str,
        meta: Mapping[str, Any],
        artifact: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Durably replace an artifact's ``meta`` labels.

        The payload and its integrity hash are untouched, and nothing is
        written at all when the labels already match — so a same-campaign
        cache hit costs zero writes, while a cross-campaign claim rewrites
        the artifact once (atomically) and then stays stable.  Pass the
        already-verified ``artifact`` document to skip a re-read.
        """
        if artifact is None:
            artifact = self.get_artifact(key)
        new_meta = dict(meta)
        if artifact["meta"] != new_meta:
            updated = dict(artifact)
            updated["meta"] = new_meta
            _atomic_write_text(self.object_path(key), dumps_deterministic(updated))

    def remove(self, key: str) -> bool:
        """Delete one artifact; True when it existed."""
        return self.remove_many([key]) == 1

    def remove_many(self, keys: Iterable[str]) -> int:
        """Delete several artifacts; returns how many actually existed."""
        removed = 0
        for key in keys:
            path = self.object_path(key)
            if path.exists():
                path.unlink()
                removed += 1
                if path.parent.is_dir() and not any(path.parent.iterdir()):
                    path.parent.rmdir()
        return removed

    def metas(self) -> Dict[str, Dict[str, Any]]:
        """The ``meta`` labels of every stored key, read from its artifact.

        An artifact that fails verification maps to ``{}``.
        """
        metas: Dict[str, Dict[str, Any]] = {}
        for key in self.keys():
            try:
                metas[key] = self.get_artifact(key)["meta"]
            except StoreIntegrityError:
                metas[key] = {}
        return metas

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def lru_entries(self) -> List[Tuple[str, int, int]]:
        """``(key, size_bytes, mtime_ns)`` per artifact, eviction order first.

        Sorted by ``(mtime_ns, key)`` — last modification time with the key
        as the deterministic tie-break.  :meth:`gc_budget` evicts in this
        order, so its ``dry_run`` preview names exactly the artifacts a real
        sweep would evict.
        """
        entries: List[Tuple[str, int, int]] = []
        for key in self.keys():
            stat = self.object_path(key).stat()
            entries.append((key, stat.st_size, stat.st_mtime_ns))
        entries.sort(key=lambda entry: (entry[2], entry[0]))
        return entries

    def gc_budget(self, budget_bytes: int, dry_run: bool = False) -> List[str]:
        """Evict least-recently-modified artifacts until the store fits.

        Removes artifacts in :meth:`lru_entries` order until the remaining
        total size is within ``budget_bytes``; a store already under budget
        removes nothing.  Returns the evicted (or, with ``dry_run``,
        evictable) keys in eviction order.
        """
        if budget_bytes < 0:
            raise StoreError(f"budget must be non-negative, got {budget_bytes}")
        entries = self.lru_entries()
        excess = sum(size for _, size, _ in entries) - budget_bytes
        victims: List[str] = []
        freed = 0
        for key, size, _ in entries:
            if freed >= excess:
                break
            victims.append(key)
            freed += size
        if victims and not dry_run:
            self.remove_many(victims)
        return victims

    def gc(self, keep: Iterable[str], dry_run: bool = False) -> List[str]:
        """Remove every artifact whose key is not in ``keep``.

        Also sweeps leftover ``*.tmp.*`` files from interrupted writes and
        prunes empty shard directories.  Returns the removed (or, with
        ``dry_run``, removable) keys, sorted.
        """
        keep_set: Set[str] = {_validate_key(key) for key in keep}
        removed: List[str] = []
        if not self.objects_root.is_dir():
            return removed
        for shard in sorted(self.objects_root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if ".tmp." in path.name:
                    if not dry_run:
                        path.unlink()
                    continue
                key = path.stem
                if key not in keep_set:
                    removed.append(key)
                    if not dry_run:
                        path.unlink()
            if not dry_run and not any(shard.iterdir()):
                shard.rmdir()
        return removed
