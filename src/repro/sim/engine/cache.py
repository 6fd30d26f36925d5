"""Content-addressed result cache for sweep jobs.

Results are stored one JSON file per job content hash.  The cache is
what makes repeated sweeps incremental: a re-run (or a widened sweep)
only simulates the points whose (runner, params) digest is new.  Cache
files carry the runner path and params alongside the value so a cache
directory is self-describing and debuggable with a text editor.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

from repro.sim.engine.spec import SimJob, canonical_json, runner_path

#: Returned by :meth:`ResultCache.get` on miss (None is a valid value).
MISS = object()


class ResultCache:
    """Two-level (memory + optional disk) job result cache."""

    def __init__(self, directory: Optional[str | Path] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sweep_stale_temp_files()
        self._memory: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def _sweep_stale_temp_files(self) -> None:
        """Delete ``*.tmp`` files a dead writer left behind.

        :meth:`put` writes through ``mkstemp`` + ``os.replace``; a
        process killed between the two strands the temp file.  Stale
        temps are garbage — never part of the cache contents — so any
        cache open removes them, and nothing else (``__len__``,
        ``get``) ever derives state from them.
        """
        for leftover in self.directory.glob("*.tmp"):
            try:
                leftover.unlink()
            except OSError:
                pass  # concurrent open already swept it, or perms

    def _path(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> Any:
        """The cached value for ``digest``, or :data:`MISS`.

        A disk file that does not parse — or parses but has the wrong
        shape (not a JSON object, or no ``"value"`` key) — is a MISS:
        it is quarantined to ``<name>.corrupt`` so the slot can be
        recomputed instead of pinning a bogus ``None`` in the memory
        tier.
        """
        if digest in self._memory:
            self.hits += 1
            return self._memory[digest]
        if self.directory is not None:
            path = self._path(digest)
            if path.exists():
                try:
                    payload = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError):
                    payload = None
                if not isinstance(payload, dict) or "value" not in payload:
                    self._quarantine(path)
                    self.misses += 1
                    return MISS
                value = payload["value"]
                self._memory[digest] = value
                self.hits += 1
                return value
        self.misses += 1
        return MISS

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt cache file aside (best effort)."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass

    def put(self, digest: str, job: SimJob, value: Any) -> Any:
        """Store a job result; returns the value as stored.

        When disk-backed, the stored (and returned) value is the JSON
        round-trip of the input, so a job yields identically-typed
        results (lists, string keys) whether it was just computed,
        memory-hit, or read back from disk by a later process.  A
        memory-only cache stores the original object untouched
        (callable runners may return rich, non-serializable results).
        """
        if self.directory is None:
            self._memory[digest] = value
            return value
        value = json.loads(canonical_json(value))
        self._memory[digest] = value
        payload = (
            '{"runner":' + json.dumps(runner_path(job.runner)) + ","
            '"label":' + json.dumps(job.display_label()) + ","
            '"params":' + canonical_json(dict(job.params)) + ","
            '"value":' + canonical_json(value) + "}"
        )
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(temp_name, self._path(digest))
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return value

    def __len__(self) -> int:
        return len(self._memory)
