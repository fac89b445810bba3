"""mtime-keyed lint cache: parsed ASTs plus per-module findings.

Parsing is not the expensive part of a lint run — walking every module
through eight rule visitors is.  The cache therefore stores, per file
and keyed by ``(mtime_ns, size)``, the raw source, the pickled AST
*and* the per-module lint outcome (findings + suppression count), so a
warm run re-parses nothing and re-walks nothing: it only re-runs the
whole-program phase, which by construction depends on every module at
once.

Invalidation is conservative: the cache file carries a signature of
the rule catalogue, the interpreter version, the cache format version
and the report-path root; any mismatch discards the whole cache.  A
corrupt or unreadable cache file is treated as empty, never as an
error — the cache is an accelerator, not a source of truth.  The
default cache lives in ``.farmer-lint-cache`` (gitignored) and is
written atomically.
"""

from __future__ import annotations

import ast
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from .base import Finding

__all__ = ["CACHE_VERSION", "CachedModule", "LintCache"]

#: Bump when the on-disk layout changes.
CACHE_VERSION = 1


@dataclass(slots=True)
class CachedModule:
    """One file's cached parse + lint outcome.

    Attributes:
        mtime_ns: stat mtime at cache time.
        size: stat size at cache time.
        rel_path: report path the findings were computed under.
        source: raw file contents.
        tree: the parsed module (pickled with the entry).
        findings: non-suppressed findings of the per-module rules.
        n_suppressed: findings silenced by suppression comments.
    """

    mtime_ns: int
    size: int
    rel_path: str
    source: str
    tree: ast.Module
    findings: tuple[Finding, ...]
    n_suppressed: int


class LintCache:
    """Load/lookup/store interface over the cache file.

    Args:
        path: cache file location.
        signature: invalidation token; entries written under a
            different signature are discarded wholesale on load.
    """

    def __init__(self, path: Path, signature: str) -> None:
        self.path = path
        self.signature = signature
        self.entries: dict[str, CachedModule] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            with self.path.open("rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("version") != CACHE_VERSION:
            return
        if payload.get("signature") != self.signature:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    def lookup(self, path: Path) -> CachedModule | None:
        """The fresh cache entry for ``path``, or ``None`` on miss."""
        entry = self.entries.get(str(path))
        if entry is None:
            self.misses += 1
            return None
        try:
            stat = os.stat(path)
        except OSError:
            self.misses += 1
            return None
        if stat.st_mtime_ns != entry.mtime_ns or stat.st_size != entry.size:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self,
        path: Path,
        rel_path: str,
        source: str,
        tree: ast.Module,
        findings: tuple[Finding, ...],
        n_suppressed: int,
    ) -> None:
        """Record one freshly linted module."""
        try:
            stat = os.stat(path)
        except OSError:
            return
        self.entries[str(path)] = CachedModule(
            mtime_ns=stat.st_mtime_ns,
            size=stat.st_size,
            rel_path=rel_path,
            source=source,
            tree=tree,
            findings=findings,
            n_suppressed=n_suppressed,
        )
        self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache when anything changed."""
        if not self._dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "signature": self.signature,
            "entries": self.entries,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
