"""Incremental analysis cache for the lint driver.

Two stores, mirroring the two passes:

* ``summaries/`` — :class:`ModuleSummary` JSON keyed by *file key*
  (SHA-256 of analyzer digest + path + content).  Survives edits to
  every other file, so pass 1 of a warm run parses nothing.
* ``results/`` — final per-file violation lists keyed by file key
  **plus the project signature** (hash of every module's summary).
  An edit that changes a file's exported surface (its summary)
  invalidates all results — cross-file findings may shift anywhere —
  while a body-only edit invalidates just that one file.

The analyzer digest (:func:`analyzer_digest`) hashes every source
file of the ``repro.lint`` package, so editing a rule, the summaries
or the driver invalidates every entry without a version constant
anyone has to remember to bump.

Writes are atomic (tmp file + ``os.replace``), so concurrent/crashed
runs never leave a half-written entry.  Entries are content-addressed
and never stale; orphans are reclaimed with :meth:`LintCache.clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import List, Optional

from repro.lint.summaries import ModuleSummary
from repro.lint.violations import Violation

#: Root of the ``repro.lint`` package, whose sources key the cache.
PACKAGE_DIR = str(Path(__file__).resolve().parent)


@lru_cache(maxsize=None)
def analyzer_digest(package_dir: str = PACKAGE_DIR) -> str:
    """SHA-256 over every ``*.py`` file under ``package_dir``."""
    root = Path(package_dir)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class LintCache:
    """Content-addressed store for summaries and lint results."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._key_prefix = analyzer_digest().encode("utf-8") + b"\0"
        self.summary_hits = 0
        self.summary_misses = 0
        self.result_hits = 0
        self.result_misses = 0

    def file_key(self, path: str, source: str) -> str:
        digest = hashlib.sha256()
        digest.update(self._key_prefix)
        digest.update(path.encode("utf-8"))
        digest.update(b"\0")
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    # -- summaries ----------------------------------------------------

    def get_summary(self, key: str) -> Optional[ModuleSummary]:
        blob = self._read(self._summary_path(key))
        if blob is not None:
            try:
                summary = ModuleSummary.from_dict(json.loads(blob))
            except (ValueError, KeyError, TypeError):
                summary = None  # corrupt entry: recompute, overwrite
            if summary is not None:
                self.summary_hits += 1
                return summary
        self.summary_misses += 1
        return None

    def put_summary(self, key: str, summary: ModuleSummary) -> None:
        blob = json.dumps(summary.to_dict(), sort_keys=True)
        self._write(self._summary_path(key), blob.encode("utf-8"))

    # -- results ------------------------------------------------------

    def get_results(self, key: str,
                    signature: str) -> Optional[List[Violation]]:
        blob = self._read(self._result_path(key, signature))
        if blob is not None:
            try:
                violations = [Violation.from_dict(entry)
                              for entry in json.loads(blob)]
            except (ValueError, KeyError, TypeError):
                violations = None  # corrupt entry: recompute, overwrite
            if violations is not None:
                self.result_hits += 1
                return violations
        self.result_misses += 1
        return None

    def put_results(self, key: str, signature: str,
                    violations: List[Violation]) -> None:
        blob = json.dumps([violation.to_dict()
                           for violation in violations], sort_keys=True)
        self._write(self._result_path(key, signature), blob.encode("utf-8"))

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- paths and atomic IO ------------------------------------------

    def _summary_path(self, key: str) -> str:
        return os.path.join(self.root, "summaries", key[:2], key[2:])

    def _result_path(self, key: str, signature: str) -> str:
        tag = hashlib.sha256(signature.encode("utf-8")).hexdigest()[:16]
        return os.path.join(self.root, "results", key[:2],
                            f"{key[2:]}-{tag}")

    @staticmethod
    def _read(path: str) -> Optional[bytes]:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return None

    @staticmethod
    def _write(path: str, blob: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        descriptor, tmp_path = tempfile.mkstemp(dir=directory,
                                                prefix=".tmp-")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except FileNotFoundError:
                pass
            raise
