"""On-disk result cache: content-hashed cells, JSON payloads.

Each cell's canonical descriptor (see :func:`repro.engine.cells
.cell_descriptor`) is hashed with SHA-256; the verdict / outcome-set
payload is stored as ``<hash>.json`` under the cache directory.  Because
the key covers the test content, the model's clauses and the engine
version, a cache entry can never serve a stale result: any change to the
inputs changes the key, and semantic engine changes bump
:data:`~repro.engine.cells.ENGINE_VERSION`.

Outcome sets round-trip losslessly (register names are strings, processor
ids / addresses / values are ints), so cached results are byte-identical
to freshly computed ones once rendered.  Writes go through a temp file and
an atomic rename, which keeps concurrent pool workers from ever observing
a torn entry.

The cache directory is safe to *share*: any number of processes — pool
workers, several independent runs — may read and write one directory
concurrently.  Writers never collide (``mkstemp`` names are unique,
``os.replace`` is atomic, and duplicate stores of one key are idempotent
by construction: the key hashes the inputs and the payload is a pure
function of them), readers never see a torn entry, and a writer that is
killed mid-store leaves only an orphaned ``*.tmp`` file that lookups
ignore and :meth:`ResultCache.purge_stale_tmp` sweeps.  A warmed
directory can also be shipped whole: :meth:`ResultCache.export_tarball` /
:meth:`ResultCache.import_tarball` move the store between machines with
per-entry digest validation and an :data:`~repro.engine.cells
.ENGINE_VERSION` stamp, so a foreign archive can never inject corrupt or
stale-semantics entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pathlib
import tarfile
import tempfile
from typing import Optional

from ..litmus.test import Outcome
from ..obs import current as _obs_current
from ..obs import incr as _obs_incr
from .cells import (
    ENGINE_VERSION,
    ORACLE_AXIOMATIC,
    CellResult,
    CellSpec,
    OutcomeSpec,
    VerdictSpec,
    cell_descriptor,
    model_display_name,
)

__all__ = [
    "CacheStats",
    "CacheTransferError",
    "ResultCache",
    "cell_cache_key",
    "outcomes_from_json",
    "outcomes_to_json",
]


def cell_cache_key(cell: CellSpec) -> str:
    """The SHA-256 content hash identifying a cell's cache entry."""
    descriptor = json.dumps(cell_descriptor(cell), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()


def _cell_label(cell: CellSpec) -> str:
    """The per-model (or per-oracle) label cache counters are keyed by.

    Axiomatic cells are keyed by their model's display name; operational
    cells by the oracle string (e.g. ``operational:gam``), matching the
    cache key's indifference to the display model.
    """
    if cell.oracle != ORACLE_AXIOMATIC:
        return cell.oracle
    return model_display_name(cell.model)


def _count_lookup(cell: CellSpec, outcome: str) -> None:
    """Record a cache lookup outcome (``hit``/``miss``) plus its label.

    The label string is only built when a recorder is active, so the
    disabled path costs one attribute check.
    """
    recorder = _obs_current()
    if not recorder.active:
        return
    recorder.incr("engine.cache." + outcome)
    recorder.incr("engine.cache." + outcome + ".by." + _cell_label(cell))


def _outcome_to_json(outcome: Outcome) -> dict:
    return {
        "regs": sorted([proc, reg, value] for proc, reg, value in outcome.regs),
        "mem": sorted([addr, value] for addr, value in outcome.mem),
    }


def _outcome_from_json(data: dict) -> Outcome:
    return Outcome(
        regs=frozenset((proc, reg, value) for proc, reg, value in data["regs"]),
        mem=frozenset((addr, value) for addr, value in data["mem"]),
    )


def outcomes_to_json(outcomes: frozenset) -> list:
    """Canonical JSON-able form of an outcome set (sorted, lossless).

    Used by the on-disk cache payloads, so a cached result round-trips
    to the identical ``frozenset`` and renders byte-identically.
    """
    return sorted(
        (_outcome_to_json(outcome) for outcome in outcomes),
        key=lambda d: (d["regs"], d["mem"]),
    )


def outcomes_from_json(data: list) -> frozenset:
    """Inverse of :func:`outcomes_to_json`."""
    return frozenset(_outcome_from_json(d) for d in data)


def _encode(cell: CellSpec, result: CellResult) -> dict:
    if isinstance(cell, VerdictSpec):
        return {"kind": "verdict", "allowed": result}
    if isinstance(cell, OutcomeSpec):
        return {"kind": "outcomes", "outcomes": outcomes_to_json(result)}
    raise TypeError(f"unknown cell spec {cell!r}")


def _decode(cell: CellSpec, payload: dict) -> CellResult:
    if isinstance(cell, VerdictSpec):
        return bool(payload["allowed"])
    if isinstance(cell, OutcomeSpec):
        return outcomes_from_json(payload["outcomes"])
    raise TypeError(f"unknown cell spec {cell!r}")


class CacheTransferError(RuntimeError):
    """An export/import archive was refused (version mismatch, corruption,
    or an entry name that does not belong in a cache directory)."""


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A point-in-time inventory of a cache directory.

    ``tmp_files`` counts orphaned ``*.tmp`` spool files — the residue of
    writers that died between ``mkstemp`` and the atomic rename (a
    SIGKILLed pool worker, a machine crash).  They are invisible to
    lookups but accumulate bytes forever unless swept by
    :meth:`ResultCache.purge_stale_tmp`.
    """

    entries: int
    entry_bytes: int
    tmp_files: int
    tmp_bytes: int


class ResultCache:
    """A directory of content-addressed cell results."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def entry_path(self, cell: CellSpec) -> pathlib.Path:
        """Where ``cell``'s result lives (whether or not it exists yet)."""
        return self._path(cell_cache_key(cell))

    def stats(self) -> CacheStats:
        """Count committed entries and orphaned temp files, with sizes.

        Files that vanish mid-scan (a concurrent purge or rename) are
        simply skipped — the inventory is advisory, not transactional.
        """
        entries = entry_bytes = tmp_files = tmp_bytes = 0
        for path in sorted(self.root.iterdir()):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if path.suffix == ".json":
                entries += 1
                entry_bytes += size
            elif path.suffix == ".tmp":
                tmp_files += 1
                tmp_bytes += size
        return CacheStats(entries, entry_bytes, tmp_files, tmp_bytes)

    def purge_stale_tmp(self, older_than: float, now: float) -> tuple[int, int]:
        """Delete orphaned ``*.tmp`` files older than ``older_than`` seconds.

        ``now`` is the caller's wall-clock reading (``time.time()``),
        passed in rather than read here so the engine itself stays free
        of raw clock reads; ages are judged against file mtimes.  Young
        temp files are left alone — they may belong to a live writer.
        Returns ``(files_removed, bytes_reclaimed)``.
        """
        removed = reclaimed = 0
        for path in sorted(self.root.glob("*.tmp")):
            try:
                stat = path.stat()
            except OSError:
                continue
            if now - stat.st_mtime < older_than:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            reclaimed += stat.st_size
        return removed, reclaimed

    def load(self, cell: CellSpec) -> Optional[CellResult]:
        """The cached result for ``cell``, or ``None`` on a miss.

        Unreadable or mismatched entries (e.g. a kind collision from a
        truncated write that slipped past the atomic rename) count as
        misses rather than errors; telemetry additionally counts them as
        ``engine.cache.stale``.
        """
        path = self._path(cell_cache_key(cell))
        try:
            text = path.read_text()
        except FileNotFoundError:
            _count_lookup(cell, "miss")
            return None
        except OSError:
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        if payload.get("kind") != cell_descriptor(cell)["kind"]:
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        try:
            result = _decode(cell, payload)
        except (KeyError, TypeError, ValueError):
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        _count_lookup(cell, "hit")
        return result

    def store(self, cell: CellSpec, result: CellResult) -> None:
        """Persist a cell result atomically (temp file + rename).

        Safe against concurrent writers sharing the directory: the temp
        name is unique per writer, the rename is atomic, and two writers
        racing on one key write identical bytes (the payload is a pure
        function of the key's inputs), so whichever rename lands last is
        as good as the other.  If the directory itself vanished under a
        concurrent purge, it is recreated and the write retried once —
        the one failure shape a shared store must shrug off.
        """
        _obs_incr("engine.cache.store")
        payload = json.dumps(_encode(cell, result), sort_keys=True)
        try:
            self._spool(cell_cache_key(cell), payload)
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            self._spool(cell_cache_key(cell), payload)

    def _spool(self, key: str, payload: str) -> None:
        """One temp-file + atomic-rename write, orphan-guarded.

        Any failure past ``mkstemp`` unlinks the temp file, so the only
        way to orphan one is a hard kill mid-write — and those orphans
        are invisible to lookups and swept by :meth:`purge_stale_tmp`.
        """
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- shipping a warmed store between machines -----------------------

    MANIFEST_NAME = "manifest.json"

    def export_tarball(self, path: os.PathLike | str) -> int:
        """Archive every committed entry into a gzipped tarball.

        The archive carries a manifest recording the exporting build's
        :data:`~repro.engine.cells.ENGINE_VERSION` and a SHA-256 digest
        per entry, which is what lets :meth:`import_tarball` refuse
        archives from a different engine or with corrupted payloads.
        Orphaned ``*.tmp`` files are never exported.  Returns the number
        of entries archived.
        """
        entries: dict[str, str] = {}
        blobs: list[tuple[str, bytes]] = []
        for entry in sorted(self.root.glob("*.json")):
            try:
                data = entry.read_bytes()
            except OSError:
                continue  # vanished mid-scan (concurrent purge): skip
            entries[entry.name] = hashlib.sha256(data).hexdigest()
            blobs.append((entry.name, data))
        manifest = json.dumps(
            {"format": 1, "engine_version": ENGINE_VERSION, "entries": entries},
            sort_keys=True,
        ).encode("utf-8")
        with tarfile.open(path, "w:gz") as tar:
            self._add_blob(tar, self.MANIFEST_NAME, manifest)
            for name, data in blobs:
                self._add_blob(tar, name, data)
        return len(blobs)

    @staticmethod
    def _add_blob(tar: tarfile.TarFile, name: str, data: bytes) -> None:
        info = tarfile.TarInfo(name)
        info.size = len(data)
        # Fixed metadata keeps the archive a pure function of the entries.
        info.mtime = 0
        info.mode = 0o644
        tar.addfile(info, io.BytesIO(data))

    def import_tarball(self, path: os.PathLike | str) -> tuple[int, int]:
        """Merge an exported archive into this directory.

        Every entry is digest-checked against the manifest before it is
        written (atomically, via the same temp-file + rename path live
        writers use, so an import can run against a store that is being
        served).  Returns ``(imported, skipped)`` where skipped counts
        entries already present.

        Raises:
            CacheTransferError: missing/unreadable manifest, an archive
                exported under a different ``ENGINE_VERSION`` (its
                entries were computed by different engine semantics and
                must not vouch for this build), a manifest entry missing
                from the archive, a digest mismatch, or an entry name
                that is not a plain ``<hex>.json`` file name.
        """
        imported = skipped = 0
        with tarfile.open(path, "r:gz") as tar:
            try:
                handle = tar.extractfile(self.MANIFEST_NAME)
            except KeyError:
                handle = None
            if handle is None:
                raise CacheTransferError(
                    f"{path}: no {self.MANIFEST_NAME} — not a cache export"
                )
            try:
                manifest = json.loads(handle.read().decode("utf-8"))
            except ValueError as exc:
                raise CacheTransferError(
                    f"{path}: unreadable manifest ({exc})"
                ) from exc
            version = manifest.get("engine_version")
            if version != ENGINE_VERSION:
                raise CacheTransferError(
                    f"{path}: exported under engine version {version}, "
                    f"this build runs {ENGINE_VERSION}; entries computed "
                    "by different engine semantics are refused"
                )
            entries = manifest.get("entries")
            if not isinstance(entries, dict):
                raise CacheTransferError(f"{path}: malformed manifest entries")
            for name in sorted(entries):
                digest = entries[name]
                stem, dot, suffix = name.rpartition(".")
                if (
                    dot != "."
                    or suffix != "json"
                    or not stem
                    or not all(c in "0123456789abcdef" for c in stem)
                ):
                    raise CacheTransferError(
                        f"{path}: entry name {name!r} is not a cache key"
                    )
                try:
                    blob = tar.extractfile(name)
                except KeyError:
                    blob = None
                if blob is None:
                    raise CacheTransferError(
                        f"{path}: manifest entry {name!r} missing from archive"
                    )
                data = blob.read()
                if hashlib.sha256(data).hexdigest() != digest:
                    raise CacheTransferError(
                        f"{path}: digest mismatch for {name!r} — archive "
                        "corrupt, refusing all of it"
                    )
                destination = self.root / name
                try:
                    if destination.read_bytes() == data:
                        skipped += 1
                        continue
                except OSError:
                    pass
                self._spool(stem, data.decode("utf-8"))
                imported += 1
        return imported, skipped
