"""Persistent on-disk store of codegen artifacts (kernels, dispatch).

The compiled engine derives two kinds of artifact from pure functions
of content keys: per-config step-kernel source
(:func:`repro.core.compiled.generate_source`) and per-instruction
dispatch-handler source
(:func:`repro.cpu.dispatch.generate_handler_source`).  Both are
recomputed from scratch by every process — every sweep worker, every
run.  This module makes that warmth durable: artifacts are published
under ``.repro_cache/codegen/`` so a worker's first point for a kernel
family costs a verified read + ``exec`` instead of full generation and
bytecode compilation, and the warmth survives across workers *and*
across runs.

Entries follow the simcache v3 discipline end to end:

* **atomic publish** — writes go to a unique temp sibling and land via
  ``os.replace``, so a killed writer can never leave a torn entry
  under a valid name (concurrent sweep workers share one store);
* **checksum verification** — every entry embeds a SHA-256 over its
  canonical payload, verified before a byte of it is trusted;
* **quarantine** — an entry that fails parsing, the checksum, or the
  format version reads as a miss and is moved to
  ``codegen/quarantine/`` (visible in ``repro-sim cache stats``, capped
  like the simulation cache's quarantine), then regenerated from
  source — a corrupted artifact is never executed.

Keys are content addresses: callers pass a logical key that already
folds everything the artifact depends on (the kernel family fields
plus :data:`~repro.core.scheduler.ENGINE_REVISION`; the program
fingerprint for dispatch bundles), and the store folds in its own
format version and the interpreter's bytecode magic — entries carry
``marshal``-serialized code objects, which are only meaningful to the
exact bytecode format that wrote them.

``REPRO_NO_DISK_CODEGEN=1`` / ``--no-disk-codegen`` disables the store
entirely; codegen then behaves exactly as before it existed.
"""

from __future__ import annotations

import base64
import hashlib
import importlib.util
import json
import marshal
import os
from dataclasses import dataclass
from pathlib import Path

from .scheduler import ENGINE_REVISION
from .simcache import (
    QUARANTINE_MAX_AGE_SECONDS,
    QUARANTINE_MAX_BYTES,
    clear_quarantine_dir,
    move_to_quarantine,
    quarantined_files,
)

__all__ = [
    "CODEGEN_FORMAT_VERSION",
    "CODEGEN_SUBDIR",
    "CodegenStats",
    "CodegenStore",
    "default_codegen_root",
]

#: Bumped whenever the on-disk entry schema changes shape.
CODEGEN_FORMAT_VERSION = 1

#: Subdirectory of the simulation-cache root holding codegen artifacts.
#: It never collides with simcache shards (which glob ``"??"``).
CODEGEN_SUBDIR = "codegen"

#: Subdirectory (under the codegen root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

#: CPython bytecode magic, folded into every entry key: marshal blobs
#: are only meaningful to the interpreter version that wrote them.
_BYTECODE_MAGIC = importlib.util.MAGIC_NUMBER.hex()


def default_codegen_root() -> Path:
    """The store's default location, beside the simulation cache."""
    from .simcache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR

    root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    return Path(root) / CODEGEN_SUBDIR


def _entry_key(kind: str, logical_key: str) -> str:
    """Content address of one artifact entry.

    Folds the store format version, the interpreter's bytecode magic,
    the entry kind, and the caller's logical key (which itself folds
    :data:`ENGINE_REVISION` plus everything the artifact depends on).
    """
    h = hashlib.sha256()
    h.update(
        f"codegen-v{CODEGEN_FORMAT_VERSION}:{_BYTECODE_MAGIC}:"
        f"{ENGINE_REVISION}:{kind}:".encode()
    )
    h.update(logical_key.encode())
    return h.hexdigest()


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def encode_code(code) -> str:
    """A code object as a JSON-safe string (marshal + base64)."""
    return base64.b64encode(marshal.dumps(code)).decode("ascii")


def decode_code(blob: str):
    """Inverse of :func:`encode_code`; raises ``ValueError`` on garbage."""
    try:
        return marshal.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as exc:  # noqa: BLE001 — marshal raises broadly
        raise ValueError(f"undecodable code blob: {exc}") from exc


@dataclass
class CodegenStats:
    """Hit/miss accounting for one :class:`CodegenStore` instance."""

    kernel_hits: int = 0
    kernel_stores: int = 0
    dispatch_hits: int = 0
    dispatch_stores: int = 0
    misses: int = 0
    #: entries that failed parsing, checksum, or version verification
    #: and were moved to the quarantine directory
    quarantined: int = 0


class CodegenStore:
    """Checksummed, atomically published codegen artifacts on disk.

    Two entry kinds share the verification machinery:

    * ``kernel`` — one generated step-kernel source plus its marshaled
      code object, keyed by the kernel *family* (every spec field that
      shapes the source);
    * ``dispatch`` — one program's bundle of compiled instruction
      handlers, keyed by the program fingerprint.  Bundles merge on
      store, so concurrent sweeps over different configs of one
      program grow a single bundle.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_codegen_root()
        self.stats = CodegenStats()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _load(self, kind: str, logical_key: str) -> dict | None:
        """The verified payload of one entry, or ``None`` (miss).

        An unverifiable entry is quarantined and reads as a miss — the
        caller regenerates from source, never executes the bad blob.
        """
        key = _entry_key(kind, logical_key)
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            return None  # genuinely absent
        try:
            entry = json.loads(raw)
            if entry["version"] != CODEGEN_FORMAT_VERSION:
                raise ValueError(f"format version {entry.get('version')!r}")
            if entry["kind"] != kind:
                raise ValueError(f"entry kind {entry.get('kind')!r}")
            payload = entry["payload"]
            stored = entry["checksum"]
            actual = _payload_checksum(payload)
            if stored != actual:
                raise ValueError(
                    f"checksum mismatch (stored {str(stored)[:12]}…, "
                    f"actual {actual[:12]}…)"
                )
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.stats.quarantined += 1
            return None
        return payload

    def _store(self, kind: str, logical_key: str, payload: dict) -> None:
        """Publish one entry atomically (temp sibling + ``os.replace``)."""
        key = _entry_key(kind, logical_key)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": CODEGEN_FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "checksum": _payload_checksum(payload),
            "payload": payload,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry))
        os.replace(tmp, path)

    def _quarantine(self, path: Path) -> None:
        """Move one unverifiable entry aside, under the simulation
        cache's quarantine caps."""
        move_to_quarantine(
            path,
            self.root / QUARANTINE_DIR,
            QUARANTINE_MAX_BYTES,
            QUARANTINE_MAX_AGE_SECONDS,
        )

    # ------------------------------------------------------------------
    # Kernel entries
    # ------------------------------------------------------------------
    def load_kernel(self, source_key: str) -> tuple[str, object] | None:
        """``(source, code object)`` for one kernel family, or ``None``."""
        payload = self._load("kernel", source_key)
        if payload is None:
            self.stats.misses += 1
            return None
        try:
            source = payload["source"]
            code = decode_code(payload["code"])
            if not isinstance(source, str):
                raise ValueError("kernel source is not a string")
        except (ValueError, KeyError, TypeError):
            # Checksum passed but the payload is malformed (a writer
            # bug, not bit rot): treat identically — never execute it.
            self._quarantine(self._path(_entry_key("kernel", source_key)))
            self.stats.quarantined += 1
            self.stats.misses += 1
            return None
        self.stats.kernel_hits += 1
        return source, code

    def store_kernel(self, source_key: str, source: str, code) -> None:
        """Publish one kernel family's source + compiled code object.

        Entries are content-addressed, so one that already exists is
        exactly what we would write: concurrent workers compiling the
        same family race to a cheap stat here, not to N redundant
        multi-kilobyte writes.
        """
        if self._path(_entry_key("kernel", source_key)).exists():
            return
        self._store(
            "kernel", source_key, {"source": source, "code": encode_code(code)}
        )
        self.stats.kernel_stores += 1

    # ------------------------------------------------------------------
    # Dispatch bundles (one per program fingerprint)
    # ------------------------------------------------------------------
    def load_dispatch(self, program_key: str) -> dict[str, dict] | None:
        """One program's handler bundle ``{entry key: entry}``, or ``None``.

        Each entry carries the instruction's constructor fields, its
        generated handler source, and the marshaled handler code; the
        dispatch module owns the interpretation.
        """
        payload = self._load("dispatch", program_key)
        if payload is None:
            self.stats.misses += 1
            return None
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            self._quarantine(self._path(_entry_key("dispatch", program_key)))
            self.stats.quarantined += 1
            self.stats.misses += 1
            return None
        self.stats.dispatch_hits += 1
        return entries

    def store_dispatch(self, program_key: str, entries: dict[str, dict]) -> None:
        """Publish (merging) one program's handler bundle.

        Merges with whatever is already on disk so concurrent workers
        sweeping different configs of the same program grow one bundle
        instead of overwriting each other; the publish itself is
        last-write-wins atomic, so a lost race costs a few re-published
        handlers, never a torn entry.
        """
        existing = self._load("dispatch", program_key)
        merged = dict(existing) if isinstance(existing, dict) else {}
        if isinstance(merged.get("entries"), dict):  # pre-merge payload shape
            merged = merged["entries"]
        before = len(merged)
        merged.update(entries)
        if len(merged) == before and existing is not None:
            return  # nothing new to say
        self._store("dispatch", program_key, {"entries": merged})
        self.stats.dispatch_stores += 1

    # ------------------------------------------------------------------
    # Management (the ``repro-sim cache`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def quarantined_entries(self) -> list[Path]:
        return quarantined_files(self.root / QUARANTINE_DIR)

    def clear_quarantine(self) -> int:
        """Delete every quarantined artifact; returns the number removed."""
        return clear_quarantine_dir(self.root / QUARANTINE_DIR)

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.quarantined_entries():
            path.unlink(missing_ok=True)
        for child in self.root.glob("*"):
            if child.is_dir():
                try:
                    child.rmdir()
                except OSError:
                    pass  # non-empty (e.g. a concurrent writer's temp file)
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed

    def describe(self) -> str:
        entries = self.entries()
        quarantined = self.quarantined_entries()
        lines = [
            f"codegen dir: {self.root}",
            f"artifacts  : {len(entries)}",
            f"size       : {self.size_bytes() / 1024:.1f} KiB",
            f"quarantine : {len(quarantined)} entr"
            f"{'y' if len(quarantined) == 1 else 'ies'}",
        ]
        if quarantined:
            lines.append(
                f"             ({self.root / QUARANTINE_DIR} — corrupt or "
                "stale-format artifacts caught by verification)"
            )
        return "\n".join(lines)
