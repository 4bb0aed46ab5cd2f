"""The durable model registry: a versioned catalog of saved models.

A **registry** maps model *names* to monotonically increasing *versions*,
each version pointing at one model directory written by
:func:`repro.core.model_store.save_model` and carrying:

- the directory's content **fingerprint** (SHA-256 over the manifest and
  every data file -- the identity the serving layer's hot-reload swap
  checks),
- the fitted :class:`~repro.core.config.ClusteringConfig` and fit
  metadata copied out of the manifest (so ``cxk models show`` answers
  without touching the model directory),
- optional **bench lineage**: the ``repro-bench/1`` records measured for
  this version (``cxk models publish --bench report.json``).

The :class:`ModelRegistry` protocol is deliberately small -- ``publish``
/ ``active`` / ``list_models`` / ``show`` / ``retire`` -- so the sqlite
backend here can later be joined by a PostgreSQL one (the
store/preprocessor/clusterizator split of the related-work pipeline)
without the serving layer changing.  :class:`SqliteModelRegistry` opens
one short-lived connection per operation, which makes a single registry
file safe to share between the CLI, a polling server and worker
processes (sqlite serialises writers; readers never block readers).

Lifecycle invariants:

- versions are append-only -- publishing never mutates or deletes an
  existing row, so an in-flight request holding version N is never
  invalidated by the publish of N+1 (the zero-drop hot-reload guarantee
  builds on this);
- a re-publish of the *same* content (identical fingerprint) is
  idempotent and returns the existing active version instead of minting
  a new one;
- ``retire`` flips a status flag, it never deletes -- ``list_models
  --all`` still shows retired versions, and ``active`` simply skips
  them.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Protocol, runtime_checkable

from repro.core.model_store import (
    MODEL_DATA_FILES,
    MODEL_FORMAT_VERSION,
    MODEL_MANIFEST_NAME,
)

#: Bump on any change to the registry's sqlite table layout.
REGISTRY_SCHEMA_VERSION = 1

#: Model lifecycle states stored in the ``status`` column.
STATUS_PUBLISHED = "published"
STATUS_RETIRED = "retired"


class RegistryError(RuntimeError):
    """A registry operation failed (unknown model, invalid directory, IO)."""


def _manifest_files(manifest, directory: Path) -> List[str]:
    """The data files a manifest inventories, or :class:`RegistryError`."""
    if not isinstance(manifest, dict):
        raise RegistryError(f"model manifest in {directory} is not a JSON object")
    files = manifest.get("files", list(MODEL_DATA_FILES))
    if not isinstance(files, list):
        raise RegistryError(
            f"model manifest in {directory} has a bad 'files' value {files!r}"
        )
    return [str(name) for name in files]


def model_fingerprint(directory) -> str:
    """Content fingerprint of a saved model directory (hex SHA-256).

    Hashes the manifest plus every data file it inventories, in manifest
    order, each prefixed by its name -- so any change to the
    representatives, vocabulary, registries or configuration lands in a
    different fingerprint, while re-saving identical content reproduces
    the same one.  This is the identity the serving layer compares when
    deciding whether a published version actually changed.
    """
    directory = Path(directory)
    manifest_path = directory / MODEL_MANIFEST_NAME
    digest = hashlib.sha256()
    try:
        names = [MODEL_MANIFEST_NAME]
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        names += _manifest_files(manifest, directory)
        for name in names:
            digest.update(name.encode("utf-8") + b"\x00")
            digest.update((directory / name).read_bytes())
            digest.update(b"\x00")
    except (OSError, ValueError) as error:
        raise RegistryError(
            f"cannot fingerprint model directory {directory}: {error}"
        ) from error
    return digest.hexdigest()


def _read_manifest(directory: Path) -> Dict[str, object]:
    """Read and validate the manifest of a completed model directory."""
    try:
        with open(directory / MODEL_MANIFEST_NAME, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise RegistryError(
            f"not a saved model directory (no readable manifest): "
            f"{directory}: {error}"
        ) from error
    names = _manifest_files(manifest, directory)
    version = manifest.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise RegistryError(
            f"unsupported model format version {version!r} in {directory} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    for name in names:
        if not (directory / name).exists():
            raise RegistryError(f"model file missing: {directory / name}")
    return manifest


@dataclass(frozen=True)
class ModelRecord:
    """One published version of one model name, as cataloged.

    The record is a *pointer plus provenance*: the serving layer resolves
    ``directory`` and compares ``fingerprint``; operators read ``config``,
    ``fit`` and ``bench`` without opening the model directory.
    """

    name: str
    version: int
    directory: str
    fingerprint: str
    status: str
    created_at: str
    config: Dict[str, object] = field(default_factory=dict)
    fit: Dict[str, object] = field(default_factory=dict)
    bench: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (used by ``cxk models`` and ``/models``)."""
        return {
            "name": self.name,
            "version": self.version,
            "directory": self.directory,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "created_at": self.created_at,
            "config": self.config,
            "fit": self.fit,
            "bench": self.bench,
        }


@runtime_checkable
class ModelRegistry(Protocol):
    """The protocol every registry backend implements.

    Kept intentionally small so alternative durable backends (PostgreSQL,
    a cloud object catalog) can slot in behind the same serving and CLI
    surfaces; :class:`SqliteModelRegistry` is the first implementation.
    """

    def publish(
        self,
        name: str,
        directory,
        *,
        bench: Optional[Dict[str, object]] = None,
    ) -> ModelRecord:
        """Catalog *directory* as the next version of *name*."""
        ...

    def active(self, name: str) -> Optional[ModelRecord]:
        """The highest published (non-retired) version of *name*, if any."""
        ...

    def active_models(self) -> List[ModelRecord]:
        """One active record per non-retired name (the routing table)."""
        ...

    def list_models(
        self, name: Optional[str] = None, *, include_retired: bool = False
    ) -> List[ModelRecord]:
        """All cataloged versions, optionally filtered to one name."""
        ...

    def show(self, name: str, version: Optional[int] = None) -> ModelRecord:
        """One specific version (default: the active one) or raise."""
        ...

    def retire(self, name: str, version: Optional[int] = None) -> ModelRecord:
        """Mark a version (default: the active one) retired."""
        ...


class SqliteModelRegistry:
    """Sqlite-backed :class:`ModelRegistry` (the first durable backend).

    One registry is one sqlite file; every operation opens a short-lived
    connection, so a single file is safely shared by the CLI, a serving
    process polling for publishes and any number of readers.  The schema
    (``models``, ``registry_meta``) is created on first use and
    version-checked on every open.  Registry files written by earlier
    releases also hold a catalog table of compiled-corpus stores and two
    nullable corpus columns in ``models``; nothing reads them, so those
    files keep working unchanged.
    """

    def __init__(self, path) -> None:
        """Open (creating if missing) the registry database at *path*."""
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._connect() as connection:
                self._initialise(connection)
        except (OSError, sqlite3.Error) as error:
            raise RegistryError(
                f"cannot open registry {self.path}: {error}"
            ) from error

    # ------------------------------------------------------------------ #
    def _connect(self) -> sqlite3.Connection:
        """One short-lived connection (busy-waits instead of failing)."""
        connection = sqlite3.connect(str(self.path), timeout=30.0)
        connection.row_factory = sqlite3.Row
        return connection

    def _initialise(self, connection: sqlite3.Connection) -> None:
        """Create the schema on first use; reject version skew after."""
        connection.execute(
            "CREATE TABLE IF NOT EXISTS registry_meta ("
            " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        row = connection.execute(
            "SELECT value FROM registry_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            connection.execute(
                "INSERT INTO registry_meta (key, value) VALUES (?, ?)",
                ("schema_version", str(REGISTRY_SCHEMA_VERSION)),
            )
        elif int(row["value"]) != REGISTRY_SCHEMA_VERSION:
            raise RegistryError(
                f"registry {self.path} has schema version {row['value']} "
                f"(this build expects {REGISTRY_SCHEMA_VERSION})"
            )
        connection.execute(
            "CREATE TABLE IF NOT EXISTS models ("
            " name TEXT NOT NULL,"
            " version INTEGER NOT NULL,"
            " directory TEXT NOT NULL,"
            " fingerprint TEXT NOT NULL,"
            " status TEXT NOT NULL,"
            " created_at TEXT NOT NULL,"
            " config TEXT NOT NULL,"
            " fit TEXT NOT NULL,"
            " bench TEXT,"
            " PRIMARY KEY (name, version))"
        )

    @staticmethod
    def _record(row: sqlite3.Row) -> ModelRecord:
        """Decode one ``models`` row into a :class:`ModelRecord`."""
        return ModelRecord(
            name=row["name"],
            version=row["version"],
            directory=row["directory"],
            fingerprint=row["fingerprint"],
            status=row["status"],
            created_at=row["created_at"],
            config=json.loads(row["config"]),
            fit=json.loads(row["fit"]),
            bench=json.loads(row["bench"]) if row["bench"] is not None else None,
        )

    # ------------------------------------------------------------------ #
    def publish(
        self,
        name: str,
        directory,
        *,
        bench: Optional[Dict[str, object]] = None,
    ) -> ModelRecord:
        """Catalog *directory* as the next version of *name*.

        Validates the directory (complete manifest, inventoried files
        present), fingerprints its content, and appends a new version
        row -- unless the currently active version already has the same
        fingerprint, in which case that record is returned unchanged
        (idempotent re-publish).
        """
        if not name or "/" in name:
            raise RegistryError(f"invalid model name {name!r}")
        directory = Path(directory).resolve()
        manifest = _read_manifest(directory)
        fingerprint = model_fingerprint(directory)
        now = datetime.now(timezone.utc).isoformat()
        try:
            with self._connect() as connection:
                active = connection.execute(
                    "SELECT * FROM models WHERE name = ? AND status = ?"
                    " ORDER BY version DESC LIMIT 1",
                    (name, STATUS_PUBLISHED),
                ).fetchone()
                if active is not None and active["fingerprint"] == fingerprint:
                    return self._record(active)
                last = connection.execute(
                    "SELECT MAX(version) AS v FROM models WHERE name = ?",
                    (name,),
                ).fetchone()
                version = (last["v"] or 0) + 1
                connection.execute(
                    "INSERT INTO models (name, version, directory, fingerprint,"
                    " status, created_at, config, fit, bench)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        name,
                        version,
                        str(directory),
                        fingerprint,
                        STATUS_PUBLISHED,
                        now,
                        json.dumps(manifest.get("config") or {}),
                        json.dumps(manifest.get("fit") or {}),
                        json.dumps(bench) if bench is not None else None,
                    ),
                )
                row = connection.execute(
                    "SELECT * FROM models WHERE name = ? AND version = ?",
                    (name, version),
                ).fetchone()
                return self._record(row)
        except sqlite3.Error as error:
            raise RegistryError(
                f"cannot publish {name} to {self.path}: {error}"
            ) from error

    def active(self, name: str) -> Optional[ModelRecord]:
        """The highest published (non-retired) version of *name*, if any."""
        try:
            with self._connect() as connection:
                row = connection.execute(
                    "SELECT * FROM models WHERE name = ? AND status = ?"
                    " ORDER BY version DESC LIMIT 1",
                    (name, STATUS_PUBLISHED),
                ).fetchone()
        except sqlite3.Error as error:
            raise RegistryError(f"cannot read {self.path}: {error}") from error
        return self._record(row) if row is not None else None

    def active_models(self) -> List[ModelRecord]:
        """The active (highest published) version of every non-retired name.

        This is the routing table the async server builds and polls: one
        record per name, in name order.
        """
        records: Dict[str, ModelRecord] = {}
        for record in self.list_models():
            current = records.get(record.name)
            if current is None or record.version > current.version:
                records[record.name] = record
        return [records[name] for name in sorted(records)]

    def list_models(
        self, name: Optional[str] = None, *, include_retired: bool = False
    ) -> List[ModelRecord]:
        """All cataloged versions, optionally filtered to one *name*."""
        query = "SELECT * FROM models"
        clauses, params = [], []
        if name is not None:
            clauses.append("name = ?")
            params.append(name)
        if not include_retired:
            clauses.append("status = ?")
            params.append(STATUS_PUBLISHED)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY name, version"
        try:
            with self._connect() as connection:
                rows = connection.execute(query, params).fetchall()
        except sqlite3.Error as error:
            raise RegistryError(f"cannot read {self.path}: {error}") from error
        return [self._record(row) for row in rows]

    def show(self, name: str, version: Optional[int] = None) -> ModelRecord:
        """One specific *version* of *name* (default: the active one).

        Raises :class:`RegistryError` when the name or version is
        unknown, naming what exists so CLI errors stay actionable.
        """
        if version is None:
            record = self.active(name)
            if record is None:
                known = sorted({r.name for r in self.list_models(include_retired=True)})
                raise RegistryError(
                    f"no active model named {name!r} in {self.path}"
                    + (f" (cataloged names: {', '.join(known)})" if known else "")
                )
            return record
        try:
            with self._connect() as connection:
                row = connection.execute(
                    "SELECT * FROM models WHERE name = ? AND version = ?",
                    (name, version),
                ).fetchone()
        except sqlite3.Error as error:
            raise RegistryError(f"cannot read {self.path}: {error}") from error
        if row is None:
            raise RegistryError(
                f"model {name!r} has no version {version} in {self.path}"
            )
        return self._record(row)

    def retire(self, name: str, version: Optional[int] = None) -> ModelRecord:
        """Mark a version (default: the active one) retired; never deletes.

        Retiring the active version promotes the next-highest published
        version (if any) to active implicitly -- ``active`` simply skips
        retired rows.
        """
        record = self.show(name, version)
        try:
            with self._connect() as connection:
                connection.execute(
                    "UPDATE models SET status = ? WHERE name = ? AND version = ?",
                    (STATUS_RETIRED, record.name, record.version),
                )
        except sqlite3.Error as error:
            raise RegistryError(
                f"cannot retire {name} v{record.version} in {self.path}: {error}"
            ) from error
        return self.show(name, record.version)


def open_registry(path) -> SqliteModelRegistry:
    """Open the registry at *path* (the single CLI/serving entry point).

    Exists so call sites select a backend by configuration in one place
    once more than sqlite is supported.
    """
    return SqliteModelRegistry(path)
