"""Bounded-memory streaming writer with atomic commit.

A :class:`DatasetWriter` accumulates encoded documents and flushes them
to shard files as soon as either bound (:data:`SHARD_DOCS` documents or
:data:`SHARD_BYTES` bytes of rows) is reached, so materialising a corpus
never holds more than one shard in memory.  Everything is written into
a private temp directory in the store's ``tmp/`` area; :meth:`commit`
writes the index and hands the directory to
:func:`repro.publish.publish_directory`, which seals it with the
``_COMPLETE`` marker and renames it to its content address.  Invariant:
a reader finds the old dataset whole, no dataset, or the new one whole
-- never a half-written one -- and whatever a crash leaves in ``tmp/``
is swept by the store on its next construction.

Incremental ingest: :meth:`link_shards_from` adopts the sealed shards of
an existing dataset (hard-linking when the filesystem allows, copying
otherwise) so growing a corpus re-encodes only the new documents --
encode once, append forever.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from repro.data.shards import N_INPUTS, ShardMeta, write_shard
from repro.errors import PersistenceError
from repro.publish import publish_directory

#: Shard bounds: whichever is hit first triggers a flush.  Read at each
#: add, so a test can lower them to spread a dataset over several shards.
SHARD_DOCS = 2048
SHARD_BYTES = 64 << 20


class DatasetWriter:
    """Streams encoded documents into a new (unpublished) dataset.

    Obtained from :meth:`repro.data.store.DatasetStore.writer`; not
    constructed directly.  Usable as a context manager -- leaving the
    block on an exception aborts (temp directory removed), a normal exit
    without :meth:`commit` also aborts, so a dataset only ever becomes
    visible through an explicit, completed commit.

    Args:
        directory: private temp directory in the ``tmp/`` area of the
            store root, so the publishing rename never crosses
            filesystems; the dataset is published at ``key``'s address
            under that root.
        key: the content address being written.
        on_shard: callback invoked with each sealed :class:`ShardMeta`
            (the store counts shards here).
    """

    def __init__(
        self,
        directory: Path,
        key: str,
        on_shard: Optional[Callable[[ShardMeta], None]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.key = key
        self.metas: List[ShardMeta] = []
        self._on_shard = on_shard
        self._sequences: List[np.ndarray] = []
        self._doc_ids: List[int] = []
        self._labels: List[int] = []
        self._fingerprints: List[Optional[str]] = []
        self._nbytes = 0  # bytes of the buffered rows
        self._seen_fingerprints: Set[str] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def n_documents(self) -> int:
        return sum(meta.n_docs for meta in self.metas) + len(self._sequences)

    def add(
        self,
        doc_id: int,
        label: int,
        sequence: np.ndarray,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Append one encoded document, flushing a shard when full.

        Args:
            label: +/-1 supervision, or 0 for unlabelled (serve traffic).
            fingerprint: optional token fingerprint; documents whose
                fingerprint was already written are skipped (idempotent
                write-back ingest).
        """
        self._require_open()
        if label not in (-1, 0, 1):
            raise ValueError(f"label must be -1, 0 or +1, got {label!r}")
        if fingerprint is not None:
            if fingerprint in self._seen_fingerprints:
                return
            self._seen_fingerprints.add(fingerprint)
        sequence = np.asarray(sequence, dtype=float).reshape(-1, N_INPUTS)
        self._sequences.append(sequence)
        self._doc_ids.append(int(doc_id))
        self._labels.append(int(label))
        self._fingerprints.append(fingerprint)
        self._nbytes += sequence.nbytes
        if len(self._sequences) >= SHARD_DOCS or self._nbytes >= SHARD_BYTES:
            self.flush()

    def add_dataset(self, dataset) -> None:
        """Append every document of an :class:`EncodedDataset`."""
        for doc in dataset.documents:
            self.add(doc.doc_id, doc.label, doc.sequence)

    def link_shards_from(self, stored) -> int:
        """Adopt the sealed shards of an existing :class:`StoredDataset`.

        Returns the number of documents adopted.  Their fingerprints (if
        recorded) join the dedup set, so a subsequent :meth:`add` of an
        already-stored document is a no-op.
        """
        self._require_open()
        if self._sequences:
            # Keep document order stable: adopted shards go first.
            raise RuntimeError("link_shards_from must run before any add()")
        adopted = 0
        for meta in stored.shard_metas:
            source = stored.directory / meta.name
            target = self.directory / self._next_shard_name()
            try:
                os.link(source, target)
            except OSError:
                shutil.copy2(source, target)
            self.metas.append(dataclasses.replace(meta, name=target.name))
            if meta.fingerprints is not None:
                self._seen_fingerprints.update(
                    fp for fp in meta.fingerprints if fp
                )
            adopted += meta.n_docs
        return adopted

    def flush(self) -> Optional[ShardMeta]:
        """Seal the buffered documents into a shard (no-op when empty)."""
        self._require_open()
        if not self._sequences:
            return None
        fingerprints: Optional[Sequence[str]] = None
        if any(fp is not None for fp in self._fingerprints):
            fingerprints = [fp or "" for fp in self._fingerprints]
        meta = write_shard(
            self.directory,
            self._next_shard_name(),
            self._sequences,
            self._doc_ids,
            self._labels,
            fingerprints=fingerprints,
        )
        self.metas.append(meta)
        self._sequences = []
        self._doc_ids = []
        self._labels = []
        self._fingerprints = []
        self._nbytes = 0
        if self._on_shard is not None:
            self._on_shard(meta)
        return meta

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def commit(self, extra_meta: Optional[dict] = None) -> Path:
        """Flush, seal and atomically publish the dataset.

        Returns the final dataset directory.

        The index and the ``_COMPLETE`` marker are written inside the
        temp directory *before* the rename, so the published directory
        is complete the instant it exists.
        """
        # Imported here: store <-> writer would otherwise be circular.
        from repro.data.store import dataset_path

        self._require_open()
        self.flush()
        self._write_index(extra_meta or {})
        self._closed = True
        root = self.directory.parent.parent  # <root>/tmp/<directory>
        return publish_directory(self.directory, dataset_path(root, self.key))

    def abort(self) -> None:
        """Discard everything written so far (idempotent)."""
        self._closed = True
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.abort()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _next_shard_name(self) -> str:
        return f"shard-{len(self.metas):05d}.bin"

    def _write_index(self, extra_meta: dict) -> None:
        # Imported here: store <-> writer would otherwise be circular.
        from repro.data.store import DATASET_INDEX, FORMAT_VERSION
        import json

        payload = {
            "format_version": FORMAT_VERSION,
            "key": self.key,
            "n_documents": self.n_documents,
            "shards": [meta.payload() for meta in self.metas],
        }
        payload.update(extra_meta)
        (self.directory / DATASET_INDEX).write_text(json.dumps(payload, indent=2))

    def _require_open(self) -> None:
        if self._closed:
            raise PersistenceError(
                f"dataset writer for {self.key} is already committed or aborted"
            )
