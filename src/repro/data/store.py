"""The content-addressed, memory-mapped dataset store.

``DatasetStore`` owns a directory tree of immutable encoded datasets::

    <root>/
      ab/ab12cd.../          one dataset, at its content address
        index.json           provenance + shard index (+ checksums)
        shard-00000.bin      packed float64 payload (memmapped on read)
        _COMPLETE            sealing marker, written last
      tmp/                   in-flight writers (swept on construction)

Datasets are *encoded sequences*, not documents: the expensive output of
the hierarchical-SOM pipeline, keyed by
:func:`repro.data.fingerprint.dataset_address` so any change to the
corpus, the encoder weights, the feature selection or the encoding
parameters misses cleanly.  :meth:`get_or_encode` is the one call sites
use: hit -> a :class:`StoredDataset` whose sequences are zero-copy
memmap views; miss -> encode, persist, return.  Corruption (checksum or
index damage) is surfaced as a
:class:`~repro.errors.PersistenceError`, counted, the damaged dataset
discarded, and the caller transparently falls back to re-encoding.

Serving reads the store in its own process only: ``serve --store``
warms the encoded-sequence LRU from a model's serve-miss dataset and
writes misses back, and worker processes receive the sequences inside
their job messages, never a store reference.

Observability: hit/miss/corruption/shard/byte counters live on a
:class:`~repro.serve.metrics.MetricsRegistry` -- by default the shared
process-wide registry that ``repro.serve`` merges into ``/metrics`` --
and per-shard progress events go to any
:class:`~repro.runtime.events.EventBus` attached.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.fingerprint import dataset_address
from repro.data.shards import ShardMeta, open_shard, shard_sequences
from repro.data.writer import DEFAULT_SHARD_BYTES, DEFAULT_SHARD_DOCS, DatasetWriter
from repro.errors import PersistenceError
from repro.gp.recurrent import PackedSequences
from repro.runtime.events import Event, EventBus

FORMAT_VERSION = 1

DATASET_INDEX = "index.json"

#: Sealing marker, written last (same discipline as runtime checkpoints).
COMPLETE_MARKER = "_COMPLETE"


class SequenceDataset:
    """A labelled sequence set quacking like ``EncodedDataset``.

    The RLGP training stack only consumes ``category`` / ``sequences`` /
    ``labels`` / ``len`` (plus ``subset`` for ablations), so datasets
    loaded from the store -- which persists sequences, not words --
    satisfy it through this lightweight view instead of fabricating
    :class:`~repro.encoding.representation.EncodedDocument` records.
    """

    def __init__(
        self,
        category: str,
        sequences: List[np.ndarray],
        labels: np.ndarray,
        doc_ids: Sequence[int],
    ) -> None:
        self.category = category
        self._sequences = sequences
        self._labels = np.asarray(labels, dtype=float)
        self.doc_ids = tuple(int(d) for d in doc_ids)

    @property
    def sequences(self) -> List[np.ndarray]:
        return list(self._sequences)

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def __len__(self) -> int:
        return len(self._sequences)

    def subset(self, indices: Sequence[int]) -> "SequenceDataset":
        indices = list(indices)
        return SequenceDataset(
            category=self.category,
            sequences=[self._sequences[i] for i in indices],
            labels=self._labels[indices],
            doc_ids=[self.doc_ids[i] for i in indices],
        )


class StoredDataset(SequenceDataset):
    """One sealed dataset, opened read-only off its memmapped shards."""

    def __init__(
        self,
        key: str,
        directory: Path,
        payload: dict,
        shard_metas: List[ShardMeta],
        packed_shards: List[PackedSequences],
    ) -> None:
        sequences: List[np.ndarray] = []
        doc_ids: List[int] = []
        labels: List[int] = []
        fingerprints: List[Optional[str]] = []
        for meta, packed in zip(shard_metas, packed_shards):
            sequences.extend(shard_sequences(packed))
            doc_ids.extend(meta.doc_ids)
            labels.extend(meta.labels)
            if meta.fingerprints is not None:
                fingerprints.extend(fp or None for fp in meta.fingerprints)
            else:
                fingerprints.extend([None] * meta.n_docs)
        super().__init__(
            category=str(payload.get("category", "")),
            sequences=sequences,
            labels=np.asarray(labels, dtype=float),
            doc_ids=doc_ids,
        )
        self.key = key
        self.directory = directory
        self.meta = payload
        self.split = str(payload.get("split", ""))
        self.n_inputs = int(payload.get("n_inputs", 2))
        self.shard_metas = shard_metas
        self._packed_shards = packed_shards
        self.fingerprints: Tuple[Optional[str], ...] = tuple(fingerprints)

    @property
    def nbytes(self) -> int:
        return sum(meta.nbytes for meta in self.shard_metas)

    def packed(self) -> PackedSequences:
        """The whole dataset as one :class:`PackedSequences`.

        Single-shard datasets (the common case under the default shard
        bounds) return the memmap-backed pack itself -- zero copies all
        the way into the evaluator.  Multi-shard datasets are merged,
        which re-pads across shard boundaries.
        """
        if len(self._packed_shards) == 1:
            return self._packed_shards[0]
        return PackedSequences.from_sequences(self.sequences, self.n_inputs)


def dataset_path(root: Union[str, Path], key: str) -> Path:
    """The dataset directory for ``key`` under ``root`` (may not exist)."""
    if not key or any(c in key for c in "/\\."):
        raise ValueError(f"malformed dataset key {key!r}")
    return Path(root) / key[:2] / key


def _read_index_payload(directory: Path) -> dict:
    index_path = directory / DATASET_INDEX
    if not index_path.exists():
        raise PersistenceError(f"{directory}: dataset has no {DATASET_INDEX}")
    try:
        payload = json.loads(index_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise PersistenceError(
            f"{index_path}: dataset index is unreadable ({error})"
        ) from error
    if not isinstance(payload, dict):
        raise PersistenceError(f"{index_path}: expected a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"{index_path}: unsupported dataset format "
            f"{payload.get('format_version')!r} (expected {FORMAT_VERSION})"
        )
    return payload


class DatasetStore:
    """Content-addressed store of encoded datasets under one root.

    Args:
        root: store directory (created on first use).
        metrics: metrics registry for the store counters; defaults to
            the process-wide shared registry
            (:func:`repro.gp.engine.shared_metrics`), which the serving
            layer already folds into its ``/metrics`` exposition.
        events: optional event bus for per-shard/per-dataset progress.
        verify_checksums: verify shard SHA-256s on open (default; turn
            off only for benchmarks isolating raw memmap cost).
        shard_docs / shard_bytes: writer flush bounds.
    """

    def __init__(
        self,
        root: Union[str, Path],
        metrics=None,
        events: Optional[EventBus] = None,
        verify_checksums: bool = True,
        shard_docs: int = DEFAULT_SHARD_DOCS,
        shard_bytes: int = DEFAULT_SHARD_BYTES,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.events = events
        self.verify_checksums = verify_checksums
        self.shard_docs = shard_docs
        self.shard_bytes = shard_bytes
        if metrics is None:
            from repro.gp.engine import shared_metrics

            metrics = shared_metrics()
        self.metrics = metrics
        self._counters = {
            name: metrics.counter(f"data_store_{name}_total", help_text)
            for name, help_text in (
                ("hits", "dataset store hits"),
                ("misses", "dataset store misses"),
                ("corrupt", "datasets discarded as corrupt"),
                ("datasets_written", "datasets sealed"),
                ("shards_written", "shards sealed"),
                ("shards_read", "shards opened"),
                ("mmap_bytes", "bytes memory-mapped from shards"),
                ("encoded_documents", "documents encoded on store misses"),
            )
        }
        self._load_seconds = metrics.histogram(
            "data_store_load_seconds", "dataset open latency"
        )
        self._encode_seconds = metrics.histogram(
            "data_store_encode_seconds", "miss re-encode latency"
        )
        self._stats_lock = threading.Lock()
        self._local = {name: 0 for name in self._counters}  # guarded by _stats_lock
        self._write_locks: Dict[str, threading.Lock] = {}  # guarded by _write_locks_guard
        self._write_locks_guard = threading.Lock()
        self._sweep_tmp()

    # ------------------------------------------------------------------
    # addressing and layout
    # ------------------------------------------------------------------
    def dataset_key(
        self, tokenized, feature_set, encoder, category: str, split: str
    ) -> str:
        """The content address of one (corpus x encoder x category x split)."""
        return dataset_address(tokenized, feature_set, encoder, category, split)

    def path_for(self, key: str) -> Path:
        """The dataset directory for ``key`` (may not exist)."""
        return dataset_path(self.root, key)

    def has(self, key: str) -> bool:
        """Whether a sealed dataset exists at ``key``."""
        return (self.path_for(key) / COMPLETE_MARKER).exists()

    def keys(self) -> List[str]:
        """Every sealed dataset address (sorted)."""
        found = []
        for prefix in self.root.iterdir():
            if not prefix.is_dir() or prefix.name == "tmp":
                continue
            for entry in prefix.iterdir():
                if (entry / COMPLETE_MARKER).exists():
                    found.append(entry.name)
        return sorted(found)

    def discard(self, key: str) -> None:
        """Drop a dataset (used on corruption; re-encoding recreates it)."""
        directory = self.path_for(key)
        if directory.exists():
            shutil.rmtree(directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def open(self, key: str, verify: Optional[bool] = None) -> StoredDataset:
        """Open a sealed dataset, verifying shard checksums.

        Raises:
            PersistenceError: unsealed/missing dataset, malformed index,
                truncated or corrupt shard -- always naming the path.
        """
        verify = self.verify_checksums if verify is None else verify
        start = time.perf_counter()
        directory = self.path_for(key)
        if not (directory / COMPLETE_MARKER).exists():
            raise PersistenceError(f"no sealed dataset {key} in {self.root}")
        payload = _read_index_payload(directory)
        source = str(directory / DATASET_INDEX)
        if payload.get("key") not in (None, key):
            raise PersistenceError(
                f"{source}: index is for key {payload.get('key')!r}, "
                f"not {key!r}"
            )
        shards_payload = payload.get("shards")
        if not isinstance(shards_payload, list):
            raise PersistenceError(f"{source}: 'shards' must be a list")
        metas = [ShardMeta.from_payload(entry, source) for entry in shards_payload]
        packed = [open_shard(directory, meta, verify=verify) for meta in metas]
        stored = StoredDataset(key, directory, payload, metas, packed)
        self._count("shards_read", len(stored.shard_metas))
        self._count("mmap_bytes", stored.nbytes)
        self._load_seconds.observe(time.perf_counter() - start)
        self._emit(
            "data_dataset_opened",
            key=key,
            n_documents=len(stored),
            n_shards=len(stored.shard_metas),
            nbytes=stored.nbytes,
        )
        return stored

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def writer(self, key: str, n_inputs: int = 2) -> DatasetWriter:
        """A streaming writer targeting ``key`` (publish via commit)."""
        self.path_for(key)  # validate the key early
        tmp_root = self.root / "tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        directory = Path(
            tempfile.mkdtemp(prefix=f"{key[:12]}-", dir=tmp_root)
        )
        return DatasetWriter(
            directory,
            key,
            n_inputs=n_inputs,
            shard_docs=self.shard_docs,
            shard_bytes=self.shard_bytes,
            on_shard=lambda meta: self._on_shard(key, meta),
            publish=self._publish,
        )

    def ingest(
        self,
        key: str,
        items: Sequence[Tuple[int, int, np.ndarray, Optional[str]]],
        extra_meta: Optional[dict] = None,
        extend: bool = True,
    ) -> Optional[StoredDataset]:
        """Append ``(doc_id, label, sequence, fingerprint)`` items at ``key``.

        Incremental ingest: when the dataset already exists (and
        ``extend``), its sealed shards are adopted (hard-linked, not
        re-encoded) and only genuinely new documents -- deduplicated by
        fingerprint -- are packed into fresh shards.  Returns the
        re-opened dataset, or None when everything was a duplicate.

        The read-extend-publish cycle is serialized per key (concurrent
        ingests of the same key would each adopt the same base shards
        and the last publish would silently drop the other's documents;
        retiring the old dataset could also yank hard-link sources out
        from under a writer still adopting them).
        """
        with self._write_lock(key):
            with self.writer(key) as writer:
                if extend and self.has(key):
                    try:
                        writer.link_shards_from(self.open(key))
                    except PersistenceError:
                        self._count("corrupt")
                        self.discard(key)
                before = writer.n_documents
                for doc_id, label, sequence, fingerprint in items:
                    writer.add(doc_id, label, sequence, fingerprint=fingerprint)
                if writer.n_documents == before and self.has(key):
                    writer.abort()  # nothing new; keep the sealed dataset
                    return None
                writer.commit(extra_meta)
            return self.open(key, verify=False)

    def write_dataset(
        self, key: str, dataset, extra_meta: Optional[dict] = None
    ) -> Path:
        """Persist an :class:`EncodedDataset` at ``key`` (full rewrite)."""
        with self._write_lock(key):
            with self.writer(key) as writer:
                writer.add_dataset(dataset)
                return writer.commit(extra_meta)

    # ------------------------------------------------------------------
    # the call-site API
    # ------------------------------------------------------------------
    def get_or_encode(
        self,
        tokenized,
        feature_set,
        encoder,
        category: str,
        split: str,
        ctx=None,
    ):
        """The store-backed replacement for ``encoder.encode_dataset``.

        Hit: the stored dataset, scoring off memmapped shards.  Miss (or
        corruption, after discarding the damaged dataset): encode from
        scratch, persist, and return the freshly encoded dataset --
        either way the sequences are bit-identical.

        Args:
            ctx: optional :class:`~repro.runtime.context.RunContext`;
                hit/miss/corruption and per-shard progress are emitted
                as runtime events on it.
        """
        key = self.dataset_key(tokenized, feature_set, encoder, category, split)
        if self.has(key):
            try:
                stored = self.open(key)
                self._count("hits")
                if ctx is not None:
                    ctx.emit(
                        "dataset_store_hit",
                        key=key,
                        category=category,
                        split=split,
                        n_documents=len(stored),
                    )
                return stored
            except PersistenceError as error:
                self._count("corrupt")
                self.discard(key)
                self._emit("data_dataset_corrupt", key=key, error=str(error))
                if ctx is not None:
                    ctx.emit(
                        "dataset_store_corrupt",
                        key=key,
                        category=category,
                        split=split,
                        error=str(error),
                    )
        self._count("misses")
        if ctx is not None:
            ctx.emit(
                "dataset_store_miss", key=key, category=category, split=split
            )
        with self._encode_seconds.time():
            dataset = encoder.encode_dataset(tokenized, feature_set, category, split)
        self._count("encoded_documents", len(dataset))
        self.write_dataset(
            key,
            dataset,
            extra_meta={
                "category": category,
                "split": split,
                "corpus": tokenized.fingerprint(split),
            },
        )
        if ctx is not None:
            ctx.emit(
                "dataset_store_written",
                key=key,
                category=category,
                split=split,
                n_documents=len(dataset),
            )
        return dataset

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """This store's own activity (process counters may be shared)."""
        with self._stats_lock:
            return dict(self._local)

    def stats_line(self) -> str:
        """One-line summary for CLI output."""
        s = self.stats()
        return (
            f"hits={s['hits']} misses={s['misses']} "
            f"encoded={s['encoded_documents']} corrupt={s['corrupt']} "
            f"shards_written={s['shards_written']} "
            f"mmap_bytes={s['mmap_bytes']}"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _write_lock(self, key: str) -> threading.Lock:
        """The per-key lock serializing writes (ingest / full rewrite)."""
        with self._write_locks_guard:
            return self._write_locks.setdefault(key, threading.Lock())

    def _count(self, name: str, amount: int = 1) -> None:
        # The store is called from serve threads; the read-modify-write
        # on the local tally needs the same discipline as the shared
        # counters (which lock internally).
        with self._stats_lock:
            self._local[name] += amount
        self._counters[name].inc(amount)

    def _emit(self, kind: str, **payload) -> None:
        if self.events is not None:
            key = payload.get("key", "")
            self.events.emit(
                Event(kind=kind, path=f"data/{key[:12]}", payload=payload)
            )

    def _on_shard(self, key: str, meta: ShardMeta) -> None:
        self._count("shards_written")
        self._emit(
            "data_shard_written",
            key=key,
            shard=meta.name,
            n_docs=meta.n_docs,
            nbytes=meta.nbytes,
        )

    def _publish(self, tmp_directory: Path, key: str) -> Path:
        """Atomically move a sealed temp directory to its address."""
        final = self.path_for(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        if final.exists():
            # Replace: retire the old dataset first (rename is atomic,
            # the retired copy is swept with the temp area).
            retired = self.root / "tmp" / f"retired-{key[:12]}-{uuid.uuid4().hex}"
            final.rename(retired)
            try:
                tmp_directory.rename(final)
            finally:
                shutil.rmtree(retired, ignore_errors=True)
        else:
            try:
                tmp_directory.rename(final)
            except OSError:
                if self.has(key):
                    # A concurrent writer published first; same content
                    # address means same content -- discard ours.
                    shutil.rmtree(tmp_directory, ignore_errors=True)
                else:
                    raise
        self._count("datasets_written")
        self._emit("data_dataset_sealed", key=key)
        return final

    def _sweep_tmp(self) -> None:
        tmp_root = self.root / "tmp"
        if not tmp_root.exists():
            return
        for entry in tmp_root.iterdir():
            shutil.rmtree(entry, ignore_errors=True)
