"""Row-block shards: the on-disk unit of the dataset store.

A shard is one flat binary file holding a bounded batch of encoded
documents as one row block (:func:`~repro.gp.recurrent.join_rows`):
every document's float64 rows back to back, in document order, with no
padding -- the block a served worker job carries.  :func:`open_shard`
memory-maps the file and cuts it back into one view per document
(:func:`~repro.gp.recurrent.split_rows`), so training and serving read
straight off disk-backed arrays and the OS page cache, not a
deserialised copy.

Everything else about a shard -- per-document row counts, document ids,
labels, optional token fingerprints, and the SHA-256 checksum of the
payload -- lives in the dataset's ``index.json`` as a
:class:`ShardMeta` record.  The checksum is verified before the payload
is mapped; a flipped bit or truncated file surfaces as a
:class:`~repro.errors.PersistenceError` naming the shard, never as a
silently-wrong model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PersistenceError
from repro.gp.recurrent import join_rows, split_rows

#: On-disk element type: little-endian float64, matching the encoders'
#: native output so round-trips are bit-identical.
SHARD_DTYPE = np.dtype("<f8")

#: Columns of an encoded row: (normalised BMU index, membership value).
N_INPUTS = 2

_CHECKSUM_CHUNK = 1 << 20


def file_checksum(path: Union[str, Path]) -> str:
    """``sha256:<hex>`` of a file's contents, read in bounded chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHECKSUM_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


@dataclass(frozen=True)
class ShardMeta:
    """Index record of one shard (everything but the payload bytes).

    Attributes:
        name: payload file name inside the dataset directory.
        n_docs: documents in the shard.
        n_inputs: columns of every row (2 for the paper's encoding).
        nbytes: payload size, ``sum(lengths) * n_inputs * 8``.
        checksum: ``sha256:<hex>`` of the payload file.
        lengths: per-document row (word) counts, in document order.
        doc_ids: document ids, in document order.
        labels: +/-1 (or 0 for unlabelled serve traffic), in document
            order.
        fingerprints: optional per-document token fingerprints, in
            document order; recorded by the serve write-back path so a
            restarted service can warm its cache without re-tokenising.
    """

    name: str
    n_docs: int
    n_inputs: int
    nbytes: int
    checksum: str
    lengths: Tuple[int, ...]
    doc_ids: Tuple[int, ...]
    labels: Tuple[int, ...]
    fingerprints: Optional[Tuple[str, ...]] = None

    def payload(self) -> dict:
        """The JSON-serialisable index entry."""
        record = {
            "name": self.name,
            "n_docs": self.n_docs,
            "n_inputs": self.n_inputs,
            "nbytes": self.nbytes,
            "checksum": self.checksum,
            "lengths": list(self.lengths),
            "doc_ids": list(self.doc_ids),
            "labels": list(self.labels),
        }
        if self.fingerprints is not None:
            record["fingerprints"] = list(self.fingerprints)
        return record

    @classmethod
    def from_payload(cls, payload: object, source: str) -> "ShardMeta":
        """Parse and structurally validate one index entry.

        Raises:
            PersistenceError: naming ``source`` when a field is missing
                or malformed.
        """
        if not isinstance(payload, dict):
            raise PersistenceError(f"{source}: shard entry must be an object")
        required = (
            "name", "n_docs", "n_inputs", "nbytes",
            "checksum", "lengths", "doc_ids", "labels",
        )
        missing = [key for key in required if key not in payload]
        if missing:
            raise PersistenceError(
                f"{source}: shard entry is missing keys: {', '.join(missing)}"
            )
        try:
            meta = cls(
                name=str(payload["name"]),
                n_docs=int(payload["n_docs"]),
                n_inputs=int(payload["n_inputs"]),
                nbytes=int(payload["nbytes"]),
                checksum=str(payload["checksum"]),
                lengths=tuple(int(v) for v in payload["lengths"]),
                doc_ids=tuple(int(v) for v in payload["doc_ids"]),
                labels=tuple(int(v) for v in payload["labels"]),
                fingerprints=(
                    tuple(str(v) for v in payload["fingerprints"])
                    if payload.get("fingerprints") is not None
                    else None
                ),
            )
        except (TypeError, ValueError) as error:
            raise PersistenceError(
                f"{source}: malformed shard entry ({error})"
            ) from error
        for field_name in ("lengths", "doc_ids", "labels"):
            if len(getattr(meta, field_name)) != meta.n_docs:
                raise PersistenceError(
                    f"{source}: shard {meta.name!r} declares {meta.n_docs} "
                    f"documents but {field_name} has "
                    f"{len(getattr(meta, field_name))} entries"
                )
        if any(length < 0 for length in meta.lengths):
            raise PersistenceError(
                f"{source}: shard {meta.name!r} has a negative row count"
            )
        if meta.fingerprints is not None and len(meta.fingerprints) != meta.n_docs:
            raise PersistenceError(
                f"{source}: shard {meta.name!r} fingerprints do not align "
                "with its documents"
            )
        return meta


def write_shard(
    directory: Union[str, Path],
    name: str,
    sequences: Sequence[np.ndarray],
    doc_ids: Sequence[int],
    labels: Sequence[int],
    fingerprints: Optional[Sequence[str]] = None,
) -> ShardMeta:
    """Write ``sequences`` as one row block; returns the shard's meta.

    A later :func:`open_shard` reads every sequence back bit for bit.
    """
    if not (len(sequences) == len(doc_ids) == len(labels)):
        raise ValueError("sequences, doc_ids and labels must align")
    lengths, block = join_rows(sequences)
    if block.size != sum(lengths) * N_INPUTS:
        raise ValueError(f"every sequence must have {N_INPUTS} columns")
    data = np.ascontiguousarray(block, dtype=SHARD_DTYPE)
    path = Path(directory) / name
    data.tofile(path)
    return ShardMeta(
        name=name,
        n_docs=len(sequences),
        n_inputs=N_INPUTS,
        nbytes=data.nbytes,
        checksum=file_checksum(path),
        lengths=tuple(lengths),
        doc_ids=tuple(int(v) for v in doc_ids),
        labels=tuple(int(v) for v in labels),
        fingerprints=tuple(fingerprints) if fingerprints is not None else None,
    )


def open_shard(
    directory: Union[str, Path], meta: ShardMeta, verify: bool = True
) -> List[np.ndarray]:
    """Memory-map one shard; each document's rows are a view of the map.

    Args:
        verify: check the SHA-256 payload checksum before mapping
            (one sequential read; skip only when the caller just wrote
            the file itself).

    Raises:
        PersistenceError: missing payload, size mismatch (truncation),
            or checksum mismatch (corruption) -- always naming the file.
    """
    path = Path(directory) / meta.name
    if not path.exists():
        raise PersistenceError(f"{path}: shard payload is missing")
    rows = sum(meta.lengths)
    expected = rows * meta.n_inputs * SHARD_DTYPE.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise PersistenceError(
            f"{path}: shard payload is {actual} bytes, expected {expected} "
            "(truncated or corrupt)"
        )
    if verify:
        checksum = file_checksum(path)
        if checksum != meta.checksum:
            raise PersistenceError(
                f"{path}: shard checksum mismatch ({checksum} != "
                f"{meta.checksum}); the payload is corrupt"
            )
    if rows == 0:
        # An empty file cannot be mapped; its documents are all empty.
        block: np.ndarray = np.empty((0, meta.n_inputs), dtype=SHARD_DTYPE)
    else:
        block = np.memmap(
            path, dtype=SHARD_DTYPE, mode="r", shape=(rows, meta.n_inputs)
        )
    return split_rows(block, meta.lengths)
