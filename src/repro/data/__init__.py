"""repro.data: content-addressed, memory-mapped encoded-dataset store.

The expensive half of the paper's pipeline is turning documents into
SOM-encoded temporal sequences.  This package persists that work: each
(corpus x encoder x category x split) gets a content address, its
sequences live in checksummed shards on disk -- each shard one float64
row block, every document's rows back to back as in a worker job
(:func:`~repro.gp.recurrent.join_rows`) -- and loading is a
``numpy.memmap`` whose per-document views are the sequences: encode
once, train and serve off the stored bytes forever after.
"""

from repro.data.fingerprint import (
    DIGEST_SIZE,
    Digest,
    category_encoder_fingerprint,
    dataset_address,
    encoding_fingerprint,
    features_fingerprint,
    serve_miss_address,
)
from repro.data.shards import (
    SHARD_DTYPE,
    ShardMeta,
    file_checksum,
    open_shard,
    write_shard,
)
from repro.data.store import (
    COMPLETE_MARKER,
    DATASET_INDEX,
    FORMAT_VERSION,
    DatasetStore,
    SequenceDataset,
    StoredDataset,
)
from repro.data.writer import DatasetWriter

__all__ = [
    "COMPLETE_MARKER",
    "DATASET_INDEX",
    "DIGEST_SIZE",
    "DatasetStore",
    "DatasetWriter",
    "Digest",
    "FORMAT_VERSION",
    "SHARD_DTYPE",
    "SequenceDataset",
    "ShardMeta",
    "StoredDataset",
    "category_encoder_fingerprint",
    "dataset_address",
    "encoding_fingerprint",
    "features_fingerprint",
    "file_checksum",
    "open_shard",
    "serve_miss_address",
    "write_shard",
]
