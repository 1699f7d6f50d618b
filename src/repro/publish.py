"""Publishing files and directories at the addresses readers open.

Model directories, checkpoint stages and dataset-store entries are read
while they are being rewritten, and a kill can land at any point.  This
module is the one place in ``repro`` that replaces or removes what sits
at such an address, and each operation keeps one invariant:

* :func:`publish_file` writes the bytes beside their target and moves
  them in with ``os.replace``: a reader opens the old file or the new
  one, never part of either;
* :func:`publish_directory` seals a staging directory with
  :data:`COMPLETE_MARKER`, renames any directory already at the address
  aside, renames the new one in, and only then removes the retired one:
  a reader sees the old entry whole, no entry, or the new entry whole,
  never a sealed but gutted one;
* :func:`remove_directory` renames the entry aside before removing it,
  so it is whole until it is gone;
* :func:`remove_file` unlinks, which is atomic by itself.

A killed publish leaves only its staging or retired directory, both of
which sit where readers never look (a ``.tmp-`` name or a store's
``tmp/`` area).  Nothing is fsynced: the invariants are for a killed
process, not for a machine that loses power.

Stdlib only, like :mod:`repro.errors`, so every layer can import it.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

__all__ = [
    "COMPLETE_MARKER",
    "publish_directory",
    "publish_file",
    "remove_directory",
    "remove_file",
]

#: Marker file sealing a published directory, written last.
COMPLETE_MARKER = "_COMPLETE"


def publish_file(path: Path, data: bytes) -> Path:
    """Write ``data`` to a temporary file beside ``path``, then
    ``os.replace`` it into place."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temporary, "xb") as handle:
            handle.write(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


def publish_directory(staging: Path, address: Path) -> Path:
    """Seal ``staging`` and move it to ``address``; returns ``address``.

    The directory already at ``address``, if any, is retired to
    ``<staging>.retired`` -- beside the staging directory, so wherever
    the caller keeps what readers skip -- and removed once the new one
    is in.  When another publish to the same address lands between the
    two renames, the sealed directory it left is kept and ``staging``
    is dropped.
    """
    staging, address = Path(staging), Path(address)
    (staging / COMPLETE_MARKER).touch()
    address.parent.mkdir(parents=True, exist_ok=True)
    retired = staging.with_name(f"{staging.name}.retired")
    shutil.rmtree(retired, ignore_errors=True)  # left by a killed publish
    try:
        os.rename(address, retired)
    except FileNotFoundError:
        pass  # nothing published there yet
    try:
        os.rename(staging, address)
    except OSError:
        if not (address / COMPLETE_MARKER).exists():
            raise
        shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(retired, ignore_errors=True)
    return address


def remove_directory(address: Path, aside: Path) -> None:
    """Remove the directory at ``address``, if any, by renaming it to
    ``aside`` (a path readers never open) and deleting it there."""
    try:
        os.rename(address, aside)
    except FileNotFoundError:
        return
    shutil.rmtree(aside, ignore_errors=True)


def remove_file(path: Path) -> None:
    """Remove the file at ``path``, if any."""
    Path(path).unlink(missing_ok=True)
