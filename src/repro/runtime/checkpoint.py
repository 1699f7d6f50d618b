"""Stage-level checkpointing of a training run.

A :class:`CheckpointStore` owns one run directory.  Every completed
training stage (character SOM, each per-category word SOM, each
per-category RLGP classifier) is written into a ``.tmp-`` staging
directory under ``<run_dir>/stages/`` and published to its own
sub-directory by :func:`repro.publish.publish_directory`, which seals it
with the ``_COMPLETE`` marker and swaps it in.  Invariant: a stage is
never sealed but gutted -- :meth:`CheckpointStore.has` is False (the
stage is recomputed on resume) or the old or the new stage loads whole,
even when a re-save over an existing stage is killed mid-replace -- so a
killed ``fit`` picks up exactly where it stopped instead of restarting.

Corrupt state (marker present but contents unreadable) raises
:class:`~repro.errors.PersistenceError` naming the stage, rather than
silently retraining or crashing deep inside reconstruction.
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path
from typing import Callable, List, TypeVar, Union

from repro.errors import PersistenceError
from repro.publish import COMPLETE_MARKER, publish_directory

T = TypeVar("T")

_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _sanitize(name: str) -> str:
    """A filesystem-safe directory name for a stage path."""
    if not name:
        raise ValueError("stage name must be non-empty")
    return _SAFE_CHARS.sub(
        lambda match: "__" if match.group() == "/" else "_", name
    )


class CheckpointStore:
    """Persists and restores completed training stages in a run directory.

    Args:
        run_dir: the run's directory; created on first use.  The same
            path handed to a later run resumes it.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self._stages_dir = self.run_dir / "stages"
        self._stages_dir.mkdir(parents=True, exist_ok=True)

    def stage_dir(self, name: str) -> Path:
        """The directory holding stage ``name`` (may not exist yet)."""
        return self._stages_dir / _sanitize(name)

    def has(self, name: str) -> bool:
        """Whether stage ``name`` completed (its marker exists)."""
        return (self.stage_dir(name) / COMPLETE_MARKER).exists()

    def completed(self) -> List[str]:
        """Directory names of every sealed stage (sorted)."""
        return sorted(
            entry.name
            for entry in self._stages_dir.iterdir()
            if entry.is_dir()
            and not entry.name.startswith(".tmp-")
            and (entry / COMPLETE_MARKER).exists()
        )

    def save(self, name: str, writer: Callable[[Path], None]) -> Path:
        """Run ``writer`` in a staging directory, then publish it as
        stage ``name``.

        The stage is materialised in a ``.tmp-`` sibling (a leftover from
        an earlier attempt is swept first) and handed to
        :func:`~repro.publish.publish_directory`, so a crash at any point
        leaves the previous sealed stage, no stage, or the new one --
        never a half-written or half-removed published one.
        """
        directory = self.stage_dir(name)
        staging = self._stages_dir / f".tmp-{directory.name}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            writer(staging)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return publish_directory(staging, directory)

    def load(self, name: str, reader: Callable[[Path], T]) -> T:
        """Restore stage ``name`` via ``reader(stage_dir)``.

        Raises:
            PersistenceError: when the stage was never sealed, or its
                contents fail to load (corruption) -- the message names
                the stage and directory.
        """
        directory = self.stage_dir(name)
        if not self.has(name):
            raise PersistenceError(
                f"checkpoint stage {name!r} is not complete in {self.run_dir}"
            )
        try:
            return reader(directory)
        except PersistenceError as error:
            raise PersistenceError(
                f"checkpoint stage {name!r} in {directory} is corrupt: {error}"
            ) from error
        except (OSError, EOFError, ValueError, KeyError, IndexError,
                TypeError) as error:
            # The failure modes of json/np.load on damaged bytes -- a
            # deliberate list, not Exception, so programming errors in a
            # reader surface as themselves.
            raise PersistenceError(
                f"checkpoint stage {name!r} in {directory} is corrupt: "
                f"{type(error).__name__}: {error}"
            ) from error
