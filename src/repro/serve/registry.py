"""Model registry: named, validated, hot-reloadable pipelines.

The registry is the serving layer's view of ``repro.persistence``: it
loads saved pipeline directories (``load_pipeline`` validates each
manifest before it opens any array), keeps several named models live at
once, and supports hot reload -- when the manifest on disk changes (a
retrain overwrote the directory), the next ``maybe_reload`` swaps the
new model in atomically and bumps the entry's version so downstream
caches and worker pools know to rebuild.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.corpus.reuters import Corpus
from repro.persistence import PersistenceError, load_pipeline
from repro.pipeline import ProSysPipeline


class ModelEntry:
    """One live model: the pipeline plus its provenance.

    Attributes:
        name: registry key.
        directory: source directory (None for in-memory registrations).
        pipeline: the loaded, fitted pipeline.
        version: bumped on every (re)load; lets callers invalidate
            derived state (caches, worker pools) cheaply.
        manifest_mtime: mtime of ``manifest.json`` at load time.
    """

    def __init__(
        self,
        name: str,
        pipeline: ProSysPipeline,
        directory: Optional[Path] = None,
        manifest_mtime: Optional[float] = None,
        version: int = 1,
    ) -> None:
        self.name = name
        self.pipeline = pipeline
        self.directory = directory
        self.manifest_mtime = manifest_mtime
        self.version = version

    @property
    def categories(self) -> List[str]:
        return list(self.pipeline.suite.categories)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "directory": str(self.directory) if self.directory else None,
            "version": self.version,
            "categories": self.categories,
            "feature_method": self.pipeline.config.feature_method,
        }


class ModelRegistry:
    """Thread-safe collection of named models attached to one corpus.

    Args:
        corpus: attached to every loaded pipeline (tokeniser settings and
            vocabulary context; see :func:`repro.persistence.load_pipeline`).

    The first registered model becomes the default (requests that name no
    model get it).
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self._entries: Dict[str, ModelEntry] = {}  # guarded by _lock
        self._default: Optional[str] = None  # guarded by _lock
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, directory: Union[str, Path]) -> ModelEntry:
        """Load, validate and register a saved pipeline directory.

        Raises:
            PersistenceError: when the directory is not a valid model.
            ValueError: when ``name`` is already registered.
        """
        directory = Path(directory)
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
        entry = self._load_entry(name, directory, version=1)
        with self._lock:
            self._entries[name] = entry
            if self._default is None:
                self._default = name
        return entry

    def add_pipeline(self, name: str, pipeline: ProSysPipeline) -> ModelEntry:
        """Register an already-fitted in-memory pipeline (tests, notebooks)."""
        if not pipeline.is_fitted:
            raise ValueError("cannot register an unfitted pipeline")
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
            entry = ModelEntry(name, pipeline)
            self._entries[name] = entry
            if self._default is None:
                self._default = name
            return entry

    def unregister(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)
            if self._default == name:
                self._default = next(iter(self._entries), None)

    def set_default(self, name: str) -> ModelEntry:
        """Make ``name`` the default model (rollout promotion).

        Requests that name no model are answered by the default, so this
        is the whole traffic swap: atomic under the registry lock, no
        restart, no cache invalidation (entries are keyed per model).

        Raises:
            KeyError: unknown name.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise KeyError(
                    f"unknown model {name!r}; registered: {sorted(self._entries)}"
                )
            self._default = name
            return entry

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    @property
    def default_name(self) -> Optional[str]:
        with self._lock:
            return self._default

    def get(self, name: Optional[str] = None) -> ModelEntry:
        """The named entry (or the default when ``name`` is None).

        Raises:
            KeyError: unknown name, or no models registered.
        """
        with self._lock:
            if name is None:
                name = self._default
            if name is None:
                raise KeyError("no models registered")
            entry = self._entries.get(name)
            if entry is None:
                raise KeyError(
                    f"unknown model {name!r}; registered: {sorted(self._entries)}"
                )
            return entry

    def describe(self) -> List[dict]:
        with self._lock:
            entries = list(self._entries.values())
        return [entry.describe() for entry in entries]

    # ------------------------------------------------------------------
    # reload
    # ------------------------------------------------------------------
    def reload(self, name: Optional[str] = None) -> ModelEntry:
        """Force-reload a model from its directory (new version).

        Raises:
            PersistenceError: for in-memory models (nothing to reload
                from) or when the directory went bad.
        """
        current = self.get(name)
        if current.directory is None:
            raise PersistenceError(
                f"model {current.name!r} was registered in memory and has "
                "no directory to reload from"
            )
        entry = self._load_entry(
            current.name, current.directory, version=current.version + 1
        )
        with self._lock:
            self._entries[current.name] = entry
        return entry

    def maybe_reload(self, name: Optional[str] = None) -> bool:
        """Hot reload: reload iff ``manifest.json`` changed on disk.

        Returns True when a reload happened.  A *corrupt* rewrite raises
        (the previous model stays live), so a failed redeploy cannot take
        the service down.
        """
        current = self.get(name)
        if current.directory is None:
            return False
        manifest_path = current.directory / "manifest.json"
        if not manifest_path.exists():
            raise PersistenceError(f"model directory lost: {current.directory}")
        if manifest_path.stat().st_mtime == current.manifest_mtime:
            return False
        self.reload(current.name)
        return True

    # ------------------------------------------------------------------
    def _load_entry(self, name: str, directory: Path, version: int) -> ModelEntry:
        # The mtime is taken before the load, so a save that lands
        # mid-load leaves a newer manifest and the next poll reloads.
        manifest_path = directory / "manifest.json"
        mtime = manifest_path.stat().st_mtime if manifest_path.exists() else None
        pipeline = load_pipeline(directory, self.corpus)
        return ModelEntry(
            name,
            pipeline,
            directory=directory,
            manifest_mtime=mtime,
            version=version,
        )
