"""Resource sanitizer: shared-memory leak detection, memmap census.

``multiprocessing.shared_memory`` segments are kernel objects: a
segment created with ``create=True`` and never ``unlink()``-ed outlives
the process in ``/dev/shm`` until a reboot.  Serving creates none (a
worker job is one queue message), so any segment a run leaves behind
is a leak from code that should not be making them.  ``install()``
swaps the ``SharedMemory`` class for a tracking subclass;
:func:`leaked_segments` names everything still unlinked — the pytest
plugin turns a non-empty answer at session end into ``shm_leak``
violations.

Memmaps are censused but never flagged: stored datasets (and the
serving LRU warmed from them) hold them open by design, so "still open
at exit" is normal.  The count lands in the JSON report for eyeballing
trends.
"""

from __future__ import annotations

import _thread
from typing import Dict, List

from repro.analysis.sanitize.report import COLLECTOR, Violation

_state_lock = _thread.allocate_lock()
#: install() nesting depth (see locks._install_count)
_install_count = 0
_original_shm = None
_original_memmap = None

#: shm name -> creation description, removed on unlink()
_live_segments: Dict[str, str] = {}
_memmap_opens = 0


def _make_tracking_shm(base):
    class TrackedSharedMemory(base):
        """SharedMemory that reports create/unlink to the sanitizer."""

        def __init__(self, name=None, create=False, size=0, **kwargs):
            super().__init__(name=name, create=create, size=size, **kwargs)
            if create:
                with _state_lock:
                    _live_segments[self.name] = (
                        f"created size={size}"
                    )

        def unlink(self) -> None:
            with _state_lock:
                _live_segments.pop(self.name, None)
            super().unlink()

    return TrackedSharedMemory


def _make_tracking_memmap(base):
    class TrackedMemmap(base):
        def __new__(subtype, *args, **kwargs):
            global _memmap_opens
            with _state_lock:
                _memmap_opens += 1
            return super().__new__(subtype, *args, **kwargs)

    return TrackedMemmap


def install() -> None:
    global _install_count, _original_shm, _original_memmap
    _install_count += 1
    if _install_count > 1:
        return
    try:
        from multiprocessing import shared_memory
    except ImportError:
        shared_memory = None
    if shared_memory is not None:
        _original_shm = shared_memory.SharedMemory
        shared_memory.SharedMemory = _make_tracking_shm(_original_shm)
    try:
        import numpy as np
    except ImportError:
        np = None
    if np is not None:
        _original_memmap = np.memmap
        np.memmap = _make_tracking_memmap(_original_memmap)


def uninstall() -> None:
    global _install_count
    if _install_count == 0:
        return
    _install_count -= 1
    if _install_count > 0:
        return
    if _original_shm is not None:
        from multiprocessing import shared_memory

        shared_memory.SharedMemory = _original_shm
    if _original_memmap is not None:
        import numpy as np

        np.memmap = _original_memmap


def reset() -> None:
    global _memmap_opens
    with _state_lock:
        _live_segments.clear()
        _memmap_opens = 0


def restore(segments: Dict[str, str], memmap_opens: int) -> None:
    """Re-seed resource accounting (self-test save/restore)."""
    global _memmap_opens
    with _state_lock:
        _live_segments.update(segments)
        _memmap_opens += memmap_opens


def leaked_segments() -> Dict[str, str]:
    with _state_lock:
        return dict(_live_segments)


def memmap_open_count() -> int:
    with _state_lock:
        return _memmap_opens


def finalize() -> List[Violation]:
    """Turn still-linked segments into violations (call at exit)."""
    found: List[Violation] = []
    for name, desc in sorted(leaked_segments().items()):
        violation = Violation(
            kind="shm_leak",
            message=(
                f"shared-memory segment {name} never unlinked ({desc})"
            ),
            witness=name,
        )
        COLLECTOR.record(violation)
        found.append(violation)
    return found
