"""Fixture: lock-discipline, atomic-publish and except-hygiene violations."""

import shutil
import threading
from pathlib import Path

PersistenceError = RuntimeError


class LeakyStore:
    def __init__(self, root):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._tally = 0  # guarded by _lock

    def path_for(self, key):
        return self.root / key

    def locked_bump(self):
        with self._lock:
            self._tally += 1  # fine: inside the declared lock

    def racy_bump(self):
        self._tally += 1  # REPRO-L001: guarded attr outside its lock

    def sneaky_write(self, key, text):
        target = self.path_for(key)
        target.write_text(text)  # REPRO-L003: direct write to published path

    def sneaky_rename(self, staging, key):
        staging.rename(self.path_for(key))  # REPRO-L003: rename onto published path

    def sneaky_remove(self, key):
        shutil.rmtree(self.path_for(key))  # REPRO-L003: in-place removal

    def swallow(self):
        try:
            self.locked_bump()
        except Exception:  # REPRO-L004: broad except, swallowed
            pass

    def swallow_persistence(self):
        try:
            self.locked_bump()
        except PersistenceError:  # REPRO-L004: PersistenceError discarded
            return None
