"""Helpers shared by the benchmark's workloads.

Nothing here imports the program under test: paths, seed derivation,
percentiles, the host probe, CPU placement, memory and process-tree
inspection.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: The checkout the benchmark runs in (this file lives in <root>/repobench).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything the benchmark writes lives under this ignored directory.
WORK = ROOT / ".bench_build" / "repobench"


def require_checkout() -> Optional[str]:
    """None inside a checkout of the program, else the reason it is not."""
    for relative in ("src/repro/cli.py", "src/repro/serve/server.py",
                     "src/repro/pipeline.py"):
        if not (ROOT / relative).is_file():
            return f"{relative} not found under {ROOT}: not a checkout"
    return None


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed that is a pure function of the workload seed and a path."""
    text = "/".join([str(seed)] + [str(part) for part in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def quantile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile; 0.0 when empty."""
    return float(np.quantile(values, fraction)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_probe() -> float:
    """Seconds for a fixed pure-Python computation (no program code).

    Printed beside a run's metrics so a slow run can be told apart from
    a slow host; never used to scale, retry or discard a run.
    """
    start = time.perf_counter()
    total = 0
    for index in range(1_600_000):
        total = (total * 31 + index) % 1_000_003
    digest = hashlib.sha256()
    for _ in range(8_000):
        digest.update(str(total).encode() * 64)
    return time.perf_counter() - start


@contextlib.contextmanager
def on_cpu(index: int):
    """Run the block, and any process it starts, on CPU ``index`` (mod
    the CPUs this thread may use); then allow this thread every one of
    them again.

    The two vCPUs of the VM the benchmark was tuned on change speed
    independently, by up to a third, so samples taken on alternating
    CPUs make a run sample both.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[index % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def start_on_cpu(index: int) -> None:
    """Move this thread to CPU ``index`` (see :func:`on_cpu`) and allow it
    every CPU again: a busy thread stays on the CPU it runs on, so work
    started right after this call runs mostly there, while the program
    stays free to use every CPU and its children inherit the full set."""
    with on_cpu(index):
        pass


def current_cpu() -> int:
    """The CPU this thread last ran on (/proc/thread-self/stat)."""
    raw = Path("/proc/thread-self/stat").read_text()
    return int(raw[raw.rfind(")") + 2:].split()[36])


def cpu_ticks() -> tuple:
    """``(steal, total)`` CPU ticks of the whole VM from /proc/stat."""
    fields = [int(value) for value in
              Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB (0 if gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def reset_hwm() -> None:
    """Reset this process's VmHWM to its current RSS (Linux clear_refs)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # kernel without clear_refs: the peak then spans the process


def _proc_stat(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may hold spaces: split after its closing parenthesis.
    return raw[raw.rfind(")") + 2:].split()


def process_identity(pid: int) -> Optional[str]:
    """``pid:starttime`` -- survives pid reuse; None when the pid is gone."""
    fields = _proc_stat(pid)
    if fields is None or fields[0] == "Z":
        return None
    return f"{pid}:{fields[19]}"


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (scan of /proc)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _proc_stat(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def still_alive(identities: Iterable[str]) -> List[str]:
    """The recorded ``pid:starttime`` identities that still run."""
    alive = []
    for identity in identities:
        pid = int(identity.split(":")[0])
        if process_identity(pid) == identity:
            alive.append(identity)
    return alive


def kill_identities(identities: Iterable[str]) -> None:
    for identity in still_alive(identities):
        try:
            os.kill(int(identity.split(":")[0]), signal.SIGKILL)
        except OSError:
            pass


def shm_segments() -> set:
    """Names of the program's shared-memory segments in /dev/shm."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:
        return set()


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
