"""Process accounting from /proc: descendants, resident memory, CPU time."""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

__all__ = [
    "RssSampler",
    "cpu_seconds",
    "descendants",
    "rss_bytes",
    "shm_entries",
    "stop_all",
]

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2 :].split()


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def descendants(root: int | None = None) -> list[int]:
    """Live descendant pids of ``root`` (default: this process), not
    counting multiprocessing's resource tracker, which lives as long as
    the interpreter does."""
    root = os.getpid() if root is None else root
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None and fields[0] != "Z":
                parent[int(entry)] = int(fields[1])
    found = []
    for pid in parent:
        up = parent.get(pid)
        while up is not None and up != root:
            up = parent.get(up)
        if up == root and "resource_tracker" not in _cmdline(pid):
            found.append(pid)
    return sorted(found)


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (0 if it is gone)."""
    fields = _stat(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def rss_bytes(pid: int) -> int:
    fields = _stat(pid)
    return 0 if fields is None else int(fields[21]) * _PAGE


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _gone(pid: int) -> bool:
    fields = _stat(pid)
    return fields is None or fields[0] == "Z"


def stop_all(timeout: float = 10.0) -> list[int]:
    """Kill every descendant still alive, then stop multiprocessing's
    resource tracker, and wait until each has ended.

    The tracker outlives a tier that used shared memory and would
    otherwise exit only after this process does, on its own time.
    Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    killed = []
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)
        except OSError:
            pass
    give_up = time.monotonic() + timeout
    for pid in killed:
        while not _gone(pid) and time.monotonic() < give_up:
            time.sleep(0.05)
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
    # Closing the tracker's pipe makes it exit; _stop() then waits for it.
    resource_tracker._resource_tracker._stop()
    return killed


class RssSampler(threading.Thread):
    """Samples this process's and its descendants' summed RSS."""

    def __init__(self, interval: float = 0.2):
        super().__init__(name="rss-sampler", daemon=True)
        self.interval = interval
        self.peak = 0
        self.cpu_seconds = 0.0
        self._stop_event = threading.Event()

    def sample(self) -> None:
        me = os.getpid()
        total = rss_bytes(me) + sum(rss_bytes(pid) for pid in descendants(me))
        self.peak = max(self.peak, total)

    def run(self) -> None:
        while not self._stop_event.is_set():
            cpu = time.thread_time()
            self.sample()
            self.cpu_seconds += time.thread_time() - cpu
            self._stop_event.wait(self.interval)

    def stop(self) -> int:
        self._stop_event.set()
        self.join(timeout=10)
        self.sample()
        return self.peak
