"""The environment every benchmark record carries."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

__all__ = ["stamp"]


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(root: Path, seed: int, params: dict) -> dict:
    """Cores, interpreter, numpy, commit, seed, and workload parameters.

    ``commit`` and ``dirty`` are ``None`` outside a git checkout.
    """
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit is not None else None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform exposes affinity
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": affinity,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "seed": seed,
        "params": params,
    }
