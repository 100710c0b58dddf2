"""Description of the box and the software a benchmark result came from."""
from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _git_sha(root: Path) -> str:
    """Commit of a git checkout, read from its files; "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(root: Path, blas_threads: int, pinned_cpu: int) -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "ram_gib": round(ram / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "pinned_cpu": pinned_cpu,
    }
