"""Environment fingerprint, engine guard and working-tree snapshot."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Any, Dict, Tuple

#: Directories the benchmark may write to (``.bench_build``) or that are
#: not part of the working tree (``.git``).
UNTRACKED_DIRS = (".git", ".bench_build")


def git_sha(root: str) -> str:
    """HEAD of ``root`` when it is a git checkout, else ``"unknown"``."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest(root: str) -> str:
    """SHA-256 over the paths and bytes of ``src/`` (identifies the code
    when the checkout carries no git metadata)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def engine_selection() -> Dict[str, Any]:
    """Which engines the workloads resolve to under this environment."""
    from repro.core.ssrmin import SSRmin
    from repro.messagepassing.fastpath import mp_fastpath_enabled, resolve_mp_codec
    from repro.simulation.fastpath import fastpath_enabled, resolve_kernel

    probe = SSRmin(4, 5)
    kernel = resolve_kernel(probe)
    codec = resolve_mp_codec(probe)
    return {
        "simulation_fastpath": fastpath_enabled(),
        "simulation_kernel": type(kernel).__name__ if kernel else None,
        "messagepassing_fastpath": mp_fastpath_enabled(),
        "messagepassing_codec": type(codec).__name__ if codec else None,
    }


def forced_reference(selection: Dict[str, Any]) -> str:
    """A reason to refuse the run, or ``""`` when the fast engines resolve.

    ``REPRO_FASTPATH=0`` / ``REPRO_FASTPATH_MP=0`` pin the reference
    engines, 20-90x slower, which would report under the same workload
    names.
    """
    if not selection["simulation_fastpath"] or not selection["simulation_kernel"]:
        return "REPRO_FASTPATH forces the reference simulation engine"
    if (not selection["messagepassing_fastpath"]
            or not selection["messagepassing_codec"]):
        return "REPRO_FASTPATH_MP forces the reference message-passing engine"
    return ""


def fingerprint(root: str, selection: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "engines": selection,
    }


def tree_snapshot(root: str) -> Dict[str, Tuple[int, int]]:
    """``{relative path: (size, mtime_ns)}`` of every file in the tree."""
    out: Dict[str, Tuple[int, int]] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d not in UNTRACKED_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.lstat(path)
            except FileNotFoundError:
                continue
            out[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return out


def tree_changes(before: Dict[str, Tuple[int, int]],
                 after: Dict[str, Tuple[int, int]]) -> list:
    """Paths added, removed or modified between two snapshots."""
    return sorted(
        path for path in set(before) | set(after)
        if before.get(path) != after.get(path)
    )
