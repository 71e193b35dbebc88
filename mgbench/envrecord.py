"""Run environment record stored with every benchmark result.

Reads `/proc` only; starts no process.  CPU steal is the share of all CPU
ticks in `/proc/stat` that the hypervisor took between `start()` and
`finish()`, so a noisy run can be recognised.
"""

from __future__ import annotations

import os
import platform


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_ticks():
    """(steal, total) from the aggregate cpu line of /proc/stat, or None."""
    text = _read("/proc/stat")
    if not text:
        return None
    fields = [int(v) for v in text.splitlines()[0].split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit(root: str):
    """Commit of the checkout at `root`, read from .git; None outside a repository."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(root, ".git", ref))
    if loose:
        return loose.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


class EnvRecord:
    def __init__(self, root: str):
        self.root = root
        self._ticks = _cpu_ticks()
        self._load = os.getloadavg()

    def finish(self) -> dict:
        end = _cpu_ticks()
        steal = None
        if self._ticks and end and end[1] > self._ticks[1]:
            steal = (end[0] - self._ticks[0]) / (end[1] - self._ticks[1])
        return {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
            "git_commit": git_commit(self.root),
            "loadavg_start": list(self._load),
            "loadavg_end": list(os.getloadavg()),
            "cpu_steal_share": steal,
        }
