"""User-space instruction and cycle counts of the benchmark's own process.

The counters are the CPU's own (Linux `perf_event_open`), opened for this
process only, user space only, and not inherited by children. Instructions
retired are the work the program asks of the CPU: they repeat to within
0.1% from run to run, where its CPU time on a shared host does not (see
README.md). Cycles over the same span give instructions per cycle.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

_SYSCALL = {"x86_64": 298, "aarch64": 241}  # __NR_perf_event_open
_TYPE_HARDWARE = 0
CYCLES, INSTRUCTIONS = 0, 1  # PERF_COUNT_HW_*
_FORMAT_TIMES = 1 | 2  # PERF_FORMAT_TOTAL_TIME_ENABLED | _RUNNING
_EXCLUDE_KERNEL, _EXCLUDE_HV = 1 << 5, 1 << 6


class _Attr(ctypes.Structure):
    """`struct perf_event_attr` up to PERF_ATTR_SIZE_VER0 (64 bytes)."""

    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
    ]


class Counter:
    """One hardware counter on this process, counting from when it opens."""

    def __init__(self, event: int):
        nr = _SYSCALL.get(platform.machine())
        if nr is None:
            raise OSError(f"perf_event_open: no syscall number for {platform.machine()}")
        attr = _Attr(
            type=_TYPE_HARDWARE,
            size=ctypes.sizeof(_Attr),
            config=event,
            read_format=_FORMAT_TIMES,
            flags=_EXCLUDE_KERNEL | _EXCLUDE_HV,
        )
        libc = ctypes.CDLL(None, use_errno=True)
        libc.syscall.restype = ctypes.c_long
        fd = libc.syscall(nr, ctypes.byref(attr), 0, -1, -1, 0)
        if fd < 0:
            err = ctypes.get_errno()
            raise OSError(err, f"perf_event_open: {os.strerror(err)}")
        self.fd = int(fd)

    def read(self) -> int:
        value, enabled, running = struct.unpack("QQQ", os.read(self.fd, 24))
        if running != enabled:
            # the kernel shared the counter with other events and scales
            # its value; a scaled count is an estimate, not a count
            raise RuntimeError("hardware counter was multiplexed")
        return value

    def close(self) -> None:
        os.close(self.fd)
