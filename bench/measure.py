"""Child processes timed from outside: wall time, own peak RSS, stdout digest.

Peak RSS comes from ``os.wait4`` on each child.  ``getrusage(RUSAGE_CHILDREN)``
is not used: it keeps the largest child seen so far, so every command after a
large one would report that one's memory.  Linux also carries the parent's
high-water mark into a forked child, so the measuring process streams child
output through a hash instead of holding it, and stays far smaller than any
child it measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass

# Commands whose JSON output carries a pass/fail flag.
FLAGS = {"verify": "ok", "character": "induced_matches"}
_KEEP_BYTES = 1 << 20


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float  # the child's own user + system time
    rss_mb: float
    exit_code: int
    sha256: str
    nbytes: int
    stdout: bytes | None  # kept only when small
    stderr_tail: str


def run_child(argv, *, env=None, cwd=None, timeout=None, tmp_dir=None):
    """Run argv to completion, timing it from spawn to exit.

    The child is killed when ``timeout`` seconds pass; its exit code is then
    negative.  Stderr goes to a temporary file in ``tmp_dir`` so that a full
    stderr pipe can never stall the child.
    """
    with tempfile.TemporaryFile(dir=tmp_dir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd
        )
        timer = threading.Timer(timeout, proc.kill) if timeout else None
        try:
            if timer:
                timer.start()
            digest = hashlib.sha256()
            nbytes = 0
            kept = bytearray()
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                nbytes += len(chunk)
                if nbytes <= _KEEP_BYTES:
                    kept += chunk
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if timer:
                timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        sha256=digest.hexdigest(),
        nbytes=nbytes,
        stdout=bytes(kept) if nbytes <= _KEEP_BYTES else None,
        stderr_tail=tail,
    )


def check_output(result, expected_sha256, flag=None):
    """Why a command run failed, or None when it passed.

    A run fails on a non-zero exit, on a stdout digest other than the one
    recorded, or when its JSON pass/fail ``flag`` is not true.
    """
    if result.exit_code != 0:
        return f"exit code {result.exit_code}: {result.stderr_tail.strip()[-300:]}"
    if expected_sha256 is None:
        return "no recorded digest"
    if result.sha256 != expected_sha256:
        return f"stdout digest {result.sha256[:12]} != recorded {expected_sha256[:12]}"
    if flag is not None:
        try:
            value = json.loads(result.stdout)[flag] if result.stdout else None
        except (ValueError, KeyError, TypeError):
            value = None
        if value is not True:
            return f"output flag {flag!r} is not true"
    return None


def calibrate(n=20_000):
    """A fixed pure-Python loop; its time tracks the host, not the code.

    It mixes integer arithmetic with tuple allocation and dict updates, like
    the code it is set beside.  About 24 ms on a 2.1 GHz Xeon with Python
    3.11; it holds at most 97 keys, so it adds nothing to peak RSS.
    """
    start = time.perf_counter()
    counts = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
        key = tuple((i * j) % 97 for j in range(6))
        counts[key] = counts.get(key, 0) + acc
    return time.perf_counter() - start
