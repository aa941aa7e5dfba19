"""Doorbells: wake idle queue workers when a submission becomes claimable.

Each idle worker owns one FIFO under ``<store>/wake/`` and blocks in
``select`` on its read end; :func:`ring` writes one byte into every
FIFO there.  The store rings after committing anything that makes a
submission claimable, so the wake-up covers every path that queues
work, in any process.  Ringing is best-effort and never raises: a
missed ring only costs the worker's fallback timeout.

FIFOs rather than ``AF_UNIX`` sockets, because socket paths are
limited to about 108 bytes and store directories can be longer.
"""

from __future__ import annotations

import contextlib
import errno
import os
import select
import stat
from pathlib import Path
from typing import Optional

#: Subdirectory of a store holding the idle workers' FIFOs.
WAKE_DIRNAME = "wake"
_SUFFIX = ".fifo"


def ring(directory: os.PathLike) -> None:
    """Wake every worker with a FIFO under ``directory/wake``.

    A FIFO nobody reads (``ENXIO``: its worker died) is unlinked; a
    full one (``EAGAIN``) already holds a wake-up; anything that is
    not a FIFO is left alone.
    """
    try:
        entries = list(os.scandir(Path(directory) / WAKE_DIRNAME))
    except OSError:
        return
    for entry in entries:
        if not entry.name.endswith(_SUFFIX):
            continue
        try:
            fd = os.open(entry.path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno == errno.ENXIO:
                with contextlib.suppress(OSError):
                    os.unlink(entry.path)
            continue
        try:
            if stat.S_ISFIFO(os.fstat(fd).st_mode):
                os.write(fd, b"\0")
        except OSError:
            pass
        finally:
            os.close(fd)


class Doorbell:
    """One worker's FIFO: :meth:`wait` blocks until rung or timed out.

    The FIFO gets its reader before it is renamed into place, so a
    ringer never mistakes a live worker's FIFO for a dead one.  The
    worker also holds a write end: without one, ``select`` would
    report end-of-file forever once the first ringer closed.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self._read: Optional[int] = None
        self._write: Optional[int] = None
        self.path: Optional[Path] = None
        wake_dir = Path(directory) / WAKE_DIRNAME
        wake_dir.mkdir(parents=True, exist_ok=True)
        name = f"{os.getpid()}-{os.urandom(6).hex()}"
        staging = wake_dir / f".{name}.tmp"
        final = wake_dir / f"{name}{_SUFFIX}"
        os.mkfifo(staging)
        try:
            self._read = os.open(staging, os.O_RDONLY | os.O_NONBLOCK)
            self._write = os.open(staging, os.O_WRONLY | os.O_NONBLOCK)
            os.rename(staging, final)
        except OSError:
            self.close()
            with contextlib.suppress(OSError):
                os.unlink(staging)
            raise
        self.path = final

    def wait(self, timeout: float) -> bool:
        """Block until rung (``True``) or ``timeout`` seconds pass."""
        ready, _, _ = select.select([self._read], [], [], max(timeout, 0.0))
        with contextlib.suppress(OSError):
            while os.read(self._read, 4096):
                pass
        return bool(ready)

    def ring(self) -> None:
        """Wake this doorbell's own :meth:`wait` (signal-handler safe)."""
        fd = self._write
        if fd is not None:
            with contextlib.suppress(OSError):
                os.write(fd, b"\0")

    def close(self) -> None:
        """Close both ends and unlink the FIFO (idempotent)."""
        for attr in ("_read", "_write"):
            fd = getattr(self, attr)
            setattr(self, attr, None)
            if fd is not None:
                os.close(fd)
        path, self.path = self.path, None
        if path is not None:
            with contextlib.suppress(OSError):
                os.unlink(path)
