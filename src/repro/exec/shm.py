"""Shared-memory blob transport: publish once per change, attach zero-copy.

Shipping bulk state *through the task pipe* — the expansion shard tables
re-pickled into every fresh pool — costs O(state) per pool start when it
should be O(state) per *change*.  This module is the fix: a publisher
writes a payload into one ``multiprocessing.shared_memory`` segment, and
every worker — in any process — attaches the segment by name and reads the
payload **in place** (a ``memoryview`` over the mapped pages;
``pickle.loads`` accepts the buffer directly, so no copy of the blob is
ever made on the worker side).

Wire format of a segment (little-endian, struct-packed)::

    8s   magic     b"KBQASHM1"
    q    tag       publisher-chosen generation id
    Q    length    payload byte count
    ...  payload   `length` bytes

The tag lets a consumer verify it attached the segment the task meant
(a task carries ``(segment_name, tag)``; a mismatch means the publisher
republished under the same name, which this module never does — every
publish creates a fresh segment — so it is treated as corruption).

Lifecycle rules:

* the **publisher** owns unlinking: :meth:`PublishedBlob.unlink` removes the
  name; attached consumers keep their mapping until they close (POSIX
  file-unlink semantics).  Leaked segments after ``close()`` are a bug —
  ``tests/test_exec_concurrency.py`` asserts none survive.
* a **consumer** that attaches after the publisher unlinked gets
  :class:`SegmentUnavailable` — recoverable by re-dispatching against the
  current publish.
* resource-tracker accounting stays with the **publisher**: worker
  processes share the parent's tracker (its cache is a set, so the
  attach-side re-registration Python 3.11 performs is idempotent), and the
  publisher's unlink unregisters the name exactly once — no per-attach
  bookkeeping is needed, and none is done.
* segments are **named** ``kbqa-<pid>-<token>`` so a segment orphaned by a
  SIGKILL'd publisher (atexit never ran) is identifiable after the fact:
  :func:`sweep_orphans` unlinks every ``kbqa-*`` segment whose publisher
  pid is dead.  ``ExecutorPool`` sweeps on every pool start and the
  ``kbqa shm-gc`` CLI exposes it directly, so a crashed run cannot bleed
  ``/dev/shm`` forever.
"""

from __future__ import annotations

import atexit
import os
import secrets
import struct
from collections import OrderedDict
from multiprocessing import shared_memory
from pathlib import Path

SHM_MAGIC = b"KBQASHM1"
_HEADER = struct.Struct("<8sqQ")

SEGMENT_PREFIX = "kbqa-"
_SHM_DIR = Path("/dev/shm")


def _new_segment_name() -> str:
    """A fresh publisher-owned segment name: ``kbqa-<pid>-<token>``.

    The embedded pid is what makes orphans *decidable*: a sweeper unlinks a
    ``kbqa-*`` segment exactly when its publisher is no longer alive.
    """
    return f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"


def publisher_pid(segment_name: str) -> int | None:
    """The publisher pid embedded in a ``kbqa-*`` segment name (None when
    the name does not follow the convention)."""
    if not segment_name.startswith(SEGMENT_PREFIX):
        return None
    pid_text = segment_name[len(SEGMENT_PREFIX) :].partition("-")[0]
    return int(pid_text) if pid_text.isdigit() else None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's live process
        return True
    return True


def sweep_orphans() -> list[str]:
    """Unlink every ``kbqa-*`` segment whose publisher process is dead.

    Returns the names removed.  Segments belonging to live processes (this
    one included) are never touched, and non-``kbqa`` names are invisible to
    the sweep.  A no-op on platforms without a ``/dev/shm`` (the shared-
    memory data plane needs POSIX anyway).
    """
    if not _SHM_DIR.is_dir():
        return []
    removed: list[str] = []
    for path in _SHM_DIR.glob(SEGMENT_PREFIX + "*"):
        pid = publisher_pid(path.name)
        if pid is None or _pid_alive(pid):
            continue
        try:
            path.unlink()
        except OSError:  # racing sweeper or vanished segment: already gone
            continue
        removed.append(path.name)
    return removed


class SegmentUnavailable(RuntimeError):
    """The named segment is gone (publisher republished/unlinked) or does
    not carry the expected tag.  Recoverable: re-dispatch against the
    current publish.  Picklable, so it crosses the worker result pipe."""


class PublishedBlob:
    """One published payload; the publisher handle (owns the segment name)."""

    def __init__(self, data: bytes, tag: int) -> None:
        self.tag = tag
        self.size = len(data)
        size = _HEADER.size + max(len(data), 1)
        while True:
            try:
                self._shm = shared_memory.SharedMemory(
                    create=True, size=size, name=_new_segment_name()
                )
                break
            except FileExistsError:  # pragma: no cover - 32-bit token collision
                continue
        self.name = self._shm.name
        _HEADER.pack_into(self._shm.buf, 0, SHM_MAGIC, tag, len(data))
        self._shm.buf[_HEADER.size : _HEADER.size + len(data)] = data

    def unlink(self) -> None:
        """Remove the segment name (idempotent).  Attached consumers keep
        their mapping; new attaches fail with :class:`SegmentUnavailable`."""
        if self._shm is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass
        self._shm = None


class AttachedBlob:
    """A consumer-side attachment: ``data`` is a zero-copy view of the
    payload inside the mapped segment.  Hold the object as long as the view
    (or anything unpickled *from* it with buffer sharing) is alive."""

    def __init__(self, name: str, expected_tag: int | None = None) -> None:
        try:
            self._shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, ValueError) as error:
            raise SegmentUnavailable(f"segment {name!r} is gone") from error
        magic, tag, length = _HEADER.unpack_from(self._shm.buf, 0)
        if magic != SHM_MAGIC:
            self._shm.close()
            raise SegmentUnavailable(f"segment {name!r} is not a {SHM_MAGIC!r} blob")
        if expected_tag is not None and tag != expected_tag:
            self._shm.close()
            raise SegmentUnavailable(
                f"segment {name!r} carries tag {tag}, expected {expected_tag}"
            )
        self.name = name
        self.tag = tag
        self.data = self._shm.buf[_HEADER.size : _HEADER.size + length]

    def close(self) -> None:
        """Release the view and the mapping (idempotent)."""
        if self._shm is None:
            return
        self.data.release()
        self._shm.close()
        self._shm = None


# Worker-resident attachment cache.  Segment names are never reused (every
# publish creates a fresh segment), so a name is a perfect cache key; a tiny
# LRU bounds mappings when generations churn.
_ATTACH_CACHE: OrderedDict[str, AttachedBlob] = OrderedDict()
_ATTACH_CACHE_MAX = 4


def attach_blob(name: str, expected_tag: int | None = None) -> AttachedBlob:
    """Attach (or reuse this process's attachment of) a published segment."""
    from repro.exec.faults import fault_point

    fault_point("shm.attach")
    cached = _ATTACH_CACHE.get(name)
    if cached is not None:
        if expected_tag is not None and cached.tag != expected_tag:
            raise SegmentUnavailable(
                f"segment {name!r} carries tag {cached.tag}, expected {expected_tag}"
            )
        _ATTACH_CACHE.move_to_end(name)
        return cached
    blob = AttachedBlob(name, expected_tag)
    _ATTACH_CACHE[name] = blob
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_MAX:
        _, stale = _ATTACH_CACHE.popitem(last=False)
        stale.close()
    return blob


@atexit.register
def _close_cached_attachments() -> None:
    """Release cached views before interpreter teardown.

    Without this, ``SharedMemory.__del__`` can run while a cached
    ``AttachedBlob`` still exports its payload view (destruction order at
    shutdown is arbitrary) and spam ``BufferError`` tracebacks.  Runs in
    every process that attached — pool workers included.
    """
    while _ATTACH_CACHE:
        _name, blob = _ATTACH_CACHE.popitem()
        try:
            blob.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
