"""An ordered map over forked worker processes, from ``os.fork`` and ``os.pipe``.

``verify-replay`` is its one user, and imports it only when it has dumps for
more than one worker, so no other process compiles or loads it.  A forked
child shares the modules its parent has imported, and sends back only its
results, one JSON line each.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable, Sequence

# a task is an item's index in this many bytes; a task pipe holds at most
# _BATCH of them, 4 KiB, which any pipe takes in one write before a reader
_TASK_BYTES = 4
_BATCH = 1024


def _take(tasks: int):
    """The item indices read off a task pipe, until it is empty."""
    while record := os.read(tasks, _TASK_BYTES):
        yield int.from_bytes(record, "little")


def _run_batch(work: Callable, items: Sequence, batch: range, workers: int, results: list) -> None:
    """Fill ``results[i]`` for each index in ``batch``, over ``workers`` processes.

    The indices go into one task pipe, and every worker, this process
    included, takes the next one until the pipe is empty.  Each forked child
    sends ``[i, result]`` back as one JSON line per item on a pipe of its
    own, and leaves through ``os._exit``.  An item that no worker reported
    on was taken by a child that died, and its result stays None.
    """
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_TASK_BYTES, "little") for i in batch))
    os.close(feed)
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (read end of the child's result pipe, pid)
    try:
        for _ in range(workers - 1):
            # with no pipe or process to spare, the workers so far do the rest
            try:
                back, out = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(back)
                os.close(out)
                break
            if pid == 0:
                code = 1
                try:
                    for inherited, _ in children:
                        inherited.close()
                    os.close(back)
                    with open(out, "w", encoding="utf-8") as sink:
                        for i in _take(tasks):
                            sink.write(json.dumps([i, work(items[i])]) + "\n")
                            sink.flush()
                    os.close(tasks)
                    code = 0
                finally:
                    os._exit(code)
            os.close(out)
            children.append((open(back, encoding="utf-8"), pid))
        for i in _take(tasks):
            results[i] = work(items[i])
        for source, _ in children:
            for line in source:
                # a child that died mid-line leaves no newline
                if line.endswith("\n"):
                    i, result = json.loads(line)
                    results[i] = result
    finally:
        os.close(tasks)
        for source, pid in children:
            source.close()
            os.waitpid(pid, 0)


def forked_map(work: Callable, items: Sequence, workers: int) -> list:
    """``[work(x) for x in items]`` over ``workers`` processes, this one included.

    Each worker takes the next item not yet started, so items go out in list
    order.  A result must be JSON other than null; one from a child comes
    back as JSON reads it, a tuple as a list.  The result of an item whose
    worker died is None.  Every child is reaped before this returns.
    """
    results: list = [None] * len(items)
    for start in range(0, len(items), _BATCH):
        batch = range(start, min(start + _BATCH, len(items)))
        _run_batch(work, items, batch, min(workers, len(batch)), results)
    return results
