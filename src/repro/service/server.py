"""JSON-lines serve loop: the pipe transport of the service protocol.

``repro serve`` (without ``--tcp``) turns the dispatcher into a
long-lived worker a parent process can feed over a pipe:

.. code-block:: text

    $ printf '%s\n' '{"network": "alexnet-conv", "dataflows": ["RS"],
      "pe_counts": [256], "batch": 1}' | repro serve --store s.db
    {"id": "req-1", "cells": [...], "cache": {...}, ...}

Since the netserve refactor this loop is a thin transport: every line
is answered by :class:`repro.netserve.core.RequestHandler`, the exact
dispatch path the TCP server (:mod:`repro.netserve.server`) runs, so
the two modes cannot drift.  The pipe is inherently serial -- requests
answer one at a time in input order, and the ``priority`` envelope
field is accepted but has nothing to reorder.

Requests carry an optional ``verb``: the default ``batch`` runs a
:class:`~repro.service.schema.BatchRequest` grid in one response line;
``evaluate`` runs the same grid but streams one ``{"event": "cell"}``
line per completed cell before the final ``{"event": "result"}`` line;
``dse`` runs a design-space exploration
(:class:`~repro.service.schema.DseRequest`, optionally streamed as
``candidate``/``progress``/``result`` lines); ``query`` reads recorded
cells back out of the session's experiment store; ``metrics`` answers
a server-introspection snapshot; and ``shutdown`` answers, then ends
the loop -- the pipe equivalent of draining the TCP server.

Error paths never kill the loop: a malformed JSON line, an unknown
verb, a bad field or an over-limit line (``max_line_bytes``) each
answer with a terminal ``{"event": "error", "id": ..., "error": ...}``
line and the next request is served normally.  Blank lines are ignored
and EOF ends the loop.  So do Ctrl-C (``KeyboardInterrupt``) and a
parent closing the pipe mid-session: both return the served count
instead of raising, which lets the CLI context managers commit queued
store writes and finish the store run on the way out -- an
interrupted serve session exits 0 with its state intact.
"""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.service.dispatcher import BatchDispatcher


def serve(input_stream: IO[str], output_stream: IO[str],
          dispatcher: Optional[BatchDispatcher] = None,
          parallel: Optional[bool] = None,
          max_line_bytes: Optional[int] = None) -> int:
    """Run the JSON-lines loop until EOF or a ``shutdown`` verb.

    Returns the number of successfully served requests (lines that
    answered without an ``error`` event), matching the pre-netserve
    contract.  ``max_line_bytes`` caps a single request line; ``None``
    keeps :data:`repro.netserve.protocol.DEFAULT_MAX_LINE_BYTES`.
    """
    # Imported lazily: netserve's dispatch core builds on the service
    # package, so a module-level import here would be circular.
    from repro.netserve.core import RequestHandler

    handler = RequestHandler(dispatcher, parallel=parallel,
                             max_line_bytes=max_line_bytes)
    served = 0
    try:
        for number, line in enumerate(input_stream, start=1):
            line = line.strip()
            if not line:
                continue
            failed = False
            for event in handler.handle_line(line, f"req-{number}"):
                if event.get("event") == "error":
                    failed = True
                json.dump(event, output_stream)
                output_stream.write("\n")
                output_stream.flush()
            if not failed:
                served += 1
            if handler.shutdown_requested:
                break
    except KeyboardInterrupt:
        # Ctrl-C is a drain request, not a crash: stop reading and let
        # the CLI's context managers close the session normally.
        pass
    except BrokenPipeError:
        pass  # the parent went away; drain and close as on EOF
    except ValueError as exc:
        # A parent that closes the pipe mid-session makes the next
        # iteration raise "I/O operation on closed file"; treat it
        # exactly like EOF.  Anything else is a real bug -- re-raise.
        if "closed file" not in str(exc):
            raise
    return served
