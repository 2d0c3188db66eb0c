"""Atomic file output: every file is written to a temp file and renamed."""

from __future__ import annotations

import json
import os
import tempfile


def write_atomic(path, write, newline=None):
    """Call write(fh) on a temp file next to path, then rename it over path."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, payload):
    write_atomic(path, lambda fh: json.dump(payload, fh, indent=2))
