"""Artifact writes that never leave a partly written file behind."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomic(path, data: bytes | str, sync: bool = True) -> None:
    """Write `data` (str as utf-8) to `path` all at once or not at all.

    The bytes go to a temporary file in the target's directory, are synced
    if `sync` (skip it only for a format that detects a cut file on read),
    and `os.replace` puts it in place, so a reader sees the previous file or
    the new one; a failed write removes the temporary and keeps the previous.
    """
    path = Path(path)
    payload = data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(payload)
            if sync:
                f.flush()
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
