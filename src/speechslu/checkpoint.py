"""Flat checkpoint archive: parameter paths -> float32 payloads.

Layout (all little-endian):
    magic "SSLC" | u32 format version | u32 hash length | config-hash bytes
    u32 n_params | per parameter: u16 name length, name (utf-8),
    u8 ndim, u32 dims..., float32 row-major payload.

The writer sorts parameters by path, so identical parameter sets always
produce byte-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .fileio import write_atomic

MAGIC = b"SSLC"
FORMAT_VERSION = 1


def save_checkpoint(path, params: dict[str, np.ndarray], config_hash: str) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    h = config_hash.encode("ascii")
    out += struct.pack("<I", len(h))
    out += h
    names = sorted(params)
    out += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    write_atomic(path, bytes(out))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Returns (params, config_hash)."""
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint archive")
    off = 4
    (version,) = struct.unpack_from("<I", buf, off)
    off += 4
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<I", buf, off)
    off += 4
    config_hash = buf[off:off + hlen].decode("ascii")
    off += hlen
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    params: dict[str, np.ndarray] = {}
    for _ in range(n):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off:off + nlen].decode("utf-8")
        off += nlen
        (ndim,) = struct.unpack_from("<B", buf, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}I", buf, off)
        off += 4 * ndim
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(buf, dtype="<f4", count=count, offset=off).reshape(shape)
        off += 4 * count
        params[name] = arr.copy()
    return params, config_hash
