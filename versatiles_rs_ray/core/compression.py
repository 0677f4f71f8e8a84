"""Tile payload (re)compression for binary Arrow columns.

Mirrors the reference's compression surface
(versatiles_core/src/utils/compression/functions.rs:55-205):
Uncompressed | Gzip | Brotli, plus `recompress(from, to)`.

Brotli always works, preferring real entropy-coded streams: the
python package when importable, else the system libbrotli bound via
ctypes (core/native.py — the same C library the reference's rust
brotli crate wraps), else the RFC 7932 stored-mode codec in
:mod:`core.brotli_stored`. gzip uses zlib with a fixed level so
output bytes are deterministic across workers.
"""

from __future__ import annotations

import gzip as _gzip
import zlib

import numpy as np
import pyarrow as pa

from . import brotli_stored as _br

RAW = "raw"
GZIP = "gzip"
BROTLI = "br"
ZSTD = "zstd"
# brotli is ALWAYS available: the real library when importable, else
# RFC 7932 stored-mode streams (valid brotli, no entropy coding —
# core/brotli_stored.py). Decompression without the library handles
# stored-mode streams only. zstd (beyond the reference's enum; the
# PMTiles v3 spec allows it as tile_compression 4) binds the system
# libzstd and is absent from AVAILABLE when the library is missing.
from .native import HAVE_ZSTD as _HAVE_ZSTD  # noqa: E402

AVAILABLE = (RAW, GZIP, BROTLI) + ((ZSTD,) if _HAVE_ZSTD else ())

_GZIP_LEVEL = 6
_ZSTD_LEVEL = 3  # libzstd default; fixed for deterministic bytes


def _compress_one(data: bytes, codec: str) -> bytes:
    if codec == RAW:
        return data
    if codec == GZIP:
        # mtime=0 + fixed level -> deterministic bytes (important for
        # byte-equality round-trip tests and content-addressed caches)
        return _gzip.compress(data, compresslevel=_GZIP_LEVEL, mtime=0)
    if codec == BROTLI:
        return _br.compress(data)
    if codec == ZSTD:
        from .native import zstd_compress

        return zstd_compress(data, level=_ZSTD_LEVEL)
    raise ValueError(f"unknown compression {codec!r}")


def _decompress_one(data: bytes, codec: str) -> bytes:
    if codec == RAW:
        return data
    if codec == GZIP:
        return zlib.decompress(data, wbits=zlib.MAX_WBITS | 32)
    if codec == BROTLI:
        return _br.decompress(data)
    if codec == ZSTD:
        from .native import zstd_decompress

        return zstd_decompress(data)
    raise ValueError(f"unknown compression {codec!r}")


def compress_column(col, codec: str) -> pa.Array:
    """Compress a binary Arrow array/chunked-array element-wise."""
    values = col.to_pylist() if isinstance(col, (pa.Array, pa.ChunkedArray)) else list(col)
    return pa.array([None if v is None else _compress_one(v, codec) for v in values], type=pa.binary())


def decompress_column(col, codec: str) -> pa.Array:
    values = col.to_pylist() if isinstance(col, (pa.Array, pa.ChunkedArray)) else list(col)
    return pa.array([None if v is None else _decompress_one(v, codec) for v in values], type=pa.binary())


def recompress_table(table: pa.Table, payload_col: str, from_codec: str, to_codec: str) -> pa.Table:
    """Per-batch recompression (converter.rs:248-253 semantics)."""
    if from_codec == to_codec:
        return table
    raw = decompress_column(table[payload_col], from_codec)
    out = compress_column(raw, to_codec)
    idx = table.schema.get_field_index(payload_col)
    return table.set_column(idx, payload_col, out)


def optimize_compression(data: bytes, prefer=GZIP):
    """Best-effort: compress only when it actually shrinks the payload.

    The reference's `optimize_compression`
    (versatiles_core/src/utils/compression/functions.rs:55-205
    best-effort path): returns (bytes, codec_used).
    """
    compressed = _compress_one(data, prefer)
    if len(compressed) < len(data):
        return compressed, prefer
    return data, RAW


def byte_sizes(col) -> np.ndarray:
    """Payload byte lengths (for tile-size histograms, cf.
    versatiles/src/tools/dev_tools/measure_tile_sizes.rs:57-90)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array):
        # Respect col.offset: a sliced array shares the parent's offsets
        # buffer, so index from the slice's logical start.
        width = 8 if pa.types.is_large_binary(col.type) or pa.types.is_large_string(col.type) else 4
        dtype = np.int64 if width == 8 else np.int32
        offs = np.frombuffer(col.buffers()[1], dtype=dtype)[col.offset : col.offset + len(col) + 1]
        return (offs[1:] - offs[:-1]).astype(np.int64)
    return np.asarray([len(v) for v in col], dtype=np.int64)
