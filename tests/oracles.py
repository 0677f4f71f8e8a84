"""Test oracles and fixture writers: plain reference implementations the
tests compare the engine against, and writers for the files its readers
parse. Nothing in the engine calls these."""

import struct
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from versatiles_rs_ray.core.cells import GEOHASH_ALPHABET, S2_MAX_LEVEL, geohash_bits
from versatiles_rs_ray.core.jpeg import encode_jpeg
from versatiles_rs_ray.sources.geotiff import (
    KEY_GEOGRAPHIC_TYPE, KEY_MODEL_TYPE, KEY_PROJECTED_CS, KEY_RASTER_TYPE,
    TAG_BITS, TAG_COLORMAP, TAG_COMPRESSION, TAG_GEO_KEYS, TAG_HEIGHT,
    TAG_JPEG_TABLES, TAG_PHOTOMETRIC, TAG_PIXEL_SCALE, TAG_PLANAR,
    TAG_PREDICTOR, TAG_ROWS_PER_STRIP, TAG_SAMPLES, TAG_SAMPLE_FORMAT,
    TAG_STRIP_COUNTS, TAG_STRIP_OFFSETS, TAG_TIEPOINT, TAG_TILE_COUNTS,
    TAG_TILE_HEIGHT, TAG_TILE_OFFSETS, TAG_TILE_WIDTH, TAG_WIDTH, _FIELD,
    _LZW_CLEAR, _LZW_EOI,
)
from versatiles_rs_ray.sources.netcdf import (
    _ABSENT, _NC_ATTRIBUTE, _NC_DIMENSION, _NC_TYPES, _NC_VARIABLE,
)
from versatiles_rs_ray.stages.text import _FP_BASE, _FP_K


# ---- cells --------------------------------------------------------------


def s2_level(cell_id):
    """Level of an S2 cell id = 30 - (trailing zeros / 2)."""
    cid = np.atleast_1d(np.asarray(cell_id, dtype=np.uint64))
    out = np.empty(cid.shape, dtype=np.int64)
    for idx, c in enumerate(cid.tolist()):
        tz = (c & -c).bit_length() - 1
        out[idx] = S2_MAX_LEVEL - tz // 2
    return out if out.size > 1 else out[0]


def geohash_decode(hashes):
    """Cell-center lon/lat (+ half-cell errors) of geohash strings, by
    per-bit de-interleaving. Accepts mixed precisions."""
    hs = list(hashes)
    lon = np.empty(len(hs), dtype=np.float64)
    lat = np.empty(len(hs), dtype=np.float64)
    lon_err = np.empty(len(hs), dtype=np.float64)
    lat_err = np.empty(len(hs), dtype=np.float64)
    rev = {c: i for i, c in enumerate(GEOHASH_ALPHABET.decode())}
    for row, h in enumerate(hs):
        gh = 0
        for ch in h:
            gh = (gh << 5) | rev[ch]
        nbits = 5 * len(h)
        lon_bits, lat_bits = geohash_bits(len(h))
        lq = tq = 0
        for k in range(nbits):
            bit = (gh >> (nbits - 1 - k)) & 1
            if k % 2 == 0:
                lq = (lq << 1) | bit
            else:
                tq = (tq << 1) | bit
        lon[row] = (lq + 0.5) / (1 << lon_bits) * 360.0 - 180.0
        lat[row] = (tq + 0.5) / (1 << lat_bits) * 180.0 - 90.0
        lon_err[row] = 180.0 / (1 << lon_bits)
        lat_err[row] = 90.0 / (1 << lat_bits)
    return lon, lat, lon_err, lat_err


def bbox_str(bbox) -> str:
    """The reference's Display format 'z:[x0,y0,x1,y1]' (for goldens)."""
    return f"{bbox.level}:[{bbox.x_min},{bbox.y_min},{bbox.x_max},{bbox.y_max}]"


# ---- terrain RGB ---------------------------------------------------------


def terrarium_decode(rgb: np.ndarray) -> np.ndarray:
    r = rgb[..., 0].astype(np.float64)
    g = rgb[..., 1].astype(np.float64)
    b = rgb[..., 2].astype(np.float64)
    return (r * 256.0 + g + b / 256.0) - 32768.0


def mapbox_decode(rgb: np.ndarray) -> np.ndarray:
    v = (rgb[..., 0].astype(np.float64) * 65536.0
         + rgb[..., 1].astype(np.float64) * 256.0
         + rgb[..., 2].astype(np.float64))
    return -10000.0 + v * 0.1


# ---- fixture writers -----------------------------------------------------


def write_aaigrid(path: str, grid: np.ndarray, xll: float, yll: float,
                  cellsize: float, nodata=None) -> None:
    """ESRI ASCII grid writer (the reader is also checked against
    hand-written text, so it never depends on this writer alone)."""
    grid = np.asarray(grid)
    with open(path, "w", encoding="ascii") as f:
        f.write(f"ncols {grid.shape[1]}\nnrows {grid.shape[0]}\n")
        f.write(f"xllcorner {xll}\nyllcorner {yll}\ncellsize {cellsize}\n")
        if nodata is not None:
            f.write(f"NODATA_value {nodata}\n")
        for row in grid:
            f.write(" ".join(str(int(v)) for v in row) + "\n")


def packbits_encode(data: bytes) -> bytes:
    """Greedy PackBits: repeat runs >=2 as RLE, the rest as literals."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        # find run length at i
        j = i + 1
        while j < n and j - i < 128 and data[j] == data[i]:
            j += 1
        if j - i >= 2:
            out += bytes([257 - (j - i), data[i]])
            i = j
            continue
        # literal stretch: until the next >=3 run or 128 bytes
        j = i + 1
        while j < n and j - i < 128:
            if j + 2 < n and data[j] == data[j + 1] == data[j + 2]:
                break
            j += 1
        out += bytes([j - i - 1]) + data[i:j]
        i = j
    return bytes(out)


def lzw_encode(data: bytes) -> bytes:
    """TIFF LZW encoder, the exact mirror of sources/geotiff._lzw_decode's
    width schedule: the decoder's table runs one entry behind the
    encoder's at equal stream positions, so the decoder bumping at
    table length 2^w - 1 corresponds to the encoder bumping when its
    next free code reaches 2^w."""
    out = bytearray()
    bits = nbits = 0

    def emit(code: int, width: int):
        nonlocal bits, nbits
        bits = (bits << width) | code
        nbits += width
        while nbits >= 8:
            out.append((bits >> (nbits - 8)) & 0xFF)
            nbits -= 8

    width = 9
    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_free = 258
    emit(_LZW_CLEAR, width)
    s = b""
    for bch in data:
        sb = s + bytes([bch])
        if sb in table:
            s = sb
            continue
        emit(table[s], width)
        table[sb] = next_free
        next_free += 1
        if next_free == (1 << width) and width < 12:
            width += 1
        if next_free == 4094:  # 12-bit table nearly full: restart
            emit(_LZW_CLEAR, width)
            table = {bytes([i]): i for i in range(256)}
            next_free = 258
            width = 9
        s = bytes([bch])
    if s:
        emit(table[s], width)
    emit(_LZW_EOI, width)
    if nbits:
        out.append((bits << (8 - nbits)) & 0xFF)
    return bytes(out)


def split_jpeg_tables(buf: bytes):
    """Standalone JPEG -> (JPEGTables stream, abbreviated stream).

    Moves the DQT/DHT segments into an SOI..EOI tables stream (TIFF
    tag 347, TIFF-EP "new-style" JPEG) and leaves everything else —
    APPn, SOF, SOS+scan — in the abbreviated per-chunk stream. The
    shape GDAL writes for JPEG-in-TIFF satellite exports."""
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG stream")
    tables = bytearray(b"\xff\xd8")
    rest = bytearray(b"\xff\xd8")
    pos = 2
    while pos + 4 <= len(buf):
        if buf[pos] != 0xFF:
            raise ValueError("bad JPEG segment marker")
        marker = buf[pos + 1]
        if marker == 0xDA:  # SOS: scan runs to EOI — copy verbatim
            rest += buf[pos:]
            break
        seglen = struct.unpack_from(">H", buf, pos + 2)[0]
        seg = buf[pos:pos + 2 + seglen]
        (tables if marker in (0xDB, 0xC4) else rest).extend(seg)
        pos += 2 + seglen
    tables += b"\xff\xd9"
    return bytes(tables), bytes(rest)


def write_tiff(arr: np.ndarray, *, geotransform=None, epsg: int = 4326,
               tiled: bool = False, compression: int = 8,
               predictor: int = 2, bigtiff: bool = False,
               planar: int = 1, photometric: int | None = None,
               colormap: np.ndarray | None = None,
               jpeg_tables: bool = False, jpeg_quality: int = 95) -> bytes:
    """Minimal GeoTIFF writer (the reference writes no TIFFs; the reader's
    round-trip tests need one source of truth for its layouts). Sample depth/signedness
    follows ``arr.dtype`` (uint8 / uint16 / int16); ``bigtiff`` emits
    the magic-43 64-bit layout; ``planar=2`` writes separate planes."""
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    if arr.dtype == np.uint8:
        depth, signed = 8, False
    elif arr.dtype == np.uint16:
        depth, signed = 16, False
    elif arr.dtype == np.int16:
        depth, signed = 16, True
    else:
        raise NotImplementedError(f"write_tiff: dtype {arr.dtype} unsupported")
    work = arr.view(np.uint16) if signed else arr  # predictor on bit pattern
    wdt = work.dtype
    if compression == 7:
        # new-style JPEG (tag 259=7): 8-bit chunky only, lossy chunks,
        # no predictor; jpeg_tables=True moves the shared DQT/DHT into
        # tag 347 and leaves abbreviated streams per chunk (GDAL's
        # default layout for JPEG-compressed satellite exports)
        if depth != 8 or signed or planar != 1 or c not in (1, 3):
            raise NotImplementedError(
                "JPEG-in-TIFF writing needs uint8 chunky 1- or 3-sample data")
        predictor = 1
        if photometric is None:
            photometric = 6 if c == 3 else 1

    def enc(block: np.ndarray) -> bytes:
        if compression == 7:
            blk = block[:, :, 0] if block.shape[2] == 1 else block
            return encode_jpeg(np.ascontiguousarray(blk, dtype=np.uint8),
                               quality=jpeg_quality)
        if predictor == 2:
            bc = block.shape[2]
            block = np.diff(block.astype(np.int64), axis=1,
                            prepend=np.zeros((block.shape[0], 1, bc), np.int64))
            block = (block & ((1 << depth) - 1)).astype(wdt)
        raw = block.astype("<" + wdt.str[1:]).tobytes()
        if compression in (8, 32946):
            return zlib.compress(raw)
        if compression == 5:
            return lzw_encode(raw)
        if compression == 32773:
            return packbits_encode(raw)
        return raw

    planes = [work] if planar == 1 else [work[:, :, i:i + 1] for i in range(c)]
    chunks = []
    for pl in planes:
        if tiled:
            tw = th = 64
            for y0 in range(0, h, th):
                for x0 in range(0, w, tw):
                    tile = np.zeros((th, tw, pl.shape[2]), wdt)
                    sub = pl[y0:y0 + th, x0:x0 + tw]
                    tile[: sub.shape[0], : sub.shape[1]] = sub
                    chunks.append(enc(tile))
        else:
            rps = 16
            for y0 in range(0, h, rps):
                chunks.append(enc(pl[y0:y0 + rps]))
    jtables = None
    if compression == 7 and jpeg_tables:
        # fixed quality -> identical DQT/DHT in every chunk; hoist the
        # first chunk's tables and abbreviate all chunks
        split = [split_jpeg_tables(ch) for ch in chunks]
        jtables = split[0][0]
        chunks = [s[1] for s in split]

    # layout: header | chunk data | geo doubles | IFD
    header_len = 16 if bigtiff else 8
    data_off = header_len
    offsets, counts = [], []
    for ch in chunks:
        offsets.append(data_off)
        counts.append(len(ch))
        data_off += len(ch)
    body = b"".join(chunks)

    entries = []  # (tag, type, count, packed-or-(values, payload))

    def add(tag, ftype, values):
        entries.append((tag, ftype, values))

    off_type = 16 if bigtiff else 4  # u64 offsets in BigTIFF fixtures
    add(TAG_WIDTH, 3, (w,))
    add(TAG_HEIGHT, 3, (h,))
    add(TAG_BITS, 3, (depth,) * c)
    add(TAG_COMPRESSION, 3, (compression,))
    if photometric is None:
        photometric = 3 if colormap is not None else (2 if c >= 3 else 1)
    add(TAG_PHOTOMETRIC, 3, (photometric,))
    if colormap is not None:
        cm = np.ascontiguousarray(colormap, dtype=np.uint16).reshape(3, -1)
        if cm.shape[1] != (1 << depth):
            raise ValueError(f"colormap needs {1 << depth} entries per channel")
        add(TAG_COLORMAP, 3, tuple(int(v) for v in cm.ravel()))
    add(TAG_SAMPLES, 3, (c,))
    if tiled:
        add(TAG_TILE_WIDTH, 3, (64,))
        add(TAG_TILE_HEIGHT, 3, (64,))
        add(TAG_TILE_OFFSETS, off_type, tuple(offsets))
        add(TAG_TILE_COUNTS, 4, tuple(counts))
    else:
        add(TAG_ROWS_PER_STRIP, 3, (16,))
        add(TAG_STRIP_OFFSETS, off_type, tuple(offsets))
        add(TAG_STRIP_COUNTS, 4, tuple(counts))
    add(TAG_PLANAR, 3, (planar,))
    add(TAG_PREDICTOR, 3, (predictor,))
    if jtables is not None:
        add(TAG_JPEG_TABLES, 7, tuple(jtables))
    if signed:
        add(TAG_SAMPLE_FORMAT, 3, (2,) * c)
    if geotransform is not None:
        x0, dx, rx, y0, ry, dy = geotransform
        if rx or ry:
            raise NotImplementedError(
                "rotated geotransforms cannot be expressed as "
                "PixelScale+Tiepoint; ModelTransformationTag writing is "
                "not implemented")
        add(TAG_PIXEL_SCALE, 12, (dx, -dy, 0.0))
        add(TAG_TIEPOINT, 12, (0.0, 0.0, 0.0, x0, y0, 0.0))
        mt = 2 if epsg == 4326 or 4200 <= epsg < 5000 else 1
        code_key = KEY_GEOGRAPHIC_TYPE if mt == 2 else KEY_PROJECTED_CS
        add(TAG_GEO_KEYS, 3, (1, 1, 0, 3,
                              KEY_MODEL_TYPE, 0, 1, mt,
                              KEY_RASTER_TYPE, 0, 1, 1,
                              code_key, 0, 1, epsg))

    entries.sort(key=lambda e: e[0])
    # out-of-line payloads go after the IFD
    ifd_off = header_len + len(body)
    if bigtiff:
        ifd_len = 8 + len(entries) * 20 + 8
        inline = 8
        ifd = struct.pack("<Q", len(entries))
    else:
        ifd_len = 2 + len(entries) * 12 + 4
        inline = 4
        ifd = struct.pack("<H", len(entries))
    tail_off = ifd_off + ifd_len
    tail = b""
    for tag, ftype, values in entries:
        fmt, size = _FIELD[ftype]
        nbytes = size * len(values)
        packed = struct.pack("<" + str(len(values)) + fmt, *values)
        if bigtiff:
            if nbytes <= inline:
                ifd += struct.pack("<HHQ", tag, ftype, len(values)) + packed.ljust(8, b"\0")
            else:
                ifd += struct.pack("<HHQQ", tag, ftype, len(values), tail_off + len(tail))
                tail += packed
        else:
            if nbytes <= inline:
                ifd += struct.pack("<HHI", tag, ftype, len(values)) + packed.ljust(4, b"\0")
            else:
                ifd += struct.pack("<HHII", tag, ftype, len(values), tail_off + len(tail))
                tail += packed
    ifd += struct.pack("<Q" if bigtiff else "<I", 0)  # next-IFD pointer: none
    if bigtiff:
        head = struct.pack("<2sHHHQ", b"II", 43, 8, 0, ifd_off)
    else:
        head = struct.pack("<2sHI", b"II", 42, ifd_off)
    return head + body + ifd + tail


def write_netcdf(path: str, grid: np.ndarray, ycoord, xcoord, *,
                 yname: str = "lat", xname: str = "lon",
                 gatts: dict | None = None, grid_atts: dict | None = None,
                 record_dim: bool = False,
                 coord_dtype: str = "f8") -> None:
    """Minimal CDF-1 writer: one data
    variable over (y, x) coordinate variables (optionally behind a
    record time dimension). Layout follows the classic-format spec:
    header, fixed-size variables in definition order, then the record
    block."""
    grid = np.asarray(grid)
    if grid.dtype == np.int8:
        nc_type = 1
    elif grid.dtype == np.int16:
        nc_type = 3
    elif grid.dtype == np.int32:
        nc_type = 4
    else:
        raise NotImplementedError(
            f"write_netcdf: dtype {grid.dtype} (int8/int16/int32 only)")
    h, w = grid.shape

    def _name(s: str) -> bytes:
        b = s.encode()
        return struct.pack(">i", len(b)) + b + b"\x00" * (-len(b) % 4)

    def _atts(d: dict | None) -> bytes:
        if not d:
            return struct.pack(">ii", _ABSENT, 0)
        out = [struct.pack(">ii", _NC_ATTRIBUTE, len(d))]
        for k, v in d.items():
            out.append(_name(k))
            if isinstance(v, str):
                b = v.encode()
                out.append(struct.pack(">ii", 2, len(b)) + b
                           + b"\x00" * (-len(b) % 4))
            else:
                vals = np.asarray(v, dtype=">i4").reshape(-1)
                out.append(struct.pack(">ii", 4, vals.size)
                           + vals.tobytes())
        return b"".join(out)

    dims = []
    if record_dim:
        dims.append(("time", 0))
    dims.append((yname, h))
    dims.append((xname, w))
    ydim, xdim = len(dims) - 2, len(dims) - 1
    dim_block = struct.pack(">ii", _NC_DIMENSION, len(dims)) + b"".join(
        _name(n) + struct.pack(">i", ln) for n, ln in dims)

    def _pad4(n: int) -> int:
        return (n + 3) & ~3

    def _pad4_bytes(b: bytes) -> bytes:
        return b + b"\x00" * (-len(b) % 4)

    ctype, csz = (5, 4) if coord_dtype == "f4" else (6, 8)
    coords = [(yname, np.asarray(ycoord, dtype=">" + coord_dtype), ydim),
              (xname, np.asarray(xcoord, dtype=">" + coord_dtype), xdim)]
    gsize = _pad4(grid.size * _NC_TYPES[nc_type][1])
    var_defs = []  # (header bytes sans begin, payload bytes, is_record)
    for nm, vals, dd in coords:
        hdr = (_name(nm) + struct.pack(">ii", 1, dd) + _atts(
            {"units": "degrees_north" if dd == ydim and yname.startswith("lat")
             else "degrees_east" if dd == xdim and xname.startswith("lon")
             else "m"})
            + struct.pack(">ii", ctype, _pad4(vals.size * csz)))
        var_defs.append((hdr, _pad4_bytes(vals.tobytes()), False))
    gdims = ([0, ydim, xdim] if record_dim else [ydim, xdim])
    ghdr = (_name("grid") + struct.pack(">i", len(gdims))
            + b"".join(struct.pack(">i", d) for d in gdims)
            + _atts(grid_atts) + struct.pack(">ii", nc_type, gsize))
    gpay = grid.astype(_NC_TYPES[nc_type][0]).tobytes()
    gpay += b"\x00" * (-len(gpay) % 4)
    var_defs.append((ghdr, gpay, record_dim))

    # two passes: header size depends only on fixed var-def lengths
    fixed_head = (b"CDF\x01" + struct.pack(">i", 1 if record_dim else 0)
                  + dim_block + _atts(gatts)
                  + struct.pack(">ii", _NC_VARIABLE, len(var_defs)))
    hdr_len = len(fixed_head) + sum(len(h) + 4 for h, _, _ in var_defs)
    begins, off = [], hdr_len
    for _, pay, is_rec in var_defs:
        begins.append(off)
        off += len(pay)
    body = fixed_head + b"".join(
        h + struct.pack(">i", b) for (h, _, _), b in zip(var_defs, begins))
    with open(path, "wb") as f:
        f.write(body + b"".join(p for _, p, _ in var_defs))


class MemTileSource:
    """In-memory tile source with the surface of server.TileSource."""

    def __init__(self, source_id: str, tiles: dict, fmt_hint=None,
                 compression: str = "raw", meta: dict | None = None):
        self.id = source_id
        self.path = f"mem://{source_id}"
        self.fmt_hint = fmt_hint
        self.compression = compression
        self._tiles = tiles
        self._meta = meta

    def tilejson(self, base_url: str) -> dict:
        doc = {
            "tilejson": "3.0.0",
            "tiles": [f"{base_url}/tiles/{self.id}/{{z}}/{{x}}/{{y}}"],
        }
        if self._meta:
            doc.update(self._meta)
        return doc

    def get_tile(self, z: int, x: int, y: int):
        return self._tiles.get((z, x, y))


# ---- text fingerprint ----------------------------------------------------


def doc_fingerprint(data: bytes) -> int:
    """Min of the k-byte rolling hashes (mod 2^64) of one document: the
    single-doc reference of stages/text.fingerprint_batch."""
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    if len(b) < _FP_K:
        b = np.pad(b, (0, _FP_K - len(b)), constant_values=0)
    n = len(b) - _FP_K + 1
    h = np.zeros(n, dtype=np.uint64)
    for j in range(_FP_K):
        h = h * _FP_BASE + b[j : j + n]
    return int(h.min())


# ---- near-dup ------------------------------------------------------------


def shingle_hashes(text: str, k: int) -> np.ndarray:
    """Rolling k-byte shingle hashes of one doc (uint64, overflow ok):
    the per-doc form of stages/dedup._shingle_hashes_flat."""
    b = np.frombuffer((text or "").encode(), dtype=np.uint8).astype(np.uint64)
    if len(b) < k:
        b = np.pad(b, (0, k - len(b)), constant_values=0)
    n = len(b) - k + 1
    h = np.zeros(n, dtype=np.uint64)
    base = np.uint64(1000003)
    for j in range(k):
        h = h * base + b[j : j + n]
    return np.unique(h)


def jaccard_verify(pairs: pa.Table, texts: dict, k: int = 5, threshold: float = 0.6) -> pa.Table:
    """Candidate pairs (doc_a, doc_b) whose exact shingle-set Jaccard over
    a doc_num -> text dict is >= ``threshold``, with a ``jaccard``
    column; a missing doc counts as empty text. The reference for
    stages/dedup.jaccard_verify_exchange."""
    a = np.asarray(pairs["doc_a"], dtype=np.int64)
    b = np.asarray(pairs["doc_b"], dtype=np.int64)
    jac = np.empty(len(a), dtype=np.float64)
    for i in range(len(a)):
        sa = shingle_hashes(texts.get(int(a[i]), ""), k)
        sb = shingle_hashes(texts.get(int(b[i]), ""), k)
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        jac[i] = inter / union if union else 1.0
    keep = jac >= threshold
    out = pairs.filter(pa.array(keep))
    return out.append_column("jaccard", pa.array(jac[keep], type=pa.float64()))


def dup_groups_driver(pairs_df) -> pd.DataFrame:
    """Duplicate-pair components via union-find on the driver:
    (doc_num, group_id) with group_id = min doc in the component. The
    reference for stages/dedup.propagate_min_labels_exchange."""
    parent = {}

    def find(a):
        while parent.get(a, a) != a:
            parent[a] = parent.get(parent[a], parent[a])
            a = parent[a]
        return a

    for a, b in zip(pairs_df["doc_a"], pairs_df["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    docs = sorted({int(v) for v in pairs_df["doc_a"]} | {int(v) for v in pairs_df["doc_b"]})
    return pd.DataFrame({"doc_num": docs, "group_id": [find(d) for d in docs]})
