"""Pure-stdlib GeoTIFF reader — the real-file path of `from_gdal_raster`.

The reference reads rasters through GDAL
(versatiles_pipeline/src/operations/read/from_gdal/raster/raster_source.rs:36-112:
open dataset, read geotransform + SRS, window-read bands). GDAL is not
in this sandbox, so this module parses the TIFF container directly
(struct + zlib, numpy for the predictor) and hands the decoded array +
geotransform + EPSG to the existing warp pool in stages/reproject.

Scope (honest gates, not stubs): byte order II/MM; classic TIFF and
BigTIFF (magic 43); strip and tiled layouts; planar config 1 (chunky)
and 2 (separate planes); 8-bit unsigned and 16-bit unsigned/signed
samples (the DEM case), 1/3/4 channels; compression none(1), LZW(5),
new-style JPEG(7, with or without a shared JPEGTables tag — the
satellite-export layout), deflate(8/32946), PackBits(32773);
predictor 1 (none) and
2 (horizontal differencing). GeoTIFF georeferencing via
ModelPixelScale+ModelTiepoint (or ModelTransformation) and the GeoKey
directory (GTModelType, Geographic/ProjectedCSType -> EPSG). Anything
else raises NotImplementedError naming the exact capability, matching
the repo's gating convention (core/compression.py).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

# TIFF tag ids (TIFF 6.0 spec) + GeoTIFF 1.1 tags
TAG_WIDTH = 256
TAG_HEIGHT = 257
TAG_BITS = 258
TAG_COMPRESSION = 259
TAG_PHOTOMETRIC = 262
TAG_STRIP_OFFSETS = 273
TAG_SAMPLES = 277
TAG_ROWS_PER_STRIP = 278
TAG_STRIP_COUNTS = 279
TAG_PLANAR = 284
TAG_PREDICTOR = 317
TAG_COLORMAP = 320
TAG_TILE_WIDTH = 322
TAG_TILE_HEIGHT = 323
TAG_TILE_OFFSETS = 324
TAG_TILE_COUNTS = 325
TAG_SAMPLE_FORMAT = 339
TAG_JPEG_TABLES = 347
TAG_PIXEL_SCALE = 33550
TAG_TIEPOINT = 33922
TAG_TRANSFORM = 34264
TAG_GEO_KEYS = 34735
TAG_GEO_DOUBLES = 34736
TAG_GEO_ASCII = 34737

# GeoKey ids (GeoTIFF spec §6.2)
KEY_MODEL_TYPE = 1024  # 1=projected, 2=geographic
KEY_RASTER_TYPE = 1025  # 1=PixelIsArea, 2=PixelIsPoint
KEY_GEOGRAPHIC_TYPE = 2048
KEY_PROJECTED_CS = 3072

# field type -> (struct fmt, byte size); rationals handled separately
_FIELD = {1: ("B", 1), 2: ("c", 1), 3: ("H", 2), 4: ("I", 4), 5: ("II", 8),
          6: ("b", 1), 7: ("B", 1), 8: ("h", 2), 9: ("i", 4), 10: ("ii", 8),
          11: ("f", 4), 12: ("d", 8), 16: ("Q", 8), 17: ("q", 8)}


@dataclass
class GeoTIFF:
    """Decoded raster + georeferencing, ready for the warp pool."""

    array: np.ndarray  # (H, W, C) uint8 | uint16 | int16
    geotransform: tuple  # GDAL 6-tuple (x0, dx, rx, y0, ry, dy)
    epsg: int  # CRS code from the GeoKey directory
    model_type: int  # 1=projected, 2=geographic
    raster_type: int  # 1=PixelIsArea, 2=PixelIsPoint

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def height(self) -> int:
        return self.array.shape[0]


def _read_ifd(data: bytes, bo: str, big: bool = False):
    """First IFD -> {tag: tuple(values)} (value offsets resolved).

    ``big`` selects BigTIFF layout (magic 43): u64 IFD offset at byte
    8, u64 entry count, 20-byte entries with u64 count + 8 inline
    bytes, u64 next-IFD pointer.
    """
    if big:
        off = struct.unpack_from(bo + "Q", data, 8)[0]
        n = struct.unpack_from(bo + "Q", data, off)[0]
        ent0, ent_sz, inline = off + 8, 20, 8
    else:
        off = struct.unpack_from(bo + "I", data, 4)[0]
        n = struct.unpack_from(bo + "H", data, off)[0]
        ent0, ent_sz, inline = off + 2, 12, 4
    tags = {}
    for i in range(int(n)):
        base = ent0 + i * ent_sz
        if big:
            tag, ftype, count = struct.unpack_from(bo + "HHQ", data, base)
            count = int(count)
        else:
            tag, ftype, count = struct.unpack_from(bo + "HHI", data, base)
        if ftype not in _FIELD:
            continue  # unknown field type: skip, per TIFF 6.0 readers-must-skip
        fmt, size = _FIELD[ftype]
        nbytes = size * count
        val_at = base + (12 if big else 8)
        if nbytes <= inline:
            src = val_at
        else:
            src = struct.unpack_from(bo + ("Q" if big else "I"), data, val_at)[0]
        if ftype == 2:  # ASCII
            tags[tag] = (data[src:src + count].split(b"\0")[0].decode("latin-1"),)
        elif ftype in (5, 10):  # rational -> float
            vals = struct.unpack_from(bo + fmt * count, data, src)
            tags[tag] = tuple(vals[2 * j] / (vals[2 * j + 1] or 1) for j in range(count))
        else:
            tags[tag] = struct.unpack_from(bo + str(count) + fmt, data, src)
    return tags


def _packbits_decode(data: bytes) -> bytes:
    """TIFF 6.0 §9 PackBits RLE: n in 0..127 copies n+1 literals,
    n in -127..-1 repeats the next byte 1-n times, -128 is a no-op."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        c = data[i]
        i += 1
        if c < 128:  # literal run
            out += data[i:i + c + 1]
            i += c + 1
        elif c > 128:  # repeat run of 257-c
            out += data[i:i + 1] * (257 - c)
            i += 1
        # c == 128: no-op
    return bytes(out)


_LZW_CLEAR, _LZW_EOI = 256, 257


def _lzw_decode(data: bytes) -> bytes:
    """TIFF 6.0 §13 LZW: MSB-first bit packing, 9->12 bit codes,
    ClearCode=256, EOI=257, EARLY CHANGE (the code width grows when the
    table reaches 2^width - 1, one code before a late-change coder
    would — the libtiff/GDAL convention the spec's errata fixed)."""
    out = bytearray()
    bits = nbits = pos = 0
    width = 9
    table: list[bytes] | None = None
    prev: bytes | None = None
    dlen = len(data)
    while True:
        while nbits < width:
            if pos >= dlen:
                return bytes(out)  # truncated stream: emit what we have
            bits = (bits << 8) | data[pos]
            pos += 1
            nbits += 8
        code = (bits >> (nbits - width)) & ((1 << width) - 1)
        nbits -= width
        if code == _LZW_EOI:
            return bytes(out)
        if code == _LZW_CLEAR:
            table = [bytes([i]) for i in range(256)] + [b"", b""]
            width = 9
            prev = None
            continue
        if table is None:
            raise ValueError("LZW stream must begin with a ClearCode")
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):  # the KwKwK case
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError(f"corrupt LZW stream: code {code} beyond table")
        out += entry
        prev = entry
        if len(table) == (1 << width) - 1 and width < 12:
            width += 1


def _jpeg_with_tables(chunk: bytes, tables) -> bytes:
    """Re-join an abbreviated JPEG chunk with the shared JPEGTables
    stream: insert the tables' segments right after the chunk's SOI
    (T.81 only requires DQT/DHT to precede the scan that uses them).
    Chunks that already carry their own tables pass through when no
    tables tag exists."""
    if not tables or len(tables) <= 4 or chunk[:2] != b"\xff\xd8":
        return chunk
    body = bytes(tables)
    if body[:2] == b"\xff\xd8":
        body = body[2:]
    if body[-2:] == b"\xff\xd9":
        body = body[:-2]
    return chunk[:2] + body + chunk[2:]


def _decode_jpeg_chunk(chunk: bytes, tables, samples: int) -> "np.ndarray":
    from ..core.jpeg import decode_jpeg

    rgba = decode_jpeg(_jpeg_with_tables(chunk, tables))
    return rgba[:, :, :samples]


def _decompress(chunk: bytes, compression: int) -> bytes:
    if compression == 1:
        return chunk
    if compression in (8, 32946):  # zlib/deflate (Adobe + legacy code)
        return zlib.decompress(chunk)
    if compression == 5:
        return _lzw_decode(chunk)
    if compression == 32773:
        return _packbits_decode(chunk)
    raise NotImplementedError(
        f"TIFF compression {compression} not supported "
        "(none=1, LZW=5, JPEG=7, deflate=8, PackBits=32773)"
    )


def _undo_predictor(rows: np.ndarray, predictor: int) -> np.ndarray:
    """rows: (nrows, width, channels), uint8 or uint16 (the predictor
    operates on the unsigned bit pattern; int16 views back after)."""
    if predictor == 1:
        return rows
    if predictor == 2:  # horizontal differencing per channel, mod 2^bits
        return np.cumsum(rows.astype(np.uint64), axis=1).astype(rows.dtype)
    raise NotImplementedError(f"TIFF predictor {predictor} not supported (only 1, 2)")


def read_geotiff(path_or_bytes) -> GeoTIFF:
    """Parse a (Geo)TIFF file into a GeoTIFF record.

    Matches the subset GDAL would hand the reference for its own
    fixture (testdata/gradient.tif: 256x256 RGB, deflate strips,
    predictor 2, WGS84 plate-carree world coverage) plus tiled layouts.
    """
    if isinstance(path_or_bytes, (bytes, bytearray)):
        data = bytes(path_or_bytes)
    else:
        with open(path_or_bytes, "rb") as f:
            data = f.read()
    if data[:2] == b"II":
        bo = "<"
    elif data[:2] == b"MM":
        bo = ">"
    else:
        raise ValueError("not a TIFF: bad byte-order mark")
    magic = struct.unpack_from(bo + "H", data, 2)[0]
    big = magic == 43
    if not big and magic != 42:
        raise ValueError(f"not a TIFF: magic {magic}")
    if big:
        osz, zero = struct.unpack_from(bo + "HH", data, 4)
        if osz != 8 or zero != 0:
            raise ValueError(f"bad BigTIFF header (offset size {osz})")

    t = _read_ifd(data, bo, big=big)
    width = int(t[TAG_WIDTH][0])
    height = int(t[TAG_HEIGHT][0])
    samples = int(t.get(TAG_SAMPLES, (1,))[0])
    bits = t.get(TAG_BITS, (8,) * samples)
    if len(set(bits)) != 1 or bits[0] not in (8, 16):
        raise NotImplementedError(
            f"only uniform 8- or 16-bit samples supported, got {bits}")
    depth = int(bits[0])
    if samples not in (1, 3, 4):
        raise NotImplementedError(f"unsupported channel count {samples}")
    planar = int(t.get(TAG_PLANAR, (1,))[0])
    if planar not in (1, 2):
        raise NotImplementedError(f"TIFF planar configuration {planar} not supported")
    compression = int(t.get(TAG_COMPRESSION, (1,))[0])
    photometric = int(t.get(TAG_PHOTOMETRIC, (1,))[0])
    # 6=YCbCr is what the JPEG codestream itself carries (decoded back
    # to RGB by the codec), so it is only meaningful under JPEG
    allowed_photo = (0, 1, 2, 3, 6) if compression == 7 else (0, 1, 2, 3)
    if photometric not in allowed_photo:
        raise NotImplementedError(
            f"TIFF photometric interpretation {photometric} not supported "
            "(0=min-is-white, 1=grayscale, 2=RGB, 3=palette, 6=YCbCr "
            "under JPEG)")

    if photometric == 3 and (samples != 1 or TAG_COLORMAP not in t):
        raise NotImplementedError(
            "palette TIFF needs SamplesPerPixel=1 and a ColorMap tag")
    sample_fmt = t.get(TAG_SAMPLE_FORMAT, (1,) * samples)
    if any(f not in (1, 2) for f in sample_fmt) or (
            2 in sample_fmt and depth == 8):
        raise NotImplementedError(
            f"TIFF sample format {sample_fmt} not supported "
            "(1=unsigned at 8/16 bit, 2=signed at 16 bit — the DEM case)")
    signed = sample_fmt[0] == 2
    # decode in the UNSIGNED bit pattern (predictor semantics), view to
    # the final dtype at the end
    wire = np.dtype(bo + ("u2" if depth == 16 else "u1"))
    work = np.uint16 if depth == 16 else np.uint8
    final = np.int16 if signed else work
    predictor = int(t.get(TAG_PREDICTOR, (1,))[0])
    jpeg_tables = None
    if compression == 7:
        if (depth != 8 or signed or planar != 1 or predictor != 1
                or photometric not in (1, 2, 6)):
            raise NotImplementedError(
                "JPEG-in-TIFF supports 8-bit unsigned chunky grey/RGB/YCbCr "
                "samples without a predictor (the shape GDAL emits)")
        raw_tables = t.get(TAG_JPEG_TABLES)
        if raw_tables is not None:
            jpeg_tables = bytes(raw_tables)

    # planar=2: chunks are plane-major (all chunks of sample 0, then
    # sample 1, ...; TIFF 6.0 §PlanarConfiguration); each chunk holds
    # ONE channel
    chans_per_chunk = samples if planar == 1 else 1
    arr = np.zeros((height, width, samples), dtype=work)
    if TAG_TILE_OFFSETS in t:  # tiled layout
        tw = int(t[TAG_TILE_WIDTH][0])
        th = int(t[TAG_TILE_HEIGHT][0])
        offs, cnts = t[TAG_TILE_OFFSETS], t[TAG_TILE_COUNTS]
        across = (width + tw - 1) // tw
        down = (height + th - 1) // th
        per_plane = across * down
        for idx, (o, c) in enumerate(zip(offs, cnts)):
            plane, pidx = divmod(idx, per_plane) if planar == 2 else (None, idx)
            if compression == 7:
                dec = _decode_jpeg_chunk(data[o:o + c], jpeg_tables, samples)
                tile = np.zeros((th, tw, chans_per_chunk), work)
                tile[: dec.shape[0], : dec.shape[1]] = dec[:th, :tw]
            else:
                raw = _decompress(data[o:o + c], compression)
                tile = np.frombuffer(raw, wire)[: tw * th * chans_per_chunk].astype(work)
                tile = _undo_predictor(
                    tile.reshape(th, tw, chans_per_chunk), predictor)
            ty, tx = divmod(pidx, across)
            y0, x0 = ty * th, tx * tw
            dst = arr[y0:y0 + th, x0:x0 + tw]
            src = tile[: height - y0, : width - x0]
            if planar == 2:
                dst[:, :, plane] = src[:, :, 0]
            else:
                dst[:] = src
    else:  # strip layout
        rps = int(t.get(TAG_ROWS_PER_STRIP, (height,))[0])
        offs, cnts = t[TAG_STRIP_OFFSETS], t[TAG_STRIP_COUNTS]
        per_plane = (height + rps - 1) // rps
        for idx, (o, c) in enumerate(zip(offs, cnts)):
            plane, pidx = divmod(idx, per_plane) if planar == 2 else (None, idx)
            y0 = pidx * rps
            nrows = min(rps, height - y0)
            if compression == 7:
                dec = _decode_jpeg_chunk(data[o:o + c], jpeg_tables, samples)
                rows = np.zeros((nrows, width, chans_per_chunk), work)
                rows[: dec.shape[0], : dec.shape[1]] = dec[:nrows, :width]
            else:
                raw = _decompress(data[o:o + c], compression)
                rows = np.frombuffer(raw, wire)[: nrows * width * chans_per_chunk].astype(work)
                rows = _undo_predictor(
                    rows.reshape(nrows, width, chans_per_chunk), predictor)
            if planar == 2:
                arr[y0:y0 + nrows, :, plane] = rows[:, :, 0]
            else:
                arr[y0:y0 + nrows] = rows
    arr = arr.view(final) if signed else arr
    if photometric == 0:
        if signed:
            raise NotImplementedError("min-is-white with signed samples")
        # invert to min-is-black (GDAL's MINISWHITE normalization)
        arr = ((1 << depth) - 1 - arr.astype(np.int64)).astype(work)
    elif photometric == 3:
        # palette expansion: ColorMap holds 3*2^depth uint16s (all reds,
        # all greens, all blues; 0xFFFF = white) -> 8-bit RGB via /257
        cmap = np.asarray(t[TAG_COLORMAP], dtype=np.uint32).reshape(3, -1)
        if cmap.shape[1] != (1 << depth):
            raise ValueError(
                f"ColorMap has {cmap.shape[1]} entries, expected {1 << depth}")
        rgb8 = np.rint(cmap / 257.0).astype(np.uint8)
        arr = rgb8[:, arr[:, :, 0]].transpose(1, 2, 0)

    # georeferencing: ModelTransformation wins, else scale+tiepoint
    if TAG_TRANSFORM in t:
        m = t[TAG_TRANSFORM]
        gt = (m[3], m[0], m[1], m[7], m[4], m[5])
    elif TAG_PIXEL_SCALE in t and TAG_TIEPOINT in t:
        sx, sy = t[TAG_PIXEL_SCALE][0], t[TAG_PIXEL_SCALE][1]
        tp = t[TAG_TIEPOINT]  # (i, j, k, x, y, z): pixel (i,j) -> model (x,y)
        gt = (tp[3] - tp[0] * sx, sx, 0.0, tp[4] + tp[1] * sy, 0.0, -sy)
    else:
        gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # pixel coords (no geo tags)

    model_type, raster_type, epsg = 0, 1, 0
    keys = t.get(TAG_GEO_KEYS)
    if keys:
        nkeys = keys[3]
        for k in range(nkeys):
            kid, loc, cnt, val = keys[4 + 4 * k: 8 + 4 * k]
            if kid == KEY_MODEL_TYPE:
                model_type = val
            elif kid == KEY_RASTER_TYPE:
                raster_type = val
            elif kid in (KEY_GEOGRAPHIC_TYPE, KEY_PROJECTED_CS) and loc == 0:
                epsg = val
    if epsg in (0, 32767):
        if model_type == 2:
            epsg = 4326  # geographic, user-defined/absent code: WGS84
        elif model_type == 1:
            raise NotImplementedError(
                "projected GeoTIFF without an inline EPSG code "
                "(ProjectedCSTypeGeoKey absent or 32767=user-defined): the "
                "CRS cannot be resolved without a PROJ database")
    if raster_type == 2:
        # PixelIsPoint: the tiepoint names the SAMPLE POINT, so the
        # area-style origin sits half a pixel up-left (GDAL's
        # GTIFF_POINTGEOLOCATION shift)
        gt = (gt[0] - 0.5 * gt[1], gt[1], gt[2],
              gt[3] - 0.5 * gt[5], gt[4], gt[5])
    return GeoTIFF(array=arr, geotransform=gt, epsg=int(epsg),
                   model_type=int(model_type), raster_type=int(raster_type))


# ---- world-file rasters (GDAL's PNG/JPEG/WEBP-with-sidecar path) --------

_WORLD_EXTS = {".png": ".pgw", ".jpg": ".jgw", ".jpeg": ".jgw",
               ".webp": ".wpw"}


def _world_file_for(path: str):
    import os

    base, ext = os.path.splitext(path)
    cands = []
    if ext.lower() in _WORLD_EXTS:
        cands.append(base + _WORLD_EXTS[ext.lower()])
    cands.append(base + ".wld")
    for c in cands:
        if os.path.exists(c):
            return c
    return None


def _read_world_file(path: str):
    """ESRI world file -> geotransform (x0, dx, rx, y0, ry, dy).

    Six lines A D B E C F: pixel sizes/rotations plus the coordinates
    of the CENTER of the upper-left pixel; the area-convention origin
    shifts back half a pixel along both axes (what GDAL does when it
    pairs a world file with a raster)."""
    with open(path) as f:
        vals = [float(line.strip()) for line in f if line.strip()][:6]
    if len(vals) != 6:
        raise ValueError(f"world file {path!r} needs 6 numeric lines")
    a, d, b, e, c, fy = vals
    return (c - a / 2.0 - b / 2.0, a, b, fy - d / 2.0 - e / 2.0, d, e)


def _wkt_epsg(wkt: str, what: str = "WKT"):
    """EPSG from a WKT string: the LAST AUTHORITY clause names the
    top-level CRS code. No PROJ database in the sandbox, so anything
    else raises (honest gate, like the projected GeoTIFF without an
    inline code)."""
    import re

    codes = re.findall(r'AUTHORITY\[\s*"EPSG"\s*,\s*"?(\d+)"?\s*\]', wkt)
    if not codes:
        raise NotImplementedError(
            f"{what} carries no EPSG AUTHORITY clause; CRS cannot be "
            "resolved without a PROJ database")
    return int(codes[-1])


def _read_prj_epsg(path: str):
    """Best-effort EPSG from a sidecar .prj (WKT AUTHORITY clause)."""
    import os

    prj = os.path.splitext(path)[0] + ".prj"
    if not os.path.exists(prj):
        return None
    return _wkt_epsg(open(prj).read(), what=repr(prj))


def read_raster_source(path_or_bytes, epsg: int | None = None) -> GeoTIFF:
    """Open any supported georeferenced raster as a GeoTIFF record:
    TIFF/BigTIFF via the stdlib parser, NetCDF classic CF grids
    (sources/netcdf.py), ESRI ASCII grids / SRTM .hgt DEM tiles
    (sources/grids.py), or PNG/JPEG/WEBP paired with an ESRI world
    file (+ optional .prj) — the sidecar path GDAL's raster
    driver accepts (from_gdal opens any GDAL dataset,
    operation.rs:56-221; these are the formats whose codecs exist
    in-repo). ``epsg`` overrides/supplies the CRS (world files carry
    none; default 4326 geographic)."""
    if isinstance(path_or_bytes, (bytes, bytearray)):
        head = bytes(path_or_bytes[:8])
        if head[:3] == b"CDF" or head == b"\x89HDF\r\n\x1a\n":
            from .netcdf import read_netcdf

            return read_netcdf(path_or_bytes, epsg=epsg)
        from .grids import looks_like_aaigrid, read_aaigrid
        from .vrt import looks_like_vrt, read_vrt

        if looks_like_vrt(bytes(path_or_bytes[:256])):
            return read_vrt(path_or_bytes, epsg=epsg)
        if looks_like_aaigrid(head):
            return read_aaigrid(path_or_bytes, epsg=epsg)
        return read_geotiff(path_or_bytes)
    path = str(path_or_bytes)
    head = open(path, "rb").read(256)
    if head[:3] == b"CDF" or head[:8] == b"\x89HDF\r\n\x1a\n":
        from .netcdf import read_netcdf

        return read_netcdf(path, epsg=epsg)
    from .grids import looks_like_aaigrid, read_aaigrid, read_hgt
    from .vrt import looks_like_vrt, read_vrt

    if path.lower().endswith(".vrt") or looks_like_vrt(head):
        return read_vrt(path, epsg=epsg)
    if path.lower().endswith(".hgt"):
        return read_hgt(path, epsg=epsg)
    if path.lower().endswith((".asc", ".agr")) or looks_like_aaigrid(head):
        return read_aaigrid(path, epsg=epsg)
    if head[:2] in (b"II", b"MM"):
        g = read_geotiff(path)
        if epsg:
            return GeoTIFF(array=g.array, geotransform=g.geotransform,
                           epsg=int(epsg), model_type=g.model_type,
                           raster_type=g.raster_type)
        return g
    from ..core.formats import sniff_format
    from ..core.raster import decode

    blob = open(path, "rb").read()
    fmt = sniff_format(blob)
    if fmt not in ("png", "jpg", "webp"):
        raise NotImplementedError(
            f"raster source {path!r}: unrecognized format "
            "(TIFF, NetCDF classic, AAIGrid, HGT, PNG, JPEG, WEBP "
            "supported)")
    wf = _world_file_for(path)
    if wf is None:
        raise NotImplementedError(
            f"raster source {path!r}: no world file "
            f"({_WORLD_EXTS.get('.' + fmt.replace('jpg', 'jpg'), '.wld')} "
            "or .wld) — an unreferenced image cannot be warped")
    gt = _read_world_file(wf)
    code = epsg or _read_prj_epsg(path) or 4326
    arr = decode(blob, fmt)
    return GeoTIFF(array=arr, geotransform=gt, epsg=int(code),
                   model_type=2 if code == 4326 else 1, raster_type=1)
