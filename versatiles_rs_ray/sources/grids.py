"""Simple-grid raster readers: ESRI ASCII Grid (AAIGrid) and SRTM
``.hgt`` — two more of the formats the reference's `from_gdal_raster`
accepts through GDAL (operation.rs:56-221), implemented from their
public format descriptions for the `read_raster_source` registry
(sources/geotiff.py).

Both are DEM-class single-band grids and land in the engine's
interchange exactly like the NetCDF reader: (H, W, 1) int16 north-up
arrays + a GDAL geotransform.

- AAIGrid (the Arc/Info ASCII grid GDAL's AAIGrid driver reads):
  self-describing text header (ncols/nrows, xll{corner|center},
  cellsize, optional nodata_value) followed by whitespace-separated
  rows top-first. Corner registration = PixelIsArea; the center
  variant shifts the origin half a cell. CRS from a sidecar ``.prj``
  (WKT AUTHORITY), the ``epsg`` argument, else geographic.
- SRTM HGT: raw big-endian int16 square grids named for their
  south-west corner (``N50E006.hgt``); 1201/3601 per side with the
  one-sample overlap, samples point-registered ON integer-degree
  edges (GDAL: step = 1/(n-1), origin shifted half a step out).
  Always EPSG:4326; -32768 is the published void value.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np


def _finish(arr: np.ndarray, what: str) -> np.ndarray:
    """float64 grid -> (H, W, 1) int16 for the warp pool, or an honest
    gate when values don't fit (the warp path is 8/16-bit, the same
    contract as the NetCDF NC_INT branch)."""
    if arr.size and not np.all(np.isfinite(arr)):
        raise NotImplementedError(
            f"{what} carries non-finite values; the 8/16-bit warp "
            "path has no NaN channel")
    if arr.size and np.any(arr != np.floor(arr)):
        raise NotImplementedError(
            f"{what} carries fractional values; the warp pool is "
            "8/16-bit integer")
    if arr.size and (arr.min() < -32768 or arr.max() > 32767):
        raise NotImplementedError(
            f"{what} values exceed int16; the warp pool is 8/16-bit")
    return np.ascontiguousarray(arr.astype(np.int16))[..., None]


_ASC_KEYS = ("ncols", "nrows", "xllcorner", "xllcenter", "yllcorner",
             "yllcenter", "cellsize", "nodata_value", "dx", "dy")


def looks_like_aaigrid(head: bytes) -> bool:
    """Cheap sniff: the header starts with an AAIGrid keyword."""
    try:
        first = head.decode("ascii", "strict").lstrip().lower()
    except UnicodeDecodeError:
        return False
    return first.startswith(("ncols", "nrows"))


def read_aaigrid(path_or_bytes, epsg: int | None = None):
    """ESRI ASCII grid -> GeoTIFF record ((H, W, 1) int16)."""
    from .geotiff import GeoTIFF, _read_prj_epsg

    if isinstance(path_or_bytes, (bytes, bytearray)):
        text = bytes(path_or_bytes).decode("ascii")
        prj_code = None
        what = "AAIGrid bytes"
    else:
        text = open(path_or_bytes, "r", encoding="ascii").read()
        prj_code = _read_prj_epsg(str(path_or_bytes))
        what = f"AAIGrid {path_or_bytes!r}"

    # header: keyword value lines until the first pure-numeric row
    hdr: dict = {}
    pos = 0
    for m in re.finditer(r"^[ \t]*([A-Za-z_]+)[ \t]+(\S+)[ \t]*\r?$",
                         text, re.M):
        if m.start() != pos and text[pos : m.start()].strip():
            break
        key = m.group(1).lower()
        if key not in _ASC_KEYS:
            break
        hdr[key] = float(m.group(2))
        pos = m.end()
    for need in ("ncols", "nrows", "cellsize"):
        if need not in hdr:
            if need == "cellsize" and ("dx" in hdr or "dy" in hdr):
                raise NotImplementedError(
                    f"{what}: dx/dy headers (non-square cells) are not "
                    "supported")
            raise ValueError(f"{what}: header misses {need}")
    ncols, nrows = int(hdr["ncols"]), int(hdr["nrows"])
    cell = hdr["cellsize"]
    if "xllcorner" in hdr:
        x0 = hdr["xllcorner"]
    elif "xllcenter" in hdr:
        x0 = hdr["xllcenter"] - cell / 2.0
    else:
        raise ValueError(f"{what}: header misses xllcorner/xllcenter")
    if "yllcorner" in hdr:
        yll = hdr["yllcorner"]
    elif "yllcenter" in hdr:
        yll = hdr["yllcenter"] - cell / 2.0
    else:
        raise ValueError(f"{what}: header misses yllcorner/yllcenter")

    vals = np.array(text[pos:].split(), dtype=np.float64)
    if vals.size != ncols * nrows:
        raise ValueError(
            f"{what}: {vals.size} values for a {ncols}x{nrows} grid")
    arr = _finish(vals.reshape(nrows, ncols), what)
    gt = (x0, cell, 0.0, yll + nrows * cell, 0.0, -cell)
    code = epsg or prj_code or 4326
    return GeoTIFF(array=arr, geotransform=gt, epsg=int(code),
                   model_type=2 if code == 4326 else 1, raster_type=1)


_HGT_NAME = re.compile(r"^([NS])(\d{1,2})([EW])(\d{1,3})$", re.I)


def read_hgt(path: str, epsg: int | None = None):
    """SRTM .hgt -> GeoTIFF record. Georeferencing lives in the FILE
    NAME (south-west corner), so bytes-only input has nothing to
    anchor to — a path is required."""
    from .geotiff import GeoTIFF

    base = os.path.splitext(os.path.basename(str(path)))[0]
    m = _HGT_NAME.match(base)
    if not m:
        raise ValueError(
            f"hgt {path!r}: file name must encode the SW corner "
            "(e.g. N50E006.hgt)")
    lat = int(m.group(2)) * (1 if m.group(1).upper() == "N" else -1)
    lon = int(m.group(4)) * (1 if m.group(3).upper() == "E" else -1)
    raw = open(path, "rb").read()
    n2 = len(raw) // 2
    n = int(math.isqrt(n2))
    if n * n != n2 or len(raw) % 2 or n < 2:
        raise ValueError(
            f"hgt {path!r}: {len(raw)} bytes is not a square int16 grid")
    arr = np.frombuffer(raw, dtype=">i2", count=n * n).reshape(n, n)
    step = 1.0 / (n - 1)
    # samples sit ON the integer-degree lines (point registration);
    # GDAL exposes the edge-to-edge transform shifted half a step out
    gt = (lon - step / 2.0, step, 0.0, lat + 1 + step / 2.0, 0.0, -step)
    return GeoTIFF(array=np.ascontiguousarray(
        arr.astype(np.int16))[..., None],
        geotransform=gt, epsg=int(epsg or 4326),
        model_type=2, raster_type=2)


