"""Terrain derivatives over DEM rasters: Horn slope/aspect/hillshade
and the two public terrain-RGB elevation encodings (Terrarium, Mapbox).

The operators transform the SOURCE elevation grid (the natural place:
one vectorized numpy pass over the whole DEM, before the warp fans it
into tiles), then the standard SRS reprojector pool turns the result
into ordinary uint8 RGBA mercator tiles — no new tile plumbing, no
16-bit tile codecs. VPL surface: ``from_terrain filename=...
mode=hillshade|slope|terrarium|mapbox``.

Formulas follow GDALDEM's documented Horn (1981) kernel
(gdaldem hillshade/slope defaults: 3x3 weighted differences over
8*cellsize, azimuth 315, altitude 45) so outputs are comparable to
the de-facto standard; goldens in tests/test_terrain.py pin analytic
planes (flat -> 255*sin(alt), a plane's slope -> atan(|g|), facing
the light brighter than facing away) rather than copying any
implementation. Terrarium: e = (R*256 + G + B/256) - 32768
(tile spec published by Mapzen); Mapbox: e = -10000 +
(R*65536 + G*256 + B) * 0.1.

Reference parity: the reference engine has no terrain surface
(graft-new, geospatial-tier depth alongside SURVEY.md §2.4 raster
ops).
"""

from __future__ import annotations

import numpy as np


def _horn_gradients(elev: np.ndarray, xres: float, yres: float,
                    scale: float = 1.0):
    """Horn 3x3 weighted gradients with edge replication.

    Returns (dz/dx, dz/dy) where +x is east (column increase) and +y
    is the direction rows increase. ``scale`` converts horizontal
    units to elevation units (111120 for degrees vs meters — the
    GDALDEM -s convention)."""
    e = np.pad(np.asarray(elev, dtype=np.float64), 1, mode="edge")
    a, b, c = e[:-2, :-2], e[:-2, 1:-1], e[:-2, 2:]
    d, f = e[1:-1, :-2], e[1:-1, 2:]
    g, h, i = e[2:, :-2], e[2:, 1:-1], e[2:, 2:]
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8.0 * xres * scale)
    dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) / (8.0 * yres * scale)
    return dzdx, dzdy


def slope_degrees(elev: np.ndarray, xres: float, yres: float,
                  scale: float = 1.0, z_factor: float = 1.0) -> np.ndarray:
    """Per-cell slope in degrees (Horn)."""
    dzdx, dzdy = _horn_gradients(elev, xres, yres, scale)
    return np.degrees(np.arctan(z_factor * np.hypot(dzdx, dzdy)))


def hillshade(elev: np.ndarray, xres: float, yres: float,
              azimuth: float = 315.0, altitude: float = 45.0,
              scale: float = 1.0, z_factor: float = 1.0) -> np.ndarray:
    """GDALDEM-style Horn hillshade -> uint8 (1..255, 0 reserved).

    shade = sin(alt)*cos(slope) + cos(alt)*sin(slope)*cos(az - aspect)
    with aspect measured like GDAL (atan2(dzdy, -dzdx), light azimuth
    clockwise from north converted into the same frame); negative
    illumination clips to 0 before the 1..255 scale."""
    dzdx, dzdy = _horn_gradients(elev, xres, yres, scale)
    slope = np.arctan(z_factor * np.hypot(dzdx, dzdy))
    aspect = np.arctan2(dzdy, -dzdx)
    az = np.radians(360.0 - azimuth + 90.0)
    alt = np.radians(altitude)
    shade = (np.sin(alt) * np.cos(slope)
             + np.cos(alt) * np.sin(slope) * np.cos(az - aspect))
    return (1.0 + 254.0 * np.clip(shade, 0.0, 1.0)).astype(np.uint8)


def terrarium_encode(elev: np.ndarray) -> np.ndarray:
    """Elevation (meters; int or float) -> (H, W, 3) uint8 Terrarium.
    Fractional meters land in B (1/256 m steps); range clamps to the
    encodable [-32768, 32767.996]."""
    v = (np.asarray(elev, dtype=np.float64) + 32768.0) * 256.0
    v = np.clip(np.floor(v + 0.5), 0, (1 << 24) - 1).astype(np.int64)
    out = np.empty(v.shape + (3,), dtype=np.uint8)
    out[..., 0] = (v >> 16) & 0xFF
    out[..., 1] = (v >> 8) & 0xFF
    out[..., 2] = v & 0xFF
    return out


def mapbox_encode(elev: np.ndarray) -> np.ndarray:
    """Elevation -> (H, W, 3) uint8 Mapbox terrain-RGB (0.1 m steps,
    offset -10000)."""
    v = np.floor((np.asarray(elev, dtype=np.float64) + 10000.0) * 10.0 + 0.5)
    v = np.clip(v, 0, (1 << 24) - 1).astype(np.int64)
    out = np.empty(v.shape + (3,), dtype=np.uint8)
    out[..., 0] = (v >> 16) & 0xFF
    out[..., 1] = (v >> 8) & 0xFF
    out[..., 2] = v & 0xFF
    return out


_MODES = ("hillshade", "slope", "terrarium", "mapbox")


def terrain_grid(g, mode: str = "terrarium", azimuth: float = 315.0,
                 altitude: float = 45.0, scale: float | None = None,
                 z_factor: float = 1.0) -> np.ndarray:
    """Apply a terrain mode to a decoded raster source (GeoTIFF-like:
    .array (H, W, C) with band 0 = elevation, .geotransform,
    .model_type). Returns a uint8 (H, W, C') grid ready for the
    standard warp. ``scale`` defaults to 111120 for geographic sources
    (degrees horizontal vs meter elevations — the gdaldem -s rule)
    and 1.0 for projected ones."""
    if mode not in _MODES:
        raise ValueError(f"terrain mode {mode!r}: want one of {_MODES}")
    arr = g.array
    elev = (arr[..., 0] if arr.ndim == 3 else arr).astype(np.float64)
    if mode in ("terrarium", "mapbox"):
        return terrarium_encode(elev) if mode == "terrarium" \
            else mapbox_encode(elev)
    if scale is None:
        scale = 111120.0 if getattr(g, "model_type", 1) == 2 else 1.0
    gt = g.geotransform
    xres, yres = abs(gt[1]), abs(gt[5])
    if mode == "hillshade":
        return hillshade(elev, xres, yres, azimuth=azimuth,
                         altitude=altitude, scale=scale, z_factor=z_factor)
    sl = slope_degrees(elev, xres, yres, scale=scale, z_factor=z_factor)
    return np.clip(np.floor(sl / 90.0 * 255.0 + 0.5),
                   0, 255).astype(np.uint8)
