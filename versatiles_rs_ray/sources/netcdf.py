"""Pure-stdlib NetCDF classic reader — gridded-raster breadth for
`from_gdal_raster`.

The reference opens NetCDF grids through GDAL's netCDF driver
(versatiles_pipeline/src/operations/read/from_gdal/raster/raster_source.rs:36-112
accepts any GDAL dataset). GDAL is not in this sandbox, so this module
parses the NetCDF classic binary format (CDF-1 / CDF-2, the published
NetCDF "classic file format" spec) directly with struct + numpy and
applies the CF conventions GDAL's driver uses for georeferencing:
1-D coordinate variables named after their dimensions give the cell
centers; the geotransform is the half-cell-shifted edge grid; an
ascending latitude axis is flipped to the north-up row order GDAL
reports. Like GDAL, packed-data attributes (scale_factor/add_offset)
are NOT applied on read — the raw stored integers pass through
dtype-preserved into the warp pool (stages/reproject.py handles
uint8/uint16/int16).

Scope (honest gates, not stubs): CDF-1 and CDF-2 (64-bit offsets);
fixed-size and record variables (record grids read record 0, the
GDAL default band for a (time, lat, lon) cube); NC_BYTE (widened to
int16 — exact), NC_SHORT, and NC_INT when the stored values fit
int16; CRS from a grid_mapping variable's `spatial_ref`/`crs_wkt`
WKT AUTHORITY clause or an `epsg_code` attribute, defaulting to 4326
when the coordinate units are degrees. NC_FLOAT/NC_DOUBLE grids,
non-uniform coordinate spacing, and HDF5-based NetCDF-4 raise
NotImplementedError naming the exact capability (the repo's gating
convention, core/compression.py).
"""

from __future__ import annotations

import struct

import numpy as np

from .geotiff import GeoTIFF

_ABSENT = 0
_NC_DIMENSION = 0x0A
_NC_VARIABLE = 0x0B
_NC_ATTRIBUTE = 0x0C

# nc_type -> (numpy dtype (big-endian), byte size)
_NC_TYPES = {1: (">i1", 1), 2: ("S1", 1), 3: (">i2", 2),
             4: (">i4", 4), 5: (">f4", 4), 6: (">f8", 8)}

_Y_NAMES = ("lat", "latitude", "y")
_X_NAMES = ("lon", "longitude", "x")
_Y_UNITS = ("degrees_north", "degree_north", "degrees_n")
_X_UNITS = ("degrees_east", "degree_east", "degrees_e")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def i4(self) -> int:
        (v,) = struct.unpack_from(">i", self.data, self.pos)
        self.pos += 4
        return v

    def i8(self) -> int:
        (v,) = struct.unpack_from(">q", self.data, self.pos)
        self.pos += 8
        return v

    def name(self) -> str:
        n = self.i4()
        s = self.data[self.pos : self.pos + n].decode("utf-8")
        self.pos += (n + 3) & ~3  # names pad to a 4-byte boundary
        return s

    def values(self, nc_type: int, nelems: int):
        dt, size = _NC_TYPES[nc_type]
        nbytes = nelems * size
        raw = self.data[self.pos : self.pos + nbytes]
        self.pos += (nbytes + 3) & ~3  # values pad to 4 bytes
        if nc_type == 2:
            return raw.decode("utf-8", errors="replace")
        return np.frombuffer(raw, dtype=dt, count=nelems)

    def att_list(self) -> dict:
        tag = self.i4()
        nelems = self.i4()
        if tag == _ABSENT:
            return {}
        if tag != _NC_ATTRIBUTE:
            raise ValueError(f"bad attribute-list tag {tag}")
        out = {}
        for _ in range(nelems):
            aname = self.name()
            out[aname] = self.values(self.i4(), self.i4())
        return out


def _parse_header(data: bytes):
    """-> (version, numrecs, dims, gatts, vars); vars is a list of
    dicts with name/dimids/atts/nc_type/vsize/begin."""
    if data[:3] != b"CDF":
        if data[:8] == b"\x89HDF\r\n\x1a\n" or data[:4] == b"\x0eHDF":
            raise NotImplementedError(
                "NetCDF-4 (HDF5-based) files not supported; classic "
                "CDF-1/CDF-2 only")
        raise ValueError("not a NetCDF classic file (bad magic)")
    version = data[3]
    if version not in (1, 2):
        raise NotImplementedError(
            f"NetCDF classic version {version} not supported (CDF-1/"
            "CDF-2 only; CDF-5 needs 64-bit dimension parsing)")
    r = _Reader(data)
    r.pos = 4
    numrecs = r.i4()  # -1 == STREAMING; callers only need >=0 or 'some'
    tag = r.i4()
    ndims = r.i4()
    dims = []  # (name, length); length 0 == the record dimension
    if tag == _NC_DIMENSION:
        for _ in range(ndims):
            dims.append((r.name(), r.i4()))
    elif tag != _ABSENT:
        raise ValueError(f"bad dimension-list tag {tag}")
    gatts = r.att_list()
    tag = r.i4()
    nvars = r.i4()
    variables = []
    if tag == _NC_VARIABLE:
        for _ in range(nvars):
            vname = r.name()
            vdims = [r.i4() for _ in range(r.i4())]
            vatts = r.att_list()
            nc_type = r.i4()
            vsize = r.i4()
            begin = r.i8() if version == 2 else r.i4()
            variables.append({"name": vname, "dimids": vdims,
                              "atts": vatts, "nc_type": nc_type,
                              "vsize": vsize, "begin": begin})
    elif tag != _ABSENT:
        raise ValueError(f"bad variable-list tag {tag}")
    return version, numrecs, dims, gatts, variables


def _read_var(data: bytes, var: dict, dims, record: int, recsize: int):
    """Read one variable (record vars: the given record) -> ndarray
    shaped by its non-record dimensions."""
    dt, size = _NC_TYPES[var["nc_type"]]
    shape = []
    is_record = False
    for j, d in enumerate(var["dimids"]):
        dname, dlen = dims[d]
        if dlen == 0 and j == 0:
            is_record = True
        else:
            shape.append(dlen)
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    off = var["begin"] + (record * recsize if is_record else 0)
    arr = np.frombuffer(data, dtype=dt, count=count, offset=off)
    return arr.reshape(shape)


def _axis_kind(name: str, atts: dict) -> str | None:
    units = atts.get("units", "")
    if isinstance(units, str):
        u = units.strip().lower()
        if u in _Y_UNITS:
            return "y"
        if u in _X_UNITS:
            return "x"
    n = name.lower()
    if n in _Y_NAMES:
        return "y"
    if n in _X_NAMES:
        return "x"
    return None


def _uniform_step(coord: np.ndarray, axis_name: str) -> float:
    if coord.size < 2:
        raise NotImplementedError(
            f"netcdf coordinate {axis_name!r} has <2 points; cell size "
            "is undefined")
    c = coord.astype(np.float64)
    # endpoint-averaged step: per-value NC_FLOAT rounding (~6e-8·|coord|,
    # the common CF layout) cancels instead of biasing the cell size
    step = float(c[-1] - c[0]) / (c.size - 1)
    # tolerance scales with coordinate magnitude for the same reason
    atol = max(1e-9, float(np.abs(c).max()) * 1e-6)
    if step == 0.0 or not np.allclose(np.diff(c), step, rtol=1e-4,
                                      atol=atol):
        raise NotImplementedError(
            f"netcdf coordinate {axis_name!r} is not uniformly spaced; "
            "irregular grids need a VRT-style geolocation warp")
    return step


def _epsg_from_atts(gatts: dict, gm_atts: dict, degrees: bool,
                    epsg: int | None) -> int:
    if epsg:
        return int(epsg)
    for atts in (gm_atts, gatts):
        code = atts.get("epsg_code")
        if code is not None:
            if isinstance(code, str):  # e.g. "EPSG:3857"
                return int(code.rsplit(":", 1)[-1])
            return int(np.asarray(code).reshape(-1)[0])
        for key in ("spatial_ref", "crs_wkt"):
            wkt = atts.get(key)
            if isinstance(wkt, str) and "AUTHORITY" in wkt:
                from .geotiff import _wkt_epsg

                return _wkt_epsg(wkt)
    if degrees:
        return 4326
    raise NotImplementedError(
        "netcdf grid carries no CRS (no grid_mapping spatial_ref/"
        "crs_wkt/epsg_code and projected coordinate units); pass epsg=")


def read_netcdf(path_or_bytes, epsg: int | None = None) -> GeoTIFF:
    """NetCDF classic grid -> GeoTIFF record for the warp pool.

    Picks the first data variable whose trailing two dimensions are
    the CF y/x coordinate dimensions (leading dimensions — time,
    level, the record dimension — are sliced at index 0, GDAL's
    default band). Returns raw stored values dtype-preserved (like
    GDAL, scale_factor/add_offset are metadata, not applied).
    """
    if isinstance(path_or_bytes, (bytes, bytearray)):
        data = bytes(path_or_bytes)
    else:
        data = open(path_or_bytes, "rb").read()
    version, numrecs, dims, gatts, variables = _parse_header(data)
    by_name = {v["name"]: v for v in variables}
    dim_names = {n for n, _ in dims}
    recsize = sum(v["vsize"] for v in variables
                  if v["dimids"] and dims[v["dimids"][0]][1] == 0)
    # CF coordinate variables: 1-D, named after their dimension
    coord_axis = {}  # dim index -> ("y"|"x", values)
    for v in variables:
        if len(v["dimids"]) != 1 or dims[v["dimids"][0]][0] != v["name"]:
            continue
        kind = _axis_kind(v["name"], v["atts"])
        if kind:
            coord_axis[v["dimids"][0]] = (
                kind, _read_var(data, v, dims, 0, recsize))
    grid = None
    for v in variables:
        if len(v["dimids"]) < 2 or v["name"] in dim_names:
            continue
        dy, dx = v["dimids"][-2], v["dimids"][-1]
        if (coord_axis.get(dy, ("",))[0] == "y"
                and coord_axis.get(dx, ("",))[0] == "x"):
            grid = v
            break
    if grid is None:
        raise NotImplementedError(
            "netcdf file has no variable with trailing CF (y, x) "
            "coordinate dimensions")
    nc_type = grid["nc_type"]
    if nc_type not in (1, 3, 4):
        raise NotImplementedError(
            f"netcdf grid dtype nc_type={nc_type} (float/double/char) "
            "not supported by the 8/16-bit tile engine; quantize to "
            "byte or short upstream")
    arr = _read_var(data, grid, dims, 0, recsize)
    # leading non-spatial dims (level, ...) -> slice 0 like GDAL band 1
    while arr.ndim > 2:
        arr = arr[0]
    if nc_type == 1:
        arr = arr.astype(np.int16)  # NC_BYTE is signed; widen exactly
    elif nc_type == 3:
        arr = arr.astype(np.int16)
    else:  # NC_INT: only when the stored values fit the warp's int16
        if arr.size and (arr.min() < -32768 or arr.max() > 32767):
            raise NotImplementedError(
                "netcdf NC_INT grid values exceed int16; the warp pool "
                "is 8/16-bit")
        arr = arr.astype(np.int16)
    yname = dims[grid["dimids"][-2]][0]
    _, ycoord = coord_axis[grid["dimids"][-2]]
    _, xcoord = coord_axis[grid["dimids"][-1]]
    dxs = _uniform_step(xcoord, dims[grid["dimids"][-1]][0])
    dys = _uniform_step(ycoord, yname)
    if dys > 0:  # ascending latitude: flip to GDAL's north-up order
        arr = arr[::-1]
        ycoord = ycoord[::-1]
        dys = -dys
    # CF coords are cell centers; the geotransform origin is the edge
    x0 = float(xcoord[0]) - dxs / 2.0
    y0 = float(ycoord[0]) - dys / 2.0
    gt = (x0, dxs, 0.0, y0, 0.0, dys)
    yunits = by_name[yname]["atts"].get("units", "")
    degrees = ((isinstance(yunits, str)
                and yunits.strip().lower() in _Y_UNITS)
               or yname.lower() in _Y_NAMES[:2])
    gm_atts = {}
    gm = grid["atts"].get("grid_mapping")
    if isinstance(gm, str) and gm.strip("\x00 ") in by_name:
        gm_atts = by_name[gm.strip("\x00 ")]["atts"]
    code = _epsg_from_atts(gatts, gm_atts, degrees, epsg)
    return GeoTIFF(array=np.ascontiguousarray(arr)[..., None],
                   geotransform=gt, epsg=code,
                   model_type=2 if code == 4326 else 1, raster_type=2)


