"""NetCDF classic reader (sources/netcdf.py) — the gridded-raster leg
of from_gdal_raster (the reference accepts any GDAL dataset,
operation.rs:56-221; NetCDF CF grids are the common scientific one).

The critical-fixture test hand-packs a CDF-1 file byte-by-byte from
the published classic-format spec (independent of write_netcdf), so
the reader is not validated against its own writer; writer round-trips
then cover the breadth matrix.
"""

import struct

import numpy as np
import pytest

from versatiles_rs_ray.sources.geotiff import read_raster_source
from versatiles_rs_ray.sources.netcdf import read_netcdf

from oracles import write_netcdf

WKT_3857 = (
    'PROJCS["WGS 84 / Pseudo-Mercator",GEOGCS["WGS 84",'
    'AUTHORITY["EPSG","4326"]],AUTHORITY["EPSG","3857"]]'
)


def _pad4(b: bytes) -> bytes:
    return b + b"\x00" * (-len(b) % 4)


def _nm(s: str) -> bytes:
    return struct.pack(">i", len(s)) + _pad4(s.encode())


def _hand_packed_cdf1() -> bytes:
    """2x3 short grid over descending lat / ascending lon, with a
    scalar grid_mapping variable carrying spatial_ref WKT — every
    field packed manually per the classic-format BNF."""
    dims = struct.pack(">ii", 0x0A, 2) + _nm("lat") + struct.pack(
        ">i", 2) + _nm("lon") + struct.pack(">i", 3)
    gatts = struct.pack(">ii", 0x0C, 1) + _nm("title") + struct.pack(
        ">ii", 2, 4) + b"test"
    # variable headers (begin offsets appended once known)
    lat_att = (struct.pack(">ii", 0x0C, 1) + _nm("units")
               + struct.pack(">ii", 2, 13) + _pad4(b"degrees_north"))
    lon_att = (struct.pack(">ii", 0x0C, 1) + _nm("units")
               + struct.pack(">ii", 2, 12) + b"degrees_east")
    crs_att = (struct.pack(">ii", 0x0C, 1) + _nm("spatial_ref")
               + struct.pack(">ii", 2, len(WKT_3857))
               + _pad4(WKT_3857.encode()))
    t_att = (struct.pack(">ii", 0x0C, 1) + _nm("grid_mapping")
             + struct.pack(">ii", 2, 3) + _pad4(b"crs"))
    v_lat = _nm("lat") + struct.pack(">ii", 1, 0) + lat_att + struct.pack(
        ">ii", 6, 16)
    v_lon = _nm("lon") + struct.pack(">ii", 1, 1) + lon_att + struct.pack(
        ">ii", 6, 24)
    v_crs = _nm("crs") + struct.pack(">i", 0) + crs_att + struct.pack(
        ">ii", 4, 4)
    v_temp = _nm("temp") + struct.pack(">iii", 2, 0, 1) + t_att + struct.pack(
        ">ii", 3, 12)  # 6 shorts -> 12 bytes (already 4-aligned)
    head_sans_begins = (b"CDF\x01" + struct.pack(">i", 0) + dims + gatts
                        + struct.pack(">ii", 0x0B, 4))
    hdr_len = (len(head_sans_begins) + len(v_lat) + len(v_lon)
               + len(v_crs) + len(v_temp) + 4 * 4)
    b_lat = hdr_len
    b_lon = b_lat + 16
    b_crs = b_lon + 24
    b_temp = b_crs + 4
    body = (head_sans_begins
            + v_lat + struct.pack(">i", b_lat)
            + v_lon + struct.pack(">i", b_lon)
            + v_crs + struct.pack(">i", b_crs)
            + v_temp + struct.pack(">i", b_temp))
    data = (np.array([50.0, 40.0], ">f8").tobytes()       # descending lat
            + np.array([7.0, 8.0, 9.0], ">f8").tobytes()  # lon centers
            + struct.pack(">i", 0)                        # crs scalar
            + np.array([1, 2, 3, 4, 5, 6], ">i2").tobytes())
    return body + data


def test_hand_packed_cdf1_reader():
    g = read_netcdf(_hand_packed_cdf1())
    assert g.epsg == 3857  # from the grid_mapping spatial_ref WKT
    assert g.array.dtype == np.int16 and g.array.shape == (2, 3, 1)
    assert g.array[..., 0].tolist() == [[1, 2, 3], [4, 5, 6]]
    # centers (50,40)/(7,8,9) -> edges: y0=55 dy=-10, x0=6.5 dx=1
    assert g.geotransform == (6.5, 1.0, 0.0, 55.0, 0.0, -10.0)
    assert g.model_type == 1  # projected


def test_writer_roundtrip_and_lat_flip(tmp_path):
    grid = (np.arange(12, dtype=np.int16).reshape(3, 4) * 100) - 500
    lat = np.array([10.0, 20.0, 30.0])  # ascending: must flip north-up
    lon = np.array([100.0, 101.0, 102.0, 103.0])
    p = str(tmp_path / "t.nc")
    write_netcdf(p, grid, lat, lon)
    g = read_netcdf(p)
    assert g.epsg == 4326 and g.array.dtype == np.int16
    assert np.array_equal(g.array[..., 0], grid[::-1])
    assert g.geotransform == (99.5, 1.0, 0.0, 35.0, 0.0, -10.0)
    # record-dimension cube (time, lat, lon): record 0 read
    pr = str(tmp_path / "tr.nc")
    write_netcdf(pr, grid, lat, lon, record_dim=True)
    g2 = read_netcdf(pr)
    assert np.array_equal(g2.array, g.array)
    assert g2.geotransform == g.geotransform
    # int8 grid widens exactly; projected axes gate without a CRS
    pp = str(tmp_path / "tp.nc")
    write_netcdf(pp, grid.astype(np.int8), np.array([300.0, 200.0, 100.0]),
                 np.array([0.0, 50.0, 100.0, 150.0]), yname="y", xname="x")
    with pytest.raises(NotImplementedError, match="no CRS"):
        read_netcdf(pp)
    g3 = read_netcdf(pp, epsg=3857)
    assert g3.epsg == 3857 and g3.array.dtype == np.int16
    assert g3.geotransform == (-25.0, 50.0, 0.0, 350.0, 0.0, -100.0)
    assert np.array_equal(g3.array[..., 0], grid.astype(np.int8))


def test_dispatch_and_gates(tmp_path):
    grid = np.ones((2, 2), dtype=np.int16)
    p = str(tmp_path / "d.nc")
    write_netcdf(p, grid, [40.0, 30.0], [7.0, 8.0])
    # read_raster_source sniffs the CDF magic
    g = read_raster_source(p)
    assert g.epsg == 4326 and g.array.shape == (2, 2, 1)
    # NC_INT out of int16 range gates; in-range converts
    big = np.array([[1, 2], [3, 70000]], dtype=np.int32)
    pi = str(tmp_path / "i.nc")
    write_netcdf(pi, big, [40.0, 30.0], [7.0, 8.0])
    with pytest.raises(NotImplementedError, match="int16"):
        read_netcdf(pi)
    ok = np.array([[1, 2], [3, -4]], dtype=np.int32)
    write_netcdf(pi, ok, [40.0, 30.0], [7.0, 8.0])
    assert read_netcdf(pi).array.dtype == np.int16
    # NetCDF-4 (HDF5 container) is an honest gate
    ph = str(tmp_path / "h.nc")
    open(ph, "wb").write(b"\x89HDF\r\n\x1a\n" + b"\x00" * 64)
    with pytest.raises(NotImplementedError, match="NetCDF-4"):
        read_raster_source(ph)
    # irregular coordinate spacing gates
    pj = str(tmp_path / "j.nc")
    write_netcdf(pj, grid, [40.0, 30.0], [7.0, 9.5])
    g = read_netcdf(pj)  # 2-point lon: any spacing is 'uniform'
    pj2 = str(tmp_path / "j2.nc")
    write_netcdf(pj2, np.ones((2, 3), np.int16), [40.0, 30.0],
                 [7.0, 8.0, 12.0])
    with pytest.raises(NotImplementedError, match="uniformly"):
        read_netcdf(pj2)


def test_float32_coords_uniform_and_bytes_dispatch(tmp_path):
    """NC_FLOAT coordinate variables — the common CF layout — carry
    ~6e-8·|coord| rounding per value; the uniformity gate must accept
    them. Also: read_raster_source sniffs NetCDF magic on raw bytes."""
    lat = np.linspace(60.0, 36.1, 240)   # 0.1-degree step, stored f4
    lon = np.linspace(100.0, 123.9, 240)
    grid = np.arange(240 * 240, dtype=np.int16).reshape(240, 240)
    p = str(tmp_path / "f4.nc")
    write_netcdf(p, grid, lat, lon, coord_dtype="f4")
    g = read_netcdf(p)
    assert np.array_equal(g.array[..., 0], grid)
    assert g.geotransform[1] == pytest.approx(0.1, rel=1e-5)
    assert g.geotransform[5] == pytest.approx(-0.1, rel=1e-5)
    # bytes input dispatches on the CDF magic like the path input
    gb = read_raster_source(open(p, "rb").read())
    assert np.array_equal(gb.array, g.array)
    with pytest.raises(NotImplementedError, match="NetCDF-4"):
        read_raster_source(b"\x89HDF\r\n\x1a\n" + b"\x00" * 64)


def test_vpl_from_gdal_raster_netcdf(ray_session, tmp_path):
    """End-to-end: a NetCDF CF grid warps through the arbitrary-SRS
    pool via the from_gdal_raster VPL op, like any GeoTIFF."""
    from versatiles_rs_ray.core.raster import to_array
    from versatiles_rs_ray.pipelines.vpl import build_pipeline

    # World-spanning int16 gradient so every z1 tile has coverage
    lat = np.linspace(85.0, -85.0, 64)   # descending (north-up as-is)
    lon = np.linspace(-179.0, 179.0, 128)
    grid = (np.arange(64)[:, None] * 4 + np.zeros(128)[None, :]).astype(
        np.int16)
    p = str(tmp_path / "world.nc")
    write_netcdf(p, grid, lat, lon)
    ds = build_pipeline(
        f'from_gdal_raster filename="{p}" tile_size="8" '
        'level_min="1" level_max="1"'
    )
    rows = {(r["x"], r["y"]): r for r in ds.take_all()}
    assert set(rows) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    top = to_array(rows[(0, 0)]["payload"], rows[(0, 0)]["width"],
                   rows[(0, 0)]["height"])
    bot = to_array(rows[(0, 1)]["payload"], rows[(0, 1)]["width"],
                   rows[(0, 1)]["height"])
    # northern tile samples the low-index (small-value) rows
    assert top.mean() < bot.mean()
