"""ESRI ASCII grid + SRTM .hgt readers (sources/grids.py) — the
simple-grid legs of from_gdal_raster. Readers validated against
hand-written fixtures (not only the repo's writer)."""

import numpy as np
import pytest

from versatiles_rs_ray.sources.geotiff import read_raster_source
from versatiles_rs_ray.sources.grids import read_aaigrid, read_hgt

from oracles import write_aaigrid


def test_aaigrid_hand_written_fixture(tmp_path):
    # header casing/whitespace variance on purpose; reader-independent
    p = str(tmp_path / "dem.asc")
    open(p, "w").write(
        "NCOLS 4\n"
        "nrows  3\n"
        "xllcorner 10.0\n"
        "yllcorner 45.0\n"
        "CELLSIZE 0.5\n"
        "NODATA_value -9999\n"
        "1 2 3 4\n"
        "5 6 -9999 8\n"
        "9 10 11 12\n"
    )
    g = read_aaigrid(p)
    assert g.array.shape == (3, 4, 1) and g.array.dtype == np.int16
    assert g.array[1, 2, 0] == -9999  # nodata passes through
    assert g.array[0, 0, 0] == 1 and g.array[2, 3, 0] == 12
    # top row first; origin = NW corner = (xll, yll + nrows*cell)
    assert g.geotransform == (10.0, 0.5, 0.0, 46.5, 0.0, -0.5)
    assert g.epsg == 4326 and g.raster_type == 1


def test_aaigrid_center_registration_and_prj(tmp_path):
    p = str(tmp_path / "c.asc")
    open(p, "w").write(
        "ncols 2\nnrows 2\nxllcenter 100.25\nyllcenter 0.25\n"
        "cellsize 0.5\n1 2\n3 4\n")
    open(str(tmp_path / "c.prj"), "w").write(
        'PROJCS["WGS 84 / Pseudo-Mercator",AUTHORITY["EPSG","3857"]]')
    g = read_aaigrid(p)
    # center shifts half a cell: xll edge = 100.0, top edge = 1.0
    assert g.geotransform == (100.0, 0.5, 0.0, 1.0, 0.0, -0.5)
    assert g.epsg == 3857 and g.model_type == 1
    assert read_aaigrid(p, epsg=32633).epsg == 32633  # arg wins


def test_aaigrid_writer_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    grid = rng.integers(-500, 4000, (7, 9)).astype(np.int16)
    p = str(tmp_path / "w.asc")
    write_aaigrid(p, grid, xll=-3.5, yll=50.0, cellsize=0.01, nodata=-9999)
    g = read_aaigrid(p)
    assert np.array_equal(g.array[..., 0], grid)
    assert g.geotransform == (-3.5, 0.01, 0.0, 50.0 + 7 * 0.01, 0.0, -0.01)


def test_aaigrid_gates(tmp_path):
    base = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    with pytest.raises(NotImplementedError, match="fractional"):
        read_aaigrid((base + "1.5 2\n").encode())
    with pytest.raises(NotImplementedError, match="int16"):
        read_aaigrid((base + "1 70000\n").encode())
    with pytest.raises(ValueError, match="values for a"):
        read_aaigrid((base + "1 2 3\n").encode())
    with pytest.raises(ValueError, match="misses cellsize"):
        read_aaigrid(b"ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\n1 2\n")


def test_hgt_srtm3_layout(tmp_path):
    # 3x3 point-registered grid spanning exactly 1 degree
    grid = (np.arange(9).reshape(3, 3) * 100).astype(">i2")
    p = str(tmp_path / "N50E006.hgt")
    open(p, "wb").write(grid.tobytes())
    g = read_hgt(p)
    assert g.array.shape == (3, 3, 1) and g.array.dtype == np.int16
    assert np.array_equal(g.array[..., 0], grid.astype(np.int16))
    step = 0.5  # 1/(n-1)
    assert g.geotransform == (6 - step / 2, step, 0.0,
                              51 + step / 2, 0.0, -step)
    assert g.epsg == 4326 and g.raster_type == 2  # PixelIsPoint


def test_hgt_sw_quadrant_and_gates(tmp_path):
    grid = np.zeros((2, 2), dtype=">i2")
    p = str(tmp_path / "S34W071.hgt")
    open(p, "wb").write(grid.tobytes())
    g = read_hgt(p)
    assert g.geotransform[0] == pytest.approx(-71 - 0.5)
    assert g.geotransform[3] == pytest.approx(-33 + 0.5)
    bad = str(tmp_path / "notaname.hgt")
    open(bad, "wb").write(grid.tobytes())
    with pytest.raises(ValueError, match="SW corner"):
        read_hgt(bad)
    trunc = str(tmp_path / "N10E010.hgt")
    open(trunc, "wb").write(b"\x00" * 7)
    with pytest.raises(ValueError, match="square"):
        read_hgt(trunc)


def test_read_raster_source_dispatch(tmp_path):
    # .hgt by extension; .asc by extension; header-sniffed bytes
    grid = np.ones((2, 2), dtype=">i2")
    ph = str(tmp_path / "N00E000.hgt")
    open(ph, "wb").write(grid.tobytes())
    assert read_raster_source(ph).raster_type == 2
    pa_ = str(tmp_path / "g.asc")
    write_aaigrid(pa_, np.ones((2, 2), np.int16), 0, 0, 1)
    assert read_raster_source(pa_).geotransform == \
        (0.0, 1.0, 0.0, 2.0, 0.0, -1.0)
    blob = open(pa_, "rb").read()
    assert read_raster_source(blob).array.shape == (2, 2, 1)


def test_vpl_from_gdal_raster_aaigrid(ray_session, tmp_path):
    """End-to-end: an ASCII-grid DEM warps through the reprojection
    pool via the from_gdal_raster VPL op, like any GeoTIFF."""
    from versatiles_rs_ray.core.raster import to_array
    from versatiles_rs_ray.pipelines.vpl import build_pipeline

    # world-spanning north->south gradient
    grid = (np.arange(64)[:, None] * 4 + np.zeros((1, 128))).astype(
        np.int16)
    # square cells: 64 rows x 2.65625 = 170 deg lat, 128 cols = 340 lon
    p = str(tmp_path / "world.asc")
    write_aaigrid(p, grid, xll=-170.0, yll=-85.0, cellsize=170.0 / 64)
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
    assert top.mean() < bot.mean()
