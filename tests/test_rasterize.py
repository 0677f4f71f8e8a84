"""Vector-tile rasterization (stages/rasterize): pixel-center
even-odd parity vs a scalar reference, exact rectangle/hole fills,
stroke/point coverage, PNG round-trip, VPL op end-to-end."""

import numpy as np
import pyarrow as pa
import pytest

from versatiles_rs_ray.core import mvt
from versatiles_rs_ray.core.png import decode_png_rgba
from versatiles_rs_ray.stages.rasterize import (VectorRasterize, fill_rings,
                                                mark_points, render_tile,
                                                stroke_lines,
                                                vector_rasterize)

SIZE = 64


def _ref_even_odd(rings, size):
    """Scalar reference: per-pixel-center crossing parity (the PNPOLY
    loop), the ground truth the scanline fill must reproduce."""
    mask = np.zeros((size, size), dtype=bool)
    for r in range(size):
        yc = r + 0.5
        for c in range(size):
            xc = c + 0.5
            inside = False
            for ring in rings:
                n = len(ring)
                for i in range(n):
                    x0, y0 = ring[i]
                    x1, y1 = ring[(i + 1) % n]
                    if (y0 <= yc) != (y1 <= yc):
                        xi = x0 + (yc - y0) * (x1 - x0) / (y1 - y0)
                        if xc < xi:
                            inside = not inside
            mask[r, c] = inside
    return mask


def test_rectangle_exact_fill():
    rings = [[(8.0, 8.0), (40.0, 8.0), (40.0, 24.0), (8.0, 24.0)]]
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    fill_rings(mask, rings, SIZE)
    want = np.zeros_like(mask)
    want[8:24, 8:40] = True
    assert np.array_equal(mask, want)


def test_hole_even_odd():
    rings = [
        [(4.0, 4.0), (60.0, 4.0), (60.0, 60.0), (4.0, 60.0)],
        [(16.0, 16.0), (48.0, 16.0), (48.0, 48.0), (16.0, 48.0)],
    ]
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    fill_rings(mask, rings, SIZE)
    assert not mask[32, 32]
    assert mask[8, 8]
    assert int(mask.sum()) == 56 * 56 - 32 * 32


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scanline_matches_scalar_reference(seed):
    rng = np.random.RandomState(seed)
    # a random star-ish (self-intersection allowed: even-odd handles it)
    n = 7
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    rad = rng.uniform(5, 30, n)
    ring = [(32 + r * np.cos(a), 32 + r * np.sin(a))
            for a, r in zip(ang, rad)]
    rings = [ring]
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    fill_rings(mask, rings, SIZE)
    assert np.array_equal(mask, _ref_even_odd(rings, SIZE))


def test_fill_clips_out_of_tile():
    # MVT buffers legally extend past the extent; fill must clip
    rings = [[(-20.0, -20.0), (30.0, -20.0), (30.0, 30.0), (-20.0, 30.0)]]
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    fill_rings(mask, rings, SIZE)
    want = np.zeros_like(mask)
    want[0:30, 0:30] = True
    assert np.array_equal(mask, want)


def test_degenerate_rings_noop():
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    fill_rings(mask, [[(1.0, 1.0), (2.0, 2.0)]], SIZE)  # < 3 vertices
    fill_rings(mask, [[(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]], SIZE)  # flat
    assert not mask.any()


def test_stroke_horizontal_line_single_row():
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    stroke_lines(mask, [[(2.0, 10.5), (50.0, 10.5)]], SIZE)
    rows = np.flatnonzero(mask.any(axis=1))
    assert list(rows) == [10]
    cols = np.flatnonzero(mask[10])
    assert cols[0] == 2 and cols[-1] == 50 or cols[-1] == 49
    # contiguous: dense sampling leaves no gaps
    assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))


def test_stroke_diagonal_connected():
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    stroke_lines(mask, [[(0.5, 0.5), (63.5, 63.5)]], SIZE)
    assert mask[0, 0] and mask[63, 63]
    # 8-connected: every diagonal cell present
    assert all(mask[i, i] for i in range(64))


def test_points_marker():
    mask = np.zeros((SIZE, SIZE), dtype=bool)
    mark_points(mask, [(10.2, 20.7), (0.0, 0.0)], SIZE)
    assert mask[19:22, 9:12].all()
    assert int(mask.sum()) == 9 + 4  # corner marker clips to 2x2


def _tile_bytes():
    layer = {
        "name": "land", "version": 2, "extent": 4096,
        "features": [
            {"id": 1, "type": mvt.GEOM_POLYGON, "properties": {},
             "geometry": [[(512, 512), (3584, 512), (3584, 3584),
                           (512, 3584)]]},
            {"id": 2, "type": mvt.GEOM_LINESTRING, "properties": {},
             "geometry": [[(0, 2048), (4095, 2048)]]},
        ],
    }
    return mvt.encode_tile({"layers": [layer]})


def test_render_tile_and_styles():
    img = render_tile(_tile_bytes(), size=256,
                      styles={"land": (10, 200, 30, 255)},
                      background=(0, 0, 0, 0))
    assert img.shape == (256, 256, 4)
    # polygon interior: 512/4096*256 = 32 .. 224
    assert (img[100, 100] == (10, 200, 30, 255)).all()
    assert (img[10, 10] == (0, 0, 0, 0)).all()
    # the line overdraws the polygon at y=128 (painter's order)
    assert (img[128, 128] == (10, 200, 30, 255)).all()


def test_default_color_deterministic():
    a = render_tile(_tile_bytes(), size=64)
    b = render_tile(_tile_bytes(), size=64)
    assert np.array_equal(a, b)
    assert a[..., 3].max() == 255


def test_stage_png_roundtrip(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "z": pa.array([3], type=pa.int64()),
        "x": pa.array([1], type=pa.int64()),
        "y": pa.array([2], type=pa.int64()),
        "payload": pa.array([_tile_bytes()], type=pa.binary()),
    }))
    out = vector_rasterize(ds, size=128,
                           styles={"land": (255, 0, 0, 255)}).take_all()
    assert len(out) == 1 and out[0]["z"] == 3
    img = decode_png_rgba(out[0]["payload"])
    assert img.shape == (128, 128, 4)
    assert (img[64, 64] == (255, 0, 0, 255)).all()


def test_vpl_op_end_to_end(ray_session, tmp_path):
    from versatiles_rs_ray.pipelines import vpl

    pipe = ("from_debug format=mvt zmax=2 | filter level_min=1 level_max=1 | "
            "vector_rasterize size=64 colors=debug:ff0000ff")
    ds = vpl.build_pipeline(pipe)
    rows = ds.take_all()
    assert rows
    img = decode_png_rgba(rows[0]["payload"])
    assert img.shape == (64, 64, 4)


def test_validation():
    with pytest.raises(ValueError):
        VectorRasterize(size=0)
    with pytest.raises(ValueError):
        VectorRasterize(background=(300, 0, 0, 0))
    from versatiles_rs_ray.stages.rasterize import DensityTiles

    with pytest.raises(ValueError):
        DensityTiles(size=0)


def _point_tile(points, extent=4096):
    layer = {"name": "docs", "version": 2, "extent": extent,
             "features": [{"id": i, "type": mvt.GEOM_POINT,
                           "properties": {}, "geometry": [[p]]}
                          for i, p in enumerate(points)]}
    return mvt.encode_tile({"layers": [layer]})


def test_density_array_counts():
    from versatiles_rs_ray.stages.rasterize import density_array

    # 3 points in cell (0,0) at size 64 (cell = coord // 64), 1 in (5,2)
    pts = [(0, 0), (30, 50), (63, 63), (320 + 10, 128 + 7)]
    grid = density_array(_point_tile(pts), 64)
    assert grid[0, 0] == 3 and grid[2, 5] == 1
    assert int(grid.sum()) == 4


def test_raster_vector_raster_loop(ray_session, tmp_path):
    """The full loop the tier names: DEM GeoTIFF (raster) ->
    from_contours (vector linestring tiles) -> vector_rasterize
    (raster PNG tiles again). Contour strokes must land as a thin
    connected band of painted pixels, everything else transparent."""
    import numpy as np

    from versatiles_rs_ray.pipelines.vpl import build_pipeline
    from oracles import write_tiff

    yy, xx = np.mgrid[0:41, 0:41]
    z = 25.0 - 0.8 * np.hypot(xx - 20, yy - 20)
    path = str(tmp_path / "cone.tif")
    (tmp_path / "cone.tif").write_bytes(write_tiff(
        np.round(z).astype(np.int16)[..., None],
        geotransform=(0.0, 1.0, 0.0, 41.0, 0.0, -1.0), epsg=4326))
    ds = build_pipeline(
        f"from_contours filename={path} levels=10,15 zmin=3 zmax=3 | "
        "vector_rasterize size=128 colors=contours:ff0000ff")
    rows = ds.take_all()
    assert rows
    painted = 0
    for r in rows:
        img = decode_png_rgba(r["payload"])
        assert img.shape == (128, 128, 4)
        hit = img[..., 3] != 0
        painted += int(hit.sum())
        # painted pixels are exactly the styled contour color
        if hit.any():
            assert (img[hit] == (255, 0, 0, 255)).all()
    # two closed contour rings of a cone: a thin band, not a fill
    assert 0 < painted < 128 * 128
    from versatiles_rs_ray.stages.rasterize import density_tiles

    import ray.data as rd

    pts = [(10, 10)] * 300  # one cell, count 300 -> value clips to 255
    ds = rd.from_arrow(pa.table({
        "z": pa.array([0], type=pa.int64()),
        "x": pa.array([0], type=pa.int64()),
        "y": pa.array([0], type=pa.int64()),
        "payload": pa.array([_point_tile(pts)], type=pa.binary()),
    }))
    out = density_tiles(ds, size=64).take_all()
    img = decode_png_rgba(out[0]["payload"])
    assert img[0, 0, 0] == 255 and img[0, 0, 3] == 255
    assert int((img[..., 0] > 0).sum()) == 1
