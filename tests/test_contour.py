"""Contour lines (stages/contour): marching-squares analytic goldens,
chaining invariants, saddle determinism, level generation, and the
from_contours VPL op end to end over a written GeoTIFF DEM."""

import json

import numpy as np
import pyarrow as pa
import pytest

from versatiles_rs_ray.stages.contour import (chain_segments,
                                              contour_segments,
                                              contour_lines, level_list)


def _chains(z, level):
    return chain_segments(*contour_segments(z, level))


def test_linear_ramp_exact_vertical_line():
    """z = x: the contour at L is the exact vertical line x = L (linear
    interpolation is exact for a linear field)."""
    z = np.tile(np.arange(8.0), (6, 1))
    for level in (0.5, 3.25, 6.75):
        chains = _chains(z, level)
        assert len(chains) == 1
        c = chains[0]
        assert np.all(c[:, 0] == level)
        assert list(c[:, 1]) == list(np.arange(6.0))  # spans every row


def test_horizontal_ramp_and_orientation():
    """z = y: the contour is horizontal; with inside (>= level) on the
    LEFT of the walk, the chain runs in -x direction (inside is the
    +y half-plane, which lies left when walking west in x-right/y-down
    pixel space)."""
    z = np.tile(np.arange(6.0), (8, 1)).T
    chains = _chains(z, 2.5)
    assert len(chains) == 1
    c = chains[0]
    assert np.all(c[:, 1] == 2.5)
    assert c[0, 0] > c[-1, 0]  # walks toward -x
    # and the ramp-up case keeps higher ground on the same side
    z2 = z[::-1]  # z = 7-y: inside is now the -y half-plane
    c2 = _chains(z2, 2.5)[0]
    assert c2[0, 0] < c2[-1, 0]  # flips direction with the gradient


def test_cone_closed_ring_radius():
    yy, xx = np.mgrid[0:41, 0:41]
    z = 25.0 - np.hypot(xx - 20, yy - 20)
    for level in (8.0, 12.0, 16.0):
        chains = _chains(z, level)
        assert len(chains) == 1
        c = chains[0]
        assert np.allclose(c[0], c[-1])  # closed ring
        r = np.hypot(c[:, 0] - 20, c[:, 1] - 20)
        want = 25.0 - level
        assert np.all(np.abs(r - want) < 0.15)  # chord/interp error only


def test_two_separate_peaks_two_rings():
    yy, xx = np.mgrid[0:30, 0:60]
    z = np.maximum(10.0 - np.hypot(xx - 15, yy - 15),
                   10.0 - np.hypot(xx - 45, yy - 15))
    chains = _chains(z, 5.0)
    assert len(chains) == 2
    for c in chains:
        assert np.allclose(c[0], c[-1])


def test_chaining_consumes_every_segment_once():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(25, 25)).cumsum(0).cumsum(1)
    level = float(np.median(z))
    segs = contour_segments(z, level)
    chains = chain_segments(*segs)
    n_segments = len(segs[0])
    assert sum(len(c) - 1 for c in chains) == n_segments
    for c in chains:  # consecutive points connect
        assert len(c) >= 2


def test_saddle_determinism_both_polarities():
    lo = np.array([[1.0, 0.0], [0.0, 1.0]])   # center 0.5
    a = contour_segments(lo, 0.6)             # center < level
    b = contour_segments(lo, 0.4)             # center >= level
    assert len(a[0]) == 2 and len(b[0]) == 2
    assert [tuple(map(float, s)) for s in zip(*a[:4])] != \
        [tuple(map(float, s)) for s in zip(*b[:4])]
    # re-running is bit-identical
    a2 = contour_segments(lo, 0.6)
    for x, y in zip(a, a2):
        assert np.array_equal(x, y)


def test_level_list_gdal_semantics():
    assert level_list(-3.2, 7.9, interval=2.5) == [-2.5, 0.0, 2.5, 5.0, 7.5]
    assert level_list(0.0, 10.0, interval=5.0, base=1.0) == [1.0, 6.0]
    assert level_list(0, 1, levels=[0.25, 0.75]) == [0.25, 0.75]
    with pytest.raises(ValueError, match="interval"):
        level_list(0, 1)
    with pytest.raises(ValueError, match="2-D"):
        contour_segments(np.zeros((1, 5)), 0.0)


def test_from_contours_vpl_end_to_end(ray_session, tmp_path):
    """DEM GeoTIFF -> from_contours -> MVT linestring tiles with
    elevation properties; decoded ring approximates the cone circle."""
    from versatiles_rs_ray.core import mvt
    from versatiles_rs_ray.pipelines.vpl import build_pipeline
    from oracles import write_tiff

    yy, xx = np.mgrid[0:41, 0:41]
    z = 25.0 - 0.8 * np.hypot(xx - 20, yy - 20)
    # world: lon [0, 41] deg, lat [41, 0] (north-up geotransform)
    path = str(tmp_path / "cone.tif")
    (tmp_path / "cone.tif").write_bytes(write_tiff(
        np.round(z).astype(np.int16)[..., None],
        geotransform=(0.0, 1.0, 0.0, 41.0, 0.0, -1.0), epsg=4326))
    ds = build_pipeline(
        f"from_contours filename={path} levels=10,15 zmin=3 zmax=4")
    rows = ds.to_pandas()
    assert len(rows) > 0
    assert set(rows["z"].unique()) <= {3, 4}
    seen_levels = set()
    for _, r in rows.iterrows():
        tile = mvt.decode_tile(bytes(r["payload"]))
        for layer in tile["layers"]:
            assert layer["name"] == "contours"
            for feat in layer["features"]:
                assert feat["type"] == mvt.GEOM_LINESTRING
                seen_levels.add(feat["properties"]["elevation"])
    assert seen_levels == {10.0, 15.0}


# ---- Douglas-Peucker simplification ----------------------------------------


def _dp_reference(pts, tol):
    """Scalar recursive DP reference."""
    pts = np.asarray(pts, dtype=np.float64)
    if len(pts) <= 2:
        return pts

    def rec(a, b):
        if b - a < 2:
            return []
        ax, ay = pts[a]
        bx, by = pts[b]
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        best, bd = -1, tol * tol
        for i in range(a + 1, b):
            sx, sy = pts[i, 0] - ax, pts[i, 1] - ay
            if L2 == 0:
                d2 = sx * sx + sy * sy
            else:
                cr = sx * dy - sy * dx
                d2 = cr * cr / L2
            if d2 > bd:
                best, bd = i, d2
        if best < 0:
            return []
        return rec(a, best) + [best] + rec(best, b)

    keep = sorted([0, len(pts) - 1] + rec(0, len(pts) - 1))
    return pts[keep]


def test_dp_matches_recursive_reference():
    from versatiles_rs_ray.core.simplify import simplify_line

    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(2, 200))
        pts = rng.normal(size=(n, 2)).cumsum(0)
        for tol in (0.0, 0.1, 0.5, 2.0):
            got = simplify_line(pts, tol)
            want = _dp_reference(pts, tol)
            assert np.array_equal(got, want), (trial, tol)


def test_dp_endpoints_and_collinear():
    from versatiles_rs_ray.core.simplify import simplify_line, simplify_ring

    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    out = simplify_line(line, 0.0)
    assert np.array_equal(out, [[0.0, 0.0], [3.0, 0.0]])  # collinear drop
    bent = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    assert len(simplify_line(bent, 0.5)) == 3
    assert len(simplify_line(bent, 1.5)) == 2
    # rings never collapse below 3 vertices
    sq = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    assert len(simplify_ring(sq, 100.0)) >= 3
    tri = simplify_ring(np.array(
        [[0.0, 0.0], [2.0, 0.05], [4.0, 0.0], [2.0, 3.0]]), 0.2)
    assert np.array_equal(
        tri, [[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])  # near-collinear dropped


def test_vector_simplify_stage_roundtrip(ray_session):
    from versatiles_rs_ray.core import mvt
    from versatiles_rs_ray.stages.vector import VectorSimplify

    wiggly = [(i * 40, (i % 2) * 3) for i in range(60)]  # 3-unit zigzag
    tile = {"layers": [{
        "name": "lines", "extent": 4096, "version": 2,
        "features": [
            {"id": 1, "type": mvt.GEOM_LINESTRING, "properties": {"n": 1},
             "geometry": [wiggly]},
            {"id": 2, "type": mvt.GEOM_POINT, "properties": {},
             "geometry": [[(7, 9)]]},
        ],
    }]}
    payload = mvt.encode_tile(tile)
    batch = pa.table({"z": pa.array([0], type=pa.int64()),
                      "x": pa.array([0], type=pa.int64()),
                      "y": pa.array([0], type=pa.int64()),
                      "payload": pa.array([payload], type=pa.binary())})
    out = VectorSimplify(8.0)(batch)
    got = mvt.decode_tile(out["payload"][0].as_py())
    line = got["layers"][0]["features"][0]["geometry"][0]
    assert line[0] == (0, 0) and line[-1] == wiggly[-1]  # endpoints kept
    assert len(line) == 2  # 3-unit wiggle < tol 8 collapses
    # the point feature is untouched
    assert got["layers"][0]["features"][1]["geometry"] == [[(7, 9)]]
    import pytest

    with pytest.raises(ValueError, match="tolerance"):
        VectorSimplify(-1.0)


def test_from_contours_simplify_param(ray_session, tmp_path):
    from oracles import write_tiff
    from versatiles_rs_ray.sources.geotiff import read_raster_source
    from versatiles_rs_ray.stages.contour import contour_lines

    yy, xx = np.mgrid[0:41, 0:41]
    z = 25.0 - 0.8 * np.hypot(xx - 20, yy - 20)
    p = tmp_path / "dem.tif"
    p.write_bytes(write_tiff(np.round(z).astype(np.int16)[..., None],
                             geotransform=(0.0, 1.0, 0.0, 41.0, 0.0, -1.0),
                             epsg=4326))
    g = read_raster_source(str(p))
    full = contour_lines(g, levels=[12.0])
    simp = contour_lines(g, levels=[12.0], simplify_px=0.8)
    n_full = sum(len(pts) for _, pts in full)
    n_simp = sum(len(pts) for _, pts in simp)
    assert n_simp < n_full
    # rings stay closed after simplification
    for _, pts in simp:
        assert np.allclose(pts[0], pts[-1])
