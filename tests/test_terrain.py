"""Terrain derivatives (stages/terrain): analytic-plane goldens for
Horn slope/hillshade, exact terrain-RGB round-trips, grid dispatch,
and the from_terrain VPL op end-to-end."""

import numpy as np
import pytest

from versatiles_rs_ray.stages.terrain import (hillshade, mapbox_encode,
                                              slope_degrees, terrain_grid,
                                              terrarium_encode)

from oracles import mapbox_decode, terrarium_decode


def _plane(h, w, gx, gy):
    """elev[r, c] = gx*c + gy*r."""
    r, c = np.mgrid[0:h, 0:w]
    return gx * c + gy * r


def test_flat_surface():
    e = np.full((9, 9), 120.0)
    assert slope_degrees(e, 1, 1).max() == 0.0
    hs = hillshade(e, 1, 1, altitude=45.0)
    want = int(1 + np.floor(254.0 * np.sin(np.radians(45.0))))
    assert np.all(np.abs(hs.astype(int) - want) <= 1)


@pytest.mark.parametrize("gx,gy", [(1.0, 0.0), (0.0, 2.0), (0.5, 0.5)])
def test_plane_slope_is_analytic(gx, gy):
    e = _plane(12, 12, gx, gy)
    # Horn on a perfect plane reproduces the exact gradient everywhere
    # (edge replication flattens the outer ring; check the interior)
    sl = slope_degrees(e, 1, 1)[2:-2, 2:-2]
    want = np.degrees(np.arctan(np.hypot(gx, gy)))
    assert np.allclose(sl, want, atol=1e-9)


def test_hillshade_facing_vs_away():
    # light from the NW (az 315): ground rising toward the SE faces NW
    up_se = _plane(16, 16, 1.0, 1.0)     # elev grows east and south
    up_nw = _plane(16, 16, -1.0, -1.0)   # elev grows west and north
    bright = hillshade(up_se, 1, 1)[4:-4, 4:-4]
    dark = hillshade(up_nw, 1, 1)[4:-4, 4:-4]
    flat = hillshade(np.zeros((16, 16)), 1, 1)[4:-4, 4:-4]
    assert bright.mean() > flat.mean() > dark.mean()
    # a 45-degree slope dead-on into a 45-degree light: full brightness
    e45 = _plane(16, 16, 1 / np.sqrt(2), 1 / np.sqrt(2))
    assert hillshade(e45, 1, 1)[4:-4, 4:-4].min() == 255


def test_scale_and_zfactor():
    e = _plane(10, 10, 1.0, 0.0)
    # doubling z_factor == halving cell size == halving scale
    a = slope_degrees(e, 1, 1, z_factor=2.0)
    b = slope_degrees(e, 0.5, 0.5)
    c = slope_degrees(e, 2, 2, scale=0.25)
    assert np.allclose(a, b) and np.allclose(a, c)


def test_terrarium_round_trip():
    e = np.array([[-32768.0, -1.5, 0.0, 0.25], [1.0, 8848.5, 32767.0, 12.5]])
    rgb = terrarium_encode(e)
    assert rgb.dtype == np.uint8 and rgb.shape == e.shape + (3,)
    assert np.allclose(terrarium_decode(rgb), e)  # 1/256 m grid: exact
    # int16 DEM values carry zero B channel
    assert (terrarium_encode(np.array([[5.0]]))[..., 2] == 0).all()


def test_mapbox_round_trip():
    e = np.array([[-10000.0, -432.1, 0.0, 8848.8], [0.1, 1.0, 5000.5, 77.7]])
    rgb = mapbox_encode(e)
    assert np.allclose(mapbox_decode(rgb), e, atol=0.05)  # 0.1 m steps


class _G:
    def __init__(self, arr, gt=(0, 1, 0, 0, 0, -1), model_type=1):
        self.array = arr
        self.geotransform = gt
        self.model_type = model_type
        self.epsg = 3857


def test_terrain_grid_dispatch():
    e = _plane(8, 8, 1.0, 0.0)
    assert (terrain_grid(_G(e), "terrarium") == terrarium_encode(e)).all()
    assert (terrain_grid(_G(e), "mapbox") == mapbox_encode(e)).all()
    hs = terrain_grid(_G(e[..., None]), "hillshade")
    assert (hs == hillshade(e, 1, 1)).all()
    sl = terrain_grid(_G(e), "slope")
    want = np.clip(np.floor(slope_degrees(e, 1, 1) / 90 * 255 + 0.5),
                   0, 255).astype(np.uint8)
    assert (sl == want).all()
    # geographic sources default to the gdaldem -s 111120 scale
    gg = _G(e, gt=(0, 0.01, 0, 0, 0, -0.01), model_type=2)
    hs_geo = terrain_grid(gg, "hillshade")
    assert (hs_geo == hillshade(e, 0.01, 0.01, scale=111120.0)).all()
    with pytest.raises(ValueError, match="terrain mode"):
        terrain_grid(_G(e), "shadows")


def test_from_terrain_vpl(ray_session, tmp_path):
    from versatiles_rs_ray.pipelines.vpl import build_pipeline
    from oracles import write_tiff

    r, c = np.mgrid[0:64, 0:64]
    dem = (100 + 20 * np.sin(r / 9.0) + 15 * np.cos(c / 7.0)).astype(np.int16)
    path = tmp_path / "dem.tif"
    path.write_bytes(write_tiff(
        dem[..., None],
        geotransform=(-180, 360 / 64, 0, 90, 0, -180 / 64), epsg=4326))
    out = build_pipeline(f"from_terrain filename={path} mode=hillshade zmax=1",
                         sf_dir=str(tmp_path)).to_pandas()
    assert len(out) == 5  # z0 + 4 z1 tiles
    assert set(zip(out["z"], out["x"], out["y"])) == {
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)}
