"""Golden tests for coordinate kernels, replicating the reference's
exact expected values (SURVEY.md §5.1, FIXTURES.md F3)."""

import numpy as np
import pytest

from versatiles_rs_ray.core import bbox, cells, coords

from oracles import geohash_decode, s2_level


def test_tile_to_lonlat_golden():
    # tile_coord.rs:241-249
    lon, lat = coords.tile_to_lonlat(5, 3, 4)
    assert lon == -146.25
    assert lat == 79.17133464081945


def test_tile_geo_bbox_golden():
    w, s, e, n = coords.tile_geo_bbox(5, 3, 4)
    assert [w, s, e, n] == [-146.25, 76.84081641443098, -135.0, 79.17133464081945]


def test_sort_index_golden():
    # tile_coord.rs:252-255
    assert coords.sort_index(5, 3, 4) == 472


@pytest.mark.parametrize(
    "z,x,y,expected",
    [
        (0, 0, 0, 0),
        (1, 1, 1, 3),
        (2, 2, 2, 13),
        (3, 5, 3, 73),
        (3, 7, 7, 63),
        (31, 0, 0, 1537228672809129301),
        (31, (1 << 31) - 1, (1 << 31) - 1, 4611686018427387903),
    ],
)
def test_hilbert_golden(z, x, y, expected):
    # tile_hilbert_index.rs:182-192
    assert int(coords.hilbert_index(z, x, y)) == expected


def test_hilbert_roundtrip():
    rng = np.random.default_rng(7)
    for z in range(0, 20):
        n = 1 << z
        x = int(rng.integers(0, n))
        y = int(rng.integers(0, n))
        idx = int(coords.hilbert_index(z, x, y))
        assert coords.hilbert_to_coord(idx) == (z, x, y)


def test_hilbert_vectorized_matches_scalar():
    z = np.array([3, 3, 5, 8])
    x = np.array([5, 7, 3, 100])
    y = np.array([3, 7, 3, 200])
    vec = coords.hilbert_index(z, x, y)
    for i in range(len(z)):
        assert vec[i] == coords.hilbert_index(int(z[i]), int(x[i]), int(y[i]))


def test_from_geo_clamping():
    # tile_coord.rs:64-80: clamp into [0, 2^z - 1]
    x, y = coords.lonlat_to_tile(-180.0, 90.0, 3)
    assert (int(x), int(y)) == (0, 0)
    x, y = coords.lonlat_to_tile(180.0, -90.0, 3)
    assert (int(x), int(y)) == (7, 7)


def test_flip_y_swap():
    # tile_coord.rs:333-344: (3,1,2) flip -> (3,1,5)
    assert int(coords.flip_y(3, 2)) == 5


def test_parent_and_pk():
    x, y = coords.parent_tile(5, 9, 1)
    assert (int(x), int(y)) == (2, 4)
    pk = coords.pack_pk(6, 33, 17, 5)
    assert int(pk) == (6 << 58) | (1 << 29) | 0


def test_bbox_from_geo_golden():
    # constructors.rs:562-566
    bb = bbox.TileBBox.from_geo(9, 8.0653, 51.3563, 12.3528, 52.2564)
    assert (bb.x_min, bb.y_min, bb.x_max, bb.y_max) == (267, 168, 273, 170)


def test_bbox_from_geo_not_empty():
    # constructors.rs:569-576: degenerate geo boxes still cover one tile
    bb = bbox.TileBBox.from_geo(0, 8.0, 51.0, 8.000001, 51.0)
    assert bb.count == 1
    bb = bbox.TileBBox.from_geo(14, -132.000001, -40.0, -132.0, -40.0)
    assert bb.count == 1


def test_filter_golden_14_tiles():
    # filter.rs:141-156: bbox [0,0,40,20] over z0..5 keeps exactly these
    expected = {
        (0, 0, 0), (1, 1, 0), (2, 2, 1), (3, 4, 3), (4, 8, 7), (4, 9, 7),
        (5, 16, 14), (5, 16, 15), (5, 17, 14), (5, 17, 15), (5, 18, 14),
        (5, 18, 15), (5, 19, 14), (5, 19, 15),
    }
    p = bbox.TileBBoxPyramid.from_geo_bbox(0, 0, 40, 20, 0, 5)
    got = set()
    for bb in p.levels():
        xs, ys = bb.coords()
        got |= {(bb.level, int(x), int(y)) for x, y in zip(xs, ys)}
    assert got == expected


def test_pyramid_contains_coord():
    p = bbox.TileBBoxPyramid.from_geo_bbox(0, 0, 40, 20, 0, 5)
    assert p.contains_coord(4, 8, 7).all()
    assert not p.contains_coord(4, 7, 7).any()
    assert not p.contains_coord(6, 0, 0).any()  # level trimmed


def test_bbox_ops():
    a = bbox.TileBBox.from_min_and_max(3, 1, 2, 4, 5)
    b = bbox.TileBBox.from_min_and_max(3, 3, 4, 7, 7)
    i = a.intersect(b)
    assert (i.x_min, i.y_min, i.x_max, i.y_max) == (3, 4, 4, 5)
    u = a.include(b)
    assert (u.x_min, u.y_min, u.x_max, u.y_max) == (1, 2, 7, 7)
    f = a.flip_y()
    assert (f.y_min, f.y_max) == (2, 5)  # symmetric box at z3: 8-1-5=2
    assert a.scale_down(1).level == 2


def test_bbox_iter_grid():
    # tile_bbox/iter.rs:63-90: grid split covers all tiles exactly once
    bb = bbox.TileBBox.from_min_and_max(4, 3, 2, 12, 9)
    seen = set()
    for sub in bb.iter_grid(4):
        xs, ys = sub.coords()
        for x, y in zip(xs, ys):
            assert (x, y) not in seen
            seen.add((int(x), int(y)))
        # each sub-box stays inside one grid cell
        assert sub.x_min // 4 == sub.x_max // 4
        assert sub.y_min // 4 == sub.y_max // 4
    assert len(seen) == bb.count


def test_s2_center_of_face0():
    cid = int(np.atleast_1d(cells.s2_cell_id(0.0, 0.0, 30))[0])
    assert cid == 0x1000000000000001  # leaf at the center of face 0
    assert int(np.atleast_1d(cells.s2_parent(cid, 0))[0]) == 0x1000000000000000


def test_s2_levels_and_parent_containment():
    rng = np.random.default_rng(11)
    lon = rng.uniform(-180, 180, 100)
    lat = rng.uniform(-85, 85, 100)
    leaf = cells.s2_cell_id(lon, lat, 30)
    for lvl in (0, 5, 12, 29):
        p = cells.s2_parent(leaf, lvl)
        assert (s2_level(p) == lvl).all()
        # snapping the leaf to lvl directly agrees with parent-of-leaf
        direct = cells.s2_cell_id(lon, lat, lvl)
        assert (p == direct).all()


def test_s2_distinct_cells_cover():
    # all 6*4 level-1 cells appear for a dense global sample
    rng = np.random.default_rng(3)
    lon = rng.uniform(-180, 180, 20000)
    lat = rng.uniform(-89, 89, 20000)
    c = cells.s2_cell_id(lon, lat, 1)
    assert len(np.unique(c)) == 24


def test_quadkey():
    assert coords.quadkey(3, 1, 2)[0] == "021"
    assert coords.quadkey(0, 0, 0)[0] == ""


def test_bbox_expand_by_reference_goldens():
    # tile_bbox/mutate.rs:444-447 expand_by cases (clamp, saturate, no-op)
    from versatiles_rs_ray.core.bbox import TileBBox, TileBBoxPyramid

    def bb(level, x0, y0, x1, y1):
        return TileBBox.from_min_and_max(level, x0, y0, x1, y1)

    cases = [
        (bb(3, 1, 1, 2, 2), (1, 1, 1, 1), (0, 0, 3, 3)),
        (bb(3, 6, 6, 7, 7), (5, 5, 5, 5), (1, 1, 7, 7)),
        (bb(3, 2, 2, 3, 3), (0, 0, 0, 0), (2, 2, 3, 3)),
    ]
    for b, off, want in cases:
        e = b.expand_by(*off)
        assert (e.x_min, e.y_min, e.x_max, e.y_max) == want
    # empty stays empty (mutate.rs:103)
    empty = TileBBox.new_empty(3).expand_by(2, 2, 2, 2)
    assert empty.is_empty
    # pyramid border expands every level (tile_bbox_pyramid.rs:112-117)
    p = TileBBoxPyramid.from_geo_bbox(0.0, 0.0, 40.0, 20.0, min_level=2, max_level=4)
    before = {z: p.get(z) for z in (2, 3, 4)}
    p.add_border(1, 1, 1, 1)
    for z in (2, 3, 4):
        b0, b1 = before[z], p.get(z)
        top = (1 << z) - 1
        assert b1.x_min == max(b0.x_min - 1, 0)
        assert b1.y_max == min(b0.y_max + 1, top)


# ---------------------------------------------------------------- geohash

def test_geohash_published_goldens():
    """Canonical public test vectors (Niemeyer's geohash.org examples)."""
    from versatiles_rs_ray.core.cells import geohash_encode

    assert geohash_encode([-5.603], [42.605], 5)[0] == "ezs42"
    assert geohash_encode([10.40744], [57.64911], 11)[0] == "u4pruydqqvj"
    # prefix property: lower precision is a strict prefix
    full = geohash_encode([10.40744], [57.64911], 12)[0]
    for p in range(1, 12):
        assert geohash_encode([10.40744], [57.64911], p)[0] == full[:p]


def test_geohash_decode_roundtrip():
    from versatiles_rs_ray.core.cells import geohash_encode

    rng = np.random.default_rng(7)
    lon = rng.uniform(-180, 180, 200)
    lat = rng.uniform(-90, 90, 200)
    for p in (1, 5, 9, 12):
        gh = geohash_encode(lon, lat, p)
        dlon, dlat, elon, elat = geohash_decode(gh)
        # decoded center re-encodes to the same hash...
        assert list(geohash_encode(dlon, dlat, p)) == list(gh)
        # ...and the original point is within the half-cell error
        assert np.all(np.abs(dlon - lon) <= elon + 1e-12)
        assert np.all(np.abs(dlat - lat) <= elat + 1e-12)


def test_geohash_edges_and_validation():
    from versatiles_rs_ray.core.cells import geohash_encode

    # domain corners clamp into the last cell instead of overflowing
    gh = geohash_encode([180.0, -180.0], [90.0, -90.0], 6)
    assert gh[0] == "zzzzzz" and gh[1] == "000000"
    with pytest.raises(ValueError):
        geohash_encode([0.0], [0.0], 0)
    with pytest.raises(ValueError):
        geohash_encode([0.0], [0.0], 13)


def test_geohash_neighbors_share_prefix():
    """Nearby points in the same cell interior share the full hash."""
    from versatiles_rs_ray.core.cells import geohash_encode

    base = geohash_encode([13.4050], [52.5200], 7)[0]  # Berlin
    dlon, dlat, elon, elat = geohash_decode([base])
    jit = geohash_encode([dlon[0] + 0.4 * elon[0]], [dlat[0] - 0.4 * elat[0]], 7)
    assert jit[0] == base


def test_geohash_below_range_clamps_to_floor_cell():
    """A float-ulp below -180/-90 must clamp to the first cell, not wrap
    through the uint64 cast to the opposite edge."""
    from versatiles_rs_ray.core.cells import geohash_encode

    floor_cell = geohash_encode([-180.0], [-90.0], 6)[0]
    assert geohash_encode([-180.0000001], [-90.0000001], 6)[0] == floor_cell
    east = geohash_encode([179.9999], [0.0], 6)[0]
    assert geohash_encode([-180.0000001], [0.0], 6)[0] != east
