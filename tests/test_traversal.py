"""Traversal-order goldens: exact block sequences from the reference
(versatiles_core/src/traversal/main.rs:184-300)."""

import pytest

from versatiles_rs_ray.core.bbox import TileBBoxPyramid
from versatiles_rs_ray.core.traversal import (
    ANY,
    DEPTH_FIRST,
    PMTILES,
    intersect_orders,
    traverse_pyramid,
)

from oracles import bbox_str


def _run(order, size, bbox, zmin, zmax):
    p = TileBBoxPyramid.from_geo_bbox(*[float(v) for v in bbox], min_level=zmin, max_level=zmax)
    return [bbox_str(b) for b in traverse_pyramid(p, order, size)]


def test_any_order_full_world():
    assert _run(ANY, 256, [-180, -90, 180, 90], 0, 5) == [
        "0:[0,0,0,0]", "1:[0,0,1,1]", "2:[0,0,3,3]",
        "3:[0,0,7,7]", "4:[0,0,15,15]", "5:[0,0,31,31]",
    ]
    assert _run(ANY, 16, [-180, -90, 180, 90], 4, 5) == [
        "4:[0,0,15,15]", "5:[0,0,15,15]", "5:[16,0,31,15]",
        "5:[0,16,15,31]", "5:[16,16,31,31]",
    ]


def test_depth_first_goldens():
    assert _run(DEPTH_FIRST, 32, [-170, -60, 160, 70], 4, 6) == [
        "6:[1,14,31,31]", "6:[32,14,60,31]", "6:[1,32,31,45]",
        "6:[32,32,60,45]", "5:[0,7,30,22]", "4:[0,3,15,11]",
    ]
    assert _run(DEPTH_FIRST, 16, [-170, -60, 160, 70], 4, 6) == [
        "6:[1,14,15,15]", "6:[16,14,31,15]", "6:[1,16,15,31]",
        "6:[16,16,31,31]", "5:[0,7,15,15]", "6:[32,14,47,15]",
        "6:[48,14,60,15]", "6:[32,16,47,31]", "6:[48,16,60,31]",
        "5:[16,7,30,15]", "6:[1,32,15,45]", "6:[16,32,31,45]",
        "5:[0,16,15,22]", "6:[32,32,47,45]", "6:[48,32,60,45]",
        "5:[16,16,30,22]", "4:[0,3,15,11]",
    ]
    assert _run(DEPTH_FIRST, 256, [-170, -60, 160, 70], 6, 10) == [
        "10:[28,229,255,255]", "10:[256,229,511,255]", "10:[28,256,255,511]",
        "10:[256,256,511,511]", "9:[14,114,255,255]", "10:[512,229,767,255]",
        "10:[768,229,967,255]", "10:[512,256,767,511]", "10:[768,256,967,511]",
        "9:[256,114,483,255]", "10:[28,512,255,726]", "10:[256,512,511,726]",
        "9:[14,256,255,363]", "10:[512,512,767,726]", "10:[768,512,967,726]",
        "9:[256,256,483,363]", "8:[7,57,241,181]", "7:[3,28,120,90]",
        "6:[1,14,60,45]",
    ]


def test_pmtiles_goldens():
    assert _run(PMTILES, 128, [-170, -60, 160, 70], 6, 8) == [
        "6:[1,14,60,45]", "7:[3,28,120,90]", "8:[7,57,127,127]",
        "8:[7,128,127,181]", "8:[128,128,241,181]", "8:[128,57,241,127]",
    ]
    assert _run(PMTILES, 64, [-170, -60, 160, 70], 6, 8) == [
        "6:[1,14,60,45]", "7:[3,28,63,63]", "7:[3,64,63,90]",
        "7:[64,64,120,90]", "7:[64,28,120,63]", "8:[7,57,63,63]",
        "8:[64,57,127,63]", "8:[64,64,127,127]", "8:[7,64,63,127]",
        "8:[7,128,63,181]", "8:[64,128,127,181]", "8:[128,128,191,181]",
        "8:[192,128,241,181]", "8:[192,64,241,127]", "8:[128,64,191,127]",
        "8:[128,57,191,63]", "8:[192,57,241,63]",
    ]


def test_intersect_orders():
    assert intersect_orders(ANY, DEPTH_FIRST) == DEPTH_FIRST
    assert intersect_orders(PMTILES, ANY) == PMTILES
    assert intersect_orders(PMTILES, PMTILES) == PMTILES
    with pytest.raises(ValueError):
        intersect_orders(PMTILES, DEPTH_FIRST)
