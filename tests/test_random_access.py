"""Random-access readers: single-tile lookups against written
containers (the serve fast path, SURVEY.md §3.3)."""

from versatiles_rs_ray.core.bbox import TileBBoxPyramid
from versatiles_rs_ray.sources import pmtiles
from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles
from versatiles_rs_ray.sources.random_access import (
    PMTilesRandomAccess,
    PyramidRandomAccess,
)


def test_pmtiles_random_access(ray_session, tmp_path):
    ds = json_debug_tiles(TileBBoxPyramid.new_full(4, 0))
    path = str(tmp_path / "ra.pmtiles")
    pmtiles.write_pmtiles(ds, path)
    ra = PMTilesRandomAccess(path)
    assert ra.get_tile(4, 3, 7) == b'{"x":3,"y":7,"z":4}'
    assert ra.get_tile(0, 0, 0) == b'{"x":0,"y":0,"z":0}'
    assert ra.get_tile(5, 0, 0) is None  # level not present


def test_pmtiles_random_access_with_leaves(ray_session, tmp_path):
    old = pmtiles.MAX_DIR_ENTRIES
    pmtiles.MAX_DIR_ENTRIES = 64
    try:
        ds = json_debug_tiles(TileBBoxPyramid.new_full(4, 0))
        path = str(tmp_path / "leaf_ra.pmtiles")
        pmtiles.write_pmtiles(ds, path)
        ra = PMTilesRandomAccess(path)
        assert ra.get_tile(4, 15, 15) == b'{"x":15,"y":15,"z":4}'
        assert ra.get_tile(2, 1, 2) == b'{"x":1,"y":2,"z":2}'
        # leaf cache warm after first access of the same leaf
        assert len(ra._leaf_cache) >= 1
    finally:
        pmtiles.MAX_DIR_ENTRIES = old


def test_pyramid_random_access(ray_session, sf_dir, tmp_path):
    from versatiles_rs_ray.pipelines.pyramid import build_and_write_pyramid

    out = str(tmp_path / "pyr")
    build_and_write_pyramid(sf_dir, out, z_base=4, z_min=0)
    ra = PyramidRandomAccess(out)
    row = ra.get_tile(0, 0, 0)
    assert row["n_docs"] == 500
    assert ra.get_tile(4, 0, 0) is None or ra.get_tile(4, 0, 0)["n_docs"] >= 1
    assert ra.get_tile(9, 0, 0) is None  # level not written


def test_limited_cache_bounds_and_lru():
    from versatiles_rs_ray.core.cache import LimitedCache

    c = LimitedCache(max_bytes=100)
    for i in range(5):
        c.put(i, b"x" * 30)  # 30 bytes each; cap 100 -> keeps last 3
    assert len(c) == 3 and c.nbytes == 90
    assert c.get(0) is None and c.get(4) == b"x" * 30
    # touching 2 makes it most-recent; inserting evicts 3, not 2
    assert c.get(2) is not None
    c.put(9, b"y" * 30)
    assert c.get(3) is None and c.get(2) is not None
    # a single oversized value still caches (never evict below 1 entry)
    c2 = LimitedCache(max_bytes=10)
    c2.put("big", b"z" * 50)
    assert c2.get("big") == b"z" * 50 and len(c2) == 1


def test_pmtiles_leaf_cache_bounded(ray_session, tmp_path):
    """Serving path must not grow caches with the archive: force a tiny
    budget and confirm reads stay correct while the cache stays bounded."""
    from versatiles_rs_ray.core.cache import LimitedCache
    from versatiles_rs_ray.sources.random_access import _sizeof_dir
    from versatiles_rs_ray.sources.pmtiles import write_pmtiles

    p = str(tmp_path / "c.pmtiles")
    old = pmtiles.MAX_DIR_ENTRIES
    pmtiles.MAX_DIR_ENTRIES = 16  # force leaf directories
    try:
        write_pmtiles(json_debug_tiles(TileBBoxPyramid.new_full(3, 0)), p)
    finally:
        pmtiles.MAX_DIR_ENTRIES = old
    r = PMTilesRandomAccess(p)
    r._leaf_cache = LimitedCache(max_bytes=1, size_of=_sizeof_dir)
    import json

    for z, x, y in [(0, 0, 0), (3, 2, 5), (3, 7, 7), (0, 0, 0)]:
        t = r.get_tile(z, x, y)
        if t is not None:
            assert json.loads(t) == {"x": x, "y": y, "z": z}
    assert len(r._leaf_cache) <= 1


def test_limited_cache_thread_safety():
    """Concurrent put/get of overlapping keys must keep the byte
    accounting exact (reviewer repro: unlocked puts drifted +10k over
    a 500 B budget within seconds)."""
    import threading

    from versatiles_rs_ray.core.cache import LimitedCache

    c = LimitedCache(max_bytes=500)
    stop = threading.Event()
    errors = []

    def hammer(seed):
        try:
            i = 0
            while not stop.is_set():
                k = (seed + i) % 13
                c.put(k, b"x" * 50)
                c.get(k)
                i += 1
        except Exception as e:  # KeyError from racing popitem, etc.
            errors.append(e)

    ts = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
    for t in ts:
        t.start()
    import time as _time

    _time.sleep(1.5)
    stop.set()
    for t in ts:
        t.join()
    assert not errors, errors
    assert c.nbytes <= 500, c.nbytes
    # accounting still exact after the storm
    assert c.nbytes == sum(50 for _ in range(len(c)))
