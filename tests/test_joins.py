"""Spatial join operators vs driver-side brute force (FIXTURES.md F8)."""

import numpy as np
import pyarrow as pa
import pandas as pd
import pyarrow.parquet as pq

from versatiles_rs_ray.core import coords
from versatiles_rs_ray.sources import docs as D
from versatiles_rs_ray.stages import join


def _pts(sf_dir):
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    did = np.asarray(t["doc_id"], dtype=np.int64)
    lon, lat = D.derive_lonlat(did)
    return did, lon, lat


def test_tile_set_pip_matches_assignment(ray_session, sf_dir):
    did, lon, lat = _pts(sf_dir)
    tiles = [(8, 7), (9, 7), (0, 0)]
    ds = D.read_docs(sf_dir).map_batches(
        join.TileSetPIPJoin(4, tiles), batch_format="pyarrow"
    )
    got = ds.select_columns(["doc_num", "x", "y"]).to_pandas().sort_values("doc_num")
    x, y = coords.lonlat_to_tile(lon, lat, 4)
    keep = np.zeros(len(did), dtype=bool)
    for tx, ty in tiles:
        keep |= (x == tx) & (y == ty)
    order = np.argsort(did[keep])
    assert (got["doc_num"].values == np.sort(did[keep])).all()
    assert (got["x"].values == x[keep][order]).all()


def test_rect_join_overlapping(ray_session, sf_dir):
    did, lon, lat = _pts(sf_dir)
    mx, my = coords.mercator_fraction(lon, lat)
    rects = [
        (1, 0.0, 0.0, 0.5, 0.5),
        (2, 0.25, 0.25, 0.75, 0.75),  # overlaps rect 1
        (3, 0.9, 0.9, 1.0, 1.0),
    ]
    ds = D.read_docs(sf_dir).map_batches(join.RectJoin(rects), batch_format="pyarrow")
    got = ds.select_columns(["doc_num", "rect_id"]).to_pandas()
    expected = set()
    for rid, x0, y0, x1, y1 in rects:
        m = (mx >= x0) & (mx < x1) & (my >= y0) & (my < y1)
        expected |= {(int(d), rid) for d in did[m]}
    assert set(map(tuple, got.values)) == expected
    assert len(got) == len(expected)  # one row per (doc, rect) pair


def test_knn_matches_brute(ray_session, sf_dir):
    did, lon, lat = _pts(sf_dir)
    q = did[did % 50 == 0]
    q_lon, q_lat = D.derive_lonlat(q)
    got = (
        join.knn_join(D.read_docs(sf_dir), q, q_lon, q_lat, 4)
        .sort_values(["q_doc", "rank"])
        .reset_index(drop=True)
    )
    rows = []
    for qi, (qd, qx, qy) in enumerate(zip(q, q_lon, q_lat)):
        d2 = (qx - lon) ** 2 + (qy - lat) ** 2
        d2[did == qd] = np.inf
        order = np.lexsort((did, d2))[:4]
        rows += [(qd, did[j], r + 1) for r, j in enumerate(order)]
    brute = pd.DataFrame(rows, columns=["q_doc", "n_doc", "rank"]).sort_values(
        ["q_doc", "rank"]
    ).reset_index(drop=True)
    assert got[["q_doc", "n_doc", "rank"]].equals(brute)


def test_knn_grouped_equals_broadcast_at_z0(ray_session, sf_dir):
    """At zoom 0 the 3x3 window is the whole world, so the grouped
    exchange path must reproduce exact broadcast kNN verbatim."""
    did, lon, lat = _pts(sf_dir)
    q = did[did % 50 == 0]
    q_lon, q_lat = D.derive_lonlat(q)
    exact = (
        join.knn_join(D.read_docs(sf_dir), q, q_lon, q_lat, 4)
        .sort_values(["q_doc", "rank"])
        .reset_index(drop=True)
    )
    docs = D.read_docs(sf_dir)
    queries = docs.map_batches(
        lambda b: b.filter(
            __import__("pyarrow").array(
                np.asarray(b["doc_num"], dtype=np.int64) % 50 == 0
            )
        ),
        batch_format="pyarrow",
    )
    got = (
        join.knn_join_grouped(docs, queries, 4, zoom=0)
        .to_pandas()
        .sort_values(["q_doc", "rank"])
        .reset_index(drop=True)
    )
    assert got[["q_doc", "n_doc", "rank"]].equals(exact)


def test_knn_grouped_windowed_semantics(ray_session, sf_dir):
    """At a real zoom the contract is exact-top-k WITHIN the 3x3 tile
    window: verify against a brute-force windowed reference."""
    z, k = 3, 5
    did, lon, lat = _pts(sf_dir)
    x, y = coords.lonlat_to_tile(lon, lat, z)
    qm = did % 50 == 0
    docs = D.read_docs(sf_dir)
    queries = docs.map_batches(
        lambda b: b.filter(
            __import__("pyarrow").array(
                np.asarray(b["doc_num"], dtype=np.int64) % 50 == 0
            )
        ),
        batch_format="pyarrow",
    )
    got = (
        join.knn_join_grouped(docs, queries, k, zoom=z)
        .to_pandas()
        .sort_values(["q_doc", "rank"])
        .reset_index(drop=True)
    )
    rows = []
    for qd, qx_t, qy_t, qx, qy in zip(did[qm], x[qm], y[qm], lon[qm], lat[qm]):
        win = (np.abs(x - qx_t) <= 1) & (np.abs(y - qy_t) <= 1) & (did != qd)
        d2 = (qx - lon[win]) ** 2 + (qy - lat[win]) ** 2
        order = np.lexsort((did[win], d2))[:k]
        rows += [(qd, did[win][j], r + 1) for r, j in enumerate(order)]
    brute = pd.DataFrame(rows, columns=["q_doc", "n_doc", "rank"]).sort_values(
        ["q_doc", "rank"]
    ).reset_index(drop=True)
    assert got[["q_doc", "n_doc", "rank"]].equals(brute)


def test_asof_join_directions_and_nulls(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.join import asof_join

    left = rd.from_arrow(pa.table({
        "lid": pa.array([1, 2, 3, 4], type=pa.int64()),
        "k": pa.array([10, 10, 10, 99], type=pa.int64()),
        "t": pa.array([5, 15, 24, 7], type=pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([10, 10, 10], type=pa.int64()),
        "rt": pa.array([10, 20, 30], type=pa.int64()),
        "rv": pa.array(["a", "b", "c"]),
    }))
    back = asof_join(left, right, by="k", left_on="t", right_on="rt",
                     num_partitions=4).to_pandas().sort_values("lid")
    # t=5: no rt<=5 -> null; t=15 -> rt10 'a'; t=24 -> rt20 'b'; k=99 -> null
    assert back["rv"].tolist() == [None, "a", "b", None]
    fwd = asof_join(left, right, by="k", left_on="t", right_on="rt",
                    direction="forward", num_partitions=4
                    ).to_pandas().sort_values("lid")
    # t=5 -> rt10; t=15 -> rt20; t=24 -> rt30; k=99 -> null
    assert fwd["rv"].tolist() == ["a", "b", "c", None]


def test_asof_join_equality_inclusive(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.join import asof_join

    left = rd.from_arrow(pa.table({"k": pa.array([1], type=pa.int64()),
                                   "t": pa.array([10], type=pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([1], type=pa.int64()),
                                    "rt": pa.array([10], type=pa.int64()),
                                    "rv": pa.array([7], type=pa.int64())}))
    out = asof_join(left, right, by="k", left_on="t", right_on="rt",
                    num_partitions=2).to_pandas()
    assert out["rv"].tolist() == [7]  # rt <= t includes equality


def test_range_join_agg_edges(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.join import range_join_agg

    iv = rd.from_arrow(pa.table({
        "iid": pa.array([1, 2, 3], type=pa.int64()),
        "k": pa.array([5, 5, 6], type=pa.int64()),
        "lo": pa.array([10, 100, 10], type=pa.int64()),
        "hi": pa.array([20, 110, 20], type=pa.int64()),
    }))
    pts = rd.from_arrow(pa.table({
        "k": pa.array([5, 5, 5, 6], type=pa.int64()),
        "at": pa.array([10, 20, 21, 15], type=pa.int64()),
        "v": pa.array([1.0, 2.5, 4.0, 8.0]),
    }))
    out = range_join_agg(iv, pts, by="k", lo="lo", hi="hi", at="at",
                         value="v", num_partitions=4
                         ).to_pandas().sort_values("iid")
    # iid1: at=10 (lo edge) + at=20 (hi edge), cents 100+250; at=21 excluded
    # iid2: none; iid3: different key's at=15 only
    assert out["n_points"].tolist() == [2, 0, 1]
    assert out["sum_cents"].tolist() == [350, 0, 800]
    # inverted interval matches nothing (never a negative count)
    bad = rd.from_arrow(pa.table({
        "iid": pa.array([9], type=pa.int64()),
        "k": pa.array([5], type=pa.int64()),
        "lo": pa.array([50], type=pa.int64()),
        "hi": pa.array([10], type=pa.int64()),
    }))
    o2 = range_join_agg(bad, pts, by="k", lo="lo", hi="hi", at="at",
                        value="v", num_partitions=2).to_pandas()
    assert o2["n_points"].tolist() == [0] and o2["sum_cents"].tolist() == [0]


def test_rect_join_bucketed_matches_broadcast(ray_session, sf_dir):
    """Pair-set equality between the broadcast path and the bucketed
    exchange path on overlapping rects spanning many grid cells."""
    import ray.data as rd

    rects = [
        (1, 0.0, 0.0, 0.5, 0.5),
        (2, 0.25, 0.25, 0.75, 0.75),   # overlaps rect 1
        (3, 0.9, 0.9, 1.0, 1.0),
        (4, 0.0, 0.0, 1.0, 1.0),       # whole world: every cell
        (5, 0.49, 0.49, 0.51, 0.51),   # tiny: single/few cells
        (6, 0.3, 0.3, 0.3, 0.4),       # degenerate (zero width)
    ]
    broad = (
        D.read_docs(sf_dir)
        .map_batches(join.RectJoin(rects), batch_format="pyarrow")
        .select_columns(["doc_num", "rect_id"]).to_pandas()
    )
    rects_ds = rd.from_arrow(pa.table({
        "rect_id": pa.array([r[0] for r in rects], type=pa.int64()),
        "mx0": pa.array([r[1] for r in rects]),
        "my0": pa.array([r[2] for r in rects]),
        "mx1": pa.array([r[3] for r in rects]),
        "my1": pa.array([r[4] for r in rects]),
    }))
    for zoom in (2, 5):
        got = join.rect_join_bucketed(
            D.read_docs(sf_dir), rects_ds, zoom=zoom, num_partitions=8
        ).to_pandas()
        assert set(map(tuple, got.values)) == set(map(tuple, broad.values)), zoom
        assert len(got) == len(broad), zoom  # exactly one row per pair


def test_rect_join_bucketed_large_catalog(ray_session):
    """>=100k rects — the catalog size the broadcast path exists to
    avoid — against a synthetic doc grid, verified on a sampled doc
    subset by brute force."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    n_rects = 120_000
    x0 = rng.uniform(0, 0.995, n_rects)
    y0 = rng.uniform(0, 0.995, n_rects)
    w = rng.uniform(0.0005, 0.004, n_rects)   # tiny rects: O(1) cells at z8
    rect_t = pa.table({
        "rect_id": pa.array(np.arange(n_rects, dtype=np.int64)),
        "mx0": pa.array(x0), "my0": pa.array(y0),
        "mx1": pa.array(np.minimum(x0 + w, 1.0)),
        "my1": pa.array(np.minimum(y0 + w, 1.0)),
    })
    n_docs = 20_000
    mx = rng.uniform(0, 1, n_docs)
    my = rng.uniform(0, 1, n_docs)
    # invert mercator fraction -> lon/lat so _doc_cell_rows' forward
    # transform reproduces (mx, my)
    lon = (mx - 0.5) * 360.0
    lat = (2.0 * np.arctan(np.exp((0.5 - my) * 2.0 * np.pi)) - np.pi / 2) * 180.0 / np.pi
    docs_t = pa.table({
        "doc_num": pa.array(np.arange(n_docs, dtype=np.int64)),
        "lon": pa.array(lon), "lat": pa.array(lat),
    })
    got = join.rect_join_bucketed(
        rd.from_arrow(docs_t).repartition(8),
        rd.from_arrow(rect_t).repartition(8),
        zoom=8, num_partitions=16,
    ).to_pandas()
    # forward-transformed coordinates (what the engine tests against)
    fmx, fmy = coords.mercator_fraction(lon, lat)
    # brute-force verify a doc sample
    sample = rng.choice(n_docs, 400, replace=False)
    expected = set()
    for d in sample:
        m = ((fmx[d] >= x0) & (fmx[d] < np.minimum(x0 + w, 1.0))
             & (fmy[d] >= y0) & (fmy[d] < np.minimum(y0 + w, 1.0)))
        expected |= {(int(d), int(r)) for r in np.flatnonzero(m)}
    got_sample = {(int(a), int(b)) for a, b in got.values if a in set(sample.tolist())}
    assert got_sample == expected


# ---- hash_join (general equi-join) ----------------------------------------


def _hj_fixture(seed=7, n_left=400, n_right=120):
    rng = np.random.default_rng(seed)
    left = pa.table({
        "k": pa.array(rng.integers(0, 60, n_left), type=pa.int64()),
        "lv": pa.array(rng.integers(0, 1000, n_left), type=pa.int64()),
    })
    right = pa.table({
        "k": pa.array(rng.integers(20, 90, n_right), type=pa.int64()),
        "rv": pa.array([f"r{i}" for i in range(n_right)], type=pa.string()),
    })
    return left, right


def test_hash_join_matches_duckdb_all_types(ray_session):
    import duckdb
    import ray.data as rd

    left_t, right_t = _hj_fixture()
    con = duckdb.connect()
    con.register("l", left_t)
    con.register("r", right_t)
    sqls = {
        "inner": "SELECT l.k, lv, rv FROM l JOIN r USING (k)",
        "left": "SELECT l.k, lv, rv FROM l LEFT JOIN r USING (k)",
        "semi": "SELECT k, lv FROM l WHERE k IN (SELECT k FROM r)",
        "anti": "SELECT k, lv FROM l WHERE k NOT IN (SELECT k FROM r)",
    }
    for how, sql in sqls.items():
        got = join.hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                             "k", how=how, num_partitions=4).to_pandas()
        want = con.execute(sql).df()
        cols = list(want.columns)
        got = got[cols].sort_values(cols, na_position="last").reset_index(drop=True)
        want = want.sort_values(cols, na_position="last").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype({"k": "int64"}), want.astype({"k": "int64"}),
            check_dtype=False), how


def test_hash_join_string_keys_and_validation(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array(["a", "b", "b", "c"]), "lv": pa.array([1, 2, 3, 4])}))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["b", "c", "d"]), "rv": pa.array([10, 20, 30])}))
    out = join.hash_join(left, right, "k", num_partitions=3).to_pandas()
    got = sorted(map(tuple, out[["k", "lv", "rv"]].itertuples(index=False)))
    assert got == [("b", 2, 10), ("b", 3, 10), ("c", 4, 20)]

    import pytest
    with pytest.raises(ValueError, match="overlap"):
        join.hash_join(left, left, "k")
    with pytest.raises(ValueError, match="one of"):
        join.hash_join(left, right, "k", how="full")
    # key kinds that differ across sides fail on the driver, naming both
    ints = rd.from_arrow(pa.table({"k": pa.array([1, 2], type=pa.int64()),
                                   "iv": pa.array([1, 2])}))
    with pytest.raises(ValueError, match="int64 on the left and string"):
        join.hash_join(ints, right, "k")
    with pytest.raises(ValueError, match="string on the left and int64"):
        join.hash_join(left, ints, "k")
    # integer widths may differ: keys meet as int64
    narrow = rd.from_arrow(pa.table({"k": pa.array([2, 3], type=pa.int32()),
                                     "nv": pa.array([5, 6])}))
    out = join.hash_join(ints, narrow, "k", num_partitions=2).to_pandas()
    assert out[["k", "iv", "nv"]].values.tolist() == [[2, 2, 5]]


# ---- anti_join_ids ----------------------------------------------------------


def test_anti_join_bloom_equals_exact(ray_session):
    """anti_join_ids equals a numpy set difference: ~14% dropped, an
    empty drop side, every row dropped and drop ids absent from ds,
    at 2 and 4 partitions; the 0-row outputs keep ds's schema."""
    import ray
    import ray.data as rd

    rng = np.random.default_rng(3)
    ids = rng.permutation(20_000)[:5_000].astype(np.int64)
    base = rd.from_arrow(pa.table({
        "doc_num": pa.array(ids),
        "v": pa.array(ids * 3),
    }))
    absent = np.setdiff1d(np.arange(20_000, dtype=np.int64), ids)[:300]
    cases = {
        "some": ids[::7],  # ~14% dropped
        "none": np.array([], dtype=np.int64),
        "all": ids,
        "absent": np.concatenate([absent, ids[:50]]),
    }
    for name, drop_ids in cases.items():
        drops = rd.from_arrow(pa.table({"doc_num": pa.array(drop_ids, type=pa.int64())}))
        want = np.sort(np.setdiff1d(ids, drop_ids))
        for parts in (2, 4):
            out = join.anti_join_ids(base, drops, "doc_num", num_partitions=parts)
            # Arrow blocks, not to_pandas: Ray drops the columns of all-empty blocks
            got = pa.concat_tables(ray.get(out.to_arrow_refs()))
            assert got.schema.names == ["doc_num", "v"], (name, parts)
            doc = np.asarray(got["doc_num"], dtype=np.int64)
            assert np.sort(doc).tolist() == want.tolist(), (name, parts)
            assert (np.asarray(got["v"]) == doc * 3).all(), (name, parts)


def test_bloom_no_false_negatives_and_fp_rate():
    """_aj_combine, the anti-join's per-partition filter: duplicate drop
    ids, drop ids outside the rows, and a column-less rows table that
    falls back to the empty schema."""
    rows = pa.table({"id": pa.array([5, 1, 9, 1, 3], type=pa.int64()),
                     "v": pa.array(["a", "b", "c", "d", "e"])})
    empty = rows.slice(0, 0)

    def drop(*ids):
        return pa.table({"id": pa.array(ids, type=pa.int64())})

    out = join._aj_combine(rows, drop(1, 1, 9, 9, 9), empty, "id")
    assert out.to_pydict() == {"id": [5, 3], "v": ["a", "e"]}
    out = join._aj_combine(rows, drop(2, 4, 100, -7), empty, "id")
    assert out.equals(rows)
    out = join._aj_combine(rows, drop(), empty, "id")
    assert out.equals(rows)
    out = join._aj_combine(pa.table({}), drop(1, 2), empty, "id")
    assert out.num_rows == 0 and out.schema.equals(empty.schema)


# ---- geodesic (great-circle) kNN ------------------------------------------


def test_sphere_metric_trig_is_bitexact_vs_sql():
    """The geodesic oracle's validity rests on numpy float64 trig ==
    libm == DuckDB bitwise; pin it so a platform change fails loudly
    here instead of as a value-hash mystery."""
    import math

    import duckdb

    rng = np.random.default_rng(11)
    v = rng.uniform(-180, 180, 5000)
    a = np.sin(np.radians(v))
    assert (a == np.asarray([math.sin(math.radians(x)) for x in v])).all()
    con = duckdb.connect()
    got = con.execute(
        "SELECT list(sin(radians(x)) ORDER BY i), "
        "list(cos(radians(x)) ORDER BY i) FROM "
        "(SELECT unnest(?) AS x, generate_subscripts(?, 1) AS i)",
        [list(v), list(v)]).fetchone()
    assert (np.asarray(got[0]) == a).all()
    assert (np.asarray(got[1]) == np.cos(np.radians(v))).all()


def test_knn_sphere_matches_haversine_bruteforce(ray_session):
    """Negative-dot ranking == great-circle-distance ranking (the dot
    is monotone in the central angle)."""
    import ray.data as rd

    from versatiles_rs_ray.stages.join import knn_join

    rng = np.random.default_rng(3)
    n = 400
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-85, 85, n)
    ids = np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({
        "doc_num": pa.array(ids), "lon": pa.array(lon), "lat": pa.array(lat),
    }))
    q = ids[::37]
    out = knn_join(ds, q, lon[::37], lat[::37], 5, metric="sphere")

    lonr, latr = np.radians(lon), np.radians(lat)
    for qi, qlon, qlat in zip(q, np.radians(lon[::37]), np.radians(lat[::37])):
        dlat = latr - qlat
        dlon = lonr - qlon
        h = (np.sin(dlat / 2) ** 2
             + np.cos(qlat) * np.cos(latr) * np.sin(dlon / 2) ** 2)
        gc = 2 * np.arcsin(np.sqrt(np.clip(h, 0, 1)))
        gc[qi] = np.inf  # exclude self
        want = ids[np.lexsort((ids, gc))][:5]
        got = out[out.q_doc == qi].sort_values("rank")["n_doc"].to_numpy()
        assert list(got) == list(want), qi


def test_knn_sphere_beats_plane_at_antimeridian(ray_session):
    """A neighbor at lon 179.9 vs one at lon 0: planar degrees pick the
    wrong point for a query at lon -179.9; the geodesic metric crosses
    the date line correctly."""
    import ray.data as rd

    from versatiles_rs_ray.stages.join import knn_join

    ds = rd.from_arrow(pa.table({
        "doc_num": pa.array([1, 2], type=pa.int64()),
        "lon": pa.array([179.9, 0.0]),
        "lat": pa.array([0.0, 0.0]),
    }))
    plane = knn_join(ds, [9], [-179.9], [0.0], 1, metric="plane")
    sphere = knn_join(ds, [9], [-179.9], [0.0], 1, metric="sphere")
    assert plane["n_doc"].iloc[0] == 2      # planar: 179.8 deg < 359.8 deg
    assert sphere["n_doc"].iloc[0] == 1     # geodesic: 0.2 deg apart


def test_knn_metric_validation():
    import pytest

    from versatiles_rs_ray.stages.join import KnnPartial

    with pytest.raises(ValueError, match="metric"):
        KnnPartial([1], [0.0], [0.0], 3, metric="mercator")
