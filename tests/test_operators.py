"""Operator tests against the deterministic derived docs (the
from_debug analogue, SURVEY.md §5.2): stack, merge, filter, transform,
window, pyramid — each checked against a driver-side pandas brute force."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from versatiles_rs_ray.core import coords
from versatiles_rs_ray.sources import docs as D
from versatiles_rs_ray.stages import assign, filter as fstage, pyramid as pyr, stack, transform, window


def _docs_df(sf_dir):
    t = pq.read_table(f"{sf_dir}/documents.parquet")
    did = np.asarray(t["doc_id"], dtype=np.int64)
    lon, lat = D.derive_lonlat(did)
    return pd.DataFrame(
        {
            "doc_num": did,
            "lon": lon,
            "lat": lat,
            "source": t["source"].to_pylist(),
        }
    )


def _ray_docs(ray_session, sf_dir):
    return D.read_docs(sf_dir)


def test_assign_matches_brute(ray_session, sf_dir):
    ds = assign.assign_tiles(_ray_docs(ray_session, sf_dir), 9, with_hilbert=True)
    got = ds.select_columns(["doc_num", "x", "y", "hilbert"]).to_pandas().sort_values("doc_num")
    df = _docs_df(sf_dir).sort_values("doc_num")
    x, y = coords.lonlat_to_tile(df["lon"].values, df["lat"].values, 9)
    assert (got["x"].values == x).all()
    assert (got["y"].values == y).all()
    assert (got["hilbert"].values == coords.hilbert_index(np.full(len(x), 9), x, y)).all()


def test_first_wins_matches_brute(ray_session, sf_dir):
    def add_rank(batch: pa.Table) -> pa.Table:
        rank = np.asarray([int(s[3:]) for s in batch["source"].to_pylist()], dtype=np.int64)
        return batch.append_column("src_rank", pa.array(rank, type=pa.int64()))

    ds = assign.assign_tiles(_ray_docs(ray_session, sf_dir), 4).map_batches(
        add_rank, batch_format="pyarrow"
    )
    got = stack.first_wins(ds).to_pandas().sort_values(["z", "x", "y"]).reset_index(drop=True)

    df = _docs_df(sf_dir)
    df["x"], df["y"] = coords.lonlat_to_tile(df["lon"].values, df["lat"].values, 4)
    df["rank"] = df["source"].str[3:].astype(np.int64)
    brute = (
        df.sort_values(["rank", "doc_num"])
        .groupby(["x", "y"], as_index=False)
        .first()
        .rename(columns={"rank": "winner_rank", "doc_num": "winner_doc"})
    )
    brute = brute.sort_values(["x", "y"]).reset_index(drop=True)
    assert len(got) == len(brute)
    assert (got["winner_doc"].values == brute["winner_doc"].values).all()
    assert (got["winner_rank"].values == brute["winner_rank"].values).all()


def test_merge_sources_matches_brute(ray_session, sf_dir):
    def add_rank(batch: pa.Table) -> pa.Table:
        rank = np.asarray([int(s[3:]) for s in batch["source"].to_pylist()], dtype=np.int64)
        return batch.append_column("src_rank", pa.array(rank, type=pa.int64()))

    ds = assign.assign_tiles(_ray_docs(ray_session, sf_dir), 3).map_batches(
        add_rank, batch_format="pyarrow"
    )
    names = {i: f"src{i}" for i in range(63)}
    got = stack.merge_sources(ds, source_names=names).to_pandas().sort_values(["x", "y"])

    df = _docs_df(sf_dir)
    df["x"], df["y"] = coords.lonlat_to_tile(df["lon"].values, df["lat"].values, 3)
    brute = df.groupby(["x", "y"]).agg(
        n_docs=("doc_num", "size"), n_sources=("source", "nunique")
    )
    assert (got["n_docs"].values == brute["n_docs"].values).all()
    assert (got["n_sources"].values == brute["n_sources"].values).all()


def test_filter_pyramid(ray_session, sf_dir):
    ds = assign.assign_tiles(_ray_docs(ray_session, sf_dir), 5)
    out = fstage.filter_bbox_zoom(ds, bbox=(0, 0, 40, 20), level_min=5, level_max=5)
    got = out.select_columns(["doc_num"]).to_pandas()
    df = _docs_df(sf_dir)
    keep = (
        (df.lon > 0) & (df.lon < 40) & (df.lat > 0) & (df.lat < 20)
    )  # geo box interior maps into the 8-tile z5 region
    x, y = coords.lonlat_to_tile(df["lon"].values, df["lat"].values, 5)
    in_tiles = (x >= 16) & (x <= 19) & (y >= 14) & (y <= 15)
    assert set(got["doc_num"]) == set(df["doc_num"][in_tiles])
    assert keep.sum() <= in_tiles.sum()  # tile cover is a superset of the geo box


def test_flip_swap_roundtrip(ray_session, sf_dir):
    ds = assign.assign_tiles(_ray_docs(ray_session, sf_dir), 6)
    base = ds.select_columns(["doc_num", "z", "x", "y"])
    twice = transform.flip_y_ds(transform.flip_y_ds(base))
    a = base.to_pandas().sort_values("doc_num").reset_index(drop=True)
    b = twice.to_pandas().sort_values("doc_num").reset_index(drop=True)
    assert a.equals(b)
    sw = transform.swap_xy_ds(base).to_pandas().sort_values("doc_num").reset_index(drop=True)
    assert (sw["x"].values == a["y"].values).all()
    assert (sw["y"].values == a["x"].values).all()


def _hierarchical_rollup(level, z_base, z_min):
    """Level-by-level pandas rollup: each parent tile folds its four
    children (sum counts, min/max doc) — the reference's
    level-at-a-time pyramid, used as the oracle for the one-exchange
    spatial pyramid."""
    aggs = {"n_docs": "sum", "n_spans": "sum", "min_doc": "min", "max_doc": "max"}
    parts = []
    for z in range(z_base, z_min - 1, -1):
        level = level.groupby(["x", "y"], as_index=False).agg(aggs)
        parts.append(level.assign(z=z))
        level = level.assign(x=level.x // 2, y=level.y // 2)
    return pd.concat(parts)


_ROLLUP_COLS = ["z", "x", "y", "n_docs", "n_spans", "min_doc", "max_doc"]


def _rollup_oracle(docs, z_base, z_min):
    """_hierarchical_rollup of the docs' base tiles, sorted by z/x/y."""
    d = docs.select_columns(["doc_num", "x", "y", "spans"]).to_pandas()
    base = pd.DataFrame({
        "x": d.x, "y": d.y, "n_docs": 1, "n_spans": d.spans.map(len),
        "min_doc": d.doc_num, "max_doc": d.doc_num,
    })
    hier = _hierarchical_rollup(base, z_base, z_min)[_ROLLUP_COLS]
    return hier.astype("int64").sort_values(["z", "x", "y"]).reset_index(drop=True)


def _pyramid_zxy(df):
    """Pyramid frame (tkey + stats) -> z/x/y frame, sorted like the oracle."""
    z, x, y = assign.unpack_tkey(df["tkey"].to_numpy(dtype=np.int64))
    df = df.assign(z=z, x=x, y=y)[_ROLLUP_COLS].astype("int64")
    return df.sort_values(["z", "x", "y"]).reset_index(drop=True)


def test_pyramid_single_shuffle_equals_hierarchical(ray_session, sf_dir):
    """The single-exchange spatial pyramid equals a level-by-level
    rollup of the base tiles, computed independently in pandas."""
    docs = assign.assign_tiles(_ray_docs(ray_session, sf_dir), 6)
    hier = _rollup_oracle(docs, 6, 0)
    single = _pyramid_zxy(
        pyr.aggregate_pyramid_spatial(docs, 6, 0, split_level=3, num_buckets=8).to_pandas())
    assert single.equals(hier)
    # z0 aggregates everything
    assert int(single[single.z == 0]["n_docs"].iloc[0]) == 500


def test_pyramid_partitions_scale_with_split_level(ray_session, sf_dir):
    """A pyramid shallower than split_level gets 4x fewer exchange
    partitions per missing level (no fewer than 2); at or above it the
    caller's num_buckets stands. z_min >= split_level keeps the driver
    tail's extra block out of the count."""
    for z_base, z_min, kw, blocks in ((3, 3, {}, 2), (4, 4, {}, 4), (8, 6, {}, 64),
                                      (6, 6, {"split_level": 3, "num_buckets": 8}, 8)):
        docs = assign.assign_tiles(_ray_docs(ray_session, sf_dir), z_base)
        out = pyr.aggregate_pyramid_spatial(docs, z_base, z_min, **kw)
        assert out.num_blocks() == blocks, (z_base, kw)
        assert _pyramid_zxy(out.to_pandas()).equals(_rollup_oracle(docs, z_base, z_min))


def test_pyramid_fused_equals_dataset_path(ray_session, sf_dir):
    """Spec-fed pyramid == Dataset-fed spatial pyramid, column for
    column (the spec-fed entry is what the bench runs), both honour
    z_min above split_level, and the spec-fed result equals the
    independent pandas rollup for z_min=0 and z_min=6."""
    from versatiles_rs_ray.sources import docs as D

    docs = assign.assign_tiles(_ray_docs(ray_session, sf_dir), 8)
    want = (
        pyr.aggregate_pyramid_spatial(docs, 8, 0, split_level=4, num_buckets=8)
        .to_pandas()
        .sort_values("tkey")
        .reset_index(drop=True)
    )
    specs = D.shard_specs(sf_dir, 4, shards_per_task=2)
    got = (
        pyr.aggregate_pyramid_spatial_fused(
            specs, D.load_shard_spec, 8, 0, split_level=4, num_buckets=8
        )
        .to_pandas()
        .sort_values("tkey")
        .reset_index(drop=True)
    )
    # spec-fed path read 4 replicas; restrict the Dataset path comparison to
    # replica 0 via a fresh spec-fed run on one replica
    specs1 = D.shard_specs(sf_dir, 1, shards_per_task=2)
    got1 = (
        pyr.aggregate_pyramid_spatial_fused(
            specs1, D.load_shard_spec, 8, 0, split_level=4, num_buckets=8
        )
        .to_pandas()
        .sort_values("tkey")
        .reset_index(drop=True)
    )
    assert got1[want.columns].equals(want)
    assert _pyramid_zxy(got1).equals(_rollup_oracle(docs, 8, 0))
    # z0 aggregates everything
    assert int(want[want.tkey == 0]["n_docs"].iloc[0]) == 500
    # multi-replica totals: every level sums to 4x the docs
    for z in (0, 4, 8):
        assert int(got[got.tkey // (1 << 58) == z]["n_docs"].sum()) == 4 * 500

    # z_min above split_level: exactly levels 6..8, equal to the
    # z_min=0 pyramid restricted to z >= 6
    want6 = want[want.tkey // (1 << 58) >= 6].reset_index(drop=True)
    oracle6 = _rollup_oracle(docs, 8, 6)
    for out in (
        pyr.aggregate_pyramid_spatial(docs, 8, 6, split_level=4, num_buckets=8),
        pyr.aggregate_pyramid_spatial_fused(
            specs1, D.load_shard_spec, 8, 6, split_level=4, num_buckets=8
        ),
    ):
        df = out.to_pandas().sort_values("tkey").reset_index(drop=True)
        assert sorted(set(df.tkey // (1 << 58))) == [6, 7, 8]
        assert df[want.columns].equals(want6)
        assert _pyramid_zxy(df).equals(oracle6)


def test_pyramid_skewed_hot_tile(ray_session):
    """Explicit skew check (north rule): ALL docs on one point — the
    hottest possible tile key at every level. The per-block combiner
    bounds the shuffle to one partial row per (block, level) no matter
    the skew, and results stay exact."""
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.core.coords import tile_to_lonlat
    from versatiles_rs_ray.stages.pyramid import (
        aggregate_pyramid_spatial,
        aggregate_pyramid_spatial_fused,
        partial_multilevel_agg,
    )

    n = 50_000
    t = pa.table(
        {
            "doc_num": pa.array(np.arange(n), type=pa.int64()),
            "z": pa.array(np.full(n, 8), type=pa.int64()),
            "x": pa.array(np.full(n, 137), type=pa.int64()),
            "y": pa.array(np.full(n, 91), type=pa.int64()),
            "n_spans": pa.array(np.full(n, 2), type=pa.int64()),
        }
    )
    # combiner output for one block: exactly one row per level
    part = partial_multilevel_agg(t, 8, 0)
    assert part.num_rows == 9
    ds = rd.from_arrow(t).repartition(8)
    # fused path: 8 specs, each loading one slice of the docs at the
    # centre of tile (8, 137, 91)
    lon, lat = tile_to_lonlat(9, 2 * 137 + 1, 2 * 91 + 1)
    step = n // 8

    def load(i):
        return pa.table({
            "doc_num": pa.array(np.arange(i * step, (i + 1) * step), type=pa.int64()),
            "lon": pa.array(np.full(step, lon)),
            "lat": pa.array(np.full(step, lat)),
            "n_spans": pa.array(np.full(step, 2), type=pa.int64()),
        })

    for pyramid in (
        aggregate_pyramid_spatial(ds, 8, 0),
        aggregate_pyramid_spatial_fused(list(range(8)), load, 8, 0),
    ):
        out = pyramid.to_pandas()
        assert len(out) == 9  # one tile per level, all hot
        assert (out["n_docs"] == n).all()
        assert (out["n_spans"] == 2 * n).all()
        assert (out["min_doc"] == 0).all() and (out["max_doc"] == n - 1).all()


def test_tumbling_window_matches_brute(ray_session, sf_dir):
    import ray.data as rd

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])
    got = window.tumbling_window(ev).to_pandas().sort_values(["event_type", "window_start"])
    df = pq.read_table(f"{sf_dir}/events.parquet").to_pandas()
    df["window_start"] = (
        df["ts"].astype("datetime64[ns]").astype("int64") // (3600 * 10**9) * 3600
    )
    df["cents"] = np.floor(df["value"] * 100).astype(np.int64)
    brute = (
        df.groupby(["event_type", "window_start"])
        .agg(n_events=("cents", "size"), sum_cents=("cents", "sum"),
             min_cents=("cents", "min"), max_cents=("cents", "max"))
        .reset_index()
        .sort_values(["event_type", "window_start"])
    )
    for c in ["n_events", "sum_cents", "min_cents", "max_cents"]:
        assert (got[c].values == brute[c].values).all(), c


def test_hopping_window_matches_brute(ray_session, sf_dir):
    import ray.data as rd

    W, H = 3600, 900  # k = 4 overlapping windows per event
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    got = window.hopping_window(ev, window_s=W, hop_s=H).to_pandas() \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)
    df = pq.read_table(f"{sf_dir}/events.parquet").to_pandas()
    df["cents"] = np.floor(df["value"] * 100).astype(np.int64)
    ts_s = df["ts"].astype("datetime64[ns]").astype("int64") // 10**9
    frames = []
    for j in range(W // H):
        f = df.copy()
        f["window_start"] = (ts_s // H - j) * H
        frames.append(f)
    import pandas as pd

    brute = (
        pd.concat(frames)
        .groupby(["event_type", "window_start"])
        .agg(n_events=("cents", "size"), sum_cents=("cents", "sum"),
             min_cents=("cents", "min"), max_cents=("cents", "max"))
        .reset_index()
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)
    )
    assert len(got) == len(brute)
    for c in ["n_events", "sum_cents", "min_cents", "max_cents"]:
        assert (got[c].values == brute[c].values).all(), c
    # every event lands in exactly k windows
    assert got["n_events"].sum() == len(df) * (W // H)


def test_hopping_degenerates_to_tumbling(ray_session, sf_dir):
    import ray.data as rd

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    cols = ["event_type", "window_start"]
    a = window.hopping_window(ev, window_s=3600, hop_s=3600).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    b = window.tumbling_window(ev).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_funnel_matches_scalar_reference(ray_session):
    import pyarrow as pa
    import ray.data as rd

    stages = ("a", "b", "c")
    # user 1: full chain; user 2: b before a (b must not count);
    # user 3: a only; user 4: a and c simultaneous with b missing;
    # user 5: a,b at the SAME ts (strictly-after excludes b)
    rows = [
        (1, 10, "a"), (1, 20, "b"), (1, 30, "c"),
        (2, 10, "b"), (2, 20, "a"), (2, 30, "b"), (2, 40, "c"),
        (3, 10, "a"),
        (4, 10, "a"), (4, 20, "c"),
        (5, 10, "a"), (5, 10, "b"),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] * 1_000_000 for r in rows],
                       type=pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], type=pa.string()),
    })
    got = window.funnel(rd.from_arrow(tbl), stages).to_pandas() \
        .set_index("stage")["n_users"]
    assert got[1] == 5   # everyone fires 'a'
    assert got[2] == 2   # users 1 and 2 ('b' after 'a'; user 5 same-ts)
    assert got[3] == 2   # users 1 and 2 complete
    # partition invariance
    got2 = window.funnel(rd.from_arrow(tbl).repartition(5), stages,
                         num_partitions=3).to_pandas() \
        .set_index("stage")["n_users"]
    assert list(got.sort_index()) == list(got2.sort_index())
    import pytest as _pt

    with _pt.raises(ValueError):
        window.funnel(rd.from_arrow(tbl), ())


def test_hopping_window_validation(ray_session):
    import pytest as _pt

    with _pt.raises(ValueError):
        window.hopping_window(None, window_s=3600, hop_s=1000)
    with _pt.raises(ValueError):
        window.hopping_window(None, window_s=0, hop_s=0)


def test_exchange_edge_cases(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray
    import ray.data as rd

    from versatiles_rs_ray.stages.exchange import hash_exchange

    def ident(t):
        return t

    def _sum_v_by_k(t):
        k = np.asarray(t["k"], dtype=np.int64)
        v = np.asarray(t["v"], dtype=np.int64)
        uniq, inv = np.unique(k, return_inverse=True)
        return pa.table(
            {
                "k": pa.array(uniq, type=pa.int64()),
                "v": pa.array(np.bincount(inv, weights=v).astype(np.int64), type=pa.int64()),
            }
        )

    # empty dataset through the streaming exchange: unchanged
    empty = rd.from_arrow(pa.table({"k": pa.array([], type=pa.int64())}))
    out = hash_exchange(empty, "k", ident, num_partitions=4)
    assert out.count() == 0
    # a dataset with no blocks at all, with an aux output: (Dataset, [])
    out, aux = hash_exchange(empty.limit(0), "k", ident, num_partitions=4, aux_fn=ident)
    assert out.count() == 0 and aux == []

    # single-row dataset
    one = rd.from_arrow(pa.table({"k": pa.array([7], type=pa.int64())}))
    assert hash_exchange(one, "k", ident, num_partitions=4).count() == 1

    # 43 one-row blocks: five full 8-block split groups plus a 3-block
    # tail group; per-key sums must be exact with and without aux_fn
    from versatiles_rs_ray.stages import exchange as ex

    many = rd.from_arrow([
        pa.table({"k": pa.array([i % 5], type=pa.int64()),
                  "v": pa.array([i], type=pa.int64())})
        for i in range(43)
    ])
    assert len(ex._stream_splits(many, "k", 8)) == 6
    want = {k: sum(i for i in range(43) if i % 5 == k) for k in range(5)}

    def sums(ds):
        df = ds.to_pandas()
        assert len(df) == 5
        return dict(zip(df["k"].tolist(), df["v"].tolist()))

    assert sums(hash_exchange(many, "k", _sum_v_by_k, num_partitions=8)) == want
    out, aux = hash_exchange(many, "k", _sum_v_by_k, num_partitions=8, aux_fn=ident)
    assert sums(out) == want and len(aux) == 8
    assert sums(rd.from_arrow(ray.get(aux))) == want

    # a populated block without the key column is an error, not lost rows;
    # 0-row and schema-less blocks still pass
    good = pa.table({"k": pa.array([1, 2, 3], type=pa.int64())})
    bad = pa.table({"x": pa.array([4, 5], type=pa.int64())})
    with pytest.raises(ValueError, match=r"'k' missing .*\['x'\]"):
        ex._split_block("k", 2, good, bad)
    with pytest.raises(ValueError, match="'k' missing"):
        ex._split_block("k", 2, bad)
    parts = ex._split_block("k", 2, good, bad.slice(0, 0), pa.table({}))
    assert sum(p.num_rows for p in parts) == 3
    with pytest.raises(ValueError, match="num_partitions"):
        hash_exchange(one, "k", ident, num_partitions=1)

    # co-groups: one table per input, in argument order, own columns only
    left = rd.from_arrow([
        pa.table({"k": pa.array([i % 5], type=pa.int64()),
                  "a": pa.array([i], type=pa.int64())})
        for i in range(20)
    ])
    right = rd.from_arrow(pa.table({"k": pa.array(range(3, 8), type=pa.int64()),
                                    "b": pa.array(["x"] * 5)}))

    def _pair_sums(lt, rt):
        assert lt.column_names == ["k", "a"] and rt.column_names == ["k", "b"]
        keys = np.union1d(np.asarray(lt["k"], dtype=np.int64),
                          np.asarray(rt["k"], dtype=np.int64))
        lk = np.asarray(lt["k"], dtype=np.int64)
        return pa.table({
            "k": pa.array(keys, type=pa.int64()),
            "a": pa.array([int(np.asarray(lt["a"])[lk == k].sum()) for k in keys],
                          type=pa.int64()),
            "nb": pa.array([int((np.asarray(rt["k"]) == k).sum()) for k in keys],
                           type=pa.int64()),
        })

    want2 = {k: (sum(i for i in range(20) if i % 5 == k), int(3 <= k < 8))
             for k in range(8)}

    def pair_sums(ds):
        df = ds.to_pandas()
        return {k: (a, nb) for k, a, nb in zip(df["k"], df["a"], df["nb"])}

    assert pair_sums(hash_exchange([left, right], "k", _pair_sums,
                                   num_partitions=4)) == want2
    out, aux = hash_exchange([left, right], "k", _pair_sums, num_partitions=4,
                             aux_fn=ident)
    assert pair_sums(out) == want2 and len(aux) == 4
    assert pair_sums(rd.from_arrow(ray.get(aux))) == want2

    # an empty limit(0) input arrives as 0-row tables with its schema
    want_empty = {k: (a, 0) for k, (a, _) in want2.items() if k < 5}
    assert pair_sums(hash_exchange([left, right.limit(0)], "k", _pair_sums,
                                   num_partitions=4)) == want_empty
    out, aux = hash_exchange([left, right.limit(0)], "k", _pair_sums,
                             num_partitions=4, aux_fn=ident)
    assert pair_sums(out) == want_empty and len(aux) == 4
    # every input empty: the combine runs once on the 0-row tables
    out, aux = hash_exchange([left.limit(0), right.limit(0)], "k", _pair_sums,
                             num_partitions=4, aux_fn=ident)
    assert out.count() == 0 and out.schema().names == ["k", "a", "nb"] and aux == []

    # three inputs reach the combine in argument order
    def _order(*ts):
        return pa.table({"k": pa.array([0], type=pa.int64()),
                         "sig": pa.array(["|".join(",".join(t.column_names)
                                                   for t in ts)])})

    third = rd.from_arrow(pa.table({"k": pa.array([1], type=pa.int64()),
                                    "c": pa.array([1.5])}))
    for aux_fn in (None, ident):
        res = hash_exchange([right, third, left], "k", _order,
                            num_partitions=2, aux_fn=aux_fn)
        ds = res if aux_fn is None else res[0]
        assert set(ds.to_pandas()["sig"]) == {"k,b|k,c|k,a"}

    # pandas-backed inputs hand the split DataFrame blocks: the same rows
    # as their Arrow-backed twins
    import pandas as pd

    from versatiles_rs_ray.stages.join import anti_join_ids

    def rows(ds, key):
        return ds.to_pandas().sort_values(key).reset_index(drop=True)

    df = pd.DataFrame({"doc_num": np.arange(40, dtype=np.int64),
                       "v": np.arange(40, dtype=np.int64) * 3})
    drops = pd.DataFrame({"doc_num": np.arange(0, 40, 6, dtype=np.int64)})
    via_pandas = rows(hash_exchange(rd.from_pandas(df), "doc_num", ident, 2), "doc_num")
    pd.testing.assert_frame_equal(via_pandas, rows(hash_exchange(
        rd.from_arrow(pa.Table.from_pandas(df)), "doc_num", ident, 2), "doc_num"))
    assert len(via_pandas) == 40
    via_pandas = rows(anti_join_ids(rd.from_pandas(df), rd.from_pandas(drops),
                                    "doc_num"), "doc_num")
    pd.testing.assert_frame_equal(via_pandas, rows(anti_join_ids(
        rd.from_arrow(pa.Table.from_pandas(df)),
        rd.from_arrow(pa.Table.from_pandas(drops)), "doc_num"), "doc_num"))
    assert via_pandas["doc_num"].tolist() == [i for i in range(40) if i % 6]


def test_topk_per_key_ties_and_prune(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import topk_per_key

    t = pa.table({
        "k": pa.array(["a"] * 5 + ["b"] * 2),
        "v": pa.array([9, 9, 7, 9, 1, 3, 3], type=pa.int64()),
        "id": pa.array([5, 2, 1, 9, 0, 11, 10], type=pa.int64()),
    })
    out = topk_per_key(rd.from_arrow(t).repartition(3), "k", "v", 3, "id",
                       num_partitions=4).to_pandas().sort_values(["k", "id"])
    # a: three v=9 rows win, tiebreak id asc -> ids 2,5,9; b: both rows
    assert out[out.k == "a"]["id"].tolist() == [2, 5, 9]
    assert out[out.k == "b"]["id"].tolist() == [10, 11]


def test_dataset_split_deterministic_and_stable(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import dataset_split

    t = pa.table({"id": pa.array(list(range(2000)), type=pa.int64())})
    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    a = dataset_split(rd.from_arrow(t), "id", fr).to_pandas()
    b = dataset_split(rd.from_arrow(t).repartition(7), "id", fr).to_pandas()
    m = a.merge(b, on="id", suffixes=("_a", "_b"))
    assert (m.split_a == m.split_b).all()  # partitioning-independent
    frac = a.split.value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.05
    # growing the dataset never reassigns an existing id
    big = pa.table({"id": pa.array(list(range(4000)), type=pa.int64())})
    c = dataset_split(rd.from_arrow(big), "id", fr).to_pandas()
    m2 = a.merge(c, on="id", suffixes=("_a", "_c"))
    assert (m2.split_a == m2.split_c).all()


def test_tumbling_window_null_event_type():
    import pyarrow as pa

    from versatiles_rs_ray.stages.window import tumbling_partials

    t = pa.table({
        "ts": pa.array([1_000_000, 2_000_000, 3_600_000_000 + 5],
                       type=pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array(["click", None, None]),
        "value": pa.array([1.0, 2.0, 3.0]),
    })
    out = tumbling_partials(t).to_pandas()
    # nulls group together per window and stay null (SQL GROUP BY NULL)
    nulls = out[out.event_type.isna()].sort_values("window_start")
    assert nulls["n_events"].tolist() == [1, 1]
    assert out[out.event_type == "click"]["n_events"].tolist() == [1]


def test_range_join_null_value_counts_but_adds_zero(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.join import range_join_agg

    iv = rd.from_arrow(pa.table({
        "iid": pa.array([1], type=pa.int64()),
        "k": pa.array([5], type=pa.int64()),
        "lo": pa.array([0], type=pa.int64()),
        "hi": pa.array([100], type=pa.int64()),
    }))
    pts = rd.from_arrow(pa.table({
        "k": pa.array([5, 5], type=pa.int64()),
        "at": pa.array([10, 20], type=pa.int64()),
        "v": pa.array([1.5, None], type=pa.float64()),
    }))
    out = range_join_agg(iv, pts, by="k", lo="lo", hi="hi", at="at",
                         value="v", num_partitions=2).to_pandas()
    assert out["n_points"].tolist() == [2]      # null-valued point counts
    assert out["sum_cents"].tolist() == [150]   # but adds zero cents


def test_quantile_by_key_exact_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import quantile_by_key

    rng = np.random.default_rng(5)
    keys = rng.choice(["a", "b", "c"], size=5000).tolist()
    vals = rng.integers(0, 40, size=5000)  # heavy duplication: counting path
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals, type=pa.int64())})
    got = quantile_by_key(rd.from_arrow(t).repartition(7), "k", "v",
                          qs=(0.25, 0.5, 0.9), num_partitions=4
                          ).to_pandas().sort_values("k").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT k, quantile_disc(v, 0.25) AS q25, quantile_disc(v, 0.5) AS q50,"
        " quantile_disc(v, 0.9) AS q90 FROM t GROUP BY k ORDER BY k").df()
    assert got["k"].tolist() == want["k"].tolist()
    for c in ("q25", "q50", "q90"):
        assert got[c].tolist() == want[c].tolist(), c


def test_distinct_by_key_and_hll(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import approx_distinct_by_key, distinct_by_key

    rng = np.random.default_rng(9)
    keys = rng.choice(["a", "b"], size=4000).tolist()
    vals = [f"v{int(i)}" for i in rng.integers(0, 300, size=4000)]
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    got = distinct_by_key(rd.from_arrow(t).repartition(5), "k", "v",
                          num_partitions=4).to_pandas().sort_values("k")
    import pandas as pd

    df = pd.DataFrame({"k": keys, "v": vals})
    want = df.groupby("k")["v"].nunique()
    assert got.set_index("k")["n_distinct"].to_dict() == want.to_dict()

    # HLL within 5% of the exact distinct count at p=12 (sigma ~1.6%)
    n_true = 20_000
    big = pa.table({"k": ["all"] * n_true,
                    "v": pa.array([f"item-{i}" for i in range(n_true)])})
    est = approx_distinct_by_key(rd.from_arrow(big).repartition(6), "k", "v", p=12)
    assert set(est) == {"all"} and abs(est["all"] - n_true) / n_true < 0.05, est
    # small-range linear counting: tiny cardinality stays near-exact
    small = pa.table({"k": ["all"] * 111, "v": pa.array([f"s{i}" for i in range(37)] * 3)})
    est2 = approx_distinct_by_key(rd.from_arrow(small), "k", "v", p=12)["all"]
    assert abs(est2 - 37) < 2, est2


def test_distinct_quantile_null_values_match_duckdb(ray_session):
    """NULL values must be ignored (DuckDB count(DISTINCT)/quantile_disc
    semantics), not hashed as empty strings / read as garbage."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import distinct_by_key, quantile_by_key

    t = pa.table({
        "k": pa.array(["a", "a", "a", "b", "b", "b", "b"]),
        "s": pa.array(["x", None, "y", None, None, "z", "z"]),
        "v": pa.array([1, None, 5, None, None, 3, 9], type=pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", t)

    got = distinct_by_key(rd.from_arrow(t).repartition(3), "k", "s",
                          num_partitions=2).to_pandas().sort_values("k")
    want = con.execute(
        "SELECT k, count(DISTINCT s) AS n FROM t GROUP BY k ORDER BY k").df()
    assert got["n_distinct"].tolist() == want["n"].tolist()

    gq = quantile_by_key(rd.from_arrow(t).repartition(3), "k", "v",
                         qs=(0.5,), num_partitions=2
                         ).to_pandas().sort_values("k")
    wq = con.execute(
        "SELECT k, quantile_disc(v, 0.5) AS q50 FROM t GROUP BY k ORDER BY k").df()
    assert gq["q50"].tolist() == wq["q50"].tolist()


def test_approx_distinct_by_key_bound(ray_session):
    """Per-key HLL estimates stay inside the tolerance the lang_distinct
    driver row asserts (approx_ok column)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import approx_distinct_by_key

    rng = np.random.default_rng(11)
    # per-key true cardinalities spanning linear-counting and HLL regimes
    rows_k, rows_v = [], []
    for key, card in (("small", 40), ("mid", 2_000), ("big", 15_000)):
        ids = rng.integers(0, card * 3, size=card * 4) % card
        rows_k += [key] * len(ids)
        rows_v += [f"{key}-{int(i)}" for i in ids]
    t = pa.table({"k": pa.array(rows_k), "v": pa.array(rows_v)})
    est = approx_distinct_by_key(rd.from_arrow(t).repartition(6), "k", "v", p=12)
    truth = pd.DataFrame({"k": rows_k, "v": rows_v}).groupby("k")["v"].nunique()
    for key, n_true in truth.items():
        assert abs(est[key] / n_true - 1.0) <= 0.05, (key, est[key], n_true)
    # nulls are dropped, not counted as a distinct value
    tn = pa.table({"k": pa.array(["a"] * 4), "v": pa.array(["p", None, "q", None])})
    est_n = approx_distinct_by_key(rd.from_arrow(tn), "k", "v", p=12)
    assert round(est_n["a"]) == 2


def test_stratified_sample_rates_and_determinism(ray_session, sf_dir):
    from versatiles_rs_ray.sources import docs as D
    from versatiles_rs_ray.stages.curate import stratified_sample

    docs = D.read_docs(sf_dir, columns=["doc_id", "doc_num", "lang"])
    fr = {"en": 0.1, "de": 0.9}
    out = stratified_sample(docs, "doc_num", "lang", fr,
                            default=0.5).to_pandas()
    base = D.read_docs(sf_dir, columns=["doc_num", "lang"]).to_pandas()
    kept = out.groupby("lang").size()
    total = base.groupby("lang").size()
    # per-stratum rates land near their fractions
    assert kept.get("en", 0) / total["en"] < 0.25
    assert kept.get("de", 0) / total["de"] > 0.7
    for lang in total.index.difference(["en", "de"]):
        r = kept.get(lang, 0) / total[lang]
        assert 0.3 < r < 0.7, (lang, r)
    # deterministic: same ids survive on a re-run
    again = stratified_sample(docs, "doc_num", "lang", fr,
                              default=0.5).to_pandas()
    assert sorted(out["doc_num"]) == sorted(again["doc_num"])
    # a stratum with fraction 0 vanishes; empty default drops the rest
    none = stratified_sample(docs, "doc_num", "lang", {"en": 1.0},
                             default=0.0).to_pandas()
    assert set(none["lang"]) == {"en"} and len(none) == total["en"]


def _roll_events_ds(uid, ts_us, eid, val, parts=None):
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({
        "event_id": pa.array(eid, type=pa.int64()),
        "ts": pa.array(ts_us, type=pa.timestamp("us")),
        "user_id": pa.array(uid, type=pa.int64()),
        "value": pa.array(val, type=pa.float64()),
    })
    ds = rd.from_arrow(t)
    return ds.repartition(parts) if parts else ds


def _roll_ref(uid, ts_us, eid, val, k):
    """Scalar rolling reference: per user, (ts, event_id) order."""
    import numpy as np

    rows = sorted(range(len(uid)), key=lambda i: (uid[i], ts_us[i], eid[i]))
    out = {}
    hist = {}
    for i in rows:
        h = hist.setdefault(uid[i], [])
        h.append(int(np.floor(val[i] * 1e6)))
        win = h[-k:]
        out[eid[i]] = (sum(win), len(win))
    return out


def test_rolling_window_matches_scalar(ray_session):
    import numpy as np

    from versatiles_rs_ray.stages.window import rolling_window

    rng = np.random.default_rng(13)
    n = 400
    uid = rng.integers(0, 12, n).astype(np.int64)
    ts = rng.integers(0, 50, n).astype(np.int64) * 1_000_000  # many ties
    eid = rng.permutation(n).astype(np.int64)
    val = rng.uniform(-5, 5, n)
    for k in (1, 3, 7):
        got = rolling_window(_roll_events_ds(uid, ts, eid, val),
                             k=k).to_pandas()
        want = _roll_ref(uid, ts, eid, val, k)
        assert len(got) == n
        for _, r in got.iterrows():
            assert (r["roll_sum_micro"], r["roll_n"]) == want[r["event_id"]]


def test_rolling_window_partition_invariance(ray_session):
    import numpy as np

    from versatiles_rs_ray.stages.window import rolling_window

    rng = np.random.default_rng(17)
    n = 300
    uid = rng.integers(0, 9, n).astype(np.int64)
    ts = rng.integers(0, 40, n).astype(np.int64) * 1_000_000
    eid = np.arange(n, dtype=np.int64)
    val = rng.uniform(0, 10, n)
    a = rolling_window(_roll_events_ds(uid, ts, eid, val),
                       k=4).to_pandas().sort_values("event_id")
    b = rolling_window(_roll_events_ds(uid, ts, eid, val, parts=11), k=4,
                       num_partitions=5).to_pandas().sort_values("event_id")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


def test_rolling_window_validation(ray_session):
    import pytest as _pt

    from versatiles_rs_ray.stages.window import rolling_window

    with _pt.raises(ValueError):
        rolling_window(None, k=0)


def test_retention_cohorts_matches_scalar(ray_session):
    import numpy as np

    from versatiles_rs_ray.stages.window import retention_cohorts

    rng = np.random.default_rng(23)
    n = 500
    uid = rng.integers(0, 20, n).astype(np.int64)
    ts = rng.integers(0, 40 * 86400, n).astype(np.int64) * 1_000_000
    got = retention_cohorts(
        _roll_events_ds(uid, ts, np.arange(n, dtype=np.int64),
                        np.zeros(n)), week_s=86400).to_pandas()
    # scalar reference
    weeks = {}
    for u, t in zip(uid, ts):
        weeks.setdefault(u, set()).add(t // (86400 * 1_000_000))
    want = {}
    for u, ws in weeks.items():
        c = min(ws)
        for w in ws:
            want[(c, w - c)] = want.get((c, w - c), 0) + 1
    got_map = {(r["cohort_week"], r["week_offset"]): r["n_users"]
               for _, r in got.iterrows()}
    assert got_map == want


def test_retention_cohorts_partition_invariance(ray_session):
    import numpy as np

    from versatiles_rs_ray.stages.window import retention_cohorts

    rng = np.random.default_rng(29)
    n = 300
    uid = rng.integers(0, 15, n).astype(np.int64)
    ts = rng.integers(0, 20 * 86400, n).astype(np.int64) * 1_000_000
    a = retention_cohorts(
        _roll_events_ds(uid, ts, np.arange(n, dtype=np.int64),
                        np.zeros(n)), week_s=86400) \
        .to_pandas().sort_values(["cohort_week", "week_offset"])
    b = retention_cohorts(
        _roll_events_ds(uid, ts, np.arange(n, dtype=np.int64),
                        np.zeros(n), parts=9), week_s=86400,
        num_partitions=5) \
        .to_pandas().sort_values(["cohort_week", "week_offset"])
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


def test_retention_cohorts_validation(ray_session):
    import pytest as _pt

    from versatiles_rs_ray.stages.window import retention_cohorts

    with _pt.raises(ValueError):
        retention_cohorts(None, week_s=0)


def test_diff_tiles_statuses(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.stack import diff_tiles

    def tiles(rows):
        return rd.from_arrow(pa.table({
            "z": pa.array([r[0] for r in rows], type=pa.int64()),
            "x": pa.array([r[1] for r in rows], type=pa.int64()),
            "y": pa.array([r[2] for r in rows], type=pa.int64()),
            "payload": pa.array([r[3] for r in rows], type=pa.binary()),
        }))

    a = tiles([(1, 0, 0, b"AA"), (1, 1, 0, b"BB"), (1, 0, 1, b"CC")])
    b = tiles([(1, 0, 0, b"AA"), (1, 1, 0, b"XX"), (1, 1, 1, b"DD")])
    got = {(r["z"], r["x"], r["y"]): r["status"]
           for _, r in diff_tiles(a, b).to_pandas().iterrows()}
    assert got == {(1, 0, 0): "same", (1, 1, 0): "changed",
                   (1, 0, 1): "only_a", (1, 1, 1): "only_b"}


def test_diff_tiles_duplicate_raises(ray_session):
    import pyarrow as pa
    import ray.data as rd
    import pytest

    from versatiles_rs_ray.stages.stack import diff_tiles

    dup = rd.from_arrow(pa.table({
        "z": pa.array([1, 1], type=pa.int64()),
        "x": pa.array([0, 0], type=pa.int64()),
        "y": pa.array([0, 0], type=pa.int64()),
        "payload": pa.array([b"A", b"B"], type=pa.binary()),
    }))
    ok = rd.from_arrow(pa.table({
        "z": pa.array([1], type=pa.int64()),
        "x": pa.array([1], type=pa.int64()),
        "y": pa.array([1], type=pa.int64()),
        "payload": pa.array([b"C"], type=pa.binary()),
    }))
    with pytest.raises(Exception, match="duplicate tile"):
        diff_tiles(dup, ok).to_pandas()


def test_event_transitions_matches_scalar(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.window import event_transitions

    rng = np.random.default_rng(31)
    n = 400
    uid = rng.integers(0, 12, n).astype(np.int64)
    ts = rng.integers(0, 30, n).astype(np.int64) * 1_000_000  # ties
    eid = rng.permutation(n).astype(np.int64)
    types = rng.choice(["a", "b", "c", "d"], n)
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(eid, type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array(uid, type=pa.int64()),
        "event_type": pa.array(types),
    })).repartition(7)
    got = {(r["from_type"], r["to_type"]): r["n"]
           for _, r in event_transitions(ds, num_partitions=5)
           .to_pandas().iterrows()}
    want = {}
    for u in set(uid):
        rows = sorted([i for i in range(n) if uid[i] == u],
                      key=lambda i: (ts[i], eid[i]))
        for i, j in zip(rows, rows[1:]):
            k = (types[i], types[j])
            want[k] = want.get(k, 0) + 1
    assert got == want


def test_event_transitions_null_event_type(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.window import event_transitions

    # user 1: a -> NULL -> b  => transitions (a, NULL to: dropped),
    # (NULL, b) kept with null from_type — the lead()/WHERE nxt IS NOT
    # NULL oracle semantics
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3], type=pa.int64()),
        "ts": pa.array([10, 20, 30], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1], type=pa.int64()),
        "event_type": pa.array(["a", None, "b"], type=pa.string()),
    }))
    got = event_transitions(ds).to_pandas()
    rows = {(r["from_type"], r["to_type"]): r["n"]
            for _, r in got.iterrows()}
    assert rows == {(None, "b"): 1}


def test_value_histogram_and_confusion_queries(ray_session):
    """Closing composition queries vs DuckDB on sf0.001 via the shared
    driver-gate canonicalizer."""
    import sys

    sys.path.insert(0, "tools")
    import duckdb
    import pandas as pd
    from selfcheck import canon

    from versatiles_rs_ray import queries as Q

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("events", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    for name in ("value_histogram", "confusion_matrix"):
        mine = Q.QUERIES[name](sf).to_pandas()
        want = con.execute(Q.ORACLES[name]).fetchdf()
        assert len(mine) == len(want) and len(mine) > 0, name
        pd.testing.assert_frame_equal(canon(mine), canon(want))


def test_doc_ranks_matches_rank_window(ray_session):
    import sys

    sys.path.insert(0, "tools")
    import duckdb
    import pandas as pd
    from selfcheck import canon

    from versatiles_rs_ray import queries as Q

    sf = "/root/testdata/sf0.001"
    mine = Q.QUERIES["doc_ranks"](sf).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(Q.ORACLES["doc_ranks"]).fetchdf()
    pd.testing.assert_frame_equal(canon(mine), canon(want))
    # competition-rank semantics: rank 1 exists, ties share ranks
    assert mine["rnk"].min() == 1 and mine["rnk"].max() <= len(mine)


def test_fused_pyramid_empty_specs(ray_session):
    """No specs: the spec-fed pyramid returns 0 rows without calling
    load_fn, both through the driver tail (z_min below split_level,
    the aux_fn path) and without it (z_min at split_level)."""
    from versatiles_rs_ray.stages.pyramid import aggregate_pyramid_spatial_fused

    def load(spec):
        raise AssertionError("no spec to load")

    assert aggregate_pyramid_spatial_fused([], load, 8, 0).count() == 0
    assert aggregate_pyramid_spatial_fused([], load, 8, 6, split_level=6).count() == 0
