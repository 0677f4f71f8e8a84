"""Property-based tests (hypothesis): invariants the reference pins
with inline goldens (SURVEY.md §5.1) hold over the whole input space —
curve round-trips, codec idempotence, compression losslessness.
No Ray involvement: pure kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from versatiles_rs_ray.core import compression, coords, mvt

# first-call numba-free but import/JIT-ish warmup can trip the default
# 200 ms deadline (observed flake); correctness, not latency, is under test
settings.register_profile("repo", deadline=None)
settings.load_profile("repo")

# z capped at 28: hilbert/morton keys stay within int64 (the engine's
# documented id-space contract, matching pmtiles tile-id limits)
ZXY = st.integers(min_value=0, max_value=28).flatmap(
    lambda z: st.tuples(
        st.just(z),
        st.integers(min_value=0, max_value=(1 << z) - 1),
        st.integers(min_value=0, max_value=(1 << z) - 1),
    )
)


@given(ZXY)
def test_hilbert_roundtrip(t):
    z, x, y = t
    idx = coords.hilbert_index(z, x, y)
    zz, xx, yy = coords.hilbert_to_coord(int(np.asarray(idx).item()))
    assert (zz, xx, yy) == (z, x, y)


@given(ZXY)
def test_hilbert_is_within_level_range(t):
    """Level z occupies exactly [base, base + 4^z): the pmtiles
    directory layout's contiguity contract."""
    z, x, y = t
    base = sum(4**i for i in range(z))
    idx = int(np.asarray(coords.hilbert_index(z, x, y)).item())
    assert base <= idx < base + 4**z


@given(st.integers(min_value=0, max_value=(1 << 31) - 1),
       st.integers(min_value=0, max_value=(1 << 31) - 1))
def test_morton_roundtrip(x, y):
    key = coords.morton_key(np.int64(x), np.int64(y))
    xx, yy = coords.morton_to_xy(np.asarray(key))
    assert (int(np.asarray(xx).item()), int(np.asarray(yy).item())) == (x, y)


@given(ZXY)
def test_quadkey_decodes_by_digit(t):
    """Each quadkey digit holds one (x, y) bit pair, root-first."""
    z, x, y = t
    qk = coords.quadkey(z, x, y)
    qk = qk if isinstance(qk, str) else str(np.asarray(qk).item())
    assert len(qk) == z
    rx = ry = 0
    for ch in qk:
        d = int(ch)
        rx = (rx << 1) | (d & 1)
        ry = (ry << 1) | (d >> 1)
    assert (rx, ry) == (x, y)


@given(ZXY)
def test_geo_tile_roundtrip(t):
    """A tile's own center geo-locates back to the same tile."""
    z, x, y = t
    lon, lat = coords.tile_to_lonlat(z, x + 0.5, y + 0.5)
    xx, yy = coords.lonlat_to_tile(float(np.asarray(lon)), float(np.asarray(lat)), z)
    assert (int(np.asarray(xx).item()), int(np.asarray(yy).item())) == (x, y)


@given(st.binary(max_size=4096),
       st.sampled_from([c for c in compression.AVAILABLE if c != "raw"]))
@settings(max_examples=40)
def test_compression_roundtrip(data, codec):
    assert compression._decompress_one(
        compression._compress_one(data, codec), codec) == data


_PROPS = st.dictionaries(
    st.text(st.characters(codec="ascii", min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=6),
    st.one_of(
        st.booleans(),
        st.integers(min_value=-(2**60), max_value=2**60),
        st.text(max_size=12),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    max_size=4,
)
_POINT = st.tuples(st.integers(0, 4095), st.integers(0, 4095))
_FEATURE = st.fixed_dictionaries(
    {
        "id": st.integers(min_value=0, max_value=2**40),
        "type": st.just(mvt.GEOM_POINT),
        "geometry": st.lists(st.lists(_POINT, min_size=1, max_size=1),
                             min_size=1, max_size=3),
        "properties": _PROPS,
    }
)
_TILE = st.fixed_dictionaries(
    {
        "layers": st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.text(st.characters(codec="ascii", min_codepoint=97,
                                                  max_codepoint=122),
                                    min_size=1, max_size=8),
                    "version": st.just(2),
                    "extent": st.just(4096),
                    "features": st.lists(_FEATURE, min_size=1, max_size=3),
                }
            ),
            min_size=1,
            max_size=2,
        )
    }
)


@given(_TILE)
@settings(max_examples=40)
def test_mvt_decode_encode_idempotent(tile):
    """encode -> decode -> encode is byte-stable (the wire-variant
    preservation contract, core/mvt.py _encode_value)."""
    wire1 = mvt.encode_tile(tile)
    decoded = mvt.decode_tile(wire1)
    wire2 = mvt.encode_tile(decoded)
    assert wire1 == wire2
    again = mvt.decode_tile(wire2)
    for l1, l2 in zip(decoded["layers"], again["layers"]):
        assert l1["name"] == l2["name"]
        assert len(l1["features"]) == len(l2["features"])


# ---- threshold-masked streaming top-k (stages/join, stages/embed) ----

@given(st.data())
@settings(max_examples=40)
def test_knn_partial_matches_bruteforce(data):
    """The threshold-mask + compaction kernel must equal brute force
    exactly, including (distance, id) tie-breaks, for any input — low
    coordinate cardinality forces heavy distance ties."""
    import pyarrow as pa

    from versatiles_rs_ray.stages.join import KnnPartial

    n = data.draw(st.integers(min_value=1, max_value=300))
    qn = data.draw(st.integers(min_value=1, max_value=8))
    qn = min(qn, n)
    k = data.draw(st.integers(min_value=1, max_value=6))
    card = data.draw(st.sampled_from([2, 3, 100]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    # tiny CHUNK/POOL exercise the compaction paths on small inputs
    c_id = rng.permutation(n).astype(np.int64)
    c_lon = rng.integers(0, card, n).astype(np.float64)
    c_lat = rng.integers(0, card, n).astype(np.float64)
    q_ids = rng.choice(n, qn, replace=False).astype(np.int64)
    q_lon = rng.integers(0, card, qn).astype(np.float64)
    q_lat = rng.integers(0, card, qn).astype(np.float64)
    kp = KnnPartial(q_ids, q_lon, q_lat, k=k)
    kp.CHUNK = data.draw(st.sampled_from([3, 7, 64]))
    kp.POOL_LIMIT = data.draw(st.sampled_from([4, 50, 1 << 16]))
    out = kp(pa.table({"doc_num": pa.array(c_id), "lon": pa.array(c_lon),
                       "lat": pa.array(c_lat)}))
    got = sorted(zip(out["q_doc"].to_pylist(), out["d2"].to_pylist(),
                     out["n_doc"].to_pylist()))
    want = []
    for qi in range(qn):
        d2 = (q_lon[qi] - c_lon) ** 2 + (q_lat[qi] - c_lat) ** 2
        d2 = np.where(c_id == q_ids[qi], np.inf, d2)
        order = np.lexsort((c_id, d2))
        for j in order[:k]:
            if np.isfinite(d2[j]):
                want.append((int(q_ids[qi]), float(d2[j]), int(c_id[j])))
    assert got == sorted(want)


@given(st.data())
@settings(max_examples=25)
def test_geotiff_roundtrip_fuzz(data):
    """write_tiff -> read_geotiff is identity for any 8-bit array shape,
    channel count, layout, and codec combination."""
    from oracles import write_tiff
    from versatiles_rs_ray.sources.geotiff import read_geotiff

    h = data.draw(st.integers(min_value=1, max_value=90))
    w = data.draw(st.integers(min_value=1, max_value=90))
    c = data.draw(st.sampled_from([1, 3, 4]))
    tiled = data.draw(st.booleans())
    compression = data.draw(st.sampled_from([1, 8]))
    predictor = 2 if compression == 8 and data.draw(st.booleans()) else 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    arr = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
    gt = (-180.0, 360.0 / w, 0.0, 90.0, 0.0, -180.0 / h)
    blob = write_tiff(arr, geotransform=gt, epsg=4326, tiled=tiled,
                      compression=compression, predictor=predictor)
    g = read_geotiff(blob)
    assert np.array_equal(g.array, arr)
    assert np.allclose(g.geotransform, gt) and g.epsg == 4326


@given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3),
       st.integers(0, 7))
@settings(max_examples=20)
def test_average_resample_constant_image(seed, z, xy):
    """GDAL-average warp of a constant image is constant wherever
    covered (box means of a constant are the constant)."""
    from versatiles_rs_ray.stages.reproject import SRSReprojector

    rng = np.random.default_rng(seed)
    val = int(rng.integers(0, 256))
    src = np.full((64, 128, 3), val, np.uint8)
    gt = (-180.0, 360.0 / 128, 0.0, 90.0, 0.0, -180.0 / 64)
    rp = SRSReprojector(src, gt, 4326, tile_size=8, resampling="average")
    n = 1 << z
    tile = rp._reproject_one(z, min(xy, n - 1), min(xy, n - 1))
    covered = tile[..., 3] == 255
    assert covered.any()
    assert (tile[covered][:, :3] == val).all()


# ---- as-of / range join combine kernels vs pandas (independent impl) ----

_ASOF_ROWS = st.lists(
    st.tuples(st.integers(0, 3),            # by key
              st.integers(-50, 50)),        # on value
    min_size=0, max_size=40)


@given(left=_ASOF_ROWS, right=_ASOF_ROWS,
       direction=st.sampled_from(["backward", "forward"]))
def test_asof_combine_matches_pandas_merge_asof(left, right, direction):
    import pandas as pd
    import pyarrow as pa

    from versatiles_rs_ray.stages.join import _asof_combine

    # contract: right side unique per (by, on)
    right = sorted(set(right))
    n_l = len(left)
    ltbl = pa.table({
        "lid": pa.array(range(n_l), type=pa.int64()),
        "lk": pa.array([b for b, _ in left], type=pa.int64()),
        "lt": pa.array([t for _, t in left], type=pa.int64()),
    })
    rtbl = pa.table({
        "lk": pa.array([b for b, _ in right], type=pa.int64()),
        "rt": pa.array([t for _, t in right], type=pa.int64()),
        "rv": pa.array([t * 10 + b for b, t in right], type=pa.int64()),
    })
    empties = (ltbl.slice(0, 0), rtbl.slice(0, 0))
    got = _asof_combine(ltbl, rtbl, empties, "lk", "lt", "rt", direction
                        ).to_pandas().sort_values("lid").reset_index(drop=True)
    assert list(got.columns) == ["lid", "lk", "lt", "rv"]
    import numpy as np

    ldf = pd.DataFrame({"lk": np.array([b for b, _ in left], np.int64),
                        "lt": np.array([t for _, t in left], np.int64),
                        "lid": np.arange(n_l)}).sort_values("lt", kind="stable")
    rdf = pd.DataFrame({"lk": np.array([b for b, _ in right], np.int64),
                        "rt": np.array([t for _, t in right], np.int64),
                        "rv": np.array([t * 10 + b for b, t in right], np.int64)}
                       ).sort_values("rt", kind="stable")
    want = pd.merge_asof(ldf, rdf, left_on="lt", right_on="rt", by="lk",
                         direction=direction, allow_exact_matches=True
                         ).sort_values("lid").reset_index(drop=True)
    g = got["rv"].astype(object).where(got["rv"].notna(), None).tolist()
    w = [None if pd.isna(v) else int(v) for v in want["rv"]]
    assert g == w


_RJ_INTERVALS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-30, 30), st.integers(-5, 40)),
    min_size=0, max_size=20)
_RJ_POINTS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-40, 40), st.integers(-500, 500)),
    min_size=0, max_size=40)


@given(intervals=_RJ_INTERVALS, points=_RJ_POINTS)
def test_rj_combine_matches_bruteforce(intervals, points):
    import pyarrow as pa

    from versatiles_rs_ray.stages.join import _rj_combine

    itbl = pa.table({
        "iid": pa.array(range(len(intervals)), type=pa.int64()),
        "k": pa.array([k for k, _, _ in intervals], type=pa.int64()),
        "lo": pa.array([lo for _, lo, _ in intervals], type=pa.int64()),
        "hi": pa.array([lo + w for _, lo, w in intervals], type=pa.int64()),
    })
    # float values; the brute force applies the same floor(value * 100)
    ptbl = pa.table({
        "k": pa.array([k for k, _, _ in points], type=pa.int64()),
        "at": pa.array([at for _, at, _ in points], type=pa.int64()),
        "v": pa.array([c / 100 for _, _, c in points], type=pa.float64()),
    })
    empties = (itbl.slice(0, 0), ptbl.slice(0, 0))
    got = _rj_combine(itbl, ptbl, empties, "k", "lo", "hi", "at", "v", "n", "s") \
        .to_pandas().sort_values("iid").reset_index(drop=True)
    for idx, (k, lo, w) in enumerate(intervals):
        hi = lo + w
        hits = [(int(np.floor(c / 100 * 100.0)),) for pk, at, c in points
                if pk == k and lo <= at <= hi]
        assert got.loc[idx, "n"] == len(hits), (idx, k, lo, hi)
        assert got.loc[idx, "s"] == sum(c for (c,) in hits)


# ---- hash_join partition combine vs pandas merge --------------------------

_HJ_FRAME = st.lists(
    st.tuples(st.integers(0, 12), st.integers(-5, 5)), max_size=40)


@given(_HJ_FRAME, _HJ_FRAME, st.sampled_from(
    ["inner", "left outer", "left semi", "left anti"]))
def test_hj_combine_matches_pandas(left, right, join_type):
    import pandas as pd
    import pyarrow as pa

    from versatiles_rs_ray.stages.join import _hj_combine

    ltbl = pa.table({"k": pa.array([k for k, _ in left], type=pa.int64()),
                     "lv": pa.array([v for _, v in left], type=pa.int64())})
    rtbl = pa.table({"k": pa.array([k for k, _ in right], type=pa.int64()),
                     "rv": pa.array([v for _, v in right], type=pa.int64())})
    got = _hj_combine(ltbl, rtbl, (ltbl.slice(0, 0), rtbl.slice(0, 0)), "k",
                      join_type).to_pandas()
    ldf = pd.DataFrame({"k": [k for k, _ in left], "lv": [v for _, v in left]})
    rdf = pd.DataFrame({"k": [k for k, _ in right], "rv": [v for _, v in right]})
    if join_type == "inner":
        want = ldf.merge(rdf, on="k")
    elif join_type == "left outer":
        want = ldf.merge(rdf, on="k", how="left")
    elif join_type == "left semi":
        want = ldf[ldf["k"].isin(rdf["k"])]
    else:
        want = ldf[~ldf["k"].isin(rdf["k"])]
    cols = list(want.columns)
    s_got = got[cols].sort_values(cols, na_position="last").reset_index(drop=True)
    s_want = want.sort_values(cols, na_position="last").reset_index(drop=True)
    assert s_got.astype("float64").equals(s_want.astype("float64"))


# ---- duplicate_spans kernels vs brute force --------------------------------


@given(st.lists(st.text(alphabet="abc", max_size=30), min_size=1, max_size=8),
       st.integers(2, 5))
def test_duplicate_span_kernels_match_bruteforce(texts, k):
    import pyarrow as pa

    from versatiles_rs_ray.stages.dedup import (_dup_hash_hits,
                                                _merge_islands,
                                                _span_hash_rows)

    batch = pa.table({
        "doc_num": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    rows = _span_hash_rows(batch, k=k, stride=1, id_col="doc_num",
                           text_col="text")
    spans = _merge_islands(_dup_hash_hits(rows), k=k, stride=1).to_pandas()
    got = set(map(tuple, spans.itertuples(index=False)))

    # brute force: positions whose k-substring appears in another doc,
    # merged into maximal runs
    grams = {}
    for d, t in enumerate(texts):
        for p in range(len(t) - k + 1):
            grams.setdefault(t[p:p + k], set()).add(d)
    want = set()
    for d, t in enumerate(texts):
        hits = [p for p in range(len(t) - k + 1)
                if len(grams[t[p:p + k]]) >= 2]
        run = []
        for p in hits:
            if run and p - run[-1] == 1:
                run.append(p)
            else:
                if run:
                    want.add((d, run[0], run[-1] + k))
                run = [p]
        if run:
            want.add((d, run[0], run[-1] + k))
    assert got == want


# ---- anti-join filter: keeps exactly the ids not probed ---------------------


# wide ids, plus a narrow range so ids repeat within and across sides
IDS = st.integers(-2**62, 2**62) | st.integers(-3, 3)


@given(st.lists(IDS, max_size=200), st.lists(IDS, max_size=50),
       st.lists(st.integers(0, 199), max_size=20))
def test_bloom_never_false_negative(members, probes, picks):
    """_aj_combine keeps exactly the rows whose id is not among the
    probes, in order, duplicates included."""
    import pyarrow as pa

    from versatiles_rs_ray.stages.join import _aj_combine

    if members:  # some probes hit rows
        probes = probes + [members[i % len(members)] for i in picks]
    rows = pa.table({"id": pa.array(members, type=pa.int64()),
                     "pos": pa.array(range(len(members)), type=pa.int64())})
    drop = pa.table({"id": pa.array(probes, type=pa.int64())})
    out = _aj_combine(rows, drop, rows.slice(0, 0), "id")
    gone = set(probes)
    want = [(m, i) for i, m in enumerate(members) if m not in gone]
    assert list(zip(out["id"].to_pylist(), out["pos"].to_pylist())) == want
