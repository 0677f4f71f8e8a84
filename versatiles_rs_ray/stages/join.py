"""Spatial joins: point-in-polygon (rect/tile sets) and kNN.

New surface relative to the reference (SURVEY.md §2.7): the reference
tests containment only at tile granularity
(`TileBBoxPyramid::contains_coord`, tile_bbox_pyramid.rs:171-177); the
graft generalizes to document-point joins.

Design for 100 TB:
- the polygon/query side is SMALL and broadcast once per actor
  (`fn_constructor_kwargs`), the doc side streams through
  `map_batches` — no shuffle at all for PIP and broadcast-kNN.
- edge semantics are half-open in mercator-fraction space
  ([mx0, mx1) x [my0, my1)) so every point matches exactly one cell of
  a tiling — consistent with tile assignment (`floor(mx * 2^z)`).
- the large x large shapes (grouped kNN, bucketed rect and polygon
  joins, as-of, range, anti and hash joins) co-group their inputs in
  ONE `hash_exchange` call that hands each partition's combine one
  table per input; no row carries a side tag or the other input's
  columns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core import coords
from . import topk as topk_kernel
from .assign import pack_tkey


class TileSetPIPJoin:
    """Semi-join docs against a set of tile polygons at one zoom.

    Point-in-polygon where polygons are tile footprints (the tile
    outline case, versatiles_geometry/src/tile_outline/mod.rs:33-44):
    assignment at z + membership in the broadcast tkey set. Exact and
    O(rows), no shuffle; the tile set is typically a pyramid level.
    """

    def __init__(self, zoom: int, tile_xy: list):
        self.zoom = zoom
        xs = np.asarray([t[0] for t in tile_xy], dtype=np.int64)
        ys = np.asarray([t[1] for t in tile_xy], dtype=np.int64)
        self.tkeys = np.unique(pack_tkey(np.full(len(xs), zoom), xs, ys))

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch["lon"], dtype=np.float64)
        lat = np.asarray(batch["lat"], dtype=np.float64)
        x, y = coords.lonlat_to_tile(lon, lat, self.zoom)
        tkey = pack_tkey(np.full(len(x), self.zoom, dtype=np.int64), x, y)
        mask = np.isin(tkey, self.tkeys)
        out = batch.filter(pa.array(mask))
        out = out.append_column("z", pa.array(np.full(int(mask.sum()), self.zoom, dtype=np.int64)))
        out = out.append_column("x", pa.array(x[mask], type=pa.int64()))
        return out.append_column("y", pa.array(y[mask], type=pa.int64()))


class RectJoin:
    """Join docs to arbitrary (possibly overlapping) mercator rects.

    Rects: (rect_id, mx0, my0, mx1, my1) half-open in mercator fraction
    space. Vectorized candidate test per rect — right-sized for a
    broadcast small side (<= a few thousand rects). For larger rect
    catalogs use ``rect_join_bucketed`` below (grid-bucketed exchange,
    the STRtree-style scale path; pair-identical output). Emits one
    output row per (doc, rect) pair.
    """

    INDEX_THRESHOLD = 64

    def __init__(self, rects: list, use_index: bool | None = None):
        r = np.asarray([list(t[1:]) for t in rects], dtype=np.float64)
        self.rect_ids = np.asarray([t[0] for t in rects], dtype=np.int64)
        self.mx0, self.my0, self.mx1, self.my1 = r[:, 0], r[:, 1], r[:, 2], r[:, 3]
        if use_index is None:
            use_index = len(self.rect_ids) >= self.INDEX_THRESHOLD
        self.tree = None
        if use_index and len(self.rect_ids):
            from ..core.strtree import STRtree

            # inclusive tree candidates ⊇ the half-open rect test;
            # the exact half-open re-check below restores semantics
            self.tree = STRtree(
                np.column_stack([self.mx0, self.my0, self.mx1, self.my1]),
                leaf_cap=16)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch["lon"], dtype=np.float64)
        lat = np.asarray(batch["lat"], dtype=np.float64)
        mx, my = coords.mercator_fraction(lon, lat)
        if self.tree is not None:
            di, ri = self.tree.query_points(mx, my)
            keep = ((mx[di] >= self.mx0[ri]) & (mx[di] < self.mx1[ri])
                    & (my[di] >= self.my0[ri]) & (my[di] < self.my1[ri]))
            di, ri = di[keep], ri[keep]
            order = np.lexsort((di, ri))  # rect-major, like the scan path
            doc_idx, rect_idx = di[order], ri[order]
        else:
            doc_idx_list, rect_idx_list = [], []
            for i in range(len(self.rect_ids)):
                m = (mx >= self.mx0[i]) & (mx < self.mx1[i]) & (my >= self.my0[i]) & (my < self.my1[i])
                hits = np.nonzero(m)[0]
                doc_idx_list.append(hits)
                rect_idx_list.append(np.full(len(hits), i, dtype=np.int64))
            doc_idx = np.concatenate(doc_idx_list) if doc_idx_list else np.empty(0, np.int64)
            rect_idx = np.concatenate(rect_idx_list) if rect_idx_list else np.empty(0, np.int64)
        out = batch.take(pa.array(doc_idx))
        return out.append_column("rect_id", pa.array(self.rect_ids[rect_idx], type=pa.int64()))


class KnnPartial:
    """Per-batch partial top-k: queries broadcast, candidates streamed.

    Distance: squared euclidean on (lon, lat) degrees, ties broken by
    candidate doc_num — fully deterministic so the DuckDB oracle
    (cross join + row_number) agrees exactly. Each batch emits at most
    k rows per query; ``knn_join`` takes the final exact top-k over
    those (#batches x k) rows per query on the driver.
    """

    def __init__(self, q_ids, q_lon, q_lat, k: int, exclude_self=True,
                 metric: str = "plane"):
        if metric not in ("plane", "sphere"):
            raise ValueError(f"unknown kNN metric {metric!r}")
        self.q_ids = np.asarray(q_ids, dtype=np.int64)
        topk_kernel.check_unique_qids(self.q_ids, "KnnPartial")
        self.q_lon = np.asarray(q_lon, dtype=np.float64)
        self.q_lat = np.asarray(q_lat, dtype=np.float64)
        self.k = k
        self.exclude_self = exclude_self
        self.metric = metric
        if metric == "sphere":
            self.q_x, self.q_y, self.q_z = _unit_sphere(self.q_lon, self.q_lat)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Streaming top-k via the shared threshold-mask kernel
        (stages/topk.streaming_topk — see its docstring for the
        scheme); this class only supplies the squared-euclidean chunk
        scorer with reusable (Q, CHUNK) work buffers (the chunk loop
        allocates nothing in steady state) and maps the kernel output
        to (q_doc, n_doc, d2)."""
        c_id = np.asarray(batch["doc_num"], dtype=np.int64)
        c_lon = np.asarray(batch["lon"], dtype=np.float64)
        c_lat = np.asarray(batch["lat"], dtype=np.float64)
        Q = len(self.q_ids)
        buf_a = np.empty((Q, topk_kernel.CHUNK))
        buf_b = np.empty((Q, topk_kernel.CHUNK))

        if self.metric == "sphere":
            # great-circle ranking via NEGATIVE unit-sphere dot product
            # (monotone in geodesic distance, no acos needed); the sum
            # order (x + y) + z matches the SQL mirror exactly, and
            # numpy/libm/DuckDB float64 trig agree bitwise, so ranks
            # reproduce in SQL
            c_x, c_y, c_z = _unit_sphere(c_lon, c_lat)

            def score(sl):
                W = sl.stop - sl.start
                a, b = buf_a[:, :W], buf_b[:, :W]
                np.multiply(self.q_x[:, None], c_x[None, sl], out=a)
                np.multiply(self.q_y[:, None], c_y[None, sl], out=b)
                np.add(a, b, out=a)
                np.multiply(self.q_z[:, None], c_z[None, sl], out=b)
                np.add(a, b, out=a)
                return np.negative(a, out=a)  # (Q, W) -dot
        else:
            def score(sl):
                W = sl.stop - sl.start
                a, b = buf_a[:, :W], buf_b[:, :W]
                np.subtract(self.q_lon[:, None], c_lon[None, sl], out=a)
                np.multiply(a, a, out=a)
                np.subtract(self.q_lat[:, None], c_lat[None, sl], out=b)
                np.multiply(b, b, out=b)
                return np.add(a, b, out=a)  # (Q, W) squared distance

        res = topk_kernel.streaming_topk(
            c_id, self.q_ids, self.k, score, exclude_self=self.exclude_self)
        if res is None:
            empty64 = pa.array([], type=pa.int64())
            return pa.table({"q_doc": empty64, "n_doc": empty64,
                             "d2": pa.array([], type=pa.float64())})
        qs, cs, vs = res
        return pa.table(
            {
                "q_doc": pa.array(self.q_ids[qs], type=pa.int64()),
                "n_doc": pa.array(cs, type=pa.int64()),
                "d2": pa.array(vs, type=pa.float64()),
            }
        )


def _batch_topk(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """The driver's final top-k: keep the k best (d2, n_doc) rows per query."""
    df = df.sort_values(["q_doc", "d2", "n_doc"], kind="mergesort")
    return df.groupby("q_doc", sort=False).head(k)


def _unit_sphere(lon, lat):
    """(x, y, z) on the unit sphere; the exact float chain the SQL
    mirror writes: cos(radians(lat))*cos(radians(lon)) etc."""
    lon_r = np.radians(lon)
    lat_r = np.radians(lat)
    cl = np.cos(lat_r)
    return cl * np.cos(lon_r), cl * np.sin(lon_r), np.sin(lat_r)


def knn_join(docs_ds, q_ids, q_lon, q_lat, k: int, exclude_self=True,
             metric: str = "plane"):
    """Exact broadcast kNN: returns (q_doc, n_doc, rank) with rank 1..k.

    metric='plane' ranks by squared euclidean degrees (the tile-local
    shape); metric='sphere' ranks by great-circle distance (negative
    unit-sphere dot — monotone, transcendental-exact vs SQL).

    Shape: per-candidate-batch partial top-k (``KnnPartial``, at most
    k rows per query per batch), gathered to the driver, where one
    ``_batch_topk`` pass keeps the k best per query. No keyed shuffle
    at all: the driver sees (batches x Q x k) rows.
    """
    partials = docs_ds.map_batches(
        KnnPartial(q_ids, q_lon, q_lat, k, exclude_self, metric=metric),
        batch_format="pyarrow"
    )
    # driver gather is blocks x Q x k rows (tiny). NOTE: do NOT insert a
    # coalescing map_batches(batch_size=big) here — Ray fuses it with
    # the upstream stage and serializes the whole pipeline into a
    # handful of giant tasks. At extreme block counts, add a
    # repartition(width) boundary before a combine pass instead.
    df = partials.to_pandas()
    if df.empty:  # empty input: Ray yields a column-less frame
        return pd.DataFrame({"q_doc": pd.Series([], dtype="int64"),
                             "n_doc": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    final = _batch_topk(df, k).reset_index(drop=True)
    final["rank"] = final.groupby("q_doc", sort=False).cumcount() + 1
    return final[["q_doc", "n_doc", "rank"]]


# ---- grouped kNN: the large-Q scale path (SURVEY.md §7.3) --------------


def _query_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Query input: one row per query keyed by its OWN tile at zoom."""
    lon = np.asarray(batch["lon"], dtype=np.float64)
    lat = np.asarray(batch["lat"], dtype=np.float64)
    x, y = coords.lonlat_to_tile(lon, lat, zoom)
    tkey = pack_tkey(np.full(len(x), zoom, dtype=np.int64), x, y)
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "doc_num": batch["doc_num"].cast(pa.int64()),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )


def _replicate_3x3(batch: pa.Table, zoom: int) -> pa.Table:
    """Candidate input: replicate each point to its tile AND the (up to
    8) in-range neighbors, so every query tile's partition holds the
    full 3x3 candidate window. Out-of-range neighbors are skipped (not
    clamped) so no duplicate (tile, doc) rows arise at grid edges."""
    lon = np.asarray(batch["lon"], dtype=np.float64)
    lat = np.asarray(batch["lat"], dtype=np.float64)
    doc = np.asarray(batch["doc_num"], dtype=np.int64)
    x, y = coords.lonlat_to_tile(lon, lat, zoom)
    n_side = 1 << zoom
    xs, ys, idxs = [], [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            nx, ny = x + dx, y + dy
            ok = (nx >= 0) & (nx < n_side) & (ny >= 0) & (ny < n_side)
            xs.append(nx[ok])
            ys.append(ny[ok])
            idxs.append(np.flatnonzero(ok))
    nx = np.concatenate(xs)
    ny = np.concatenate(ys)
    idx = np.concatenate(idxs)
    tkey = pack_tkey(np.full(len(nx), zoom, dtype=np.int64), nx, ny)
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "doc_num": pa.array(doc[idx]),
            "lon": pa.array(lon[idx]),
            "lat": pa.array(lat[idx]),
        }
    )


def _grouped_knn_combine(queries: pa.Table, cands: pa.Table, k: int,
                         exclude_self: bool) -> pa.Table:
    """Per-partition exact windowed top-k. The partition holds, for
    every query tile routed here, ALL candidates of its 3x3 window —
    so ranks are final (no driver merge). Per-tile loop over vectorized
    (Q_t x C_t) distance blocks; query rows are chunked so one block
    stays ~8 MB regardless of tile skew."""
    out_q, out_n, out_d = [], [], []
    if queries.num_rows and cands.num_rows:
        qk, qd, qlo, qla = _by_tkey(queries)
        ck, cd, clo, cla = _by_tkey(cands)
        run_starts = np.flatnonzero(np.r_[True, qk[1:] != qk[:-1]])
        run_ends = np.r_[run_starts[1:], len(qk)]
        for s, e in zip(run_starts, run_ends):
            c0, c1 = np.searchsorted(ck, qk[s]), np.searchsorted(ck, qk[s], side="right")
            if c0 == c1:
                continue
            ids, lo, la = cd[c0:c1], clo[c0:c1], cla[c0:c1]
            step = max(1, 1_000_000 // (c1 - c0))
            for qs in range(s, e, step):
                qe = min(qs + step, e)
                dlon = qlo[qs:qe, None] - lo[None, :]
                dlat = qla[qs:qe, None] - la[None, :]
                d2 = dlon * dlon + dlat * dlat
                if exclude_self:
                    d2[qd[qs:qe, None] == ids[None, :]] = np.inf
                qidx = np.repeat(np.arange(qe - qs), c1 - c0)
                flat = d2.ravel()
                finite = flat < np.inf
                qidx, flat = qidx[finite], flat[finite]
                nids = np.tile(ids, qe - qs)[finite]
                order = np.lexsort((nids, flat, qidx))
                qs_s, vs, cs = qidx[order], flat[order], nids[order]
                new_run = np.r_[True, qs_s[1:] != qs_s[:-1]]
                starts = np.flatnonzero(new_run)
                run_start = np.repeat(starts, np.diff(np.append(starts, len(qs_s))))
                pos = np.arange(len(qs_s), dtype=np.int64) - run_start
                keep = pos < k
                out_q.append(qd[qs + qs_s[keep]])
                out_n.append(cs[keep])
                out_d.append(pos[keep] + 1)
    cat = lambda parts: np.concatenate(parts) if parts else np.empty(0, np.int64)
    return pa.table(
        {
            "q_doc": pa.array(cat(out_q), type=pa.int64()),
            "n_doc": pa.array(cat(out_n), type=pa.int64()),
            "rank": pa.array(cat(out_d), type=pa.int64()),
        }
    )


def _by_tkey(t: pa.Table):
    """(tkey, doc_num, lon, lat) arrays sorted stably by tile key."""
    tkey = np.asarray(t["tkey"], dtype=np.int64)
    order = np.argsort(tkey, kind="stable")
    return (tkey[order],
            np.asarray(t["doc_num"], dtype=np.int64)[order],
            np.asarray(t["lon"], dtype=np.float64)[order],
            np.asarray(t["lat"], dtype=np.float64)[order])


def knn_join_grouped(docs_ds, queries_ds, k: int, zoom: int,
                     exclude_self=True, num_partitions: int = 64):
    """Windowed kNN for LARGE query sets: exact top-k among candidates
    in the query's 3x3 tile neighborhood at ``zoom`` (SURVEY.md §7.3).

    The broadcast path (knn_join) ships every query to every candidate
    block — right for small Q, wrong once Q itself is a dataset. Here
    BOTH sides shuffle once by tile key: queries route to their own
    tile, candidates replicate to their 3x3 window (<= 9x, a constant),
    and each partition finishes its queries' ranks locally — total
    traffic O(9·C + Q) rows through one exchange, no driver gather.

    Contract: neighbors beyond the window are invisible — pick zoom so
    the expected k-th-neighbor radius is well under one tile
    (documented partitioning assumption; the same windowing is what the
    DuckDB oracle mirrors, so correctness is checked end to end).
    Returns (q_doc, n_doc, rank<=k).
    """
    import functools

    from .exchange import hash_exchange

    q = queries_ds.map_batches(
        functools.partial(_query_rows, zoom=zoom), batch_format="pyarrow"
    )
    c = docs_ds.map_batches(
        functools.partial(_replicate_3x3, zoom=zoom), batch_format="pyarrow"
    )
    return hash_exchange(
        [q, c],
        "tkey",
        functools.partial(_grouped_knn_combine, k=k, exclude_self=exclude_self),
        num_partitions=num_partitions,
    )


# ---- bucketed rect join: the large-catalog scale path -------------------


def _rect_cell_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Rect input: explode each rect to EVERY grid cell it overlaps at
    ``zoom`` (ragged cross-product, fully vectorized). Cell c covers
    [c/n, (c+1)/n) per axis, so a half-open rect overlaps x cells
    floor(mx0*n) .. ceil(mx1*n)-1 inclusive (same floor(mx*2^z)
    convention as tile assignment — no boundary drift vs the
    broadcast path)."""
    n = 1 << zoom
    rid = np.asarray(batch["rect_id"], dtype=np.int64)
    mx0 = np.asarray(batch["mx0"], dtype=np.float64)
    my0 = np.asarray(batch["my0"], dtype=np.float64)
    mx1 = np.asarray(batch["mx1"], dtype=np.float64)
    my1 = np.asarray(batch["my1"], dtype=np.float64)
    cx0 = np.clip(np.floor(mx0 * n), 0, n - 1).astype(np.int64)
    cy0 = np.clip(np.floor(my0 * n), 0, n - 1).astype(np.int64)
    cx1 = np.clip(np.ceil(mx1 * n) - 1, -1, n - 1).astype(np.int64)
    cy1 = np.clip(np.ceil(my1 * n) - 1, -1, n - 1).astype(np.int64)
    nx = np.maximum(cx1 - cx0 + 1, 0)
    ny = np.maximum(cy1 - cy0 + 1, 0)
    total = nx * ny  # cells per rect (0 for degenerate rects)
    tot = int(total.sum())
    rect_idx = np.repeat(np.arange(len(rid), dtype=np.int64), total)
    # ragged 0..total_i-1 enumeration per rect
    starts = np.concatenate(([0], np.cumsum(total)[:-1]))
    pos = np.arange(tot, dtype=np.int64) - np.repeat(starts, total)
    ny_rep = np.repeat(ny, total)
    x = np.repeat(cx0, total) + pos // np.maximum(ny_rep, 1)
    y = np.repeat(cy0, total) + pos % np.maximum(ny_rep, 1)
    tkey = pack_tkey(np.full(tot, zoom, dtype=np.int64), x, y)
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "rect_id": pa.array(rid[rect_idx], type=pa.int64()),
            "mx0": pa.array(mx0[rect_idx]),
            "my0": pa.array(my0[rect_idx]),
            "mx1": pa.array(mx1[rect_idx]),
            "my1": pa.array(my1[rect_idx]),
        }
    )


def _doc_cell_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Doc input: one row per doc, keyed by its single grid cell."""
    lon = np.asarray(batch["lon"], dtype=np.float64)
    lat = np.asarray(batch["lat"], dtype=np.float64)
    x, y = coords.lonlat_to_tile(lon, lat, zoom)
    mx, my = coords.mercator_fraction(lon, lat)
    tkey = pack_tkey(np.full(len(x), zoom, dtype=np.int64), x, y)
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "doc_num": batch["doc_num"].cast(pa.int64()),
            "mx": pa.array(mx),
            "my": pa.array(my),
        }
    )


def _cell_runs(rect_keys: np.ndarray, doc_tbl: pa.Table):
    """Sort ``doc_tbl`` by cell; per rect copy, the [lo, hi) row range
    of the docs in its cell. -> (doc order, lo, hi)."""
    dkey = np.asarray(doc_tbl["tkey"], dtype=np.int64)
    order = np.argsort(dkey, kind="stable")
    dkey = dkey[order]
    return (order, np.searchsorted(dkey, rect_keys, side="left"),
            np.searchsorted(dkey, rect_keys, side="right"))


def _rect_bucket_combine(rects: pa.Table, docs: pa.Table) -> pa.Table:
    """Per partition: probe each rect copy against the docs of its
    cell (vectorized per rect — rects per cell is the bounded quantity
    the bucketing buys). A (doc, rect) pair is emitted exactly once:
    the doc lives in ONE cell and the rect copy in that cell is
    unique."""
    out_doc, out_rect = [], []
    if rects.num_rows and docs.num_rows:
        rid, x0, y0, x1, y1 = (
            np.asarray(rects[c]) for c in ("rect_id", "mx0", "my0", "mx1", "my1"))
        order, lo, hi = _cell_runs(np.asarray(rects["tkey"], dtype=np.int64), docs)
        ids = np.asarray(docs["doc_num"], dtype=np.int64)[order]
        mx = np.asarray(docs["mx"], dtype=np.float64)[order]
        my = np.asarray(docs["my"], dtype=np.float64)[order]
        for r in np.flatnonzero(hi > lo):
            s, e = lo[r], hi[r]
            m = ((mx[s:e] >= x0[r]) & (mx[s:e] < x1[r])
                 & (my[s:e] >= y0[r]) & (my[s:e] < y1[r]))
            hits = ids[s:e][m]
            if len(hits):
                out_doc.append(hits)
                out_rect.append(np.full(len(hits), rid[r], dtype=np.int64))
    cat = lambda p: np.concatenate(p) if p else np.empty(0, np.int64)
    return pa.table(
        {
            "doc_num": pa.array(cat(out_doc), type=pa.int64()),
            "rect_id": pa.array(cat(out_rect), type=pa.int64()),
        }
    )


def rect_join_bucketed(docs_ds, rects_ds, zoom: int,
                       num_partitions: int = 64):
    """Rect join for LARGE rect catalogs (the STRtree-style scale path
    RectJoin's docstring promises; reference containment maps tiles
    through `TileBBoxPyramid::contains_coord`,
    tile_bbox_pyramid.rs:171-177).

    The broadcast path re-tests every doc against every rect; here
    BOTH sides shuffle once by grid cell at ``zoom``: rects explode to
    the cells they overlap, docs route to their single cell, and each
    partition probes locally. Traffic is O(D + R·cells_per_rect) rows
    through one exchange; no side is ever broadcast or materialized.

    Partitioning assumption (document per call site): ``zoom`` should
    make a typical rect span O(1) cells — too coarse re-creates the
    broadcast problem inside a cell, too fine multiplies rect copies.
    Hot cells are bounded by num_partitions spreading distinct cells.

    ``rects_ds``: Dataset with (rect_id, mx0, my0, mx1, my1), half-open
    mercator-fraction rects. Returns (doc_num, rect_id) pairs —
    pair-identical to the broadcast path (tests assert equality).
    """
    import functools

    from .exchange import hash_exchange

    r = rects_ds.map_batches(
        functools.partial(_rect_cell_rows, zoom=zoom), batch_format="pyarrow")
    p = docs_ds.map_batches(
        functools.partial(_doc_cell_rows, zoom=zoom), batch_format="pyarrow")
    return hash_exchange(
        [r, p], "tkey", _rect_bucket_combine,
        num_partitions=num_partitions)


# ---- polygon join: true point-in-polygon (ray casting) ------------------


def _ray_cast(px: np.ndarray, py: np.ndarray,
              vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Even-odd (crossing-number) point-in-polygon, vectorized over
    points with one pass per edge (the polygon side is the small,
    bounded quantity). Horizontal edges self-mask: the crossing
    condition is false before the (then-degenerate) intercept is
    compared — mirroring SQL, where 0-division yields NULL and
    FALSE AND NULL = FALSE. The intercept expression keeps the exact
    SQL association ((py - y1) * (x2 - x1)) / (y2 - y1) + x1 so the
    oracle matches bit-for-bit at the < comparison."""
    cnt = np.zeros(len(px), dtype=np.int64)
    m = len(vx)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(m):
            x1, y1 = float(vx[i]), float(vy[i])
            x2, y2 = float(vx[(i + 1) % m]), float(vy[(i + 1) % m])
            cond = (y1 > py) != (y2 > py)
            if not cond.any():
                continue
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            cnt += cond & (px < xint)
    return (cnt & 1).astype(bool)


class PolygonJoin:
    """Inner-join docs against arbitrary simple polygons (lon/lat
    vertex rings, even-odd rule — non-convex and self-intersecting
    rings get standard even-odd semantics). Broadcast shape: the
    polygon catalog lives once per actor (__init__), docs stream with
    no shuffle. Candidate generation is a per-polygon bbox scan for
    small catalogs and an STR-packed R-tree (core/strtree, built once
    in __init__ — the north star's "STRtree-backed actor pool") above
    ``index_threshold`` polygons: O(docs · log polys) instead of
    O(docs · polys), identical output (the tree's exact leaf test IS
    the bbox test). One output row per (doc, polygon) containment.
    For catalogs too large to broadcast use
    :func:`polygon_join_bucketed`."""

    INDEX_THRESHOLD = 64

    def __init__(self, polys: list, use_index: bool | None = None):
        self.polys = []
        for pid, verts in polys:
            v = np.asarray(verts, dtype=np.float64)
            if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
                raise ValueError(
                    f"polygon {pid}: want >=3 (lon, lat) vertices")
            self.polys.append((int(pid), v[:, 0].copy(), v[:, 1].copy(),
                               v[:, 0].min(), v[:, 0].max(),
                               v[:, 1].min(), v[:, 1].max()))
        if use_index is None:
            use_index = len(self.polys) >= self.INDEX_THRESHOLD
        self.tree = None
        if use_index and self.polys:
            from ..core.strtree import STRtree

            boxes = np.array([(x0, y0, x1, y1)
                              for _, _, _, x0, x1, y0, y1 in self.polys])
            self.tree = STRtree(boxes, leaf_cap=16)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch["lon"], dtype=np.float64)
        lat = np.asarray(batch["lat"], dtype=np.float64)
        doc = np.asarray(batch["doc_num"], dtype=np.int64)
        out_d, out_p = [], []
        if self.tree is not None:
            di, pi = self.tree.query_points(lon, lat)
            order = np.lexsort((di, pi))
            di, pi = di[order], pi[order]
            run_start = np.flatnonzero(np.r_[True, pi[1:] != pi[:-1]])
            run_end = np.r_[run_start[1:], len(pi)]
            for s, e in zip(run_start, run_end):
                pid, vx, vy = self.polys[pi[s]][:3]
                cand = di[s:e]
                hit = cand[_ray_cast(lon[cand], lat[cand], vx, vy)]
                if len(hit):
                    out_d.append(doc[hit])
                    out_p.append(np.full(len(hit), pid, dtype=np.int64))
        else:
            for pid, vx, vy, x0, x1, y0, y1 in self.polys:
                cand = np.flatnonzero((lon >= x0) & (lon <= x1)
                                      & (lat >= y0) & (lat <= y1))
                if not len(cand):
                    continue
                hit = cand[_ray_cast(lon[cand], lat[cand], vx, vy)]
                if len(hit):
                    out_d.append(doc[hit])
                    out_p.append(np.full(len(hit), pid, dtype=np.int64))
        cat = lambda p: np.concatenate(p) if p else np.empty(0, np.int64)  # noqa: E731
        return pa.table({
            "doc_num": pa.array(cat(out_d), type=pa.int64()),
            "poly_id": pa.array(cat(out_p), type=pa.int64()),
        })


def _poly_cell_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Polygon input of the bucketed exchange: explode each polygon to
    every mercator grid cell its lon/lat bbox overlaps (the rect
    explosion reused on the bbox), vertices ride along as list
    columns."""
    pid = np.asarray(batch["poly_id"], dtype=np.int64)
    xs = batch["xs"].combine_chunks()
    ys = batch["ys"].combine_chunks()
    n = 1 << zoom
    rows = {"tkey": [], "poly_id": [], "xs": [], "ys": []}
    for r in range(batch.num_rows):
        vx = np.asarray(xs[r].values, dtype=np.float64)
        vy = np.asarray(ys[r].values, dtype=np.float64)
        mx0, my0 = coords.mercator_fraction(
            np.array([vx.min()]), np.array([vy.max()]))
        mx1, my1 = coords.mercator_fraction(
            np.array([vx.max()]), np.array([vy.min()]))
        cx0 = int(np.clip(np.floor(mx0[0] * n), 0, n - 1))
        cy0 = int(np.clip(np.floor(my0[0] * n), 0, n - 1))
        cx1 = int(np.clip(np.ceil(mx1[0] * n) - 1, 0, n - 1))
        cy1 = int(np.clip(np.ceil(my1[0] * n) - 1, 0, n - 1))
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                rows["tkey"].append(int(pack_tkey(
                    np.array([zoom]), np.array([cx]), np.array([cy]))[0]))
                rows["poly_id"].append(int(pid[r]))
                rows["xs"].append(vx.tolist())
                rows["ys"].append(vy.tolist())
    return pa.table({
        "tkey": pa.array(rows["tkey"], type=pa.int64()),
        "poly_id": pa.array(rows["poly_id"], type=pa.int64()),
        "xs": pa.array(rows["xs"], type=pa.list_(pa.float64())),
        "ys": pa.array(rows["ys"], type=pa.list_(pa.float64())),
    })


def _poly_doc_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Doc input: one row per doc keyed by its cell, with its point."""
    lon = np.asarray(batch["lon"], dtype=np.float64)
    lat = np.asarray(batch["lat"], dtype=np.float64)
    x, y = coords.lonlat_to_tile(lon, lat, zoom)
    tkey = pack_tkey(np.full(len(x), zoom, dtype=np.int64), x, y)
    return pa.table({
        "tkey": pa.array(tkey, type=pa.int64()),
        "doc_num": batch["doc_num"].cast(pa.int64()),
        "lon": pa.array(lon),
        "lat": pa.array(lat),
    })


def _poly_bucket_combine(polys: pa.Table, docs: pa.Table) -> pa.Table:
    """Per partition: ray-cast each polygon copy against the docs of
    its cell. A (doc, poly) pair emits exactly once (one cell per doc;
    one polygon copy per overlapped cell, and the doc's cell is unique
    among them)."""
    out_d, out_p = [], []
    if polys.num_rows and docs.num_rows:
        pkey = np.asarray(polys["tkey"], dtype=np.int64)
        pids = np.asarray(polys["poly_id"], dtype=np.int64)
        xs = polys["xs"].combine_chunks()
        ys = polys["ys"].combine_chunks()
        order, lo, hi = _cell_runs(pkey, docs)
        ids = np.asarray(docs["doc_num"], dtype=np.int64)[order]
        px = np.asarray(docs["lon"], dtype=np.float64)[order]
        py = np.asarray(docs["lat"], dtype=np.float64)[order]
        for r in np.flatnonzero(hi > lo):
            s, e = lo[r], hi[r]
            vx = np.asarray(xs[int(r)].values, dtype=np.float64)
            vy = np.asarray(ys[int(r)].values, dtype=np.float64)
            hit = _ray_cast(px[s:e], py[s:e], vx, vy)
            if hit.any():
                out_d.append(ids[s:e][hit])
                out_p.append(np.full(int(hit.sum()), pids[r], dtype=np.int64))
    cat = lambda p: np.concatenate(p) if p else np.empty(0, np.int64)  # noqa: E731
    return pa.table({
        "doc_num": pa.array(cat(out_d), type=pa.int64()),
        "poly_id": pa.array(cat(out_p), type=pa.int64()),
    })


def polygon_join_bucketed(docs_ds, polys_ds, zoom: int,
                          num_partitions: int = 64):
    """Polygon join for LARGE catalogs: both sides shuffle once by
    mercator grid cell at ``zoom`` (polygons explode to their bbox's
    overlapped cells, vertices riding as list columns; docs route to
    their single cell), each partition ray-casts locally.
    Pair-identical to the broadcast :class:`PolygonJoin` (tests
    assert equality). Same zoom-tuning contract as
    :func:`rect_join_bucketed`. ``polys_ds``: Dataset with
    (poly_id, xs list<float64>, ys list<float64>)."""
    import functools

    from .exchange import hash_exchange

    p = polys_ds.map_batches(
        functools.partial(_poly_cell_rows, zoom=zoom), batch_format="pyarrow")
    d = docs_ds.map_batches(
        functools.partial(_poly_doc_rows, zoom=zoom), batch_format="pyarrow")
    return hash_exchange(
        [p, d], "tkey", _poly_bucket_combine,
        num_partitions=num_partitions)


# ---- as-of join ---------------------------------------------------------


def _int64s(col) -> np.ndarray:
    return np.asarray(col.cast(pa.int64()), dtype=np.int64)


def _own(t: pa.Table, empty: pa.Table) -> pa.Table:
    """``t``, or the 0-row ``empty`` read from the input's schema on the
    driver when the exchange hands over a column-less table (Ray's
    map_batches emits schema-less blocks for an input with no rows)."""
    return t if t.num_columns else empty


def _rank_key(by: np.ndarray, on: np.ndarray):
    """Joint rank-encode (by, on) into one int64 key: ranks over the
    PARTITION's value universe, so products never overflow and order /
    equality semantics survive any raw int64 domain (timestamps, ids)."""
    _, binv = np.unique(by, return_inverse=True)
    uo, oinv = np.unique(on, return_inverse=True)
    span = np.int64(len(uo) + 1)
    return binv.astype(np.int64) * span + oinv.astype(np.int64), span


def _asof_combine(left: pa.Table, right: pa.Table, empties: tuple, by: str,
                  left_on: str, right_on: str, direction: str) -> pa.Table:
    left, right = _own(left, empties[0]), _own(right, empties[1])
    n_l = left.num_rows
    key, span = _rank_key(
        np.concatenate([_int64s(left[by]), _int64s(right[by])]),
        np.concatenate([_int64s(left[left_on]), _int64s(right[right_on])]))
    lkey = key[:n_l]
    r_rows = np.argsort(key[n_l:], kind="stable")
    rkey = key[n_l:][r_rows]
    n_r = len(rkey)
    if direction == "backward":  # greatest right on <= left on
        pos = np.searchsorted(rkey, lkey, side="right") - 1
        valid = pos >= 0
    elif direction == "forward":  # smallest right on >= left on
        pos = np.searchsorted(rkey, lkey, side="left")
        valid = pos < n_r
    else:
        raise ValueError(f"asof direction {direction!r}")
    pos = np.clip(pos, 0, max(n_r - 1, 0))
    if n_r:
        valid &= (rkey[pos] // span) == (lkey // span)  # same `by` group
    else:
        valid = np.zeros(n_l, dtype=bool)
    out = {c: left[c] for c in left.column_names}
    match_idx = pa.array(r_rows[pos] if n_r else np.zeros(n_l, np.int64),
                         type=pa.int64(), mask=~valid)
    for c in right.column_names:
        if c not in (by, right_on):
            out[c] = right[c].take(match_idx)  # null index -> null value
    return pa.table(out)


def asof_join(left_ds, right_ds, *, by: str, left_on: str, right_on: str,
              direction: str = "backward", num_partitions: int = 32):
    """Distributed as-of join: for every left row, attach the single
    right row with the greatest ``right_on <= left_on`` (backward; ties
    on (by, right_on) should be pre-aggregated away by the caller) or
    the smallest ``right_on >= left_on`` (forward), matching within the
    same ``by`` key. DuckDB's ``ASOF JOIN`` semantics; Ray Data has no
    such verb, so this composes the engine's hash exchange: both inputs
    co-group on ``by`` (one co-partitioning shuffle of exactly the
    join inputs), then each partition runs one vectorized
    searchsorted over rank-encoded (by, on) keys — no sort-merge of the
    full datasets, no broadcast.

    Column contract: output = all left columns + all right columns
    except ``by``/``right_on``; rename right columns beforehand to
    avoid collisions. Partitioning assumption: ``by`` is int64 and
    spreads under the multiplicative hash (same as every exchange).
    Left rows with no match carry nulls (LEFT join semantics).
    """
    import functools

    from .exchange import _empty_table, hash_exchange

    empties = (_empty_table(left_ds), _empty_table(right_ds))
    overlap = set(empties[0].column_names) & (
        set(empties[1].column_names) - {by, right_on})
    if overlap:
        raise ValueError(f"asof_join column collision: {sorted(overlap)}")
    return hash_exchange(
        [left_ds, right_ds],
        by,
        functools.partial(_asof_combine, empties=empties, by=by,
                          left_on=left_on, right_on=right_on,
                          direction=direction),
        num_partitions=num_partitions,
    )


# ---- range join (windowed aggregate flavor) -----------------------------


def _rj_combine(intervals: pa.Table, points: pa.Table, empties: tuple,
                by: str, lo: str, hi: str, at: str, value: str, n_col: str,
                sum_col: str) -> pa.Table:
    intervals, points = _own(intervals, empties[0]), _own(points, empties[1])
    n_i = intervals.num_rows
    by_r = np.concatenate([_int64s(intervals[by]), _int64s(points[by])])
    lo_v, hi_v = _int64s(intervals[lo]), _int64s(intervals[hi])
    at_v = _int64s(points[at])
    # null/NaN values contribute 0 cents but the point still counts —
    # SQL's COUNT(row)/SUM-skips-NULL semantics (floor(NaN).astype
    # would otherwise poison the prefix sum with INT64_MIN)
    vals = np.asarray(points[value].cast(pa.float64()).fill_null(0.0),
                      dtype=np.float64)
    cents = np.floor(np.nan_to_num(vals, nan=0.0) * 100.0).astype(np.int64)
    # joint ranks over lo/hi/at so inclusive [lo, hi] bounds are exact
    uo = np.unique(np.concatenate([lo_v, hi_v, at_v]))
    span = np.int64(len(uo) + 1)
    _, binv = np.unique(by_r, return_inverse=True)
    binv = binv.astype(np.int64)
    p_key = binv[n_i:] * span + np.searchsorted(uo, at_v)
    order = np.argsort(p_key, kind="stable")
    p_key = p_key[order]
    csum = np.concatenate(([0], np.cumsum(cents[order])))
    lo_key = binv[:n_i] * span + np.searchsorted(uo, lo_v)
    hi_key = binv[:n_i] * span + np.searchsorted(uo, hi_v)
    a = np.searchsorted(p_key, lo_key, side="left")
    b = np.searchsorted(p_key, hi_key, side="right")
    b = np.maximum(b, a)  # inverted intervals (lo > hi) match nothing
    return (intervals.append_column(n_col, pa.array(b - a, type=pa.int64()))
            .append_column(sum_col, pa.array(csum[b] - csum[a], type=pa.int64())))


def range_join_agg(intervals_ds, points_ds, *, by: str, lo: str, hi: str,
                   at: str, value: str, n_col: str = "n_points",
                   sum_col: str = "sum_cents", num_partitions: int = 32):
    """Range join aggregated per interval: for each interval row
    ``[lo, hi]`` (inclusive), count the same-``by`` points with
    ``lo <= at <= hi`` and sum their int-cents values (floor(value*100)
    — the engine's oracle-exact money convention). Co-group both
    inputs on ``by`` through one hash exchange, then per partition a
    prefix-sum + two searchsorteds answer every interval in O(n log n)
    — the windowed-aggregate form of a range join that never
    materializes matched PAIRS (pair output is the same routing with a
    per-partition expand; counts/sums are what curation pipelines
    consume). Output: every interval column + n_col + sum_col.
    """
    import functools

    from .exchange import _empty_table, hash_exchange

    point_cols = list(dict.fromkeys([by, at, value]))
    empties = (_empty_table(intervals_ds),
               _empty_table(points_ds).select(point_cols))
    return hash_exchange(
        [intervals_ds, points_ds.select_columns(point_cols)],
        by,
        functools.partial(_rj_combine, empties=empties, by=by, lo=lo, hi=hi,
                          at=at, value=value, n_col=n_col, sum_col=sum_col),
        num_partitions=num_partitions,
    )


# ---- distributed anti-join ----------------------------------------------


def _aj_combine(rows: pa.Table, drop: pa.Table, empty: pa.Table,
                id_col: str) -> pa.Table:
    rows = _own(rows, empty)
    if not (rows.num_rows and drop.num_rows):
        return rows
    keep = ~np.isin(np.asarray(rows[id_col], dtype=np.int64),
                    np.asarray(drop[id_col], dtype=np.int64))
    return rows.filter(pa.array(keep))


def anti_join_ids(ds, drop_ds, id_col: str, num_partitions: int = 32):
    """Distributed anti-join: rows of ``ds`` whose int64 ``id_col`` is
    NOT present in ``drop_ds[id_col]``. Both inputs co-group on the
    id through one hash exchange; each partition filters with one
    vectorized ``isin`` — no broadcast of the drop set, so the drop
    side may be as large as the data (the dedup-survivor case, where
    duplicates can dominate a crawl corpus)."""
    import functools

    from .exchange import _empty_table, hash_exchange

    return hash_exchange(
        [ds, drop_ds.select_columns([id_col])], id_col,
        functools.partial(_aj_combine, empty=_empty_table(ds), id_col=id_col),
        num_partitions=num_partitions)


# ---- general hash equi-join ----------------------------------------------


_HJ_TYPES = {"inner": "inner", "left": "left outer",
             "semi": "left semi", "anti": "left anti"}


def _hj_key_kind(t: pa.DataType):
    if pa.types.is_string(t):
        return "string"
    return "integer" if pa.types.is_integer(t) else None


def _hj_route(batch: pa.Table, on: str, key_is_str: bool) -> pa.Table:
    from .curate import _hash_strings

    key = batch[on]
    if key_is_str:
        route = _hash_strings(key)
    else:
        arr = key.combine_chunks() if isinstance(key, pa.ChunkedArray) else key
        if arr.null_count:
            raise ValueError(f"hash_join key column {on!r} contains nulls; "
                             "filter or fill them first")
        route = np.asarray(arr, dtype=np.int64)
    return batch.append_column("_route", pa.array(route, type=pa.int64()))


def _hj_combine(left: pa.Table, right: pa.Table, empties: tuple, on: str,
                join_type: str) -> pa.Table:
    """Arrow join of one partition's sides, each cut to its driver-side
    (on, *columns) layout ``empties``; integer keys meet as int64."""
    sides = []
    for t, empty in zip((left, right), empties):
        t = _own(t, empty).select(empty.column_names)
        if pa.types.is_integer(t.schema.field(on).type):
            t = t.set_column(0, on, t[on].cast(pa.int64()))
        sides.append(t)
    return sides[0].join(sides[1], keys=on, join_type=join_type).combine_chunks()


def hash_join(left_ds, right_ds, on: str, how: str = "inner",
              num_partitions: int = 32):
    """Distributed large x large equi-join — the general workhorse the
    broadcast path (`stages/props.props_join`) cannot cover once the
    build side outgrows worker memory.

    how: 'inner' | 'left' (outer) | 'semi' | 'anti' (left-side
    existence forms). Both inputs co-group on the join key through
    ONE streaming hash exchange (the `anti_join_ids` layout), then
    each partition joins locally with Arrow's native hash join —
    vectorized C++, no pandas, no driver gather. Shuffle volume is
    |left| + |right| rows, once; skewed keys land whole in one
    partition, so `num_partitions` is the memory knob (a hot key that
    exceeds a worker's heap needs a salted pre-aggregate upstream,
    same contract as the reference's per-tile grouping). The join key
    must be non-null and of one kind on both sides, integer or string
    (int64 routes directly; strings route by the vectorized FNV of
    `stages/curate`), else ValueError before any task runs; non-key
    column names must be disjoint across sides.

    New surface relative to the reference (its only joins are
    broadcast property maps, vector_update_properties.rs) — the graft
    needs metadata joins at corpus scale.
    """
    import functools

    from .exchange import _empty_table, hash_exchange

    if how not in _HJ_TYPES:
        raise ValueError(f"hash_join how={how!r}: want one of {sorted(_HJ_TYPES)}")
    empties = (_empty_table(left_ds), _empty_table(right_ds))
    for e in empties:
        if on not in e.column_names:
            raise ValueError(f"hash_join: key {on!r} missing from {e.column_names}")
        if "_route" in e.column_names:
            raise ValueError("hash_join reserved column '_route' in input")
    l_type, r_type = (e.schema.field(on).type for e in empties)
    kind = _hj_key_kind(l_type)
    if kind is None or kind != _hj_key_kind(r_type):
        raise ValueError(f"hash_join: key {on!r} is {l_type} on the left and "
                         f"{r_type} on the right; want integers or strings "
                         "on both sides")
    l_cols, r_cols = ([n for n in e.column_names if n != on] for e in empties)
    overlap = set(l_cols) & set(r_cols)
    if overlap:
        raise ValueError(f"hash_join: non-key columns overlap: {sorted(overlap)}")
    empties = (empties[0].select([on, *l_cols]), empties[1].select([on, *r_cols]))
    route = functools.partial(_hj_route, on=on, key_is_str=kind == "string")
    out = hash_exchange(
        [left_ds.map_batches(route, batch_format="pyarrow"),
         right_ds.map_batches(route, batch_format="pyarrow")], "_route",
        functools.partial(_hj_combine, empties=empties, on=on,
                          join_type=_HJ_TYPES[how]),
        num_partitions=num_partitions)
    keep = [on, *l_cols] if how in ("semi", "anti") else [on, *l_cols, *r_cols]
    return out.select_columns(keep)
