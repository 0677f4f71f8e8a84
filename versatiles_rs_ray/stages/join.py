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
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core import coords
from ..core.hashing import fmix64
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
    k rows per query; the final exact top-k happens in a tiny
    groupby(q).map_groups over (#batches x k) rows per query.
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
    """Per-batch combiner: keep k best (d2, n_doc) rows per query."""
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

    Tree-reduce shape: per-candidate-batch partial top-k (k rows per
    query per batch) -> one combiner pass over large batches -> tiny
    driver-side finish. No keyed shuffle at all: the reduction volume
    is (blocks x Q x k), re-collapsed by the combiner pass, so the
    driver only ever sees O(Q x k x combine_blocks) rows.
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


def _tag_side(batch: pa.Table, zoom: int, side: int) -> pa.Table:
    """Query side: one row per query keyed by its OWN tile at zoom."""
    lon = np.asarray(batch["lon"], dtype=np.float64)
    lat = np.asarray(batch["lat"], dtype=np.float64)
    x, y = coords.lonlat_to_tile(lon, lat, zoom)
    tkey = pack_tkey(np.full(len(x), zoom, dtype=np.int64), x, y)
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "side": pa.array(np.full(len(x), side, dtype=np.int8)),
            "doc_num": batch["doc_num"].cast(pa.int64()),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )


def _replicate_3x3(batch: pa.Table, zoom: int) -> pa.Table:
    """Candidate side: replicate each point to its tile AND the (up to
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
            "side": pa.array(np.ones(len(nx), dtype=np.int8)),
            "doc_num": pa.array(doc[idx]),
            "lon": pa.array(lon[idx]),
            "lat": pa.array(lat[idx]),
        }
    )


def _grouped_knn_combine(table: pa.Table, k: int, exclude_self: bool) -> pa.Table:
    """Per-partition exact windowed top-k. The partition holds, for
    every query tile routed here, ALL candidates of its 3x3 window —
    so ranks are final (no driver merge). Per-tile loop over vectorized
    (Q_t x C_t) distance blocks; query rows are chunked so one block
    stays ~8 MB regardless of tile skew."""
    out_q, out_n, out_d = [], [], []
    if table.num_rows:
        side = np.asarray(table["side"], dtype=np.int8)
        tkey = np.asarray(table["tkey"], dtype=np.int64)
        doc = np.asarray(table["doc_num"], dtype=np.int64)
        lon = np.asarray(table["lon"], dtype=np.float64)
        lat = np.asarray(table["lat"], dtype=np.float64)
        q_m, c_m = side == 0, side == 1
        q_order = np.argsort(tkey[q_m], kind="stable")
        qk, qd, qlo, qla = (a[q_m][q_order] for a in (tkey, doc, lon, lat))
        c_order = np.argsort(tkey[c_m], kind="stable")
        ck, cd, clo, cla = (a[c_m][c_order] for a in (tkey, doc, lon, lat))
        if len(qk):
            run_starts = np.flatnonzero(np.r_[True, qk[1:] != qk[:-1]])
            run_ends = np.r_[run_starts[1:], len(qk)]
        else:
            run_starts = run_ends = np.empty(0, dtype=np.int64)
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
        functools.partial(_tag_side, zoom=zoom, side=0), batch_format="pyarrow"
    )
    c = docs_ds.map_batches(
        functools.partial(_replicate_3x3, zoom=zoom), batch_format="pyarrow"
    )
    return hash_exchange(
        q.union(c),
        "tkey",
        functools.partial(_grouped_knn_combine, k=k, exclude_self=exclude_self),
        num_partitions=num_partitions,
    )


# ---- bucketed rect join: the large-catalog scale path -------------------


def _rect_cell_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Rect side: explode each rect to EVERY grid cell it overlaps at
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
            "side": pa.array(np.zeros(tot, dtype=np.int8)),
            "id": pa.array(rid[rect_idx], type=pa.int64()),
            "a": pa.array(mx0[rect_idx]),
            "b": pa.array(my0[rect_idx]),
            "c": pa.array(mx1[rect_idx]),
            "d": pa.array(my1[rect_idx]),
        }
    )


def _doc_cell_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Doc side: one row per doc, keyed by its single grid cell."""
    lon = np.asarray(batch["lon"], dtype=np.float64)
    lat = np.asarray(batch["lat"], dtype=np.float64)
    doc = np.asarray(batch["doc_num"], dtype=np.int64)
    x, y = coords.lonlat_to_tile(lon, lat, zoom)
    mx, my = coords.mercator_fraction(lon, lat)
    tkey = pack_tkey(np.full(len(x), zoom, dtype=np.int64), x, y)
    z = np.zeros(len(x), dtype=np.float64)
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "side": pa.array(np.ones(len(x), dtype=np.int8)),
            "id": pa.array(doc, type=pa.int64()),
            "a": pa.array(mx),
            "b": pa.array(my),
            "c": pa.array(z),
            "d": pa.array(z),
        }
    )


def _rect_bucket_combine(table: pa.Table) -> pa.Table:
    """Per partition: group rows by cell, probe that cell's docs
    against that cell's rects (vectorized per rect — rects per cell is
    the bounded quantity the bucketing buys). A (doc, rect) pair is
    emitted exactly once: the doc lives in ONE cell and the rect copy
    in that cell is unique."""
    out_doc, out_rect = [], []
    if table.num_rows:
        tkey = np.asarray(table["tkey"], dtype=np.int64)
        side = np.asarray(table["side"], dtype=np.int8)
        ids = np.asarray(table["id"], dtype=np.int64)
        a = np.asarray(table["a"], dtype=np.float64)
        b = np.asarray(table["b"], dtype=np.float64)
        c = np.asarray(table["c"], dtype=np.float64)
        d = np.asarray(table["d"], dtype=np.float64)
        order = np.lexsort((side, tkey))
        tkey, side, ids = tkey[order], side[order], ids[order]
        a, b, c, d = a[order], b[order], c[order], d[order]
        run_starts = np.flatnonzero(np.r_[True, tkey[1:] != tkey[:-1]])
        run_ends = np.r_[run_starts[1:], len(tkey)]
        for s, e in zip(run_starts, run_ends):
            split = s + int(np.searchsorted(side[s:e], 1))
            if split == s or split == e:
                continue  # rect-only or doc-only cell
            mx, my = a[split:e], b[split:e]
            docs = ids[split:e]
            for r in range(s, split):
                m = (mx >= a[r]) & (mx < c[r]) & (my >= b[r]) & (my < d[r])
                hits = docs[m]
                if len(hits):
                    out_doc.append(hits)
                    out_rect.append(np.full(len(hits), ids[r], dtype=np.int64))
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
        r.union(p), "tkey", _rect_bucket_combine,
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
    """Polygon side of the bucketed exchange: explode each polygon to
    every mercator grid cell its lon/lat bbox overlaps (the rect
    explosion reused on the bbox), vertices ride along as list
    columns."""
    pid = np.asarray(batch["poly_id"], dtype=np.int64)
    xs = batch["xs"].combine_chunks()
    ys = batch["ys"].combine_chunks()
    n = 1 << zoom
    rows = {"tkey": [], "side": [], "id": [], "xs": [], "ys": []}
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
                rows["side"].append(0)
                rows["id"].append(int(pid[r]))
                rows["xs"].append(vx.tolist())
                rows["ys"].append(vy.tolist())
    n_out = len(rows["tkey"])
    return pa.table({
        "tkey": pa.array(rows["tkey"], type=pa.int64()),
        "side": pa.array(rows["side"], type=pa.int8()),
        "id": pa.array(rows["id"], type=pa.int64()),
        "xs": pa.array(rows["xs"], type=pa.list_(pa.float64())),
        "ys": pa.array(rows["ys"], type=pa.list_(pa.float64())),
        "px": pa.array(np.zeros(n_out), type=pa.float64()),
        "py": pa.array(np.zeros(n_out), type=pa.float64()),
    })


def _poly_doc_rows(batch: pa.Table, zoom: int) -> pa.Table:
    """Doc side: one row per doc keyed by its cell; the point rides in
    scalar px/py columns (empty vertex lists keep the schema shared
    with the polygon side — fully vectorized, no per-row Python)."""
    lon = np.asarray(batch["lon"], dtype=np.float64)
    lat = np.asarray(batch["lat"], dtype=np.float64)
    doc = np.asarray(batch["doc_num"], dtype=np.int64)
    x, y = coords.lonlat_to_tile(lon, lat, zoom)
    tkey = pack_tkey(np.full(len(x), zoom, dtype=np.int64), x, y)
    empty_lists = pa.ListArray.from_arrays(
        pa.array(np.zeros(len(x) + 1, dtype=np.int32)),
        pa.array([], type=pa.float64()))
    return pa.table({
        "tkey": pa.array(tkey, type=pa.int64()),
        "side": pa.array(np.ones(len(x), dtype=np.int8)),
        "id": pa.array(doc, type=pa.int64()),
        "xs": empty_lists,
        "ys": empty_lists,
        "px": pa.array(lon, type=pa.float64()),
        "py": pa.array(lat, type=pa.float64()),
    })


def _poly_bucket_combine(table: pa.Table) -> pa.Table:
    """Per partition: per cell, ray-cast that cell's docs against that
    cell's polygon copies. A (doc, poly) pair emits exactly once (one
    cell per doc; one polygon copy per overlapped cell, and the doc's
    cell is unique among them)."""
    out_d, out_p = [], []
    if table.num_rows:
        tkey = np.asarray(table["tkey"], dtype=np.int64)
        side = np.asarray(table["side"], dtype=np.int8)
        ids = np.asarray(table["id"], dtype=np.int64)
        pxa = np.asarray(table["px"], dtype=np.float64)
        pya = np.asarray(table["py"], dtype=np.float64)
        xs = table["xs"].combine_chunks()
        ys = table["ys"].combine_chunks()
        order = np.lexsort((side, tkey))
        run_starts = np.flatnonzero(
            np.r_[True, tkey[order][1:] != tkey[order][:-1]])
        run_ends = np.r_[run_starts[1:], len(order)]
        s_sorted = side[order]
        for s, e in zip(run_starts, run_ends):
            split = s + int(np.searchsorted(s_sorted[s:e], 1))
            if split == s or split == e:
                continue
            didx = order[split:e]
            px, py, docs = pxa[didx], pya[didx], ids[didx]
            for r in order[s:split]:
                vx = np.asarray(xs[int(r)].values, dtype=np.float64)
                vy = np.asarray(ys[int(r)].values, dtype=np.float64)
                hit = _ray_cast(px, py, vx, vy)
                if hit.any():
                    out_d.append(docs[hit])
                    out_p.append(np.full(int(hit.sum()), ids[int(r)],
                                         dtype=np.int64))
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
        p.union(d), "tkey", _poly_bucket_combine,
        num_partitions=num_partitions)


# ---- as-of join ---------------------------------------------------------

# internal routing/order columns of the exchange joins: silently
# clobbering a same-named input column would misroute rows
_RESERVED = {"route", "__on", "__side", "__lo", "__hi", "__cents"}


def _asof_side_rows(batch: pa.Table, by: str, on: str, side: int,
                    copy: frozenset, ordered: tuple) -> pa.Table:
    """Route rows + the UNIFIED schema in ONE canonical column order:
    the other side's columns are typed nulls, so every exchange
    partition (even one fed by a single side) carries an identical
    schema and the reduce concat never sees a mismatch."""
    cols = {
        "route": batch[by].cast(pa.int64()),
        "__on": batch[on].cast(pa.int64()),
        "__side": pa.array(np.full(batch.num_rows, side), type=pa.int64()),
    }
    for c, typ in ordered:
        cols[c] = batch[c] if c in copy else pa.nulls(batch.num_rows, type=typ)
    return pa.table(cols)


def _rank_key(by: np.ndarray, on: np.ndarray):
    """Joint rank-encode (by, on) into one int64 key: ranks over the
    PARTITION's value universe, so products never overflow and order /
    equality semantics survive any raw int64 domain (timestamps, ids)."""
    _, binv = np.unique(by, return_inverse=True)
    uo, oinv = np.unique(on, return_inverse=True)
    span = np.int64(len(uo) + 1)
    return binv.astype(np.int64) * span + oinv.astype(np.int64), span


def _asof_combine(tbl: pa.Table, left_cols: tuple, right_cols: tuple,
                  direction: str) -> pa.Table:
    side = np.asarray(tbl["__side"], dtype=np.int64)
    key, span = _rank_key(np.asarray(tbl["route"], dtype=np.int64),
                          np.asarray(tbl["__on"], dtype=np.int64))
    lmask = side == 0
    lkey = key[lmask]
    r_rows = np.flatnonzero(~lmask)
    order = np.argsort(key[r_rows], kind="stable")
    r_rows = r_rows[order]
    rkey = key[r_rows]
    n_r = len(rkey)
    if direction == "backward":  # greatest right __on <= left __on
        pos = np.searchsorted(rkey, lkey, side="right") - 1
        valid = pos >= 0
    elif direction == "forward":  # smallest right __on >= left __on
        pos = np.searchsorted(rkey, lkey, side="left")
        valid = pos < n_r
    else:
        raise ValueError(f"asof direction {direction!r}")
    pos = np.clip(pos, 0, max(n_r - 1, 0))
    if n_r:
        valid &= (rkey[pos] // span) == (lkey // span)  # same `by` group
    else:
        valid = np.zeros(len(lkey), dtype=bool)
    out = {}
    lsel = pa.array(lmask)
    for c in left_cols:
        out[c] = tbl[c].filter(lsel)
    match_idx = pa.array(r_rows[pos] if n_r else np.zeros(len(lkey), np.int64),
                         type=pa.int64(), mask=~valid)
    for c in right_cols:
        out[c] = tbl[c].take(match_idx)  # null index -> null value
    return pa.table(out)


def asof_join(left_ds, right_ds, *, by: str, left_on: str, right_on: str,
              direction: str = "backward", num_partitions: int = 32):
    """Distributed as-of join: for every left row, attach the single
    right row with the greatest ``right_on <= left_on`` (backward; ties
    on (by, right_on) should be pre-aggregated away by the caller) or
    the smallest ``right_on >= left_on`` (forward), matching within the
    same ``by`` key. DuckDB's ``ASOF JOIN`` semantics; Ray Data has no
    such verb, so this composes the engine's hash exchange: both sides
    are routed by ``by`` (one co-partitioning shuffle of exactly the
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

    from .exchange import hash_exchange

    l_schema, r_schema = left_ds.schema(), right_ds.schema()
    left_cols = tuple(l_schema.names)
    right_cols = tuple(c for c in r_schema.names if c not in (by, right_on))
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"asof_join column collision: {sorted(overlap)}")
    reserved = _RESERVED & (set(l_schema.names) | set(r_schema.names))
    if reserved:
        raise ValueError(f"asof_join reserved column names in input: "
                         f"{sorted(reserved)}")
    ordered = tuple(zip(l_schema.names, l_schema.types)) + tuple(
        (c, t) for c, t in zip(r_schema.names, r_schema.types)
        if c in right_cols)
    l_rows = left_ds.map_batches(
        functools.partial(_asof_side_rows, by=by, on=left_on, side=0,
                          copy=frozenset(left_cols), ordered=ordered),
        batch_format="pyarrow",
    )
    r_rows = right_ds.map_batches(
        functools.partial(_asof_side_rows, by=by, on=right_on, side=1,
                          copy=frozenset(right_cols), ordered=ordered),
        batch_format="pyarrow",
    )
    return hash_exchange(
        l_rows.union(r_rows),
        "route",
        functools.partial(_asof_combine, left_cols=left_cols,
                          right_cols=right_cols, direction=direction),
        num_partitions=num_partitions,
    )


# ---- range join (windowed aggregate flavor) -----------------------------


def _rj_interval_rows(batch: pa.Table, by: str, lo: str, hi: str,
                      keep: tuple) -> pa.Table:
    cols = {
        "route": batch[by].cast(pa.int64()),
        "__lo": batch[lo].cast(pa.int64()),
        "__hi": batch[hi].cast(pa.int64()),
        "__cents": pa.array(np.zeros(batch.num_rows, np.int64), type=pa.int64()),
        "__side": pa.array(np.full(batch.num_rows, 0), type=pa.int64()),
    }
    for c in keep:
        cols[c] = batch[c]
    return pa.table(cols)


def _rj_point_rows(batch: pa.Table, by: str, at: str, value: str,
                   null_fill: tuple) -> pa.Table:
    at_i = batch[at].cast(pa.int64())
    # null/NaN values contribute 0 cents but the point still counts —
    # SQL's COUNT(row)/SUM-skips-NULL semantics (floor(NaN).astype
    # would otherwise poison the prefix sum with INT64_MIN)
    vals = np.asarray(batch[value].cast(pa.float64()).fill_null(0.0),
                      dtype=np.float64)
    cents = np.floor(np.nan_to_num(vals, nan=0.0) * 100.0)
    cols = {
        "route": batch[by].cast(pa.int64()),
        "__lo": at_i,
        "__hi": at_i,
        "__cents": pa.array(cents.astype(np.int64), type=pa.int64()),
        "__side": pa.array(np.full(batch.num_rows, 1), type=pa.int64()),
    }
    for c, typ in null_fill:
        cols[c] = pa.nulls(batch.num_rows, type=typ)
    return pa.table(cols)


def _rj_combine(tbl: pa.Table, keep: tuple, n_col: str, sum_col: str) -> pa.Table:
    side = np.asarray(tbl["__side"], dtype=np.int64)
    by = np.asarray(tbl["route"], dtype=np.int64)
    imask = side == 0
    pmask = ~imask
    # joint ranks over lo/hi/at so inclusive [lo, hi] bounds are exact
    allv = np.concatenate([np.asarray(tbl["__lo"], dtype=np.int64),
                           np.asarray(tbl["__hi"], dtype=np.int64)])
    uo = np.unique(allv)
    span = np.int64(len(uo) + 1)
    _, binv = np.unique(by, return_inverse=True)
    binv = binv.astype(np.int64)
    lo_r = np.searchsorted(uo, np.asarray(tbl["__lo"], dtype=np.int64))
    hi_r = np.searchsorted(uo, np.asarray(tbl["__hi"], dtype=np.int64))
    p_key = binv[pmask] * span + lo_r[pmask]  # points: __lo == __hi == at
    order = np.argsort(p_key, kind="stable")
    p_key = p_key[order]
    cents = np.asarray(tbl["__cents"], dtype=np.int64)[pmask][order]
    csum = np.concatenate(([0], np.cumsum(cents)))
    lo_key = binv[imask] * span + lo_r[imask]
    hi_key = binv[imask] * span + hi_r[imask]
    a = np.searchsorted(p_key, lo_key, side="left")
    b = np.searchsorted(p_key, hi_key, side="right")
    b = np.maximum(b, a)  # inverted intervals (lo > hi) match nothing
    out = {}
    isel = pa.array(imask)
    for c in keep:
        out[c] = tbl[c].filter(isel)
    out[n_col] = pa.array(b - a, type=pa.int64())
    out[sum_col] = pa.array(csum[b] - csum[a], type=pa.int64())
    return pa.table(out)


def range_join_agg(intervals_ds, points_ds, *, by: str, lo: str, hi: str,
                   at: str, value: str, n_col: str = "n_points",
                   sum_col: str = "sum_cents", num_partitions: int = 32):
    """Range join aggregated per interval: for each interval row
    ``[lo, hi]`` (inclusive), count the same-``by`` points with
    ``lo <= at <= hi`` and sum their int-cents values (floor(value*100)
    — the engine's oracle-exact money convention). Co-partition both
    sides by ``by`` through one hash exchange, then per partition a
    prefix-sum + two searchsorteds answer every interval in O(n log n)
    — the windowed-aggregate form of a range join that never
    materializes matched PAIRS (pair output is the same routing with a
    per-partition expand; counts/sums are what curation pipelines
    consume). Output: interval ``keep`` columns + n_col + sum_col.
    """
    import functools

    from .exchange import hash_exchange

    i_schema = intervals_ds.schema()
    reserved = _RESERVED & (set(i_schema.names) | set(points_ds.schema().names))
    if reserved:
        raise ValueError(f"range_join_agg reserved column names in input: "
                         f"{sorted(reserved)}")
    keep = tuple(i_schema.names)
    i_rows = intervals_ds.map_batches(
        functools.partial(_rj_interval_rows, by=by, lo=lo, hi=hi, keep=keep),
        batch_format="pyarrow",
    )
    p_rows = points_ds.map_batches(
        functools.partial(_rj_point_rows, by=by, at=at, value=value,
                          null_fill=tuple(zip(i_schema.names, i_schema.types))),
        batch_format="pyarrow",
    )
    return hash_exchange(
        i_rows.union(p_rows),
        "route",
        functools.partial(_rj_combine, keep=keep, n_col=n_col, sum_col=sum_col),
        num_partitions=num_partitions,
    )


# ---- distributed anti-join ----------------------------------------------


def _aj_rows(batch: pa.Table, id_col: str, side: int, null_fill: tuple) -> pa.Table:
    cols = {"__side": pa.array(np.full(batch.num_rows, side), type=pa.int64())}
    for c, typ in null_fill:
        cols[c] = batch[c] if c in batch.column_names else pa.nulls(
            batch.num_rows, type=typ)
    return pa.table(cols)


def _aj_combine(tbl: pa.Table, id_col: str) -> pa.Table:
    side = np.asarray(tbl["__side"], dtype=np.int64)
    ids = np.asarray(tbl[id_col], dtype=np.int64)
    keep_rows = side == 0
    drop_ids = ids[~keep_rows]
    keep = keep_rows & ~np.isin(ids, drop_ids)
    return tbl.filter(pa.array(keep)).drop_columns(["__side"])


def _bloom_split(batch: pa.Table, id_col: str, bloom_ref, m_bits: int,
                 k: int, want_maybe: bool) -> pa.Table:
    import ray

    bits = ray.get(bloom_ref)  # plasma-shared, zero-copy per worker
    maybe = _bloom_maybe(np.asarray(batch[id_col], dtype=np.int64),
                         bits, m_bits, k)
    mask = maybe if want_maybe else ~maybe
    if mask.all():
        return batch
    return batch.filter(pa.array(mask))


def anti_join_ids(ds, drop_ds, id_col: str, num_partitions: int = 32,
                  bloom_bits: int | None = None):
    """Distributed anti-join: rows of ``ds`` whose int64 ``id_col`` is
    NOT present in ``drop_ds[id_col]``. Both sides co-partition by the
    id through one hash exchange; each partition filters with one
    vectorized ``isin`` — no broadcast of the drop set, so the drop
    side may be as large as the data (the dedup-survivor case, where
    duplicates can dominate a crawl corpus).

    ``bloom_bits`` enables the Spark-style runtime filter: a Bloom
    bitmap over the drop ids (tree-OR'd Ray reduce, ~bloom_bits/8
    bytes broadcast once) lets the map side emit definite non-members
    DIRECTLY — only "possibly dropped" rows (drop hits + the bitmap's
    false positives) pay the exchange. Semantics are exactly unchanged
    (Bloom has no false negatives; the exact pass judges every
    candidate); it is pure shuffle reduction for the common case where
    drops are a small fraction of the corpus. Costs one extra pass
    over drop_ds to build the bitmap."""
    import functools

    from .exchange import hash_exchange

    if "__side" in ds.schema().names:
        raise ValueError("anti_join_ids reserved column '__side' in input")
    direct = None
    if bloom_bits:
        bref, m, k = build_id_bloom(drop_ds, id_col, m_bits=bloom_bits)
        direct = ds.map_batches(
            functools.partial(_bloom_split, id_col=id_col, bloom_ref=bref,
                              m_bits=m, k=k, want_maybe=False),
            batch_format="pyarrow")
        ds = ds.map_batches(
            functools.partial(_bloom_split, id_col=id_col, bloom_ref=bref,
                              m_bits=m, k=k, want_maybe=True),
            batch_format="pyarrow")
    fill = tuple(zip(ds.schema().names, ds.schema().types))
    l_rows = ds.map_batches(
        functools.partial(_aj_rows, id_col=id_col, side=0, null_fill=fill),
        batch_format="pyarrow")
    r_rows = drop_ds.map_batches(
        functools.partial(_aj_rows, id_col=id_col, side=1, null_fill=fill),
        batch_format="pyarrow")
    out = hash_exchange(
        l_rows.union(r_rows), id_col,
        functools.partial(_aj_combine, id_col=id_col),
        num_partitions=num_partitions)
    return out.union(direct) if direct is not None else out


# ---- general hash equi-join ----------------------------------------------


_HJ_TYPES = {"inner": "inner", "left": "left outer",
             "semi": "left semi", "anti": "left anti"}


def _hj_side_rows(batch: pa.Table, on: str, side: int, fill: tuple,
                  key_is_str: bool) -> pa.Table:
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
    cols = {
        "_route": pa.array(route, type=pa.int64()),
        "__side": pa.array(np.full(batch.num_rows, side), type=pa.int64()),
        on: key,
    }
    for c, typ in fill:
        cols[c] = batch[c] if c in batch.column_names else pa.nulls(
            batch.num_rows, type=typ)
    return pa.table(cols)


def _hj_combine(tbl: pa.Table, on: str, l_cols: tuple, r_cols: tuple,
                join_type: str) -> pa.Table:
    side = np.asarray(tbl["__side"], dtype=np.int64)
    left = tbl.filter(pa.array(side == 0)).select([on, *l_cols])
    right = tbl.filter(pa.array(side == 1)).select([on, *r_cols])
    return left.join(right, keys=on, join_type=join_type).combine_chunks()


def hash_join(left_ds, right_ds, on: str, how: str = "inner",
              num_partitions: int = 32):
    """Distributed large x large equi-join — the general workhorse the
    broadcast path (`stages/props.props_join`) cannot cover once the
    build side outgrows worker memory.

    how: 'inner' | 'left' (outer) | 'semi' | 'anti' (left-side
    existence forms). Both sides co-partition by the join key through
    ONE streaming hash exchange (side-tagged union, exactly the
    `anti_join_ids` layout), then each partition joins locally with
    Arrow's native hash join — vectorized C++, no pandas, no driver
    gather. Shuffle volume is |left| + |right| rows, once; skewed keys
    land whole in one partition, so `num_partitions` is the memory
    knob (a hot key that exceeds a worker's heap needs a salted
    pre-aggregate upstream, same contract as the reference's per-tile
    grouping). The join key must be non-null (int64 routes directly;
    strings route by the vectorized FNV of `stages/curate`); non-key
    column names must be disjoint across sides.

    New surface relative to the reference (its only joins are
    broadcast property maps, vector_update_properties.rs) — the graft
    needs metadata joins at corpus scale.
    """
    import functools

    from .exchange import hash_exchange

    if how not in _HJ_TYPES:
        raise ValueError(f"hash_join how={how!r}: want one of {sorted(_HJ_TYPES)}")
    l_schema, r_schema = left_ds.schema(), right_ds.schema()
    for s in (l_schema, r_schema):
        if on not in s.names:
            raise ValueError(f"hash_join: key {on!r} missing from {s.names}")
        for reserved in ("_route", "__side"):
            if reserved in s.names:
                raise ValueError(f"hash_join reserved column {reserved!r} in input")
    l_cols = tuple(n for n in l_schema.names if n != on)
    r_cols = tuple(n for n in r_schema.names if n != on)
    overlap = set(l_cols) & set(r_cols)
    if overlap:
        raise ValueError(f"hash_join: non-key columns overlap: {sorted(overlap)}")
    key_is_str = pa.types.is_string(l_schema.types[l_schema.names.index(on)])
    fill = tuple(
        [(n, t) for n, t in zip(l_schema.names, l_schema.types) if n != on]
        + [(n, t) for n, t in zip(r_schema.names, r_schema.types) if n != on])
    l_rows = left_ds.map_batches(
        functools.partial(_hj_side_rows, on=on, side=0, fill=fill,
                          key_is_str=key_is_str),
        batch_format="pyarrow")
    r_rows = right_ds.map_batches(
        functools.partial(_hj_side_rows, on=on, side=1, fill=fill,
                          key_is_str=key_is_str),
        batch_format="pyarrow")
    out = hash_exchange(
        l_rows.union(r_rows), "_route",
        functools.partial(_hj_combine, on=on, l_cols=l_cols, r_cols=r_cols,
                          join_type=_HJ_TYPES[how]),
        num_partitions=num_partitions)
    keep = [on, *l_cols] if how in ("semi", "anti") else [on, *l_cols, *r_cols]
    return out.select_columns(keep)


# ---- Bloom runtime filter for the anti-join --------------------------------
#
# The Spark-style shuffle-reduction move: when the drop side is a small
# fraction of the corpus (the usual dedup outcome), shipping EVERY
# corpus row through the co-partitioning exchange wastes the exchange
# on rows that could never match. A Bloom filter over the drop ids
# (no false negatives) lets the map side keep definite non-members
# immediately; only "possibly dropped" rows pay the exact exchange.


def _bloom_positions(ids: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """k double-hashed bit positions per id, flattened (murmur fmix64
    mixes; h1 + i*h2 double hashing per Kirsch-Mitzenmacher)."""
    u = ids.astype(np.uint64)
    h1 = fmix64(u ^ np.uint64(0x9E3779B97F4A7C15))
    h2 = fmix64(u ^ np.uint64(0xC2B2AE3D27D4EB4F)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        pos = (h1[:, None] + i * h2[:, None]) % np.uint64(m_bits)
    return pos.reshape(-1)


def _bloom_block(tbl: pa.Table, id_col: str, m_bits: int, k: int) -> np.ndarray:
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    if tbl.num_rows and id_col in tbl.column_names:
        pos = _bloom_positions(np.asarray(tbl[id_col], dtype=np.int64),
                               m_bits, k)
        np.bitwise_or.at(bits, (pos >> np.uint64(3)).astype(np.int64),
                         np.left_shift(np.uint8(1),
                                       (pos & np.uint64(7)).astype(np.uint8)))
    return bits


def _or_bitmaps(*bitmaps):
    out = bitmaps[0].copy()
    for b in bitmaps[1:]:
        np.bitwise_or(out, b, out=out)
    return out


def build_id_bloom(drop_ds, id_col: str, m_bits: int = 1 << 24, k: int = 4):
    """Distributed Bloom build: one bitmap partial per drop block,
    tree-OR'd with Ray tasks (driver holds refs, never all bitmaps).
    Returns (object ref of the packed uint8 bitmap, m_bits, k).
    Memory: m_bits/8 bytes per in-flight partial — 2 MB at the 2^24
    default, sized for ~1M drops at <1% false-positive; scale m_bits
    with the expected drop count (fp rate ~ (1-e^{-kn/m})^k)."""
    import ray

    m_bits = max(64, (int(m_bits) + 7) // 8 * 8)  # byte-aligned bitmap
    bloom_task = ray.remote(_bloom_block)
    or_task = ray.remote(_or_bitmaps)
    refs = [bloom_task.remote(ref, id_col, m_bits, k)
            for bundle in drop_ds.iter_internal_ref_bundles()
            for ref in bundle.block_refs]
    if not refs:
        refs = [ray.put(np.zeros(m_bits // 8, dtype=np.uint8))]
    while len(refs) > 1:
        refs = [or_task.remote(*refs[i:i + 8])
                for i in range(0, len(refs), 8)]
    return refs[0], m_bits, k


def _bloom_maybe(ids: np.ndarray, bits: np.ndarray, m_bits: int,
                 k: int) -> np.ndarray:
    """True where the id is POSSIBLY in the filter (false positives
    allowed, false negatives impossible)."""
    pos = _bloom_positions(ids, m_bits, k).reshape(len(ids), k)
    byte = bits[(pos >> np.uint64(3)).astype(np.int64)]
    bit = np.left_shift(np.uint8(1), (pos & np.uint64(7)).astype(np.uint8))
    return ((byte & bit) != 0).all(axis=1)
