"""Tile-pyramid aggregation: docs -> per-tile stats for every level.

The Ray-Data reformulation of the reference's overview loop
(versatiles_pipeline/src/operations/raster/raster_overview.rs:36-240):
instead of a DepthFirst traversal with a Push/Pop cache, per-tile
stats are decomposable aggregates (sum/min/max), so one pass derives
every level. Each input block is combined to base-level partials (the
combiner bounds the rows entering the shuffle to distinct tiles per
block regardless of skew: a hot tile contributes at most one partial
row per block), routed by its ``split_level`` ancestor cell through ONE
hash exchange, and each partition derives its complete subtrees
locally; the few levels below ``split_level`` finish on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .assign import TKEY_Z_SHIFT, pack_tkey, unpack_tkey

AGG_COLUMNS = ["n_docs", "n_spans", "min_doc", "max_doc"]


def _group_partials(tkey, n_docs, n_spans, min_doc, max_doc):
    """Combine per-row (or per-partial) stats by tile key within a batch."""
    uniq, inv = np.unique(tkey, return_inverse=True)
    out_docs = np.bincount(inv, weights=n_docs).astype(np.int64)
    out_spans = np.bincount(inv, weights=n_spans).astype(np.int64)
    out_min = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    out_max = np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(out_min, inv, min_doc)
    np.maximum.at(out_max, inv, max_doc)
    return uniq, out_docs, out_spans, out_min, out_max


def _partials_table(tkey, n_docs, n_spans, min_doc, max_doc) -> pa.Table:
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "n_docs": pa.array(n_docs, type=pa.int64()),
            "n_spans": pa.array(n_spans, type=pa.int64()),
            "min_doc": pa.array(min_doc, type=pa.int64()),
            "max_doc": pa.array(max_doc, type=pa.int64()),
        }
    )


def combine_tile_stats_block(table: pa.Table) -> pa.Table:
    """Vectorized combine of one hash partition's partial rows."""
    return _partials_table(
        *_group_partials(
            np.asarray(table["tkey"], dtype=np.int64),
            np.asarray(table["n_docs"], dtype=np.int64),
            np.asarray(table["n_spans"], dtype=np.int64),
            np.asarray(table["min_doc"], dtype=np.int64),
            np.asarray(table["max_doc"], dtype=np.int64),
        )
    )


def unpack_tile_columns(batch: pa.Table) -> pa.Table:
    """Add back z/x/y from the packed tkey (for outputs/oracles)."""
    z, x, y = unpack_tkey(np.asarray(batch["tkey"], dtype=np.int64))
    batch = batch.append_column("z", pa.array(z, type=pa.int64()))
    batch = batch.append_column("x", pa.array(x, type=pa.int64()))
    return batch.append_column("y", pa.array(y, type=pa.int64()))


def _morton_rollup(m, nd, ns, mn, mx, z_top: int, z_min: int) -> pa.Table:
    """Stats keyed by morton cell ``m`` at level z_top -> partials for
    every level z_top..z_min.

    ONE argsort by the morton key, then a run-length ``reduceat`` per
    level on arrays that shrink as levels collapse (parent morton =
    key >> 2 preserves sort order) — instead of one full np.unique
    sort per level.
    """
    from ..core.coords import morton_to_xy

    order = np.argsort(m, kind="stable")
    keys, nd, ns, mn, mx = m[order], nd[order], ns[order], mn[order], mx[order]
    tables = []
    for lvl in range(z_top, z_min - 1, -1):
        if lvl < z_top:
            keys = keys >> 2  # parent morton, still sorted
        if len(keys):
            starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
            keys = keys[starts]
            nd = np.add.reduceat(nd, starts)
            ns = np.add.reduceat(ns, starts)
            mn = np.minimum.reduceat(mn, starts)
            mx = np.maximum.reduceat(mx, starts)
        lx, ly = morton_to_xy(keys)
        tkey = pack_tkey(np.full(len(keys), lvl, dtype=np.int64), lx, ly)
        tables.append(_partials_table(tkey, nd, ns, mn, mx))
    return pa.concat_tables(tables)


def partial_multilevel_agg(batch: pa.Table, z_base: int, z_min: int = 0) -> pa.Table:
    """Per-batch partials for EVERY level z_min..z_base at once.

    Each doc contributes one tile per level (parent keys are bit
    shifts), so all per-level partials come out of one pass over the
    batch — the decisive restructuring vs the reference's per-level
    DepthFirst traversal (raster_overview.rs): aggregates are
    decomposable, images are not.
    """
    from ..core.coords import morton_key

    z = np.asarray(batch["z"], dtype=np.int64)
    assert int(z.min(initial=z_base)) == z_base and int(z.max(initial=z_base)) == z_base
    x = np.asarray(batch["x"], dtype=np.int64)
    y = np.asarray(batch["y"], dtype=np.int64)
    doc_num = np.asarray(batch["doc_num"], dtype=np.int64)
    if "n_spans" in batch.column_names:  # pruned read (sources/docs.py)
        n_spans = np.asarray(batch["n_spans"], dtype=np.int64)
    else:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        n_spans = np.asarray(pc.list_value_length(spans), dtype=np.int64)
    ones = np.ones(len(doc_num), dtype=np.int64)
    return _morton_rollup(np.asarray(morton_key(x, y)), ones, n_spans, doc_num, doc_num,
                          z_base, z_min)


def partial_levels_from_tiles(batch: pa.Table, z_from: int, z_min: int = 0) -> pa.Table:
    """Tile-stats rows (tkey at z_from+1) -> partials for z_from..z_min.

    Same morton single-sort kernel as partial_multilevel_agg, but the
    input is already-combined tile stats, so the emitted volume is a
    fraction of doc-level partials.
    """
    from ..core.coords import morton_key

    z, x, y = unpack_tkey(np.asarray(batch["tkey"], dtype=np.int64))
    return _morton_rollup(
        np.asarray(morton_key(x, y)) >> 2,  # parent morton (z_from)
        np.asarray(batch["n_docs"], dtype=np.int64),
        np.asarray(batch["n_spans"], dtype=np.int64),
        np.asarray(batch["min_doc"], dtype=np.int64),
        np.asarray(batch["max_doc"], dtype=np.int64),
        z_from,
        z_min,
    )


def _subtree_combine(table: pa.Table, z_base: int, z_low: int) -> pa.Table:
    """Per-partition: combine base-level rows, then derive every level
    down to z_low locally — EXACT because spatial routing put the
    complete split_level subtree (z_low >= split_level) of every tile
    into this partition."""
    combined = combine_tile_stats_block(table)
    if z_base > z_low:
        lowers = partial_levels_from_tiles(combined, z_base - 1, z_low)
        combined = pa.concat_tables([combined, lowers])
    return combined


def _take_level(table: pa.Table, level: int) -> pa.Table:
    if table.num_rows == 0 or "tkey" not in table.column_names:
        return table.slice(0, 0)
    z = np.asarray(table["tkey"], dtype=np.int64) >> TKEY_Z_SHIFT
    return table.filter(pa.array(z == level))


def _routed_partials(batch: pa.Table, z_base: int, shift: int) -> pa.Table:
    """Docs with z/x/y at z_base -> base-level partials + spatial route
    column (the ancestor morton cell ``shift`` levels up)."""
    from ..core.coords import morton_key

    t = partial_multilevel_agg(batch, z_base, z_base)
    z, x, y = unpack_tkey(np.asarray(t["tkey"], dtype=np.int64))
    anc = np.asarray(morton_key(x >> shift, y >> shift))
    return t.append_column("route", pa.array(anc, type=pa.int64()))


def aggregate_pyramid_spatial(docs_ds, z_base: int, z_min: int = 0, split_level: int = 6,
                              num_buckets: int = 64):
    """Full pyramid z_base..z_min from a Dataset of docs carrying z/x/y
    at z_base, with ONE exchange, spatially routed.

    Base-level partials are routed by their ``split_level`` ancestor
    cell (morton prefix), so each partition holds complete subtrees
    and can finish levels z_base..split_level locally — no second
    exchange. The tiny tail (levels below split_level: <= 4^split
    rows total) is derived on the driver from the gathered
    split-level tiles. The spatial analogue of the reference's
    block-grid partitioning (tile_bbox/iter.rs:63-90), with the
    partition key doubling as the locality key (SURVEY.md §7.3).
    Skew note: routing distributes 4^split_level cells over
    num_buckets partitions; a pathologically hot single cell bounds a
    partition at (docs in cell / blocks) partial rows — the per-block
    combiner still caps shuffle volume.

    A pyramid shallower than ``split_level`` routes by its z_base
    cells, 4x fewer per missing level, so ``num_buckets`` shrinks by
    the same factor (to no fewer than 2): the caller's cells per
    partition stay the same, and a z3 pyramid (64 cells) runs 2 reduce
    and write tasks rather than 64 of one cell or none.
    """
    import functools

    import ray
    import ray.data as rd

    from .exchange import hash_exchange

    if split_level > z_base:
        # 4x fewer routing cells per level short of split_level
        num_buckets = max(2, num_buckets >> 2 * (split_level - z_base))
        split_level = z_base
    partials = docs_ds.map_batches(
        functools.partial(_routed_partials, z_base=z_base, shift=z_base - split_level),
        batch_format="pyarrow",
    )
    comb = functools.partial(_subtree_combine, z_base=z_base, z_low=max(z_min, split_level))
    if z_min >= split_level:
        return hash_exchange(partials, "route", comb, num_buckets)

    # each reduce also emits its split-level rows as a tiny aux output
    # (<= 4^split_level rows in total across partitions), so the
    # z<split tail derives on the driver from a few KB — no extra task
    # wave, no full-partition fetch.
    upper, aux_refs = hash_exchange(
        partials, "route", comb, num_buckets,
        aux_fn=functools.partial(_take_level, level=split_level),
    )
    aux_tables = [t for t in ray.get(aux_refs) if t.num_rows]
    if not aux_tables:
        return upper  # empty input, or no tiles at split level
    split_rows = pa.concat_tables(aux_tables, promote_options="default")
    tail = partial_levels_from_tiles(split_rows, split_level - 1, z_min)
    return upper.union(rd.from_arrow(tail))


def aggregate_pyramid_spatial_fused(specs, load_fn, z_base: int, z_min: int = 0,
                                    split_level: int = 6, num_buckets: int = 64):
    """aggregate_pyramid_spatial over picklable input specs
    (sources/docs.shard_specs, or Lance/parquet fragment lists);
    ``load_fn(spec)`` returns docs with lon/lat.

    The specs become a docs Dataset through sources/docs.read_specs
    (one read task per spec), then AssignTiles(z_base) and the
    Dataset-fed exchange. Why not split inside each spec's read task
    (a map-side shuffle write): on the one-core ``pyramid`` benchmark
    that was no faster and held ~1.8x the driver's peak RSS, because
    its specs x partitions split slices are each small enough that Ray
    returns them inline to their owner, the driver.
    """
    from ..sources.docs import read_specs
    from .assign import assign_tiles

    return aggregate_pyramid_spatial(assign_tiles(read_specs(specs, load_fn), z_base),
                                     z_base, z_min, split_level, num_buckets)


# ---- tile payload materialization --------------------------------------


def doc_span_fp_batch(batch: pa.Table) -> pa.Table:
    """Docs batch (z,x,y,doc_num,spans) -> (tkey, doc_num, fp).

    fp = '|'-joined 'kind:offset:text+media_ref' per span, in span
    order (spans are constructed offset-ascending; the oracle orders
    by span_idx == offset/16). Fully Arrow-vectorized: one
    element-wise join over the flattened span structs, one list join
    per doc — no per-row Python.
    """
    import pyarrow.compute as pc

    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    piece = pc.binary_join_element_wise(
        flat.field("kind"),
        pc.cast(flat.field("offset"), pa.string()),
        pc.binary_join_element_wise(flat.field("text"), flat.field("media_ref"), ""),
        ":",
    )
    lists = pa.ListArray.from_arrays(spans.offsets, piece)
    fp = pc.binary_join(lists, "|")
    tkey = pack_tkey(
        np.asarray(batch["z"], dtype=np.int64),
        np.asarray(batch["x"], dtype=np.int64),
        np.asarray(batch["y"], dtype=np.int64),
    )
    return pa.table(
        {
            "tkey": pa.array(tkey, type=pa.int64()),
            "doc_num": pa.array(np.asarray(batch["doc_num"], dtype=np.int64), type=pa.int64()),
            "fp": fp,
        }
    )


def combine_tile_spans_block(table: pa.Table) -> pa.Table:
    """One exchange partition: per-tile ordered payload.

    payload = '#'-joined doc fps ordered by doc_num — the tile's span
    sequence, deterministic under unordered execution because the
    order is (doc_num, offset), never arrival order (SURVEY.md §7.4
    hard part 1).
    """
    import pyarrow.compute as pc

    tkey = np.asarray(table["tkey"], dtype=np.int64)
    doc = np.asarray(table["doc_num"], dtype=np.int64)
    order = np.lexsort((doc, tkey))
    tkey, doc = tkey[order], doc[order]
    fp = table["fp"]
    if isinstance(fp, pa.ChunkedArray):
        fp = fp.combine_chunks()
    fp = fp.take(pa.array(order))
    n = len(tkey)
    first = np.ones(n, dtype=bool)
    if n > 1:
        first[1:] = tkey[1:] != tkey[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    offsets = np.zeros(len(starts) + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(counts)
    lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), fp)
    payload = pc.binary_join(lists, "#")
    return pa.table(
        {
            "tkey": pa.array(tkey[starts], type=pa.int64()),
            "n_docs": pa.array(counts, type=pa.int64()),
            "payload": payload,
        }
    )


def tile_spans(docs_with_tiles, num_buckets: int = 16):
    """Materialize per-tile span-sequence payloads (the 'real' tile
    content build): (tkey, z, x, y, n_docs, payload). Exchange on
    tkey; each tile's payload is its docs' span fps ordered by
    (doc_num, offset). Within-doc span text/media survive verbatim —
    the per-row invariant of BASELINE.json input_hint lifted to tile
    granularity.

    Skew: payload size is proportional to docs-per-tile, so run this
    at BASE zoom (leaf tiles) where fan-in is bounded; low-zoom tiles
    aggregate entire regions (a z0 payload would be the whole corpus)
    — derive low-zoom content hierarchically from written base tiles
    instead, as the stats pyramid does.
    """
    from .exchange import hash_exchange

    rows = docs_with_tiles.map_batches(doc_span_fp_batch, batch_format="pyarrow")
    tiles = hash_exchange(rows, "tkey", combine_tile_spans_block, num_partitions=num_buckets)
    return tiles.map_batches(unpack_tile_columns, batch_format="pyarrow")


# ---- low-zoom payload pyramid (hierarchical, cap-bounded) --------------


def _cap_tile_rows_block(table: pa.Table, cap: int) -> pa.Table:
    """One exchange partition: keep the ``cap`` lowest-doc_num rows per
    tile (deterministic truncation). Vectorized: one lexsort + a
    position-within-run mask."""
    tkey = np.asarray(table["tkey"], dtype=np.int64)
    doc = np.asarray(table["doc_num"], dtype=np.int64)
    n = len(tkey)
    if n == 0:
        return table
    order = np.lexsort((doc, tkey))
    ks = tkey[order]
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new_run)
    run_start = np.repeat(starts, np.diff(np.append(starts, n)))
    keep = (np.arange(n, dtype=np.int64) - run_start) < cap
    return table.take(pa.array(order[keep]))


def _rekey_parent_batch(batch: pa.Table) -> pa.Table:
    """Re-key rows from a level's tiles to their PARENT tiles
    (z-1, x>>1, y>>1) — raster_overview.rs parent addressing."""
    z, x, y = unpack_tkey(np.asarray(batch["tkey"], dtype=np.int64))
    parent = pack_tkey(z - 1, x >> 1, y >> 1)
    idx = batch.schema.get_field_index("tkey")
    return batch.set_column(idx, "tkey", pa.array(parent, type=pa.int64()))


def tile_spans_pyramid(docs_with_tiles, z_base: int, z_min: int = 0,
                       cap: int = 64, num_buckets: int = 16):
    """Low-zoom tile PAYLOAD pyramid: per-tile span-sequence payloads
    for every level z_min..z_base, derived hierarchically.

    The content analogue of the stats rollup (raster_overview.rs
    semantics on span payloads): level z-1's rows come from level z's
    already-capped rows re-keyed to parents and re-capped — never a
    whole-corpus group at z0. Truncation rule (deterministic and
    SQL-expressible): each tile keeps the ``cap`` LOWEST doc_num doc
    fps; because min-doc sets are monotone under union, hierarchical
    capping equals direct capping at every level, so a DuckDB
    ROW_NUMBER oracle can verify any level exactly. Payload = '#'-join
    of kept doc fps ordered by doc_num; n_docs = kept count (the full
    count lives in the stats pyramid).

    Volume per level is bounded by cap x 4^z rows, so every exchange
    after the base one is tiny.
    """
    import functools

    from .exchange import hash_exchange

    capper = functools.partial(_cap_tile_rows_block, cap=cap)
    rows = docs_with_tiles.map_batches(doc_span_fp_batch, batch_format="pyarrow")
    level_rows = hash_exchange(rows, "tkey", capper, num_partitions=num_buckets)
    out = None
    for z in range(z_base, z_min - 1, -1):
        level_tiles = level_rows.map_batches(
            combine_tile_spans_block, batch_format="pyarrow"
        ).map_batches(unpack_tile_columns, batch_format="pyarrow")
        out = level_tiles if out is None else out.union(level_tiles)
        if z > z_min:
            parents = level_rows.map_batches(_rekey_parent_batch, batch_format="pyarrow")
            p = max(2, min(num_buckets, 4 ** max(z - 1 - 4, 0) or 2))
            level_rows = hash_exchange(parents, "tkey", capper, num_partitions=p)
    return out
