"""N-ary per-tile-key combination operators: first-wins and merge.

Reformulates the reference's stacked/merged read ops:

- `from_stacked` (first non-null per tile across ranked sources,
  versatiles_pipeline/src/operations/read/from_stacked.rs:125-165)
  becomes a *deterministic* min-reduction on the source rank — the
  reference relies on evaluation order, we carry the order in data: the
  rank is the source's position among the exchange's inputs
  (SURVEY.md §7.4 hard part 1).
- `from_merged_vector` (concatenate same-named layers per tile,
  from_merged_vector.rs:57-69) becomes an order-insensitive merge of
  per-source summaries with a bitmask OR.

Both are two-phase: a per-batch combiner bounds shuffle input, then a
small groupby finishes — the same skew discipline as stages/pyramid.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .assign import pack_tkey, unpack_tkey

# winner coding: code = rank << 40 | doc_num  (doc_num < 2^40)
_WINNER_SHIFT = 40


def encode_winner(rank, doc_num):
    doc_num = np.asarray(doc_num, dtype=np.int64)
    assert int(np.max(doc_num, initial=0)) < (1 << _WINNER_SHIFT)
    return (np.asarray(rank, dtype=np.int64) << _WINNER_SHIFT) | doc_num


def decode_winner(code):
    code = np.asarray(code, dtype=np.int64)
    return code >> _WINNER_SHIFT, code & ((1 << _WINNER_SHIFT) - 1)


def partial_first_wins(batch: pa.Table, rank_col="src_rank") -> pa.Table:
    """Per-batch argmin of (rank, doc_num) per tile key."""
    tkey = pack_tkey(
        np.asarray(batch["z"], dtype=np.int64),
        np.asarray(batch["x"], dtype=np.int64),
        np.asarray(batch["y"], dtype=np.int64),
    )
    code = encode_winner(
        np.asarray(batch[rank_col], dtype=np.int64),
        np.asarray(batch["doc_num"], dtype=np.int64),
    )
    uniq, inv = np.unique(tkey, return_inverse=True)
    best = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best, inv, code)
    return pa.table({"tkey": pa.array(uniq, type=pa.int64()), "code": pa.array(best, type=pa.int64())})


def first_wins(ds, rank_col="src_rank"):
    """Winner-takes-first per tile: min (rank, doc_num) — from_stacked semantics.

    Input: rows with z/x/y, doc_num, and a source-rank column.
    Output: z, x, y, winner_rank, winner_doc.
    """
    from ray.data.aggregate import Min

    partials = ds.map_batches(lambda t: partial_first_wins(t, rank_col), batch_format="pyarrow")
    combined = partials.groupby("tkey").aggregate(Min("code", alias_name="code"))

    def finish(batch: pa.Table) -> pa.Table:
        z, x, y = unpack_tkey(np.asarray(batch["tkey"], dtype=np.int64))
        rank, doc = decode_winner(np.asarray(batch["code"], dtype=np.int64))
        return pa.table(
            {
                "z": pa.array(z, type=pa.int64()),
                "x": pa.array(x, type=pa.int64()),
                "y": pa.array(y, type=pa.int64()),
                "winner_rank": pa.array(rank, type=pa.int64()),
                "winner_doc": pa.array(doc, type=pa.int64()),
            }
        )

    return combined.map_batches(finish, batch_format="pyarrow")


def _stacked_tiles_combine(*sources: pa.Table) -> pa.Table:
    """Per-partition: keep the minimum-rank row per tile key, the rank
    being the source's position (payloads travel with their rows).

    Deterministic even when a tile key repeats at the same rank: the
    lexsort carries a tertiary tie-break (doc_num when present, else a
    hash of the payload bytes) so the surviving row never depends on
    arrival order."""
    table = pa.concat_tables(
        [t.append_column("src_rank", pa.array(np.full(t.num_rows, r),
                                              type=pa.int64()))
         for r, t in enumerate(sources)],
        promote_options="default")
    tkey = np.asarray(table["tkey"], dtype=np.int64)
    rank = np.asarray(table["src_rank"], dtype=np.int64)
    if "doc_num" in table.column_names:
        tie = np.asarray(table["doc_num"], dtype=np.int64)
    elif "payload" in table.column_names:
        from ..core.compression import byte_sizes

        col = table["payload"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # cheap deterministic surrogate: payload length (full content
        # hash only matters when same-rank dup payloads differ at equal
        # length, which the stacked contract treats as equivalent)
        tie = byte_sizes(col)
    else:
        tie = np.zeros(len(tkey), dtype=np.int64)
    order = np.lexsort((tie, rank, tkey))
    keep_mask = np.ones(len(order), dtype=bool)
    keys_sorted = tkey[order]
    keep_mask[1:] = keys_sorted[1:] != keys_sorted[:-1]
    return table.take(pa.array(order[keep_mask]))


def stacked_tiles(sources, num_partitions: int = 8):
    """from_stacked over full tile rows: first-non-null per tile key
    across ranked sources, payload included
    (from_stacked.rs:125-165 semantics; order carried in data — each
    source is its own exchange input and its position becomes the
    output's ``src_rank``, SURVEY.md §7.4 hard part 1). ``sources`` =
    ordered list of (z, x, y, payload, ...) Datasets, first wins.
    """
    from .exchange import hash_exchange

    return hash_exchange(tile_keyed(sources), "tkey", _stacked_tiles_combine,
                         num_partitions=num_partitions)


def partial_merge_sources(batch: pa.Table, rank_col="src_rank") -> pa.Table:
    """Per-batch per-tile: doc count + bitmask of contributing sources."""
    tkey = pack_tkey(
        np.asarray(batch["z"], dtype=np.int64),
        np.asarray(batch["x"], dtype=np.int64),
        np.asarray(batch["y"], dtype=np.int64),
    )
    rank = np.asarray(batch[rank_col], dtype=np.int64)
    assert int(np.max(rank, initial=0)) < 63, "source bitmask supports < 63 sources"
    uniq, inv = np.unique(tkey, return_inverse=True)
    n = np.bincount(inv).astype(np.int64)
    mask = np.zeros(len(uniq), dtype=np.int64)
    np.bitwise_or.at(mask, inv, np.int64(1) << rank)
    return pa.table(
        {
            "tkey": pa.array(uniq, type=pa.int64()),
            "n_docs": pa.array(n, type=pa.int64()),
            "src_mask": pa.array(mask, type=pa.int64()),
        }
    )


def _merge_sources_combine(table: pa.Table) -> pa.Table:
    """Per-partition vectorized merge of per-batch partials: sum doc
    counts and OR source bitmasks per tile key (no per-group Python —
    mirrors combine_tile_stats_block in stages/pyramid.py)."""
    tkey = np.asarray(table["tkey"], dtype=np.int64)
    uniq, inv = np.unique(tkey, return_inverse=True)
    n = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(n, inv, np.asarray(table["n_docs"], dtype=np.int64))
    mask = np.zeros(len(uniq), dtype=np.int64)
    np.bitwise_or.at(mask, inv, np.asarray(table["src_mask"], dtype=np.int64))
    return pa.table(
        {
            "tkey": pa.array(uniq, type=pa.int64()),
            "n_docs": pa.array(n, type=pa.int64()),
            "src_mask": pa.array(mask, type=pa.int64()),
        }
    )


def merge_sources(ds, rank_col="src_rank", source_names=None, num_partitions: int = 8):
    """Per tile: total docs, distinct source count, sorted source list.

    The co-group analogue of from_merged_vector's layer concat: layer
    identity -> source rank bit; merge is an OR so it is
    order-insensitive and mergeable across batches. Combine runs
    through the hash exchange with a vectorized bitwise-OR kernel —
    per-group pandas was the measured-slow path at pyramid scale.
    """
    from .exchange import hash_exchange

    partials = ds.map_batches(lambda t: partial_merge_sources(t, rank_col), batch_format="pyarrow")
    combined = hash_exchange(partials, "tkey", _merge_sources_combine, num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        z, x, y = unpack_tkey(np.asarray(batch["tkey"], dtype=np.int64))
        mask = np.asarray(batch["src_mask"], dtype=np.int64)
        n_sources = np.asarray([bin(int(m)).count("1") for m in mask], dtype=np.int64)
        out = {
            "z": pa.array(z, type=pa.int64()),
            "x": pa.array(x, type=pa.int64()),
            "y": pa.array(y, type=pa.int64()),
            "n_docs": batch["n_docs"],
            "n_sources": pa.array(n_sources, type=pa.int64()),
        }
        if source_names is not None:
            # lexicographic name order (matches SQL string_agg ORDER BY source)
            names = [
                ",".join(sorted(source_names[b] for b in range(63) if int(m) >> b & 1))
                for m in mask
            ]
            out["sources"] = pa.array(names, type=pa.string())
        return pa.table(out)

    return combined.map_batches(finish, batch_format="pyarrow")


def _diff_combine(a: pa.Table, b: pa.Table) -> pa.Table:
    """Per tkey-partition: classify each tile key by presence in A and
    B and BYTE equality of the payloads — only_a / only_b / changed /
    same. Fully vectorized (the module's no-per-group-Python
    discipline): one sort per input, set ops on the keys, one Arrow
    pc.equal over the aligned both-present payload pairs."""
    import pyarrow.compute as pc

    ak, a_order = _sorted_tkeys(a)
    bk, b_order = _sorted_tkeys(b)
    dup = np.concatenate([ak[1:][ak[1:] == ak[:-1]], bk[1:][bk[1:] == bk[:-1]]])
    if len(dup):
        z, x, y = unpack_tkey(dup.min())
        raise ValueError(
            f"diff_tiles: duplicate tile {int(z)}/{int(x)}/{int(y)} "
            "on one side — inputs must be tile-unique")
    keys = np.union1d(ak, bk)
    in_a, in_b = np.isin(keys, ak), np.isin(keys, bk)
    status = np.where(~in_b, "only_a", np.where(~in_a, "only_b", "same")).astype(object)
    both = np.flatnonzero(in_a & in_b)
    if len(both):
        a_idx = a_order[np.searchsorted(ak, keys[both])]
        b_idx = b_order[np.searchsorted(bk, keys[both])]
        eq = np.asarray(pc.equal(
            a["payload"].combine_chunks().take(pa.array(a_idx, type=pa.int64())),
            b["payload"].combine_chunks().take(pa.array(b_idx, type=pa.int64()))))
        status[both[~eq]] = "changed"
    z, x, y = unpack_tkey(keys)
    return pa.table({
        "z": pa.array(z, type=pa.int64()),
        "x": pa.array(x, type=pa.int64()),
        "y": pa.array(y, type=pa.int64()),
        "status": pa.array(status.tolist(), type=pa.string()),
    })


def _sorted_tkeys(t: pa.Table):
    """(sorted tile keys, the row order that sorts them); an input with
    no rows may arrive column-less."""
    tkey = np.asarray(t["tkey"] if t.num_rows else [], dtype=np.int64)
    order = np.argsort(tkey, kind="stable")
    return tkey[order], order


def _add_tkey(batch: pa.Table, columns=None) -> pa.Table:
    tkey = pack_tkey(
        np.asarray(batch["z"], dtype=np.int64),
        np.asarray(batch["x"], dtype=np.int64),
        np.asarray(batch["y"], dtype=np.int64),
    )
    if columns is not None:
        batch = batch.select(columns)
    return batch.append_column("tkey", pa.array(tkey, type=pa.int64()))


def tile_keyed(sources, columns=None):
    """Each tile Dataset with z/x/y packed into ``tkey`` (optionally
    cut to ``columns`` first) — the inputs of every tile co-group
    (stacked_tiles, diff_tiles, stacked_raster, raster_algebra), whose
    exchange keeps each source apart, in order."""
    import functools

    return [src.map_batches(functools.partial(_add_tkey, columns=columns),
                            batch_format="pyarrow")
            for src in sources]


def diff_tiles(a_ds, b_ds, num_partitions: int = 8):
    """Tile-pyramid diff — the incremental-update primitive: one row
    per tile key present on either side with status only_a / only_b /
    changed (byte-unequal payloads) / same. ONE hash exchange co-groups
    A and B on the packed tile key (the stacked_raster topology:
    |A| + |B| rows shuffled exactly once); payload comparison is exact
    bytes, so the result is the minimal update set a re-publish needs
    to ship. Duplicate tile keys on one side fail loudly."""
    from .exchange import hash_exchange

    return hash_exchange(
        tile_keyed([a_ds, b_ds], columns=["z", "x", "y", "payload"]),
        "tkey", _diff_combine, num_partitions=num_partitions)
