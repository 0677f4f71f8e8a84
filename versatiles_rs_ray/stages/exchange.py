"""Hand-rolled hash exchange: split -> route -> combine with raw Ray tasks.

Ray Data's sort-based groupby costs ~60s to exchange 40M small rows on
this box; the aggregation pattern here (combine-by-key where partials
are already per-block combined) needs only a hash partition + per-
partition merge. The engine drops below the Dataset API (SURVEY.md
§7.0: raw tasks as a last resort) here and in three other places:
``stages/curate.deterministic_shuffle`` and ``pack_sequences``, which
rank or carry state over sorted blocks in order, and
``stages/join.build_id_bloom``, a tree-OR of per-block bitmaps;
``tests/test_engine_surface.py`` fails on any other raw-task site. The
exchange keeps the Dataset contract at the output: a Dataset via
``from_arrow_refs`` — blocks never touch the driver.

One entry point, ``hash_exchange``, with one split source: a
Dataset's blocks, streamed into split tasks as the upstream pipeline
produces them. A reduce wave then merges each partition, optionally
with a tiny per-partition ``aux_fn`` side output.

Co-groups: ``hash_exchange`` takes one Dataset or a sequence of them.
Each input streams into its own split tasks, and each reduce calls
the combine with one table per input, in argument order, holding only
that input's own columns. An input none of whose rows hashed to a
partition arrives as a 0-row table with its schema — or with no
columns at all when the input has no rows anywhere and Ray's blocks
do not carry its schema (map_batches emits schema-less blocks for
empty input), so a combine reads an input's columns only when it has
rows, or falls back to a schema its caller read on the driver. So
several inputs share a partition without a side tag, and no input is
padded with another's columns.

Partitioning assumption: `key_col` is int64; routing is by
multiplicative hash so consecutive tile keys spread uniformly. Each
reduce task holds one partition (rows/num_partitions) in memory —
num_partitions is the memory knob, like the reference's block grids
(tile_bbox/iter.rs:63-90).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_HASH_MULT = 0x9E3779B97F4A7C15


def _bucket_of(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    h = keys.astype(np.uint64) * np.uint64(_HASH_MULT)
    return ((h >> np.uint64(33)) % np.uint64(num_partitions)).astype(np.int64)


def _split_block(key_col: str, num_partitions: int, *tables):
    ok = []
    for t in tables:
        if not len(t):  # an empty pandas-backed input passes its DataFrame block through
            continue
        if key_col not in t.column_names:
            raise ValueError(f"hash_exchange: key column {key_col!r} missing "
                             f"from a block with columns {t.column_names}")
        ok.append(t)
    if not ok:
        # Ray emits schema-less (or pandas) empty blocks for empty
        # inputs; route an empty Arrow slice everywhere so concat/reduce
        # schemas stay sane.
        empty = next((t.slice(0, 0) for t in tables if isinstance(t, pa.Table)),
                     pa.table({}))
        return tuple(empty for _ in range(num_partitions))
    table = ok[0] if len(ok) == 1 else pa.concat_tables(ok).combine_chunks()
    keys = np.asarray(table[key_col], dtype=np.int64)
    bucket = _bucket_of(keys, num_partitions)
    order = np.argsort(bucket, kind="stable")
    sorted_tbl = table.take(pa.array(order))
    counts = np.bincount(bucket, minlength=num_partitions)
    offsets = np.zeros(num_partitions + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(counts)
    return tuple(
        sorted_tbl.slice(offsets[b], counts[b]).combine_chunks()
        for b in range(num_partitions)
    )


def _empty_table(ds) -> pa.Table:
    """0-row table with ``ds``'s schema; column-less when it is unknowable."""
    schema = ds.schema()
    if schema is None or not schema.names:
        return pa.table({})
    return pa.table({n: pa.array([], type=t)
                     for n, t in zip(schema.names, schema.types)})


def hash_exchange(ds, key_col: str, combine_block_fn, num_partitions: int = 64,
                  *, aux_fn=None):
    """Hash-partition ``ds`` on ``key_col``; one combined block per partition.

    ``ds`` is one Dataset or a sequence of Datasets that each carry
    ``key_col``. combine_block_fn gets one pa.Table per input, in
    argument order, and returns a pa.Table; it runs once per partition
    (it must be a top-level picklable callable). Each table holds that
    input's rows of the partition, concatenated from every split, with
    only that input's own columns. When none of an input's rows hashed
    to the partition the table is 0-row with the input's schema
    (column-less when the input has no rows anywhere and Ray cannot
    tell its schema; a partition where every table is column-less
    skips the combine and emits that empty table). Routing
    hashes ``key_col`` — to route by something other than the combine
    key, precompute a routing column and pass that as key_col (the
    combine fn sees the full rows either way).

    Split tasks launch as each input's blocks STREAM out of the
    upstream pipeline (``iter_internal_ref_bundles``), overlapping the
    exchange with upstream compute; block groups grow geometrically so
    the driver tracks a bounded number of intermediate objects (~64
    split tasks x num_partitions per input) however many blocks stream
    past.

    ``aux_fn``: each reduce also returns ``aux_fn(combined_table)`` as
    a SECOND object, kept tiny by construction (e.g. one level's rows)
    so the driver can ``ray.get`` all of them without pulling the main
    partitions. With it the result is ``(Dataset, list[ObjectRef])``
    (an empty list for empty input); without it just the Dataset.
    """
    import ray
    import ray.data as rd

    if num_partitions < 2:
        raise ValueError(f"hash_exchange: num_partitions={num_partitions}; "
                         "use a plain map for a single partition")
    inputs = [ds] if isinstance(ds, rd.Dataset) else list(ds)
    per_input = [_stream_splits(d, key_col, num_partitions) for d in inputs]
    if not any(per_input):
        out = _empty_combined(inputs, combine_block_fn)
        return out if aux_fn is None else (out, [])
    # an input with no blocks feeds every partition its 0-row table
    per_input = [s or [[_empty_table(d)] * num_partitions]
                 for s, d in zip(per_input, inputs)]
    sizes = tuple(len(s) for s in per_input)
    split_lists = [s for splits in per_input for s in splits]
    if aux_fn is None:
        reduce_task, fns = ray.remote(_reduce_partition), (combine_block_fn,)
    else:
        reduce_task = ray.remote(num_returns=2)(_reduce_partition_aux)
        fns = (combine_block_fn, aux_fn)
    outs = [
        reduce_task.remote(*fns, sizes, *[s[b] for s in split_lists])
        for b in range(num_partitions)
    ]
    if aux_fn is None:
        return rd.from_arrow_refs(outs)
    return rd.from_arrow_refs([o[0] for o in outs]), [o[1] for o in outs]


def _empty_combined(inputs, combine_block_fn):
    """No-splits fallback: run the combine on each input's 0-row table
    so the output keeps the POST-combine schema (returning an input
    dataset would leak pre-combine columns like the route). When no
    schema is knowable the first input comes back unchanged."""
    import ray.data as rd

    empties = [_empty_table(d) for d in inputs]
    if not any(e.num_columns for e in empties):
        return inputs[0]
    return rd.from_arrow(combine_block_fn(*empties))


def _stream_splits(ds, key_col: str, num_partitions: int):
    """Launch split tasks as upstream blocks stream out; returns the
    per-split lists of num_partitions output refs."""
    import ray

    split_task = ray.remote(num_returns=num_partitions)(_split_block)
    split_lists = []
    pending = []
    group = 8  # blocks per split task; doubles once 48 splits are in flight
    for bundle in ds.iter_internal_ref_bundles():
        pending.extend(bundle.block_refs)
        while len(pending) >= group:
            split_lists.append(
                split_task.remote(key_col, num_partitions, *pending[:group])
            )
            pending = pending[group:]
            if len(split_lists) % 48 == 0:
                group *= 2
    if pending:
        split_lists.append(split_task.remote(key_col, num_partitions, *pending))
    return split_lists


def _reduce_partition_aux(combine_block_fn, aux_fn, sizes, *parts):
    combined = _reduce_partition(combine_block_fn, sizes, *parts)
    return combined, aux_fn(combined)


def _reduce_partition(combine_block_fn, sizes, *parts):
    """``parts`` holds ``sizes[i]`` consecutive split slices per input."""
    tables = []
    for n in sizes:
        tables.append(_merge_parts(parts[:n]))
        parts = parts[n:]
    if not any(t.num_columns for t in tables):
        return tables[0]  # no rows and no schema Ray could tell: nothing to combine
    # an all-empty partition still runs the combine on schema-bearing
    # EMPTY tables, so it emits the same (post-combine) schema as
    # populated ones — otherwise downstream select_columns/unions see
    # heterogeneous blocks (every combine fn is vectorized and handles
    # zero rows)
    return combine_block_fn(*tables)


def _merge_parts(parts) -> pa.Table:
    """One input's slices of a partition as one table (0-row keeps the schema)."""
    full = [p for p in parts if p.num_rows]
    if not full:
        return next((p for p in parts if p.num_columns), parts[0]).slice(0, 0)
    return pa.concat_tables(full, promote_options="default").combine_chunks()
