"""Hand-rolled hash exchange: split -> route -> combine with raw Ray tasks.

Ray Data's sort-based groupby costs ~60s to exchange 40M small rows on
this box; the aggregation pattern here (combine-by-key where partials
are already per-block combined) needs only a hash partition + per-
partition merge. This is the one place the engine drops below the
Dataset API (SURVEY.md §7.0: raw tasks as a last resort), and it keeps
the Dataset contract at the output: a Dataset via ``from_arrow_refs``
— blocks never touch the driver.

One entry point, ``hash_exchange``, with two split sources picked
from its input: a Dataset's blocks streamed into split tasks, or a
list of picklable input specs mapped and split in one fused task
(map-side shuffle write). Everything after the split — the reduce
wave, the optional per-partition ``aux_fn`` side output and empty-
input handling — is shared.

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
# driver-side intermediate-ref budget for the spec-fed exchange
# (len(inputs-after-grouping) x num_partitions <= REF_BUDGET).
# Measured at 400M docs / 64 partitions: raising this to 32768 (417
# tasks, ~27k refs, 417-arg reduce calls) is 2.2x SLOWER than 16384
# (250 tasks, 16k refs) — driver/GCS bookkeeping grows superlinearly
# past ~16k refs, exactly as the round-1 exchange notes warned.
REF_BUDGET = 16384


def _bucket_of(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    h = keys.astype(np.uint64) * np.uint64(_HASH_MULT)
    return ((h >> np.uint64(33)) % np.uint64(num_partitions)).astype(np.int64)


def _split_block(key_col: str, num_partitions: int, *tables):
    ok = [t for t in tables if t.num_rows and key_col in t.column_names]
    if not ok:
        # Ray emits schema-less empty blocks for empty inputs; route an
        # empty slice everywhere so concat/reduce schemas stay sane.
        empty = tables[0].slice(0, 0)
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


def _empty_combined(ds, combine_block_fn):
    """No-splits fallback: run the combine on a 0-row schema-bearing
    table so the output keeps the POST-combine schema (returning the
    input dataset would leak pre-combine columns like the route). When
    the schema is unknowable the input dataset comes back unchanged."""
    import ray.data as rd

    schema = ds.schema()
    if schema is None or not schema.names:
        return ds
    empty = pa.table({n: pa.array([], type=t)
                      for n, t in zip(schema.names, schema.types)})
    return rd.from_arrow(combine_block_fn(empty))


def hash_exchange(source, key_col: str, combine_block_fn, num_partitions: int = 64,
                  *, map_fn=None, aux_fn=None):
    """Hash-partition ``source`` on ``key_col``; one combined block per partition.

    combine_block_fn: pa.Table -> pa.Table, applied once per partition
    after concatenating that partition's slices from every split (it
    must be a top-level picklable callable). Routing hashes
    ``key_col`` — to route by something other than the combine key,
    precompute a routing column and pass that as key_col (the combine
    fn sees the full rows either way).

    The split source follows the input:

    - ``map_fn`` None: ``source`` is a Dataset. Split tasks launch as
      its blocks STREAM out of the upstream pipeline
      (``iter_internal_ref_bundles``), overlapping the exchange with
      upstream compute; block groups grow geometrically so the driver
      tracks a bounded number of intermediate objects (~64 split tasks
      x num_partitions) however many blocks stream past.
    - ``map_fn`` given: ``source`` is a list of picklable input specs
      (shard descriptors, fragment lists) and ``map_fn(spec) ->
      pa.Table`` runs FUSED with its bucket split in one task — the
      map-side shuffle write of Spark/MR: mapper output never
      round-trips through the object store unsplit. Specs are chunked
      so tasks x num_partitions stays <= REF_BUDGET.

    ``aux_fn``: each reduce also returns ``aux_fn(combined_table)`` as
    a SECOND object, kept tiny by construction (e.g. one level's rows)
    so the driver can ``ray.get`` all of them without pulling the main
    partitions. With it the result is ``(Dataset, list[ObjectRef])``
    (an empty list for empty input); without it just the Dataset.
    """
    import ray
    import ray.data as rd

    assert num_partitions >= 2, "use a plain map for a single partition"
    if map_fn is None:
        split_lists = _stream_splits(source, key_col, num_partitions)
    else:
        split_lists = _map_splits(source, map_fn, key_col, num_partitions)
    if not split_lists:
        out = (_empty_combined(source, combine_block_fn) if map_fn is None
               else rd.from_arrow(pa.table({})))
        return out if aux_fn is None else (out, [])
    if aux_fn is None:
        reduce_task, fns = ray.remote(_reduce_partition), (combine_block_fn,)
    else:
        reduce_task = ray.remote(num_returns=2)(_reduce_partition_aux)
        fns = (combine_block_fn, aux_fn)
    outs = [
        reduce_task.remote(*fns, *[s[b] for s in split_lists])
        for b in range(num_partitions)
    ]
    if aux_fn is None:
        return rd.from_arrow_refs(outs)
    return rd.from_arrow_refs([o[0] for o in outs]), [o[1] for o in outs]


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


def _map_split(map_fn, key_col, num_partitions, inp):
    return _split_block(key_col, num_partitions, map_fn(inp))


def _map_splits(inputs, map_fn, key_col: str, num_partitions: int):
    """Launch one fused map+split task per input spec (or chunk of
    specs); returns the per-task lists of num_partitions output refs."""
    import ray

    if hasattr(inputs, "iter_internal_ref_bundles") or hasattr(
            inputs, "map_batches"):
        raise TypeError(
            "hash_exchange(..., map_fn=...) takes a list of picklable input "
            "SPECS (shard descriptors / fragment lists), not a Dataset — a "
            "Dataset would fail deep inside Ray when pickled into the map "
            "task. Call hash_exchange(ds, ...) without map_fn for a Dataset.")
    # chunk inputs if the ref product would swamp the driver
    max_tasks = max(2, REF_BUDGET // num_partitions)
    if len(inputs) > max_tasks:
        group = (len(inputs) + max_tasks - 1) // max_tasks
        grouped = [inputs[i : i + group] for i in range(0, len(inputs), group)]

        def map_many(grp, _fn=map_fn):
            import pyarrow as _pa

            return _pa.concat_tables([_fn(g) for g in grp], promote_options="default")

        inputs, map_fn = grouped, map_many

    map_task = ray.remote(num_returns=num_partitions)(_map_split)
    return [map_task.remote(map_fn, key_col, num_partitions, inp) for inp in inputs]


def _reduce_partition_aux(combine_block_fn, aux_fn, *parts):
    combined = _reduce_partition(combine_block_fn, *parts)
    return combined, aux_fn(combined)


def _reduce_partition(combine_block_fn, *parts):
    tables = [p for p in parts if p is not None and p.num_rows]
    if not tables:
        # run the combine on a schema-bearing EMPTY table so an empty
        # partition emits the same (post-combine) schema as populated
        # ones — otherwise downstream select_columns/unions see
        # heterogeneous blocks (every combine fn is vectorized and
        # handles zero rows)
        with_schema = [p for p in parts if p is not None and p.num_columns]
        if with_schema:
            return combine_block_fn(with_schema[0].slice(0, 0))
        return parts[0]
    merged = pa.concat_tables(tables, promote_options="default").combine_chunks()
    return combine_block_fn(merged)
