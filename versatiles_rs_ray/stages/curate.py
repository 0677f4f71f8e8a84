"""Corpus curation operators for training-data pipelines.

`quota_per_key` caps how many documents any one key (source domain,
site, shard) may contribute — the standard anti-domination step in
web-corpus curation (keep at most N docs per domain, deterministic).
Scale shape: ONE hash exchange on the key (map-side routing, no Ray
groupby), then a vectorized lexsort + rank<N per run inside each
partition — the same first-of-run machinery as the dedup pair paths
(VERDICT round-1 prescription; stages/exchange.py streaming exchange).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.hashing import fmix64
from .exchange import _remote_once, hash_exchange

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def _fnv_vec(arr: pa.Array) -> np.ndarray:
    """Vectorized FNV-1a over a whole Arrow string array: one numpy
    pass per BYTE POSITION (rows still shorter than the position drop
    out), so hashing costs O(total bytes) in numpy kernels instead of
    a per-byte Python loop. Bit-identical to the scalar FNV."""
    b = arr.cast(pa.binary())
    _, off_buf, data_buf = b.buffers()
    offs = np.frombuffer(off_buf, dtype=np.int32)[
        b.offset: b.offset + len(b) + 1].astype(np.int64)
    data = (np.frombuffer(data_buf, dtype=np.uint8)
            if data_buf is not None else np.zeros(0, dtype=np.uint8))
    lengths = np.diff(offs)
    h = np.full(len(lengths), _FNV_OFFSET, dtype=np.uint64)
    starts = offs[:-1]
    max_len = int(lengths.max()) if len(lengths) else 0
    with np.errstate(over="ignore"):  # uint64 wrap IS the FNV algorithm
        for i in range(max_len):
            active = lengths > i
            idx = starts[active] + i
            h[active] = (h[active] ^ data[idx].astype(np.uint64)) * _FNV_PRIME
    return h


def _hash_strings(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic int64 routing hash for a string column.

    Dictionary-encodes first so hashing runs once per DISTINCT key,
    then the vectorized FNV covers the distinct set in O(distinct
    bytes) numpy work — cheap for few-distinct domains (quota keys)
    AND for mostly-distinct ones (span-text dedup keys)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        raise ValueError("curation key column contains nulls; filter or "
                         "fill them before quota_per_key")
    enc = arr.dictionary_encode()
    h = _fnv_vec(enc.dictionary)
    idx = np.asarray(enc.indices, dtype=np.int64)
    return (h[idx] & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def _add_route(batch: pa.Table, key_col: str) -> pa.Table:
    """Routing hash for string OR integer key columns (integer keys —
    packed tile keys in spatial_thin — route by value; the exchange
    applies its own multiplicative mix on top)."""
    kc = batch[key_col]
    if pa.types.is_integer(kc.type):
        arr = kc.combine_chunks() if isinstance(kc, pa.ChunkedArray) else kc
        if arr.null_count:
            raise ValueError("curation key column contains nulls; filter "
                             "or fill them before quota_per_key")
        route = pa.array(np.asarray(arr, dtype=np.int64), type=pa.int64())
    else:
        route = pa.array(_hash_strings(kc), type=pa.int64())
    return batch.append_column("_route", route)


def _local_prune_and_route(batch: pa.Table, key_col: str, order_col: str,
                           n: int) -> pa.Table:
    """Map-side combiner: the global first-n per key is a subset of the
    union of per-batch first-n, so pruning HERE bounds shuffle rows to
    n x distinct-keys per batch regardless of key skew (a zipf-hot
    domain stops dominating the exchange)."""
    return _add_route(_first_n_per_key(batch, key_col, order_col, n), key_col)


def _first_n_per_key(table: pa.Table, key_col: str, order_col: str, n: int) -> pa.Table:
    """Vectorized rank<n per key: one native Arrow sort by (key,
    order), run detection over dictionary codes, positional mask — no
    per-group (or per-element) Python, string order columns included."""
    import pyarrow.compute as pc

    kc = table[key_col].combine_chunks()
    if kc.null_count:
        raise ValueError("curation key column contains nulls; filter or "
                         "fill them before quota_per_key")
    keys = np.asarray(kc.dictionary_encode().indices, dtype=np.int64)
    # dictionary codes are per-table arbitrary, but runs only need
    # EQUALITY grouping; ordering comes from the native Arrow sort.
    # order_col: either one ascending column (quota) or an explicit
    # [(col, direction), ...] list (top-k with tiebreak).
    order_keys = ([(order_col, "ascending")] if isinstance(order_col, str)
                  else list(order_col))
    pos = np.asarray(
        pc.sort_indices(table, sort_keys=[(key_col, "ascending")] + order_keys),
        dtype=np.int64,
    )
    ks = keys[pos]
    m = len(ks)
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new_run)
    run_start = np.repeat(starts, np.diff(np.append(starts, m)))
    keep = (np.arange(m, dtype=np.int64) - run_start) < n
    return table.take(pa.array(pos[keep], type=pa.int64()))


def quota_per_key(ds, key_col: str, order_col: str, n: int, num_partitions: int = 64):
    """Keep at most ``n`` rows per distinct ``key_col`` value, chosen
    deterministically as the first ``n`` by ``order_col``.

    Equivalent SQL: ``row_number() OVER (PARTITION BY key ORDER BY
    order_col) <= n`` — the oracle for the `source_quota` query.
    """
    import functools

    routed = ds.map_batches(
        functools.partial(_local_prune_and_route, key_col=key_col,
                          order_col=order_col, n=n),
        batch_format="pyarrow")
    combine = functools.partial(_first_n_per_key, key_col=key_col,
                                order_col=order_col, n=n)
    out = hash_exchange(routed, "_route", combine, num_partitions=num_partitions)
    return out.drop_columns(["_route"])


def topk_per_key(ds, key_col: str, order_col: str, k: int,
                 tiebreak_col: str, descending: bool = True,
                 num_partitions: int = 64):
    """Top-``k`` rows per key by ``order_col`` (descending by default),
    ties broken ascending on ``tiebreak_col`` (must be unique per key
    for a deterministic result). Same shuffle shape as
    :func:`quota_per_key`: per-batch top-k prune bounds exchange rows
    to k x distinct-keys per batch under any skew, then one exchange +
    per-partition final top-k. Equivalent SQL: ``row_number() OVER
    (PARTITION BY key ORDER BY order_col DESC, tiebreak) <= k``.
    """
    import functools

    order = [(order_col, "descending" if descending else "ascending"),
             (tiebreak_col, "ascending")]
    routed = ds.map_batches(
        functools.partial(_local_prune_and_route, key_col=key_col,
                          order_col=order, n=k),
        batch_format="pyarrow")
    combine = functools.partial(_first_n_per_key, key_col=key_col,
                                order_col=order, n=k)
    out = hash_exchange(routed, "_route", combine, num_partitions=num_partitions)
    return out.drop_columns(["_route"])


# Knuth multiplicative hash constant (2^32 / phi) — reproducible in
# ANSI SQL with plain bigint arithmetic, which is the whole point
_SAMPLE_MULT = 2654435761
_SAMPLE_MOD = 1 << 32


def _empty_from_schema(schema, drop=()) -> pa.Table:
    """ray.data.Schema (names/types wrapper) -> 0-row pyarrow table."""
    return pa.table({n: pa.array([], type=t)
                     for n, t in zip(schema.names, schema.types)
                     if n not in drop})


def _require_ids(batch: pa.Table, id_col: str, op: str) -> np.ndarray:
    col = batch[id_col]
    nc = col.null_count if hasattr(col, "null_count") else 0
    if nc:
        raise ValueError(f"{op} id column contains {nc} nulls")
    ids = np.asarray(col, dtype=np.int64)
    if len(ids) and ids.min() < 0:
        raise ValueError(f"{op} requires non-negative ids")
    return ids


def _sample_batch(batch: pa.Table, id_col: str, rate: float) -> pa.Table:
    ids = _require_ids(batch, id_col, "systematic_sample")
    # uint64 wrap-around IS arithmetic mod 2^64, and
    # (id * M) mod 2^32 == ((id mod 2^64) * M mod 2^64) mod 2^32,
    # so this stays exact for the whole non-negative int64 id range
    bucket = (ids.astype(np.uint64) * np.uint64(_SAMPLE_MULT)) % np.uint64(_SAMPLE_MOD)
    return batch.filter(pa.array(bucket < np.uint64(int(rate * _SAMPLE_MOD))))


def systematic_sample(ds, id_col: str, rate: float):
    """Deterministic ~``rate`` sampling keyed on a NON-NEGATIVE numeric
    id column.

    Each row's fate depends only on its id (Knuth multiplicative hash
    mod 2^32 < rate*2^32): reproducible across runs, cluster sizes and
    engines — the property random sampling lacks for resumable 100-TB
    curation runs. Embarrassingly parallel (pure map, no shuffle).
    Equivalent SQL (HUGEINT avoids BIGINT overflow at large ids):
    ``(id::HUGEINT * 2654435761) % 4294967296 < rate * 2^32``.
    """
    import functools

    return ds.map_batches(
        functools.partial(_sample_batch, id_col=id_col, rate=rate),
        batch_format="pyarrow",
    )


def _split_batch(batch: pa.Table, id_col: str, cuts: tuple, names: tuple,
                 split_col: str) -> pa.Table:
    ids = _require_ids(batch, id_col, "dataset_split")
    bucket = (ids.astype(np.uint64) * np.uint64(_SAMPLE_MULT)) % np.uint64(_SAMPLE_MOD)
    idx = np.searchsorted(np.asarray(cuts, dtype=np.uint64), bucket, side="right")
    labels = pa.array(np.asarray(names, dtype=object)[idx], type=pa.string())
    return batch.append_column(split_col, labels)


def dataset_split(ds, id_col: str, fracs: dict, split_col: str = "split"):
    """Deterministic train/val/test assignment: the same Knuth
    multiplicative hash as :func:`systematic_sample` buckets each id
    into 2^32 slots, carved by cumulative fractions — reproducible
    across runs/cluster sizes/engines, embarrassingly parallel (pure
    map, no shuffle), and every id keeps its split when the dataset
    grows (the property a random or rank-based split lacks for
    resumable 100-TB curation). ``fracs`` maps name -> fraction in
    iteration order; the LAST split absorbs the rounding remainder.
    Equivalent SQL: CASE over ``(id::HUGEINT * 2654435761) % 4294967296``
    against the same cumulative cut points.
    """
    import functools

    names = tuple(fracs)
    return ds.map_batches(
        functools.partial(_split_batch, id_col=id_col,
                          cuts=tuple(split_cuts(fracs)),
                          names=names, split_col=split_col),
        batch_format="pyarrow",
    )


def split_cuts(fracs: dict) -> list:
    """Cumulative 2^32-slot cut points for :func:`dataset_split` — one
    source of truth shared with the SQL oracle so float rounding can
    never diverge between engine and oracle."""
    names = tuple(fracs)
    if len(names) < 2 or abs(sum(fracs.values()) - 1.0) > 1e-9:
        raise ValueError("dataset_split needs >=2 fractions summing to 1")
    cum, cuts = 0.0, []
    for name in names[:-1]:
        cum += fracs[name]
        cuts.append(int(cum * _SAMPLE_MOD))
    return cuts


# 64-bit multiplicative shuffle constant (PCG's LCG multiplier);
# HUGEINT-expressible in SQL, uint64 wrap-exact in numpy
_SHUFFLE_MULT = 6364136223846793005
_SHUFFLE_MOD = 1 << 64


def _add_shuffle_key(batch: pa.Table, id_col: str) -> pa.Table:
    ids = _require_ids(batch, id_col, "deterministic_shuffle")
    key = ids.astype(np.uint64) * np.uint64(_SHUFFLE_MULT)  # wrap = mod 2^64
    return batch.append_column("shuffle_key", pa.array(key, type=pa.uint64()))


def _rank_block(base: int, table: pa.Table) -> pa.Table:
    n = table.num_rows
    if "shuffle_key" in table.column_names:
        table = table.drop_columns(["shuffle_key"])
    return table.append_column(
        "shuffle_rank", pa.array(base + np.arange(n, dtype=np.int64)))


def deterministic_shuffle(ds, id_col: str):
    """Reproducible global shuffle with EXACT ranks — the interleaving
    step of a training-data pipeline (sample order must be independent
    of partitioning/cluster size for resumable runs, which
    `random_shuffle()` is not).

    Shape: key = id * LCG-mult mod 2^64 (pure map) -> one `ds.sort`
    (the unavoidable all-to-all) -> per-block rank assignment with
    bases from the sorted blocks' METADATA row counts (no extra pass
    over the data; blocks never touch the driver — same refs pattern
    as stages/exchange). Equivalent SQL rank:
    ``row_number() OVER (ORDER BY (id::HUGEINT * mult) % 2^64, id)``.
    """
    import functools

    import ray
    import ray.data as rd

    keyed = ds.map_batches(functools.partial(_add_shuffle_key, id_col=id_col),
                           batch_format="pyarrow")
    s = keyed.sort(["shuffle_key", id_col])
    rank_task = _remote_once(ray.remote, _rank_block)
    out_refs = []
    base = 0
    for bundle in s.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows == 0:
                continue  # empty sorts emit schema-LESS blocks: drop them
            out_refs.append(rank_task.remote(base, ref))
            base += meta.num_rows
    if not out_refs:
        # keep the promised schema (shuffle_rank) on empty inputs;
        # ray.data.Schema is a names/types wrapper, not a pyarrow
        # schema — and an empty sort loses it, so fall back to the
        # pre-keyed input's schema
        schema = s.schema()
        if schema is None or not schema.names:
            schema = ds.schema()
        empty = _empty_from_schema(schema, drop=("shuffle_key",))
        empty = empty.append_column("shuffle_rank", pa.array([], type=pa.int64()))
        return rd.from_arrow(empty)
    return rd.from_arrow_refs(out_refs)


def _greedy_pack(tokens: np.ndarray, budget: int, acc: int = 0, seq: int = 0):
    """Greedy sequence packing over ordered docs: close the bin when
    the next doc would exceed `budget` (an oversized doc sits alone).
    O(bins * log n) via searchsorted over the prefix sums; returns
    (seq_ids, carry_acc, next_seq) so blocks can chain exactly."""
    n = len(tokens)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out, acc, seq
    csum = np.cumsum(tokens, dtype=np.int64)
    start = 0
    base = -acc  # tokens already in the open bin count against budget
    while start < n:
        j = int(np.searchsorted(csum, base + budget, side="right")) - 1
        if j < start:  # next doc alone exceeds budget (or open bin full)
            if acc > 0:  # close the carried bin first
                seq += 1
                acc = 0
                base = csum[start - 1] if start else 0
                continue
            j = start
        out[start:j + 1] = seq
        acc += int(csum[j] - (csum[start - 1] if start else 0))
        base = csum[j]
        start = j + 1
        if start < n:  # bin stays open only at block end
            seq += 1
            acc = 0
    return out, acc, seq


def _pack_block(state, table: pa.Table, token_col: str, budget: int):
    acc, seq = state
    if table.num_rows == 0 and token_col not in table.column_names:
        # Ray's sort can emit schema-LESS empty blocks; pass them
        # through (a populated block missing token_col still raises)
        return table.append_column(
            "seq_id", pa.array([], type=pa.int64())), state
    toks = np.asarray(table[token_col], dtype=np.int64)
    # negative counts would make the prefix sum non-monotonic and the
    # searchsorted bin boundaries silently wrong — reject, like
    # _require_ids does for ids
    if len(toks) and toks.min() < 0:
        raise ValueError(f"pack_sequences: negative value in {token_col!r} "
                         "(token counts must be >= 0)")
    ids, acc, seq = _greedy_pack(toks, budget, acc, seq)
    return table.append_column("seq_id", pa.array(ids, type=pa.int64())), (acc, seq)


def pack_sequences(ds, token_col: str, budget: int, order_col: str,
                   exact_global: bool = True):
    """Pack rank-ordered docs into training sequences of <= `budget`
    tokens (greedy, deterministic) — the assembly step after
    deterministic_shuffle.

    exact_global=True chains the sorted blocks through tiny carry
    states (acc, next_seq): bit-identical to a single global greedy
    pass (the recursive-CTE oracle), blocks never touching the driver
    but processed sequentially in time. For 100-TB runs set
    exact_global=False: each sorted block packs independently with
    seq_id = (block_idx << 32) | local — fully parallel, bins never
    span workers (the standard practice trade-off).
    """
    import ray
    import ray.data as rd

    s = ds.sort(order_col)
    pack_task = _remote_once(ray.remote, _pack_block).options(num_returns=2)
    out_refs = []
    if exact_global:
        # carry state threads block-to-block as an ObjectRef: the
        # chain never touches the driver, Ray schedules each link as
        # its predecessor's state lands
        state = (0, 0)
        for bundle in s.iter_internal_ref_bundles():
            for ref, meta in zip(bundle.block_refs, bundle.metadata):
                if meta.num_rows == 0:
                    continue  # schema-less empty sort blocks
                out, state = pack_task.remote(state, ref, token_col, budget)
                out_refs.append(out)
    else:
        block_idx = 0
        for bundle in s.iter_internal_ref_bundles():
            for ref, meta in zip(bundle.block_refs, bundle.metadata):
                if meta.num_rows == 0:
                    continue  # schema-less empty sort blocks
                out, _ = pack_task.remote((0, block_idx << 32), ref,
                                          token_col, budget)
                out_refs.append(out)
                block_idx += 1
    if not out_refs:
        # preserve the INPUT columns on the empty path, like the
        # non-empty path does (plus seq_id); empty sorts lose the
        # schema, so fall back to the input's
        schema = s.schema()
        if schema is None or not schema.names:
            schema = ds.schema()
        empty = _empty_from_schema(schema)
        empty = empty.append_column("seq_id", pa.array([], type=pa.int64()))
        return rd.from_arrow(empty)
    return rd.from_arrow_refs(out_refs)


def _q_partial(batch: pa.Table, key_col: str, value_col: str) -> pa.Table:
    """(key, value) -> count partials: the whole batch collapses to its
    distinct (key, value) pairs before anything is shuffled. NULL
    values are dropped (DuckDB quantile_disc ignores NULLs; an
    unguarded np.asarray over a null-bearing Arrow column would read
    garbage)."""
    if batch[value_col].null_count:
        batch = batch.filter(pc.is_valid(batch[value_col]))
    kc = batch[key_col].combine_chunks() if isinstance(
        batch[key_col], pa.ChunkedArray) else batch[key_col]
    enc = kc.dictionary_encode()
    kcodes = np.asarray(enc.indices, dtype=np.int64)
    vals = np.asarray(batch[value_col], dtype=np.int64)
    span = np.int64(len(np.unique(vals)) + 1)
    uv = np.unique(vals)
    vr = np.searchsorted(uv, vals)
    packed = kcodes * span + vr
    uniq, inv = np.unique(packed, return_inverse=True)
    cnt = np.bincount(inv).astype(np.int64)
    k_idx = (uniq // span).astype(np.int64)
    v_idx = (uniq % span).astype(np.int64)
    return pa.table({
        key_col: enc.dictionary.take(pa.array(k_idx)).cast(pa.string()),
        value_col: pa.array(uv[v_idx], type=pa.int64()),
        "_cnt": pa.array(cnt, type=pa.int64()),
        "_route": pa.array(_fnv_vec(
            enc.dictionary.take(pa.array(k_idx)).cast(pa.string())
        ).astype(np.int64) & np.int64(0x7FFFFFFFFFFFFFFF), type=pa.int64()),
    })


def _q_combine(tbl: pa.Table, key_col: str, value_col: str, qs: tuple) -> pa.Table:
    """Per partition: merge (key, value) counts, then DuckDB
    quantile_disc semantics — the element at index
    max(ceil(q*n) - 1, 0) of each key's sorted multiset — found with
    ONE searchsorted over the global cumulative counts per q."""
    import math

    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        cols = {key_col: pa.array([], type=pa.string())}
        for q in qs:
            cols[f"q{int(q * 100)}"] = pa.array([], type=pa.int64())
        return pa.table(cols)
    pos = np.asarray(pc.sort_indices(
        tbl, sort_keys=[(key_col, "ascending"), (value_col, "ascending")]),
        dtype=np.int64)
    keys = np.asarray(tbl[key_col].combine_chunks().dictionary_encode()
                      .indices, dtype=np.int64)[pos]
    vals = np.asarray(tbl[value_col], dtype=np.int64)[pos]
    cnts = np.asarray(tbl["_cnt"], dtype=np.int64)[pos]
    # merge duplicate (key, value) rows arriving from different batches
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (vals[1:] != vals[:-1])
    grp = np.cumsum(new) - 1
    # int64 accumulation (np.add.at), not float bincount weights: the
    # "exact" guarantee must hold past 2^53 per merged (key,value) pair
    m_cnt = np.zeros(int(grp[-1]) + 1, dtype=np.int64)
    np.add.at(m_cnt, grp, cnts)
    first = np.flatnonzero(new)
    m_keys, m_vals = keys[first], vals[first]
    run_new = np.ones(len(m_keys), dtype=bool)
    run_new[1:] = m_keys[1:] != m_keys[:-1]
    run_start = np.flatnonzero(run_new)
    cum = np.cumsum(m_cnt)
    base = np.concatenate(([0], cum))[run_start]
    n_per_key = np.add.reduceat(m_cnt, run_start)
    out = {key_col: tbl[key_col].take(pa.array(pos[first[run_start]]))}
    for q in qs:
        target = np.maximum(
            np.ceil(q * n_per_key.astype(np.float64)).astype(np.int64) - 1, 0)
        rows = np.searchsorted(cum, base + target + 1, side="left")
        out[f"q{int(q * 100)}"] = pa.array(m_vals[rows], type=pa.int64())
    return pa.table(out)


def quantile_by_key(ds, key_col: str, value_col: str, qs=(0.5,),
                    num_partitions: int = 32):
    """EXACT distributed quantiles of an integer-valued column per key
    (DuckDB ``quantile_disc`` semantics), with no global sort: each
    batch collapses to (key, value) count partials (bounded by the
    value domain, the classic counting trick for discrete columns —
    lengths, scores, token counts), one exchange co-locates each key's
    histogram, and a searchsorted over cumulative counts reads off
    every quantile. Output: key + one ``q<pct>`` int64 column per q.
    """
    import functools

    parts = ds.map_batches(
        functools.partial(_q_partial, key_col=key_col, value_col=value_col),
        batch_format="pyarrow")
    out = hash_exchange(
        parts, "_route",
        functools.partial(_q_combine, key_col=key_col, value_col=value_col,
                          qs=tuple(qs)),
        num_partitions=num_partitions)
    return out


def _dc_partial(batch: pa.Table, key_col: str, value_col: str) -> pa.Table:
    """Distinct (key, value-hash) partials: the batch collapses to its
    distinct pairs before the shuffle (FNV-64 stands in for the value;
    a collision would need ~2^32 distinct values per key). NULL values
    are dropped, matching DuckDB count(DISTINCT) which ignores NULLs
    (keys are already null-guarded by _hash_strings)."""
    if batch[value_col].null_count:
        batch = batch.filter(pc.is_valid(batch[value_col]))
    kc = batch[key_col].combine_chunks() if isinstance(
        batch[key_col], pa.ChunkedArray) else batch[key_col]
    vc = batch[value_col].combine_chunks() if isinstance(
        batch[value_col], pa.ChunkedArray) else batch[value_col]
    kh = _hash_strings(kc)
    vh = _fnv_vec(vc.cast(pa.string())).view(np.int64)
    packed = np.stack([kh, vh], axis=1)
    uniq, idx = np.unique(packed, axis=0, return_index=True)
    return pa.table({
        key_col: kc.take(pa.array(idx, type=pa.int64())),
        "_vh": pa.array(uniq[:, 1], type=pa.int64()),
        "_route": pa.array(uniq[:, 0], type=pa.int64()),
    })


def _dc_combine(tbl: pa.Table, key_col: str, out_col: str) -> pa.Table:
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return pa.table({key_col: pa.array([], type=pa.string()),
                         out_col: pa.array([], type=pa.int64())})
    pos = np.asarray(pc.sort_indices(
        tbl, sort_keys=[(key_col, "ascending"), ("_vh", "ascending")]),
        dtype=np.int64)
    keys = np.asarray(tbl[key_col].combine_chunks().dictionary_encode()
                      .indices, dtype=np.int64)[pos]
    vh = np.asarray(tbl["_vh"], dtype=np.int64)[pos]
    new_pair = np.ones(len(keys), dtype=bool)
    new_pair[1:] = (keys[1:] != keys[:-1]) | (vh[1:] != vh[:-1])
    new_key = np.ones(len(keys), dtype=bool)
    new_key[1:] = keys[1:] != keys[:-1]
    kstart = np.flatnonzero(new_key)
    n_distinct = np.add.reduceat(new_pair.astype(np.int64), kstart)
    return pa.table({
        key_col: tbl[key_col].take(pa.array(pos[kstart])),
        out_col: pa.array(n_distinct, type=pa.int64()),
    })


def distinct_by_key(ds, key_col: str, value_col: str,
                    out_col: str = "n_distinct", num_partitions: int = 32):
    """EXACT count(DISTINCT value) per key: per-batch distinct-pair
    collapse -> one exchange on the key -> run counting. Shuffle volume
    is O(distinct pairs), never O(rows)."""
    import functools

    parts = ds.map_batches(
        functools.partial(_dc_partial, key_col=key_col, value_col=value_col),
        batch_format="pyarrow")
    return hash_exchange(
        parts, "_route",
        functools.partial(_dc_combine, key_col=key_col, out_col=out_col),
        num_partitions=num_partitions)


# ---- HyperLogLog (Flajolet-Fuss-Gandouet-Meunier 2007) ------------------


def _hll_hash(vc: pa.Array) -> np.ndarray:
    # FNV-1a's HIGH bits avalanche poorly (observed: rho collapses to 1
    # and the estimate craters); murmur3's fmix64 finalizer fixes the
    # bit distribution the index/rho split depends on
    return fmix64(_fnv_vec(vc.cast(pa.string())))


def _hll_idx_rho(h: np.ndarray, p: int):
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    # rho = leading zeros of the remaining 64-p bits + 1
    nbits = 64 - p
    rho = np.full(len(h), nbits + 1, dtype=np.uint8)
    nz = rest != 0
    # leading-zero count via float64 exponent would lose precision
    # past 2^53; shift-count loop over BITS (<= 64 vector passes)
    lz = np.zeros(int(nz.sum()), dtype=np.int64)
    r = rest[nz]
    for shift in (32, 16, 8, 4, 2, 1):
        m = r < (np.uint64(1) << np.uint64(64 - shift))
        lz[m] += shift
        r[m] = r[m] << np.uint64(shift)
    rho[nz] = np.minimum(lz + 1, nbits + 1).astype(np.uint8)
    return idx, rho


def _hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:  # small-range: linear counting
        est = m * np.log(m / zeros)
    return float(est)


def _hll_key_partial(batch: pa.Table, key_col: str, value_col: str,
                     p: int) -> pa.Table:
    """Per-KEY HLL register partials: one (key, 2^p-byte regs) row per
    distinct key per batch — sized for low-cardinality keys (langs,
    sources), where the partial stays a few KB per batch."""
    if batch[value_col].null_count:
        batch = batch.filter(pc.is_valid(batch[value_col]))
    kc = batch[key_col].combine_chunks() if isinstance(
        batch[key_col], pa.ChunkedArray) else batch[key_col]
    vc = batch[value_col].combine_chunks() if isinstance(
        batch[value_col], pa.ChunkedArray) else batch[value_col]
    enc = kc.dictionary_encode()
    kcodes = np.asarray(enc.indices, dtype=np.int64)
    nkeys = len(enc.dictionary)
    m = 1 << p
    regs = np.zeros(nkeys * m, dtype=np.uint8)
    h = _hll_hash(vc)
    if len(h):
        idx, rho = _hll_idx_rho(h, p)
        np.maximum.at(regs, kcodes * m + idx, rho)
    blobs = [regs[k * m:(k + 1) * m].tobytes() for k in range(nkeys)]
    return pa.table({
        key_col: enc.dictionary.cast(pa.string()),
        "regs": pa.array(blobs, type=pa.binary()),
    })


def approx_distinct_by_key(ds, key_col: str, value_col: str,
                           p: int = 12) -> dict:
    """Per-key HyperLogLog distinct estimates (driver register merge —
    partials are nkeys x 2^p bytes per batch, bounded by construction
    for low-cardinality keys). Returns {key: estimate}."""
    import functools

    m = 1 << p
    parts = ds.map_batches(
        functools.partial(_hll_key_partial, key_col=key_col,
                          value_col=value_col, p=p),
        batch_format="pyarrow")
    merged: dict = {}
    for b in parts.iter_batches(batch_format="pyarrow"):
        for key, blob in zip(b[key_col].to_pylist(), b["regs"].to_pylist()):
            r = np.frombuffer(blob, dtype=np.uint8)
            if key in merged:
                np.maximum(merged[key], r, out=merged[key])
            else:
                merged[key] = r.copy()
    return {k: _hll_estimate(r) for k, r in merged.items()}


def _stratified_batch(batch: pa.Table, id_col: str, key_col: str,
                      fractions: dict, default: float) -> pa.Table:
    ids = _require_ids(batch, id_col, "stratified_sample")
    bucket = (ids.astype(np.uint64) * np.uint64(_SAMPLE_MULT)) \
        % np.uint64(_SAMPLE_MOD)
    keys = np.asarray(batch[key_col].to_pandas(), dtype=object)
    uniq, inv = np.unique(keys, return_inverse=True)
    thr = np.array(
        [int(float(fractions.get(k, default)) * _SAMPLE_MOD) for k in uniq],
        dtype=np.uint64)
    return batch.filter(pa.array(bucket < thr[inv]))


def stratified_sample(ds, id_col: str, key_col: str, fractions: dict,
                      default: float = 0.0):
    """Deterministic PER-KEY sampling: each stratum (``key_col``
    value) keeps its own fraction of rows, decided by the same Knuth
    multiplicative id hash as :func:`systematic_sample` — the standard
    corpus-mixing move (upsample rare languages, downsample dominant
    ones) without a shuffle: pure map, reproducible across runs,
    cluster sizes and engines, resumable mid-corpus.

    Equivalent SQL: ``(id::HUGEINT * 2654435761) % 4294967296 <
    CASE key WHEN ... THEN frac * 2^32 ... ELSE default * 2^32 END``.
    """
    import functools

    return ds.map_batches(
        functools.partial(_stratified_batch, id_col=id_col,
                          key_col=key_col, fractions=dict(fractions),
                          default=float(default)),
        batch_format="pyarrow",
    )


def temperature_fractions(counts: dict, temperature: float,
                          base_rate: float = 1.0) -> dict:
    """Temperature-flattened mixture fractions (the multilingual-LM
    sampling move: weight strata by count^(1/T)): per-key KEEP
    fraction ``min(1, base_rate * (n_k / n_max) ** (1/T - 1))``,
    anchored so the LARGEST stratum keeps exactly base_rate. T=1 is a
    plain uniform downsample; T -> inf equalizes expected per-key
    rows at base_rate * n_max. The float chain (int->double division,
    libm pow, multiply, min) is written identically in the SQL mirror,
    so the derived 2^32 cut integers match exactly."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if not counts:
        return {}
    m = max(counts.values())
    expo = 1.0 / float(temperature) - 1.0
    return {k: min(1.0, float(base_rate) * (n / m) ** expo)
            for k, n in counts.items()}


def key_counts(ds, key_col: str) -> dict:
    """Per-key row counts via per-batch dictionary-encode partials and
    a driver merge — bounded by the number of DISTINCT keys (strata
    are languages/sources: tiny), not rows."""
    import pyarrow.compute as pc

    def part(batch: pa.Table) -> pa.Table:
        enc = batch[key_col].combine_chunks().dictionary_encode()
        cnt = pc.value_counts(enc.indices)
        return pa.table({
            key_col: enc.dictionary.take(cnt.field("values")).cast(pa.string()),
            "_n": cnt.field("counts").cast(pa.int64()),
        })

    out = {}
    for b in ds.map_batches(part, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        for k, n in zip(b[key_col].to_pylist(), b["_n"].to_pylist()):
            out[k] = out.get(k, 0) + int(n)
    return out


def temperature_sample(ds, id_col: str, key_col: str, temperature: float,
                       base_rate: float = 1.0, counts: dict | None = None):
    """Two-pass temperature mixture sampling: pass A reduces the corpus
    to per-key counts (driver-side dict, bounded by distinct strata),
    pass B re-streams through :func:`stratified_sample` with the
    temperature-flattened fractions. Deterministic id-hash fate per
    row — reproducible at any cluster size, resumable mid-corpus."""
    fr = temperature_fractions(
        counts if counts is not None else key_counts(ds, key_col),
        temperature, base_rate)
    return stratified_sample(ds, id_col, key_col, fr, default=0.0)
