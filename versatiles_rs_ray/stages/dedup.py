"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Large-scale shapes (ray_guide.md "Aggregation at scale"):
- exact: content hash in map_batches -> groupby(hash) -> min doc keeps;
  the md5 here is the *deterministic oracle-parity* hash (DuckDB md5);
  a production run would swap in xxhash — same topology.
- MinHash/LSH: signatures per batch (vectorized universal hashing) ->
  explode to (band, band_hash, doc) -> groupby band key -> candidate
  pairs inside small groups -> exact-Jaccard verify. Hot buckets are
  bounded by `max_bucket` (documented cap, logged, not silent).
- SimHash: 64-bit signature, 4x16-bit band blocking, Hamming verify.
"""

from __future__ import annotations

import hashlib

import numpy as np
from functools import lru_cache as functools_lru_cache
import pyarrow as pa

_MERSENNE = np.uint64((1 << 61) - 1)
_MAX_BUCKET = 256  # cap on candidate-pair generation per LSH bucket


def md5_hex(texts) -> list:
    return [hashlib.md5((t or "").encode()).hexdigest() for t in texts]


def add_md5_batch(batch: pa.Table) -> pa.Table:
    return batch.append_column("text_md5", pa.array(md5_hex(batch["text"].to_pylist())))


def dedup_exact(docs_ds):
    """Survivors of exact-text dedup: (text_md5, keep_doc = min doc_num)."""
    from ray.data.aggregate import Count, Min

    hashed = docs_ds.map_batches(add_md5_batch, batch_format="pyarrow")
    return hashed.groupby("text_md5").aggregate(
        Min("doc_num", alias_name="keep_doc"), Count(alias_name="n_dupes")
    )


# ---- MinHash -----------------------------------------------------------


def _packed_dup_mask(kk: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """dup[i] == True iff full value vv[i] already occurred earlier in
    its run of equal packed keys kk — EXACT on full values.

    Fast path is the adjacent compare (equal packed keys AND equal
    full values). A run whose truncated low bits collide for two
    DIFFERENT full values ("mixed run") can interleave occurrences so
    equal full values are not adjacent; those runs are detected and
    repaired with a local lexsort over just their elements —
    vanishingly rare (~2^-(64-tag_bits) per element) so the repair
    costs nothing in practice while making the mask exact always."""
    n = len(kk)
    dup = np.zeros(n, dtype=bool)
    if n < 2:
        return dup
    eq_k = kk[1:] == kk[:-1]
    eq_v = vv[1:] == vv[:-1]
    dup[1:] = eq_k & eq_v
    mixed = eq_k & ~eq_v
    if mixed.any():
        run_id = np.cumsum(np.r_[True, ~eq_k]) - 1
        bad = np.unique(run_id[1:][mixed])
        idx = np.flatnonzero(np.isin(run_id, bad))
        sub = np.lexsort((vv[idx], run_id[idx]))
        si = idx[sub]
        sdup = np.zeros(len(si), dtype=bool)
        sdup[1:] = (run_id[si[1:]] == run_id[si[:-1]]) & \
            (vv[si[1:]] == vv[si[:-1]])
        dup[idx] = False
        dup[si] = sdup
    return dup


def _shingle_hashes_flat(texts, k: int):
    """Batch-flattened shingle hashing: per-doc DISTINCT rolling k-byte
    hashes for a whole Arrow string column in one pass.

    Returns ``(flat, starts, counts)`` where
    ``flat[starts[i] : starts[i] + counts[i]]`` is doc i's UNIQUE hash
    set (unordered — every consumer is order-insensitive), the rolling
    polynomial k-byte hashes with short docs zero-padded to one gram,
    with zero per-row Python.
    Every doc yields >= 1 hash (short/empty docs hash one padded gram).
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    b = texts.cast(pa.binary())
    _, off_buf, data_buf = b.buffers()
    offs = np.frombuffer(off_buf, dtype=np.int32)[b.offset : b.offset + len(b) + 1].astype(np.int64)
    data = (
        np.frombuffer(data_buf, dtype=np.uint8)
        if data_buf is not None
        else np.zeros(0, dtype=np.uint8)
    )
    L = np.diff(offs)
    n_win = np.maximum(L - k + 1, 1)  # short docs -> one zero-padded gram
    total = int(n_win.sum())
    n_docs = len(L)
    doc_rep = np.repeat(np.arange(n_docs, dtype=np.int64), n_win)
    run_start = np.zeros(n_docs, dtype=np.int64)
    run_start[1:] = np.cumsum(n_win)[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(run_start, n_win)
    g_start = np.repeat(offs[:-1], n_win) + within

    # Rolling hash over the CONCATENATED byte buffer with k contiguous
    # slice passes (sequential reads, no per-window fancy gather):
    # window w's hash is h_full[w]. Windows that would cross a doc
    # boundary are exactly the ones n_win excludes, EXCEPT short docs
    # (L < k), whose single zero-padded gram is patched after.
    base = np.uint64(1000003)
    nb = len(data)
    m = max(nb - k + 1, 0)
    h_full = np.zeros(max(m, 1), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h_full = h_full * base
            if m:
                h_full[:m] += data[j : m + j]
        h = h_full[np.minimum(g_start, max(m - 1, 0))] if m else \
            np.zeros(total, dtype=np.uint64)
        short = np.flatnonzero(L < k)
        if len(short):
            pos = run_start[short]  # one window per short doc
            hs = np.zeros(len(short), dtype=np.uint64)
            so, sl = offs[short], L[short]
            for j in range(k):
                v = np.where(j < sl, data[np.minimum(so + j, max(nb - 1, 0))]
                             if nb else 0, 0)
                hs = hs * base + v.astype(np.uint64)
            h[pos] = hs

    # distinct per doc via ONE argsort of a packed (doc, hash-bits)
    # key — truncated low bits only merge runs, so the full-width
    # neighbor compare keeps the dedup exact (same trick as the
    # verify intersection). Per-doc output order is by truncated
    # hash (unordered contract; every consumer is order-insensitive).
    bits_doc = max(int(n_docs).bit_length(), 1)
    shift = np.uint64(64 - bits_doc)
    key = (doc_rep.astype(np.uint64) << shift) | (
        h & ((np.uint64(1) << shift) - np.uint64(1)))
    order = np.argsort(key, kind="stable")
    kk, hh, dh = key[order], h[order], doc_rep[order]
    first = ~_packed_dup_mask(kk, hh)
    flat = hh[first]
    counts = np.bincount(dh[first], minlength=n_docs).astype(np.int64)
    starts = np.zeros(n_docs, dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    return flat, starts, counts


def _pair_route(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """THE pair routing hash: every stage that routes a (a, b) pair to
    an exchange partition must produce the identical key or the
    co-location invariant breaks — one helper instead of four inlined
    copies of the two-constant mix."""
    return (
        np.asarray(a).view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ np.asarray(b).view(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    ).view(np.int64)


def _pack_bucket_route(band_id: np.ndarray, band_hash: np.ndarray) -> np.ndarray:
    """One int64 routing key per (band_id, band_hash) bucket, so a
    whole LSH bucket lands in one exchange partition. Collisions only
    co-locate buckets; pair generation still keys on the exact pair."""
    return (
        band_hash.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ (band_id.view(np.uint64) + np.uint64(1)) * np.uint64(0xC2B2AE3D27D4EB4F)
    ).view(np.int64)


class MinHashSignatures:
    """map_batches stage: per-doc MinHash signature -> band rows.

    num_perm hash perms ((a*x + b) wrapping mod 2^64, x the 61-bit
    masked shingle hash — see ``signatures``) applied to the shingle
    set; emitted as (route, band_id, band_hash, doc_num) rows ready
    for the LSH bucket exchange. Permutation constants are
    seeded once in __init__ (per actor), deterministic across the
    cluster. Signatures are computed batch-flattened (one shingle array
    per batch, ``np.minimum.reduceat`` per perm) — no per-doc Python.
    """

    def __init__(self, k=5, num_perm=64, bands=8, seed=42):
        rng = np.random.default_rng(seed)
        self.k = k
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.a = rng.integers(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)

    def signatures(self, texts) -> np.ndarray:
        """(N, num_perm) uint64 signature matrix for an Arrow string col.

        Perm p of shingle x is ``(a[p] * (x & 2^61-1) + b[p]) mod
        2^64`` — plain wrapping multiply-add (a odd-enough from the
        seeded generator): a uniform-ordering hash in two array passes
        per perm where the earlier mod-(2^61-1) chain took six. The
        DuckDB oracle (queries._oracle_minhash_dedup) mirrors this
        formula with the SAME inlined constants, so the two sides stay
        bit-identical. The perm loop blocks at doc boundaries (~128k
        shingles) to keep the per-perm passes cache-resident.
        """
        flat, starts, _counts = _shingle_hashes_flat(texts, self.k)
        sh = flat & _MERSENNE
        n = len(starts)
        # perm-major accumulation (contiguous row writes — a sigs[:, p]
        # column write is 8x cache-line write amplification), one
        # transpose at the end
        sigs_t = np.empty((self.num_perm, n), dtype=np.uint64)
        target = 1 << 17
        ends = np.append(starts[1:], len(sh))
        buf = np.empty(min(len(sh), target + 4096), dtype=np.uint64)
        i0 = 0
        with np.errstate(over="ignore"):
            while i0 < n:
                i1 = int(np.searchsorted(ends, int(starts[i0]) + target,
                                         side="left")) + 1
                i1 = min(max(i1, i0 + 1), n)
                lo, hi = int(starts[i0]), int(ends[i1 - 1])
                sub = sh[lo:hi]
                sub_starts = starts[i0:i1] - lo
                if len(sub) > len(buf):
                    buf = np.empty(len(sub), dtype=np.uint64)
                v = buf[: len(sub)]
                for p in range(self.num_perm):
                    np.multiply(sub, self.a[p], out=v)
                    v += self.b[p]
                    np.minimum.reduceat(v, sub_starts,
                                        out=sigs_t[p, i0:i1])
                i0 = i1
        return np.ascontiguousarray(sigs_t.T)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_num = np.asarray(batch["doc_num"], dtype=np.int64)
        n, bcount = len(doc_num), self.bands
        if n == 0:
            empty = pa.array([], type=pa.int64())
            return pa.table(
                {"route": empty, "band_id": empty, "band_hash": empty, "doc_num": empty}
            )
        sigs = self.signatures(batch["text"])  # (N, P)
        band_hash = np.empty((n, bcount), dtype=np.int64)
        base = np.uint64(1099511628211)
        for bd in range(bcount):
            seg = sigs[:, bd * self.rows_per_band : (bd + 1) * self.rows_per_band]
            h = np.zeros(n, dtype=np.uint64)
            for c in range(seg.shape[1]):
                h = h * base + seg[:, c]
            band_hash[:, bd] = h.astype(np.int64)
        band_id = np.tile(np.arange(bcount, dtype=np.int64), n)
        bh = band_hash.ravel()
        return pa.table(
            {
                "route": pa.array(_pack_bucket_route(band_id, bh), type=pa.int64()),
                "band_id": pa.array(band_id),
                "band_hash": pa.array(bh, type=pa.int64()),
                "doc_num": pa.array(np.repeat(doc_num, bcount), type=pa.int64()),
            }
        )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (numpy 1.x has no
    bitwise_count); unpackbits over the raw bytes."""
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    return np.unpackbits(np.ascontiguousarray(x).view(np.uint8)).reshape(len(x), 64).sum(
        axis=1, dtype=np.int64
    )


def _bucket_pairs_block(table: pa.Table, max_hamming=None) -> pa.Table:
    """One exchange partition: LSH-bucket rows -> candidate doc pairs.

    Fully vectorized (no per-group Python): one lexsort by
    (band_id, band_hash, doc), runs = buckets, within-run pair
    expansion exactly as _gram_pairs_block. Hot buckets are capped at
    the _MAX_BUCKET lowest doc ids — deterministically, and LOGGED
    (silent truncation would read as full coverage). When the rows
    carry a ``simhash`` column and ``max_hamming`` is set, Hamming
    distance is computed per pair (vectorized popcount) and filtered.
    """
    has_sim = "simhash" in table.column_names
    band_id = np.asarray(table["band_id"], dtype=np.int64)
    band_hash = np.asarray(table["band_hash"], dtype=np.int64)
    doc = np.asarray(table["doc_num"], dtype=np.int64)
    sims = np.asarray(table["simhash"], dtype=np.int64) if has_sim else None

    def _empty():
        cols = {
            "route": pa.array([], type=pa.int64()),
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
        }
        if has_sim and max_hamming is not None:
            cols["hamming"] = pa.array([], type=pa.int64())
        return pa.table(cols)

    n = len(doc)
    if n < 2:
        return _empty()
    order = np.lexsort((doc, band_hash, band_id))
    band_id, band_hash, doc = band_id[order], band_hash[order], doc[order]
    if has_sim:
        sims = sims[order]
    # drop consecutive duplicate (bucket, doc) rows (defensive; a doc
    # emits one row per band so these should not occur)
    keep = np.ones(n, dtype=bool)
    keep[1:] = (
        (band_id[1:] != band_id[:-1])
        | (band_hash[1:] != band_hash[:-1])
        | (doc[1:] != doc[:-1])
    )
    if not keep.all():
        band_id, band_hash, doc = band_id[keep], band_hash[keep], doc[keep]
        if has_sim:
            sims = sims[keep]
        n = len(doc)

    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (band_id[1:] != band_id[:-1]) | (band_hash[1:] != band_hash[:-1])
    run_start = np.repeat(
        np.flatnonzero(new_run), np.diff(np.append(np.flatnonzero(new_run), n))
    )
    w = np.arange(n, dtype=np.int64) - run_start
    if int(w.max(initial=0)) >= _MAX_BUCKET:
        import logging

        logging.getLogger(__name__).warning(
            "LSH bucket capped: %d docs > %d; raise bands or _MAX_BUCKET",
            int(w.max()) + 1,
            _MAX_BUCKET,
        )
        keep = w < _MAX_BUCKET  # sorted by doc -> keeps lowest ids
        band_id, band_hash, doc = band_id[keep], band_hash[keep], doc[keep]
        if has_sim:
            sims = sims[keep]
        n = len(doc)
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (band_id[1:] != band_id[:-1]) | (band_hash[1:] != band_hash[:-1])
        run_start = np.repeat(
            np.flatnonzero(new_run), np.diff(np.append(np.flatnonzero(new_run), n))
        )
        w = np.arange(n, dtype=np.int64) - run_start

    total_pairs = int(w.sum())
    if total_pairs == 0:
        return _empty()
    b_idx = np.repeat(np.arange(n, dtype=np.int64), w)
    p_start = np.zeros(n, dtype=np.int64)
    p_start[1:] = np.cumsum(w)[:-1]
    intra = np.arange(total_pairs, dtype=np.int64) - np.repeat(p_start, w)
    a_idx = np.repeat(run_start, w) + intra

    doc_a, doc_b = doc[a_idx], doc[b_idx]  # a < b: runs are doc-sorted
    cols = {}
    if has_sim and max_hamming is not None:
        ham = _popcount64(sims[a_idx].view(np.uint64) ^ sims[b_idx].view(np.uint64))
        m = ham <= max_hamming
        doc_a, doc_b, ham = doc_a[m], doc_b[m], ham[m]
        cols["hamming"] = ham
    route = _pair_route(doc_a, doc_b)
    out = {
        "route": pa.array(route, type=pa.int64()),
        "doc_a": pa.array(doc_a, type=pa.int64()),
        "doc_b": pa.array(doc_b, type=pa.int64()),
    }
    for name, v in cols.items():
        out[name] = pa.array(v, type=pa.int64())
    return pa.table(out)


def _pair_first_block(table: pa.Table) -> pa.Table:
    """Second exchange: deduplicate candidate pairs — keep the first row
    per (doc_a, doc_b) via one lexsort + first-of-run mask (replaces
    the measured-slow groupby(["doc_a","doc_b"]).map_groups(head(1)))."""
    a = np.asarray(table["doc_a"], dtype=np.int64)
    b = np.asarray(table["doc_b"], dtype=np.int64)
    order = np.lexsort((b, a))
    first = np.ones(len(a), dtype=bool)
    asort, bsort = a[order], b[order]
    if len(a) > 1:
        first[1:] = (asort[1:] != asort[:-1]) | (bsort[1:] != bsort[:-1])
    return table.take(pa.array(order[first])).drop_columns(["route"])


@functools_lru_cache(maxsize=8)
def _sig_for(k: int, num_perm: int, bands: int, seed: int):
    return MinHashSignatures(k=k, num_perm=num_perm, bands=bands,
                             seed=seed)


def _sig_rows(batch: pa.Table, k: int, num_perm: int, bands: int,
              seed: int) -> pa.Table:
    """Task-path signature kernel: the 'state' is 2*num_perm seeded
    constants — microseconds to build and lru-cached per worker
    process, so a plain TASK pool serves it with zero actor-spawn
    ramp (the ramp was costing more than the kernel at high
    parallelism) while still scaling to every core the cluster has."""
    return _sig_for(k, num_perm, bands, seed)(batch)


def minhash_candidates(docs_ds, k=5, num_perm=64, bands=8, seed=42, num_partitions=16,
                       sig_concurrency=None):
    """Candidate near-dup pairs (doc_a < doc_b), deduplicated.

    Both wide steps run through the hash exchange with vectorized
    kernels: bucket pair-generation (routed by LSH bucket) and pair
    dedup (routed by pair key) — no Ray groupby, no per-group pandas.

    ``sig_concurrency=None`` (default) runs signatures as plain tasks
    (per-process lru-cached constants, no pool ramp); pass an actor
    tuple only if a deployment needs pinned signature actors.
    """
    import functools

    from .exchange import hash_exchange

    if sig_concurrency is None:
        band_rows = docs_ds.map_batches(
            functools.partial(_sig_rows, k=k, num_perm=num_perm,
                              bands=bands, seed=seed),
            batch_format="pyarrow",
        )
    else:
        band_rows = docs_ds.map_batches(
            MinHashSignatures,
            fn_constructor_kwargs={"k": k, "num_perm": num_perm,
                                   "bands": bands, "seed": seed},
            batch_format="pyarrow",
            concurrency=sig_concurrency,
        )
    pairs = hash_exchange(
        band_rows, "route", _bucket_pairs_block, num_partitions=num_partitions
    )
    return hash_exchange(
        pairs, "route", _pair_first_block, num_partitions=max(2, num_partitions // 2)
    )


# ---- co-partitioned Jaccard verify (scale path) ------------------------

_SH_TYPE = pa.large_list(pa.int64())


def _sh_list_column(texts, k: int) -> pa.LargeListArray:
    """Per-doc unique shingle-hash sets (unordered) as one
    large_list<int64> column (uint64 hashes stored as their int64 bit
    pattern)."""
    flat, _starts, counts = _shingle_hashes_flat(texts, k)
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    return pa.LargeListArray.from_arrays(
        pa.array(offs, type=pa.int64()), pa.array(flat.view(np.int64), type=pa.int64())
    )


def _list_buffers(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) numpy views of a (chunked) large_list column."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = np.asarray(arr.values, dtype=np.int64)
    return offs, vals


def _jv_doc_rows(batch: pa.Table, id_col: str = "doc_num",
                 text_col: str = "text") -> pa.Table:
    n = batch.num_rows
    return pa.table({
        "route": batch[id_col].combine_chunks().cast(pa.int64()),
        "doc_a": pa.nulls(n, pa.int64()),
        "doc_b": pa.nulls(n, pa.int64()),
        "txt": batch[text_col].combine_chunks().cast(pa.string()),
    })


def _jv_pair_rows(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    return pa.table({
        "route": batch["doc_a"].combine_chunks().cast(pa.int64()),
        "doc_a": batch["doc_a"].combine_chunks().cast(pa.int64()),
        "doc_b": batch["doc_b"].combine_chunks().cast(pa.int64()),
        "txt": pa.nulls(n, pa.string()),
    })


def _jv_gather_text(doc_tbl: pa.Table, want: np.ndarray) -> pa.Array:
    """Gather texts for ``want`` doc ids from this partition's doc
    rows; a missing doc behaves like empty text."""
    import pyarrow.compute as pc

    doc_ids = np.asarray(doc_tbl["route"], dtype=np.int64)
    if not len(doc_ids):
        return pa.array([""] * len(want), type=pa.string())
    order = np.argsort(doc_ids, kind="stable")
    sids = doc_ids[order]
    pos = np.minimum(np.searchsorted(sids, want), len(sids) - 1)
    found = sids[pos] == want
    txt = doc_tbl["txt"].combine_chunks().take(
        pa.array(order[pos], type=pa.int64()))
    return pc.if_else(pa.array(found), txt, "")


def _jv_attach_a(table: pa.Table) -> pa.Table:
    """Exchange 1 combine (partition key: doc_a / doc_num): attach
    side-A TEXT to each pair (texts are ~7x smaller than their
    shingle sets — shipping text and re-shingling at the score site
    is what keeps the exchange out of object-store spill at corpus
    scale), re-route the pair by doc_b, and pass the partition's doc
    rows through unchanged (the same hash routes them to the same
    partition in exchange 2)."""
    import pyarrow.compute as pc

    if table.num_rows == 0:
        return table
    is_pair = np.asarray(pc.is_valid(table["doc_a"]))
    doc_tbl = table.filter(pa.array(~is_pair))
    pair_tbl = table.filter(pa.array(is_pair))
    if pair_tbl.num_rows == 0:
        return doc_tbl
    txt_a = _jv_gather_text(doc_tbl,
                            np.asarray(pair_tbl["doc_a"], dtype=np.int64))
    pair_out = pa.table({
        "route": pair_tbl["doc_b"].combine_chunks(),
        "doc_a": pair_tbl["doc_a"],
        "doc_b": pair_tbl["doc_b"],
        "txt": txt_a,
    })
    return pa.concat_tables([doc_tbl, pair_out], promote_options="default")


def _jv_score(table: pa.Table, threshold: float = 0.6,
              k: int = 5) -> pa.Table:
    """Exchange 2 combine (partition key: doc_b / doc_num): attach
    side-B text, shingle BOTH sides locally (vectorized rolling-hash
    over the partition's pair texts), then compute exact Jaccard for
    the whole partition with one lexsort (each side's set is unique,
    so a (pair, hash) run of length 2 == one intersection element),
    filter by threshold."""
    import pyarrow.compute as pc

    def _empty():
        return pa.table({
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64()),
        })

    if table.num_rows == 0 or "doc_a" not in table.column_names:
        return _empty()
    is_pair = np.asarray(pc.is_valid(table["doc_a"]))
    pair_tbl = table.filter(pa.array(is_pair))
    n = pair_tbl.num_rows
    if n == 0:
        return _empty()
    doc_tbl = table.filter(pa.array(~is_pair))
    txt_b = _jv_gather_text(doc_tbl,
                            np.asarray(pair_tbl["doc_b"], dtype=np.int64))
    sh_a = _sh_list_column(pc.fill_null(pair_tbl["txt"].combine_chunks(),
                                        ""), k)
    sh_b = _sh_list_column(txt_b, k)
    a_off, a_val = _list_buffers(sh_a)
    b_off, b_val = _list_buffers(sh_b)
    len_a, len_b = np.diff(a_off), np.diff(b_off)
    rows = np.arange(n, dtype=np.int64)
    tags = np.concatenate([np.repeat(rows, len_a), np.repeat(rows, len_b)])
    vals = np.concatenate([
        a_val[a_off[0] : a_off[-1]] if len(a_val) else a_val,
        b_val[b_off[0] : b_off[-1]] if len(b_val) else b_val,
    ])
    # each side's set is unique, so a (pair, hash) key occurring
    # twice == one intersection element. Counting those via ONE
    # argsort of a packed single uint64 key (pair tag in the high
    # bits, low hash bits below) runs ~6x faster than the equivalent
    # two-key np.lexsort, which used to dominate the whole verify
    # stage; truncated low bits can only create candidate runs, so a
    # full-width value compare on sorted neighbors keeps the count
    # EXACT.
    bits_tag = max(int(n).bit_length(), 1)
    shift = np.uint64(64 - bits_tag)
    u = vals.astype(np.uint64)
    key = (tags.astype(np.uint64) << shift) | (
        u & ((np.uint64(1) << shift) - np.uint64(1)))
    perm = np.argsort(key, kind="stable")
    kk, vv, tt = key[perm], u[perm], tags[perm]
    dup = _packed_dup_mask(kk, vv)
    inter = np.bincount(tt[dup], minlength=n)
    union = len_a + len_b - inter
    jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    keep = jac >= threshold
    kept = pair_tbl.filter(pa.array(keep))
    return pa.table({
        "doc_a": kept["doc_a"].combine_chunks(),
        "doc_b": kept["doc_b"].combine_chunks(),
        "jaccard": pa.array(jac[keep], type=pa.float64()),
    })


def jaccard_verify_exchange(pairs_ds, docs_ds, k: int = 5, threshold: float = 0.6,
                            num_partitions: int = 16, id_col: str = "doc_num",
                            text_col: str = "text"):
    """Exact-Jaccard verify of candidate pairs WITHOUT broadcasting the
    corpus: co-partition pairs and per-doc shingle sets on a shared doc
    key through two hash exchanges (route by doc_a, attach; route by
    doc_b, attach + score). No actor ever holds more than one
    partition's docs; shuffle volume is O(corpus shingle sets + pairs),
    the same class as the LSH signature exchange that produced the
    candidates. Output: (doc_a, doc_b, jaccard >= threshold); the
    tests compare it with a broadcast-dict verify.

    Partitioning assumption: both exchanges use the same key hash and
    ``num_partitions``, so doc rows emitted unchanged from exchange 1
    land in their own partition again in exchange 2.
    """
    import functools

    from .exchange import hash_exchange

    doc_rows = docs_ds.map_batches(
        functools.partial(_jv_doc_rows, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )
    pair_rows = pairs_ds.map_batches(_jv_pair_rows, batch_format="pyarrow")
    routed = pair_rows.union(doc_rows)
    attached = hash_exchange(routed, "route", _jv_attach_a, num_partitions=num_partitions)
    return hash_exchange(
        attached, "route",
        functools.partial(_jv_score, threshold=threshold, k=k),
        num_partitions=num_partitions,
    )


# ---- SimHash -----------------------------------------------------------


class SimHashSignatures:
    """64-bit SimHash over token hashes; emits 4x16-bit blocking bands.

    Vectorized: tokens come from one Arrow whitespace split over the
    whole batch, the word hash runs only over the batch's DICTIONARY
    of unique tokens, and the per-doc ±1 bit accumulation is one
    ``np.add.at`` — no per-word Python in the hot path. Output is
    bit-identical to the per-word definition (sum of signs over all
    token occurrences; bit set iff the sum is positive).

    Word hash: low 8 md5 bytes little-endian — SimHash is
    hash-agnostic, and md5 is the one 128-bit hash DuckDB exposes
    bit-exactly (``md5_number_upper``), which makes the whole operator
    oracle-checkable in SQL (queries._oracle_simhash_dedup)."""

    def __init__(self, seed=42):
        self.seed = seed

    @staticmethod
    def _word_hash(w: str) -> int:
        return int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little")

    def _simhash(self, text: str) -> int:
        """Per-doc reference (kept for tests/documentation)."""
        acc = np.zeros(64, dtype=np.int64)
        for w in (text or "").split():
            h = np.uint64(self._word_hash(w))
            bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            acc += np.where(bits.astype(bool), 1, -1)
        return int(sum((1 << i) for i in range(64) if acc[i] > 0))

    def simhashes(self, texts) -> np.ndarray:
        """(N,) uint64 simhash per doc for an Arrow string column."""
        import pyarrow.compute as pc

        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = len(texts)
        words_list = pc.utf8_split_whitespace(texts)
        lens = np.asarray(pc.list_value_length(words_list), dtype=np.int64)
        flat = pc.list_flatten(words_list)
        word_doc = np.repeat(np.arange(n, dtype=np.int64), lens)
        # Arrow's split can emit empty tokens at string edges; Python's
        # str.split() never does — drop them to keep parity.
        nonempty = np.asarray(pc.utf8_length(flat)) > 0
        if not nonempty.all():
            word_doc = word_doc[nonempty]
            flat = flat.filter(pa.array(nonempty))
        dic = flat.dictionary_encode()
        if isinstance(dic, pa.ChunkedArray):
            dic = dic.combine_chunks()
        vocab = dic.dictionary.to_pylist()
        indices = np.asarray(dic.indices, dtype=np.int64)
        hv = np.fromiter(
            (self._word_hash(w) for w in vocab), dtype=np.uint64, count=len(vocab)
        )
        shifts = np.arange(64, dtype=np.uint64)
        signs = (((hv[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8) * 2 - 1).astype(
            np.int64
        )  # (U, 64) of ±1
        acc = np.zeros((n, 64), dtype=np.int64)
        if len(indices):
            np.add.at(acc, word_doc, signs[indices])
        return ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(axis=1, dtype=np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_num = np.asarray(batch["doc_num"], dtype=np.int64)
        n = len(doc_num)
        if n == 0:
            empty = pa.array([], type=pa.int64())
            return pa.table(
                {
                    "route": empty,
                    "band_id": empty,
                    "band_hash": empty,
                    "doc_num": empty,
                    "simhash": empty,
                }
            )
        sims = self.simhashes(batch["text"])
        band_id = np.tile(np.arange(4, dtype=np.int64), n)
        band_val = np.empty(4 * n, dtype=np.int64)
        for bd in range(4):
            band_val[bd::4] = ((sims >> np.uint64(16 * bd)) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {
                "route": pa.array(_pack_bucket_route(band_id, band_val), type=pa.int64()),
                "band_id": pa.array(band_id),
                "band_hash": pa.array(band_val),
                "doc_num": pa.array(np.repeat(doc_num, 4), type=pa.int64()),
                "simhash": pa.array(np.repeat(sims.astype(np.int64), 4), type=pa.int64()),
            }
        )


def simhash_candidates(docs_ds, max_hamming=3, num_partitions=16):
    """Near-dup pairs by SimHash banding + Hamming verification.

    Same exchange topology as minhash_candidates: bucket pair-gen and
    pair dedup are vectorized hash-exchange combines (Hamming distance
    computed per pair inside the bucket combine, vectorized popcount).
    """
    import functools

    from .exchange import hash_exchange

    rows = docs_ds.map_batches(SimHashSignatures, batch_format="pyarrow", concurrency=(1, 4))
    pairs = hash_exchange(
        rows,
        "route",
        functools.partial(_bucket_pairs_block, max_hamming=max_hamming),
        num_partitions=num_partitions,
    )
    return hash_exchange(
        pairs, "route", _pair_first_block, num_partitions=max(2, num_partitions // 2)
    )


# ---- n-gram Jaccard (exact, oracle-parity) -----------------------------
#
# Reference has no text dedup (SURVEY.md §2.7 "dedup: per-key
# first-wins only"); this is graft surface for the training-data
# pipeline. Topology = inverted-index join, all exact:
#   shingle (vectorized byte windows) -> exchange on gram -> pair-gen
#   within partition -> exchange on pair -> sum intersections ->
#   jaccard filter. Per-doc shingle counts ride along on every row, so
#   no broadcast/lookup join is needed anywhere.

_NGRAM_K_MAX = 15  # gram packs into 2 uint64 with length byte


def _shingle_rows(batch: pa.Table, k: int) -> pa.Table:
    """Distinct k-byte shingles per doc -> (route, hi, lo, doc, n_sh).

    Gram identity is its 16-byte zero-padded form as two uint64s plus
    the gram length in the final pad byte (k <= 15) — injective, no
    hash collisions, and 24 bytes/row through the exchange instead of
    a string column. Byte windows == DuckDB substr() char windows on
    ASCII corpora (the driver tables are ASCII; non-ASCII text still
    dedups correctly, it just isn't SQL-oracle-comparable).
    Fully vectorized: one strided gather builds every window, one
    lexsort dedups per doc.
    """
    assert 2 <= k <= _NGRAM_K_MAX
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    b = texts.cast(pa.binary())
    _, off_buf, data_buf = b.buffers()
    offs = np.frombuffer(off_buf, dtype=np.int32)[b.offset : b.offset + len(b) + 1]
    data = np.frombuffer(data_buf, dtype=np.uint8)
    doc_num = np.asarray(batch["doc_num"], dtype=np.int64)

    L = np.diff(offs).astype(np.int64)
    n_win = np.maximum(L - k + 1, 1)  # short docs -> one whole-text gram
    glen = np.minimum(L, k)
    doc_rep = np.repeat(np.arange(len(L), dtype=np.int64), n_win)
    total = int(n_win.sum())
    run_start = np.zeros(len(L), dtype=np.int64)
    run_start[1:] = np.cumsum(n_win)[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(run_start, n_win)
    g_start = np.repeat(offs[:-1].astype(np.int64), n_win) + within
    g_len = np.repeat(glen, n_win)

    # gather windows into (N, 16) zero-padded, mask tail bytes of
    # short grams, stamp gram length into the spare 16th byte
    idx = g_start[:, None] + np.arange(k, dtype=np.int64)[None, :]
    idx = np.minimum(idx, len(data) - 1 if len(data) else 0)
    pad = np.zeros((total, 16), dtype=np.uint8)
    if len(data):
        pad[:, :k] = data[idx]
    col_mask = np.arange(k, dtype=np.int64)[None, :] >= g_len[:, None]
    pad[:, :k][col_mask] = 0
    pad[:, 15] = g_len.astype(np.uint8)
    u = pad.view(np.uint64).reshape(total, 2)
    hi, lo = u[:, 0].copy(), u[:, 1].copy()

    order = np.lexsort((lo, hi, doc_rep))
    dh, dhi, dlo = doc_rep[order], hi[order], lo[order]
    first = np.ones(total, dtype=bool)
    if total > 1:
        first[1:] = (dh[1:] != dh[:-1]) | (dhi[1:] != dhi[:-1]) | (dlo[1:] != dlo[:-1])
    sel = order[first]
    n_sh = np.bincount(doc_rep[sel], minlength=len(L)).astype(np.int64)

    s_hi = hi[sel].view(np.int64)
    s_lo = lo[sel].view(np.int64)
    route = _pair_route(hi[sel], lo[sel])
    return pa.table(
        {
            "route": pa.array(route, type=pa.int64()),
            "hi": pa.array(s_hi, type=pa.int64()),
            "lo": pa.array(s_lo, type=pa.int64()),
            "doc": pa.array(doc_num[doc_rep[sel]], type=pa.int64()),
            "n_sh": pa.array(n_sh[doc_rep[sel]], type=pa.int64()),
        }
    )


def _gram_pairs_block(table: pa.Table, max_df=None) -> pa.Table:
    """One exchange partition: group rows by gram, emit doc pairs with
    per-partition intersection partial-sums. (a, b) ordered a < b.

    ``max_df``: optional hot-gram cut — a gram shared by more than
    max_df docs is DROPPED entirely (m²/2 pair partials for a
    stop-gram carry almost no Jaccard signal but dominate the shuffle
    at web scale). Routing is by gram, so the per-gram doc frequency
    seen here is the exact global df. Off by default to keep the
    DuckDB oracle comparison exact; when it fires it is LOGGED with
    the dropped-gram count. Dropping grams can only lower ``inter``,
    so pairs may fall below threshold (under-merge) — never
    over-merge."""
    hi = np.asarray(table["hi"], dtype=np.int64)
    lo = np.asarray(table["lo"], dtype=np.int64)
    doc = np.asarray(table["doc"], dtype=np.int64)
    n_sh = np.asarray(table["n_sh"], dtype=np.int64)

    order = np.lexsort((doc, lo, hi))
    hi, lo, doc, n_sh = hi[order], lo[order], doc[order], n_sh[order]
    n = len(doc)
    if max_df is not None and n:
        run_id = np.zeros(n, dtype=np.int64)
        run_id[1:] = np.cumsum((hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1]))
        df = np.bincount(run_id)
        hot = df > max_df
        if hot.any():
            import logging

            logging.getLogger(__name__).warning(
                "ngram max_df cut: dropped %d grams with df > %d (max seen %d)",
                int(hot.sum()),
                max_df,
                int(df.max()),
            )
            keep = ~hot[run_id]
            hi, lo, doc, n_sh = hi[keep], lo[keep], doc[keep], n_sh[keep]
            n = len(doc)
    empty = pa.table(
        {
            "route": pa.array([], type=pa.int64()),
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "inter": pa.array([], type=pa.int64()),
            "n_a": pa.array([], type=pa.int64()),
            "n_b": pa.array([], type=pa.int64()),
        }
    )
    if n == 0:
        return empty
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    run_start = np.repeat(np.flatnonzero(new_run), np.diff(np.append(np.flatnonzero(new_run), n)))
    w = np.arange(n, dtype=np.int64) - run_start  # position within gram run
    total_pairs = int(w.sum())
    if total_pairs == 0:
        return empty
    # element g (the pair's b side) pairs with every earlier element of
    # its run: a indices = run_start[g] .. g-1
    b_idx = np.repeat(np.arange(n, dtype=np.int64), w)
    p_start = np.zeros(n, dtype=np.int64)
    p_start[1:] = np.cumsum(w)[:-1]
    intra = np.arange(total_pairs, dtype=np.int64) - np.repeat(p_start, w)
    a_idx = np.repeat(run_start, w) + intra

    a, b = doc[a_idx], doc[b_idx]
    na, nb = n_sh[a_idx], n_sh[b_idx]
    swap = a > b
    a2 = np.where(swap, b, a)
    b2 = np.where(swap, a, b)
    na2 = np.where(swap, nb, na)
    nb2 = np.where(swap, na, nb)

    # partial-sum intersections per (a, b) within this partition
    order2 = np.lexsort((b2, a2))
    a2, b2, na2, nb2 = a2[order2], b2[order2], na2[order2], nb2[order2]
    firstp = np.ones(total_pairs, dtype=bool)
    firstp[1:] = (a2[1:] != a2[:-1]) | (b2[1:] != b2[:-1])
    starts = np.flatnonzero(firstp)
    inter = np.diff(np.append(starts, total_pairs)).astype(np.int64)
    a3, b3, na3, nb3 = a2[starts], b2[starts], na2[starts], nb2[starts]
    route = _pair_route(a3, b3)
    return pa.table(
        {
            "route": pa.array(route, type=pa.int64()),
            "a": pa.array(a3, type=pa.int64()),
            "b": pa.array(b3, type=pa.int64()),
            "inter": pa.array(inter, type=pa.int64()),
            "n_a": pa.array(na3, type=pa.int64()),
            "n_b": pa.array(nb3, type=pa.int64()),
        }
    )


def _sum_pairs_block(table: pa.Table) -> pa.Table:
    """Second exchange: total intersection per (a, b)."""
    a = np.asarray(table["a"], dtype=np.int64)
    b = np.asarray(table["b"], dtype=np.int64)
    inter = np.asarray(table["inter"], dtype=np.int64)
    n_a = np.asarray(table["n_a"], dtype=np.int64)
    n_b = np.asarray(table["n_b"], dtype=np.int64)
    order = np.lexsort((b, a))
    a, b, inter, n_a, n_b = a[order], b[order], inter[order], n_a[order], n_b[order]
    first = np.ones(len(a), dtype=bool)
    if len(a) > 1:
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(inter, starts) if len(a) else inter
    return pa.table(
        {
            "doc_a": pa.array(a[starts], type=pa.int64()),
            "doc_b": pa.array(b[starts], type=pa.int64()),
            "inter": pa.array(sums, type=pa.int64()),
            "n_a": pa.array(n_a[starts], type=pa.int64()),
            "n_b": pa.array(n_b[starts], type=pa.int64()),
        }
    )


def ngram_jaccard_pairs(
    docs_ds, k: int = 12, threshold: float = 0.5, num_buckets: int = 32, max_df=None
):
    """Exact n-gram Jaccard near-dup pairs over the docs table.

    Returns (doc_a, doc_b, inter, jaccard) for every unordered doc
    pair with jaccard(distinct k-gram sets) >= threshold. EXACT (no
    LSH approximation): the inverted-index join generates a pair
    candidate per shared gram, partial-summed inside each partition
    before the pair exchange — the same combiner-before-shuffle shape
    as the pyramid. Skew: a gram shared by m docs emits m(m-1)/2
    partials; pass ``max_df`` to drop grams shared by more than that
    many docs (exact global df — routing is by gram; logged when it
    fires; off by default so the oracle comparison stays exact).
    """
    import functools

    from .exchange import hash_exchange

    shingles = docs_ds.map_batches(
        functools.partial(_shingle_rows, k=k), batch_format="pyarrow"
    )
    partial_pairs = hash_exchange(
        shingles,
        "route",
        functools.partial(_gram_pairs_block, max_df=max_df),
        num_partitions=num_buckets,
    )
    totals = hash_exchange(
        partial_pairs, "route", _sum_pairs_block, num_partitions=max(2, num_buckets // 4)
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_a" not in t.column_names:
            return pa.table(
                {
                    "doc_a": pa.array([], type=pa.int64()),
                    "doc_b": pa.array([], type=pa.int64()),
                    "inter": pa.array([], type=pa.int64()),
                    "jaccard": pa.array([], type=pa.float64()),
                }
            )
        inter = np.asarray(t["inter"], dtype=np.int64)
        n_a = np.asarray(t["n_a"], dtype=np.int64)
        n_b = np.asarray(t["n_b"], dtype=np.int64)
        j = inter / (n_a + n_b - inter)
        keep = j >= threshold
        return pa.table(
            {
                "doc_a": pa.array(np.asarray(t["doc_a"], dtype=np.int64)[keep], type=pa.int64()),
                "doc_b": pa.array(np.asarray(t["doc_b"], dtype=np.int64)[keep], type=pa.int64()),
                "inter": pa.array(inter[keep], type=pa.int64()),
                "jaccard": pa.array(j[keep], type=pa.float64()),
            }
        )

    return totals.map_batches(finish, batch_format="pyarrow")


# ---- distributed connected components (co-partitioned propagation) -----


def _edges_rows(table: pa.Table) -> pa.Table:
    a = np.asarray(table["doc_a"], dtype=np.int64)
    b = np.asarray(table["doc_b"], dtype=np.int64)
    return pa.table(
        {
            "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
        }
    )


def _split_by(table: pa.Table, col: str, p: int):
    """One routing implementation for the whole engine: the exchange's
    split (same hash, same slicing) — co-partitioning of labels and
    edges is guaranteed by construction, not by parallel code."""
    from .exchange import _split_block

    return _split_block(col, p, table)


def _cc_edges_split(p: int, *tables):
    """Route edge rows by hash(dst) — static across rounds."""
    t = pa.concat_tables([x for x in tables if x.num_rows], promote_options="default") \
        if any(x.num_rows for x in tables) else tables[0]
    return _split_by(t, "dst", p)


def _cc_init_labels(p: int, *tables):
    """Initial labels (doc=src, label=min(src,dst)) routed by hash(doc),
    combined per doc within this partition's slice."""
    ok = [x for x in tables if x.num_rows]
    if not ok:
        empty = pa.table({"doc_num": pa.array([], type=pa.int64()),
                          "label": pa.array([], type=pa.int64())})
        return tuple(empty for _ in range(p))
    t = pa.concat_tables(ok, promote_options="default")
    src = np.asarray(t["src"], dtype=np.int64)
    dst = np.asarray(t["dst"], dtype=np.int64)
    lab = pa.table(
        {
            "doc_num": pa.array(src, type=pa.int64()),
            "label": pa.array(np.minimum(src, dst), type=pa.int64()),
        }
    )
    return tuple(_cc_min_by_doc(x) for x in _split_by(lab, "doc_num", p))


def _cc_min_by_doc(table: pa.Table) -> pa.Table:
    doc = np.asarray(table["doc_num"], dtype=np.int64)
    lab = np.asarray(table["label"], dtype=np.int64)
    if not len(doc):
        return table
    uniq, inv = np.unique(doc, return_inverse=True)
    mn = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(mn, inv, lab)
    return pa.table(
        {"doc_num": pa.array(uniq, type=pa.int64()), "label": pa.array(mn, type=pa.int64())}
    )


def _cc_merge_labels(*slices):
    ok = [s for s in slices if s.num_rows]
    if not ok:
        return slices[0]
    return _cc_min_by_doc(pa.concat_tables(ok, promote_options="default"))


def _cc_merge_edges(*slices):
    """One-time per-partition edge concat, so the static edge set is
    a SINGLE object per partition: the round loop stops re-fetching
    and re-concatenating the same immutable slices every round."""
    ok = [s for s in slices if s.num_rows]
    if not ok:
        return slices[0]
    if len(ok) == 1:
        return ok[0]
    return pa.concat_tables(ok, promote_options="default").combine_chunks()


def _cc_join_flow(labels_p: pa.Table, p: int, *edges_slices):
    """One round, join side: label(dst) flows to src; outputs split by
    hash(src). Co-partitioning guarantees every dst in edges_p has its
    label in labels_p (same hash, same p)."""
    ok = [e for e in edges_slices if e.num_rows]
    if not ok or labels_p.num_rows == 0:
        empty = pa.table({"doc_num": pa.array([], type=pa.int64()),
                          "label": pa.array([], type=pa.int64())})
        return tuple(empty for _ in range(p))
    edges_p = ok[0] if len(ok) == 1 else pa.concat_tables(ok, promote_options="default")
    dst = np.asarray(edges_p["dst"], dtype=np.int64)
    src = np.asarray(edges_p["src"], dtype=np.int64)
    docs = np.asarray(labels_p["doc_num"], dtype=np.int64)  # sorted (from _cc_min_by_doc)
    labs = np.asarray(labels_p["label"], dtype=np.int64)
    pos = np.searchsorted(docs, dst)
    pos = np.minimum(pos, len(docs) - 1)
    lab = labs[pos]
    flowed = pa.table(
        {"doc_num": pa.array(src, type=pa.int64()), "label": pa.array(lab, type=pa.int64())}
    )
    return tuple(_cc_min_by_doc(x) for x in _split_by(flowed, "doc_num", p))


def _cc_combine(labels_p: pa.Table, *flow_slices):
    """One round, reduce side: new label = min(old, flowed); returns
    (new_labels, n_changed)."""
    parts = [labels_p, *[s for s in flow_slices if s.num_rows]]
    merged = _cc_min_by_doc(pa.concat_tables(parts, promote_options="default"))
    # changed count vs old (docs never appear/disappear across rounds)
    old_doc = np.asarray(labels_p["doc_num"], dtype=np.int64)
    old_lab = np.asarray(labels_p["label"], dtype=np.int64)
    new_lab = np.asarray(merged["label"], dtype=np.int64)
    changed = int((old_lab != new_lab).sum()) if len(old_doc) == len(new_lab) else len(new_lab)
    return merged, changed


def propagate_min_labels_exchange(pairs_ds, max_rounds: int = 64, num_partitions: int = 16):
    """Distributed connected components with NO driver-side label map.

    Labels and edges share one hash partitioning (co-partitioned
    join): each round, partition p joins its dst-routed edges against
    its labels (searchsorted — labels are sorted per partition), the
    flowed (src, label) rows split back by hash(src), and a reduce
    takes per-doc mins. The driver only ever sees P change-counts per
    round; no broadcast label dict. Equality with a driver-side
    union-find is pytest-verified.

    Runs until a full round changes nothing (min-label propagation
    needs O(component diameter) rounds); ``max_rounds`` is a safety
    cap and exhausting it RAISES rather than silently returning
    unconverged labels.
    """
    import ray
    import ray.data as rd

    p = num_partitions
    edges_rows = pairs_ds.map_batches(_edges_rows, batch_format="pyarrow")
    refs = edges_rows.to_arrow_refs()
    if not refs:
        return rd.from_arrow(
            pa.table({"doc_num": pa.array([], type=pa.int64()),
                      "group_id": pa.array([], type=pa.int64())})
        )
    split_edges = ray.remote(num_returns=p)(_cc_edges_split)
    init_labels = ray.remote(num_returns=p)(_cc_init_labels)
    merge_labels = ray.remote(_cc_merge_labels)
    join_flow = ray.remote(num_returns=p)(_cc_join_flow)
    combine = ray.remote(num_returns=2)(_cc_combine)

    # shard the one-time split/init over ref groups so no single task
    # holds the whole edge set
    groups = [refs[i : i + 8] for i in range(0, len(refs), 8)]
    edge_lists = [split_edges.remote(p, *g) for g in groups]
    init_lists = [init_labels.remote(p, *g) for g in groups]
    merge_edges = ray.remote(_cc_merge_edges)
    edge_parts = [merge_edges.remote(*[el[i] for el in edge_lists])
                  for i in range(p)]
    label_parts = [merge_labels.remote(*[il[i] for il in init_lists]) for i in range(p)]
    changed = None
    for _ in range(max_rounds):
        flow_lists = [
            join_flow.remote(label_parts[i], p, edge_parts[i]) for i in range(p)
        ]
        outs = [
            combine.remote(label_parts[q], *[fl[q] for fl in flow_lists])
            for q in range(p)
        ]
        label_parts = [o[0] for o in outs]
        changed = sum(ray.get([o[1] for o in outs]))
        if changed == 0:
            break
    if changed:
        raise RuntimeError(
            f"label propagation did not converge in {max_rounds} rounds "
            f"({changed} labels still changing); raise max_rounds — a "
            f"component's diameter exceeds the cap"
        )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_num": t["doc_num"], "group_id": t["label"]})

    return rd.from_arrow_refs(label_parts).map_batches(rename, batch_format="pyarrow")


# ---- benchmark decontamination (eval-overlap removal) -------------------

def benchmark_gram_hashes(bench_ds, k: int, text_col: str = "text") -> np.ndarray:
    """Distinct k-byte shingle hashes of a (small) benchmark set.

    Eval suites are 10^3-10^5 documents, so the distinct-hash array is
    a few MB at most — reduced on the driver from per-block partials
    (each block contributes only its own distinct hashes) and then
    broadcast via ``ray.put``. The big corpus never shuffles.
    """
    def part(batch: pa.Table) -> pa.Table:
        flat, _starts, _counts = _shingle_hashes_flat(batch[text_col], k)
        return pa.table({"h": pa.array(np.unique(flat), type=pa.uint64())})

    parts = bench_ds.map_batches(part, batch_format="pyarrow")
    chunks = [np.asarray(b["h"]) for b in parts.iter_batches(batch_format="pyarrow")]
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.concatenate(chunks))


class Decontaminate:
    """Actor-pool stage: flag corpus documents that share any k-byte
    shingle with a broadcast benchmark set (train/eval-contamination
    removal — the step every LLM data pipeline runs before training;
    no reference analogue, graft surface).

    The sorted benchmark hash array is fetched from the object store
    ONCE per actor; each batch does one vectorized searchsorted
    membership probe over its distinct shingle hashes (the same
    polynomial as MinHash/ngram dedup, `_shingle_hashes_flat`), then a
    per-doc segment sum. Pure map over the corpus: no shuffle, scales
    to any corpus size with a fixed-size broadcast side.
    """

    def __init__(self, bench_ref, k: int, id_col: str = "doc_id",
                 text_col: str = "text"):
        import ray

        self.bench = bench_ref if isinstance(bench_ref, np.ndarray) \
            else ray.get(bench_ref)
        self.k = k
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, starts, counts = _shingle_hashes_flat(batch[self.text_col], self.k)
        if len(self.bench) and len(flat):
            pos = np.searchsorted(self.bench, flat)
            pos = np.minimum(pos, len(self.bench) - 1)
            hit = (self.bench[pos] == flat).astype(np.int64)
        else:
            hit = np.zeros(len(flat), dtype=np.int64)
        c = np.zeros(len(hit) + 1, dtype=np.int64)
        np.cumsum(hit, out=c[1:])
        ends = starts + counts
        n_hits = c[ends] - c[starts]
        return pa.table({
            self.id_col: batch[self.id_col],
            "n_grams": pa.array(counts, type=pa.int64()),
            "n_hits": pa.array(n_hits, type=pa.int64()),
            "contaminated": pa.array(n_hits > 0),
        })


def decontaminate(corpus_ds, bench_ds, k: int = 24, id_col: str = "doc_id",
                  text_col: str = "text", concurrency=4, batch_size: int = 4096):
    """Benchmark-overlap report per corpus doc (keep `contaminated ==
    False` rows to train). Benchmark hashes reduce once on the driver,
    broadcast once, probed per batch — the corpus streams through a
    stateless actor pool."""
    import ray

    bench = benchmark_gram_hashes(bench_ds, k, text_col=text_col)
    ref = ray.put(bench)
    pool = (1, concurrency) if isinstance(concurrency, int) else concurrency
    return corpus_ds.map_batches(
        Decontaminate, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool,
        fn_constructor_kwargs={"bench_ref": ref, "k": k,
                               "id_col": id_col, "text_col": text_col},
    )


# ---- duplicated-substring spans (Lee et al., arXiv:2107.06499 theme) -----

_DS_BASE = np.uint64(1000003)


def _span_hash_rows(batch: pa.Table, k: int, stride: int,
                    id_col: str, text_col: str) -> pa.Table:
    """Every k-byte window hash with its (doc, pos): one strided gather
    over the batch's concatenated bytes (the fingerprint_batch layout),
    k shifted multiply-adds, positions kept instead of min-reduced.
    Docs shorter than k emit nothing (they cannot contain a k-span)."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    import pyarrow.compute as pc

    b = pc.fill_null(texts, "").cast(pa.binary())
    _, off_buf, data_buf = b.buffers()
    offs = np.frombuffer(off_buf, dtype=np.int32)[b.offset : b.offset + len(b) + 1]
    data = np.frombuffer(data_buf, dtype=np.uint8)
    doc_num = np.asarray(batch[id_col], dtype=np.int64)
    L = np.diff(offs).astype(np.int64)
    n_win = np.maximum((L - k) // stride + 1, 0)
    total = int(n_win.sum())
    empty = pa.table({"h": pa.array([], type=pa.int64()),
                      "doc": pa.array([], type=pa.int64()),
                      "pos": pa.array([], type=pa.int64())})
    if total == 0:
        return empty
    run_start = np.zeros(len(L), dtype=np.int64)
    run_start[1:] = np.cumsum(n_win)[:-1]
    within = (np.arange(total, dtype=np.int64)
              - np.repeat(run_start, n_win)) * stride
    w_start = np.repeat(offs[:-1].astype(np.int64), n_win) + within
    # accumulate column-by-column: O(total) working set per step, never
    # the (total x k) gather matrix (at k=24 that transient is ~400x
    # the text bytes and OOMs realistic blocks)
    h = data[w_start].astype(np.uint64)
    for j in range(1, k):
        h *= _DS_BASE
        h += data[w_start + j]
    return pa.table({
        "h": pa.array(h.astype(np.int64), type=pa.int64()),
        "doc": pa.array(np.repeat(doc_num, n_win), type=pa.int64()),
        "pos": pa.array(within, type=pa.int64()),
    })


def _dup_hash_hits(tbl: pa.Table) -> pa.Table:
    """Partition combine #1: keep (doc, pos) rows whose hash occurs in
    >= 2 DISTINCT docs (one lexsort + run detection)."""
    empty = pa.table({"doc": pa.array([], type=pa.int64()),
                      "pos": pa.array([], type=pa.int64())})
    if tbl.num_rows == 0 or "h" not in tbl.column_names:
        return empty
    h = np.asarray(tbl["h"], dtype=np.int64)
    doc = np.asarray(tbl["doc"], dtype=np.int64)
    pos = np.asarray(tbl["pos"], dtype=np.int64)
    order = np.lexsort((doc, h))
    hs, ds_ = h[order], doc[order]
    new_h = np.r_[True, hs[1:] != hs[:-1]]
    new_pair = new_h | np.r_[True, ds_[1:] != ds_[:-1]]
    grp = np.cumsum(new_h) - 1
    ndocs = np.bincount(grp[new_pair])
    keep = ndocs[grp] >= 2
    sel = order[keep]
    return pa.table({"doc": pa.array(doc[sel], type=pa.int64()),
                     "pos": pa.array(pos[sel], type=pa.int64())})


def _merge_islands(tbl: pa.Table, k: int, stride: int) -> pa.Table:
    """Partition combine #2 (routed by doc): per doc, sort hit
    positions and merge runs with gap <= stride into maximal spans
    [start, last + k)."""
    empty = pa.table({"doc": pa.array([], type=pa.int64()),
                      "span_start": pa.array([], type=pa.int64()),
                      "span_end": pa.array([], type=pa.int64())})
    if tbl.num_rows == 0 or "doc" not in tbl.column_names:
        return empty
    doc = np.asarray(tbl["doc"], dtype=np.int64)
    pos = np.asarray(tbl["pos"], dtype=np.int64)
    order = np.lexsort((pos, doc))
    d, p = doc[order], pos[order]
    new = np.r_[True, (d[1:] != d[:-1]) | (p[1:] - p[:-1] > stride)]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], len(p)] - 1
    return pa.table({
        "doc": pa.array(d[starts], type=pa.int64()),
        "span_start": pa.array(p[starts], type=pa.int64()),
        "span_end": pa.array(p[ends] + k, type=pa.int64()),
    })


def duplicate_spans(ds, k: int = 24, stride: int = 1,
                    id_col: str = "doc_num", text_col: str = "text",
                    num_partitions: int = 32):
    """Corpus-internal duplicated-substring detection: for every doc,
    the maximal byte ranges [span_start, span_end) whose every k-byte
    window also appears in at least one OTHER doc — the
    train-data-dedup signal of Lee et al. (2107.06499), which exact
    whole-doc dedup misses (boilerplate headers, quoted passages,
    licence blocks).

    Shape: rolling-hash window rows (pure map) -> exchange on the hash
    -> per-partition >=2-distinct-doc filter (bounds everything
    downstream to actual duplicate hits) -> exchange on the doc ->
    vectorized island merge. 64-bit rolling hashes stand in for the
    bytes (collision odds ~2^-64 per pair; the SQL-oracle pytest
    compares against EXACT substring equality). ``stride`` > 1 probes
    every stride-th window — the scale knob for 100-TB corpora, at the
    cost of span edges rounded inward by up to stride-1 bytes; spans
    whose hits sit exactly stride apart still merge.
    """
    import functools

    from .exchange import hash_exchange

    rows = ds.map_batches(
        functools.partial(_span_hash_rows, k=k, stride=stride,
                          id_col=id_col, text_col=text_col),
        batch_format="pyarrow")
    hits = hash_exchange(rows, "h", _dup_hash_hits,
                         num_partitions=num_partitions)
    return hash_exchange(hits, "doc",
                         functools.partial(_merge_islands, k=k, stride=stride),
                         num_partitions=max(2, num_partitions // 2))


def _rds_tag_docs(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    ids = batch[id_col].cast(pa.int64())
    txt = batch[text_col].cast(pa.string())
    n = batch.num_rows
    neg = pa.array(np.full(n, -1, dtype=np.int64))
    return pa.table({"doc": ids, "text": txt, "span_start": neg,
                     "span_end": neg,
                     "__side": pa.array(np.zeros(n, dtype=np.int8))})


def _rds_tag_spans(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    return pa.table({
        "doc": batch["doc"].cast(pa.int64()),
        "text": pa.array([None] * n, type=pa.string()),
        "span_start": batch["span_start"].cast(pa.int64()),
        "span_end": batch["span_end"].cast(pa.int64()),
        "__side": pa.array(np.ones(n, dtype=np.int8)),
    })


def _rds_combine(tbl: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Partition combine: splice every doc's [start, end) spans out of
    its text in ONE vectorized pass over the partition's concatenated
    bytes (range-diff + cumsum coverage mask, then a boolean gather;
    no per-doc Python)."""
    empty = pa.table({
        id_col: pa.array([], type=pa.int64()),
        text_col: pa.array([], type=pa.string()),
        "n_spans": pa.array([], type=pa.int64()),
        "n_removed": pa.array([], type=pa.int64()),
    })
    if tbl.num_rows == 0 or "__side" not in tbl.column_names:
        return empty
    import pyarrow.compute as pc

    side = tbl["__side"]
    docs = tbl.filter(pc.equal(side, 0))
    spans = tbl.filter(pc.equal(side, 1))
    if docs.num_rows == 0:
        return empty
    ids = np.asarray(docs["doc"], dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    txt = docs["text"].combine_chunks().take(
        pa.array(order, type=pa.int64())).cast(pa.binary())
    _, off_buf, data_buf = txt.buffers()
    offs = np.frombuffer(off_buf, dtype=np.int32)[
        txt.offset: txt.offset + len(txt) + 1].astype(np.int64)
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf else np.zeros(
        0, dtype=np.uint8)
    L = np.diff(offs)
    total = int(offs[-1] - offs[0])
    base = offs[:-1] - offs[0]
    n_spans = np.zeros(len(ids), dtype=np.int64)
    keep = np.ones(total, dtype=bool)
    if spans.num_rows:
        s_doc = np.asarray(spans["doc"], dtype=np.int64)
        row = np.searchsorted(ids, s_doc)
        ok = (row < len(ids)) & (ids[np.minimum(row, len(ids) - 1)] == s_doc)
        row, s_doc = row[ok], s_doc[ok]
        s0 = np.clip(np.asarray(spans["span_start"], dtype=np.int64)[ok],
                     0, L[row])
        s1 = np.clip(np.asarray(spans["span_end"], dtype=np.int64)[ok],
                     0, L[row])
        good = s1 > s0
        row, s0, s1 = row[good], s0[good], s1[good]
        np.add.at(n_spans, row, 1)
        diff = np.zeros(total + 1, dtype=np.int64)
        np.add.at(diff, base[row] + s0, 1)
        np.add.at(diff, base[row] + s1, -1)
        keep = np.cumsum(diff[:-1]) == 0
    kept = data[offs[0]:offs[-1]][keep]
    ck = np.concatenate(([0], np.cumsum(keep)))
    new_len = ck[base + L] - ck[base]
    new_offs = np.concatenate(([0], np.cumsum(new_len))).astype(np.int32)
    out_txt = pa.StringArray.from_buffers(
        len(ids), pa.py_buffer(new_offs.tobytes()),
        pa.py_buffer(kept.tobytes()))
    return pa.table({
        id_col: pa.array(ids, type=pa.int64()),
        text_col: out_txt,
        "n_spans": pa.array(n_spans, type=pa.int64()),
        "n_removed": pa.array(L - new_len, type=pa.int64()),
    })


def remove_duplicate_spans(ds, k: int = 24, stride: int = 1,
                           id_col: str = "doc_num", text_col: str = "text",
                           num_partitions: int = 32, spans_ds=None):
    """End-to-end duplicated-substring REMOVAL (the surgery half of
    Lee et al. 2107.06499 — detection alone is `duplicate_spans`):
    every maximal byte range whose every k-byte window also appears in
    another doc is spliced out of the text. Docs with no duplicated
    spans pass through byte-identical with n_spans = 0.

    Shape: the span table (computed here, or supplied via ``spans_ds``
    when the caller already ran detection) and the doc text
    co-partition by doc id through ONE hash exchange; each partition
    splices with a vectorized coverage mask over its concatenated
    bytes. No broadcast, no driver gather — both sides stream.
    Output: (id_col, text_col cleaned, n_spans, n_removed).
    """
    import functools

    from .exchange import hash_exchange

    if spans_ds is None:
        spans_ds = duplicate_spans(ds, k=k, stride=stride, id_col=id_col,
                                   text_col=text_col,
                                   num_partitions=num_partitions)
    left = ds.map_batches(
        functools.partial(_rds_tag_docs, id_col=id_col, text_col=text_col),
        batch_format="pyarrow")
    right = spans_ds.map_batches(_rds_tag_spans, batch_format="pyarrow")
    return hash_exchange(
        left.union(right), "doc",
        functools.partial(_rds_combine, id_col=id_col, text_col=text_col),
        num_partitions=num_partitions)


# ---- CCNet paragraph-level deduplication ---------------------------------

def _pd_explode(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """One row per paragraph ('\\n'-split line, the CCNet unit):
    (doc, pos, n_par, par, _route=FNV(par)). Vectorized Arrow split;
    an empty text is one empty paragraph (string_split parity)."""
    import pyarrow.compute as pc

    from .curate import _fnv_vec

    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    split = pc.split_pattern(texts, "\n")
    counts = np.asarray(pc.list_value_length(split), dtype=np.int64)
    flat = pc.list_flatten(split)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    ids = np.asarray(batch[id_col], dtype=np.int64)
    doc = np.repeat(ids, counts)
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    pos = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        offs[:-1], counts)
    # paragraphs repeat heavily (that is WHY this stage exists):
    # dictionary-encode first so the per-char FNV loop runs once per
    # DISTINCT paragraph per batch, not once per occurrence
    enc = flat.dictionary_encode()
    h = _fnv_vec(enc.dictionary).view(np.int64)[
        np.asarray(enc.indices, dtype=np.int64)]
    return pa.table({
        "doc": pa.array(doc, type=pa.int64()),
        "pos": pa.array(pos, type=pa.int64()),
        "n_par": pa.array(np.repeat(counts, counts), type=pa.int64()),
        "par": flat,
        "_route": pa.array(h, type=pa.int64()),
    })


def _pd_winners(tbl: pa.Table) -> pa.Table:
    """Per hash-partition: every occurrence of a paragraph hash is
    co-located here; keep only the global first (min (doc, pos)) —
    the CCNet keep rule. Collisions of the 64-bit FNV would merge
    distinct paragraphs (~2^-64 per pair; the hash-keyed trade CCNet
    itself makes with SHA-1 prefixes)."""
    if tbl.num_rows == 0:
        return tbl
    h = np.asarray(tbl["_route"], dtype=np.int64)
    doc = np.asarray(tbl["doc"], dtype=np.int64)
    pos = np.asarray(tbl["pos"], dtype=np.int64)
    order = np.lexsort((pos, doc, h))
    first = np.ones(len(order), dtype=bool)
    first[1:] = h[order][1:] != h[order][:-1]
    keep = order[first]
    return tbl.take(pa.array(keep, type=pa.int64()))


def _pd_rebuild(tbl: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per doc-partition: surviving paragraphs -> rejoined text
    ('\\n', original order). Docs that lost every paragraph emit
    nothing (a fully-duplicate doc is removed, as CCNet does)."""
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return pa.table({
            id_col: pa.array([], type=pa.int64()),
            text_col: pa.array([], type=pa.string()),
            "n_kept": pa.array([], type=pa.int64()),
            "n_par": pa.array([], type=pa.int64()),
        })
    doc = np.asarray(tbl["doc"], dtype=np.int64)
    pos = np.asarray(tbl["pos"], dtype=np.int64)
    order = np.lexsort((pos, doc))
    d = doc[order]
    new = np.ones(len(d), dtype=bool)
    new[1:] = d[1:] != d[:-1]
    starts = np.flatnonzero(new)
    kept = np.diff(np.append(starts, len(d)))
    flat = tbl["par"].take(pa.array(order, type=pa.int64()))
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    offs = np.zeros(len(starts) + 1, dtype=np.int32)
    offs[1:] = np.cumsum(kept)
    lists = pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()), flat)
    joined = pc.binary_join(lists, "\n")
    n_par = np.asarray(tbl["n_par"], dtype=np.int64)[order][starts]
    return pa.table({
        id_col: pa.array(d[starts], type=pa.int64()),
        text_col: joined,
        "n_kept": pa.array(kept, type=pa.int64()),
        "n_par": pa.array(n_par, type=pa.int64()),
    })


def dedup_paragraphs(ds, id_col: str = "doc_id", text_col: str = "text",
                     num_partitions: int = 32):
    """CCNet paragraph-level deduplication (Wenzek et al. 2020): split
    every document on '\\n', keep each distinct paragraph's GLOBAL
    first occurrence (ordered by (doc id, position)), rejoin survivors
    in original order. The boilerplate killer — headers, navbars and
    license blocks repeat across pages and vanish corpus-wide while
    each unique paragraph survives exactly once.

    Shape: two corpus-volume hash exchanges, no broadcast, no driver
    state — explode -> exchange on the paragraph's 64-bit FNV (all
    occurrences co-locate; keep min (doc, pos)) -> exchange on doc id
    (survivors regroup; vectorized ListArray rejoin). Docs that lose
    every paragraph drop from the output (fully-duplicate documents).
    Output: (id_col, text_col deduped, n_kept, n_par).
    """
    import functools

    from .exchange import hash_exchange

    exploded = ds.map_batches(
        functools.partial(_pd_explode, id_col=id_col, text_col=text_col),
        batch_format="pyarrow")
    winners = hash_exchange(exploded, "_route", _pd_winners,
                            num_partitions=num_partitions)
    return hash_exchange(
        winners, "doc",
        functools.partial(_pd_rebuild, id_col=id_col, text_col=text_col),
        num_partitions=num_partitions)


# ---- fuzzy string join (edit distance <= 1) ----------------------------


def _edit1_verify(a_strs, b_strs) -> np.ndarray:
    """Vectorized check: edit distance (Levenshtein over CODEPOINTS,
    DuckDB parity) <= 1 for each (a, b) pair of DISTINCT strings.
    Equal length -> at most one substitution; length diff 1 -> the
    longer with one codepoint removed equals the shorter (first
    mismatch position logic on padded uint32 codepoint matrices)."""
    n = len(a_strs)
    if n == 0:
        return np.zeros(0, dtype=bool)
    la = np.array([len(s) for s in a_strs], dtype=np.int64)
    lb = np.array([len(s) for s in b_strs], dtype=np.int64)
    pad = int(max(la.max(), lb.max())) + 1
    A = np.zeros((n, pad), dtype=np.uint32)
    B = np.zeros((n, pad), dtype=np.uint32)
    for i, s in enumerate(a_strs):
        A[i, :len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    for i, s in enumerate(b_strs):
        B[i, :len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    out = np.zeros(n, dtype=bool)
    same = la == lb
    if same.any():
        mism = ((A != B) & (np.arange(pad)[None, :] < la[:, None])).sum(axis=1)
        out[same] = mism[same] <= 1
    diff = np.abs(la - lb) == 1
    if diff.any():
        # orient: S = shorter, L = longer
        swap = la > lb
        S = np.where(swap[:, None], B, A)
        L = np.where(swap[:, None], A, B)
        ls = np.minimum(la, lb)
        idx = np.arange(pad)[None, :]
        eq = (S == L) | (idx >= ls[:, None])     # prefix equality (padded True)
        # first position where S and L disagree (ls if none)
        p = np.where(eq, pad, idx).min(axis=1)
        p = np.minimum(p, ls)
        # suffix check: for all j in [p, ls): L[j+1] == S[j]
        shift_eq = (L[:, 1:] == S[:, :-1]) | (idx[:, :-1] < p[:, None]) \
            | (idx[:, :-1] >= ls[:, None])
        out[diff] = shift_eq.all(axis=1)[diff]
    return out


def _fuzzy_variant_rows(tbl: pa.Table, max_len: int) -> pa.Table:
    """Per token-partition (distinct tokens): emit (route, variant,
    token) for the token itself plus each single-deletion variant —
    two strings within edit distance 1 ALWAYS share at least one such
    variant (identity for substitutions' common deletion, the shorter
    string itself for insertions). Deletion generation walks the
    bounded VOCABULARY, not the corpus."""
    from .curate import _fnv_vec
    from .text import _token_totals

    t = _token_totals(tbl)
    toks = [s for s in t["token"].to_pylist() if 0 < len(s) <= max_len]
    variants, owners = [], []
    for s in toks:
        variants.append(s)
        owners.append(s)
        for i in range(len(s)):
            variants.append(s[:i] + s[i + 1:])
            owners.append(s)
    if not variants:
        return pa.table({"vroute": pa.array([], type=pa.int64()),
                         "variant": pa.array([], type=pa.string()),
                         "token": pa.array([], type=pa.string())})
    va = pa.array(variants, type=pa.string())
    return pa.table({
        "vroute": pa.array(_fnv_vec(va).view(np.int64), type=pa.int64()),
        "variant": va,
        "token": pa.array(owners, type=pa.string()),
    })


def _fuzzy_pair_block(tbl: pa.Table) -> pa.Table:
    """Per variant-partition: group rows by exact variant string,
    all-pairs of DISTINCT tokens within each (tiny) group, verified
    to true edit distance <= 1. Pairs are byte-ordered (a < b)."""
    empty = pa.table({"proute": pa.array([], type=pa.int64()),
                      "tok_a": pa.array([], type=pa.string()),
                      "tok_b": pa.array([], type=pa.string())})
    if tbl.num_rows == 0:
        return empty
    from .curate import _fnv_vec

    var = tbl["variant"].combine_chunks()
    enc = var.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    toks = tbl["token"].to_pylist()
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    toks = [toks[i] for i in order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    ends = np.r_[starts[1:], len(codes)]
    a_out, b_out = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        grp = sorted(set(toks[s:e]))
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                a_out.append(grp[i])
                b_out.append(grp[j])
    if not a_out:
        return empty
    ok = _edit1_verify(a_out, b_out)
    a_arr = pa.array([a for a, k in zip(a_out, ok) if k], type=pa.string())
    b_arr = pa.array([b for b, k in zip(b_out, ok) if k], type=pa.string())
    if len(a_arr) == 0:
        return empty
    import pyarrow.compute as pc

    key = pc.binary_join_element_wise(a_arr, b_arr, "\x00")
    return pa.table({
        "proute": pa.array(_fnv_vec(key).view(np.int64), type=pa.int64()),
        "tok_a": a_arr,
        "tok_b": b_arr,
    })


def _fuzzy_pair_dedup(tbl: pa.Table) -> pa.Table:
    """Per pair-partition: one row per distinct (tok_a, tok_b) — the
    same pair arises from every shared variant."""
    if tbl.num_rows == 0:
        return tbl.drop_columns(["proute"])
    import pyarrow.compute as pc

    key = pc.binary_join_element_wise(tbl["tok_a"].combine_chunks(),
                                      tbl["tok_b"].combine_chunks(),
                                      "\x00")
    codes = np.asarray(key.dictionary_encode().indices, dtype=np.int64)
    _, first = np.unique(codes, return_index=True)
    return tbl.take(pa.array(np.sort(first), type=pa.int64())) \
        .drop_columns(["proute"])


def fuzzy_token_pairs(docs_ds, column: str = "text", max_len: int = 32,
                      num_partitions: int = 16):
    """Fuzzy string self-join over the corpus vocabulary: every pair
    of DISTINCT tokens with Levenshtein distance <= 1 (spelling
    variants / OCR noise), via deletion-neighborhood hashing — the
    SymSpell candidate rule: two strings within distance 1 always
    share a single-deletion variant (or one IS the other's deletion),
    so candidates group by variant in ONE exchange instead of an
    all-pairs scan. Three exchanges, all vocabulary-sized: token
    totals (dedup to distinct tokens), variant grouping + vectorized
    codepoint verify, pair dedup. Tokens longer than ``max_len``
    codepoints are skipped (documented cap: deletion fan-out is
    len+1 rows per token). Output (tok_a, tok_b), byte-ordered."""
    import functools

    from .exchange import hash_exchange
    from .text import _vocab_partial

    if max_len < 1:
        raise ValueError(f"fuzzy_token_pairs: max_len must be >= 1, got {max_len}")
    parts = docs_ds.map_batches(
        functools.partial(_vocab_partial, column=column),
        batch_format="pyarrow")
    variants = hash_exchange(
        parts, "_route",
        functools.partial(_fuzzy_variant_rows, max_len=max_len),
        num_partitions=num_partitions)
    pairs = hash_exchange(variants, "vroute", _fuzzy_pair_block,
                          num_partitions=num_partitions)
    return hash_exchange(pairs, "proute", _fuzzy_pair_dedup,
                         num_partitions=max(2, num_partitions // 2))
