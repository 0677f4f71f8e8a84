"""Dedup operators: planted duplicates must be found; exact dedup
matches a pandas brute force."""

import numpy as np
import pytest
import pandas as pd
import pyarrow as pa

from versatiles_rs_ray.stages import dedup

from oracles import dup_groups_driver, jaccard_verify, shingle_hashes


def _planted_ds(ray_session):
    """60 docs: 3 exact-dup groups, 2 near-dup pairs, rest unique."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(200)]
    texts, ids = [], []
    for i in range(50):
        texts.append(" ".join(rng.choice(words, size=30)))
        ids.append(i)
    # exact duplicates of docs 0, 1, 2
    for j, src in enumerate([0, 1, 2]):
        texts.append(texts[src])
        ids.append(50 + j)
    # near duplicates of docs 3, 4 (one word changed)
    for j, src in enumerate([3, 4]):
        toks = texts[src].split()
        toks[5] = "CHANGED"
        texts.append(" ".join(toks))
        ids.append(53 + j)
    t = pa.table(
        {
            "doc_num": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    return rd.from_arrow(t), texts, ids


def test_dedup_exact(ray_session):
    ds, texts, ids = _planted_ds(ray_session)
    got = dedup.dedup_exact(ds).to_pandas()
    assert len(got) == 52  # 55 docs - 3 exact duplicates (near-dups differ)
    # brute force
    df = pd.DataFrame({"doc_num": ids, "text": texts})
    brute = df.groupby("text").agg(keep_doc=("doc_num", "min"), n=("doc_num", "size"))
    assert len(got) == len(brute)
    assert sorted(got["keep_doc"]) == sorted(brute["keep_doc"])
    assert got["n_dupes"].sum() == len(df)


def test_minhash_finds_planted_dups(ray_session):
    ds, texts, ids = _planted_ds(ray_session)
    cand = dedup.minhash_candidates(ds, k=5, num_perm=64, bands=16)
    verified = jaccard_verify(pa.Table.from_pandas(cand.to_pandas(), preserve_index=False),
                              dict(zip(ids, texts)), threshold=0.5).to_pandas()
    pairs = set(map(tuple, verified[["doc_a", "doc_b"]].values))
    assert {(0, 50), (1, 51), (2, 52)} <= pairs  # exact dups always survive
    assert {(3, 53), (4, 54)} <= pairs  # near dups (1 word / 30 changed)
    # no false positives below threshold
    assert (verified["jaccard"] >= 0.5).all()


def test_jaccard_verify_exchange_equals_broadcast(ray_session):
    """The co-partitioned verify (no corpus broadcast) must produce the
    SAME (pair, jaccard) set as a verify against the whole corpus as
    one driver-side dict."""
    ds, texts, ids = _planted_ds(ray_session)
    cand = dedup.minhash_candidates(ds, k=5, num_perm=64, bands=16)
    broadcast = jaccard_verify(pa.Table.from_pandas(cand.to_pandas(), preserve_index=False),
                               dict(zip(ids, texts)), threshold=0.5).to_pandas()
    cand2 = dedup.minhash_candidates(ds, k=5, num_perm=64, bands=16)
    exchanged = dedup.jaccard_verify_exchange(
        cand2, ds, threshold=0.5, num_partitions=4
    ).to_pandas()
    want = {(a, b): j for a, b, j in
            zip(broadcast.doc_a, broadcast.doc_b, broadcast.jaccard)}
    got = {(a, b): j for a, b, j in
           zip(exchanged.doc_a, exchanged.doc_b, exchanged.jaccard)}
    assert set(got) == set(want)
    for pair, j in got.items():
        assert j == want[pair], pair  # bit-exact: same shingle polynomial


def test_simhash_finds_exact_dups(ray_session):
    ds, texts, ids = _planted_ds(ray_session)
    got = dedup.simhash_candidates(ds, max_hamming=3).to_pandas()
    pairs = set(map(tuple, got[["doc_a", "doc_b"]].values))
    assert {(0, 50), (1, 51), (2, 52)} <= pairs
    assert (got["hamming"] <= 3).all()


def _brute_jaccard_pairs(texts: dict, k: int, threshold: float):
    """Reference implementation: python sets of byte k-grams."""
    def grams(t):
        b = t.encode()
        if len(b) < k:
            return {b}
        return {b[i : i + k] for i in range(len(b) - k + 1)}

    sets = {d: grams(t) for d, t in texts.items()}
    out = {}
    docs = sorted(sets)
    for i, a in enumerate(docs):
        for b in docs[i + 1 :]:
            inter = len(sets[a] & sets[b])
            if inter == 0:
                continue
            j = inter / len(sets[a] | sets[b])
            if j >= threshold:
                out[(a, b)] = (inter, j)
    return out


def test_ngram_jaccard_vs_bruteforce(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "omega", "tile"]
    texts = {}
    base = " ".join(rng.choice(words, 40))
    for d in range(30):
        if d % 3 == 0:
            # near-dup of base: flip a couple of words
            w = base.split()
            w[d % len(w)] = "mut%d" % d
            texts[d] = " ".join(w)
        else:
            texts[d] = " ".join(rng.choice(words, 30))
    texts[100] = "short"      # < k
    texts[101] = "short"      # identical short doc -> jaccard 1.0
    texts[102] = ""           # empty

    t = pa.table(
        {
            "doc_num": pa.array(sorted(texts), type=pa.int64()),
            "text": pa.array([texts[d] for d in sorted(texts)], type=pa.string()),
        }
    )
    ds = rd.from_arrow(t)
    got = dedup.ngram_jaccard_pairs(ds, k=8, threshold=0.3, num_buckets=4).to_pandas()
    got_pairs = {
        (int(r.doc_a), int(r.doc_b)): (int(r.inter), float(r.jaccard))
        for r in got.itertuples()
    }
    want = _brute_jaccard_pairs(texts, 8, 0.3)
    assert got_pairs.keys() == want.keys()
    for p, (inter, j) in want.items():
        gi, gj = got_pairs[p]
        assert gi == inter, p
        assert abs(gj - j) < 1e-12, p
    assert (100, 101) in want  # identical short docs found


def test_propagate_labels_exchange_matches_driver_unionfind(ray_session):
    import ray.data as rd

    # chains + a clique + singleton pair: chains force multiple rounds
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5),        # path -> component min 1
             (10, 11), (11, 12),                    # path -> 10
             (20, 21), (20, 22), (21, 22),          # clique -> 20
             (30, 31),
             # ids near 2^62: an int64 sum of their offers would wrap
             (2**62 + 5, 2**62 + 3), (2**62 + 3, 2**62 + 9), (2**62 + 9, 2**62 + 1),
             (-5, -9), (-9, -1), (-1, -100),        # negative ids -> -100
             (7, 7)]                                # self-pair -> 7
    df = pd.DataFrame({"doc_a": [a for a, _ in pairs], "doc_b": [b for _, b in pairs]})
    want = dup_groups_driver(df).sort_values("doc_num").reset_index(drop=True)

    ds = rd.from_pandas(df)
    got = (
        dedup.propagate_min_labels_exchange(ds, num_partitions=4)
        .to_pandas()
        .sort_values("doc_num")
        .reset_index(drop=True)
    )
    assert got[["doc_num", "group_id"]].equals(want[["doc_num", "group_id"]])
    # the convergence test's sum is exact where one int64 sum wraps
    assert dedup._lab_sum(pa.table({"lab": [2**62] * 4 + [-3]})) == 2**64 - 3

    # and with the default partitioning (16 partitions)
    got2 = (
        dedup.propagate_min_labels_exchange(rd.from_pandas(df))
        .to_pandas()
        .sort_values("doc_num")
        .reset_index(drop=True)
    )
    assert got[["doc_num", "group_id"]].equals(got2[["doc_num", "group_id"]])


def test_propagate_labels_exchange_long_chain(ray_session):
    import ray.data as rd

    # a 15-hop path: needs ~14 propagation rounds — exercises the
    # run-to-convergence loop (a fixed 10-round cap returned wrong
    # labels for exactly this shape)
    pairs = [(i, i + 1) for i in range(100, 115)]
    df = pd.DataFrame({"doc_a": [a for a, _ in pairs], "doc_b": [b for _, b in pairs]})
    got = (
        dedup.propagate_min_labels_exchange(rd.from_pandas(df), num_partitions=4)
        .to_pandas()
        .sort_values("doc_num")
        .reset_index(drop=True)
    )
    assert (got["group_id"] == 100).all() and len(got) == 16

    # safety cap raises instead of silently returning unconverged labels
    import pytest

    with pytest.raises(RuntimeError, match="did not converge"):
        dedup.propagate_min_labels_exchange(
            rd.from_pandas(df), max_rounds=3, num_partitions=4
        )


def test_vectorized_kernels_match_perdoc_reference():
    """Round-2 parity gate: the batch-flattened MinHash/SimHash kernels
    must produce BIT-IDENTICAL signatures to the round-1 per-doc
    definitions (so candidate pairs are unchanged)."""
    texts = [
        "hello world foo bar",
        "",
        "ab",
        "hello world foo baz",
        "  spaced   out  ",
        "xxx",
        "repeat repeat repeat",
        "a much longer document " * 10,
    ]
    col = pa.array(texts, type=pa.string())

    flat, starts, counts = dedup._shingle_hashes_flat(col, 5)
    for i, t in enumerate(texts):
        ref = shingle_hashes(t, 5)
        got = flat[starts[i] : starts[i] + counts[i]]
        assert np.array_equal(np.sort(ref), np.sort(got)), i

    ms = dedup.MinHashSignatures(k=5, num_perm=64, bands=8)
    sigs = ms.signatures(col)
    for i, t in enumerate(texts):
        sh = shingle_hashes(t, 5) & dedup._MERSENNE
        with np.errstate(over="ignore"):
            vals = ms.a[:, None] * sh[None, :] + ms.b[:, None]
        assert np.array_equal(sigs[i], vals.min(axis=1)), i

    ss = dedup.SimHashSignatures()
    got = ss.simhashes(col)
    ref = np.array([ss._simhash(t) for t in texts], dtype=np.uint64)
    assert np.array_equal(got, ref)

    x = np.random.default_rng(0).integers(0, 2**63, 100, dtype=np.uint64)
    assert np.array_equal(dedup._popcount64(x), [bin(int(v)).count("1") for v in x])


def test_candidate_pairs_identical_to_round1_shape(ray_session):
    """The exchange-based candidate pipeline must emit exactly the pair
    set of the brute-force LSH definition (bucket -> all unordered
    pairs, deduplicated across bands)."""
    ds, texts, ids = _planted_ds(ray_session)
    col = pa.array(texts, type=pa.string())
    ms = dedup.MinHashSignatures(k=5, num_perm=64, bands=16)
    sigs = ms.signatures(col)
    rows_per_band = 64 // 16
    buckets = {}
    base = np.uint64(1099511628211)
    for i, d in enumerate(ids):
        for bd in range(16):
            seg = sigs[i, bd * rows_per_band : (bd + 1) * rows_per_band]
            h = np.uint64(0)
            for v in seg:
                h = h * base + np.uint64(v)
            buckets.setdefault((bd, int(h.astype(np.int64))), set()).add(d)
    want = set()
    for docs in buckets.values():
        docs = sorted(docs)
        for ii, a in enumerate(docs):
            for b in docs[ii + 1 :]:
                want.add((a, b))
    got = dedup.minhash_candidates(ds, k=5, num_perm=64, bands=16, num_partitions=4).to_pandas()
    got_pairs = set(zip(got["doc_a"].astype(int), got["doc_b"].astype(int)))
    assert got_pairs == want

    # simhash: same check with hamming filter
    ss = dedup.SimHashSignatures()
    sims = ss.simhashes(col)
    sbuckets = {}
    for i, d in enumerate(ids):
        for bd in range(4):
            key = (bd, int((sims[i] >> np.uint64(16 * bd)) & np.uint64(0xFFFF)))
            sbuckets.setdefault(key, []).append(i)
    want_s = {}
    for idxs in sbuckets.values():
        idxs = sorted(idxs, key=lambda i: ids[i])
        for ii, a in enumerate(idxs):
            for b in idxs[ii + 1 :]:
                ham = bin(int(sims[a] ^ sims[b])).count("1")
                if ham <= 3:
                    want_s[(ids[a], ids[b])] = ham
    got_s = dedup.simhash_candidates(ds, max_hamming=3, num_partitions=4).to_pandas()
    got_s_pairs = {
        (int(r.doc_a), int(r.doc_b)): int(r.hamming) for r in got_s.itertuples()
    }
    assert got_s_pairs == want_s


def test_ngram_max_df_drops_hot_grams(ray_session):
    """max_df: a gram shared by every doc is dropped (logged), pairs
    that only shared the hot gram disappear; exact path unchanged."""
    import ray.data as rd

    common = "ZZZZZZZZ"  # k=8 -> exactly one shared gram per doc
    texts = {i: f"doc{i:04d}" + common for i in range(6)}
    t = pa.table(
        {
            "doc_num": pa.array(sorted(texts), type=pa.int64()),
            "text": pa.array([texts[d] for d in sorted(texts)], type=pa.string()),
        }
    )
    exact = dedup.ngram_jaccard_pairs(
        rd.from_arrow(t), k=8, threshold=0.01, num_buckets=4
    ).to_pandas()
    assert len(exact) == 15  # all C(6,2) pairs share the ZZZ gram
    cut = dedup.ngram_jaccard_pairs(
        rd.from_arrow(t), k=8, threshold=0.01, num_buckets=4, max_df=3
    ).to_pandas()
    assert len(cut) == 0  # the only shared gram was hot -> dropped


def test_quota_per_key(ray_session):
    """Per-key quota: first n by order within each key, deterministic,
    exchange-shaped (no Ray groupby). Includes a heavily skewed key."""
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import quota_per_key

    rows = []
    for i in range(500):
        rows.append({"doc_id": i, "source": "hot"})  # skewed key
    for i in range(3):
        rows.append({"doc_id": 1000 + i, "source": "cold"})
    rows.append({"doc_id": 2000, "source": "single"})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = quota_per_key(ds, "source", "doc_id", 4).to_pandas()
    by = {k: sorted(g.doc_id) for k, g in out.groupby("source")}
    assert by == {"hot": [0, 1, 2, 3], "cold": [1000, 1001, 1002],
                  "single": [2000]}
    # string order column path
    rows2 = [{"k": "a", "o": f"x{j:02d}"} for j in range(9, -1, -1)]
    ds2 = rd.from_arrow(pa.Table.from_pylist(rows2))
    out2 = quota_per_key(ds2, "k", "o", 2).to_pandas()
    assert sorted(out2.o) == ["x00", "x01"]


def test_deterministic_shuffle(ray_session):
    """Exact global ranks, independent of input partitioning (the
    property training-resume needs; Ray random_shuffle lacks it)."""
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import deterministic_shuffle

    ids = np.arange(1000, dtype=np.int64)
    ds1 = rd.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    a = deterministic_shuffle(ds1, "doc_id").to_pandas().sort_values("doc_id")
    b = (deterministic_shuffle(ds1.repartition(17), "doc_id")
         .to_pandas().sort_values("doc_id"))
    assert (a.shuffle_rank.to_numpy() == b.shuffle_rank.to_numpy()).all()
    # ranks are a permutation of 0..n-1 and match the reference hash order
    assert sorted(a.shuffle_rank) == list(range(1000))
    key = ids.astype(np.uint64) * np.uint64(6364136223846793005)
    want = np.empty(1000, dtype=np.int64)
    want[np.lexsort((ids, key))] = np.arange(1000)
    assert (a.shuffle_rank.to_numpy() == want).all()


def test_curate_null_and_empty_guards(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import (
        _add_shuffle_key, _first_n_per_key, deterministic_shuffle,
        systematic_sample)

    t = pa.table({"k": pa.array(["a", None]), "o": pa.array([1, 2])})
    with pytest.raises(ValueError, match="null"):
        _first_n_per_key(t, "k", "o", 1)
    tn = pa.table({"doc_id": pa.array([1, None], type=pa.int64())})
    with pytest.raises(ValueError, match="null"):
        _add_shuffle_key(tn, "doc_id")
    ds = rd.from_arrow(pa.table({"doc_id": pa.array([], type=pa.int64())}))
    out = deterministic_shuffle(ds, "doc_id")
    assert out.count() == 0
    assert "shuffle_rank" in out.schema().names  # promised schema kept
    assert systematic_sample(ds, "doc_id", 0.5).count() == 0


def test_greedy_pack_kernel():
    from versatiles_rs_ray.stages.curate import _greedy_pack

    # reference greedy (matches the recursive-CTE oracle semantics)
    def ref(tokens, budget):
        seq, acc, out = 0, 0, []
        for i, t in enumerate(tokens):
            if i == 0:
                acc = t
            elif acc + t > budget:
                seq += 1
                acc = t
            else:
                acc += t
            out.append(seq)
        return out

    rng = np.random.default_rng(11)
    for trial in range(50):
        toks = rng.integers(0, 15, rng.integers(1, 60)).astype(np.int64)
        budget = int(rng.integers(1, 20))
        got, acc, seq = _greedy_pack(toks, budget)
        assert got.tolist() == ref(toks, budget), (toks.tolist(), budget)
    # chaining across arbitrary splits == one global pass
    toks = rng.integers(0, 15, 200).astype(np.int64)
    whole, _, _ = _greedy_pack(toks, 17)
    cut = sorted(rng.choice(199, 4, replace=False) + 1)
    parts, state = [], (0, 0)
    prev = 0
    for c in list(cut) + [200]:
        ids, acc, seq = _greedy_pack(toks[prev:c], 17, *state)
        parts.append(ids)
        state = (acc, seq)
        prev = c
    assert np.concatenate(parts).tolist() == whole.tolist()


def test_pack_block_rejects_negative_tokens():
    import pyarrow as pa
    import pytest

    from versatiles_rs_ray.stages.curate import _pack_block

    t = pa.table({"tok": pa.array([5, -1, 3], type=pa.int64())})
    with pytest.raises(ValueError, match="negative"):
        _pack_block((0, 0), t, "tok", 100)


def test_knn_cosine_partials_reject_duplicate_qids():
    import pytest

    from versatiles_rs_ray.stages.embed import CosineTopKPartial
    from versatiles_rs_ray.stages.join import KnnPartial

    with pytest.raises(ValueError, match="unique q_ids"):
        KnnPartial([1, 1], [0.0, 1.0], [0.0, 1.0], k=1)
    with pytest.raises(ValueError, match="unique q_ids"):
        CosineTopKPartial([2, 2], np.ones((2, 4)), k=1)


def test_pack_sequences_modes(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import pack_sequences

    n = 500
    rng = np.random.default_rng(3)
    t = pa.table({"rank": pa.array(np.arange(n, dtype=np.int64)),
                  "tok": pa.array(rng.integers(1, 40, n).astype(np.int64))})
    ds = rd.from_arrow(t).repartition(7)
    exact = pack_sequences(ds, "tok", 100, "rank").to_pandas().sort_values("rank")
    # per-sequence budget respected (no doc exceeds 40 < 100, so strict)
    sums = exact.groupby("seq_id").tok.sum()
    assert (sums <= 100).all()
    # sequence ids are contiguous along rank order
    sid = exact.seq_id.to_numpy()
    assert (np.diff(sid) >= 0).all() and sid[0] == 0
    assert len(np.unique(sid)) == sid[-1] + 1
    # partitioned mode: bins disjoint, budget still respected per bin
    part = pack_sequences(ds, "tok", 100, "rank",
                          exact_global=False).to_pandas()
    psums = part.groupby("seq_id").tok.sum()
    assert (psums <= 100).all()
    assert len(part) == n


def test_decontaminate_flags_overlap(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import decontaminate

    k = 8
    bench_txt = "the secret benchmark answer string nobody should train on"
    corpus = [
        ("c0", "totally unrelated words with zero overlap whatsoever!!"),
        ("c1", "prefix junk " + bench_txt[10:30] + " suffix junk"),  # shares k-grams
        ("c2", bench_txt),                                           # full overlap
        ("c3", "another clean doc about tiles pyramids and rasters"),
    ]
    bench_ds = rd.from_arrow(pa.table({"doc_id": ["b0"], "text": [bench_txt]}))
    corpus_ds = rd.from_arrow(pa.table(
        {"doc_id": [c[0] for c in corpus], "text": [c[1] for c in corpus]}))
    out = decontaminate(corpus_ds, bench_ds, k=k).to_pandas().set_index("doc_id")
    assert not out.loc["c0", "contaminated"]
    assert out.loc["c1", "contaminated"]
    assert out.loc["c2", "contaminated"]
    assert not out.loc["c3", "contaminated"]
    # full-overlap doc: every one of its distinct grams hits
    assert out.loc["c2", "n_hits"] == out.loc["c2", "n_grams"]
    # partial doc: some but not all grams hit
    assert 0 < out.loc["c1", "n_hits"] < out.loc["c1", "n_grams"]


def test_decontaminate_empty_benchmark(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import decontaminate

    bench_ds = rd.from_arrow(pa.table(
        {"doc_id": pa.array([], type=pa.string()),
         "text": pa.array([], type=pa.string())}))
    corpus_ds = rd.from_arrow(pa.table(
        {"doc_id": ["c0"], "text": ["anything at all goes here"]}))
    out = decontaminate(corpus_ds, bench_ds, k=8).to_pandas()
    assert out["n_hits"].tolist() == [0]
    assert out["contaminated"].tolist() == [False]


# ---- duplicate_spans (duplicated-substring detection) ---------------------


def test_duplicate_spans_crafted(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import duplicate_spans

    shared = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"  # 36 bytes
    docs = pa.table({
        "doc_num": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            "aaa" + shared + "bbb",          # shared block mid-doc
            shared + "cccccccc",             # shared block at start
            "totally unique text with nothing repeated anywhere at all..",
            "short",                          # < k: no windows
        ], type=pa.string()),
    })
    out = duplicate_spans(rd.from_arrow(docs), k=24, num_partitions=4) \
        .to_pandas().sort_values(["doc", "span_start"]).reset_index(drop=True)
    got = list(map(tuple, out.itertuples(index=False)))
    # every k-window inside `shared` duplicates across docs 1 and 2
    assert got == [(1, 3, 3 + 36), (2, 0, 36)]


def test_duplicate_spans_matches_duckdb_exact(ray_session, sf_dir):
    """Hash-based spans == EXACT substring-equality spans (DuckDB
    gaps-and-islands over duplicated k-substrings) on the real
    sf0.001 documents table."""
    import duckdb
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import duplicate_spans

    k = 24
    out = duplicate_spans(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"]),
        k=k, id_col="doc_id", num_partitions=8,
    ).to_pandas().sort_values(["doc", "span_start"]).reset_index(drop=True)

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.execute(f"""
        WITH pos AS (SELECT doc_id, i.range AS p,
                substr(text, i.range::INT, {k}) AS g
                FROM documents, range(1, 100001) i
                WHERE i.range <= length(text) - {k} + 1),
        dup AS (SELECT g FROM pos GROUP BY g HAVING count(DISTINCT doc_id) >= 2),
        h AS (SELECT doc_id, p FROM pos WHERE g IN (SELECT g FROM dup)),
        m AS (SELECT doc_id, p, CASE WHEN p - lag(p) OVER
                (PARTITION BY doc_id ORDER BY p) = 1 THEN 0 ELSE 1 END AS brk
              FROM h),
        isl AS (SELECT doc_id, p, SUM(brk) OVER (PARTITION BY doc_id ORDER BY p
                ROWS UNBOUNDED PRECEDING) AS grp FROM m)
        SELECT doc_id AS doc, CAST(min(p) - 1 AS BIGINT) AS span_start,
               CAST(max(p) - 1 + {k} AS BIGINT) AS span_end
        FROM isl GROUP BY doc_id, grp ORDER BY doc, span_start
    """).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(out.astype("int64"), want.astype("int64"))


# ---- remove_duplicate_spans (the removal surgery) --------------------------


def _py_remove(texts_by_id, spans):
    """Scalar reference: coverage-mask splice per doc."""
    out = {}
    for doc, text in texts_by_id.items():
        mask = [True] * len(text)
        for d, s, e in spans:
            if d == doc:
                for i in range(max(s, 0), min(e, len(text))):
                    mask[i] = False
        out[doc] = "".join(c for c, m in zip(text, mask) if m)
    return out


def test_remove_duplicate_spans_crafted(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import (duplicate_spans,
                                                remove_duplicate_spans)

    boiler = "COMMON LICENSE BLOCK THAT REPEATS ACROSS DOCUMENTS 0123456789"
    texts = {
        0: "unique text aaaa " + boiler + " tail zero",
        1: "other start bbbb " + boiler + " different end",
        2: "totally unique document with no duplicated content at all x",
        3: boiler,   # whole doc is one span -> empty survivor
        4: "",       # empty doc passes through
    }
    docs = pa.table({
        "doc_num": pa.array(sorted(texts), type=pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)], type=pa.string()),
    })
    ds = rd.from_arrow(docs)
    spans = duplicate_spans(ds, k=24, num_partitions=4).to_pandas()
    want = _py_remove(texts, list(map(tuple, spans.itertuples(index=False))))
    out = remove_duplicate_spans(ds, k=24, num_partitions=4).to_pandas() \
        .sort_values("doc_num").reset_index(drop=True)
    assert dict(zip(out["doc_num"], out["text"])) == want
    assert out.loc[out["doc_num"] == 3, "text"].iloc[0] == ""
    assert out.loc[out["doc_num"] == 2, "n_spans"].iloc[0] == 0
    assert (out["n_removed"] ==
            [len(texts[i]) - len(want[i]) for i in sorted(texts)]).all()


def test_remove_duplicate_spans_overlapping(ray_session):
    """Overlapping span intervals (maximal runs extend k past their
    last hit, so they legitimately overlap) splice as their union."""
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import (_rds_combine,
                                                remove_duplicate_spans)

    text = "0123456789abcdefghijklmnopqrstuvwxyz"
    spans = pa.table({
        "doc": pa.array([7, 7], type=pa.int64()),
        "span_start": pa.array([2, 8], type=pa.int64()),
        "span_end": pa.array([12, 20], type=pa.int64()),
    })
    ds = rd.from_arrow(pa.table({
        "doc_num": pa.array([7], type=pa.int64()),
        "text": pa.array([text], type=pa.string()),
    }))
    out = remove_duplicate_spans(
        ds, num_partitions=2, spans_ds=rd.from_arrow(spans)).to_pandas()
    assert out["text"].iloc[0] == text[:2] + text[20:]
    assert out["n_spans"].iloc[0] == 2
    assert out["n_removed"].iloc[0] == 18
    # the partition combine alone, fed one table per input
    docs = pa.table({"doc": pa.array([7], type=pa.int64()),
                     "text": pa.array([text], type=pa.string())})
    got = _rds_combine(docs, spans, "doc_num", "text").to_pylist()
    assert got == [{"doc_num": 7, "text": text[:2] + text[20:],
                    "n_spans": 2, "n_removed": 18}]
    assert _rds_combine(docs.slice(0, 0), spans, "doc_num", "text").num_rows == 0


def test_remove_duplicate_spans_matches_reference_corpus(ray_session, sf_dir):
    """End to end on the real sf0.001 table: engine splice == scalar
    reference applied to the engine's own (oracle-verified) spans."""
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import (duplicate_spans,
                                                remove_duplicate_spans)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    spans = duplicate_spans(ds, k=24, id_col="doc_id",
                            num_partitions=8).to_pandas()
    texts = {int(r["doc_id"]): r["text"]
             for r in ds.to_pandas().to_dict("records")}
    want = _py_remove(texts, list(map(tuple, spans.itertuples(index=False))))
    out = remove_duplicate_spans(ds, k=24, id_col="doc_id",
                                 num_partitions=8).to_pandas()
    assert dict(zip(out["doc_id"], out["text"])) == want
    # partition invariance
    out2 = remove_duplicate_spans(ds, k=24, id_col="doc_id",
                                  num_partitions=3).to_pandas()
    assert dict(zip(out2["doc_id"], out2["text"])) == want


def test_remove_duplicate_spans_empty(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import remove_duplicate_spans

    ds = rd.from_arrow(pa.table({
        "doc_num": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string()),
    }))
    out = remove_duplicate_spans(ds, num_partitions=2).to_pandas()
    assert len(out) == 0
    # a 0-block upstream (empty corpus -> empty span exchange) loses
    # the schema before the final exchange, mirroring duplicate_spans'
    # own empty behavior; when columns survive they must be the
    # post-combine set
    assert set(out.columns) <= {"doc_num", "text", "n_spans", "n_removed"}


# ---- temperature mixture sampling ------------------------------------------


def test_temperature_fractions_semantics():
    import pytest

    from versatiles_rs_ray.stages.curate import temperature_fractions

    c = {"en": 1000, "de": 100, "zh": 10}
    # T=1: plain uniform downsample
    assert temperature_fractions(c, 1.0, 0.4) == {
        "en": 0.4, "de": 0.4, "zh": 0.4}
    # anchor: largest stratum keeps exactly base_rate; smaller keep more
    f = temperature_fractions(c, 4.0, 0.1)
    assert f["en"] == 0.1 and f["zh"] > f["de"] > f["en"]
    # T -> inf equalizes expected rows (frac ∝ 1/n) until the cap
    f = temperature_fractions(c, 1e9, 0.05)
    assert abs(f["de"] / f["en"] - 10.0) < 1e-6
    assert temperature_fractions({}, 2.0) == {}
    with pytest.raises(ValueError, match="temperature"):
        temperature_fractions(c, 0.0)


def test_temperature_sample_end_to_end(ray_session, sf_dir):
    import ray.data as rd

    from versatiles_rs_ray.stages.curate import (key_counts,
                                                 stratified_sample,
                                                 temperature_fractions,
                                                 temperature_sample)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    counts = key_counts(ds, "lang")
    # counts are exact
    import duckdb

    want = dict(duckdb.sql(
        f"SELECT lang, count(*) FROM read_parquet('{sf_dir}/documents.parquet') "
        "GROUP BY 1").fetchall())
    assert counts == want
    # two-pass sample == one-pass stratified with the derived fractions
    out = temperature_sample(ds, "doc_id", "lang", 2.0, 0.3).to_pandas()
    fr = temperature_fractions(counts, 2.0, 0.3)
    manual = stratified_sample(ds, "doc_id", "lang", fr).to_pandas()
    assert sorted(out["doc_id"]) == sorted(manual["doc_id"])
    # flattening: the biggest stratum's realized keep-rate is the
    # smallest keep-rate
    rates = {k: (out["lang"] == k).sum() / n for k, n in counts.items()}
    big = max(counts, key=counts.get)
    assert rates[big] == min(rates.values())


# ---- fuzzy token pairs (edit distance <= 1) ----------------------------

def _lev(a, b):
    """Scalar Levenshtein reference."""
    m, n = len(a), len(b)
    d = list(range(n + 1))
    for i in range(1, m + 1):
        prev, d[0] = d[0], i
        for j in range(1, n + 1):
            cur = min(d[j] + 1, d[j - 1] + 1,
                      prev + (a[i - 1] != b[j - 1]))
            prev, d[j] = d[j], cur
    return d[n]


def test_edit1_verify_matches_levenshtein():
    import itertools

    from versatiles_rs_ray.stages.dedup import _edit1_verify

    vocab = ["cat", "cats", "bat", "at", "act", "cart", "dog", "dig",
             "dg", "hello", "hallo", "hell", "ello", "xyz", "a", "",
             "über", "uber", "übe"]
    pairs = [(a, b) for a, b in itertools.combinations(vocab, 2)
             if a and b]
    got = _edit1_verify([p[0] for p in pairs], [p[1] for p in pairs])
    want = np.array([_lev(a, b) <= 1 for a, b in pairs])
    np.testing.assert_array_equal(got, want)


def test_fuzzy_token_pairs_end_to_end(ray_session):
    import itertools

    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import fuzzy_token_pairs

    docs = ["the cat sat", "the bat sat", "a cats tale", "dog dig dg",
            "hello hallo worlds", "hello world", "completely different",
            "", "   "]
    ds = rd.from_arrow(pa.table({"text": pa.array(docs)})).repartition(3)
    got = fuzzy_token_pairs(ds).to_pandas()
    pairs = set(zip(got["tok_a"], got["tok_b"]))
    assert len(pairs) == len(got)  # dedup across shared variants
    vocab = sorted({w for d in docs for w in d.split()})
    want = {(a, b) for a, b in itertools.combinations(vocab, 2)
            if _lev(a, b) <= 1}
    assert pairs == want
    assert ("bat", "cat") in pairs and ("dg", "dig") in pairs
    assert ("hallo", "hello") in pairs


def test_fuzzy_token_pairs_max_len_and_validation(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import fuzzy_token_pairs

    ds = rd.from_arrow(pa.table({"text": pa.array(["aaaa aaab"])}))
    assert fuzzy_token_pairs(ds, max_len=3).count() == 0  # both skipped
    assert fuzzy_token_pairs(ds, max_len=4).count() == 1
    import pytest

    with pytest.raises(ValueError):
        fuzzy_token_pairs(ds, max_len=0)
