"""Text stages: token semantics, quality buckets, fingerprint
properties, lang-id plumbing."""

import numpy as np
import pyarrow as pa

from versatiles_rs_ray.stages import text as T


def _batch(texts):
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(texts))]),
            "text": pa.array(texts, type=pa.string()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )


def test_token_stats_edge_cases():
    out = T.token_stats_batch(_batch(["the cat", "", "   ", "a  b\tc", "the the the"]))
    assert out["n_tokens"].to_pylist() == [2, 0, 0, 3, 3]
    assert out["n_stop"].to_pylist() == [1, 0, 0, 1, 3]
    assert out["max_token_len"].to_pylist() == [3, 0, 0, 1, 3]


def test_quality_buckets():
    good = "the quick brown fox jumps over the lazy dog and runs to town fast"
    out = T.quality_batch(_batch([good, "tiny one here", ""]))
    assert out["quality_bucket"].to_pylist() == [2, 1, 0]


def test_fingerprint_properties():
    texts = ["hello world " * 5, "hello world " * 5, "different text entirely " * 3, "x"]
    out = T.fingerprint_batch(_batch(texts))
    fp = out["fingerprint"].to_pylist()
    assert fp[0] == fp[1]  # identical docs -> identical fingerprint
    assert fp[0] != fp[2]
    assert isinstance(fp[3], int)  # shorter than shingle len still works


def test_langid_profiles():
    lid = T.LangId()
    b = pa.table(
        {
            "doc_id": pa.array(["a", "b"]),
            "lang": pa.array(["en", "de"]),
            "text": pa.array(
                ["the cat and the dog of a house", "der hund und die katze ist hier"]
            ),
        }
    )
    out = lid(b)
    assert out["lang_guess"].to_pylist() == ["en", "de"]


def test_fingerprint_batch_matches_single_doc_kernel():
    """The cross-doc vectorized gather is bit-identical to the per-doc
    reference kernel, including zero-padded short docs and boundary
    windows (a doc's last window must not read the next doc's bytes)."""
    import numpy as np
    import pyarrow as pa

    from oracles import doc_fingerprint
    from versatiles_rs_ray.stages.text import fingerprint_batch

    texts = ["", "a", "abcdefg", "abcdefgh", "abcdefghi",
             "zzzzzzzz" * 10, "x" * 7 + "Q" * 9, "\x00\x01\x02"]
    batch = pa.table({
        "doc_id": pa.array([str(i) for i in range(len(texts))]),
        "text": pa.array(texts),
    })
    got = fingerprint_batch(batch)["fingerprint"].to_pylist()
    ref = [np.uint64(doc_fingerprint(t.encode())).astype(np.int64) for t in texts]
    assert got == [int(r) for r in ref]


def test_bpe_token_counter_pattern():
    """The RE2-safe GPT-2-ish pre-tokenizer splits contractions, letter
    runs, digit runs, punctuation runs, and whitespace runs."""
    import re

    from versatiles_rs_ray.stages.text import BPE_PATTERN

    pat = re.compile(BPE_PATTERN)
    assert pat.findall("it's") == ["it", "'s"]
    assert pat.findall("Hello world!") == ["Hello", " world", "!"]
    assert pat.findall("abc123def") == ["abc", "123", "def"]
    # no-lookahead RE2 variant: whitespace runs are greedy (the real
    # GPT-2 pattern leaves the final space for the next token)
    assert pat.findall("a  b") == ["a", "  ", "b"]
    assert pat.findall("") == []


def test_bpe_token_counter_stage(ray_session):
    import pyarrow as pa

    from versatiles_rs_ray.stages.text import BpeTokenCounter

    batch = pa.table({
        "doc_id": pa.array(["a", "b", "c"]),
        "text": pa.array(["Hello world, it's 2026!", "", "don't stop"]),
    })
    out = BpeTokenCounter()(batch)
    assert out["n_bpe_tokens"].to_pylist() == [7, 0, 3]


def test_normalize_text_batch():
    import pyarrow as pa

    from versatiles_rs_ray.stages.text import normalize_text_batch

    t = pa.table({"doc_id": pa.array([1, 2, 3]),
                  "text": pa.array(["  Hello\t WORLD \n", "café",
                                    "éclair"])})  # combining accent
    out = normalize_text_batch(t)["text"].to_pylist()
    assert out[0] == "hello world"
    assert out[1] == "café"
    assert out[2] == "éclair"  # NFC composes e + combining acute


def test_normalize_text_batch_nulls():
    # null rows must flow through unchanged on BOTH the ascii fast
    # path and the NFC scatter path (string_is_ascii yields null for
    # null rows; an unfilled mask used to poison the numpy ~ operator)
    import pyarrow as pa

    from versatiles_rs_ray.stages.text import normalize_text_batch

    t = pa.table({"doc_id": pa.array([1, 2, 3, 4]),
                  "text": pa.array(["Hello", None, "CAFÉ", None])})
    out = normalize_text_batch(t)["text"].to_pylist()
    assert out == ["hello", None, "café", None]

    # all-ascii batch with a null (pure fast path)
    t2 = pa.table({"text": pa.array(["A  B", None])})
    assert normalize_text_batch(t2)["text"].to_pylist() == ["a b", None]


# ---- BM25 (stages/rank.py) ----------------------------------------------


def _bm25_brute(texts, terms, k1=1.2, b=0.75):
    """Pure-Python reference: same Lucene-idf formula."""
    import math
    import re

    toks = [
        [t for t in re.split("[^a-z0-9]+", s.lower()) if t] for s in texts
    ]
    n = len(toks)
    avgdl = sum(len(t) for t in toks) / n
    scores = []
    for doc in toks:
        s = 0.0
        for term in terms:
            df = sum(1 for d in toks if term in d)
            tf = doc.count(term)
            if tf == 0:
                continue
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            s += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(doc) / avgdl))
        scores.append(s)
    return scores


def test_bm25_counts_and_scores_match_brute_force():
    import numpy as np
    import pyarrow as pa

    from versatiles_rs_ray.stages.rank import (
        Bm25Scorer, QueryTermCounter, _stats_partial)

    texts = [
        "hash join hash hash window",
        "stream stream sort merge",
        "the quick brown fox",
        "window window join",
        "",
        "hash",
    ]
    terms = ("hash", "join", "window", "stream")
    batch = pa.table({
        "doc_num": pa.array(range(6), type=pa.int64()),
        "text": pa.array(texts),
    })
    counts = QueryTermCounter(terms)(batch)
    assert counts["dl"].to_pylist() == [5, 4, 4, 3, 0, 1]
    assert counts["tf_0"].to_pylist() == [3, 0, 0, 0, 0, 1]  # hash
    assert counts["tf_2"].to_pylist() == [1, 0, 0, 2, 0, 0]  # window

    stats = _stats_partial(counts)
    n = stats["n"][0].as_py()
    sum_dl = stats["sum_dl"][0].as_py()
    df = np.array([stats[f"df_{k}"][0].as_py() for k in range(4)])
    assert n == 6 and sum_dl == 17
    assert list(df) == [2, 2, 2, 1]

    scored = Bm25Scorer(n, sum_dl, df, k=10)(counts).to_pandas()
    brute = _bm25_brute(texts, terms)
    want = {i: int(np.floor(s * 1e6 + 0.5)) for i, s in enumerate(brute)
            if s > 0}
    got = dict(zip(scored["doc_num"], scored["score_micro"]))
    assert got == want
    # block-local ordering: (score desc, doc_num asc)
    sm = list(scored["score_micro"])
    assert sm == sorted(sm, reverse=True)


def test_bm25_topk_distributed(ray_session, sf_dir):
    import ray.data as rd

    from versatiles_rs_ray.sources import docs as D
    from versatiles_rs_ray.stages.rank import bm25_topk

    out = bm25_topk(D.read_docs(sf_dir), ("hash", "join"), k=7)
    assert list(out["rank"]) == list(range(1, 8))
    assert list(out["score_micro"]) == sorted(out["score_micro"],
                                              reverse=True)
    # determinism across runs
    again = bm25_topk(D.read_docs(sf_dir), ("hash", "join"), k=7)
    assert out.equals(again)
    # no-hit terms: empty frame, stable columns
    empty = bm25_topk(D.read_docs(sf_dir), ("zzzznope",), k=5)
    assert len(empty) == 0
    assert list(empty.columns) == ["doc_num", "score_micro", "rank"]


# ---- TextScrubber (stages/text.py) ---------------------------------------


def test_scrubber_default_rules():
    import pyarrow as pa

    from versatiles_rs_ray.stages.text import TextScrubber

    batch = pa.table({
        "doc_id": pa.array(["a", "b", "c", "d"]),
        "text": pa.array([
            "mail me at jane.doe+x@example.co.uk or visit "
            "https://example.com/path?q=1 now",
            "server 192.168.100.7 responded, card 4111111111111111",
            "no pii here",
            None,
        ]),
    })
    out = TextScrubber()(batch)
    texts = out["text"].to_pylist()
    assert texts[0] == "mail me at <EMAIL> or visit <URL> now"
    assert texts[1] == "server <IP> responded, card <NUM>"
    assert texts[2] == "no pii here"
    assert texts[3] is None  # nulls pass through
    assert out["n_email"].to_pylist() == [1, 0, 0, None]
    assert out["n_url"].to_pylist() == [1, 0, 0, None]
    assert out["n_ipv4"].to_pylist() == [0, 1, 0, None]
    assert out["n_longnum"].to_pylist() == [0, 1, 0, None]


def test_scrubber_rule_order_counts():
    """Later rules count AFTER earlier replacements (an email's
    digits are gone by the time the longnum rule runs)."""
    import pyarrow as pa

    from versatiles_rs_ray.stages.text import TextScrubber

    batch = pa.table({"text": pa.array(["123456789@example.com"])})
    out = TextScrubber()(batch)
    assert out["text"].to_pylist() == ["<EMAIL>"]
    assert out["n_email"].to_pylist() == [1]
    assert out["n_longnum"].to_pylist() == [0]


def test_scrub_docs_actor_pool(ray_session, sf_dir):
    import ray.data as rd

    from versatiles_rs_ray.stages.text import scrub_docs

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "props"])
    out = scrub_docs(ev, rules=(("num", "[0-9]+", "#"),),
                     column="props").to_pandas()
    assert (out["props"].str.contains("#")).all()
    assert not out["props"].str.contains("[0-9]", regex=True).any()
    assert (out["n_num"] >= 1).all()


def test_repetition_stats_matches_brute_force():
    from collections import Counter

    texts = ["the the the the cat", "a b c d e", "", "  x  ",
             "go go stop go go", "one two one two one two", "solo",
             "a a b b a a", "tab\tsep  and   runs"]
    out = T.repetition_stats_batch(_batch(texts)).to_pydict()
    for i, t in enumerate(texts):
        w = t.split()
        bg = [f"{w[j]} {w[j + 1]}" for j in range(len(w) - 1)]
        cw, cb = Counter(w), Counter(bg)
        exp = dict(
            n_words=len(w), n_distinct_words=len(cw),
            top_word_cnt=max(cw.values()) if cw else 0,
            n_bigrams=len(bg), top_bigram_cnt=max(cb.values()) if cb else 0)
        exp["repetitive"] = (
            len(w) > 0 and T.REP_TOP_WORD_X * exp["top_word_cnt"] > len(w)
        ) or (len(bg) > 0 and T.REP_TOP_BIGRAM_X * exp["top_bigram_cnt"] > len(bg))
        got = {k: out[k][i] for k in exp}
        assert got == exp, (t, got, exp)


def test_repetition_stats_flags():
    # one word dominating >20% of the doc flags it; a uniform doc does not
    rep = "spam spam spam alpha beta gamma delta eps zeta eta"
    uniq = "a1 b2 c3 d4 e5 f6 g7 h8 i9 j0 k1 l2 m3 n4 o5 p6 q7 r8 s9 t0"
    out = T.repetition_stats_batch(_batch([rep, uniq]))
    assert out["repetitive"].to_pylist() == [True, False]


# ---- vocab_topn (stages/text.py) ------------------------------------------


def test_vocab_topn_exact_counts_and_ties(ray_session):
    import collections

    import ray.data as rd

    texts = ["the cat sat on the mat", "the dog", "", "  ",
             "cat cat zebra", "apple banana apple"] * 7
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, type=pa.string())}))
    out = T.vocab_topn(ds, 5, num_partitions=4)

    brute = collections.Counter(w for t in texts for w in t.split())
    want = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    got = list(zip(out["token"].to_pylist(), out["cnt"].to_pylist()))
    assert got == want

    # n larger than the vocabulary: every token, still exact
    out_all = T.vocab_topn(ds, 1000, num_partitions=4)
    assert dict(zip(out_all["token"].to_pylist(),
                    out_all["cnt"].to_pylist())) == dict(brute)


# ---- collocations / PMI (stages/text.py) -----------------------------------


def test_pmi_topk_matches_brute_force(ray_session):
    import collections
    import math

    import ray.data as rd

    texts = ["the quick brown fox", "quick brown dogs run",
             "new york city hall", "new york city subway",
             "in new york city", ""] * 9
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, type=pa.string())}))
    out = T.pmi_topk(ds, window=2, n=10, min_count=3, num_partitions=4)

    toks = [t.split() for t in texts]
    uni = collections.Counter(w for t in toks for w in t)
    n_total = sum(uni.values())
    pc = collections.Counter()
    for t in toks:
        for i in range(len(t)):
            for d in (1, 2):
                if i + d < len(t):
                    a, b = sorted((t[i], t[i + d]))
                    pc[(a, b)] += 1
    rows = [(a, b, c, uni[a], uni[b],
             math.floor(1e6 * math.log(c * n_total / (uni[a] * uni[b])) + 0.5))
            for (a, b), c in pc.items() if c >= 3]
    rows.sort(key=lambda r: (-r[5], r[0], r[1]))
    got = list(map(tuple, out.to_pandas().itertuples(index=False)))
    assert got == rows[:10]


def test_token_counts_exact(ray_session):
    import collections

    import ray.data as rd

    texts = ["a b a", "  ", "b c", ""] * 5
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, type=pa.string())}))
    df = T.token_counts(ds, num_partitions=3).to_pandas()
    got = dict(zip(df["token"], df["cnt"]))
    assert got == dict(collections.Counter(w for t in texts for w in t.split()))


def test_chunk_documents_matches_duckdb(ray_session, sf_dir):
    import duckdb
    import ray.data as rd

    size, overlap = 80, 16
    step = size - overlap
    out = T.chunk_documents(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"]),
        size, overlap).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.execute(f"""
        SELECT doc_id, i.range AS chunk_idx,
               substr(text, (1 + i.range * {step})::INT, {size}) AS chunk
        FROM documents, range(0, 1000) i
        WHERE 1 + i.range * {step} <= length(text)
    """).df()
    key = ["doc_id", "chunk_idx"]
    got = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got["chunk"].tolist() == want["chunk"].tolist()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    # reconstruction: stripping the overlap and concatenating chunks
    # rebuilds every document exactly
    import pyarrow.parquet as pq2
    texts = dict(zip(*[pq2.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])[c]
        .to_pylist() for c in ("doc_id", "text")]))
    for doc, g in got.groupby("doc_id"):
        g = g.sort_values("chunk_idx")
        rebuilt = "".join(c if i == 0 else c[overlap:]
                          for i, c in enumerate(g["chunk"]))
        assert rebuilt == texts[doc]


def test_chunk_documents_edges(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b", "c"]),
        "text": pa.array(["x" * 10, "", "yz"]),
    }))
    out = T.chunk_documents(ds, size=4, overlap=1).to_pandas()
    a = out[out["doc_id"] == "a"].sort_values("chunk_idx")
    assert a["chunk"].tolist() == ["xxxx", "xxxx", "xxxx", "x"]
    assert (out["doc_id"] == "b").sum() == 0  # empty doc: no chunks
    assert out[out["doc_id"] == "c"]["chunk"].tolist() == ["yz"]
    import pytest as _pt
    with _pt.raises(ValueError, match="overlap"):
        T.chunk_documents(ds, size=4, overlap=4)


def test_ngram_topn_matches_duckdb_and_bruteforce(ray_session, sf_dir):
    import collections

    import duckdb
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    out = T.ngram_topn(ds, n=3, topn=25, min_count=2, num_partitions=4)
    got = list(zip(out["gram"].to_pylist(), out["cnt"].to_pylist()))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.execute("""
        WITH base AS (SELECT regexp_split_to_array(trim(text), '\\s+') AS t
                      FROM documents WHERE trim(text) <> ''),
        g AS (SELECT t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS gram
              FROM base, range(1, 10000) r(i) WHERE i + 2 <= len(t))
        SELECT gram, CAST(count(*) AS BIGINT) AS cnt FROM g GROUP BY gram
        HAVING count(*) >= 2 ORDER BY cnt DESC, gram LIMIT 25
    """).fetchall()
    assert got == want

    # vocab_topn is the n=1 special case
    v = T.vocab_topn(rd.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["text"]), 10)
    u = T.ngram_topn(rd.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["text"]), n=1, topn=10)
    assert v["token"].to_pylist() == u["gram"].to_pylist()
    assert v["cnt"].to_pylist() == u["cnt"].to_pylist()


def test_ngram_partial_doc_boundaries():
    t = T._ngram_partial(_batch(["a b", "b c d", "", "x"]), "text", 2)
    got = dict(zip(t["token"].to_pylist(), t["cnt"].to_pylist()))
    # no gram spans documents: 'b b' must NOT appear
    assert got == {"a b": 1, "b c": 1, "c d": 1}


def test_chunk_documents_tokens_matches_duckdb(ray_session, sf_dir):
    import duckdb
    import ray.data as rd

    size, overlap = 12, 3
    step = size - overlap
    out = T.chunk_documents_tokens(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"]),
        size, overlap).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    want = con.execute(f"""
        WITH base AS (SELECT doc_id,
            regexp_split_to_array(trim(text), '\\s+') AS t
            FROM documents WHERE trim(text) <> '')
        SELECT doc_id, i.range AS chunk_idx,
               array_to_string(t[(1 + i.range * {step})::INT :
                                 (i.range * {step} + {size})::INT], ' ') AS chunk
        FROM base, range(0, 1000) i
        WHERE 1 + i.range * {step} <= len(t)
    """).df()
    key = ["doc_id", "chunk_idx"]
    got = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got["chunk"].tolist() == want["chunk"].tolist()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()


def test_chunk_documents_tokens_edges(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b", "c"]),
        "text": pa.array(["t0 t1 t2 t3 t4", "   ", "x  y"]),
    }))
    out = T.chunk_documents_tokens(ds, size=2, overlap=1).to_pandas()
    a = out[out["doc_id"] == "a"].sort_values("chunk_idx")
    assert a["chunk"].tolist() == ["t0 t1", "t1 t2", "t2 t3", "t3 t4", "t4"]
    assert (out["doc_id"] == "b").sum() == 0
    # trailing chunk starts at the last token (1 + i*step <= n_tok),
    # same rule as doc "a" above and the char variant
    assert out[out["doc_id"] == "c"]["chunk"].tolist() == ["x y", "y"]
