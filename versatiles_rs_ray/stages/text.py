"""Text analysis stages: token stats, quality scoring, language ID,
document fingerprinting.

All per-batch and vectorized/C-speed; the token semantics are chosen to
be exactly reproducible in DuckDB SQL (see queries.py):
``tokens = text.split()`` == ``regexp_split_to_array(trim(text), '\\s+')``
(empty text -> 0 tokens).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

STOPWORDS = ("the", "and", "of", "a", "to", "in", "is")

# tiny per-language stopword profiles for the heuristic language id
# (n-gram/stopword heuristic — the no-model baseline)
LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "for", "with"},
    "de": {"der", "die", "und", "das", "ist", "mit", "für", "von"},
    "fr": {"le", "la", "et", "les", "des", "est", "pour", "avec"},
    "es": {"el", "la", "los", "las", "es", "para", "con", "una"},
    "zh": set(),  # no-space scripts fall through to the char heuristic
}

_FP_BASE = np.uint64(1000003)
_FP_K = 8  # fingerprint shingle length (bytes)


def _split_tokens(texts):
    """text column -> (flat tokens, per-token char lengths, doc offsets).

    Arrow's whitespace split emits EMPTY tokens for leading/trailing/
    repeated whitespace where Python's ``str.split()`` emits none;
    callers treat zero-length tokens as absent so both agree with the
    SQL oracle's regexp_split_to_array(trim(text), '\\s+')."""
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    split = pc.utf8_split_whitespace(texts)
    counts = np.asarray(pc.list_value_length(split), dtype=np.int64)
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    flat = pc.list_flatten(split)
    tlen = np.asarray(pc.utf8_length(flat), dtype=np.int64)
    return flat, tlen, offs


def _per_doc_sum(values: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Ragged per-doc sums via one cumsum (safe for empty docs where
    reduceat is not)."""
    c = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=c[1:])
    return c[offs[1:]] - c[offs[:-1]]


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens, n_stop, max_token_len per document.

    Fully vectorized: one Arrow whitespace split over the whole batch,
    then cumsum/maximum kernels over the flat token array — no per-doc
    Python (the round-1 per-doc loop was the flagged text hot-spot)."""
    import pyarrow.compute as pc

    flat, tlen, offs = _split_tokens(batch["text"])
    nonempty = (tlen > 0).astype(np.int64)
    n_tokens = _per_doc_sum(nonempty, offs)
    is_stop = np.asarray(
        pc.is_in(flat, value_set=pa.array(STOPWORDS)).fill_null(False)
    ).astype(np.int64)
    n_stop = _per_doc_sum(is_stop, offs)
    max_len = np.zeros(len(n_tokens), dtype=np.int64)
    has = offs[1:] > offs[:-1]
    if has.any():
        # reduceat over non-empty ranges only (every non-null doc has
        # >=1 token slot, but guard anyway)
        starts = offs[:-1][has]
        max_len[has] = np.maximum.reduceat(tlen, starts)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": batch["n_chars"],
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_stop": pa.array(n_stop, type=pa.int64()),
            "max_token_len": pa.array(max_len, type=pa.int64()),
        }
    )


def quality_batch(batch: pa.Table) -> pa.Table:
    """Heuristic quality signals + integer quality bucket.

    bucket = 2 (good) if 10 <= n_tokens and mean token length in [3, 12]
    and stopword ratio >= 5%; 1 (mid) if 3 <= n_tokens; else 0.
    Expressed with integer comparisons only so SQL mirrors exactly:
    mean-len test as  3*n_tokens <= alpha_chars <= 12*n_tokens,
    stop test as      20*n_stop >= n_tokens.
    """
    stats = token_stats_batch(batch)
    n_tokens = np.asarray(stats["n_tokens"])
    n_stop = np.asarray(stats["n_stop"])
    _, tlen, offs = _split_tokens(batch["text"])
    alpha = _per_doc_sum(tlen, offs)
    good = (
        (n_tokens >= 10)
        & (3 * n_tokens <= alpha)
        & (alpha <= 12 * n_tokens)
        & (20 * n_stop >= n_tokens)
    )
    mid = n_tokens >= 3
    bucket = np.where(good, 2, np.where(mid, 1, 0)).astype(np.int64)
    return stats.append_column("alpha_chars", pa.array(alpha, type=pa.int64())).append_column(
        "quality_bucket", pa.array(bucket, type=pa.int64())
    )


class LangId:
    """Actor-style language guesser: profiles built once per worker.

    Vectorized: lowercase + vocab index_in over the batch's flat token
    array, distinct (doc, word) pairs by one np.unique, per-doc hit
    counts via one scatter-add against the word->language membership
    matrix. Tie-break identical to the reference heuristic: first
    language in sorted order with the strictly highest DISTINCT-word
    hit count; zero hits -> 'unk'."""

    def __init__(self):
        self.profiles = {k: frozenset(v) for k, v in LANG_PROFILES.items() if v}
        self.langs = sorted(self.profiles)
        self.vocab = sorted({w for p in self.profiles.values() for w in p})
        self._vocab_arr = pa.array(self.vocab)
        self.member = np.zeros((len(self.vocab), len(self.langs)), dtype=np.int64)
        for j, lang in enumerate(self.langs):
            for w in self.profiles[lang]:
                self.member[self.vocab.index(w), j] = 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat, _tlen, offs = _split_tokens(batch["text"])
        ndocs = len(offs) - 1
        lower = pc.utf8_lower(flat)
        vidx = pc.index_in(lower, value_set=self._vocab_arr)
        v = np.asarray(vidx.fill_null(-1), dtype=np.int64)
        doc_rep = np.repeat(np.arange(ndocs, dtype=np.int64), np.diff(offs))
        hitm = v >= 0
        # distinct (doc, word): the heuristic counts each profile word
        # once per doc however often it repeats
        key = doc_rep[hitm] * len(self.vocab) + v[hitm]
        key = np.unique(key)
        hits = np.zeros((ndocs, len(self.langs)), dtype=np.int64)
        if len(key):
            np.add.at(hits, key // len(self.vocab), self.member[key % len(self.vocab)])
        best = hits.argmax(axis=1)  # first max wins == sorted-order tie-break
        langs = np.asarray(self.langs, dtype=object)
        guesses = np.where(hits.max(axis=1) > 0, langs[best], "unk")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "lang_guess": pa.array(guesses, type=pa.string()),
            }
        )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Winnowed min-rolling-hash per doc, vectorized ACROSS docs: one
    (windows x K) zero-padded gather over the batch's concatenated
    bytes (the _shingle_rows pattern, stages/dedup.py), K shifted
    multiply-adds over every window of every doc at once, one
    minimum.reduceat. Bit-identical to the per-doc rolling-hash min
    (pytest-pinned against a single-doc reference)."""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    import pyarrow.compute as pc

    b = pc.fill_null(texts, "").cast(pa.binary())
    _, off_buf, data_buf = b.buffers()
    offs = np.frombuffer(off_buf, dtype=np.int32)[b.offset : b.offset + len(b) + 1]
    data = np.frombuffer(data_buf, dtype=np.uint8)
    L = np.diff(offs).astype(np.int64)
    n_win = np.maximum(L - _FP_K + 1, 1)  # short docs: one zero-padded window
    total = int(n_win.sum())
    run_start = np.zeros(len(L), dtype=np.int64)
    run_start[1:] = np.cumsum(n_win)[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(run_start, n_win)
    w_start = np.repeat(offs[:-1].astype(np.int64), n_win) + within
    idx = w_start[:, None] + np.arange(_FP_K, dtype=np.int64)[None, :]
    idx = np.minimum(idx, len(data) - 1 if len(data) else 0)
    win = data[idx].astype(np.uint64) if len(data) else np.zeros(
        (total, _FP_K), dtype=np.uint64)
    # zero the padding tail of short docs' single window
    w_len = np.repeat(np.minimum(L, _FP_K), n_win)
    win[np.arange(_FP_K, dtype=np.int64)[None, :] >= w_len[:, None]] = 0
    h = win[:, 0].copy()
    for j in range(1, _FP_K):
        h = h * _FP_BASE + win[:, j]
    mins = np.minimum.reduceat(h, run_start) if total else np.zeros(0, dtype=np.uint64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(mins.astype(np.int64), type=pa.int64()),
        }
    )


# GPT-2-style pre-tokenizer pattern, restricted to RE2-compatible
# syntax (no lookahead) so Python re and the DuckDB oracle's
# regexp_extract_all count the IDENTICAL matches. Pieces: common
# contractions, optional-space letter runs, optional-space digit runs,
# optional-space punctuation runs, whitespace runs.
BPE_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"


class BpeTokenCounter:
    """Actor-pool token counter: the BPE-ish pre-tokenizer regex is
    compiled ONCE per actor (__init__), each batch is one C-speed
    findall pass per doc. This is the 'whitespace + BPE-ish regex'
    token-counting operator of a training-data pipeline; whitespace
    counting lives in token_stats_batch."""

    def __init__(self, keep_text: bool = False):
        import re

        self.pat = re.compile(BPE_PATTERN)
        self.keep_text = keep_text

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        counts = np.fromiter(
            (len(self.pat.findall(t or "")) for t in texts),
            dtype=np.int64, count=len(texts),
        )
        cols = {"doc_id": batch["doc_id"]}
        if self.keep_text:
            cols["text"] = batch["text"]
        cols["n_bpe_tokens"] = pa.array(counts, type=pa.int64())
        return pa.table(cols)


def normalize_text_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Standard corpus text cleaning, fully vectorized:
    NFC-normalize, lowercase, trim, collapse runs of whitespace to one
    space. Pure map (no shuffle); the usual first stage of a
    training-data text pipeline. Matches DuckDB
    `lower(regexp_replace(trim(nfc_normalize(text)), '\\s+', ' ', 'g'))`.
    """
    import unicodedata

    import pyarrow.compute as pc

    t = batch[col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    if not (pa.types.is_string(t.type) or pa.types.is_large_string(t.type)):
        raise TypeError(f"normalize_text_batch: column {col!r} is "
                        f"{t.type}, expected a string column")
    # NFC: ASCII is NFC by definition (the vectorized fast path for
    # the vast majority of rows); only the non-ASCII minority pays the
    # python unicodedata call. pyarrow's own utf8_normalize is NOT
    # usable here: in pyarrow 16.1 it returns decomposed output even
    # with form="NFC" (verified), which would diverge from every other
    # NFC implementation incl. the DuckDB oracle.
    # null rows take the ASCII fast path (string_is_ascii yields null
    # for them, which would poison the numpy mask); the later Arrow
    # kernels are null-preserving so None flows through unchanged
    ascii_mask = np.asarray(pc.fill_null(pc.string_is_ascii(t), True))
    if not ascii_mask.all():
        idx = np.flatnonzero(~ascii_mask)
        vals = t.take(pa.array(idx, type=pa.int64())).to_pylist()
        fixed = pa.array([None if v is None else unicodedata.normalize("NFC", v)
                          for v in vals], type=pa.string())
        # scatter back via concat + take (no per-row assignment)
        pool = pa.concat_arrays([t.combine_chunks() if isinstance(t, pa.ChunkedArray) else t,
                                 fixed])
        remap = np.arange(len(t), dtype=np.int64)
        remap[idx] = len(t) + np.arange(len(idx), dtype=np.int64)
        t = pool.take(pa.array(remap, type=pa.int64()))
    t = pc.utf8_lower(t)
    t = pc.utf8_trim_whitespace(t)
    t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
    idx = batch.schema.get_field_index(col)
    return batch.set_column(idx, col, t)


def normalize_docs(docs_ds, col: str = "text"):
    """Dataset wrapper for normalize_text_batch."""
    import functools

    return docs_ds.map_batches(
        functools.partial(normalize_text_batch, col=col), batch_format="pyarrow"
    )


# ---- scrubbing / redaction ----------------------------------------------

# (name, RE2 pattern, replacement) — applied IN ORDER; later rules see
# earlier replacements (the oracle nests its regexp_replace the same
# way). RE2 on both sides: Arrow's replace_substring_regex and
# DuckDB's regexp_replace share the engine, so semantics match.
DEFAULT_SCRUB_RULES = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("url", r"https?://[^\s]+", "<URL>"),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("longnum", r"[0-9]{6,}", "<NUM>"),
)


class TextScrubber:
    """Actor-pool PII-class scrubbing — the redaction stage a
    training-data pipeline runs before anything else sees raw text.
    Vectorized end to end: one count_substring_regex + one
    replace_substring_regex pass per rule (RE2 compiled once per
    actor in __init__), no per-row Python. Emits the scrubbed column
    in place plus an ``n_<rule>`` match count per rule."""

    def __init__(self, rules=DEFAULT_SCRUB_RULES, column: str = "text"):
        self.rules = tuple(rules)
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch[self.column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        counts = []
        for _name, pattern, repl in self.rules:
            counts.append(pc.cast(
                pc.count_substring_regex(col, pattern), pa.int64()))
            col = pc.replace_substring_regex(
                col, pattern=pattern, replacement=repl)
        idx = batch.schema.get_field_index(self.column)
        out = batch.set_column(idx, self.column, col)
        for (name, _p, _r), cnt in zip(self.rules, counts):
            out = out.append_column(f"n_{name}", cnt)
        return out


def scrub_docs(ds, rules=DEFAULT_SCRUB_RULES, column: str = "text",
               concurrency=4, batch_size: int = 4096):
    """Dataset wrapper: actor pool so the compiled RE2 programs live
    once per actor."""
    pool = (1, concurrency) if isinstance(concurrency, int) else concurrency
    return ds.map_batches(
        TextScrubber, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool,
        fn_constructor_kwargs={"rules": tuple(rules), "column": column},
    )


# ---- repetition signals (Gopher/MassiveText-style quality rules) -------

# "repetitive" when the most frequent word exceeds 1/REP_TOP_WORD_X of
# all words, or the most frequent bigram exceeds 1/REP_TOP_BIGRAM_X of
# all bigrams (MassiveText uses 0.2 for the analogous fractions).
# Integer cross-multiplication only, so the SQL oracle mirrors exactly.
REP_TOP_WORD_X = 5
REP_TOP_BIGRAM_X = 5


def repetition_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-doc word/bigram repetition signals (exact, fully vectorized).

    The Gopher-class quality rule the reference has no analogue for
    (its only text handling is tile metadata); a training-data
    pipeline drops documents dominated by one word or one bigram.
    Emits integer numerators/denominators plus the ``repetitive``
    flag computed by integer cross-multiplication, so the DuckDB
    oracle reproduces every value bit-exactly (no float fractions).

    Vectorization: one Arrow whitespace split, one dictionary_encode
    (C++ hash table) to factorize words, then np.unique over composed
    (doc, code) keys for per-doc counts — no per-row Python. Pure map:
    each doc's stats depend only on its own text, so this scales as a
    stateless map_batches with zero shuffle at any corpus size.
    """
    flat, tlen, offs = _split_tokens(batch["text"])
    n_docs = len(batch)
    keep = tlen > 0
    n_words = _per_doc_sum(keep.astype(np.int64), offs)
    doc_rep = np.repeat(np.arange(n_docs, dtype=np.int64), n_words)
    words = flat.filter(pa.array(keep)) if not keep.all() else flat
    dict_arr = words.dictionary_encode()
    codes = np.asarray(dict_arr.indices, dtype=np.int64)

    n_distinct = np.zeros(n_docs, dtype=np.int64)
    top_word = np.zeros(n_docs, dtype=np.int64)
    if len(codes):
        V = np.int64(len(dict_arr.dictionary))
        uk, ucnt = np.unique(doc_rep * V + codes, return_counts=True)
        udoc = uk // V
        n_distinct = np.bincount(udoc, minlength=n_docs).astype(np.int64)
        seg = np.ones(len(udoc), dtype=bool)
        seg[1:] = udoc[1:] != udoc[:-1]
        starts = np.flatnonzero(seg)
        top_word[udoc[starts]] = np.maximum.reduceat(ucnt, starts)

    n_bigrams = np.maximum(n_words - 1, 0)
    top_bigram = np.zeros(n_docs, dtype=np.int64)
    if len(codes) > 1:
        adj = doc_rep[:-1] == doc_rep[1:]
        if adj.any():
            V = np.int64(len(dict_arr.dictionary))
            pair = codes[:-1][adj] * V + codes[1:][adj]
            # re-factorize pairs so the composed (doc, pair) key stays
            # far from int64 overflow for any batch size
            _, pcode = np.unique(pair, return_inverse=True)
            P = np.int64(pcode.max() + 1)
            bdoc = doc_rep[:-1][adj]
            uk2, ucnt2 = np.unique(bdoc * P + pcode, return_counts=True)
            udoc2 = uk2 // P
            seg2 = np.ones(len(udoc2), dtype=bool)
            seg2[1:] = udoc2[1:] != udoc2[:-1]
            starts2 = np.flatnonzero(seg2)
            top_bigram[udoc2[starts2]] = np.maximum.reduceat(ucnt2, starts2)

    repetitive = ((n_words > 0) & (REP_TOP_WORD_X * top_word > n_words)) | (
        (n_bigrams > 0) & (REP_TOP_BIGRAM_X * top_bigram > n_bigrams))
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_words": pa.array(n_words, type=pa.int64()),
        "n_distinct_words": pa.array(n_distinct, type=pa.int64()),
        "top_word_cnt": pa.array(top_word, type=pa.int64()),
        "n_bigrams": pa.array(n_bigrams, type=pa.int64()),
        "top_bigram_cnt": pa.array(top_bigram, type=pa.int64()),
        "repetitive": pa.array(repetitive),
    })


# ---- global vocabulary building (top-N token counts) -------------------

def _vocab_partial(batch: pa.Table, column: str) -> pa.Table:
    """Per-batch token-count partial: one Arrow whitespace split + one
    dictionary_encode collapses the batch to (token, cnt) rows — the
    map-side combiner that bounds exchange volume to distinct tokens
    per batch, not total tokens."""
    from .curate import _add_route

    flat, tlen, _offs = _split_tokens(batch[column])
    keep = tlen > 0
    words = flat.filter(pa.array(keep)) if not keep.all() else flat
    enc = words.dictionary_encode()
    cnt = np.bincount(np.asarray(enc.indices, dtype=np.int64),
                      minlength=len(enc.dictionary)).astype(np.int64)
    t = pa.table({"token": enc.dictionary,
                  "cnt": pa.array(cnt, type=pa.int64())})
    return _add_route(t, "token")


def _vocab_combine(tbl: pa.Table, n: int) -> pa.Table:
    """Per-partition reduce: exact totals (one _token_totals kernel —
    shared with token_counts), then the partition's top-n candidates
    by (cnt DESC, token ASC) — byte/codepoint order matches DuckDB's
    binary collation because UTF-8 preserves codepoint order."""
    t = _token_totals(tbl)
    uniq = t["token"].to_numpy(zero_copy_only=False)
    tot = np.asarray(t["cnt"], dtype=np.int64)
    order = np.lexsort((uniq, -tot))[:n]
    return t.take(pa.array(order))


def vocab_topn(ds, n: int, column: str = "text", num_partitions: int = 32):
    """Global top-``n`` tokens by corpus count (vocabulary building —
    the count pass of BPE/WordPiece training and the stopword/domain
    profile step of curation).

    Shape: per-batch (token, cnt) combiner partials -> ONE hash
    exchange on the token -> per-partition exact totals + local top-n
    candidates -> driver-side final top-n over the bounded
    num_partitions x n candidate rows (the only driver gather, a few
    thousand rows regardless of corpus size). Ties break ascending on
    the token bytes so the result is deterministic and equal to the
    SQL ``ORDER BY cnt DESC, token LIMIT n``.
    """
    import functools

    from .exchange import hash_exchange

    parts = ds.map_batches(functools.partial(_vocab_partial, column=column),
                           batch_format="pyarrow")
    out = hash_exchange(parts, "_route",
                        functools.partial(_vocab_combine, n=n),
                        num_partitions=num_partitions)
    cand = out.to_pandas()  # bounded: num_partitions x n rows
    cand = cand.sort_values(["cnt", "token"], ascending=[False, True],
                            kind="mergesort").head(n)
    return pa.Table.from_pandas(cand.reset_index(drop=True),
                                preserve_index=False)


# ---- collocations: windowed co-occurrence + PMI -------------------------

def _token_totals(tbl: pa.Table) -> pa.Table:
    """Exact per-token totals within one exchange partition
    (partitions are disjoint by token hash)."""
    toks = tbl["token"].combine_chunks()
    enc = toks.dictionary_encode()
    idx = np.asarray(enc.indices, dtype=np.int64)
    cnt = np.asarray(tbl["cnt"], dtype=np.int64)
    tot = np.zeros(len(enc.dictionary), dtype=np.int64)
    np.add.at(tot, idx, cnt)
    return pa.table({"token": enc.dictionary,
                     "cnt": pa.array(tot, type=pa.int64())})


def token_counts(ds, column: str = "text", num_partitions: int = 32):
    """Exact global (token, cnt) table: the same combiner partials as
    :func:`vocab_topn` but with full totals per partition instead of a
    local top-n — the unigram-count input of PMI and tf-idf."""
    import functools

    from .exchange import hash_exchange

    parts = ds.map_batches(functools.partial(_vocab_partial, column=column),
                           batch_format="pyarrow")
    return hash_exchange(parts, "_route", _token_totals,
                         num_partitions=num_partitions)


def _pair_partial(batch: pa.Table, column: str, window: int) -> pa.Table:
    """Per-batch windowed co-occurrence partial: unordered token pairs
    (a <= b lexicographically) within ``window`` positions inside one
    doc, pre-counted per batch (dictionary codes + one np.unique) so
    the exchange moves distinct pairs, not token stream length."""
    from .curate import _hash_strings

    empty = pa.table({"tok_a": pa.array([], type=pa.string()),
                      "tok_b": pa.array([], type=pa.string()),
                      "cnt": pa.array([], type=pa.int64())})
    flat, tlen, offs = _split_tokens(batch[column])
    keep = tlen > 0
    n_words = _per_doc_sum(keep.astype(np.int64), offs)
    words = flat.filter(pa.array(keep)) if not keep.all() else flat
    if len(words) < 2:
        return empty.append_column("_route", pa.array([], type=pa.int64()))
    doc = np.repeat(np.arange(len(n_words), dtype=np.int64), n_words)
    enc = words.dictionary_encode()
    codes = np.asarray(enc.indices, dtype=np.int64)
    V = np.int64(len(enc.dictionary))
    # the dictionary is batch-local, so order codes by the TOKEN BYTES
    # once: then min/max on codes == lexicographic min/max on tokens
    dic = enc.dictionary.to_numpy(zero_copy_only=False)
    rank_of = np.empty(int(V), dtype=np.int64)
    order = np.argsort(dic, kind="stable")
    rank_of[order] = np.arange(int(V), dtype=np.int64)
    ranked = rank_of[codes]
    los, his = [], []
    for d in range(1, window + 1):
        if d >= len(ranked):
            break
        same = doc[:-d] == doc[d:]
        a, b = ranked[:-d][same], ranked[d:][same]
        los.append(np.minimum(a, b))
        his.append(np.maximum(a, b))
    if not los:
        return empty.append_column("_route", pa.array([], type=pa.int64()))
    lo = np.concatenate(los)
    hi = np.concatenate(his)
    uk, ucnt = np.unique(lo * V + hi, return_counts=True)
    sorted_dic = dic[order]  # rank -> token bytes
    t = pa.table({
        "tok_a": pa.array(sorted_dic[(uk // V)], type=pa.string()),
        "tok_b": pa.array(sorted_dic[(uk % V)], type=pa.string()),
        "cnt": pa.array(ucnt.astype(np.int64), type=pa.int64()),
    })
    import pyarrow.compute as pc

    pair_key = pc.binary_join_element_wise(t["tok_a"], t["tok_b"], "\x00")
    return t.append_column("_route", pa.array(_hash_strings(pair_key),
                                              type=pa.int64()))


def _pair_totals(tbl: pa.Table, min_count: int) -> pa.Table:
    """Exact per-pair totals within a partition + min-count floor."""
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return pa.table({"tok_a": pa.array([], type=pa.string()),
                         "tok_b": pa.array([], type=pa.string()),
                         "pair_cnt": pa.array([], type=pa.int64())})
    key = pc.binary_join_element_wise(tbl["tok_a"], tbl["tok_b"], "\x00")
    enc = key.combine_chunks().dictionary_encode()
    idx = np.asarray(enc.indices, dtype=np.int64)
    cnt = np.asarray(tbl["cnt"], dtype=np.int64)
    tot = np.zeros(len(enc.dictionary), dtype=np.int64)
    np.add.at(tot, idx, cnt)
    first = np.zeros(len(enc.dictionary), dtype=np.int64)
    first[idx[::-1]] = np.arange(len(idx) - 1, -1, -1, dtype=np.int64)
    keep = tot >= min_count
    sel = pa.array(first[keep])
    return pa.table({
        "tok_a": tbl["tok_a"].take(sel),
        "tok_b": tbl["tok_b"].take(sel),
        "pair_cnt": pa.array(tot[keep], type=pa.int64()),
    })


def pmi_topk(ds, window: int = 3, n: int = 100, min_count: int = 5,
             column: str = "text", num_partitions: int = 32):
    """Top-``n`` collocations by pointwise mutual information — the
    word-embedding-prep / phrase-mining pass of a text pipeline.

    PMI(a,b) = ln(N * c(a,b) / (c(a) * c(b))) over unordered token
    pairs within ``window`` positions, quantized to integer micro-nats
    (floor(1e6 * pmi + 0.5), the BM25 contract) so ranking never
    compares raw floats; ties break ascending on (tok_a, tok_b).

    Shape: pair-count combiner partials -> ONE exchange on the pair ->
    exact totals + min-count floor (bounds everything downstream),
    unigram counts via :func:`token_counts` (one exchange), then TWO
    co-partitioned :func:`~..stages.join.hash_join` probes attach
    c(a) and c(b) — no unigram broadcast, so a 10^8-token vocabulary
    is fine. The only driver gathers are the total-token scalar and
    blocks x n candidate rows.
    """
    import functools

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .exchange import hash_exchange
    from .join import hash_join

    parts = ds.map_batches(
        functools.partial(_pair_partial, column=column, window=window),
        batch_format="pyarrow")
    pairs = hash_exchange(parts, "_route",
                          functools.partial(_pair_totals, min_count=min_count),
                          num_partitions=num_partitions)
    uni = token_counts(ds, column=column, num_partitions=num_partitions)
    agg = uni.aggregate(Sum("cnt", alias_name="n"))
    total = (agg or {}).get("n")
    if not total:  # empty / all-empty-text corpus: no pairs possible
        return pa.table({
            "tok_a": pa.array([], type=pa.string()),
            "tok_b": pa.array([], type=pa.string()),
            "pair_cnt": pa.array([], type=pa.int64()),
            "cnt_a": pa.array([], type=pa.int64()),
            "cnt_b": pa.array([], type=pa.int64()),
            "pmi_micro": pa.array([], type=pa.int64()),
        })

    def a_side(b: pa.Table) -> pa.Table:
        return pa.table({"token": b["tok_a"], "tok_b": b["tok_b"],
                         "pair_cnt": b["pair_cnt"]})

    def ua(b: pa.Table) -> pa.Table:
        return pa.table({"token": b["token"], "cnt_a": b["cnt"]})

    def ub(b: pa.Table) -> pa.Table:
        return pa.table({"token": b["token"], "cnt_b": b["cnt"]})

    j1 = hash_join(pairs.map_batches(a_side, batch_format="pyarrow"),
                   uni.map_batches(ua, batch_format="pyarrow"),
                   "token", num_partitions=num_partitions)

    def b_side(b: pa.Table) -> pa.Table:
        return pa.table({"tok_a": b["token"], "token": b["tok_b"],
                         "pair_cnt": b["pair_cnt"], "cnt_a": b["cnt_a"]})

    j2 = hash_join(j1.map_batches(b_side, batch_format="pyarrow"),
                   uni.map_batches(ub, batch_format="pyarrow"),
                   "token", num_partitions=num_partitions)

    def score(b: pa.Table, _n=float(total)) -> pa.Table:
        pcnt = np.asarray(b["pair_cnt"], dtype=np.float64)
        ca = np.asarray(b["cnt_a"], dtype=np.float64)
        cb = np.asarray(b["cnt_b"], dtype=np.float64)
        pmi = np.log((pcnt * _n) / (ca * cb))
        micro = np.floor(pmi * 1e6 + 0.5).astype(np.int64)
        t = pa.table({
            "tok_a": b["tok_a"], "tok_b": b["token"],
            "pair_cnt": b["pair_cnt"],
            "cnt_a": b["cnt_a"], "cnt_b": b["cnt_b"],
            "pmi_micro": pa.array(micro, type=pa.int64()),
        })
        order = np.lexsort((
            t["tok_b"].to_numpy(zero_copy_only=False),
            t["tok_a"].to_numpy(zero_copy_only=False), -micro))[:n]
        return t.take(pa.array(order))

    cand = j2.map_batches(score, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(["pmi_micro", "tok_a", "tok_b"],
                            ascending=[False, True, True],
                            kind="mergesort").head(n)
    return pa.Table.from_pandas(cand.reset_index(drop=True),
                                preserve_index=False)


# ---- document chunking (training-window prep) ---------------------------

def chunk_documents(ds, size: int, overlap: int = 0,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Split long documents into fixed-size character windows with
    ``overlap`` — the context-window prep step that complements
    :func:`~..stages.curate.pack_sequences` (packing joins SHORT docs;
    chunking splits LONG ones). Chunk i covers characters
    [i*step, i*step + size) with step = size - overlap; every
    character is covered, the final chunk may run short, empty docs
    emit nothing. Pure vectorized map (one Arrow utf8_slice per chunk
    rank over the whole batch, no per-row Python) — embarrassingly
    parallel, zero shuffle at any corpus size.

    Equivalent SQL: ``substr(text, 1 + i*step, size)`` for
    ``i in 0.. while 1 + i*step <= length(text)`` (character
    semantics on both sides)."""
    import functools

    if overlap >= size:
        raise ValueError(f"chunk_documents: overlap {overlap} must be < size {size}")
    return ds.map_batches(
        functools.partial(_chunk_batch, size=size, overlap=overlap,
                          id_col=id_col, text_col=text_col),
        batch_format="pyarrow")


def _chunk_batch(batch: pa.Table, size: int, overlap: int,
                 id_col: str, text_col: str) -> pa.Table:
    import pyarrow.compute as pc

    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    L = np.asarray(pc.utf8_length(texts), dtype=np.int64)
    step = size - overlap
    ids, idxs, chunks = [], [], []
    max_n = int((L.max() - 1) // step + 1) if len(L) and L.max() > 0 else 0
    id_arr = batch[id_col]
    for i in range(max_n):
        mask = L > i * step
        if not mask.any():
            break
        sel = pa.array(np.flatnonzero(mask))
        piece = pc.utf8_slice_codeunits(texts.take(sel),
                                        start=i * step, stop=i * step + size)
        ids.append(id_arr.take(sel))
        idxs.append(np.full(len(sel), i, dtype=np.int64))
        chunks.append(piece)
    if not ids:
        return pa.table({id_col: id_arr.slice(0, 0),
                         "chunk_idx": pa.array([], type=pa.int64()),
                         "chunk": pa.array([], type=pa.string())})
    return pa.table({
        id_col: pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in ids]),
        "chunk_idx": pa.array(np.concatenate(idxs), type=pa.int64()),
        "chunk": pa.concat_arrays([c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in chunks]),
    })


# ---- n-gram counts (LM corpus statistics) --------------------------------

def _ngram_partial(batch: pa.Table, column: str, n: int) -> pa.Table:
    """Per-batch contiguous-n-gram count partial: tokens from ONE Arrow
    whitespace split, n-grams materialized by n-1 vectorized
    binary_join steps over shifted views (no per-row Python), then one
    dictionary_encode collapses the batch to (token, cnt) rows — the
    same combiner shape as _vocab_partial, so the exchange moves
    distinct grams per batch, not the token stream."""
    import pyarrow.compute as pc

    from .curate import _hash_strings

    empty = pa.table({"token": pa.array([], type=pa.string()),
                      "cnt": pa.array([], type=pa.int64()),
                      "_route": pa.array([], type=pa.int64())})
    flat, tlen, offs = _split_tokens(batch[column])
    keep = tlen > 0
    n_words = _per_doc_sum(keep.astype(np.int64), offs)
    words = flat.filter(pa.array(keep)) if not keep.all() else flat
    if len(words) < n:
        return empty
    doc = np.repeat(np.arange(len(n_words), dtype=np.int64), n_words)
    grams = words.slice(0, len(words) - n + 1)
    same = doc[: len(doc) - n + 1] == doc[n - 1:]
    for j in range(1, n):
        grams = pc.binary_join_element_wise(
            grams, words.slice(j, len(words) - n + 1), " ")
    if not same.any():
        return empty
    grams = grams.filter(pa.array(same)) if not same.all() else grams
    enc = grams.combine_chunks().dictionary_encode() \
        if isinstance(grams, pa.ChunkedArray) else grams.dictionary_encode()
    cnt = np.bincount(np.asarray(enc.indices, dtype=np.int64),
                      minlength=len(enc.dictionary)).astype(np.int64)
    t = pa.table({"token": enc.dictionary,
                  "cnt": pa.array(cnt, type=pa.int64())})
    return t.append_column("_route", pa.array(_hash_strings(t["token"]),
                                              type=pa.int64()))


def ngram_topn(ds, n: int, topn: int = 100, min_count: int = 1,
               column: str = "text", num_partitions: int = 32):
    """Global top-``topn`` contiguous token n-grams by corpus count —
    the count table of an n-gram language model (KenLM-style) and the
    phrase-vocabulary pass of corpus analysis. Same exchange shape as
    :func:`vocab_topn` (which is the n=1 special case): per-batch
    combiner partials -> one hash exchange on the gram -> per-partition
    exact totals + local candidates -> bounded driver top-n. Ties
    break ascending on the gram bytes (SQL ORDER BY cnt DESC, gram)."""
    import functools

    from .exchange import hash_exchange

    if n < 1:
        raise ValueError(f"ngram_topn: n must be >= 1, got {n}")
    parts = ds.map_batches(
        functools.partial(_ngram_partial, column=column, n=n),
        batch_format="pyarrow")

    def combine(tbl: pa.Table, _n=topn, _mc=min_count) -> pa.Table:
        t = _token_totals(tbl)
        if _mc > 1:
            m = np.asarray(t["cnt"], dtype=np.int64) >= _mc
            t = t.filter(pa.array(m))
        uniq = t["token"].to_numpy(zero_copy_only=False)
        tot = np.asarray(t["cnt"], dtype=np.int64)
        order = np.lexsort((uniq, -tot))[:_n]
        return t.take(pa.array(order))

    out = hash_exchange(parts, "_route", combine,
                        num_partitions=num_partitions)
    cand = out.to_pandas()
    cand = cand.sort_values(["cnt", "token"], ascending=[False, True],
                            kind="mergesort").head(topn)
    return pa.Table.from_pandas(
        cand.rename(columns={"token": "gram"}).reset_index(drop=True),
        preserve_index=False)


def chunk_documents_tokens(ds, size: int, overlap: int = 0,
                           id_col: str = "doc_id", text_col: str = "text"):
    """Token-unit variant of :func:`chunk_documents`: chunk i carries
    whitespace tokens [i*step, i*step + size) rejoined with single
    spaces (step = size - overlap) — boundaries never split a word,
    the unit a tokenizer-budgeted training pipeline actually wants.
    Same contract otherwise: full coverage, short final chunk, empty
    docs emit nothing, pure vectorized map (one Arrow whitespace split
    + one ListArray slice-join per chunk rank), zero shuffle.

    Equivalent SQL: ``array_to_string(toks[1 + i*step : i*step + size],
    ' ')`` while ``1 + i*step <= len(toks)``."""
    import functools

    if overlap >= size:
        raise ValueError(
            f"chunk_documents_tokens: overlap {overlap} must be < size {size}")
    return ds.map_batches(
        functools.partial(_chunk_tokens_batch, size=size, overlap=overlap,
                          id_col=id_col, text_col=text_col),
        batch_format="pyarrow")


def _chunk_tokens_batch(batch: pa.Table, size: int, overlap: int,
                        id_col: str, text_col: str) -> pa.Table:
    import pyarrow.compute as pc

    flat, tlen, offs = _split_tokens(batch[text_col])
    keep = tlen > 0
    n_tok = _per_doc_sum(keep.astype(np.int64), offs)
    words = flat.filter(pa.array(keep)) if not keep.all() else flat
    w_offs = np.zeros(len(n_tok) + 1, dtype=np.int64)
    np.cumsum(n_tok, out=w_offs[1:])
    step = size - overlap
    id_arr = batch[id_col]
    ids, idxs, chunks = [], [], []
    max_n = int((n_tok.max() - 1) // step + 1) if len(n_tok) and n_tok.max() > 0 else 0
    for i in range(max_n):
        mask = n_tok > i * step
        if not mask.any():
            break
        docs = np.flatnonzero(mask)
        starts = w_offs[docs] + i * step
        ends = np.minimum(starts + size, w_offs[docs + 1])
        # one ragged gather -> ListArray -> binary_join per chunk rank
        lens = ends - starts
        take = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)]) \
            if len(starts) else np.zeros(0, dtype=np.int64)
        loffs = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum(lens, out=loffs[1:])
        piece = pa.ListArray.from_arrays(
            pa.array(loffs, type=pa.int32()),
            words.take(pa.array(take)).combine_chunks()
            if isinstance(words, pa.ChunkedArray) else words.take(pa.array(take)))
        ids.append(id_arr.take(pa.array(docs)))
        idxs.append(np.full(len(docs), i, dtype=np.int64))
        chunks.append(pc.binary_join(piece, " "))
    if not ids:
        return pa.table({id_col: id_arr.slice(0, 0),
                         "chunk_idx": pa.array([], type=pa.int64()),
                         "chunk": pa.array([], type=pa.string())})
    return pa.table({
        id_col: pa.concat_arrays(
            [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
             for a in ids]),
        "chunk_idx": pa.array(np.concatenate(idxs), type=pa.int64()),
        "chunk": pa.concat_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in chunks]),
    })


def _spectrum_combine(tbl: pa.Table) -> pa.Table:
    """Per token-partition: exact totals, then the count-of-counts
    partial (frequency -> how many distinct tokens have it)."""
    if tbl.num_rows == 0:
        return pa.table({"freq": pa.array([], type=pa.int64()),
                         "n_tokens": pa.array([], type=pa.int64())})
    t = _token_totals(tbl)
    f, c = np.unique(np.asarray(t["cnt"], dtype=np.int64),
                     return_counts=True)
    return pa.table({"freq": pa.array(f, type=pa.int64()),
                     "n_tokens": pa.array(c.astype(np.int64),
                                          type=pa.int64())})


def token_freq_spectrum(ds, column: str = "text",
                        num_partitions: int = 32):
    """Zipf frequency spectrum: for every corpus frequency f, the
    number of distinct tokens occurring exactly f times — the
    count-of-counts table Good-Turing smoothing and corpus-health
    checks read. Same shape as vocab_topn (per-batch combiner
    partials, one token exchange); partitions are disjoint by token,
    so per-partition spectra sum exactly in one tiny
    groupby(freq)."""
    import functools

    from ray.data.aggregate import Sum

    from .exchange import hash_exchange

    parts = ds.map_batches(functools.partial(_vocab_partial, column=column),
                           batch_format="pyarrow")
    out = hash_exchange(parts, "_route", _spectrum_combine,
                        num_partitions=num_partitions)
    return out.groupby("freq").aggregate(Sum("n_tokens",
                                             alias_name="n_tokens"))
