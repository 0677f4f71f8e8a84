"""End-to-end training-corpus curation: the flagship composition of the
engine's curation stages into the pipeline a 100-TB pretraining run
actually executes, in the canonical order

    quality/repetition filter -> exact dedup -> near-dup removal
    -> perplexity (LM) gate -> per-language stratified mix
    -> deterministic shuffle -> train/val/test split
    -> sequence packing

Every stage is one of the individually oracle-backed operators
(stages/curate, stages/text, stages/dedup, stages/join) chained
lazily — the whole pipeline streams; nothing materializes between
stages except the two unavoidable all-to-alls (exact-dedup exchange,
shuffle sort) and the bounded near-dup label loop. All decisions are
deterministic id-hash / content-hash driven, so a re-run (or a resumed
run on a different cluster size) reproduces the same corpus
bit-for-bit — the property that makes 100-TB curation restartable.

New surface relative to the reference (its pipeline notion is tile
containers, pipeline/src/operations/*): the graft's training-data
story. CLI: ``python -m versatiles_rs_ray corpus curate``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.hashing import fmix64

# Stage salts: every hash-driven stage decides on a DIFFERENT mix of
# the id. stratified_sample hashes the raw id (Knuth); the shuffle
# order and the split assignment each hash an fmix64-salted id —
# without this, "keep the en stratum at 0.5" and "val = bucket in
# [0.90, 0.95)" are decided by the SAME bucket value, and every
# surviving en doc lands in train (val/test silently starve).
_SHUFFLE_SALT = 0x9E3779B97F4A7C15
_SPLIT_SALT = 0xC2B2AE3D27D4EB4F


def _salted_id(ids: np.ndarray, salt: int) -> np.ndarray:
    h = fmix64(ids.astype(np.uint64) ^ np.uint64(salt))
    return (h >> np.uint64(1)).astype(np.int64)  # non-negative int64


def _quality_filter_batch(batch: pa.Table, text_col: str, min_quality: int,
                          drop_repetitive: bool) -> pa.Table:
    """Fused per-doc quality gate: one map computes the integer quality
    bucket and (optionally) the Gopher repetition flag over the SAME
    Arrow whitespace split and keeps only survivors — signals never
    leave the stage, so the output schema equals the input schema."""
    import pyarrow.compute as pc

    from ..stages import text as T

    txt = batch[text_col]
    tmp = pa.table({
        "doc_id": pa.array(np.zeros(batch.num_rows, dtype=np.int64)),
        "text": txt,
        "n_chars": pc.utf8_length(txt).cast(pa.int64()),
    })
    keep = np.asarray(T.quality_batch(tmp)["quality_bucket"]) >= min_quality
    if drop_repetitive:
        keep &= ~np.asarray(T.repetition_stats_batch(tmp)["repetitive"])
    if keep.all():
        return batch
    return batch.filter(pa.array(keep))


def _as_dedup_view(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    out = batch
    if id_col != "doc_num":
        out = out.append_column("doc_num", out[id_col].cast(pa.int64()))
    if text_col != "text":
        out = out.append_column("text", out[text_col])
    return out


def drop_near_duplicates(ds, *, id_col: str = "doc_id", text_col: str = "text",
                         near_dup_threshold: float, ngram_k: int = 5,
                         near_dup_method: str = "ngram",
                         near_dup_partitions: int = 32,
                         ngram_max_df: int | None = None):
    """The near-dup stage of :func:`curate_corpus` (also ``corpus dedup
    --mode near``): keep one doc per component of pairs whose shingle
    Jaccard is >= ``near_dup_threshold`` — the smallest ``id_col`` —
    and return the input's columns unchanged.

    The pair stages read ``doc_num``/``text``; when ``id_col`` or
    ``text_col`` has another name, that column is copied under the
    role name for the stage and dropped after, so an input that
    already holds a ``doc_num`` or ``text`` column of its own is
    refused (ValueError) instead of silently deduplicated on it.
    """
    import functools

    import pyarrow.compute as pc

    from ..stages import dedup as DD
    from ..stages.join import anti_join_ids

    for reserved, param in (("doc_num", id_col), ("text", text_col)):
        if reserved != param and reserved in ds.schema().names:
            raise ValueError(
                f"near-dup stage reserves column {reserved!r} (input "
                f"already has it; rename it or pass it as the "
                f"{reserved}-role column)")
    view = ds.map_batches(
        functools.partial(_as_dedup_view, id_col=id_col, text_col=text_col),
        batch_format="pyarrow")
    if near_dup_method == "minhash":
        # the 100-TB path: banded MinHash-LSH candidates (hot
        # buckets capped + logged) -> co-partitioned EXACT Jaccard
        # verify — shuffle volume O(signatures + candidate pairs),
        # never the Sum(df^2) of the exact inverted index below.
        # Signatures run as plain tasks (per-process cached
        # constants): zero pool ramp, scales to every core.
        cand = DD.minhash_candidates(
            view, k=ngram_k, num_partitions=near_dup_partitions)
        pairs = DD.jaccard_verify_exchange(
            cand, view, k=ngram_k, threshold=near_dup_threshold,
            num_partitions=near_dup_partitions)
    elif near_dup_method == "ngram":
        pairs = DD.ngram_jaccard_pairs(view, k=ngram_k,
                                       threshold=near_dup_threshold,
                                       max_df=ngram_max_df)
    else:
        raise ValueError(
            f"curate_corpus: near_dup_method must be 'ngram' or "
            f"'minhash', got {near_dup_method!r}")
    labels = DD.propagate_min_labels_exchange(pairs)

    def drops(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.not_equal(batch["doc_num"], batch["group_id"]))
        return t.select(["doc_num"])

    drop_ds = labels.map_batches(drops, batch_format="pyarrow")
    out = anti_join_ids(view, drop_ds, "doc_num")
    appended = [c for c, param in (("doc_num", id_col), ("text", text_col))
                if c != param]
    return out.drop_columns(appended) if appended else out


def curate_corpus(ds, *, id_col: str = "doc_id", text_col: str = "text",
                  lang_col: str = "lang", min_quality: int = 1,
                  drop_repetitive: bool = True,
                  near_dup_threshold: float | None = None, ngram_k: int = 5,
                  near_dup_method: str = "ngram",
                  near_dup_partitions: int = 32,
                  max_ppl_micro: int | None = None,
                  ppl_percentile: float | None = None, lm_order: int = 2,
                  lm_alpha: float = 0.4, lm_min_count: int = 2,
                  lang_fracs: dict | None = None, default_frac: float = 1.0,
                  split_fracs: dict | None = None,
                  pack_budget: int | None = None,
                  token_col: str = "n_chars",
                  ngram_max_df: int | None = None,
                  stage_cb=None):
    """Run the full curation chain over a documents Dataset and return
    the curated Dataset (original columns, plus ``split`` when
    ``split_fracs`` is given and ``seq_id`` when ``pack_budget`` is).

    ``id_col`` must be castable to int64 and unique (drives every
    deterministic hash decision). Stages whose knob is None/0 are
    skipped entirely — no pass over the data is paid for a disabled
    stage. When both ``split_fracs`` and ``pack_budget`` are given,
    each split packs independently (training sequences must never
    straddle a split boundary).

    ``ngram_max_df`` passes through to the near-dup pair generator
    (stages/dedup.ngram_jaccard_pairs): grams shared by more docs are
    dropped (logged; under-merge only) — the web-scale knob that
    bounds the inverted-index pair fanout under zipf-hot boilerplate.

    ``stage_cb(name, ds) -> ds`` is called at each enabled stage
    boundary (names: gate, exact_dedup, near_dup, ppl_gate, mix,
    shuffle, split, pack) and its return value feeds the next stage.
    The bench uses it to materialize and time each stage in
    isolation; the default (None) keeps the chain fully lazy.
    """
    import functools

    from ..stages.curate import (dataset_split, deterministic_shuffle,
                                 pack_sequences, quota_per_key,
                                 stratified_sample)

    def _cb(name, d):
        return stage_cb(name, d) if stage_cb is not None else d

    if min_quality > 0 or drop_repetitive:
        ds = ds.map_batches(
            functools.partial(_quality_filter_batch, text_col=text_col,
                              min_quality=min_quality,
                              drop_repetitive=drop_repetitive),
            batch_format="pyarrow")
        ds = _cb("gate", ds)

    # exact dedup: keep the smallest id per distinct text (content-hash
    # exchange; O(rows) shuffle, no driver state)
    ds = _cb("exact_dedup", quota_per_key(ds, text_col, id_col, 1))

    if near_dup_threshold is not None:
        ds = _cb("near_dup", drop_near_duplicates(
            ds, id_col=id_col, text_col=text_col,
            near_dup_threshold=near_dup_threshold, ngram_k=ngram_k,
            near_dup_method=near_dup_method,
            near_dup_partitions=near_dup_partitions,
            ngram_max_df=ngram_max_df))

    if ppl_percentile is not None and max_ppl_micro is not None:
        raise ValueError(
            "curate_corpus: max_ppl_micro and ppl_percentile are "
            "mutually exclusive (absolute vs distribution-derived cut)")
    if ppl_percentile is not None and not 0.0 < ppl_percentile <= 1.0:
        raise ValueError(
            f"curate_corpus: ppl_percentile must be in (0, 1], got "
            f"{ppl_percentile}")
    if max_ppl_micro is not None or ppl_percentile is not None:
        # CCNet-style perplexity gate AFTER dedup (the LM self-trains
        # on the deduped corpus, so boilerplate mass can't drag the
        # model toward itself): keep docs whose mean NLL per token is
        # <= max_ppl_micro micro-nats. The comparison stays integer —
        # nll_micro <= max_ppl_micro * n_tok — so the cut is exact
        # under any partitioning (stages/lm quantization contract).
        import pyarrow.compute as pc

        from ..stages.join import anti_join_ids
        from ..stages.lm import lm_score

        scores = lm_score(ds, n=lm_order, alpha=lm_alpha,
                          min_count=lm_min_count, column=text_col,
                          id_col=id_col)

        if ppl_percentile is not None:
            # distribution-derived cut (the CCNet head/middle split):
            # keep the best `ppl_percentile` fraction by mean NLL per
            # token. The ratio is one float64 division of two int64s
            # (identical on every worker) and the threshold is the
            # EXACT element at the percentile rank (radix selection,
            # stages/quantiles) — so `ratio <= thr` is deterministic
            # and partition-invariant, no approximate sketch anywhere.
            from ..stages.quantiles import float_quantiles

            def ratio_of(b: pa.Table) -> pa.Table:
                nll = np.asarray(b["nll_micro"], dtype=np.float64)
                ntk = np.asarray(b["n_tok"], dtype=np.int64)
                r = np.divide(nll, ntk, out=np.zeros_like(nll),
                              where=ntk > 0)
                return pa.table({id_col: b[id_col],
                                 "ppl_ratio": pa.array(r,
                                                       type=pa.float64())})

            ratios = scores.map_batches(ratio_of, batch_format="pyarrow")
            try:
                thr = float(float_quantiles(
                    ratios, "ppl_ratio",
                    (ppl_percentile,))["value"][0].as_py())
            except ValueError:
                # zero scored documents (e.g. every survivor tokenizes
                # to nothing): the gate degrades to a no-op, matching
                # the --max-ppl branch on the same input.
                thr = float("inf")

            def over_budget(b: pa.Table) -> pa.Table:
                bad = np.asarray(b["ppl_ratio"], dtype=np.float64) > thr
                return b.filter(pa.array(bad)).select([id_col])

            drop_ppl = ratios.map_batches(over_budget,
                                          batch_format="pyarrow")
        else:
            def over_budget(b: pa.Table) -> pa.Table:
                nll = np.asarray(b["nll_micro"], dtype=np.int64)
                ntk = np.asarray(b["n_tok"], dtype=np.int64)
                bad = nll > int(max_ppl_micro) * ntk
                return b.filter(pa.array(bad)).select([id_col])

            drop_ppl = scores.map_batches(over_budget,
                                          batch_format="pyarrow")
        ds = _cb("ppl_gate",
                 anti_join_ids(ds, drop_ppl, id_col))

    if lang_fracs is not None:
        def add_num(b: pa.Table) -> pa.Table:
            if "__mix_id" in b.column_names:
                return b
            return b.append_column("__mix_id", b[id_col].cast(pa.int64()))

        ds = _cb("mix", stratified_sample(
            ds.map_batches(add_num, batch_format="pyarrow"),
            "__mix_id", lang_col, lang_fracs, default=default_frac,
        ).drop_columns(["__mix_id"]))

    def add_rank_ids(b: pa.Table) -> pa.Table:
        if "__ord_id" in b.column_names:
            return b
        ids = np.asarray(b[id_col].cast(pa.int64()), dtype=np.int64)
        b = b.append_column("__ord_id", pa.array(
            _salted_id(ids, _SHUFFLE_SALT), type=pa.int64()))
        return b.append_column("__split_id", pa.array(
            _salted_id(ids, _SPLIT_SALT), type=pa.int64()))

    needs_order = split_fracs is not None or pack_budget is not None
    if needs_order:
        ds = _cb("shuffle", deterministic_shuffle(
            ds.map_batches(add_rank_ids, batch_format="pyarrow"),
            "__ord_id"))
    if split_fracs is not None:
        ds = _cb("split", dataset_split(ds, "__split_id", split_fracs))
    if pack_budget is not None:
        if split_fracs is not None:
            import pyarrow.compute as pc
            import ray.data as rd

            parts = []
            for name in split_fracs:
                one = ds.map_batches(
                    functools.partial(_keep_split, name=name),
                    batch_format="pyarrow")
                parts.append(pack_sequences(one, token_col, pack_budget,
                                            "shuffle_rank"))
            out = parts[0]
            for p in parts[1:]:
                out = out.union(p)
            ds = out
        else:
            ds = pack_sequences(ds, token_col, pack_budget, "shuffle_rank")
        ds = _cb("pack", ds)
    if needs_order:
        ds = ds.drop_columns(["__ord_id", "__split_id"])
    return ds


def _keep_split(batch: pa.Table, name: str) -> pa.Table:
    import pyarrow.compute as pc

    return batch.filter(pc.equal(batch["split"], name))
