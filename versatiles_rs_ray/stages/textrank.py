"""TextRank keyword extraction (Mihalcea & Tarau 2004) — PageRank
over the token co-occurrence graph, distributed AND exactly
reproducible in SQL.

Graph: nodes are tokens, undirected edges weight w(u,v) = count of
co-occurrences within ``window`` positions (the engine's existing
windowed-pair machinery, shared with pmi_topk); self-loops drop.
Iteration (damping d = 0.85 — kept as the EXACT rational 17/20):

    r_{k+1}(v) = 150000 + sum over in-edges (u, v) of
                 (r_k(u) * w(u, v) * 17) // (wdeg(u) * 20)

with ranks in integer micro-units (r_0 = 1,000,000; (1-d)*1e6 =
150000). Every edge's contribution quantizes to an int64 BEFORE the
per-node sum (the engine's lm/pmi/bm25 quantization contract), so
each iteration is order-independent under any partitioning and the
whole fixed-point walk is mirrorable by k chained SQL CTEs — an
ITERATIVE graph algorithm with an exact DuckDB oracle.

Distribution shape per iteration: one co-partitioned ``hash_join``
(edges-by-src x ranks — the edge table is vocabulary-pairs-sized,
far below corpus size) and one hash exchange summing contributions
per destination; the node set co-groups with the contributions as
that exchange's first input, so isolated-this-round nodes still
receive the (1-d) base. Driver
sees only the bounded top-n (per-block prune + merge).

Overflow contract: contributions are exact while
max(r) * max(w) * 17 < 2^63 (checked per batch; at web scale a
mega-hub beyond that needs rank rescaling — raise loudly rather than
wrap silently).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from .text import _pair_partial, _pair_totals

_D_NUM, _D_DEN = 17, 20         # damping 0.85, exact
_R0 = 1_000_000                 # initial rank, micro-units
_BASE = 150_000                 # (1 - d) * 1e6


def _both_directions(b: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    keep = pc.invert(pc.equal(b["tok_a"], b["tok_b"]))
    b = b.filter(keep)
    fwd = pa.table({"src": b["tok_a"], "dst": b["tok_b"],
                    "w": b["pair_cnt"]})
    rev = pa.table({"src": b["tok_b"], "dst": b["tok_a"],
                    "w": b["pair_cnt"]})
    return pa.concat_tables([fwd, rev])


def _attach_wdeg(tbl: pa.Table) -> pa.Table:
    """Per src-partition: all of a src's edges are co-located, so its
    weighted degree is one vectorized grouped sum."""
    if tbl.num_rows == 0:
        return pa.table({"src": pa.array([], type=pa.string()),
                         "dst": pa.array([], type=pa.string()),
                         "w": pa.array([], type=pa.int64()),
                         "_route": pa.array([], type=pa.int64()),
                         "wdeg": pa.array([], type=pa.int64())})
    enc = tbl["src"].combine_chunks().dictionary_encode()
    idx = np.asarray(enc.indices, dtype=np.int64)
    w = np.asarray(tbl["w"], dtype=np.int64)
    deg = np.zeros(len(enc.dictionary), dtype=np.int64)
    np.add.at(deg, idx, w)
    return tbl.append_column("wdeg", pa.array(deg[idx], type=pa.int64()))


def _route_str(col) -> pa.Array:
    from .curate import _hash_strings

    c = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return pa.array(_hash_strings(c), type=pa.int64())


def _contrib_batch(b: pa.Table) -> pa.Table:
    r = np.asarray(b["r"], dtype=np.int64)
    w = np.asarray(b["w"], dtype=np.int64)
    wdeg = np.asarray(b["wdeg"], dtype=np.int64)
    if len(r) and int(r.max()) * int(w.max()) * _D_NUM >= (1 << 63):
        raise OverflowError(
            "textrank: rank * weight * 17 exceeds int64 — rescale ranks")
    c = (r * w * _D_NUM) // (wdeg * _D_DEN)
    t = pa.table({"token": b["dst"], "c": pa.array(c, type=pa.int64())})
    return t.append_column("_route", _route_str(t["token"]))


def _sum_ranks(nodes: pa.Table, contribs: pa.Table) -> pa.Table:
    """Per token-partition: new rank = base + sum of contributions.
    The node rows (token) define the node set; contributions to a
    token outside it drop."""
    if nodes.num_rows == 0:
        return pa.table({"token": pa.array([], type=pa.string()),
                         "r": pa.array([], type=pa.int64()),
                         "_route": pa.array([], type=pa.int64())})
    n_nodes = nodes.num_rows
    chunks = nodes["token"].chunks
    if contribs.num_rows:  # an input with no rows may arrive column-less
        chunks += contribs["token"].chunks
    enc = pa.chunked_array(chunks, type=nodes["token"].type) \
        .combine_chunks().dictionary_encode()
    idx = np.asarray(enc.indices, dtype=np.int64)
    k = len(enc.dictionary)
    s = np.zeros(k, dtype=np.int64)
    if contribs.num_rows:
        np.add.at(s, idx[n_nodes:], np.asarray(contribs["c"], dtype=np.int64))
    node = np.zeros(k, dtype=bool)
    node[idx[:n_nodes]] = True
    out = pa.table({
        "token": enc.dictionary.take(pa.array(np.flatnonzero(node),
                                              type=pa.int64())),
        "r": pa.array(_BASE + s[node], type=pa.int64()),
    })
    return out.append_column("_route", _route_str(out["token"]))


def textrank(ds, window: int = 3, min_count: int = 1, iters: int = 5,
             topn: int = 20, column: str = "text",
             num_partitions: int = 32) -> pa.Table:
    """Top-``topn`` corpus keywords by TextRank score after ``iters``
    exact integer PageRank iterations: (token, rank_micro), ties
    broken ascending on the token bytes."""
    from .exchange import hash_exchange
    from .join import hash_join

    if iters < 1 or topn < 1 or window < 1:
        raise ValueError("textrank: window/iters/topn must be >= 1")
    pairs = ds.map_batches(
        functools.partial(_pair_partial, column=column, window=window),
        batch_format="pyarrow")
    edge_tbl = hash_exchange(
        pairs, "_route",
        functools.partial(_pair_totals, min_count=min_count),
        num_partitions=num_partitions)
    edges = edge_tbl.map_batches(_both_directions, batch_format="pyarrow") \
        .map_batches(lambda b: b.append_column("_route", _route_str(b["src"])),
                     batch_format="pyarrow")
    edges = hash_exchange(edges, "_route", _attach_wdeg,
                          num_partitions=num_partitions).materialize()
    if edges.count() == 0:  # no non-self edges survive the floor
        return pa.table({"token": pa.array([], type=pa.string()),
                         "rank_micro": pa.array([], type=pa.int64())})

    def nodes_of(b: pa.Table) -> pa.Table:
        enc = b["src"].combine_chunks().dictionary_encode()
        t = pa.table({"src": enc.dictionary,
                      "r": pa.array(np.full(len(enc.dictionary), _R0),
                                    type=pa.int64())})
        return t

    ranks = edges.map_batches(nodes_of, batch_format="pyarrow")
    for _ in range(iters):
        joined = hash_join(edges.drop_columns(["_route"]), ranks, on="src",
                           num_partitions=num_partitions)
        contribs = joined.map_batches(_contrib_batch, batch_format="pyarrow")
        nodes = ranks.map_batches(
            lambda b: pa.table({"token": b["src"],
                                "_route": _route_str(b["src"])}),
            batch_format="pyarrow")
        new_ranks = hash_exchange([nodes, contribs], "_route", _sum_ranks,
                                  num_partitions=num_partitions)
        ranks = new_ranks.map_batches(
            lambda b: pa.table({"src": b["token"], "r": b["r"]}),
            batch_format="pyarrow").materialize()

    def prune(b: pa.Table) -> pa.Table:
        r = np.asarray(b["r"], dtype=np.int64)
        tok = b["src"].combine_chunks().to_numpy(
            zero_copy_only=False).astype("U")
        order = np.lexsort((tok, -r))[:topn]
        return pa.table({
            "token": b["src"].take(pa.array(order, type=pa.int64())),
            "rank_micro": pa.array(r[order], type=pa.int64()),
        })

    cand = pa.concat_tables(
        [pa.table(t) for t in ranks.map_batches(
            prune, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow")])
    if cand.num_rows == 0:
        return cand
    r = np.asarray(cand["rank_micro"], dtype=np.int64)
    tok = cand["token"].combine_chunks().to_numpy(
        zero_copy_only=False).astype("U")
    order = np.lexsort((tok, -r))[:topn]
    return cand.take(pa.array(order, type=pa.int64()))
