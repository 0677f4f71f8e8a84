"""Distributed triangle counting + local clustering coefficients —
the standard graph diagnostic for proximity / duplicate graphs ("how
clique-y are the clusters this dedup pass found?"), as two exchanges
on the engine's primitives. No adjacency ever lives on the driver.

Input contract: an ordered pair Dataset (doc_a, doc_b) with BOTH
directions present and each ordered pair exactly once, no self
loops — exactly what ``stages/cluster.eps_pairs`` and the dedup pair
generators emit.

Shape (the classic MapReduce triangle count, Suri & Vassilvitskii
2011, adapted to per-node counts):

1. wedges: one co-partitioned self-join of the pair table on the
   middle vertex — wedge (a, m, c) for edges (a, m), (m, c), a != c.
   Volume is sum over m of deg(m)^2, the inherent wedge count; a
   degree-capped variant is the documented mitigation for hub-heavy
   graphs (cap = skip wedges whose mid degree exceeds a bound, as the
   dedup LSH stages cap hot buckets — proximity graphs bound degree
   geometrically, so the default leaves it off).
2. closure: wedges and (deduplicated, min-first) edges co-group by
   the engine's pair hash on the wedge's endpoints {a, c}; each partition
   matches EXACT (lo, hi) id pairs (np.unique row-dictionary — the
   hash only routes, collisions cannot close a wedge). A wedge closes
   iff the edge {a, c} exists; each triangle closes exactly 2 wedges
   per corner node, so the per-node closed-wedge count is 2*T(node).
3. per-node sums + degree join: triangles = cnt/2 (exact int), local
   clustering coefficient in integer micro-units =
   (cnt * 1e6) // (deg * (deg - 1)) for deg >= 2 else 0 — every
   division on non-negative int64, order-independent, SQL-mirrorable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

CLUS_MICRO = 10 ** 6


def _empty_counts() -> pa.Table:
    return pa.table({"doc_num": pa.array([], type=pa.int64()),
                     "cnt": pa.array([], type=pa.int64())})


def _closure_combine(wedges: pa.Table, edges: pa.Table) -> pa.Table:
    """Per pair-routed partition: match wedge endpoint pairs against
    the edge set exactly, count closed wedges per wedge-source a."""
    if wedges.num_rows == 0 or edges.num_rows == 0:
        return _empty_counts()
    n_w = wedges.num_rows
    rows = np.stack([
        np.concatenate([np.asarray(t[c], dtype=np.int64)
                        for t in (wedges, edges)])
        for c in ("lo", "hi")], axis=1)
    _, inv = np.unique(rows, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    closed = np.isin(inv[:n_w], inv[n_w:])
    src = np.asarray(wedges["a"], dtype=np.int64)[closed]
    if not len(src):
        return _empty_counts()
    u, c = np.unique(src, return_counts=True)
    return pa.table({"doc_num": pa.array(u, type=pa.int64()),
                     "cnt": pa.array(c.astype(np.int64), type=pa.int64())})


def _sum_counts(table: pa.Table) -> pa.Table:
    if table.num_rows == 0:
        return _empty_counts()
    d = np.asarray(table["doc_num"], dtype=np.int64)
    c = np.asarray(table["cnt"], dtype=np.int64)
    u, inv = np.unique(d, return_inverse=True)
    s = np.zeros(len(u), dtype=np.int64)
    np.add.at(s, inv, c)
    return pa.table({"doc_num": pa.array(u, type=pa.int64()),
                     "cnt": pa.array(s, type=pa.int64())})


def triangle_stats(pairs_ds, num_partitions: int = 32,
                   max_degree: int | None = 4096):
    """Dataset (doc_num, deg, triangles, clus_micro) — one row per
    vertex with degree >= 1 in the ordered-pair input (see module
    docstring for contracts and the closure construction).

    ``max_degree`` bounds the wedge expansion (volume is sum over m of
    deg(m)^2 — quadratic in hub degree, the power-law failure mode the
    Suri & Vassilvitskii construction is famous for): edges incident
    to any node of degree > max_degree are removed BEFORE the wedge
    and closure passes, so the reported ``triangles`` column is the
    EXACT triangle count of the hub-free subgraph — a true lower
    bound for every node (dropping a corner's wedges asymmetrically
    would skew per-corner counts; dropping the hub's edges keeps the
    remaining count a well-defined graph statistic), and exact for
    every node that shares no triangle with a hub. ``deg`` stays the
    full-graph degree (it was already reduced), so ``clus_micro`` is
    the same lower bound. The default is ON and generous (4096: one
    hub costs <= 16.7M wedge rows); every capped run logs the hub
    count and skipped wedge volume loudly. Pass ``max_degree=None``
    for the exact uncapped count on graphs whose degree is known to
    be bounded (proximity/dedup pair graphs bound it geometrically).
    """
    import logging

    import ray

    from ..stages.dedup import _pair_route
    from .cluster import _deg_combine
    from .exchange import hash_exchange
    from .join import hash_join

    pairs = pairs_ds.materialize()
    deg = hash_exchange(pairs, "doc_a", _deg_combine,
                        num_partitions=num_partitions).materialize()
    hub_ref = None
    if max_degree is not None:
        import pyarrow.compute as pc

        # Hub table is bounded by construction: sum(deg) = 2|E|, so at
        # most 2|E|/max_degree rows can exceed the cap — KB-scale for
        # any generous cap, never the vertex table.
        hub_schema = pa.schema([("doc_num", pa.int64()),
                                ("deg", pa.int64())])
        hubs = pa.concat_tables(
            [pa.table(b).select(["doc_num", "deg"]) for b in
             deg.map_batches(
                 lambda b, _c=max_degree: b.filter(
                     pc.greater(b["deg"], _c)),
                 batch_format="pyarrow").iter_batches(
                     batch_format="pyarrow")] or
            [hub_schema.empty_table()])
        if hubs.num_rows:
            hd = np.asarray(hubs["deg"], dtype=np.int64)
            logging.getLogger(__name__).warning(
                "triangle_stats: %d hub node(s) exceed max_degree=%d "
                "(max observed degree %d); their incident edges are "
                "SKIPPED (~%d wedges avoided) — triangle counts are "
                "exact on the hub-free subgraph, i.e. lower bounds "
                "for nodes in hub triangles. Raise max_degree or "
                "pass None for the exact (quadratic-in-hub-degree) "
                "count.",
                hubs.num_rows, max_degree, int(hd.max()),
                int((hd * (hd - 1)).sum()))
            hub_ref = ray.put(
                np.asarray(hubs["doc_num"], dtype=np.int64))
    if deg.count() == 0:
        return deg.map_batches(
            lambda b: pa.table({
                "doc_num": pa.array([], type=pa.int64()),
                "deg": pa.array([], type=pa.int64()),
                "triangles": pa.array([], type=pa.int64()),
                "clus_micro": pa.array([], type=pa.int64())}),
            batch_format="pyarrow")

    wpairs = pairs
    if hub_ref is not None:
        def _drop_hub_edges(b: pa.Table, _h=hub_ref) -> pa.Table:
            hub = ray.get(_h)
            av = np.asarray(b["doc_a"], dtype=np.int64)
            bv = np.asarray(b["doc_b"], dtype=np.int64)
            idx = np.flatnonzero(~(np.isin(av, hub) | np.isin(bv, hub)))
            return pa.table({
                "doc_a": b["doc_a"].combine_chunks().take(idx),
                "doc_b": b["doc_b"].combine_chunks().take(idx)})

        wpairs = pairs.map_batches(_drop_hub_edges,
                                   batch_format="pyarrow")

    left = wpairs.map_batches(
        lambda b: pa.table({"a": b["doc_a"], "mid": b["doc_b"]}),
        batch_format="pyarrow")
    right = wpairs.map_batches(
        lambda b: pa.table({"mid": b["doc_a"], "c": b["doc_b"]}),
        batch_format="pyarrow")
    wedges = hash_join(left, right, on="mid",
                       num_partitions=num_partitions)

    def wedge_rows(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.invert(pc.equal(b["a"], b["c"])))
        av = np.asarray(b["a"], dtype=np.int64)
        cv = np.asarray(b["c"], dtype=np.int64)
        lo = np.minimum(av, cv)
        hi = np.maximum(av, cv)
        return pa.table({
            "pk": pa.array(_pair_route(lo, hi), type=pa.int64()),
            "lo": pa.array(lo, type=pa.int64()),
            "hi": pa.array(hi, type=pa.int64()),
            "a": pa.array(av, type=pa.int64()),
        })

    def edge_rows(b: pa.Table) -> pa.Table:
        av = np.asarray(b["doc_a"], dtype=np.int64)
        bv = np.asarray(b["doc_b"], dtype=np.int64)
        keep = av < bv          # each undirected edge once
        av, bv = av[keep], bv[keep]
        return pa.table({
            "pk": pa.array(_pair_route(av, bv), type=pa.int64()),
            "lo": pa.array(av, type=pa.int64()),
            "hi": pa.array(bv, type=pa.int64()),
        })

    partials = hash_exchange(
        [wedges.map_batches(wedge_rows, batch_format="pyarrow"),
         wpairs.map_batches(edge_rows, batch_format="pyarrow")],
        "pk", _closure_combine, num_partitions=num_partitions)
    counts = hash_exchange(partials, "doc_num", _sum_counts,
                           num_partitions=num_partitions)
    out = hash_join(deg, counts, on="doc_num", how="left",
                    num_partitions=num_partitions)

    def finish(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = np.asarray(b["deg"], dtype=np.int64)
        cnt = np.asarray(pc.fill_null(b["cnt"], 0), dtype=np.int64)
        denom = d * (d - 1)
        clus = np.where(denom > 0, (cnt * CLUS_MICRO) //
                        np.maximum(denom, 1), 0)
        return pa.table({
            "doc_num": b["doc_num"],
            "deg": pa.array(d, type=pa.int64()),
            "triangles": pa.array(cnt // 2, type=pa.int64()),
            "clus_micro": pa.array(clus, type=pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")
