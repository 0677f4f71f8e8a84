"""Distributed DBSCAN (Ester et al. 1996) over point columns — the
grid-bucketed formulation every at-scale implementation uses
(MR-DBSCAN shape): NO pairwise matrix, NO broadcast point set.

Stages, all on existing engine primitives:

1. ``eps_pairs`` — eps-neighbor pair generation. Each point routes to
   its eps-sized grid cell once as a HOME row and to the 8 neighbor
   cells as candidate replicas (a point within eps of another sits at
   most one cell away when the cell width is >= eps); one hash
   exchange co-locates each cell, and the per-partition combine emits
   the ordered pairs (a, b), a != b, dist^2 <= eps^2 via a fully
   vectorized ragged cross-product (the `_rect_cell_rows` enumeration
   trick — no per-cell Python loop), chunked so peak memory is bounded
   by PAIR_CHUNK candidate pairs regardless of cell skew. Every
   ordered pair is emitted exactly once (from a's home cell), so
   per-src counts ARE the neighbor degrees.
2. degrees -> core flags: one hash exchange counting pairs per src;
   core iff deg + 1 >= min_pts (the classic |N_eps(p)| includes p).
3. core-core edges -> clusters: the engine's distributed min-label
   propagation, rounds of the one hash exchange
   (stages/dedup.propagate_min_labels_exchange); cluster id = min
   doc_num in the component. Isolated cores become singleton
   clusters (their own id) via a co-partitioned anti-join.
4. border points (non-core with >= 1 core neighbor) join the MINIMUM
   cluster id among their core neighbors — the deterministic variant
   of DBSCAN's order-dependent border assignment, stated here as the
   engine contract (the oracle mirrors it exactly).
5. everything else is noise, cluster = -1.

Float contract: the distance test is (ax-bx)*(ax-bx)+(ay-by)*(ay-by)
<= eps*eps evaluated as three IEEE-rounded float64 ops — bit-identical
between numpy (separate ufunc calls, no FMA) and DuckDB's expression
executor, so the oracle comparison is exact, the same contract the
PIP/kNN oracles rely on. Cells are cut at width eps*(1+1e-9): strictly
wider than eps, so two points within eps can never land more than one
cell apart even under worst-case rounding of lon/cw.

Scale posture: shuffle volume is 9 rows per point (the 3x3 grid
replication) plus the realized eps-pairs; everything after the pair
table is pairs-sized or corpus-sized exchanges. ``num_partitions`` is
the memory knob, as everywhere in the engine. The reference has no
clustering surface (this is graft-axis breadth, like as-of/range
joins); the published algorithm + the engine's exchange are the whole
design.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

_OFF = 1 << 20          # grid key offset; |cell index| must stay below
_SPAN = 1 << 21         # key = (kx+_OFF) * _SPAN + (ky+_OFF) < 2^42
PAIR_CHUNK = 1 << 22    # max candidate pairs evaluated per numpy slice


def _grid_rows(batch: pa.Table, cw: float, mode: str = "self",
               id_col: str = "doc_num", lon_col: str = "lon",
               lat_col: str = "lat") -> pa.Table:
    """Grid-cell routing rows for the pair kernels — ONE emitter for
    both join shapes. mode:
      'self' — 9 replicas, side=1 on the own cell (the home row
               doubles as the own-cell candidate): eps_pairs/DBSCAN.
      'home' — 1 row in the own cell, side=1: within_join left side.
      'cand' — 9 replicas, all side=0: within_join right side.
    """
    pid = np.asarray(batch[id_col], dtype=np.int64)
    x = np.asarray(batch[lon_col], dtype=np.float64)
    y = np.asarray(batch[lat_col], dtype=np.float64)
    kx = np.floor(x / cw).astype(np.int64)
    ky = np.floor(y / cw).astype(np.int64)
    if len(kx) and (np.abs(kx).max() >= _OFF - 1 or np.abs(ky).max() >= _OFF - 1):
        raise ValueError(
            "grid pair join: cell index exceeds the packing range — "
            f"eps is too small for the coordinate span (need span/eps < {_OFF})")
    n = len(pid)
    offs = [(0, 0)] if mode == "home" else [
        (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    cells, sides = [], []
    for dx, dy in offs:
        cells.append((kx + dx + _OFF) * _SPAN + (ky + dy + _OFF))
        if mode == "cand":
            side_val = 0
        elif mode == "home":
            side_val = 1
        else:
            side_val = 1 if (dx == 0 and dy == 0) else 0
        sides.append(np.full(n, side_val, dtype=np.int8))
    reps = len(offs)
    return pa.table({
        "cell": pa.array(np.concatenate(cells) if reps > 1 else cells[0],
                         type=pa.int64()),
        "side": pa.array(np.concatenate(sides), type=pa.int8()),
        "doc": pa.array(np.tile(pid, reps), type=pa.int64()),
        "x": pa.array(np.tile(x, reps), type=pa.float64()),
        "y": pa.array(np.tile(y, reps), type=pa.float64()),
    })


def _cell_rows(batch: pa.Table, cw: float) -> pa.Table:
    return _grid_rows(batch, cw, mode="self")


def _pair_kernel(table: pa.Table, eps2: float, bilateral: bool) -> pa.Table:
    """Shared chunked pair-expansion kernel: per cell-partition, pair
    home rows (side=1) against candidates within eps.

    unilateral (bilateral=False): candidates = ALL rows in the cell
    (the home row doubles as its own-cell candidate), self-pairs
    excluded; output (doc_a, doc_b) — every ordered pair exactly once
    from a's home cell.
    bilateral: candidates = side-0 rows only (the other table), no
    self-exclusion; output (left_id, right_id) exactly once from the
    left point's home cell.

    Chunking walks the GLOBAL flattened pair-index space, so every
    numpy slice is bounded by PAIR_CHUNK candidate pairs no matter
    how skewed a single cell is."""
    names = ("left_id", "right_id") if bilateral else ("doc_a", "doc_b")
    empty = pa.table({names[0]: pa.array([], type=pa.int64()),
                      names[1]: pa.array([], type=pa.int64())})
    if table.num_rows == 0:
        return empty
    cell = np.asarray(table["cell"], dtype=np.int64)
    side = np.asarray(table["side"], dtype=np.int64)
    doc = np.asarray(table["doc"], dtype=np.int64)
    x = np.asarray(table["x"], dtype=np.float64)
    y = np.asarray(table["y"], dtype=np.float64)
    order = np.lexsort((side, cell))        # candidates first, homes last
    cell, side, doc, x, y = (cell[order], side[order], doc[order],
                             x[order], y[order])
    grp_start = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    grp_end = np.r_[grp_start[1:], len(cell)]
    n_all = grp_end - grp_start
    n_home = np.add.reduceat(side, grp_start)
    n_cand = (n_all - n_home) if bilateral else n_all
    home_start = grp_end - n_home
    per_grp = n_home * n_cand
    cum = np.cumsum(per_grp)
    grp_off = cum - per_grp
    total = int(cum[-1]) if len(cum) else 0
    out_a, out_b = [], []
    b0 = 0
    while b0 < total:
        b1 = min(b0 + PAIR_CHUNK, total)
        idx = np.arange(b0, b1, dtype=np.int64)
        # right-bisect skips zero-pair groups (their cum range is empty)
        grp = np.searchsorted(cum, idx, side="right")
        pos = idx - grp_off[grp]
        nc = n_cand[grp]
        hi = home_start[grp] + pos // nc
        ji = grp_start[grp] + pos % nc
        dx = x[hi] - x[ji]
        dy = y[hi] - y[ji]
        keep = dx * dx + dy * dy <= eps2
        if not bilateral:
            keep &= doc[hi] != doc[ji]
        out_a.append(doc[hi][keep])
        out_b.append(doc[ji][keep])
        b0 = b1
    if not out_a:
        return empty
    return pa.table({
        names[0]: pa.array(np.concatenate(out_a), type=pa.int64()),
        names[1]: pa.array(np.concatenate(out_b), type=pa.int64()),
    })


def _pair_combine(table: pa.Table, eps2: float) -> pa.Table:
    return _pair_kernel(table, eps2, bilateral=False)


def eps_pairs(pts_ds, eps: float, num_partitions: int = 32):
    """Dataset of ordered pairs (doc_a, doc_b), doc_a != doc_b, with
    (lon, lat) euclidean distance^2 <= eps^2 — each ordered pair
    exactly once. Input columns: doc_num, lon, lat."""
    from .exchange import hash_exchange

    if not (eps > 0):
        raise ValueError("eps_pairs: eps must be > 0")
    cw = float(eps) * (1.0 + 1e-9)
    rows = pts_ds.map_batches(functools.partial(_cell_rows, cw=cw),
                              batch_format="pyarrow")
    return hash_exchange(
        rows, "cell",
        functools.partial(_pair_combine, eps2=float(eps) * float(eps)),
        num_partitions=num_partitions)


def _deg_combine(table: pa.Table) -> pa.Table:
    if table.num_rows == 0:
        return pa.table({"doc_num": pa.array([], type=pa.int64()),
                         "deg": pa.array([], type=pa.int64())})
    a = np.asarray(table["doc_a"], dtype=np.int64)
    u, c = np.unique(a, return_counts=True)
    return pa.table({"doc_num": pa.array(u, type=pa.int64()),
                     "deg": pa.array(c.astype(np.int64), type=pa.int64())})


def _rename(t: pa.Table, mapping: dict) -> pa.Table:
    return t.rename_columns([mapping.get(n, n) for n in t.column_names])


def _const_col(t: pa.Table, name: str, val: int) -> pa.Table:
    return t.append_column(
        name, pa.array(np.full(t.num_rows, val, dtype=np.int64),
                       type=pa.int64()))


def dbscan(pts_ds, eps: float, min_pts: int, num_partitions: int = 32,
           max_rounds: int = 64):
    """Full DBSCAN labeling: Dataset (doc_num, cluster, is_core) —
    one row per input point; cluster = min doc_num of the point's
    cluster, or -1 for noise; is_core in {0, 1}.

    See the module docstring for semantics (deterministic min-label
    border assignment) and the float contract."""
    import pyarrow.compute as pc

    from ..stages.dedup import propagate_min_labels_exchange
    from .exchange import hash_exchange
    from .join import hash_join

    if min_pts < 1:
        raise ValueError("dbscan: min_pts must be >= 1")
    pts = pts_ds.map_batches(
        lambda b: b.select(["doc_num"]), batch_format="pyarrow").materialize()
    pairs = eps_pairs(pts_ds, eps, num_partitions).materialize()

    if pairs.count() == 0:
        # no eps-neighbors anywhere: min_pts==1 makes every point a
        # singleton core cluster, otherwise everything is noise
        def lonely(b: pa.Table) -> pa.Table:
            n = b.num_rows
            own = np.asarray(b["doc_num"], dtype=np.int64)
            c = own if min_pts == 1 else np.full(n, -1, dtype=np.int64)
            k = np.full(n, 1 if min_pts == 1 else 0, dtype=np.int64)
            return pa.table({"doc_num": b["doc_num"],
                             "cluster": pa.array(c, type=pa.int64()),
                             "is_core": pa.array(k, type=pa.int64())})

        return pts.map_batches(lonely, batch_format="pyarrow")

    if min_pts == 1:
        cores = pts
    else:
        deg = hash_exchange(pairs, "doc_a", _deg_combine,
                            num_partitions=num_partitions)
        thr = int(min_pts) - 1

        def core_filter(b: pa.Table) -> pa.Table:
            return b.filter(pc.greater_equal(b["deg"], thr)).select(["doc_num"])

        cores = deg.map_batches(core_filter, batch_format="pyarrow")
    cores = cores.materialize()

    ca = cores.map_batches(
        lambda b: _const_col(_rename(b, {"doc_num": "doc_a"}), "ca", 1),
        batch_format="pyarrow")
    cb = cores.map_batches(
        lambda b: _const_col(_rename(b, {"doc_num": "doc_b"}), "cb", 1),
        batch_format="pyarrow")
    flagged = hash_join(pairs, ca, on="doc_a", how="left",
                        num_partitions=num_partitions)
    flagged = hash_join(flagged, cb, on="doc_b", how="left",
                        num_partitions=num_partitions).materialize()

    def core_edges(b: pa.Table) -> pa.Table:
        keep = pc.and_kleene(
            pc.and_kleene(pc.equal(b["ca"], 1), pc.equal(b["cb"], 1)),
            pc.less(b["doc_a"], b["doc_b"]))
        return b.filter(pc.fill_null(keep, False)).select(["doc_a", "doc_b"])

    comp = propagate_min_labels_exchange(
        flagged.map_batches(core_edges, batch_format="pyarrow"),
        max_rounds=max_rounds, num_partitions=num_partitions)
    singles = hash_join(cores, comp, on="doc_num", how="anti",
                        num_partitions=num_partitions)
    singles = singles.map_batches(
        lambda b: b.append_column("group_id", b["doc_num"]),
        batch_format="pyarrow")
    core_labels = comp.union(singles).materialize()

    def border_pairs(b: pa.Table) -> pa.Table:
        keep = pc.and_kleene(pc.is_null(b["ca"]), pc.equal(b["cb"], 1))
        return b.filter(pc.fill_null(keep, False)).select(["doc_a", "doc_b"])

    lb = core_labels.map_batches(
        lambda b: _rename(b, {"doc_num": "doc_b", "group_id": "g"}),
        batch_format="pyarrow")
    bj = hash_join(flagged.map_batches(border_pairs, batch_format="pyarrow"),
                   lb, on="doc_b", how="inner",
                   num_partitions=num_partitions)

    def min_g(table: pa.Table) -> pa.Table:
        if table.num_rows == 0:
            return pa.table({"doc_num": pa.array([], type=pa.int64()),
                             "group_id": pa.array([], type=pa.int64())})
        a = np.asarray(table["doc_a"], dtype=np.int64)
        g = np.asarray(table["g"], dtype=np.int64)
        u, inv = np.unique(a, return_inverse=True)
        m = np.full(len(u), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(m, inv, g)
        return pa.table({"doc_num": pa.array(u, type=pa.int64()),
                         "group_id": pa.array(m, type=pa.int64())})

    border_labels = hash_exchange(
        bj.map_batches(lambda b: b.select(["doc_a", "g"]),
                       batch_format="pyarrow"),
        "doc_a", min_g, num_partitions=num_partitions)
    labels = core_labels.union(border_labels)

    out = hash_join(pts, labels, on="doc_num", how="left",
                    num_partitions=num_partitions)
    core_flag = cores.map_batches(
        lambda b: _const_col(b, "is_core", 1), batch_format="pyarrow")
    out = hash_join(out, core_flag, on="doc_num", how="left",
                    num_partitions=num_partitions)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_num": b["doc_num"],
            "cluster": pc.fill_null(pc.cast(b["group_id"], pa.int64()), -1),
            "is_core": pc.fill_null(pc.cast(b["is_core"], pa.int64()), 0),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def _bi_cell_rows(batch: pa.Table, cw: float, id_col: str, lon_col: str,
                  lat_col: str, home: bool) -> pa.Table:
    """Bilateral emitter: left (home) points ship once to their own
    cell; right (candidate) points replicate 3x3 — a within-eps pair
    meets in exactly one partition, the left point's home cell."""
    return _grid_rows(batch, cw, mode="home" if home else "cand",
                      id_col=id_col, lon_col=lon_col, lat_col=lat_col)


def _bi_pair_combine(table: pa.Table, eps2: float) -> pa.Table:
    return _pair_kernel(table, eps2, bilateral=True)


def within_join(left_ds, right_ds, eps: float, num_partitions: int = 32,
                left_cols=("doc_num", "lon", "lat"),
                right_cols=("doc_num", "lon", "lat")):
    """Distance join (ST_DWithin): every (left, right) pair with
    euclidean (lon, lat) distance^2 <= eps^2, emitted exactly once as
    (left_id, right_id) — the bilateral generalization of eps_pairs.

    Shape: left rows ship once (home cell), right rows ship 9x (3x3
    replication), ONE hash exchange co-locates cells, each partition
    cross-matches home x candidate with the chunk-bounded vectorized
    kernel — no broadcast side, no all-pairs, shuffle volume
    |left| + 9|right| + realized pairs. Put the SMALLER table on the
    right. The distance test is the engine's standard three IEEE
    float64 ops (exact SQL mirror); boundary is inclusive (<=).

    The two inputs are a side-tagged union (side=1 home rows, side=0
    candidates, one shared schema) on purpose, unlike the engine's
    other co-groups: the pair kernel also serves the one-input
    ``eps_pairs`` self-join, where a home row doubles as a candidate,
    so both shapes keep one table layout."""
    from .exchange import hash_exchange

    if not (eps > 0):
        raise ValueError("within_join: eps must be > 0")
    cw = float(eps) * (1.0 + 1e-9)
    lrows = left_ds.map_batches(
        functools.partial(_bi_cell_rows, cw=cw, id_col=left_cols[0],
                          lon_col=left_cols[1], lat_col=left_cols[2],
                          home=True), batch_format="pyarrow")
    rrows = right_ds.map_batches(
        functools.partial(_bi_cell_rows, cw=cw, id_col=right_cols[0],
                          lon_col=right_cols[1], lat_col=right_cols[2],
                          home=False), batch_format="pyarrow")
    return hash_exchange(
        lrows.union(rrows), "cell",
        functools.partial(_bi_pair_combine, eps2=float(eps) * float(eps)),
        num_partitions=num_partitions)
