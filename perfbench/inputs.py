"""Seeded inputs and numpy oracles for the benchmark workloads.

Nothing here imports the engine: the base documents table is written
with pyarrow, and every oracle re-implements the documented formulas
(the multiplicative lon/lat hash of the docs source and the web-mercator
tile formula) in plain numpy, so a check compares the engine against an
independent computation.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

BASE_DOCS = 5000  # rows in the base table; replicas tile the id space
REPLICA_STRIDE = 100_000_000  # doc_id' = doc_id + replica * stride
_VOCAB = np.array(
    "batch part spark line column order small sort fast value scan a hash "
    "slow group agg filter query big key window row table stream merge data "
    "vector join customer the tile level zoom".split()
)
_LANGS = np.array(["en", "zh", "fr", "es", "de"])


def rng(seed: int) -> np.random.Generator:
    """The generator of ``seed``; any integer, negative ones too."""
    return np.random.default_rng(seed % (1 << 64))


def base_ids(seed: int) -> np.ndarray:
    """The seed picks which slice of the id space the base table holds."""
    return np.arange(BASE_DOCS, dtype=np.int64) + (seed % 19_000) * BASE_DOCS


def write_documents(sf_dir: str, seed: int) -> str:
    """Write ``{sf_dir}/documents.parquet`` (doc_id, text, lang, source,
    n_chars) for ``seed``; the same seed writes the same table."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    gen = rng(seed)
    n_words = gen.integers(12, 97, BASE_DOCS)
    words = _VOCAB[gen.integers(0, len(_VOCAB), int(n_words.sum()))]
    offs = np.concatenate([[0], np.cumsum(n_words)])
    text = [" ".join(words[offs[i]:offs[i + 1]]) for i in range(BASE_DOCS)]
    table = pa.table({
        "doc_id": pa.array(base_ids(seed), type=pa.int64()),
        "text": pa.array(text, type=pa.string()),
        "lang": pa.array(_LANGS[gen.integers(0, len(_LANGS), BASE_DOCS)]),
        "source": pa.array([f"src{s}" for s in gen.integers(0, 20, BASE_DOCS)]),
        "n_chars": pa.array([len(t) for t in text], type=pa.int64()),
    })
    os.makedirs(sf_dir, exist_ok=True)
    path = os.path.join(sf_dir, "documents.parquet")
    pq.write_table(table, path)
    return path


def all_ids(seed: int, replicate: int) -> np.ndarray:
    """Every doc id of replicas 0 .. replicate - 1 of the base table."""
    reps = np.arange(replicate, dtype=np.int64)
    return (base_ids(seed)[None, :] + reps[:, None] * REPLICA_STRIDE).ravel()


def lonlat(ids: np.ndarray):
    """Documented doc position hash: Knuth multiplicative hashes of the
    id mapped onto lon (-180, 180) and lat (-85.0511, 85.0511)."""
    m32 = 4294967296
    lon = ((ids * 2654435761) % m32) / float(m32) * 360.0 - 180.0
    lat = ((ids * 2246822519 + 3266489917) % m32) / float(m32) * 170.1022 - 85.0511
    return lon, lat


def tile_xy(lon, lat, z: int):
    """Web-mercator tile of a point, clamped to the grid."""
    n = np.float64(2.0) ** z
    fx = n * (lon / 360.0 + 0.5)
    fy = n * (0.5 - 0.5 * np.log(np.tan(lat * np.pi / 360.0 + np.pi / 4.0)) / np.pi)
    x = np.floor(np.clip(fx, 0.0, n - 1.0)).astype(np.int64)
    y = np.floor(np.clip(fy, 0.0, n - 1.0)).astype(np.int64)
    return x, y


def n_spans(ids: np.ndarray) -> np.ndarray:
    return 1 + ids % 4


def level_summary(ids: np.ndarray, z_base: int, z_min: int = 0) -> dict:
    """Per level: tile count, sum of n_docs and n_spans, min and max doc."""
    x, y = tile_xy(*lonlat(ids), z_base)
    keys = np.unique((x << 32) | y)
    out = {}
    for z in range(z_base, z_min - 1, -1):
        if z < z_base:
            keys = np.unique(((keys >> 32) >> 1 << 32) | ((keys & 0xFFFFFFFF) >> 1))
        out[z] = {"tiles": int(len(keys)), "n_docs": int(len(ids)),
                  "n_spans": int(n_spans(ids).sum()),
                  "min_doc": int(ids.min()), "max_doc": int(ids.max())}
    return out


def pyramid_table(ids: np.ndarray, z_base: int, z_min: int = 0) -> dict:
    """Full per-tile pyramid (z, x, y, n_docs, n_spans, min_doc, max_doc)
    as numpy columns, sorted by (z, x, y)."""
    x, y = tile_xy(*lonlat(ids), z_base)
    spans = n_spans(ids)
    cols = {k: [] for k in ("z", "x", "y", "n_docs", "n_spans", "min_doc", "max_doc")}
    for z in range(z_min, z_base + 1):
        s = z_base - z
        key = ((x >> s) << 32) | (y >> s)
        uniq, inv = np.unique(key, return_inverse=True)
        mn = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
        mx = np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(mn, inv, ids)
        np.maximum.at(mx, inv, ids)
        cols["z"].append(np.full(len(uniq), z, dtype=np.int64))
        cols["x"].append(uniq >> 32)
        cols["y"].append(uniq & 0xFFFFFFFF)
        cols["n_docs"].append(np.bincount(inv).astype(np.int64))
        cols["n_spans"].append(np.bincount(inv, weights=spans).astype(np.int64))
        cols["min_doc"].append(mn)
        cols["max_doc"].append(mx)
    return {k: np.concatenate(v) for k, v in cols.items()}


def table_digest(cols: dict) -> str:
    """Order-insensitive digest of pyramid columns: rows sorted by
    (z, x, y), then every column's int64 bytes hashed in a fixed order."""
    order = np.lexsort((cols["y"], cols["x"], cols["z"]))
    h = hashlib.sha256()
    for k in ("z", "x", "y", "n_docs", "n_spans", "min_doc", "max_doc"):
        h.update(np.ascontiguousarray(np.asarray(cols[k], dtype=np.int64)[order]).tobytes())
    return h.hexdigest()


def pip_oracle(ids: np.ndarray, zoom: int, tiles: list) -> dict:
    """Docs whose tile at ``zoom`` is in ``tiles``: count and id sum."""
    x, y = tile_xy(*lonlat(ids), zoom)
    cover = {(int(a) << 32) | int(b) for a, b in tiles}
    hit = np.isin((x << 32) | y, np.fromiter(cover, dtype=np.int64))
    return {"rows": int(hit.sum()), "id_sum": int(ids[hit].sum())}


def knn_oracle(ids: np.ndarray, q_ids: np.ndarray, k: int, window: float = 2.0) -> np.ndarray:
    """Brute-force top-k per query under the (d2, n_doc) order, self
    excluded, plane metric. Returns an int64 array of shape (Q, k) of
    neighbour ids, rows in q_ids order.

    Each query first scores only the docs within ``window`` degrees in
    lon and in lat. That answer is exact when its k-th d2 is below
    window**2, since every doc outside scores at least that; otherwise
    the query scores every doc.
    """
    lon, lat = lonlat(ids)
    q_lon, q_lat = lonlat(q_ids)
    by_lon = np.argsort(lon, kind="stable")
    lon_sorted = lon[by_lon]
    out = np.empty((len(q_ids), k), dtype=np.int64)
    for i, (q, qx, qy) in enumerate(zip(q_ids, q_lon, q_lat)):
        lo, hi = np.searchsorted(lon_sorted, [qx - window, qx + window])
        cand = by_lon[lo:hi]
        cand = cand[np.abs(lat[cand] - qy) < window]
        for pool in (cand, None):
            idx = np.arange(len(ids)) if pool is None else pool
            a = qx - lon[idx]
            b = qy - lat[idx]
            d2 = a * a + b * b
            keep = ids[idx] != q
            d2, n = d2[keep], ids[idx][keep]
            order = np.lexsort((n, d2))[:k]
            if pool is None or (len(order) == k and d2[order[-1]] < window * window):
                break
        out[i] = n[order]
    return out
