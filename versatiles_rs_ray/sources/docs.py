"""Deterministic interleaved-document source (the graft's input table).

The authoritative input shape (BASELINE.json input_hint) is a Lance
table ``(doc_id:string, spans:list<struct<kind,text,media_ref,offset:int32>>)``.
No external data exists in the sandbox, so this module derives that
table *deterministically* from the driver-provided
``documents.parquet`` (doc_id:int64, text, lang, source, n_chars):

- ``doc_id``   -> ``doc-%08d``
- ``lon/lat``  -> integer multiplicative hashes of doc_id mapped to
  (-180,180) x (-85.0511, 85.0511) (web-mercator-valid, mirroring
  FIXTURES.md F1 / TileCoord::from_geo's domain,
  versatiles_core/src/types/tile_coord.rs:64-80)
- ``spans``    -> 1..4 spans cut from the document text, alternating
  text/image/audio kinds, offsets strictly increasing (i*16)

Every formula here is pure integer arithmetic + one float division, so
the DuckDB oracle reproduces it bit-for-bit; the SQL fragments live
beside the numpy code (single source of truth for both sides).

The same generator scales to arbitrary row counts for benchmarks via
``replicate`` (doc_id' = doc_id + replica * stride), keeping
determinism without external data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.hashing import fmix64

# ---- derivation constants (shared numpy <-> SQL) ----------------------
LON_MULT = 2654435761  # Knuth multiplicative hash constant
LAT_MULT = 2246822519
LAT_ADD = 3266489917
M32 = 4294967296
LAT_SPAN = 170.1022  # 2 * 85.0511
LAT_HALF = 85.0511
# span kind for span index i (0-based): SPAN_KINDS[(doc_id + i) % 8].
# Even codes are text and codes 1/5 image — bit-identical to the
# historical %4 rotation — while the former audio slot splits into
# audio (code 3) and video (code 7) so every modality the media
# pipelines decode (WAV / GIF / MJPEG-AVI) exists in the corpus.
SPAN_KINDS = ("text", "image", "text", "audio",
              "text", "image", "text", "video")
SPAN_LEN = 16
REPLICA_STRIDE = 100_000_000  # doc_id' = doc_id + replica * stride

# SQL fragments that must stay in lockstep with the numpy code below.
SQL_LON = f"(((doc_id * {LON_MULT}) % {M32}) / {M32}.0 * 360.0 - 180.0)"
SQL_LAT = f"(((doc_id * {LAT_MULT} + {LAT_ADD}) % {M32}) / {M32}.0 * {LAT_SPAN} - {LAT_HALF})"
SQL_DOC_ID_STR = "('doc-' || lpad(CAST(doc_id AS VARCHAR), 8, '0'))"
SQL_N_SPANS = "(1 + doc_id % 4)"
SQL_SPAN_KIND = (
    "(CASE (doc_id + {i}) % 8 WHEN 1 THEN 'image' WHEN 5 THEN 'image' "
    "WHEN 3 THEN 'audio' WHEN 7 THEN 'video' ELSE 'text' END)"
)
SQL_SPAN_TEXT = (
    "(CASE WHEN (doc_id + {i}) % 2 = 0 "
    f"THEN substr(text, {{i}} * {SPAN_LEN} + 1, {SPAN_LEN}) ELSE '' END)"
)
SQL_SPAN_MEDIA = (
    "(CASE WHEN (doc_id + {i}) % 2 = 0 THEN '' "
    "ELSE 'media://' || CAST(doc_id AS VARCHAR) || '/' || CAST({i} AS VARCHAR) END)"
)
SQL_SPAN_OFFSET = f"({{i}} * {SPAN_LEN})"

# A derived-docs FROM-clause: explodes documents into one row per span
# (doc_id, text, lang, source carried; i = span index). DuckDB 1.0 has
# no lateral generate_series over a column, so cross-join a fixed 0..3
# series and filter to i < 1 + doc_id % 4.
SQL_SPANS_EXPLODED = (
    "(SELECT d.*, t.i AS span_idx FROM documents d "
    "CROSS JOIN generate_series(0, 3) AS t(i) WHERE t.i <= d.doc_id % 4)"
)

SPANS_TYPE = pa.list_(
    pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]
    )
)


def derive_lonlat(doc_id: np.ndarray):
    """doc_id (int64) -> (lon, lat) float64, matching SQL_LON/SQL_LAT."""
    doc_id = np.asarray(doc_id, dtype=np.int64)
    h_lon = (doc_id * LON_MULT) % M32
    h_lat = (doc_id * LAT_MULT + LAT_ADD) % M32
    lon = h_lon / float(M32) * 360.0 - 180.0
    lat = h_lat / float(M32) * LAT_SPAN - LAT_HALF
    return lon, lat


def doc_id_str(doc_id: np.ndarray) -> pa.Array:
    """doc_id int64 -> 'doc-%08d' strings (matches SQL_DOC_ID_STR).

    Arrow kernels end-to-end — no per-row Python strings (object churn
    is the multicore-scaling killer in hot derive paths).
    """
    import pyarrow.compute as pc

    ids = pa.array(np.asarray(doc_id, dtype=np.int64), type=pa.int64())
    padded = pc.utf8_lpad(pc.cast(ids, pa.string()), 8, "0")
    return pc.binary_join_element_wise(pa.scalar("doc-"), padded, "")


def _doc_slices(text: pa.Array):
    """The 4 possible 16-char span slices of each doc (chars i*16..i*16+16).

    Fast path: when the first 64 BYTES of every doc are ASCII, char
    slicing == byte slicing, so one cheap binary prefix cut + 4 small
    byte slices replace 4 full ``utf8_slice_codeunits`` walks (4.5x
    less time, and 1/4 the bytes walked — the derive stage is memory-
    bandwidth-bound under full concurrency). Any non-ASCII prefix (or
    a multibyte char cut at the 64-byte boundary, which makes the
    prefix invalid UTF-8) falls back to the exact codepoint walk.
    """
    import pyarrow.compute as pc

    try:
        pref = pc.binary_slice(text.cast(pa.binary()), start=0, stop=4 * SPAN_LEN)
        spref = pref.cast(pa.string())
        if pc.all(pc.string_is_ascii(spref)).as_py() is not False:
            return [
                pc.binary_slice(pref, start=i * SPAN_LEN, stop=(i + 1) * SPAN_LEN).cast(
                    pa.string()
                )
                for i in range(4)
            ]
    except pa.ArrowInvalid:
        pass
    return [
        pc.utf8_slice_codeunits(text, start=i * SPAN_LEN, stop=(i + 1) * SPAN_LEN)
        for i in range(4)
    ]


def span_fields(doc_id: np.ndarray, text: pa.Array):
    """Flattened span arrays for a batch of documents.

    Returns (row_index, span_idx, kind, span_text, media_ref, offset)
    as Arrow arrays (except the two index arrays). Fully Arrow-native:
    text slices come from 4 `utf8_slice_codeunits` arrays selected by
    one `take` over their concatenation, media refs from string-concat
    kernels — zero per-row Python objects in the hot path.
    """
    import pyarrow.compute as pc  # local import keeps module import light

    doc_id = np.asarray(doc_id, dtype=np.int64)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(doc_id)
    n_spans = (1 + doc_id % 4).astype(np.int64)
    row_index = np.repeat(np.arange(n, dtype=np.int64), n_spans)
    # span_idx = 0..n_spans-1 per row, concatenated
    total = int(n_spans.sum())
    starts = np.zeros(n, dtype=np.int64)
    starts[1:] = np.cumsum(n_spans)[:-1]
    span_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, n_spans)

    did = doc_id[row_index]
    kind_code = (did + span_idx) % 8
    is_text = pa.array(kind_code % 2 == 0)
    kinds = pa.array(list(SPAN_KINDS), type=pa.string()).take(pa.array(kind_code))

    # 4 possible slices of each doc's text (span_idx in 0..3) + one ''
    def _as_array(a):
        return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a

    slices = [_as_array(s) for s in _doc_slices(text)]
    big = pa.concat_arrays([*slices, pa.array([""], type=pa.string())])
    take_idx = np.where(np.asarray(is_text), span_idx * n + row_index, 4 * n)
    span_text = big.take(pa.array(take_idx, type=pa.int64()))

    # media refs exist only for non-text spans (~half): join the subset
    # with scalar-broadcast separators, then scatter back with one take
    # (an empty-string sentinel at the pool's end fills text rows) —
    # half the cast/join bytes and no full-width if_else copy.
    nontext = np.flatnonzero(~np.asarray(is_text))
    sub = pc.binary_join_element_wise(
        pa.scalar("media://"),
        pc.cast(pa.array(did[nontext], type=pa.int64()), pa.string()),
        pa.scalar("/"),
        pc.cast(pa.array(span_idx[nontext], type=pa.int64()), pa.string()),
        "",
    )
    pool = pa.concat_arrays(
        [_as_array(sub), pa.array([""], type=pa.string())]
    )
    map_idx = np.full(total, len(nontext), dtype=np.int64)
    map_idx[nontext] = np.arange(len(nontext), dtype=np.int64)
    media = pool.take(pa.array(map_idx, type=pa.int64()))
    offset = (span_idx * SPAN_LEN).astype(np.int32)
    return row_index, span_idx, kinds, span_text, media, offset


def derive_docs_batch(batch: pa.Table, columns=None) -> pa.Table:
    """map_batches fn: documents.parquet batch -> interleaved docs table.

    Output columns: doc_id:string, spans:list<struct>, lon, lat,
    doc_num:int64 (the original integer id), text, lang, source,
    n_chars. ``columns`` prunes the DERIVATION itself ("prune at the
    read"): expensive members (spans, doc_id strings) are only built
    when requested; ``n_spans`` is available as a cheap derived column
    without building the span structs.
    """
    want = set(columns) if columns else None

    def _want(c):
        return want is None or c in want

    did = np.asarray(batch["doc_id"], dtype=np.int64)
    out = {}
    if _want("doc_id"):
        out["doc_id"] = doc_id_str(did)
    out["doc_num"] = pa.array(did, type=pa.int64())
    if _want("spans"):
        row_index, span_idx, kinds, span_text, media, offset = span_fields(
            did, batch["text"]
        )
        flat = pa.StructArray.from_arrays(
            [kinds, span_text, media, pa.array(offset, type=pa.int32())],
            names=["kind", "text", "media_ref", "offset"],
        )
        n_spans = (1 + did % 4).astype(np.int64)
        offsets = np.zeros(len(did) + 1, dtype=np.int32)
        offsets[1:] = np.cumsum(n_spans)
        out["spans"] = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), flat)
    if want is not None and "n_spans" in want:
        out["n_spans"] = pa.array((1 + did % 4).astype(np.int64), type=pa.int64())
    if _want("text"):
        out["text"] = batch["text"]
    if _want("lon") or _want("lat"):
        lon, lat = derive_lonlat(did)
        if _want("lon"):
            out["lon"] = pa.array(lon, type=pa.float64())
        if _want("lat"):
            out["lat"] = pa.array(lat, type=pa.float64())
    for c in ("lang", "source", "n_chars"):
        if _want(c):
            out[c] = batch[c]
    return pa.table(out)


# ---- Lance input (the north-star's native table format) ---------------


def have_lance() -> bool:
    """True when the `lance` package is importable (absent in this
    sandbox)."""
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def adapt_interleaved_batch(batch: pa.Table, columns=None) -> pa.Table:
    """Hint-shaped batch -> the engine's docs surface.

    Input is the BASELINE.json input_hint schema as stored in a real
    Lance table: ``doc_id:string`` + ``spans:list<struct<kind, text,
    media_ref, offset:int32>>`` (lon/lat optional passthroughs).
    Derives: ``doc_num`` (trailing digits of doc_id), ``text`` (the
    doc's text-kind span texts concatenated in stored span order —
    span order IS the per-row invariant), ``n_chars``, and lon/lat
    (passthrough when present, else the deterministic doc_num hash so
    geo queries behave identically to the parquet derive path).
    All-Arrow kernels; the span regroup is one mask + bincount, no
    per-row Python.
    """
    import pyarrow.compute as pc

    want = set(columns) if columns else None

    def _want(c):
        return want is None or c in want

    ids = batch["doc_id"].combine_chunks() if isinstance(
        batch["doc_id"], pa.ChunkedArray) else batch["doc_id"]
    digits = pc.extract_regex(ids, r"(?P<n>\d+)$")
    did = np.asarray(
        pc.cast(pc.struct_field(digits, "n"), pa.int64()), dtype=np.int64
    )
    out = {}
    if _want("doc_id"):
        out["doc_id"] = ids
    out["doc_num"] = pa.array(did, type=pa.int64())
    spans = batch["spans"].combine_chunks() if isinstance(
        batch["spans"], pa.ChunkedArray) else batch["spans"]
    if _want("spans"):
        out["spans"] = spans
    flat = spans.flatten()
    offs = np.asarray(spans.offsets, dtype=np.int64)
    parent = np.repeat(
        np.arange(batch.num_rows, dtype=np.int64), np.diff(offs)
    )
    if want is not None and "n_spans" in want:
        out["n_spans"] = pa.array(np.diff(offs), type=pa.int64())
    if _want("text") or _want("n_chars"):
        is_text = np.asarray(pc.equal(flat.field("kind"), "text"))
        keep = np.flatnonzero(is_text)
        texts = flat.field("text").take(pa.array(keep, type=pa.int64()))
        cnt = np.bincount(parent[keep], minlength=batch.num_rows)
        t_offs = np.zeros(batch.num_rows + 1, dtype=np.int32)
        np.cumsum(cnt, out=t_offs[1:])
        doc_text = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(t_offs, type=pa.int32()),
                                     texts.combine_chunks()
                                     if isinstance(texts, pa.ChunkedArray)
                                     else texts),
            "",
        )
        if _want("text"):
            out["text"] = doc_text
        if _want("n_chars"):
            out["n_chars"] = pc.cast(pc.utf8_length(doc_text), pa.int64())
    if _want("lon") or _want("lat"):
        if "lon" in batch.column_names and "lat" in batch.column_names:
            lon = np.asarray(batch["lon"], dtype=np.float64)
            lat = np.asarray(batch["lat"], dtype=np.float64)
        else:
            lon, lat = derive_lonlat(did)
        if _want("lon"):
            out["lon"] = pa.array(lon, type=pa.float64())
        if _want("lat"):
            out["lat"] = pa.array(lat, type=pa.float64())
    for c in ("lang", "source"):
        if want is not None and c in want and c in batch.column_names:
            out[c] = batch[c]
    return pa.table(out)


def read_docs_lance(path: str, columns=None):
    """Docs Dataset from a Lance table of the input_hint shape.

    GATED on the `lance` package (not in this container): when present,
    ``ray.data.read_lance`` gives per-fragment read tasks with column
    projection pushed to the Lance scanner; the hint->docs adaptation
    runs as a zero-copy Arrow map_batches. When absent, raises with
    the parquet-path alternative. The adapter itself
    (:func:`adapt_interleaved_batch`) is real and tested today against
    hint-shaped in-memory tables.
    """
    if not have_lance():
        raise ImportError(
            "Lance input needs the `lance` package (pip install pylance), "
            "which is not available in this sandbox. Use read_docs() over "
            "the parquet mirror of the same table instead."
        )
    import functools

    import ray.data as rd

    native = {"doc_id", "spans", "lon", "lat", "lang", "source"}
    proj = None
    if columns:
        # pushdown: native columns project in the scanner; derived ones
        # (doc_num, text, n_chars) need doc_id + spans
        proj = sorted(native & set(columns) | {"doc_id", "spans"})
    ds = rd.read_lance(path, columns=proj)
    ds = ds.map_batches(
        functools.partial(adapt_interleaved_batch, columns=columns),
        batch_format="pyarrow",
    )
    if columns:
        ds = ds.select_columns(list(columns))
    return ds


# per-worker-process cache for the replicated shard reader: stateless
# tasks reuse Ray's long-lived workers, so a module global amortizes
# the parquet parse without paying actor-pool startup per stage.
_SHARD_CACHE: dict = {}


def _shard_table(path: str) -> pa.Table:
    t = _SHARD_CACHE.get(path)
    if t is None:
        import pyarrow.parquet as pq

        t = pq.read_table(path, columns=["doc_id", "text", "lang", "source", "n_chars"])
        _SHARD_CACHE[path] = t
    return t


def _read_shard(path: str, replicas, columns=None) -> pa.Table:
    """One read task's replicas of the base table: shift the id space
    per replica, derive the docs table.

    Mirrors how the engine reads a many-fragment Lance/parquet dataset
    at real scale — one read task per fragment — instead of
    replicating inside a single block, which would serialize the whole
    pipeline behind one task.
    """
    base = _shard_table(path)
    doc_id = np.asarray(base["doc_id"], dtype=np.int64)
    i = base.schema.get_field_index("doc_id")
    return pa.concat_tables([
        derive_docs_batch(base.set_column(
            i, "doc_id", pa.array(doc_id + r * REPLICA_STRIDE, type=pa.int64())),
            columns=columns)
        for r in replicas
    ])


def read_specs(specs, load_fn):
    """Dataset with one read task per picklable spec: task ``i`` returns
    ``load_fn(specs[i])``.

    The one loader behind the replicated docs, the zipf corpus and the
    spec-fed pyramid. Read granularity is set by the specs, never by a
    downstream batch_size: a coalescing batch_size on a later stage
    would fuse upstream tasks together and serialize the pipeline
    (observed 10x slowdowns).
    """
    import ray.data as rd

    def load(batch: pa.Table, _specs=specs) -> pa.Table:
        return pa.concat_tables([load_fn(_specs[i]) for i in batch["id"].to_pylist()])

    return rd.range(len(specs), override_num_blocks=len(specs)).map_batches(
        load, batch_format="pyarrow")


def read_docs(sf_dir: str, replicate: int = 1, columns=None, shards_per_task: int = 8):
    """Interleaved-docs Dataset derived from ``{sf_dir}/documents.parquet``.

    ``replicate > 1`` deterministically tiles the id space for
    benchmark-scale inputs (doc_id' = doc_id + r * REPLICA_STRIDE) —
    the sandbox stand-in for the 10^12-row Lance table — read through
    :func:`read_specs` over :func:`shard_specs`: one read task per
    ``shards_per_task`` consecutive replicas (the last task takes the
    remainder), like per-fragment reads. Ray is assumed to be
    initialised by the caller.
    """
    import ray.data as rd  # deferred: library code must not touch ray at import

    import functools
    import os

    # a Lance mirror of the table takes precedence when readable (the
    # north-star's native format; gated on the `lance` package)
    lance_path = f"{sf_dir}/documents.lance"
    if replicate == 1 and os.path.isdir(lance_path) and have_lance():
        return read_docs_lance(lance_path, columns=columns)

    if replicate > 1:
        ds = read_specs(shard_specs(sf_dir, replicate, shards_per_task, columns),
                        load_shard_spec)
    else:
        ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text", "lang", "source", "n_chars"])
        ds = ds.map_batches(
            functools.partial(derive_docs_batch, columns=columns), batch_format="pyarrow"
        )
    if columns:
        ds = ds.select_columns(list(columns))
    return ds


def shard_specs(sf_dir: str, replicate: int, shards_per_task: int = 64, columns=None):
    """Picklable input specs, one per read task (``load_shard_spec``):
    ``shards_per_task`` consecutive replicas each, the last spec taking
    the remainder.

    Describes the read as a pure function of a spec — mirroring
    per-fragment reads of a many-fragment Lance/parquet table;
    :func:`read_specs` turns them into a docs Dataset (``read_docs``
    with ``replicate > 1``, and the benchmark pyramid through
    stages/pyramid.aggregate_pyramid_spatial_fused).
    """
    path = f"{sf_dir}/documents.parquet"
    out = []
    for i in range(0, max(replicate, 1), shards_per_task):
        out.append(
            {
                "path": path,
                "replicas": list(range(i, min(i + shards_per_task, max(replicate, 1)))),
                "columns": list(columns) if columns else None,
            }
        )
    return out


def load_shard_spec(spec) -> pa.Table:
    """Materialize one shard spec -> interleaved docs table."""
    return _read_shard(spec["path"], spec["replicas"], columns=spec["columns"])


# ---- zipf-skewed curation benchmark corpus ----------------------------
#
# The curate_corpus scaling certification (bench.py --curate) needs a
# corpus whose DUPLICATE STRUCTURE matches real web crawls:
#
#   - EXACT duplicates follow a power law (a few boilerplate pages
#     appear millions of times): 1 - mutate_permille/1000 of the docs
#     draw their text from K zipf(s)-ranked base texts, so the exact-
#     dedup exchange routes zipf-hot content-hash keys and the source
#     column inherits the skew (rank 0 dominates src0) — the imbalance
#     the temperature-mix stage rebalances.
#   - NEAR duplicates come in BOUNDED clusters (template pages with
#     per-page noise): the remaining docs each pick one of
#     ~(n_docs * frac / 4) synthesized templates and append a doc-
#     unique token, giving near-dup families of ~4 docs with pairwise
#     Jaccard ~0.85-0.92. Mega near-dup clusters are deliberately NOT
#     generated: at web scale those are crushed by the exact pass
#     (byte-identical boilerplate) — and when they do survive, the
#     LSH bucket cap bounds the work and LOGS the under-merge, which
#     is the engine's documented posture, not a benchmark shape.
#
# Every text is a sequence of pseudorandom 8-hex-char tokens
# (fmix64-derived), so a k-byte gram's doc frequency equals its
# rank/template cluster size — the df structure real content grams
# have. Pure integer hashing throughout: the same job on any cluster
# size reproduces the same corpus bit-for-bit, the property the
# scaling pair relies on.

_ZIPF_SALT_PICK = 0xD6E8FEB86659FD93
_ZIPF_SALT_MUT = 0xA3C59AC311377387
_ZIPF_SALT_FAM = 0x8AD93B6B1E995F8D


_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_FAM_TOKENS = 24  # tokens per template text (fixed width: vectorized)


def _token_matrix(ids: np.ndarray, n_tok: int, ns: int) -> pa.Array:
    """Vectorized text builder: for each id, ``n_tok`` pseudorandom
    8-hex-char tokens from fmix64(id * 64 + j + ns) joined by spaces —
    one uint8 matrix, one Arrow buffer, zero per-row Python."""
    n = len(ids)
    tok = fmix64((ids[:, None].astype(np.int64) * 64
                   + np.arange(n_tok, dtype=np.int64)[None, :]) + ns)
    v = (tok >> np.uint64(32)).astype(np.uint64)
    width = 9 * n_tok  # 8 hex chars + separator each
    out = np.empty((n, n_tok, 9), dtype=np.uint8)
    for i in range(8):
        sh = np.uint64(4 * (7 - i))
        out[:, :, i] = _HEX[((v >> sh) & np.uint64(0xF)).astype(np.int64)]
    out[:, :, 8] = 32  # space (trailing space per row is harmless:
    # whitespace tokenizers ignore it and it is identical per template)
    buf = pa.py_buffer(out.tobytes())
    offs = pa.py_buffer((np.arange(n + 1, dtype=np.int32) * width).tobytes())
    return pa.Array.from_buffers(pa.string(), n, [None, offs, buf])


def zipf_doc_specs(sf_dir: str, n_docs: int, s: float = 1.3,
                   mutate_permille: int = 300,
                   docs_per_task: int = 50_000):
    """Picklable shard specs for a ``n_docs``-row zipf(s)-skewed corpus
    (module comment above documents the duplicate structure)."""
    fam = max(1, (n_docs * mutate_permille) // 4000)  # ~4 docs/family
    out = []
    for lo in range(0, n_docs, docs_per_task):
        out.append({
            "path": f"{sf_dir}/documents.parquet",
            "lo": lo,
            "hi": min(lo + docs_per_task, n_docs),
            "s": s,
            "mutate_permille": mutate_permille,
            "n_families": fam,
        })
    return out


def _zipf_cache(fn):
    import functools

    return functools.lru_cache(maxsize=4)(fn)


@_zipf_cache
def _zipf_base(path: str, s_key: float):
    """Per-worker cached (texts, langs, cdf) for the K zipf ranks.
    Rank r's text is 24 + (r % 16) rank-specific pseudorandom tokens
    (namespace 0); langs come from the driver's base table so the mix
    stage sees the real distribution."""
    import pyarrow.parquet as pq

    langs = pq.read_table(path, columns=["lang"])["lang"].combine_chunks()
    K = len(langs)
    texts = pa.concat_arrays([
        _token_matrix(np.array([r], dtype=np.int64), 24 + (r % 16), 0)
        for r in range(K)
    ])
    w = np.arange(1, K + 1, dtype=np.float64) ** (-float(s_key))
    cdf = np.cumsum(w / w.sum())
    return texts, langs, cdf


def load_zipf_shard(spec) -> pa.Table:
    """Materialize one zipf-corpus shard spec (fully vectorized)."""
    import pyarrow.compute as pc

    base_text, base_lang, cdf = _zipf_base(spec["path"], float(spec["s"]))
    K = len(base_text)
    g = np.arange(spec["lo"], spec["hi"], dtype=np.int64)
    mut = (fmix64(g ^ np.int64(np.uint64(_ZIPF_SALT_MUT)
                                .astype(np.int64))) % np.uint64(1000)
           ) < np.uint64(spec["mutate_permille"])
    ge, gf = g[~mut], g[mut]

    # exact-dup leg: zipf rank pick over the K base texts
    u = fmix64(ge ^ np.int64(np.uint64(_ZIPF_SALT_PICK)
                              .astype(np.int64))) \
        .astype(np.float64) / 2.0 ** 64
    r = np.searchsorted(cdf, u, side="right").clip(0, K - 1)
    ridx = pa.array(r, type=pa.int64())
    t_exact = pa.table({
        "doc_id": pa.array(ge, type=pa.int64()),
        "text": base_text.take(ridx),
        "lang": base_lang.take(ridx),
        "source": pc.binary_join_element_wise(
            "src", pa.array((r % 20).astype(np.int64)).cast(pa.string()),
            ""),
    })

    # near-dup leg: template pick (uniform over bounded families) plus
    # a doc-unique token -> families of ~4 pairwise near-dups
    fam = (fmix64(gf ^ np.int64(np.uint64(_ZIPF_SALT_FAM)
                                 .astype(np.int64)))
           % np.uint64(spec["n_families"])).astype(np.int64)
    text_f = pc.binary_join_element_wise(
        _token_matrix(fam, _FAM_TOKENS, 1 << 40),
        "q", pa.array(gf, type=pa.int64()).cast(pa.string()), "")
    fidx = pa.array(fam % K, type=pa.int64())
    t_fam = pa.table({
        "doc_id": pa.array(gf, type=pa.int64()),
        "text": text_f,
        "lang": base_lang.take(fidx),
        "source": pc.binary_join_element_wise(
            "src", pa.array((fam % 20)).cast(pa.string()), ""),
    })

    out = pa.concat_tables([t_exact, t_fam])
    return out.append_column(
        "n_chars", pc.utf8_length(out["text"]).cast(pa.int64()))


def read_zipf_docs(sf_dir: str, n_docs: int, s: float = 1.3,
                   mutate_permille: int = 300,
                   docs_per_task: int = 50_000):
    """The zipf corpus as a streaming Dataset (one read task per spec)."""
    return read_specs(zipf_doc_specs(sf_dir, n_docs, s=s,
                                     mutate_permille=mutate_permille,
                                     docs_per_task=docs_per_task),
                      load_zipf_shard)
