"""Container round-trips (FIXTURES.md F7): directory, mbtiles, hilbert
parquet; payload compression; byte equality + TMS flip + hilbert order."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from versatiles_rs_ray.core import compression, coords
from versatiles_rs_ray.sources import tiles_io


@pytest.fixture()
def tile_ds(ray_session, tmp_path):
    import ray.data as rd

    rows = []
    for z in range(0, 4):
        for x in range(1 << z):
            for y in range(1 << z):
                rows.append((z, x, y, f"tile-{z}/{x}/{y}".encode()))
    t = pa.table(
        {
            "z": pa.array([r[0] for r in rows], type=pa.int64()),
            "x": pa.array([r[1] for r in rows], type=pa.int64()),
            "y": pa.array([r[2] for r in rows], type=pa.int64()),
            "payload": pa.array([r[3] for r in rows], type=pa.binary()),
        }
    )
    return rd.from_arrow(t), rows


def test_directory_roundtrip(tile_ds, tmp_path):
    ds, rows = tile_ds
    out = str(tmp_path / "dir_tiles")
    n = tiles_io.write_directory_tiles(ds, out, ext="bin")
    assert n == len(rows)
    assert open(os.path.join(out, "2", "1", "3.bin"), "rb").read() == b"tile-2/1/3"
    back = tiles_io.read_directory_tiles(out).to_pandas()
    assert len(back) == len(rows)
    got = {(r.z, r.x, r.y): bytes(r.payload) for r in back.itertuples()}
    assert got == {(z, x, y): p for z, x, y, p in rows}


def test_mbtiles_roundtrip(tile_ds, tmp_path):
    import sqlite3

    ds, rows = tile_ds
    path = str(tmp_path / "t.mbtiles")
    n = tiles_io.write_mbtiles(ds, path, metadata={"name": "test"})
    assert n == len(rows)
    # raw sqlite: XYZ->TMS flip stored (mbtiles/writer.rs:101-118)
    con = sqlite3.connect(path)
    row = con.execute(
        "SELECT tile_row FROM tiles WHERE zoom_level=3 AND tile_column=2 "
        "AND tile_data=?", (b"tile-3/2/5",)
    ).fetchone()
    assert row[0] == (1 << 3) - 1 - 5
    con.close()
    back = tiles_io.read_mbtiles(path).to_pandas()
    got = {(r.z, r.x, r.y): bytes(r.payload) for r in back.itertuples()}
    assert got == {(z, x, y): p for z, x, y, p in rows}


def test_hilbert_parquet_order(tile_ds, tmp_path):
    ds, rows = tile_ds

    def add_hilbert(batch: pa.Table) -> pa.Table:
        h = coords.hilbert_index(
            np.asarray(batch["z"], dtype=np.int64),
            np.asarray(batch["x"], dtype=np.int64),
            np.asarray(batch["y"], dtype=np.int64),
        )
        return batch.append_column("hilbert", pa.array(h, type=pa.int64()))

    path = str(tmp_path / "hilbert.parquet")
    n = tiles_io.write_hilbert_parquet(
        ds.map_batches(add_hilbert, batch_format="pyarrow"), path
    )
    assert n == len(rows)
    t = pq.read_table(path)
    h = np.asarray(t["hilbert"])
    assert (np.diff(h) > 0).all()  # strictly increasing (pmtiles contract)


def test_tar_roundtrip(tile_ds, tmp_path):
    ds, rows = tile_ds
    path = str(tmp_path / "t.tar")
    n = tiles_io.write_tar_tiles(ds, path, metadata={"name": "t"})
    assert n == len(rows)
    back = tiles_io.read_tar_tiles(path).to_pandas()
    got = {(r.z, r.x, r.y): bytes(r.payload) for r in back.itertuples()}
    assert got == {(z, x, y): p for z, x, y, p in rows}


def test_pmtiles_roundtrip(tile_ds, tmp_path):
    from versatiles_rs_ray.sources import pmtiles

    ds, rows = tile_ds
    path = str(tmp_path / "t.pmtiles")
    n = pmtiles.write_pmtiles(ds, path, metadata={"name": "t"})
    assert n == len(rows)
    # header sanity
    raw = open(path, "rb").read()
    assert raw[:7] == b"PMTiles" and raw[7] == 3
    assert pmtiles.read_pmtiles_metadata(path) == {"name": "t"}
    back = pmtiles.read_pmtiles(path).to_pandas()
    got = {(r.z, r.x, r.y): bytes(r.payload) for r in back.itertuples()}
    assert got == {(z, x, y): p for z, x, y, p in rows}


def test_pmtiles_leaf_directories(ray_session, tmp_path):
    """> MAX_DIR_ENTRIES tiles exercises the leaf-directory path."""
    import ray.data as rd

    from versatiles_rs_ray.core.bbox import TileBBoxPyramid
    from versatiles_rs_ray.sources import pmtiles
    from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles

    old = pmtiles.MAX_DIR_ENTRIES
    pmtiles.MAX_DIR_ENTRIES = 100  # force leaves without 16k tiles
    try:
        ds = json_debug_tiles(TileBBoxPyramid.new_full(4, 0))  # 341 tiles
        path = str(tmp_path / "leaf.pmtiles")
        n = pmtiles.write_pmtiles(ds, path)
        assert n == 341
        back = pmtiles.read_pmtiles(path).to_pandas()
        assert len(back) == 341
        row = back[(back.z == 4) & (back.x == 3) & (back.y == 7)].iloc[0]
        assert bytes(row["payload"]) == b'{"x":3,"y":7,"z":4}'
    finally:
        pmtiles.MAX_DIR_ENTRIES = old


def test_optimize_compression():
    # compressible payload -> gzip; incompressible -> raw (best-effort,
    # compression/functions.rs optimize path)
    comp, codec = compression.optimize_compression(b"aaaa" * 200)
    assert codec == "gzip" and len(comp) < 800
    assert compression._decompress_one(comp, "gzip") == b"aaaa" * 200
    rnd = np.random.default_rng(0).integers(0, 256, 64, dtype=np.uint8).tobytes()
    out, codec = compression.optimize_compression(rnd)
    assert codec == "raw" and out == rnd


def test_compression_roundtrip():
    payloads = [b"hello " * 100, b"", b"\x00\xff" * 50]
    col = pa.array(payloads, type=pa.binary())
    comp = compression.compress_column(col, "gzip")
    # deterministic bytes (fixed level + mtime=0)
    comp2 = compression.compress_column(col, "gzip")
    assert comp.to_pylist() == comp2.to_pylist()
    back = compression.decompress_column(comp, "gzip")
    assert back.to_pylist() == payloads
    t = pa.table({"payload": comp})
    out = compression.recompress_table(t, "payload", "gzip", "raw")
    assert out["payload"].to_pylist() == payloads


def test_compression_brotli_always_available():
    """The 'br' codec must work with or without the brotli library
    (stored-mode RFC 7932 streams when absent)."""
    assert "br" in compression.AVAILABLE
    payloads = [b"tile " * 64, b"", b"\x00\xff" * 33]
    col = pa.array(payloads, type=pa.binary())
    comp = compression.compress_column(col, "br")
    assert compression.decompress_column(comp, "br").to_pylist() == payloads
    t = pa.table({"payload": comp})
    out = compression.recompress_table(t, "payload", "br", "gzip")
    assert compression.decompress_column(out["payload"], "gzip").to_pylist() == payloads


def test_byte_sizes_respects_array_offset():
    """byte_sizes on a SLICED Arrow array must honor col.offset (a
    slice shares the parent's offsets buffer)."""
    import numpy as np
    import pyarrow as pa

    from versatiles_rs_ray.core.compression import byte_sizes

    arr = pa.array([b"a", b"bb", b"ccc", b"dddd"], type=pa.binary())
    assert byte_sizes(arr).tolist() == [1, 2, 3, 4]
    assert byte_sizes(arr.slice(2, 2)).tolist() == [3, 4]
    assert byte_sizes(arr.slice(1, 0)).tolist() == []
    big = pa.array([b"x" * i for i in range(5)], type=pa.large_binary())
    assert byte_sizes(big.slice(2, 3)).tolist() == [2, 3, 4]


def test_mbtiles_sharded_read_equality(tile_ds, tmp_path):
    """Tiny rows_per_shard forces multiple rowid-range shards; result
    must equal the single-shard read."""
    from versatiles_rs_ray.sources import tiles_io

    ds, rows = tile_ds
    path = str(tmp_path / "s.mbtiles")
    tiles_io.write_mbtiles(ds, path)
    one = tiles_io.read_mbtiles(path).to_pandas()
    many = tiles_io.read_mbtiles(path, rows_per_shard=7).to_pandas()
    key = lambda df: sorted(
        (r.z, r.x, r.y, bytes(r.payload)) for r in df.itertuples()
    )
    assert key(one) == key(many) and len(one) == len(rows)


def test_tar_sharded_read_equality(tile_ds, tmp_path):
    from versatiles_rs_ray.sources import tiles_io

    ds, rows = tile_ds
    path = str(tmp_path / "s.tar")
    tiles_io.write_tar_tiles(ds, path)
    one = tiles_io.read_tar_tiles(path).to_pandas()
    many = tiles_io.read_tar_tiles(path, entries_per_shard=5).to_pandas()
    key = lambda df: sorted(
        (r.z, r.x, r.y, bytes(r.payload)) for r in df.itertuples()
    )
    assert key(one) == key(many) and len(one) == len(rows)


def test_read_tar_tiles_tgz_magic_detection(ray_session, tmp_path):
    """A gzip-compressed tar with a NON-.gz extension still decodes
    correctly: compression is detected from the file magic, so range
    reads against compressed bytes never happen."""
    import gzip
    import shutil

    from versatiles_rs_ray.core.bbox import TileBBoxPyramid
    from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles
    from versatiles_rs_ray.sources.tiles_io import read_tar_tiles, write_tar_tiles

    ds = json_debug_tiles(TileBBoxPyramid.new_full(2, 0))
    plain = str(tmp_path / "t.tar")
    write_tar_tiles(ds, plain, ext="json")
    tgz = str(tmp_path / "t.tgz")  # compressed but extension lies
    with open(plain, "rb") as fin, gzip.open(tgz, "wb") as fout:
        shutil.copyfileobj(fin, fout)
    back = read_tar_tiles(tgz, ext="json").to_pandas().sort_values(["z", "x", "y"])
    assert len(back) == 21
    assert back.iloc[0]["payload"] == b'{"x":0,"y":0,"z":0}'


def test_read_pmtiles_run_length_expansion(ray_session, tmp_path):
    """Foreign archives coalesce duplicate tiles with run_length > 1;
    the bulk reader must emit every tile of the run (matching what
    PMTilesRandomAccess serves for the same file)."""
    import gzip
    import json as _json
    import struct

    from versatiles_rs_ray.core.coords import hilbert_index
    from versatiles_rs_ray.sources import pmtiles as pm
    from versatiles_rs_ray.sources.random_access import PMTilesRandomAccess

    payload = b'{"ocean":true}'
    tid0 = int(hilbert_index(2, 1, 1))
    # one run-length-3 entry + one singleton after it
    entries = [(tid0, 0, len(payload), 3), (tid0 + 3, len(payload), len(payload), 1)]
    root = gzip.compress(pm._encode_directory(entries), mtime=0)
    meta = gzip.compress(_json.dumps({}).encode(), mtime=0)
    data = payload + payload
    header = bytearray(pm.HEADER_SIZE)
    header[0:7] = pm.MAGIC
    header[7] = pm.VERSION
    offs = pm.HEADER_SIZE
    struct.pack_into("<QQQQQQQQ", header, 8,
                     offs, len(root),                      # root dir
                     offs + len(root), len(meta),          # metadata
                     offs + len(root) + len(meta), 0,      # leaf dirs
                     offs + len(root) + len(meta), len(data))  # data
    header[97] = pm.COMPRESSION_GZIP  # internal compression
    path = str(tmp_path / "runs.pmtiles")
    with open(path, "wb") as f:
        f.write(bytes(header) + root + meta + data)

    back = pm.read_pmtiles(path).to_pandas()
    assert len(back) == 4  # 3 from the run + 1 singleton
    assert (back["payload"] == payload).all()
    ra = PMTilesRandomAccess(path)
    assert ra.get_tile(2, 1, 1) == payload  # inside the run


def test_write_pmtiles_run_length_coalescing(ray_session, tmp_path):
    """Consecutive hilbert ids with identical payloads coalesce into
    one run-length entry; read_pmtiles and random access both
    reconstruct every tile."""
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.sources import pmtiles as pm
    from versatiles_rs_ray.sources.random_access import PMTilesRandomAccess

    ocean = b'{"ocean":true}'
    rows = []
    for x in range(4):
        for y in range(4):
            rows.append((2, x, y, ocean if (x, y) != (1, 2) else b'{"land":1}'))
    ds = rd.from_arrow(pa.table({
        "z": [r[0] for r in rows], "x": [r[1] for r in rows],
        "y": [r[2] for r in rows],
        "payload": pa.array([r[3] for r in rows], type=pa.binary()),
    }))
    path = str(tmp_path / "runs_w.pmtiles")
    n = pm.write_pmtiles(ds, path)
    assert n == 16  # addressed tiles, not entries
    entries, _ = pm.read_pmtiles_entries(path)
    assert len(entries) < 16  # coalescing actually happened
    assert sum(e[3] for e in entries) == 16
    back = pm.read_pmtiles(path).to_pandas()
    assert len(back) == 16
    ra = PMTilesRandomAccess(path)
    assert ra.get_tile(2, 1, 2) == b'{"land":1}'
    assert ra.get_tile(2, 3, 3) == ocean
