"""Flagship pipeline: interleaved docs -> full tile pyramid, resumable.

The Ray-Data restatement of `versatiles convert` (SURVEY.md §3.1) for
the graft's spatial-join + tiling engine:

  read docs (derived spans table)
    -> AssignTiles(z_base)                    [stateless map_batches]
    -> every level z_base..z_min at once      [per-block partials + one
                                               spatially routed exchange]
    -> one write round                        [per block: hilbert/pk
                                               columns, one parquet file
                                               per missing level; then
                                               one atomic commit per level]

Every level is a partition in the checkpoint manifest
(state/manifest.py): a killed run resumes by recomputing the stats
table (small next to the corpus) and writing only the levels the
manifest does not mark done.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..core import coords
from ..sources.docs import read_docs
from ..stages.assign import assign_tiles, unpack_tkey
from ..stages.exchange import hash_exchange
from ..stages.pyramid import aggregate_pyramid_spatial, combine_tile_stats_block
from ..state.manifest import Manifest, lineage_hash


def finalize_level(batch: pa.Table, block_bits=8) -> pa.Table:
    """Add z/x/y, hilbert and pk columns to combined tile stats."""
    z, x, y = unpack_tkey(np.asarray(batch["tkey"], dtype=np.int64))
    batch = batch.append_column("z", pa.array(z, type=pa.int64()))
    batch = batch.append_column("x", pa.array(x, type=pa.int64()))
    batch = batch.append_column("y", pa.array(y, type=pa.int64()))
    batch = batch.append_column(
        "hilbert", pa.array(coords.hilbert_index(z, x, y), type=pa.int64())
    )
    return batch.append_column(
        "pk", pa.array(coords.pack_pk(z, x, y, block_bits), type=pa.int64())
    )


def build_pyramid(sf_dir: str, z_base: int, z_min: int = 0, replicate: int = 1):
    """Lazy full pyramid (all levels, one shuffle) as a single Dataset."""
    docs = assign_tiles(read_docs(sf_dir, replicate=replicate), z_base)
    tiles = aggregate_pyramid_spatial(docs, z_base, z_min)
    return tiles.map_batches(finalize_level, batch_format="pyarrow")


def build_and_write_pyramid(
    sf_dir: str,
    out_dir: str,
    z_base: int = 10,
    z_min: int = 0,
    replicate: int = 1,
):
    """Resumable pyramid build; returns the manifest records per level.

    All levels come from one spatially routed exchange
    (stages/pyramid.aggregate_pyramid_spatial); one write round over
    its partitions (``_write_level``) then writes every level missing
    from the manifest, each committed as its own atomic partition.
    """
    params = {
        "z_base": z_base,
        "z_min": z_min,
        "replicate": replicate,
        "strategy": "single_shuffle",  # unchanged: pyramids built earlier resume, not rebuild
        "v": 2,
    }
    lineage = lineage_hash([f"{sf_dir}/documents.parquet"], params)
    manifest = Manifest(out_dir, lineage)
    manifest.invalidate_stale()  # input/params changed -> drop old-lineage partitions
    done = manifest.load()
    records = dict(done)
    missing = [z for z in range(z_min, z_base + 1) if f"z={z}" not in done]
    if not missing:
        return records

    docs = assign_tiles(read_docs(sf_dir, replicate=replicate), z_base)
    _write_level(manifest, records, missing,
                 aggregate_pyramid_spatial(docs, z_base, z_min))
    return records


def read_pyramid(out_dir: str, z_levels=None):
    """Read the native pyramid layout back as one Dataset.

    Consults `_manifest.jsonl` when present: only partitions whose
    LATEST record carries the same lineage as the most recent record
    (i.e. the current build) are read — an interrupted rebuild after an
    input change can never mix old- and new-lineage levels. Directories
    without a manifest are read as-is (plain parquet layout)."""
    import json

    import ray.data as rd

    manifest_path = os.path.join(out_dir, "_manifest.jsonl")
    allowed = None
    if os.path.exists(manifest_path):
        latest, current = {}, None
        with open(manifest_path) as f:
            for line in f:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    latest[rec["partition"]] = rec
                    current = rec.get("lineage")  # lineage of the newest record
        if latest:
            allowed = {p for p, r in latest.items() if r.get("lineage") == current}

    files = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("z=") and "tmp" not in name and not name.endswith(".jsonl"):
            if allowed is not None and name not in allowed:
                continue
            z = int(name.split("=")[1])
            if z_levels is None or z in z_levels:
                d = os.path.join(out_dir, name)
                # read_parquet accepts one dir or a list of FILES — expand
                files += [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    return rd.read_parquet(files)


def _write_level(manifest: Manifest, records: dict, levels: list, tiles):
    """Write every level in ``levels`` from the combined tile stats
    ``tiles`` in one task round, then commit each level atomically
    (shared by build/increment so the resume protocol cannot diverge).

    begin one tmp dir per level -> one ``_write_block`` task per block
    -> per level, the rows the tasks report must equal the rows in the
    parquet footers of that level's tmp dir -> commit. On a mismatch
    nothing is committed and the round's tmp dirs are removed."""
    import functools
    import shutil

    t0 = time.monotonic()
    tmp = {z: manifest.begin(f"z={z}") for z in levels}
    reported = dict.fromkeys(levels, 0)
    for r in tiles.map_batches(functools.partial(_write_block, level_dirs=tmp),
                               batch_format="pyarrow", batch_size=None).take_all():
        reported[r["z"]] += r["rows"]
    for z in levels:
        stored = sum(pq.read_metadata(os.path.join(tmp[z], f)).num_rows
                     for f in os.listdir(tmp[z]) if f.endswith(".parquet"))
        if stored != reported[z]:
            for d in tmp.values():
                shutil.rmtree(d, ignore_errors=True)
            raise RuntimeError(f"z={z}: tasks reported {reported[z]} rows, "
                               f"parquet footers hold {stored}")
    wall_s = time.monotonic() - t0
    for z in levels:
        records[f"z={z}"] = manifest.commit(f"z={z}", tmp[z], reported[z], wall_s)


def _write_block(batch: pa.Table, level_dirs: dict) -> pa.Table:
    """One task of the write round: finalize an exchange block and write
    one parquet file per level of ``level_dirs`` it holds into that
    level's dir. Returns the (z, rows) of every file written.

    A file is named after the smallest tkey in it, so a retried task
    overwrites its own file instead of adding a second copy; it is
    written under a dot-prefixed, non-.parquet name and renamed into
    place, so no reader ever lists a half-written file."""
    zs, rows = [], []
    if batch.num_rows:  # an empty partition may come as schema-less pa.table({})
        batch = finalize_level(batch)
        z = np.asarray(batch["z"])
        tkey = np.asarray(batch["tkey"])
        for level in np.unique(z).tolist():
            if level not in level_dirs:
                continue
            mask = z == level
            part = batch.filter(pa.array(mask))
            name = f"part-{int(tkey[mask].min()):016x}.parquet"
            d = level_dirs[level]
            tmp = os.path.join(d, f".{name}.tmp-{os.getpid()}")
            pq.write_table(part, tmp)
            os.replace(tmp, os.path.join(d, name))
            zs.append(level)
            rows.append(part.num_rows)
    return pa.table({"z": pa.array(zs, type=pa.int64()),
                     "rows": pa.array(rows, type=pa.int64())})


def increment_pyramid(delta_docs_ds, base_dir: str, out_dir: str,
                      z_base: int, z_min: int = 0, *, delta_tag: str,
                      num_buckets: int = 64):
    """Merge a DELTA corpus into an existing written pyramid without
    re-reading the base corpus — the daily-increment path at 100 TB.

    Possible because every per-tile stat is a decomposable aggregate
    (sum/min/max): the delta runs the normal one-exchange spatial
    aggregation, the BASE levels are read back from their parquet
    partitions (tile stats, ~10^6x smaller than the corpus), and one
    more exchange on tkey merges the two — cost is O(delta + tiles),
    never O(base corpus). ``delta_tag`` is REQUIRED and must uniquely
    name the delta (a date, a batch id): it is the delta's identity in
    the output lineage — reusing a tag against the same base makes the
    run a resume NO-OP, not a second merge. The base's own manifest
    lineage folds into the output lineage, so rebuilding the base with
    different inputs/params invalidates the increment; the requested
    z range must match the base's built levels exactly (a mismatched
    merge would silently drop corpus data). pytest asserts
    bit-equality with a full rebuild of base+delta.
    """
    base_all = Manifest(base_dir, "")._all_records()
    want = {f"z={z}" for z in range(z_min, z_base + 1)}
    if set(base_all) != want:
        raise ValueError(
            f"base pyramid levels {sorted(base_all)} do not match the "
            f"requested range z={z_min}..{z_base}")
    base_lineage = next(iter(base_all.values()), {}).get("lineage", "")

    params = {"z_base": z_base, "z_min": z_min, "base": base_lineage,
              "delta": delta_tag, "v": 2}
    lineage = lineage_hash([base_dir], params)
    manifest = Manifest(out_dir, lineage)
    manifest.invalidate_stale()
    done = manifest.load()
    records = dict(done)
    missing = [z for z in range(z_min, z_base + 1) if f"z={z}" not in done]
    if not missing:  # completed increment: resume costs nothing
        return records

    stats_cols = ["tkey", "n_docs", "n_spans", "min_doc", "max_doc"]
    delta_tiles = aggregate_pyramid_spatial(
        assign_tiles(delta_docs_ds, z_base), z_base, z_min,
        num_buckets=num_buckets,
    ).select_columns(stats_cols)
    base_tiles = read_pyramid(base_dir).select_columns(stats_cols)
    merged = hash_exchange(base_tiles.union(delta_tiles), "tkey",
                           combine_tile_stats_block, num_partitions=num_buckets)
    _write_level(manifest, records, missing, merged)
    return records
