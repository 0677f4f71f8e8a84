"""Checkpoint/resume: partitions skip on matching lineage, rebuild on
input/param change (north rule: resumable from checkpoint)."""

import glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from versatiles_rs_ray.pipelines import pyramid as P
from versatiles_rs_ray.pipelines.pyramid import build_and_write_pyramid, read_pyramid
from versatiles_rs_ray.stages.assign import pack_tkey
from versatiles_rs_ray.state.manifest import Manifest, lineage_hash


def test_manifest_atomic_commit(tmp_path):
    m = Manifest(str(tmp_path / "out"), "abc123")
    tmp = m.begin("p1")
    (tmp_path / "out").joinpath()  # noqa: B018
    with open(f"{tmp}/data.txt", "w") as f:
        f.write("x")
    rec = m.commit("p1", tmp, rows=1, wall_s=0.5)
    assert "p1" in m.load()
    assert rec["lineage"] == "abc123"
    # different lineage does not see p1 as done
    m2 = Manifest(str(tmp_path / "out"), "other")
    assert "p1" not in m2.load()


def test_lineage_sensitive_to_params(sf_dir):
    files = [f"{sf_dir}/documents.parquet"]
    assert lineage_hash(files, {"a": 1}) != lineage_hash(files, {"a": 2})
    assert lineage_hash(files, {"a": 1}) == lineage_hash(files, {"a": 1})


def _assert_committed(out, rec):
    """Every level's manifest row count is what reading it back gives,
    and no partition's tmp dir is left behind."""
    counts = read_pyramid(out).to_pandas()["z"].value_counts()
    assert {p: r["rows"] for p, r in rec.items()} == {
        f"z={z}": int(n) for z, n in counts.items()}
    assert glob.glob(f"{out}/*.tmp-*") == []


def test_pyramid_resume(ray_session, sf_dir, tmp_path):
    out = str(tmp_path / "pyr")
    rec = build_and_write_pyramid(sf_dir, out, z_base=5, z_min=0)
    assert sorted(rec) == [f"z={z}" for z in range(6)]
    _assert_committed(out, rec)
    df = read_pyramid(out).to_pandas()
    assert int(df[df.z == 0]["n_docs"].iloc[0]) == 500

    # kill two levels -> resume recomputes only those
    lines = open(f"{out}/_manifest.jsonl").read().strip().split("\n")
    keep = [l for l in lines if json.loads(l)["partition"] not in ("z=0", "z=1")]
    with open(f"{out}/_manifest.jsonl", "w") as f:
        f.write("\n".join(keep) + "\n")
    shutil.rmtree(f"{out}/z=0")
    shutil.rmtree(f"{out}/z=1")
    rec = build_and_write_pyramid(sf_dir, out, z_base=5, z_min=0)
    _assert_committed(out, rec)
    df2 = read_pyramid(out).to_pandas()
    assert df.sort_values(["z", "x", "y"]).reset_index(drop=True).equals(
        df2.sort_values(["z", "x", "y"]).reset_index(drop=True)
    )

    # complete output -> resume is a no-op (no recompute)
    t0 = time.monotonic()
    build_and_write_pyramid(sf_dir, out, z_base=5, z_min=0)
    assert time.monotonic() - t0 < 1.0


def _tile_stats(levels):
    """A combined tile-stats block holding every tile of ``levels``."""
    z = np.concatenate([np.full(4 ** lv, lv) for lv in levels]).astype(np.int64)
    x = np.concatenate([np.arange(4 ** lv) % (2 ** lv) for lv in levels]).astype(np.int64)
    y = np.concatenate([np.arange(4 ** lv) // (2 ** lv) for lv in levels]).astype(np.int64)
    n = np.arange(len(z), dtype=np.int64)
    return pa.table({"tkey": pack_tkey(z, x, y), "n_docs": n + 1, "n_spans": n + 2,
                     "min_doc": n, "max_doc": n + 3})


def _level_files(d):
    return {f: pq.read_metadata(os.path.join(d, f)).num_rows for f in os.listdir(d)}


def test_write_block_retry_overwrites(tmp_path):
    """A retried write task replaces its own files: each level still
    holds exactly one file, with the same rows as the first attempt;
    levels not asked for are not written."""
    dirs = {z: str(tmp_path / f"z={z}") for z in (1, 2)}
    for d in dirs.values():
        os.makedirs(d)
    batch = _tile_stats([0, 1, 2])
    first = P._write_block(batch, dirs)
    files = {z: _level_files(d) for z, d in dirs.items()}
    assert {z: list(f.values()) for z, f in files.items()} == {1: [4], 2: [16]}
    assert P._write_block(batch, dirs).equals(first)
    assert {z: _level_files(d) for z, d in dirs.items()} == files
    assert sorted(zip(first["z"].to_pylist(), first["rows"].to_pylist())) == [(1, 4), (2, 16)]


@pytest.mark.parametrize("batch", [_tile_stats([1]).slice(0, 0), pa.table({})],
                         ids=["zero_rows", "schema_less"])
def test_write_block_empty(tmp_path, batch):
    out = P._write_block(batch, {1: str(tmp_path)})
    assert out.num_rows == 0 and out.column_names == ["z", "rows"]
    assert os.listdir(tmp_path) == []


def test_write_level_commit_guard(ray_session, sf_dir, tmp_path, monkeypatch):
    """A level whose parquet footers disagree with the rows the write
    tasks reported is never committed; a re-run rebuilds it."""
    out = str(tmp_path / "pyr")
    stray = str(tmp_path / "stray.parquet")
    pq.write_table(_tile_stats([2]).slice(0, 1), stray)
    begin = Manifest.begin

    def begin_with_stray(self, partition):
        tmp = begin(self, partition)
        if partition == "z=2":
            shutil.copy(stray, os.path.join(tmp, "part-stray.parquet"))
        return tmp

    monkeypatch.setattr(Manifest, "begin", begin_with_stray)
    with pytest.raises(RuntimeError, match="z=2"):
        build_and_write_pyramid(sf_dir, out, z_base=4, z_min=0)
    assert "z=2" not in Manifest(out, "").latest()
    monkeypatch.undo()

    rec = build_and_write_pyramid(sf_dir, out, z_base=4, z_min=0)
    _assert_committed(out, rec)
    clean = str(tmp_path / "clean")
    build_and_write_pyramid(sf_dir, clean, z_base=4, z_min=0)
    assert _read_sorted(out).equals(_read_sorted(clean))


def test_pyramid_reads_only_aggregated_columns(ray_session, sf_dir, tmp_path, monkeypatch):
    """Both pipeline entries read docs pruned to the four columns the
    pyramid aggregates: no span structs, text or id strings."""
    seen = []
    assign_tiles = P.assign_tiles

    def recording_assign(ds, zoom, **kwargs):
        seen.append(ds.schema().names)
        return assign_tiles(ds, zoom, **kwargs)

    monkeypatch.setattr(P, "assign_tiles", recording_assign)
    P.build_pyramid(sf_dir, z_base=3)
    rec = build_and_write_pyramid(sf_dir, str(tmp_path / "pyr"), z_base=3)
    assert sorted(rec) == [f"z={z}" for z in range(4)]
    assert seen == [["doc_num", "lon", "lat", "n_spans"]] * 2


def _read_sorted(out_dir):
    df = read_pyramid(out_dir).to_pandas()
    return df.sort_values(["z", "x", "y"]).reset_index(drop=True)


def test_hierarchical_strategy_agrees(ray_session, sf_dir, tmp_path):
    """Every written level equals the level-by-level rollup of the
    level above it: parent tiles fold their four children."""
    a = str(tmp_path / "a")
    build_and_write_pyramid(sf_dir, a, z_base=4, z_min=0)
    da = _read_sorted(a)
    aggs = {"n_docs": "sum", "n_spans": "sum", "min_doc": "min", "max_doc": "max"}
    cols = ["x", "y", "n_docs", "n_spans", "min_doc", "max_doc"]
    for z in range(4):
        child = da[da.z == z + 1]
        want = (
            child.assign(x=child.x // 2, y=child.y // 2)
            .groupby(["x", "y"], as_index=False)
            .agg(aggs)[cols]
            .astype("int64")
            .reset_index(drop=True)
        )
        got = da[da.z == z][cols].astype("int64").reset_index(drop=True)
        assert got.equals(want)
    assert int(da[da.z == 0]["n_docs"].iloc[0]) == 500


def test_fused_strategy_agrees(ray_session, sf_dir, tmp_path):
    """The written pyramid (Dataset-fed exchange) equals the map-side
    fused exchange over shard specs of the same input."""
    from versatiles_rs_ray.sources import docs as D
    from versatiles_rs_ray.stages.assign import unpack_tkey
    from versatiles_rs_ray.stages.pyramid import aggregate_pyramid_spatial_fused

    a = str(tmp_path / "a")
    build_and_write_pyramid(sf_dir, a, z_base=4, z_min=0)
    da = _read_sorted(a)
    fused = aggregate_pyramid_spatial_fused(
        D.shard_specs(sf_dir, 1), D.load_shard_spec, 4, 0, num_buckets=8
    ).to_pandas()
    z, x, y = unpack_tkey(fused["tkey"].to_numpy(dtype="int64"))
    dc = fused.assign(z=z, x=x, y=y).sort_values(["z", "x", "y"]).reset_index(drop=True)
    cols = ["z", "x", "y", "n_docs", "n_spans", "min_doc", "max_doc"]
    assert da[cols].astype("int64").equals(dc[cols].astype("int64"))


def test_stale_lineage_partitions_invalidated(ray_session, sf_dir, tmp_path):
    """An interrupted rebuild after a param change must not mix
    old-lineage levels into reads: stale partitions are deleted at
    build start, and read_pyramid only reads current-lineage levels."""
    out = str(tmp_path / "pyr")
    build_and_write_pyramid(sf_dir, out, z_base=4, z_min=0)
    old_df = read_pyramid(out).to_pandas()
    assert sorted(old_df["z"].unique()) == [0, 1, 2, 3, 4]

    # change params (z_base) -> new lineage; old z=3/z=4 dirs are stale
    build_and_write_pyramid(sf_dir, out, z_base=3, z_min=0)
    import os

    assert not os.path.exists(f"{out}/z=4")  # stale dir removed
    df = read_pyramid(out).to_pandas()
    assert sorted(df["z"].unique()) == [0, 1, 2, 3]
    # manifest only carries current-lineage records
    recs = [json.loads(l) for l in open(f"{out}/_manifest.jsonl") if l.strip()]
    assert len({r["lineage"] for r in recs}) == 1

    # simulate an interrupted rebuild: re-add a stale-lineage record +
    # dir by hand; read_pyramid must exclude it
    os.makedirs(f"{out}/z=9")
    with open(f"{out}/z=9/bad.parquet", "w") as f:
        f.write("")
    stale_rec = dict(recs[0], partition="z=9", lineage="deadbeef")
    # stale record FIRST, then current ones (newest record wins)
    with open(f"{out}/_manifest.jsonl", "w") as f:
        f.write(json.dumps(stale_rec) + "\n")
        for r in recs:
            f.write(json.dumps(r) + "\n")
    df2 = read_pyramid(out).to_pandas()
    assert sorted(df2["z"].unique()) == [0, 1, 2, 3]


def test_increment_pyramid_equals_full_rebuild(ray_session, tmp_path):
    """Merging a delta corpus's tiles into a written pyramid through one
    tkey exchange equals a full rebuild over base + delta — the
    decomposable-aggregate property (sum/min/max per tile) that makes a
    pyramid mergeable without re-reading the base corpus."""
    from versatiles_rs_ray.sources.docs import load_shard_spec, shard_specs
    from versatiles_rs_ray.stages.assign import assign_tiles
    from versatiles_rs_ray.stages.exchange import hash_exchange
    from versatiles_rs_ray.stages.pyramid import (
        aggregate_pyramid_spatial, combine_tile_stats_block)
    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    zb = 5
    base_dir = str(tmp_path / "base")
    full_dir = str(tmp_path / "full")
    # base corpus = replica 0; full corpus = replicas 0+1
    build_and_write_pyramid(sf, base_dir, z_base=zb, replicate=1)
    build_and_write_pyramid(sf, full_dir, z_base=zb, replicate=2)
    # delta = replica 1 only (id-space tiled docs)
    spec = dict(shard_specs(sf, 2)[0])
    spec["replicas"] = [1]
    delta = rd.from_arrow(load_shard_spec(spec))

    cols = ["tkey", "n_docs", "n_spans", "min_doc", "max_doc"]
    delta_tiles = aggregate_pyramid_spatial(assign_tiles(delta, zb), zb).select_columns(cols)
    merged = hash_exchange(read_pyramid(base_dir).select_columns(cols).union(delta_tiles),
                           "tkey", combine_tile_stats_block, num_partitions=8)
    a = merged.to_pandas().sort_values("tkey").reset_index(drop=True)
    b = read_pyramid(full_dir).select_columns(cols).to_pandas().sort_values("tkey").reset_index(drop=True)
    assert len(a) > len(read_pyramid(base_dir).to_pandas())  # the delta added tiles
    assert a.equals(b)


def test_increment_pyramid_guards(ray_session, tmp_path):
    """The pipeline's z range: ``z_min > 0`` commits and reads back
    exactly z_min..z_base, each level equal to the z_min=0 build's."""
    sf = "/root/testdata/sf0.001"
    part_dir, full_dir = str(tmp_path / "part"), str(tmp_path / "full")
    rec = build_and_write_pyramid(sf, part_dir, z_base=4, z_min=2)
    build_and_write_pyramid(sf, full_dir, z_base=4)
    assert set(rec) == {"z=2", "z=3", "z=4"}
    assert sorted(d for d in os.listdir(part_dir) if d.startswith("z=")) == ["z=2", "z=3", "z=4"]

    cols = ["z", "x", "y", "n_docs", "n_spans", "min_doc", "max_doc"]
    part = read_pyramid(part_dir).select_columns(cols).to_pandas()
    full = read_pyramid(full_dir).select_columns(cols).to_pandas()
    assert sorted(part["z"].unique()) == [2, 3, 4]
    for z in (2, 3, 4):
        got = part[part["z"] == z].sort_values(["x", "y"]).reset_index(drop=True)
        want = full[full["z"] == z].sort_values(["x", "y"]).reset_index(drop=True)
        assert rec[f"z={z}"]["rows"] == len(got) > 0
        assert got.equals(want)


def test_cli_status(tmp_path):
    """status CLI surfaces the manifest's lineage + metrics without Ray."""
    import json
    import subprocess
    import sys

    from versatiles_rs_ray.state.manifest import Manifest

    out = str(tmp_path / "out")
    m = Manifest(out, "lin-A")
    for z in (0, 1):
        tmp = m.begin(f"z={z}")
        (tmp_path / "out" / f"z={z}.tmp-sentinel").mkdir(exist_ok=True)
        m.commit(f"z={z}", tmp, rows=10 * (z + 1), wall_s=0.5)
    # one stale record under a different lineage
    m2 = Manifest(out, "lin-B")
    tmp = m2.begin("z=9")
    m2.commit("z=9", tmp, rows=3, wall_s=0.1)

    r = subprocess.run(
        [sys.executable, "-m", "versatiles_rs_ray", "status", out,
         "--verbose"],
        capture_output=True, text=True, check=True)
    doc = json.loads(r.stdout)
    assert doc["partitions"] == 3
    assert doc["rows_total"] == 33
    assert doc["lineages"] == {"lin-A": 2, "lin-B": 1}
    assert doc["dominant_lineage"] == "lin-A"
    assert doc["stale"] == ["z=9"]
    assert len(doc["parts"]) == 3
    # missing manifest -> clean error shape
    r2 = subprocess.run(
        [sys.executable, "-m", "versatiles_rs_ray", "status",
         str(tmp_path / "nope")],
        capture_output=True, text=True)
    assert r2.returncode == 1
    assert "no _manifest" in r2.stdout
