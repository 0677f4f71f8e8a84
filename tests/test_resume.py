"""Checkpoint/resume: partitions skip on matching lineage, rebuild on
input/param change (north rule: resumable from checkpoint)."""

import json
import shutil
import time

from versatiles_rs_ray.pipelines.pyramid import build_and_write_pyramid, read_pyramid
from versatiles_rs_ray.state.manifest import Manifest, lineage_hash


def test_manifest_atomic_commit(tmp_path):
    m = Manifest(str(tmp_path / "out"), "abc123")
    tmp = m.begin("p1")
    (tmp_path / "out").joinpath()  # noqa: B018
    with open(f"{tmp}/data.txt", "w") as f:
        f.write("x")
    rec = m.commit("p1", tmp, rows=1, wall_s=0.5)
    assert m.is_done("p1")
    assert rec["lineage"] == "abc123"
    # different lineage does not see p1 as done
    m2 = Manifest(str(tmp_path / "out"), "other")
    assert not m2.is_done("p1")


def test_lineage_sensitive_to_params(sf_dir):
    files = [f"{sf_dir}/documents.parquet"]
    assert lineage_hash(files, {"a": 1}) != lineage_hash(files, {"a": 2})
    assert lineage_hash(files, {"a": 1}) == lineage_hash(files, {"a": 1})


def test_pyramid_resume(ray_session, sf_dir, tmp_path):
    out = str(tmp_path / "pyr")
    rec = build_and_write_pyramid(sf_dir, out, z_base=5, z_min=0)
    assert sorted(rec) == [f"z={z}" for z in range(6)]
    df = read_pyramid(out).to_pandas()
    assert int(df[df.z == 0]["n_docs"].iloc[0]) == 500

    # kill two levels -> resume recomputes only those
    lines = open(f"{out}/_manifest.jsonl").read().strip().split("\n")
    keep = [l for l in lines if json.loads(l)["partition"] not in ("z=0", "z=1")]
    with open(f"{out}/_manifest.jsonl", "w") as f:
        f.write("\n".join(keep) + "\n")
    shutil.rmtree(f"{out}/z=0")
    shutil.rmtree(f"{out}/z=1")
    build_and_write_pyramid(sf_dir, out, z_base=5, z_min=0)
    df2 = read_pyramid(out).to_pandas()
    assert df.sort_values(["z", "x", "y"]).reset_index(drop=True).equals(
        df2.sort_values(["z", "x", "y"]).reset_index(drop=True)
    )

    # complete output -> resume is a no-op (no recompute)
    t0 = time.monotonic()
    build_and_write_pyramid(sf_dir, out, z_base=5, z_min=0)
    assert time.monotonic() - t0 < 1.0


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
    """increment(base, delta) must equal a full rebuild over the
    concatenated corpus — the decomposable-aggregate guarantee."""
    import pyarrow as pa

    from versatiles_rs_ray.pipelines.pyramid import (
        build_and_write_pyramid, increment_pyramid, read_pyramid)
    from versatiles_rs_ray.sources.docs import load_shard_spec, shard_specs
    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    zb = 5
    base_dir = str(tmp_path / "base")
    full_dir = str(tmp_path / "full")
    inc_dir = str(tmp_path / "inc")
    # base corpus = replica 0; full corpus = replicas 0+1
    build_and_write_pyramid(sf, base_dir, z_base=zb, replicate=1)
    build_and_write_pyramid(sf, full_dir, z_base=zb, replicate=2)
    # delta = replica 1 only (id-space tiled docs)
    spec = dict(shard_specs(sf, 2)[0])
    spec["replicas"] = [1]
    delta = rd.from_arrow(load_shard_spec(spec))
    increment_pyramid(delta, base_dir, inc_dir, z_base=zb, delta_tag="r1")

    cols = ["tkey", "n_docs", "n_spans", "min_doc", "max_doc"]
    a = read_pyramid(inc_dir).select_columns(cols).to_pandas().sort_values("tkey").reset_index(drop=True)
    b = read_pyramid(full_dir).select_columns(cols).to_pandas().sort_values("tkey").reset_index(drop=True)
    assert a.equals(b)
    # resume: re-running the increment is a no-op (all levels committed)
    rec2 = increment_pyramid(delta, base_dir, inc_dir, z_base=zb, delta_tag="r1")
    assert set(rec2) == {f"z={z}" for z in range(zb + 1)}


def test_increment_pyramid_guards(ray_session, tmp_path):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from versatiles_rs_ray.pipelines.pyramid import (
        build_and_write_pyramid, increment_pyramid)

    sf = "/root/testdata/sf0.001"
    base_dir = str(tmp_path / "b")
    build_and_write_pyramid(sf, base_dir, z_base=4, replicate=1)
    delta = rd.from_arrow(pa.table({"doc_id": pa.array([], type=pa.int64())}))
    # requested range must match the base's built levels
    with pytest.raises(ValueError, match="do not match"):
        increment_pyramid(delta, base_dir, str(tmp_path / "o"), z_base=7,
                          delta_tag="x")


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
