"""The benchmark workloads: inputs, warm-up, one timed pass, checks.

Each workload is a closed loop of passes run by ``run.py``: one pass is
submitted only after the previous one finished and was checked. A pass
returns its wall time (the time a user of the engine waits for the
job), the stage figures of that pass, and one (name, ok) entry per
checked operation.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa

from . import inputs

# (replicas of the 5000-doc base table, replicas per read task or spec,
# zoom: the pyramid's base level, or the PIP tiles' level); the
# pyramid_write pipeline reads with its own 8 replicas per task
SIZES = {
    "full": {"pyramid": (100, 25, 12), "spatial_join": (160, 40, 5),
             "pyramid_write": (200, None, 3)},
    "tiny": {"pyramid": (4, 2, 6), "spatial_join": (4, 2, 5), "pyramid_write": (2, None, 3)},
}
PIP_BBOX = (0.0, 0.0, 40.0, 20.0)  # lon0, lat0, lon1, lat1
JOIN_COLUMNS = ["doc_num", "lon", "lat"]  # what the joins read (pruned at the read)
KNN_QUERIES = 128
KNN_K = 5


def _fetch(ds) -> pa.Table:
    """Blocks of a Dataset, gathered on the driver as one table."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables, promote_options="default") if tables else pa.table({})


def _now_us() -> float:
    return time.time_ns() / 1e3


def _unpack(tkey: np.ndarray):
    return tkey >> 58, (tkey >> 29) & ((1 << 29) - 1), tkey & ((1 << 29) - 1)


class Workload:
    name = ""

    def __init__(self, sf_dir: str, work_dir: str, seed: int, scale: str, corrupt: bool):
        self.sf_dir = sf_dir
        self.work_dir = work_dir
        self.seed = seed
        self.scale = scale
        self.corrupt = corrupt  # drop one output row before checking
        self.replicate, self.per_task, self.z = SIZES[scale][self.name]
        self.ids = inputs.all_ids(seed, self.replicate)
        self.n_docs = len(self.ids)

    def prepare(self):
        """Compute the oracles (numpy, outside every timed section)."""

    def warm(self):
        """Untimed first use of the pass's code paths at a small size."""

    def run_pass(self):
        """-> (wall_s, {stage figure: value}, [(check, ok)]); also sets
        ``self.window``, the timed section as wall-clock microseconds."""
        raise NotImplementedError


class Pyramid(Workload):
    """Fused map-side pyramid build z_base..0 over shard specs."""

    name = "pyramid"

    def prepare(self):
        self.expect = inputs.level_summary(self.ids, self.z)
        del self.ids

    def _build(self, replicate, per_task):
        from versatiles_rs_ray.sources import docs as D
        from versatiles_rs_ray.stages.pyramid import aggregate_pyramid_spatial_fused

        specs = D.shard_specs(self.sf_dir, replicate, shards_per_task=per_task)
        return aggregate_pyramid_spatial_fused(specs, D.load_shard_spec, self.z, 0).materialize()

    def warm(self):
        self._build(2, 1)

    def run_pass(self):
        import ray

        w0, t0 = _now_us(), time.perf_counter()
        ds = self._build(self.replicate, self.per_task)
        wall = time.perf_counter() - t0
        self.window = (w0, _now_us())
        # per-level stats are computed next to the blocks, so the driver
        # holds only their sums
        stats = ray.remote(_level_stats)
        parts = ray.get([stats.remote(ref, self.corrupt and i == 0)
                         for i, ref in enumerate(ds.to_arrow_refs())])
        checks = []
        for lvl, want in sorted(self.expect.items()):
            rows = [p[lvl] for p in parts if lvl in p]
            got = {"tiles": sum(r["tiles"] for r in rows),
                   "n_docs": sum(r["n_docs"] for r in rows),
                   "n_spans": sum(r["n_spans"] for r in rows),
                   "min_doc": min((r["min_doc"] for r in rows), default=None),
                   "max_doc": max((r["max_doc"] for r in rows), default=None)}
            checks.append((f"z{lvl}", got == want))
        levels = {lvl for p in parts for lvl in p}
        checks.append(("levels", levels == set(self.expect)))
        tiles = sum(r["tiles"] for p in parts for r in p.values())
        return wall, {"tiles_per_s": tiles / wall}, checks


def _level_stats(t: pa.Table, drop_one: bool) -> dict:
    """Per level of one block: tiles, sums of n_docs and n_spans, min and
    max doc. ``drop_one`` drops the block's first row first."""
    if drop_one:
        t = t.slice(1)
    if not t.num_rows:
        return {}
    z, _, _ = _unpack(np.asarray(t["tkey"], dtype=np.int64))
    cols = {k: np.asarray(t[k], dtype=np.int64)
            for k in ("n_docs", "n_spans", "min_doc", "max_doc")}
    out = {}
    for lvl in np.unique(z).tolist():
        sel = z == lvl
        out[lvl] = {"tiles": int(sel.sum()),
                    "n_docs": int(cols["n_docs"][sel].sum()),
                    "n_spans": int(cols["n_spans"][sel].sum()),
                    "min_doc": int(cols["min_doc"][sel].min()),
                    "max_doc": int(cols["max_doc"][sel].max())}
    return out


def _pip_cover(z: int):
    lon0, lat0, lon1, lat1 = PIP_BBOX
    (x0,), (y0,) = inputs.tile_xy(np.array([lon0]), np.array([lat1]), z)
    (x1,), (y1,) = inputs.tile_xy(np.array([lon1]), np.array([lat0]), z)
    return [(x, y) for x in range(int(x0), int(x1) + 1) for y in range(int(y0), int(y1) + 1)]


class SpatialJoin(Workload):
    """Tile-set PIP semi-join, then broadcast kNN, over the docs Dataset."""

    name = "spatial_join"

    def prepare(self):
        pick = inputs.rng(self.seed).choice(self.n_docs, KNN_QUERIES, replace=False)
        self.q_ids = np.sort(self.ids[pick])
        self.q_lon, self.q_lat = inputs.lonlat(self.q_ids)
        self.tiles = _pip_cover(self.z)
        self.expect_pip = inputs.pip_oracle(self.ids, self.z, self.tiles)
        self.expect_knn = inputs.knn_oracle(self.ids, self.q_ids, KNN_K)
        del self.ids

    def _pip(self, replicate, per_task):
        from versatiles_rs_ray.sources import docs as D
        from versatiles_rs_ray.stages import join

        docs = D.read_docs(self.sf_dir, replicate=replicate, shards_per_task=per_task,
                           columns=JOIN_COLUMNS)
        return docs.map_batches(join.TileSetPIPJoin(self.z, self.tiles),
                                batch_format="pyarrow").materialize()

    def _knn(self, replicate, per_task):
        from versatiles_rs_ray.sources import docs as D
        from versatiles_rs_ray.stages import join

        docs = D.read_docs(self.sf_dir, replicate=replicate, shards_per_task=per_task,
                           columns=JOIN_COLUMNS)
        return join.knn_join(docs, self.q_ids, self.q_lon, self.q_lat, KNN_K)

    def warm(self):
        self._pip(2, 1)
        self._knn(2, 1)

    def run_pass(self):
        w0, t0 = _now_us(), time.perf_counter()
        pip = self._pip(self.replicate, self.per_task)
        t1 = time.perf_counter()
        knn = self._knn(self.replicate, self.per_task)
        t2 = time.perf_counter()
        self.window = (w0, _now_us())
        hits = np.asarray(_fetch(pip.select_columns(["doc_num"]))["doc_num"], dtype=np.int64)
        if self.corrupt:
            hits = hits[1:]
        got_pip = {"rows": int(len(hits)), "id_sum": int(hits.sum())}
        knn = knn.sort_values(["q_doc", "rank"])
        got = knn["n_doc"].to_numpy(dtype=np.int64)
        ok_knn = (len(knn) == KNN_QUERIES * KNN_K
                  and np.array_equal(knn["q_doc"].to_numpy()[::KNN_K], self.q_ids)
                  and np.array_equal(got.reshape(KNN_QUERIES, KNN_K), self.expect_knn))
        figures = {"pip.docs_per_s": self.n_docs / (t1 - t0),
                   "knn.docs_per_s": self.n_docs / (t2 - t1)}
        return t2 - t0, figures, [("pip", got_pip == self.expect_pip), ("knn", bool(ok_knn))]


class PyramidWrite(Workload):
    """CLI pyramid build with parquet levels, a simulated crash, the
    resume from the manifest, and a full read-back."""

    name = "pyramid_write"

    def prepare(self):
        cols = inputs.pyramid_table(self.ids, self.z)
        self.digest = inputs.table_digest(cols)
        self.level_rows = {f"z={z}": int((cols["z"] == z).sum()) for z in range(self.z + 1)}
        self.tiles = int(len(cols["z"]))
        self.out_dir = os.path.join(self.work_dir, "pyramid_out")
        del self.ids

    def _build(self, out_dir, z, replicate):
        from versatiles_rs_ray.pipelines.pyramid import build_and_write_pyramid

        return build_and_write_pyramid(self.sf_dir, out_dir, z_base=z, replicate=replicate)

    def warm(self):
        from versatiles_rs_ray.pipelines.pyramid import read_pyramid

        warm_dir = os.path.join(self.work_dir, "pyramid_warm")
        shutil.rmtree(warm_dir, ignore_errors=True)
        self._build(warm_dir, 0, 1)
        read_pyramid(warm_dir).count()
        shutil.rmtree(warm_dir)

    def _crash(self) -> list:
        """Keep the first half of the manifest in write order; remove the
        partitions of the rest. Returns the removed partition ids."""
        path = os.path.join(self.out_dir, "_manifest.jsonl")
        with open(path) as f:
            lines = [line for line in f if line.strip()]
        keep = len(lines) // 2
        with open(path, "w") as f:
            f.writelines(lines[:keep])
        lost = [json.loads(line)["partition"] for line in lines[keep:]]
        for p in lost:
            shutil.rmtree(os.path.join(self.out_dir, p))
        return lost

    def _stored_bytes(self) -> int:
        total = 0
        for name in os.listdir(self.out_dir):
            d = os.path.join(self.out_dir, name)
            if name.startswith("z=") and os.path.isdir(d):
                total += sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))
        return total

    def run_pass(self):
        from versatiles_rs_ray.pipelines.pyramid import read_pyramid

        shutil.rmtree(self.out_dir, ignore_errors=True)
        w0, t0 = _now_us(), time.perf_counter()
        built = self._build(self.out_dir, self.z, self.replicate)
        build_s = time.perf_counter() - t0
        lost = self._crash()
        t1 = time.perf_counter()
        resumed = self._build(self.out_dir, self.z, self.replicate)
        resume_s = time.perf_counter() - t1
        t2 = time.perf_counter()
        back = _fetch(read_pyramid(self.out_dir))
        read_s = time.perf_counter() - t2
        self.window = (w0, _now_us())
        if self.corrupt:
            back = back.slice(1)
        cols = {k: np.asarray(back[k], dtype=np.int64)
                for k in ("z", "x", "y", "n_docs", "n_spans", "min_doc", "max_doc")}
        rewritten = sum(self.level_rows[p] for p in lost)
        figures = {
            "tiles_per_s": self.tiles / build_s,
            "resume_s": resume_s,
            "read.tiles_per_s": back.num_rows / read_s,
            "stored_bytes_per_tile": self._stored_bytes() / self.tiles,
            "pipelines.pyramid.resume.useful_frac": rewritten / self.tiles,
        }
        checks = [
            ("build", {p: r["rows"] for p, r in built.items()} == self.level_rows),
            ("resume", {p: r["rows"] for p, r in resumed.items()} == self.level_rows),
            ("read_back", inputs.table_digest(cols) == self.digest),
        ]
        return build_s + resume_s + read_s, figures, checks


WORKLOADS = {w.name: w for w in (Pyramid, SpatialJoin, PyramidWrite)}
