"""CLI surface: convert / probe / vpl / pyramid end-to-end in
subprocesses (each owns its own Ray session)."""

import json
import os
import subprocess
import sys


def _run(args):
    out = subprocess.run(
        [sys.executable, "-m", "versatiles_rs_ray", "--num-cpus", "4", *args],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=240,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_vpl_convert_probe(tmp_path):
    src = str(tmp_path / "src.mbtiles")
    doc = _run(["vpl", "from_debug zmax=3", src])
    assert doc["written"] == 1 + 4 + 16 + 64

    dst = str(tmp_path / "out.tar")
    doc = _run(
        ["convert", src, dst, "--bbox", "0,0,40,20", "--max-zoom", "3", "--flip-y"]
    )
    assert doc["written"] == 4  # filter golden tiles z0..3

    probe = _run(["probe", dst])
    assert probe["total_tiles"] == 4
    zs = {l["z"]: l for l in probe["levels"]}
    # z3 golden tile (3,4,3) flipped -> y = 7-3 = 4
    assert (zs[3]["x_min"], zs[3]["y_min"]) == (4, 4)


def test_cli_pyramid(tmp_path):
    out = str(tmp_path / "pyr")
    doc = _run(["pyramid", "/root/testdata/sf0.001", out, "--z-base", "4"])
    assert doc["z=0"] == 1  # one root tile row
    assert len(doc) == 5


def test_cli_dev_tools(tmp_path):
    """dev measure-tile-sizes / export-outline over a written container
    in a subprocess (fresh Ray session, the real CLI path)."""
    import json
    import subprocess
    import sys

    code = (
        "import ray; ray.init(address='local', num_cpus=2, include_dashboard=False, logging_level='ERROR');"
        "import ray.data; ray.data.DataContext.get_current().enable_progress_bars = False;"
        "from versatiles_rs_ray.core.bbox import TileBBoxPyramid;"
        "from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles;"
        "from versatiles_rs_ray.sources.tiles_io import write_mbtiles;"
        f"write_mbtiles(json_debug_tiles(TileBBoxPyramid.new_full(2, 2)), r'{tmp_path}/d.mbtiles');"
        "ray.shutdown()"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   capture_output=True, timeout=240)
    r = subprocess.run(
        [sys.executable, "-m", "versatiles_rs_ray", "--num-cpus", "2",
         "dev", "measure-tile-sizes", f"{tmp_path}/d.mbtiles", "--scale-level", "1"],
        capture_output=True, text=True, check=True, timeout=240)
    rows = json.loads(r.stdout.strip().splitlines()[-1])
    assert sum(row["n_tiles"] for row in rows) == 16
    r = subprocess.run(
        [sys.executable, "-m", "versatiles_rs_ray", "--num-cpus", "2",
         "dev", "export-outline", f"{tmp_path}/d.mbtiles", "--level", "2"],
        capture_output=True, text=True, check=True, timeout=240)
    geo = json.loads(r.stdout.strip().splitlines()[-1])
    assert geo["type"] == "MultiPolygon" and len(geo["coordinates"]) == 1


def test_cli_serve_subprocess(ray_session, tmp_path):
    """serve CLI end-to-end: spawn, parse the startup JSON, fetch
    /status and a tile, terminate.

    Uses the session-scoped ray fixture: an ad-hoc ray.init here with
    fewer cpus than conftest's 4 would PIN the whole pytest session's
    cluster at that size (ignore_reinit_error makes the later fixture
    init a no-op) and starve the multi-pool multimodal tests into a
    scheduling deadlock (observed: full-suite hang at
    test_media_pipeline_stages with only decode+resize actors placed).
    """
    import json
    import subprocess
    import sys
    import urllib.request

    from versatiles_rs_ray.core.bbox import TileBBoxPyramid
    from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles
    from versatiles_rs_ray.sources.pmtiles import write_pmtiles

    pm = f"{tmp_path}/s.pmtiles"
    write_pmtiles(json_debug_tiles(TileBBoxPyramid.new_full(1, 0)), pm)
    (tmp_path / "web").mkdir()
    (tmp_path / "web" / "index.html").write_text("hi")
    proc = subprocess.Popen(
        [sys.executable, "-m", "versatiles_rs_ray", "serve", f"t={pm}",
         "--port", "0", "--static", f"/site={tmp_path}/web"],
        stdout=subprocess.PIPE, text=True)
    try:
        # bounded startup wait: a wedged server must fail the test,
        # not hang readline() (and thus the whole suite) forever
        import select

        ready, _, _ = select.select([proc.stdout], [], [], 120)
        assert ready, "serve subprocess printed no startup JSON in 120s"
        line = proc.stdout.readline()
        url = json.loads(line)["url"]
        with urllib.request.urlopen(f"{url}/status", timeout=10) as r:
            assert r.read() == b"ready!"
        with urllib.request.urlopen(f"{url}/tiles/t/1/0/1", timeout=10) as r:
            assert json.loads(r.read()) == {"x": 0, "y": 1, "z": 1}
        with urllib.request.urlopen(f"{url}/site/", timeout=10) as r:
            assert r.read() == b"hi"
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_cli_convert_border_and_brotli(tmp_path):
    """convert --bbox-border N (convert.rs:117-119) widens the filter;
    --compress br writes brotli payloads (real codec via libbrotli)."""
    src = str(tmp_path / "src.mbtiles")
    _run(["vpl", "from_debug zmax=3", src])
    plain = _run(["convert", src, str(tmp_path / "a.tar"),
                  "--bbox", "0,0,40,20", "--max-zoom", "3"])
    border = _run(["convert", src, str(tmp_path / "b.tar"),
                   "--bbox", "0,0,40,20", "--max-zoom", "3", "--bbox-border", "1"])
    assert border["written"] > plain["written"]

    br = _run(["convert", src, str(tmp_path / "c.mbtiles"), "--compress", "br"])
    assert br["written"] == 85
    # payloads round-trip through brotli back to the original JSON
    import sqlite3

    from versatiles_rs_ray.core.compression import _decompress_one

    con = sqlite3.connect(str(tmp_path / "c.mbtiles"))
    blob = con.execute(
        "select tile_data from tiles where zoom_level=0").fetchone()[0]
    con.close()
    assert json.loads(_decompress_one(bytes(blob), "br")) == {"x": 0, "y": 0, "z": 0}


def test_cli_print_tilejson(tmp_path):
    """dev print-tilejson (print_tilejson.rs): canonical sorted-key
    JSON of the container metadata, vector_layers lifted out of the
    mbtiles `json` row."""
    import subprocess
    import sys

    code = (
        "import ray, json; ray.init(address='local', num_cpus=2, include_dashboard=False, logging_level='ERROR');"
        "import ray.data; ray.data.DataContext.get_current().enable_progress_bars = False;"
        "from versatiles_rs_ray.core.bbox import TileBBoxPyramid;"
        "from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles;"
        "from versatiles_rs_ray.sources.tiles_io import write_mbtiles;"
        "meta = {'name': 'demo', 'minzoom': '0', 'maxzoom': '1',"
        "        'bounds': '-180,-85,180,85',"
        "        'json': json.dumps({'vector_layers': [{'id': 'a', 'fields': {}}]})};"
        f"write_mbtiles(json_debug_tiles(TileBBoxPyramid.new_full(1)), r'{tmp_path}/m.mbtiles', metadata=meta);"
        "ray.shutdown()"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   capture_output=True, timeout=240)
    r = subprocess.run(
        [sys.executable, "-m", "versatiles_rs_ray", "dev", "print-tilejson",
         f"{tmp_path}/m.mbtiles"],
        capture_output=True, text=True, check=True, timeout=240)
    doc = json.loads(r.stdout.strip())
    assert doc["name"] == "demo"
    assert doc["minzoom"] == 0 and doc["maxzoom"] == 1
    assert doc["bounds"] == [-180.0, -85.0, 180.0, 85.0]
    assert doc["vector_layers"] == [{"id": "a", "fields": {}}]
    assert doc["tilejson"] == "3.0.0"
    # canonical: keys sorted like the reference's as_string
    assert list(doc) == sorted(doc)


def test_cli_help_topics():
    """help pipeline|config (tools/help.rs): docs from live registries."""
    import subprocess
    import sys

    r = subprocess.run([sys.executable, "-m", "versatiles_rs_ray", "help",
                        "pipeline"], capture_output=True, text=True,
                       check=True, timeout=240)
    for op in ("from_debug", "from_gdal_raster", "vector_update_properties",
               "raster_overview", "filter"):
        assert f"**{op}**" in r.stdout
    r = subprocess.run([sys.executable, "-m", "versatiles_rs_ray", "help",
                        "config"], capture_output=True, text=True,
                       check=True, timeout=240)
    assert "allowed_origins" in r.stdout


def test_cli_serve_bracket_names_and_auto_shutdown(ray_session, tmp_path):
    """tools/serve.rs source syntax `path[name]` / `[name]path` and
    --auto-shutdown (the reference's own serve tests use both)."""
    import subprocess
    import sys
    import urllib.request

    from versatiles_rs_ray.core.bbox import TileBBoxPyramid
    from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles
    from versatiles_rs_ray.sources.pmtiles import write_pmtiles

    pm = f"{tmp_path}/s.pmtiles"
    write_pmtiles(json_debug_tiles(TileBBoxPyramid.new_full(0)), pm)
    proc = subprocess.Popen(
        [sys.executable, "-m", "versatiles_rs_ray", "serve",
         f"{pm}[test]", f"[t2]{pm}", "--port", "0",
         "--auto-shutdown", "30000"],
        stdout=subprocess.PIPE, text=True)
    try:
        import select

        ready, _, _ = select.select([proc.stdout], [], [], 120)
        assert ready, "no startup JSON"
        doc = json.loads(proc.stdout.readline())
        assert doc["sources"] == ["t2", "test"]
        with urllib.request.urlopen(f"{doc['url']}/tiles/test/0/0/0",
                                    timeout=10) as r:
            assert json.loads(r.read()) == {"x": 0, "y": 0, "z": 0}
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_cli_corpus_ops(tmp_path):
    """corpus quota/sample/shuffle/pack/normalize over the real sf0.001
    documents table, via subprocesses (own Ray sessions)."""
    src = "/root/testdata/sf0.001/documents.parquet"
    doc = _run(["corpus", "sample", src, str(tmp_path / "s"), "--key",
                "doc_id", "--rate", "0.25"])
    assert doc["rows"] == 126  # matches the docs_sample oracle count
    doc = _run(["corpus", "quota", src, str(tmp_path / "q"), "--key",
                "source", "--order-by", "doc_id", "--n", "5"])
    assert doc["rows"] == 100
    doc = _run(["corpus", "pack", src, str(tmp_path / "p"), "--key",
                "doc_id", "--token-col", "n_chars", "--budget", "2000"])
    assert doc["rows"] == 500
    import pyarrow.parquet as pq

    t = pq.read_table(f"{tmp_path}/p")
    assert "seq_id" in t.schema.names and "shuffle_rank" in t.schema.names


def test_cli_corpus_dedup_near_uses_col(tmp_path):
    """corpus dedup --mode near runs curate_corpus' near-dup stage: it
    dedups the --col column, refuses an input whose own ``text`` column
    would shadow it, and writes back exactly the input's columns."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    # two near-dup families of 6 docs in ``body``; ``text`` is one
    # string shared by all 12 docs
    body = [" ".join(f"{fam}{w}" for w in range(40)) + f" doc{i}"
            for i, fam in enumerate(["alpha"] * 6 + ["omega"] * 6)]
    ids = pa.array(range(12), type=pa.int64())
    src = str(tmp_path / "with_text.parquet")
    pq.write_table(pa.table({"doc_id": ids, "text": ["same"] * 12, "body": body}), src)
    r = subprocess.run(
        [sys.executable, "-m", "versatiles_rs_ray", "--num-cpus", "4", "corpus", "dedup",
         src, str(tmp_path / "o1"), "--mode", "near", "--col", "body"],
        capture_output=True, text=True, timeout=240,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert r.returncode != 0 and "reserves column 'text'" in r.stderr

    src = str(tmp_path / "body_only.parquet")
    pq.write_table(pa.table({"doc_id": ids, "body": body}), src)
    doc = _run(["corpus", "dedup", src, str(tmp_path / "o2"), "--mode", "near", "--col", "body"])
    t = pq.read_table(str(tmp_path / "o2"))
    assert doc["rows"] == t.num_rows == 2
    assert t.schema.names == ["doc_id", "body"]
    assert sorted(t["doc_id"].to_pylist()) == [0, 6]


def test_cli_help_single_op_params():
    """help pipeline <op>: full docstring + parameter table derived
    from the live op signature (the #[derive(VPLDecode)] analog)."""
    import subprocess
    import sys

    r = subprocess.run([sys.executable, "-m", "versatiles_rs_ray", "help",
                        "pipeline", "from_gdal_raster"],
                       capture_output=True, text=True, check=True, timeout=240)
    assert "# from_gdal_raster (read operation)" in r.stdout
    assert "`tile_size` = `64`" in r.stdout
    assert "`filename` (optional)" in r.stdout
    assert "Parameters:" in r.stdout
    # listing includes per-op parameters too
    r = subprocess.run([sys.executable, "-m", "versatiles_rs_ray", "help",
                        "pipeline"], capture_output=True, text=True,
                       check=True, timeout=240)
    assert "`zoom` = `8`" in r.stdout  # assign_tiles param in the listing
    # unknown op fails with the available set
    r = subprocess.run([sys.executable, "-m", "versatiles_rs_ray", "help",
                        "pipeline", "nope"], capture_output=True, text=True,
                       timeout=240)
    assert r.returncode != 0 and "unknown op" in r.stderr


def test_cli_corpus_curate(tmp_path):
    """corpus curate: the full filter->dedup->mix->shuffle->split->pack
    chain over the real sf0.001 documents table via the CLI."""
    src = "/root/testdata/sf0.001/documents.parquet"
    doc = _run(["corpus", "curate", src, str(tmp_path / "c"), "--key",
                "doc_id", "--split", "--pack", "--budget", "2000",
                "--lang-fracs", "zh=0.0"])
    import pyarrow.parquet as pq

    t = pq.read_table(f"{tmp_path}/c")
    assert doc["rows"] == t.num_rows > 0
    names = set(t.schema.names)
    assert {"split", "seq_id", "shuffle_rank"} <= names
    assert set(t["split"].to_pylist()) <= {"train", "val", "test"}
    assert "zh" not in set(t["lang"].to_pylist())


def test_cli_corpus_dup_spans(tmp_path):
    src = "/root/testdata/sf0.001/documents.parquet"
    doc = _run(["corpus", "dup-spans", src, str(tmp_path / "d"), "--key",
                "doc_id", "--k", "24"])
    import pyarrow.parquet as pq

    t = pq.read_table(f"{tmp_path}/d")
    assert doc["rows"] == t.num_rows
    assert set(t.schema.names) == {"doc", "span_start", "span_end"}


def test_cli_corpus_scrub_spans(tmp_path):
    src = "/root/testdata/sf0.001/documents.parquet"
    doc = _run(["corpus", "scrub-spans", src, str(tmp_path / "s"), "--key",
                "doc_id", "--k", "24"])
    import pyarrow.parquet as pq

    t = pq.read_table(f"{tmp_path}/s")
    assert doc["rows"] == t.num_rows == 500
    assert set(t.schema.names) == {"doc_id", "text", "n_spans", "n_removed"}
    import numpy as np

    assert int(np.asarray(t["n_removed"]).sum()) > 0  # corpus has dup spans


def test_cli_help_corpus():
    import subprocess
    import sys

    r = subprocess.run([sys.executable, "-m", "versatiles_rs_ray", "help",
                        "corpus"], capture_output=True, text=True, check=True)
    assert "curate" in r.stdout and "dup-spans" in r.stdout
    r = subprocess.run([sys.executable, "-m", "versatiles_rs_ray", "help",
                        "corpus", "curate"], capture_output=True, text=True,
                       check=True)
    assert "Parameters:" in r.stdout and "near_dup_threshold" in r.stdout


def test_cli_corpus_model_ops(tmp_path):
    """corpus lm-score / tfidf / semdedup / bpe-train via subprocesses
    over the real sf0.001 tables."""
    import pyarrow.parquet as pq

    src = "/root/testdata/sf0.001/documents.parquet"
    doc = _run(["corpus", "lm-score", src, str(tmp_path / "lm")])
    t = pq.read_table(f"{tmp_path}/lm")
    assert doc["rows"] == t.num_rows == 500
    assert set(t.schema.names) == {"doc_id", "n_tok", "nll_micro"}
    doc = _run(["corpus", "tfidf", src, str(tmp_path / "tf"), "--dim", "32"])
    t = pq.read_table(f"{tmp_path}/tf")
    assert doc["rows"] == t.num_rows > 500
    assert set(t.schema.names) == {"doc_id", "bucket", "tf", "w_micro"}
    assert t["bucket"].to_pandas().max() < 32
    doc = _run(["corpus", "semdedup",
                "/root/testdata/sf0.001/embeddings.parquet",
                str(tmp_path / "sd"), "--cells", "8", "--tau", "0.3"])
    t = pq.read_table(f"{tmp_path}/sd")
    assert doc["rows"] == t.num_rows == 500
    assert set(t.schema.names) == {"vec_id", "cell", "is_dup"}
    doc = _run(["corpus", "bpe-train", src, str(tmp_path / "bp"),
                "--merges", "5"])
    t = pq.read_table(f"{tmp_path}/bp")
    assert doc["rows"] == t.num_rows == 5
    assert list(t["rank"].to_pylist()) == [1, 2, 3, 4, 5]
    doc = _run(["corpus", "dsir", src, str(tmp_path / "ds"),
                "--target", src, "--select", "25", "--dim", "32"])
    t = pq.read_table(f"{tmp_path}/ds")
    assert doc["rows"] == t.num_rows == 25
    assert set(t.schema.names) == {"doc_id", "n_grams", "w_micro",
                                   "g_micro", "score_micro"}


def test_cli_corpus_temp_sample(tmp_path):
    src = "/root/testdata/sf0.001/documents.parquet"
    doc = _run(["corpus", "temp-sample", src, str(tmp_path / "t"), "--key",
                "doc_id", "--col", "lang", "--temperature", "2.0",
                "--rate", "0.3"])
    import pyarrow.parquet as pq

    t = pq.read_table(f"{tmp_path}/t")
    assert doc["rows"] == t.num_rows > 0
    # flattened: every lang present, biggest lang NOT dominant at 0.3x
    import collections

    langs = collections.Counter(t["lang"].to_pylist())
    assert len(langs) >= 4
