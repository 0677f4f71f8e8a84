"""Tile server + random-access dispatcher: the `versatiles serve`
surface (reference versatiles/src/server/{routes,tile_server}.rs,
tools/serve.rs) over written containers."""

import gzip
import json
import urllib.request

import pytest

from versatiles_rs_ray.core.bbox import TileBBoxPyramid
from versatiles_rs_ray.server import TileServer, _accept_encodings
from versatiles_rs_ray.sources import pmtiles
from versatiles_rs_ray.sources.debug_tiles import json_debug_tiles
from versatiles_rs_ray.sources.random_access import (
    DirectoryRandomAccess,
    MBTilesRandomAccess,
    VersatilesRandomAccess,
    open_random_access,
)
from versatiles_rs_ray.sources.tiles_io import write_directory_tiles, write_mbtiles
from versatiles_rs_ray.sources.versatiles import write_versatiles


def _get(url, headers=None):
    req = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, dict(r.headers), r.read()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read()


@pytest.fixture(scope="module")
def debug_ds(ray_session):
    return json_debug_tiles(TileBBoxPyramid.new_full(3, 0))


def test_versatiles_random_access(debug_ds, tmp_path):
    path = str(tmp_path / "ra.versatiles")
    write_versatiles(debug_ds, path, tile_format="json")
    ra = VersatilesRandomAccess(path)
    assert ra.get_tile(3, 2, 5) == b'{"x":2,"y":5,"z":3}'
    assert ra.get_tile(0, 0, 0) == b'{"x":0,"y":0,"z":0}'
    assert ra.get_tile(4, 0, 0) is None
    assert ra.get_tile(3, 7, 7) == b'{"x":7,"y":7,"z":3}'
    # block tile-index cache warm after lookups in the same block
    assert len(ra._idx_cache) >= 1


def test_mbtiles_random_access(debug_ds, tmp_path):
    path = str(tmp_path / "ra.mbtiles")
    write_mbtiles(debug_ds, path)
    ra = MBTilesRandomAccess(path)
    assert ra.get_tile(2, 1, 3) == b'{"x":1,"y":3,"z":2}'
    assert ra.get_tile(2, 1, 99) is None


def test_directory_random_access(debug_ds, tmp_path):
    out = str(tmp_path / "dirtiles")
    write_directory_tiles(debug_ds, out, ext="json")
    ra = DirectoryRandomAccess(out)
    assert ra.get_tile(1, 0, 1) == b'{"x":0,"y":1,"z":1}'
    assert ra.get_tile(1, 5, 5) is None


def test_open_random_access_dispatch(debug_ds, tmp_path):
    vp = str(tmp_path / "d.versatiles")
    write_versatiles(debug_ds, vp)
    assert isinstance(open_random_access(vp), VersatilesRandomAccess)
    mp = str(tmp_path / "d.mbtiles")
    write_mbtiles(debug_ds, mp)
    assert isinstance(open_random_access(mp), MBTilesRandomAccess)
    with pytest.raises(ValueError):
        open_random_access(str(tmp_path / "nope.xyz"))


def test_accepts_gzip_header_parse():
    class H(dict):
        def get(self, k, d=None):
            return super().get(k, d)

    assert _accept_encodings(H({"Accept-Encoding": "gzip, deflate"})) == {"gzip"}
    assert _accept_encodings(H({"Accept-Encoding": "br;q=1, *;q=0.5"})) == {"gzip", "br", "zstd"}
    assert _accept_encodings(H({"Accept-Encoding": "gzip;q=0"})) == set()
    assert _accept_encodings(H({"Accept-Encoding": "identity"})) == set()
    assert _accept_encodings(H({})) == set()


@pytest.fixture(scope="module")
def server(debug_ds, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    pm = str(tmp / "a.pmtiles")
    pmtiles.write_pmtiles(debug_ds, pm, metadata={"name": "debug-a"})
    from versatiles_rs_ray.stages.transform import recompress_ds

    vt = str(tmp / "b.versatiles")
    write_versatiles(
        recompress_ds(debug_ds, "payload", "raw", "gzip"),
        vt, tile_format="json", compression="gzip",
    )
    srv = TileServer()
    srv.add_tile_source("a", pm)
    srv.add_tile_source("b", vt)
    url = srv.start()
    yield url
    srv.shutdown()


def test_server_status_and_index(server):
    st, _, body = _get(f"{server}/status")
    assert st == 200 and body == b"ready!"
    st, hdr, body = _get(f"{server}/tiles/index.json")
    assert st == 200 and json.loads(body) == ["a", "b"]
    assert hdr["Content-Type"] == "application/json"


def test_server_tile_fetch(server):
    st, hdr, body = _get(f"{server}/tiles/a/3/2/5")
    assert st == 200
    assert json.loads(body) == {"x": 2, "y": 5, "z": 3}
    st, _, _ = _get(f"{server}/tiles/a/3/9/9")
    assert st == 404
    st, _, _ = _get(f"{server}/tiles/zzz/1/1/1")
    assert st == 404
    # extension suffix on y is ignored
    st, _, body = _get(f"{server}/tiles/a/0/0/0.json")
    assert st == 200 and json.loads(body) == {"x": 0, "y": 0, "z": 0}


def test_server_gzip_negotiation(server):
    # source b stores gzip tiles: client accepting gzip gets passthrough
    st, hdr, body = _get(f"{server}/tiles/b/2/1/2", {"Accept-Encoding": "gzip"})
    assert st == 200 and hdr.get("Content-Encoding") == "gzip"
    assert json.loads(gzip.decompress(body)) == {"x": 1, "y": 2, "z": 2}
    # identity-only client gets decoded bytes
    st, hdr, body = _get(f"{server}/tiles/b/2/1/2", {"Accept-Encoding": "identity"})
    assert st == 200 and "Content-Encoding" not in hdr
    assert json.loads(body) == {"x": 1, "y": 2, "z": 2}


def test_server_tilejson(server):
    st, _, body = _get(f"{server}/tiles/a/tiles.json")
    assert st == 200
    doc = json.loads(body)
    assert doc["tilejson"] == "3.0.0"
    assert doc["tiles"] == [f"{server}/tiles/a/{{z}}/{{x}}/{{y}}"]
    assert doc.get("name") == "debug-a"
    # meta.json is an alias (tile_source.rs:79)
    st2, _, body2 = _get(f"{server}/tiles/a/meta.json")
    assert st2 == 200 and json.loads(body2) == doc


def test_static_folder(tmp_path):
    import gzip as _gz

    from versatiles_rs_ray.server import StaticFolder

    root = tmp_path / "web"
    (root / "sub").mkdir(parents=True)
    (root / "index.html").write_text("<html>root</html>")
    (root / "app.js").write_text("console.log(1)")
    (root / "sub" / "data.json.gz").write_bytes(_gz.compress(b'{"k":1}', mtime=0))
    sf = StaticFolder(str(root), "/")
    blob, enc, mime = sf.get_data("/app.js", set())
    assert blob == b"console.log(1)" and enc is None
    assert mime in ("text/javascript", "application/javascript")
    # directory -> index.html
    blob, _, mime = sf.get_data("/", set())
    assert blob == b"<html>root</html>" and mime == "text/html"
    # precompressed variant: passthrough when accepted, decode otherwise
    blob, enc, mime = sf.get_data("/sub/data.json", {"gzip"})
    assert enc == "gzip" and _gz.decompress(blob) == b'{"k":1}'
    blob, enc, _ = sf.get_data("/sub/data.json", set())
    assert enc is None and blob == b'{"k":1}'
    # path escape blocked
    assert sf.get_data("/../secrets", {"gzip"}) is None


def test_static_tar_and_server_mount(tmp_path):
    import gzip as _gz
    import io
    import tarfile

    from versatiles_rs_ray.core import brotli_stored
    from versatiles_rs_ray.server import TileServer

    tar_path = tmp_path / "site.tar"
    with tarfile.open(tar_path, "w") as tf:
        def add(name, data):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
        add("index.html", b"<html>tar</html>")
        add("style.css.gz", _gz.compress(b"body{}", mtime=0))
        add("big.txt.br", brotli_stored.compress(b"x" * 100))
    srv = TileServer()
    srv.add_static_source(str(tar_path), "/assets")
    url = srv.start()
    try:
        st, hdr, body = _get(f"{url}/assets/index.html")
        assert st == 200 and body == b"<html>tar</html>"
        assert hdr["Content-Type"] == "text/html"
        # directory alias for index.html
        st, _, body = _get(f"{url}/assets/")
        assert st == 200 and body == b"<html>tar</html>"
        # gz passthrough vs decode
        st, hdr, body = _get(f"{url}/assets/style.css", {"Accept-Encoding": "gzip"})
        assert hdr.get("Content-Encoding") == "gzip" and _gz.decompress(body) == b"body{}"
        st, hdr, body = _get(f"{url}/assets/style.css", {"Accept-Encoding": "identity"})
        assert "Content-Encoding" not in hdr and body == b"body{}"
        # br-only entry decoded for identity clients
        st, hdr, body = _get(f"{url}/assets/big.txt", {"Accept-Encoding": "identity"})
        assert body == b"x" * 100 and "Content-Encoding" not in hdr
        st, _, _ = _get(f"{url}/assets/nope.txt")
        assert st == 404
        st, _, _ = _get(f"{url}/elsewhere/x")
        assert st == 404
    finally:
        srv.shutdown()


def test_serve_remote_container_over_http(debug_ds, tmp_path):
    """Two-hop: a .versatiles served by a plain file server is mounted
    remotely in TileServer — every tile request becomes range reads
    against the upstream (reference: registry http(s):// dispatch,
    container_registry.rs:196-246)."""
    import contextlib
    import functools
    import http.server
    import threading

    from versatiles_rs_ray.server import TileServer
    from versatiles_rs_ray.sources.random_access import VersatilesRandomAccess

    path = str(tmp_path / "remote.versatiles")
    write_versatiles(debug_ds, path, tile_format="json")

    @contextlib.contextmanager
    def _serve_dir(directory):
        handler = functools.partial(
            http.server.SimpleHTTPRequestHandler, directory=str(directory))
        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        t = threading.Thread(target=httpd.serve_forever, daemon=True)
        t.start()
        try:
            yield f"http://127.0.0.1:{httpd.server_address[1]}"
        finally:
            httpd.shutdown()

    with _serve_dir(tmp_path) as upstream:
        remote_url = f"{upstream}/remote.versatiles"
        ra = open_random_access(remote_url)
        assert isinstance(ra, VersatilesRandomAccess)
        assert ra.get_tile(2, 1, 2) == b'{"x":1,"y":2,"z":2}'
        srv = TileServer()
        srv.add_tile_source("r", remote_url)
        url = srv.start()
        try:
            st, _, body = _get(f"{url}/tiles/r/3/4/4")
            assert st == 200 and json.loads(body) == {"x": 4, "y": 4, "z": 3}
            st, _, _ = _get(f"{url}/tiles/r/5/0/0")
            assert st == 404
        finally:
            srv.shutdown()


def test_versatiles_random_access_multiblock(ray_session, tmp_path):
    """A z9 pyramid slice spans multiple 256x256 blocks: block grid
    dispatch, per-block index caching, and bbox bounds all engage."""
    import pyarrow as pa
    import ray.data as rd

    rows = []
    for x in range(250, 262):  # crosses the x=256 block boundary
        for y in range(254, 259):
            rows.append((9, x, y, f"tile-{x}-{y}".encode()))
    ds = rd.from_arrow(pa.table({
        "z": [r[0] for r in rows], "x": [r[1] for r in rows],
        "y": [r[2] for r in rows],
        "payload": pa.array([r[3] for r in rows], type=pa.binary()),
    }))
    path = str(tmp_path / "mb.versatiles")
    write_versatiles(ds, path)
    ra = VersatilesRandomAccess(path)
    assert ra.get_tile(9, 255, 255) == b"tile-255-255"  # block (0,0) corner
    assert ra.get_tile(9, 256, 256) == b"tile-256-256"  # block (1,1) corner
    assert ra.get_tile(9, 261, 258) == b"tile-261-258"
    assert ra.get_tile(9, 250, 254) == b"tile-250-254"
    assert ra.get_tile(9, 249, 254) is None   # inside block bbox gap
    assert ra.get_tile(9, 300, 300) is None   # block exists? no -> None
    assert ra.get_tile(8, 255, 255) is None   # level absent
    assert len(ra._idx_cache) >= 2  # multiple blocks decoded


def test_sniff_format_riff_wav_not_webp():
    from versatiles_rs_ray.core.formats import sniff_format

    wav = b"RIFF\x24\x00\x00\x00WAVEfmt "
    assert sniff_format(wav) == "wav"  # distinct from webp (and from
    # bin since the audio leg landed); AVI RIFF identifies as avi
    # since the video leg landed
    assert sniff_format(b"RIFF\x24\x00\x00\x00AVI LIST") == "avi"
    webp = b"RIFF\x24\x00\x00\x00WEBPVP8 "
    assert sniff_format(webp) == "webp"
    assert sniff_format(b"\x89PNG\r\n\x1a\n") == "png"
    assert sniff_format(b"\x1a\x05hello") == "mvt"


def test_svg_topojson_mime():
    """SVG sniffs from a leading <svg or an XML prolog followed by one;
    a bare XML prolog stays bin. The MIME types are the reference's."""
    from versatiles_rs_ray.core.formats import FORMAT_MIME, sniff_format, sniff_mime

    assert sniff_format(b'<svg xmlns="http://www.w3.org/2000/svg"/>') == "svg"
    assert sniff_format(b'<?xml version="1.0"?>\n<svg xmlns="x"/>') == "svg"
    assert sniff_format(b'<?xml version="1.0"?>\n<VRTDataset/>') == "bin"
    assert sniff_format(b"<?xml") == "bin"
    assert sniff_mime(b"<svg/>") == "image/svg+xml"
    assert sniff_mime(b"{}", "topojson") == FORMAT_MIME["topojson"] == "application/topo+json"


def test_server_svg_source_mime():
    """A source whose fmt_hint is svg is served as image/svg+xml."""
    import urllib.request

    from oracles import MemTileSource

    srv = TileServer()
    srv.sources["s"] = MemTileSource("s", {(0, 0, 0): b"<svg/>"}, fmt_hint="svg")
    url = srv.start()
    try:
        r = urllib.request.urlopen(f"{url}/tiles/s/0/0/0", timeout=10)
        assert r.headers["Content-Type"] == "image/svg+xml"
        assert r.read() == b"<svg/>"
    finally:
        srv.shutdown()


def test_server_brotli_tiles(debug_ds, tmp_path):
    """br-stored container: passthrough for br-accepting clients,
    decoded for identity clients — never raw-bytes-with-no-header."""
    from versatiles_rs_ray.stages.transform import recompress_ds

    vt = str(tmp_path / "br.versatiles")
    write_versatiles(
        recompress_ds(debug_ds, "payload", "raw", "br"),
        vt, tile_format="json", compression="br",
    )
    srv = TileServer()
    srv.add_tile_source("c", vt)
    url = srv.start()
    try:
        from versatiles_rs_ray.core import brotli_stored

        st, hdr, body = _get(f"{url}/tiles/c/2/1/2", {"Accept-Encoding": "br"})
        assert st == 200 and hdr.get("Content-Encoding") == "br"
        assert json.loads(brotli_stored.decompress(body)) == {"x": 1, "y": 2, "z": 2}
        st, hdr, body = _get(f"{url}/tiles/c/2/1/2", {"Accept-Encoding": "identity"})
        assert st == 200 and "Content-Encoding" not in hdr
        assert json.loads(body) == {"x": 1, "y": 2, "z": 2}
    finally:
        srv.shutdown()


def test_static_tar_dotfile(tmp_path):
    import io
    import tarfile

    from versatiles_rs_ray.server import StaticTar

    tar_path = tmp_path / "dot.tar"
    with tarfile.open(tar_path, "w") as tf:
        info = tarfile.TarInfo("./.well-known/token")
        data = b"challenge"
        info.size = len(data)
        tf.addfile(info, io.BytesIO(data))
    st = StaticTar(str(tar_path), "/")
    got = st.get_data("/.well-known/token", set())
    assert got is not None and got[0] == b"challenge"


def test_write_versatiles_rejects_empty_payload(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "z": [0], "x": [0], "y": [0],
        "payload": pa.array([b""], type=pa.binary()),
    }))
    with pytest.raises(Exception, match="zero-length"):
        write_versatiles(ds, str(tmp_path / "e.versatiles"))


def test_server_hardening(ray_session, tmp_path):
    """Malformed Accept-Encoding, negative/out-of-range tile coords,
    and per-source mime caching must not crash request threads."""
    import urllib.error
    import urllib.request

    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.server import TileServer, _accept_encodings
    from versatiles_rs_ray.sources.tiles_io import write_mbtiles

    # robust q parsing
    class H(dict):
        def get(self, k, d=None):
            return super().get(k, d)

    assert _accept_encodings(H({"Accept-Encoding": "gzip;q=abc"})) == {"gzip"}
    assert _accept_encodings(H({"Accept-Encoding": "gzip;q=0;level=1"})) == set()
    assert _accept_encodings(H({"Accept-Encoding": "br;level=1;q=0.5"})) == {"br"}

    ds = rd.from_arrow(pa.table({
        "z": pa.array([0], pa.int64()), "x": pa.array([0], pa.int64()),
        "y": pa.array([0], pa.int64()),
        "payload": pa.array([b'{"a":1}'], pa.binary())}))
    write_mbtiles(ds, str(tmp_path / "h.mbtiles"))
    srv = TileServer()
    srv.add_tile_source("h", str(tmp_path / "h.mbtiles"))
    url = srv.start()
    try:
        for bad, code in (("/tiles/h/-1/0/0", 400), ("/tiles/h/40/0/0", 400),
                          ("/tiles/h/1/5/0", 404), ("/tiles/h/0/0/-1", 404)):
            try:
                urllib.request.urlopen(f"{url}{bad}", timeout=10)
                raise AssertionError("expected HTTPError")
            except urllib.error.HTTPError as e:
                assert e.code == code, bad
        r = urllib.request.urlopen(
            urllib.request.Request(f"{url}/tiles/h/0/0/0",
                                   headers={"Accept-Encoding": "gzip;q=??"}),
            timeout=10)
        assert r.status == 200
    finally:
        srv.shutdown()


def test_server_mixed_format_mime_per_tile(tmp_path):
    """A hintless source with mixed payload formats must sniff the
    Content-Type per tile — the old per-source cache pinned the first
    format seen onto every later tile."""
    import urllib.request

    from versatiles_rs_ray.core.png import encode_png
    import numpy as np

    from oracles import MemTileSource

    png = encode_png(np.zeros((4, 4, 3), dtype=np.uint8))
    tiles = {(0, 0, 0): b'{"kind":"json"}', (1, 0, 0): png}
    srv = TileServer()
    srv.sources["m"] = MemTileSource("m", tiles, fmt_hint=None)
    url = srv.start()
    try:
        r1 = urllib.request.urlopen(f"{url}/tiles/m/0/0/0", timeout=10)
        r2 = urllib.request.urlopen(f"{url}/tiles/m/1/0/0", timeout=10)
        assert r1.headers["Content-Type"] == "application/json"
        assert r2.headers["Content-Type"] == "image/png"
    finally:
        srv.shutdown()


def test_host_header_in_tilejson_and_mbtiles_meta(debug_ds, tmp_path):
    mb = str(tmp_path / "meta.mbtiles")
    write_mbtiles(debug_ds, mb, metadata={
        "name": "debug", "format": "json", "bounds": "-180,-85,180,85",
        "minzoom": "0", "maxzoom": "3"})
    srv = TileServer()
    srv.add_tile_source("m", mb)
    url = srv.start()
    try:
        # tilejson advertises the Host header the client used
        st, _, body = _get(f"{url}/tiles/m/tiles.json",
                           headers={"Host": "tiles.example.com:9000"})
        assert st == 200
        doc = json.loads(body)
        assert doc["tiles"][0].startswith("http://tiles.example.com:9000/")
        # mbtiles metadata rows flow into the tilejson
        assert doc["name"] == "debug"
        assert doc["bounds"] == [-180.0, -85.0, 180.0, 85.0]
        assert doc["minzoom"] == 0 and doc["maxzoom"] == 3
        # fmt_hint from metadata: payload served without per-tile sniff
        st, hdrs, body = _get(f"{url}/tiles/m/1/0/0")
        assert st == 200 and hdrs["Content-Type"] == "application/json"
    finally:
        srv.shutdown()


def test_percent_encoded_static_path(tmp_path):
    d = tmp_path / "static"
    d.mkdir()
    (d / "my map.html").write_text("<html>hi</html>")
    srv = TileServer()
    srv.add_static_source(str(d))
    url = srv.start()
    try:
        st, _, body = _get(f"{url}/my%20map.html")
        assert st == 200 and b"hi" in body
    finally:
        srv.shutdown()


def test_internal_error_returns_500_not_connection_drop(debug_ds, tmp_path):
    mb = str(tmp_path / "e.mbtiles")
    write_mbtiles(debug_ds, mb)
    srv = TileServer()
    srv.add_tile_source("m", mb)
    # sabotage the reader AFTER mount: any request now raises inside do_GET
    class Boom:
        def get_tile(self, z, x, y):
            raise RuntimeError("backend exploded")
    srv.sources["m"].reader = Boom()
    srv.sources["m"].get_tile = Boom().get_tile
    url = srv.start()
    try:
        st, _, body = _get(f"{url}/tiles/m/1/0/0")
        assert st == 500 and b"internal error" in body
    finally:
        srv.shutdown()


def test_pmtiles_zstd_serves_and_unknown_fails_mount(tmp_path, debug_ds):
    """PMTiles v3 allows tile_compression zstd (4): with the system
    libzstd bound the archive mounts and serves — Content-Encoding:
    zstd to clients that accept it, transparently decoded for ones
    that don't. Unknown compression ids still fail the mount."""
    from versatiles_rs_ray.core.compression import AVAILABLE, compress_column
    from versatiles_rs_ray.core.native import HAVE_ZSTD, zstd_decompress

    p = str(tmp_path / "z.pmtiles")
    if HAVE_ZSTD:
        assert "zstd" in AVAILABLE
        zds = debug_ds.map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("payload"), "payload",
                compress_column(t["payload"], "zstd")),
            batch_format="pyarrow")
        pmtiles.write_pmtiles(zds, p, tile_compression=4)
        srv = TileServer()
        srv.add_tile_source("z", p)
        url = srv.start()
        try:
            st, hdrs, body = _get(f"{url}/tiles/z/1/0/0",
                                  headers={"Accept-Encoding": "zstd"})
            assert st == 200 and hdrs.get("Content-Encoding") == "zstd"
            assert json.loads(zstd_decompress(body))["z"] == 1
            st, hdrs, body = _get(f"{url}/tiles/z/1/0/0",
                                  headers={"Accept-Encoding": ""})
            assert st == 200 and hdrs.get("Content-Encoding") is None
            assert json.loads(body)["z"] == 1
        finally:
            srv.shutdown()
    pmtiles.write_pmtiles(debug_ds, str(tmp_path / "u.pmtiles"))
    blob = bytearray(open(tmp_path / "u.pmtiles", "rb").read())
    blob[98] = 7  # unknown compression id
    open(tmp_path / "u.pmtiles", "wb").write(bytes(blob))
    srv = TileServer()
    with pytest.raises(NotImplementedError, match="tile_compression"):
        srv.add_tile_source("u", str(tmp_path / "u.pmtiles"))


def test_forwarded_proto_and_host_in_tilejson(debug_ds, tmp_path):
    """Behind a TLS-terminating proxy the advertised tile URLs must
    carry the forwarded scheme+host, not http://<bind-host>."""
    mb = str(tmp_path / "fwd.mbtiles")
    write_mbtiles(debug_ds, mb)
    srv = TileServer()
    srv.add_tile_source("m", mb)
    url = srv.start()
    try:
        st, _, body = _get(f"{url}/tiles/m/tiles.json", headers={
            "X-Forwarded-Proto": "https",
            "X-Forwarded-Host": "tiles.example.com"})
        assert st == 200
        doc = json.loads(body)
        assert doc["tiles"][0].startswith("https://tiles.example.com/")
        # an unknown scheme value must not be reflected
        st, _, body = _get(f"{url}/tiles/m/tiles.json", headers={
            "X-Forwarded-Proto": "gopher",
            "Host": "h.example:1234"})
        assert json.loads(body)["tiles"][0].startswith("http://h.example:1234/")
        # chained proxies append to X-Forwarded-* — only the first
        # (client-facing edge) element may reach the tile URLs
        st, _, body = _get(f"{url}/tiles/m/tiles.json", headers={
            "X-Forwarded-Proto": "https, http",
            "X-Forwarded-Host": "public.example.com, edge.internal"})
        assert json.loads(body)["tiles"][0].startswith(
            "https://public.example.com/")
    finally:
        srv.shutdown()


def test_vpl_mount_tempdir_reclaimed(tmp_path):
    """A .vpl tile source converts into a scratch pmtiles dir at mount
    time; TileServer.shutdown() must remove it (the round-3 leak)."""
    import os

    from versatiles_rs_ray.config import _mount_vpl

    vpl = tmp_path / "p.vpl"
    vpl.write_text('from_debug zmax="1"\n')
    srv = TileServer()
    _mount_vpl(srv, "pipe", str(vpl))
    assert len(srv._temp_dirs) == 1
    tmp = srv._temp_dirs[0]
    assert os.path.isdir(tmp) and os.listdir(tmp)
    url = srv.start()
    try:
        st, _, body = _get(f"{url}/tiles/pipe/1/0/1")
        assert st == 200 and json.loads(body) == {"x": 0, "y": 1, "z": 1}
    finally:
        srv.shutdown()
    assert not os.path.exists(tmp)
