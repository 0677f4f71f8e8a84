"""Tile server: the engine's `versatiles serve` analogue.

Serves the reference's HTTP surface (versatiles/src/server/routes.rs,
tile_server.rs:198-206, sources/tile_source.rs:63-103) from the
random-access readers in sources/random_access.py:

  GET /status                      -> "ready!"
  GET /tiles/index.json            -> JSON list of mounted source ids
  GET /tiles/{id}/tiles.json       -> TileJSON (meta.json is an alias,
                                      tile_source.rs:79)
  GET /tiles/{id}/{z}/{x}/{y}      -> tile bytes (any extension suffix
                                      on y is ignored, as the reference
                                      parses `{z}/{x}/{y}` prefix)
  GET {static_prefix}/{path}       -> static folder/tar mounts
                                      (static_source_{folder,tar}.rs:
                                      directory -> index.html, .gz/.br
                                      precompressed variants, checked
                                      after tile routes)

Encoding negotiation mirrors server/encoding.rs narrowly: if the
stored payload is gzip or brotli and the client accepts that coding,
bytes pass through with the matching `Content-Encoding`; otherwise the
payload is decoded before sending. Identity is always acceptable
(encoding.rs doc contract).

This is a *serving* layer, not a data-processing stage: it runs on the
driver (or one actor per node behind a load balancer at scale), each
request doing one O(1) container lookup — no Ray Dataset involvement,
exactly like the reference's axum handlers calling
`reader.get_tile_data()`. Stdlib-only (http.server, ThreadingHTTPServer)
because no web framework ships in this sandbox.
"""

from __future__ import annotations

import gzip
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .sources.random_access import open_random_access

from .core.formats import FORMAT_MIME, sniff_mime as _sniff_mime


def _accept_encodings(headers) -> set:
    """Narrow Accept-Encoding parse (server/encoding.rs): recognize
    gzip, br and zstd (RFC 8878 registered token); `*` enables all;
    a `;q=0` disables; unknown tokens ignored; identity is always
    acceptable."""
    raw = headers.get("Accept-Encoding", "") or ""
    out = set()
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        parts = token.split(";")
        name = parts[0].strip()
        q = 1.0
        for p in parts[1:]:  # params individually; unparsable q -> 1.0
            p = p.strip()
            if p.startswith("q="):
                try:
                    q = float(p[2:] or 1.0)
                except ValueError:
                    q = 1.0
        if q == 0.0:
            continue
        if name == "*":
            out |= {"gzip", "br", "zstd"}
        elif name in ("gzip", "br", "zstd"):
            out.add(name)
    return out


class TileSource:
    """One mounted container: random-access reader + cached TileJSON.

    Mirrors sources/tile_source.rs: id, reader, tilejson built once
    with the `tiles` URL injected (tile_source.rs:94-103).
    """

    def __init__(self, source_id: str, path: str):
        self.id = source_id
        self.path = path
        self.reader = open_random_access(path)
        self.fmt_hint = None
        self.compression = "raw"
        if path.endswith(".versatiles"):
            hdr = self.reader.header
            self.fmt_hint = hdr["tile_format"]
            self.compression = hdr["compression"]
        elif path.endswith(".pmtiles"):
            from .sources import pmtiles as _pm

            hdr = self.reader.header_bytes
            # pmtiles v3 spec: byte 98 = tile_compression (2=gzip,
            # 3=brotli), byte 99 = tile_type
            self.fmt_hint = {1: "pbf", 2: "png", 3: "jpg", 4: "webp", 5: "avif"}.get(hdr[99])
            if hdr[98] == _pm.COMPRESSION_GZIP:
                self.compression = "gzip"
            elif hdr[98] == 3:
                self.compression = "br"
            elif hdr[98] == 4:
                from .core.native import HAVE_ZSTD

                if not HAVE_ZSTD:
                    raise NotImplementedError(
                        "pmtiles tile_compression zstd needs libzstd "
                        "(not present on this host)")
                self.compression = "zstd"
            elif hdr[98] not in (0, 1):
                # unknown: serving mislabeled raw bytes would hand
                # every client undecodable payloads — fail the MOUNT,
                # visibly
                raise NotImplementedError(
                    f"pmtiles tile_compression {hdr[98]} not supported "
                    "(none, gzip, brotli, zstd)")
        elif path.endswith(".mbtiles"):
            # metadata table: format row -> fmt_hint (tiles are then
            # never decompressed just to sniff a MIME), name/bounds/
            # zooms -> tilejson (mbtiles/reader.rs reads the same rows)
            meta = self._mbtiles_meta()
            fmt = meta.pop("format", None)
            if fmt:
                # compression stays per-tile verified-sniff: the spec
                # says MVT *may* be gzipped, so declaring it here could
                # mislabel raw-stored tiles
                self.fmt_hint = {"mvt": "pbf"}.get(fmt, fmt)
            self._mb_meta = meta
        # metadata read once (remote containers: avoid per-request
        # range reads on every tiles.json hit)
        self._meta = self._container_meta()

    def tilejson(self, base_url: str) -> dict:
        doc = {
            "tilejson": "3.0.0",
            "tiles": [f"{base_url}/tiles/{self.id}/{{z}}/{{x}}/{{y}}"],
        }
        meta = self._meta
        if meta:
            for k in ("name", "attribution", "vector_layers", "minzoom", "maxzoom", "bounds"):
                if k in meta:
                    doc[k] = meta[k]
        return doc

    def _mbtiles_meta(self) -> dict:
        import sqlite3

        try:
            conn = sqlite3.connect(self.path)
            rows = dict(conn.execute("SELECT name, value FROM metadata").fetchall())
            conn.close()
        except Exception:
            return {}
        meta = {k: rows[k] for k in ("name", "attribution", "format")
                if k in rows}
        for k in ("minzoom", "maxzoom"):
            if k in rows:
                try:
                    meta[k] = int(rows[k])
                except ValueError:
                    pass
        if "bounds" in rows:
            try:
                meta["bounds"] = [float(v) for v in rows["bounds"].split(",")]
            except ValueError:
                pass
        if "json" in rows:
            try:
                j = json.loads(rows["json"])
                if "vector_layers" in j:
                    meta["vector_layers"] = j["vector_layers"]
            except Exception:
                pass
        return meta

    def _container_meta(self) -> dict | None:
        try:
            if self.path.endswith(".mbtiles"):
                return self._mb_meta or None
            if self.path.endswith(".pmtiles"):
                from .sources.pmtiles import read_pmtiles_metadata

                return read_pmtiles_metadata(self.path)
            if self.path.endswith(".versatiles"):
                from .sources.versatiles import read_versatiles_metadata

                blob = read_versatiles_metadata(self.path)
                return json.loads(blob) if blob else None
        except Exception:
            return None
        return None

    def get_tile(self, z: int, x: int, y: int):
        return self.reader.get_tile(z, x, y)


def _guess_mime(name: str) -> str:
    import mimetypes

    mime, _ = mimetypes.guess_type(name)
    return mime or "application/octet-stream"


def _decode_variant(blob: bytes, enc: str) -> bytes:
    if enc == "gzip":
        return gzip.decompress(blob)
    if enc == "zstd":
        from .core.native import zstd_decompress

        return zstd_decompress(blob)
    from .core import brotli_stored

    return brotli_stored.decompress(blob)


class StaticFolder:
    """Static file mount (static_source_folder.rs): a directory path
    resolves to its index.html; `file.gz` / `file.br` siblings serve
    as precompressed variants when the plain file is absent."""

    def __init__(self, root: str, url_prefix: str = "/"):
        import os

        self.root = os.path.realpath(root)
        self.url_prefix = "/" + url_prefix.strip("/")

    def get_data(self, rel: str, accept: set):
        import os

        local = os.path.realpath(os.path.join(self.root, rel.lstrip("/")))
        if not (local == self.root or local.startswith(self.root + os.sep)):
            return None  # path escape attempt
        if os.path.isdir(local):
            local = os.path.join(local, "index.html")
        candidates = [(local, None), (local + ".br", "br"), (local + ".gz", "gzip")]
        for path, enc in candidates:
            if os.path.isfile(path):
                with open(path, "rb") as f:
                    blob = f.read()
                mime = _guess_mime(local)
                if enc is None:
                    return blob, None, mime
                if enc in accept:
                    return blob, enc, mime
                return _decode_variant(blob, enc), None, mime
        return None


class StaticTar:
    """Static tar mount (static_source_tar.rs): all entries preloaded;
    `x.gz` / `x.br` entries register as compressed variants of `x`;
    an `index.html` entry also answers for its directory; responses
    prefer br, then gzip, when the client accepts them."""

    def __init__(self, tar_path: str, url_prefix: str = "/"):
        import io
        import tarfile

        self.url_prefix = "/" + url_prefix.strip("/")
        self._files = {}  # rel -> (variants {None|'gzip'|'br': bytes}, mime)
        # peel OUTER compression suffixes exactly like the reference
        # (static_source_tar.rs:56-58: "tar" break, "gz"/"br" decompress)
        with open(tar_path, "rb") as f:
            buffer = f.read()
        name = tar_path.lower()
        while True:
            stem, _, ext = name.rpartition(".")
            if ext == "gz" and not tarfile.is_tarfile(io.BytesIO(buffer)):
                import gzip

                buffer = gzip.decompress(buffer)
            elif ext == "br":
                from .core.compression import _decompress_one

                buffer = _decompress_one(buffer, "br")
            else:
                break
            name = stem
        with tarfile.open(fileobj=io.BytesIO(buffer)) as tf:
            for m in tf.getmembers():
                if not m.isfile():
                    continue
                name = m.name.removeprefix("./")
                enc = None
                if name.endswith(".gz"):
                    name, enc = name[:-3], "gzip"
                elif name.endswith(".br"):
                    name, enc = name[:-3], "br"
                blob = tf.extractfile(m).read()
                variants, _ = self._files.setdefault(name, ({}, _guess_mime(name)))
                variants[enc] = blob
                if name.rsplit("/", 1)[-1] == "index.html":
                    dirname = name[: -len("index.html")].rstrip("/")
                    self._files.setdefault(dirname, self._files[name])

    def get_data(self, rel: str, accept: set):
        entry = self._files.get(rel.strip("/"))
        if entry is None:
            return None
        variants, mime = entry
        for enc in ("br", "gzip"):
            if enc in variants and enc in accept:
                return variants[enc], enc, mime
        if None in variants:
            return variants[None], None, mime
        for enc in ("br", "gzip"):  # stored compressed, client wants identity
            if enc in variants:
                return _decode_variant(variants[enc], enc), None, mime
        return None


def _origin_allowed(origin: str, patterns) -> bool:
    """cors.rs:29: allowed_origins are exact strings or glob patterns."""
    from fnmatch import fnmatch

    return any(origin == p or fnmatch(origin, p) for p in patterns)


def _make_handler(sources: dict, base_url_holder: list, statics: list = (),
                  extra_headers=None, cors=None, disable_api=False,
                  minimal_recompression=False):
    """cors: None = permissive `*` (the no-config default), else a dict
    {"allowed_origins": [...], "max_age_seconds": int|None} mirroring
    CorsConfig (config/cors.rs:36-55). disable_api suppresses the JSON
    API endpoints (index/tilejson — server.rs:58); when
    minimal_recompression is False the server recompresses identity
    tile payloads to gzip for clients that accept it (server.rs:52:
    the reference recompresses to the best accepted encoding unless
    told to do minimal work)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _cors_origin(self):
            if cors is None:
                return "*"
            origin = self.headers.get("Origin")
            if origin and _origin_allowed(origin, cors.get("allowed_origins", ())):
                return origin
            return None

        def _send(self, status: int, body: bytes, mime: str, extra=None):
            self.send_response(status)
            headers = {"Content-Type": mime, "Content-Length": str(len(body))}
            allow = self._cors_origin()
            if allow is not None:
                headers["Access-Control-Allow-Origin"] = allow
            headers.update(extra or {})
            # config/main.rs:94: extra headers are added to EVERY
            # response and override existing ones
            headers.update(extra_headers or {})
            for k, v in headers.items():
                self.send_header(k, str(v))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)

        def do_HEAD(self):  # noqa: N802 — headers-only GET (the axum
            # router in the reference answers HEAD implicitly)
            self.do_GET()

        def do_OPTIONS(self):  # noqa: N802 (preflight, cors.rs)
            allow = self._cors_origin()
            self.send_response(204 if allow else 403)
            if allow:
                self.send_header("Access-Control-Allow-Origin", allow)
                self.send_header("Access-Control-Allow-Methods", "GET, HEAD, OPTIONS")
                if cors and cors.get("max_age_seconds"):
                    self.send_header("Access-Control-Max-Age",
                                     str(cors["max_age_seconds"]))
            # extra headers go on EVERY response, preflight included
            for k, v in (extra_headers or {}).items():
                self.send_header(k, str(v))
            self.send_header("Content-Length", "0")
            self.end_headers()

        def do_GET(self):  # noqa: N802 (http.server API)
            # one guard for the whole handler: a decode/sniff/read error
            # must answer 500, not drop the connection mid-request
            try:
                self._do_get()
            except Exception as exc:  # noqa: BLE001 (the HTTP boundary)
                try:
                    self._send(500, f"internal error: {type(exc).__name__}"
                               .encode(), "text/plain")
                except Exception:
                    pass  # headers already sent: nothing left to salvage

        def _do_get(self):
            from urllib.parse import unquote

            # percent-decode BEFORE routing (axum does; '%20' in a
            # static filename or source id must match the real name)
            path = unquote(self.path.split("?", 1)[0]).rstrip("/") or "/"
            if path == "/status":
                return self._send(200, b"ready!", "text/plain")
            if path == "/tiles/index.json":
                if disable_api:
                    return self._send(404, b"api disabled", "text/plain")
                body = json.dumps(sorted(sources)).encode()
                return self._send(200, body, "application/json")
            parts = [p for p in path.split("/") if p]
            if len(parts) >= 2 and parts[0] == "tiles" and parts[1] in sources:
                src = sources[parts[1]]
                rest = parts[2:]
                if rest in (["tiles.json"], ["meta.json"]):
                    if disable_api:
                        return self._send(404, b"api disabled", "text/plain")
                    # advertise the HOST THE CLIENT USED, not the bind
                    # address (0.0.0.0 in config defaults would make
                    # every tile URL unreachable); behind a
                    # TLS-terminating proxy honor X-Forwarded-Proto /
                    # X-Forwarded-Host so the scheme survives (the
                    # reference sidesteps with a relative prefix,
                    # tile_source.rs:100)
                    # chained proxies append to X-Forwarded-* (like
                    # X-Forwarded-For), so take the FIRST element of
                    # the comma list — the client-facing edge
                    req_host = (self.headers.get("X-Forwarded-Host")
                                or self.headers.get("Host"))
                    if req_host:
                        req_host = req_host.split(",")[0].strip()
                    scheme = self.headers.get(
                        "X-Forwarded-Proto", "http").split(",")[0].strip()
                    if scheme not in ("http", "https"):
                        scheme = "http"
                    base = (f"{scheme}://{req_host}" if req_host
                            else base_url_holder[0])
                    body = json.dumps(src.tilejson(base)).encode()
                    return self._send(200, body, "application/json")
                if len(rest) == 3:
                    accept = _accept_encodings(self.headers)
                    try:
                        z, x = int(rest[0]), int(rest[1])
                        y = int(rest[2].split(".", 1)[0])
                    except ValueError:
                        return self._send(400, b"bad tile coords", "text/plain")
                    if not 0 <= z <= 31:  # guards reader shift math
                        return self._send(400, b"bad zoom level", "text/plain")
                    if not (0 <= x < (1 << z) and 0 <= y < (1 << z)):
                        return self._send(404, b"tile not found", "text/plain")
                    payload = src.get_tile(z, x, y)
                    if payload is None:
                        return self._send(404, b"tile not found", "text/plain")
                    if isinstance(payload, dict):  # PyramidRandomAccess row
                        payload = json.dumps(
                            {k: v for k, v in payload.items() if not isinstance(v, bytes)}
                        ).encode()
                        return self._send(200, payload, "application/json")
                    extra = {}
                    # stored tile encoding: from the container header,
                    # else a VERIFIED gzip sniff (raw containers may
                    # hold pre-gzipped payloads; a binary tile that
                    # merely starts 0x1f8b must stay raw, not be
                    # mislabeled Content-Encoding: gzip)
                    decoded = None
                    enc = (src.compression
                           if src.compression in ("gzip", "br", "zstd")
                           else None)
                    if enc is None and payload[:2] == b"\x1f\x8b":
                        try:
                            decoded = gzip.decompress(payload)
                            enc = "gzip"
                        except Exception:
                            decoded = None  # magic collision: raw
                    if enc is not None:
                        if enc in accept:
                            extra["Content-Encoding"] = enc
                        else:  # identity is always acceptable
                            payload = (decoded if decoded is not None
                                       else _decode_variant(payload, enc))
                            enc = None
                            decoded = None
                    # mime: fmt_hint through the GUARDED helper (svg/
                    # topojson have no entry). Cache per source ONLY
                    # when fmt_hint declares a uniform format; hintless
                    # sources (e.g. a mixed in-memory one) sniff each
                    # tile's magic bytes — a per-source cache would pin
                    # the first format seen onto every later tile
                    if src.fmt_hint is not None and src.fmt_hint in FORMAT_MIME:
                        mime = FORMAT_MIME[src.fmt_hint]
                    else:
                        if enc and decoded is None:
                            decoded = _decode_variant(payload, enc)
                        mime = _sniff_mime(decoded if enc else payload, None)
                    if (enc is None and not minimal_recompression
                            and "gzip" in accept):
                        # best-accepted-encoding recompression
                        # (server.rs:52 semantics; sniff BEFORE encoding)
                        payload = gzip.compress(payload, 6, mtime=0)
                        extra["Content-Encoding"] = "gzip"
                    return self._send(200, payload, mime, extra)
            accept = _accept_encodings(self.headers)
            raw_path = unquote(self.path.split("?", 1)[0])
            for st in statics:
                pfx = st.url_prefix
                if raw_path == pfx or raw_path.startswith(pfx.rstrip("/") + "/"):
                    rel = raw_path[len(pfx.rstrip("/")):]
                    hit = st.get_data(rel, accept)
                    if hit is not None:
                        blob, enc, mime = hit
                        extra = {"Content-Encoding": enc} if enc else {}
                        return self._send(200, blob, mime, extra)
            return self._send(404, b"not found", "text/plain")

    return Handler


class TileServer:
    """Mount containers, serve them; `start()` binds and returns
    (background thread), `shutdown()` stops. Test-friendly analogue of
    tile_server.rs TileServer::start."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 extra_response_headers=None, cors=None,
                 disable_api: bool = False,
                 minimal_recompression: bool = True):
        # minimal_recompression defaults True here (serve stored bytes
        # as-is); the YAML config path applies the reference's default
        # (False = recompress to best accepted encoding, server.rs:52)
        self.host, self.port = host, port
        self.sources: dict[str, TileSource] = {}
        self.static_sources: list = []
        self.extra_response_headers = dict(extra_response_headers or {})
        self.cors = cors
        self.disable_api = disable_api
        self.minimal_recompression = minimal_recompression
        self._httpd = None
        self._thread = None
        self._base_url_holder = [""]
        # scratch dirs owned by this server (e.g. VPL mounts converted
        # to pmtiles at mount time) — removed on shutdown()
        self._temp_dirs: list[str] = []

    def add_tile_source(self, source_id: str, path: str):
        self.sources[source_id] = TileSource(source_id, path)

    def add_static_source(self, path: str, url_prefix: str = "/"):
        """Mount a folder or tar at url_prefix (tile_server.rs
        add_static_source; dispatch by path type)."""
        import os

        cls = StaticTar if os.path.isfile(path) else StaticFolder
        self.static_sources.append(cls(path, url_prefix))

    def start(self):
        handler = _make_handler(self.sources, self._base_url_holder,
                                self.static_sources,
                                extra_headers=self.extra_response_headers,
                                cors=self.cors,
                                disable_api=self.disable_api,
                                minimal_recompression=self.minimal_recompression)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self.port = self._httpd.server_address[1]
        self._base_url_holder[0] = f"http://{self.host}:{self.port}"
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self._base_url_holder[0]

    def shutdown(self):
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join(timeout=5)
            self._httpd = None
        import shutil

        while self._temp_dirs:
            shutil.rmtree(self._temp_dirs.pop(), ignore_errors=True)
