"""Multimodal span handling: media extraction + decode plumbing.

Media payloads are opaque `binary` columns with typed metadata
(kind, media_ref). `MediaBytesDecoder` is the decode stage: REAL
image decode over inline bytes via the engine's own codecs (PNG/JPEG
pure-stdlib, WEBP ctypes libwebp; cf. the reference surface
versatiles_image/src/format/all.rs:32-54); audio/video bytes pass
through opaque (no codecs in sandbox). Inputs whose media_ref points
at an external store need an object-store fetch in front of it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MEDIA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int64()),
        ("kind", pa.string()),
        ("media_ref", pa.string()),
        ("payload", pa.binary()),
        ("width", pa.int64()),
        ("height", pa.int64()),
        ("n_bytes", pa.int64()),
    ]
)


def explode_spans_batch(batch: pa.Table) -> pa.Table:
    """Docs -> one row per span (doc_id, span_idx, kind, text, media_ref, offset)."""
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    lengths = np.asarray(pc.list_value_length(spans), dtype=np.int64)
    row_index = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
    starts = np.zeros(len(batch), dtype=np.int64)
    starts[1:] = np.cumsum(lengths)[:-1]
    span_idx = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)
    flat = spans.flatten()
    doc_id = batch["doc_id"].take(pa.array(row_index))
    return pa.table(
        {
            "doc_id": doc_id,
            "span_idx": pa.array(span_idx, type=pa.int64()),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset").cast(pa.int64()),
        }
    )


def explode_spans(docs_ds):
    return docs_ds.map_batches(explode_spans_batch, batch_format="pyarrow")


def media_spans(docs_ds):
    """Only non-text spans (the media stream)."""
    exploded = explode_spans(docs_ds)
    return exploded.map_batches(
        lambda t: t.filter(pc.not_equal(t["kind"], pa.scalar("text"))),
        batch_format="pyarrow",
    )


class MediaBytesDecoder:
    """Actor-pool decode stage over INLINE media bytes — REAL decode.

    The prompt-level contract: image payloads arrive as opaque binary
    columns; this stage sniffs PNG/JPEG/WEBP/TIFF/GIF/BMP magic and
    decodes through the engine's real codecs (core/png + core/jpeg
    with the compiled imgshim fast path — progressive JPEG included —
    core/native libwebp, sources/geotiff stdlib TIFF, core/gif,
    core/bmp) to rgba-raw + dimensions. Rows whose bytes don't match
    a known magic, or whose payload is corrupt/truncated, pass
    through with width=height=0 and the original payload (audio/video
    stay opaque until their codecs are bound).
    """

    def __init__(self):
        from ..core import raster as _raster
        from ..core.formats import sniff_format as _sniff

        self._raster = _raster
        self._sniff = _sniff

    def _decode_tiff(self, blob: bytes):
        """Plain TIFF as a media payload (satellite chips, scans):
        reuse the GeoTIFF parser, fold to the engine's 8-bit RGBA
        interchange (16-bit by high byte, grey/RGB expanded)."""
        import numpy as np

        from ..sources.geotiff import read_geotiff

        arr = read_geotiff(blob).array
        if arr.dtype != np.uint8:  # uint16/int16 -> high byte
            arr = (arr.astype(np.int32) >> 8).astype(np.uint8)
        h, w, c = arr.shape
        out = np.empty((h, w, 4), np.uint8)
        out[..., 3] = 255
        if c == 1:
            out[..., :3] = arr
        elif c == 3:
            out[..., :3] = arr
        else:
            out[:] = arr[..., :4]
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        payload_col = batch["payload"]
        if isinstance(payload_col, pa.ChunkedArray):
            payload_col = payload_col.combine_chunks()
        payloads, widths, heights = [], [], []
        for blob in payload_col.to_pylist():
            fmt = self._sniff(blob)
            if fmt == "tiff":
                try:
                    arr = self._decode_tiff(blob)
                except Exception:  # noqa: BLE001 — corrupt/truncated
                    # payloads raise anything (KeyError/struct.error/
                    # zlib.error...); one bad file in a media lake must
                    # degrade to the opaque passthrough, not kill the
                    # actor
                    payloads.append(blob)
                    widths.append(0)
                    heights.append(0)
                    continue
                payloads.append(self._raster.from_array(arr))
                widths.append(arr.shape[1])
                heights.append(arr.shape[0])
                continue
            if fmt not in ("png", "jpg", "webp", "gif", "bmp"):
                payloads.append(blob)
                widths.append(0)
                heights.append(0)
                continue
            try:
                arr = self._raster.decode(blob, fmt)
            except Exception:  # noqa: BLE001 — same contract as the
                # TIFF branch: one corrupt/truncated file in a media
                # lake degrades to the opaque passthrough, not an
                # actor death
                payloads.append(blob)
                widths.append(0)
                heights.append(0)
                continue
            payloads.append(self._raster.from_array(arr))
            widths.append(arr.shape[1])
            heights.append(arr.shape[0])
        names = [n for n in ("doc_id", "span_idx", "kind", "media_ref")
                 if n in batch.column_names]
        cols = {n: batch[n] for n in names}
        cols["payload"] = pa.array(payloads, type=pa.binary())
        cols["width"] = pa.array(widths, type=pa.int64())
        cols["height"] = pa.array(heights, type=pa.int64())
        cols["n_bytes"] = pa.array([len(p) for p in payloads], type=pa.int64())
        return pa.table(cols)


class SyntheticMediaFetcher:
    """Actor-pool fetch stage: materialize each media_ref as REAL
    encoded bytes — from-scratch PNG for even ref hashes, baseline
    JPEG for odd — of a small deterministic RGBA gradient seeded by
    the ref (the sandbox stand-in for an object-store GET; swap
    ``_fetch`` for the store client at deploy; the reference pools its
    I/O handles the same way, raster_source.rs:36-112). Audio spans
    are REAL PCM WAVs (core/wav.py) and video spans REAL animated
    GIF / MJPEG-AVI containers (core/gif.py, core/avi.py) — every
    modality is decoded for real downstream; any other kind stays
    opaque bytes that MediaBytesDecoder passes through with
    width=height=0 (honest gate, not a fake decode)."""

    def __init__(self, max_side: int = 24):
        from ..core.jpeg import encode_jpeg
        from ..core.png import encode_png

        self._encode_png = encode_png
        self._encode_jpeg = encode_jpeg
        self.max_side = max_side

    def _fetch(self, media_ref: str, kind: str) -> bytes:
        seed = hash_stable(media_ref)
        if kind == "audio":
            # REAL 16-bit PCM WAV: a seed-derived sine burst at 8 kHz
            # (deterministic; AudioFeatures decodes it for real)
            from ..core.wav import encode_wav

            n = 400 + seed % 800
            freq = 200.0 + (seed >> 8) % 1800
            t = np.arange(n, dtype=np.float64) / 8000.0
            return encode_wav(0.5 * np.sin(2 * np.pi * freq * t), 8000)
        if kind == "video":
            # REAL container: seed-derived animated GIF for even
            # seeds, MJPEG-in-AVI / MJPEG-in-MOV alternating for odd
            # — all decodable end-to-end by VideoFrames (core/gif.py,
            # core/avi.py, core/mov.py)
            from ..core.avi import encode_avi
            from ..core.gif import encode_gif
            from ..core.mov import encode_mov

            n_frames = 3 + seed % 4
            w = 8 + (seed >> 4) % 9
            h = 8 + (seed >> 8) % 9
            yy, xx = np.mgrid[0:h, 0:w]
            vframes = []
            for k in range(n_frames):
                fr = np.empty((h, w, 4), np.uint8)
                if seed % 2 == 0:
                    # GIF variant: low-color (palette-bounded) — flat
                    # per-frame background + a moving bar
                    fr[..., 0] = (37 * k + seed) % 256
                    fr[..., 1] = 0
                    fr[:, (k * w) // n_frames, 1] = 255
                    fr[..., 2] = (seed >> 3) % 256
                else:
                    # MJPEG variant: smooth gradients (JPEG-friendly)
                    fr[..., 0] = ((xx * 255) // max(w - 1, 1)
                                  + 37 * k) % 256
                    fr[..., 1] = ((yy * 255) // max(h - 1, 1)
                                  ).astype(np.uint8)
                    fr[..., 2] = (seed + 11 * k) % 256
                fr[..., 3] = 255
                vframes.append(fr)
            if seed % 2 == 0:
                return encode_gif(
                    vframes, delays_cs=[4 + seed % 6] * n_frames)
            if seed % 4 == 1:
                return encode_mov(vframes, fps=10.0 + seed % 20)
            return encode_avi(vframes, fps=10.0 + seed % 20, codec="mjpeg")
        if kind != "image":
            rng = np.random.default_rng(seed % (1 << 31))
            return rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        w = 8 + seed % self.max_side
        h = 8 + (seed >> 8) % self.max_side
        yy, xx = np.mgrid[0:h, 0:w]
        r = ((xx * 255) // max(w - 1, 1)).astype(np.uint8)
        g = ((yy * 255) // max(h - 1, 1)).astype(np.uint8)
        b = np.full((h, w), seed % 256, np.uint8)
        if seed % 2 == 0:
            a = np.full((h, w), 255, np.uint8)
            return self._encode_png(np.stack([r, g, b, a], axis=2))
        # baseline JPEG carries no alpha channel: encode RGB
        return self._encode_jpeg(np.stack([r, g, b], axis=2))

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = [
            self._fetch(r, k)
            for r, k in zip(batch["media_ref"].to_pylist(), batch["kind"].to_pylist())
        ]
        return batch.append_column("payload", pa.array(payloads, type=pa.binary()))


# the synthesizer is stateless, so the pipelines run it as a plain TASK
# map_batches (no actor reservation): every added actor pool in a chain
# raises the executor's minimum CPU footprint, and a 4-pool chain
# starves a 4-cpu cluster outright (observed deadlock; NOTES.md
# chained-pool class). A real object-store fetcher WOULD be an actor
# pool holding its client — swap this fn for the class above then.
_FETCHER: list = []


def synthesize_media_batch(batch: pa.Table) -> pa.Table:
    if not _FETCHER:
        _FETCHER.append(SyntheticMediaFetcher())
    return _FETCHER[0](batch)


class RgbaResizer:
    """Actor-pool resize — REAL nearest-neighbor over the rgba-raw
    payloads MediaBytesDecoder emits. Non-image rows (width=0: opaque
    audio bytes) keep the FakeImageResizer linspace subsample so the
    frame sampler still sees deterministic bytes."""

    def __init__(self, target_w: int = 8, target_h: int = 8):
        self.target_w = target_w
        self.target_h = target_h

    def _resize(self, payload: bytes, w: int, h: int) -> bytes:
        tw, th = self.target_w, self.target_h
        if w > 0 and h > 0 and len(payload) == w * h * 4:
            arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 4)
            ri = (np.arange(th) * h) // th
            ci = (np.arange(tw) * w) // tw
            return arr[ri][:, ci].tobytes()
        src = np.frombuffer(payload, dtype=np.uint8)
        n = tw * th
        if len(src) == 0:
            return b"\x00" * n
        idx = np.linspace(0, len(src) - 1, n).astype(np.int64)
        return src[idx].tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = [
            self._resize(p, int(w), int(h))
            for p, w, h in zip(batch["payload"].to_pylist(),
                               batch["width"].to_pylist(),
                               batch["height"].to_pylist())
        ]
        batch = batch.drop_columns(["payload", "width", "height"])
        batch = batch.append_column("payload", pa.array(out, type=pa.binary()))
        batch = batch.append_column(
            "width", pa.array(np.full(len(out), self.target_w), type=pa.int64())
        )
        return batch.append_column(
            "height", pa.array(np.full(len(out), self.target_h), type=pa.int64())
        )


def _elastic(concurrency):
    """Coerce an int to an elastic (1, n) actor-pool spec; pass tuples
    through. Fixed-size pools deadlock the streaming executor when the
    reservation exceeds free cpus (NOTES.md chained-pool deadlock)."""
    if isinstance(concurrency, int):
        return (1, concurrency)
    return concurrency


def decode_media_bytes(media_ds, concurrency=4, batch_size=256):
    """Real-codec decode pipeline over inline binary media columns:
    small batches (decoded RGBA is wide), elastic (1, n) pool like the
    rest of the multimodal chain."""
    return media_ds.map_batches(
        MediaBytesDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=_elastic(concurrency),
    )


def hash_stable(s: str) -> int:
    """Process-stable string hash (PYTHONHASHSEED-independent FNV-1a)."""
    h = 14695981039346656037
    for ch in s.encode():
        h = ((h ^ ch) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFFFFFFFFFF


def decode_media(docs_ds, concurrency=(1, 4), batch_size=1024):
    """The multimodal decode pipeline: explode -> filter media ->
    synthesize REAL encoded bytes (fetch stand-in) -> REAL codec
    decode (MediaBytesDecoder: from-scratch PNG/JPEG, ctypes WEBP).

    Small batch_size because decoded payloads are wide (binary) rows —
    the batch x concurrency product must fit worker heaps (SURVEY.md
    §7.4 hard part 4). An int concurrency is coerced to an elastic
    (1, n) pool: a FIXED pool can wait forever for its full CPU
    reservation while a previous dataset's actors are still tearing
    down (observed full-suite hang on a 4-cpu cluster; same class as
    the chained fixed-pool deadlock in NOTES.md).
    """
    pool = _elastic(concurrency)
    fetched = media_spans(docs_ds).map_batches(
        synthesize_media_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return decode_media_bytes(fetched, concurrency=pool, batch_size=batch_size)


class FakeImageResizer:
    """Actor-pool resize stage (STUB pixels, REAL plumbing).

    Input rows carry (payload:binary, width, height); output swaps the
    payload for a (target_w x target_h)-byte 'resized' buffer sampled
    deterministically from the source payload (linspace subsample — a
    real nearest-neighbor downsample over the fake 1-byte-per-pixel
    payload). Swap `_resize` for Pillow's Image.resize at deploy; the
    schema, actor signature and batch sizing are the production ones.
    """

    def __init__(self, target_w: int = 8, target_h: int = 8):
        self.target_w = target_w
        self.target_h = target_h

    def _resize(self, payload: bytes) -> bytes:
        n = self.target_w * self.target_h
        src = np.frombuffer(payload, dtype=np.uint8)
        if len(src) == 0:
            return b"\x00" * n
        idx = np.linspace(0, len(src) - 1, n).astype(np.int64)
        return src[idx].tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = [self._resize(p) for p in batch["payload"].to_pylist()]
        batch = batch.drop_columns(["payload", "width", "height"])
        batch = batch.append_column("payload", pa.array(out, type=pa.binary()))
        batch = batch.append_column(
            "width", pa.array(np.full(len(out), self.target_w), type=pa.int64())
        )
        return batch.append_column(
            "height", pa.array(np.full(len(out), self.target_h), type=pa.int64())
        )


class ByteHistogramFeatures:
    """Actor-pool feature extraction — REAL computation (no stub): a
    normalized byte histogram + mean/std moments per payload. Works on
    any binary column; at deploy swap for a model forward pass (the
    batched-inference shape is identical: stateful __init__, batch in,
    list<float32> feature column out).
    """

    def __init__(self, bins: int = 32):
        self.bins = bins
        self.edges = np.linspace(0, 256, bins + 1)

    def _features(self, payload: bytes) -> np.ndarray:
        b = np.frombuffer(payload, dtype=np.uint8)
        if len(b) == 0:
            return np.zeros(self.bins + 2, dtype=np.float32)
        hist, _ = np.histogram(b, bins=self.edges)
        f = hist / len(b)
        return np.concatenate([f, [b.mean() / 255.0, b.std() / 255.0]]).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self._features(p) for p in batch["payload"].to_pylist()]
        flat = np.concatenate(feats) if feats else np.array([], dtype=np.float32)
        offsets = np.arange(len(feats) + 1, dtype=np.int32) * (self.bins + 2)
        col = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), pa.array(flat, type=pa.float32())
        )
        return batch.drop_columns(["payload"]).append_column("feature", col)


class FrameSampler:
    """Actor-pool frame sampling (STUB frames, REAL flat-map plumbing):
    slice each video/audio payload into fixed-size 'frames', keep every
    ``every_n``-th up to ``max_frames`` — one OUTPUT ROW PER FRAME
    (the 1->N layout a real pyav frame sampler produces). Image spans
    pass through as a single frame.
    """

    def __init__(self, frame_bytes: int = 16, every_n: int = 2, max_frames: int = 4):
        self.frame_bytes = frame_bytes
        self.every_n = every_n
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        kinds = batch["kind"].to_pylist()
        row_idx, frame_idx, frames = [], [], []
        for i, (p, kind) in enumerate(zip(payloads, kinds)):
            if kind == "image":
                row_idx.append(i)
                frame_idx.append(0)
                frames.append(p)
                continue
            n_frames = max(len(p) // self.frame_bytes, 1)
            taken = 0
            for f in range(0, n_frames, self.every_n):
                if taken >= self.max_frames:
                    break
                row_idx.append(i)
                frame_idx.append(f)
                frames.append(p[f * self.frame_bytes : (f + 1) * self.frame_bytes])
                taken += 1
        base = batch.drop_columns(["payload"]).take(pa.array(row_idx, type=pa.int64()))
        base = base.append_column("frame_idx", pa.array(frame_idx, type=pa.int64()))
        return base.append_column("frame", pa.array(frames, type=pa.binary()))


def media_pipeline(docs_ds, concurrency=4, batch_size=1024):
    """Full multimodal chain: explode -> decode pool -> resize pool ->
    frame-sample -> byte-histogram features per frame. Every stage is
    an actor-pool map_batches over the (decoded) media stream; batch
    sizes stay small because rows are wide binaries (SURVEY.md §7.4
    hard part 4)."""
    # elastic (1, n) pools: three chained actor stages must not
    # RESERVE more cpus than the cluster has (fixed-size pools
    # deadlock the streaming executor on small clusters)
    pool = _elastic(concurrency)
    decoded = decode_media(docs_ds, concurrency=pool, batch_size=batch_size)
    resized = decoded.map_batches(
        RgbaResizer, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool,
    )
    frames = resized.map_batches(
        FrameSampler, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool,
    )
    return frames.map_batches(
        _frame_features, batch_format="pyarrow", batch_size=batch_size,
    )


def _frame_features(batch: pa.Table) -> pa.Table:
    feats = ByteHistogramFeatures()
    tmp = batch.append_column("payload", batch["frame"]).drop_columns(["frame"])
    return feats(tmp)


class AudioFeatures:
    """Actor-pool audio feature extraction — REAL decode (core/wav.py
    PCM/IEEE-float parser), no stub: per payload emits sample_rate,
    channels, n_samples, duration_ms, rms and peak over normalized
    samples. Non-WAV payloads (mp3/aac stay opaque — no codecs in the
    sandbox) and corrupt files produce typed nulls, the same
    degrade-don't-die contract as MediaBytesDecoder."""

    def __init__(self):
        from ..core.formats import sniff_format
        from ..core.wav import decode_wav

        self._sniff = sniff_format
        self._decode = decode_wav

    def __call__(self, batch: pa.Table) -> pa.Table:
        rates, chans, counts, durs, rms, peak = [], [], [], [], [], []
        col = batch["payload"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        for blob in col.to_pylist():
            if self._sniff(blob) != "wav":
                rates.append(None); chans.append(None); counts.append(None)
                durs.append(None); rms.append(None); peak.append(None)
                continue
            try:
                samples, rate = self._decode(blob)
            except Exception:  # noqa: BLE001 — corrupt audio degrades
                rates.append(None); chans.append(None); counts.append(None)
                durs.append(None); rms.append(None); peak.append(None)
                continue
            n, c = samples.shape
            rates.append(rate)
            chans.append(c)
            counts.append(n)
            durs.append(1000.0 * n / rate if rate else None)
            mono = samples.mean(axis=1) if c > 1 else samples[:, 0]
            rms.append(float(np.sqrt(np.mean(mono * mono))) if n else 0.0)
            peak.append(float(np.abs(mono).max()) if n else 0.0)
        names = [n for n in ("doc_id", "span_idx", "kind", "media_ref")
                 if n in batch.column_names]
        cols = {n: batch[n] for n in names}
        cols["sample_rate"] = pa.array(rates, type=pa.int64())
        cols["channels"] = pa.array(chans, type=pa.int64())
        cols["n_samples"] = pa.array(counts, type=pa.int64())
        cols["duration_ms"] = pa.array(durs, type=pa.float64())
        cols["rms"] = pa.array(rms, type=pa.float64())
        cols["peak"] = pa.array(peak, type=pa.float64())
        return pa.table(cols)


class VideoFrames:
    """Actor-pool REAL video frame sampling — the 1->N stage a
    training-data pipeline runs over video corpora. Each payload is
    sniffed and demuxed by the engine's own container parsers:

    - animated GIF (core/gif.py): full composed-frame decode with
      disposal/transparency, timestamps from the per-frame delays;
    - AVI (core/avi.py): MJPEG (per-frame baseline JPEG, standard
      Annex K tables injected when the stream omits them — the MJPEG
      convention) or raw DIB frames, timestamps from the stream fps.
      Frame spans are LAZY: only the sampled frames are decoded.

    ``max_frames`` frames are sampled uniformly across the clip
    (first and last always included). Output is one row per sampled
    frame in the engine's rgba-raw interchange (payload + width +
    height), so RgbaResizer / ByteHistogramFeatures chain directly.
    Undecodable payloads degrade to a single typed-null row
    (frame_idx null, width=0) — the same degrade-don't-die contract
    as MediaBytesDecoder; a corrupt upload must not kill the actor.
    """

    def __init__(self, max_frames: int = 4):
        from ..core.avi import decode_avi_frame, parse_avi
        from ..core.formats import sniff_format
        from ..core.gif import decode_gif_frames
        from ..core.mov import decode_mov_frame, parse_mov

        self.max_frames = max_frames
        self._sniff = sniff_format
        self._parse_avi = parse_avi
        self._avi_frame = decode_avi_frame
        self._gif_frames = decode_gif_frames
        self._parse_mov = parse_mov
        self._mov_frame = decode_mov_frame

    def _sample(self, n: int) -> np.ndarray:
        k = min(self.max_frames, n)
        return np.unique(np.round(np.linspace(0, n - 1, k)).astype(np.int64))

    def _frames(self, payload: bytes):
        """payload -> list[(frame_idx, n_frames, ts_ms, rgba)]."""
        fmt = self._sniff(payload)
        if fmt == "gif":
            # composition is sequential: decode all (pixel-budget
            # bounded), then sample
            frames, delays = self._gif_frames(payload)
            starts_ms = 10.0 * np.concatenate(
                [[0], np.cumsum(delays[:-1])])
            return [(int(i), len(frames), float(starts_ms[i]), frames[i])
                    for i in self._sample(len(frames))]
        if fmt in ("avi", "bin") and payload[:4] == b"RIFF":
            info = self._parse_avi(payload)
            if not info.n_frames:
                raise ValueError("AVI carries no frames")
            return [
                (int(i), info.n_frames,
                 1000.0 * i / info.fps if info.fps else None,
                 self._avi_frame(payload, info, int(i)))
                for i in self._sample(info.n_frames)
            ]
        if fmt == "mov":
            info = self._parse_mov(payload)
            if not info.n_frames:
                raise ValueError("ISO-BMFF track carries no samples")
            return [
                (int(i), info.n_frames,
                 1000.0 * float(info.times[i]) / info.timescale
                 if info.timescale else None,
                 self._mov_frame(payload, info, int(i)))
                for i in self._sample(info.n_frames)
            ]
        raise ValueError(f"no video demuxer for format {fmt!r}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = [n for n in ("doc_id", "span_idx", "kind", "media_ref")
                if n in batch.column_names]
        row_idx, fidx, nfr, ts, pay, ws, hs = [], [], [], [], [], [], []
        col = batch["payload"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        for r, blob in enumerate(col.to_pylist()):
            try:
                rows = self._frames(blob)
            except Exception:  # noqa: BLE001 — corrupt video degrades
                row_idx.append(r)
                fidx.append(None); nfr.append(0); ts.append(None)
                pay.append(b""); ws.append(0); hs.append(0)
                continue
            for i, n, t, rgba in rows:
                row_idx.append(r)
                fidx.append(i); nfr.append(n); ts.append(t)
                pay.append(np.ascontiguousarray(rgba).tobytes())
                hs.append(rgba.shape[0]); ws.append(rgba.shape[1])
        base = batch.select(keep).take(pa.array(row_idx, type=pa.int64()))
        cols = {n: base[n] for n in keep}
        cols["frame_idx"] = pa.array(fidx, type=pa.int64())
        cols["n_frames"] = pa.array(nfr, type=pa.int64())
        cols["timestamp_ms"] = pa.array(ts, type=pa.float64())
        cols["payload"] = pa.array(pay, type=pa.binary())
        cols["width"] = pa.array(ws, type=pa.int64())
        cols["height"] = pa.array(hs, type=pa.int64())
        return pa.table(cols)


def video_pipeline(docs_ds, concurrency=4, batch_size=256,
                   max_frames: int = 4):
    """Video leg of the media chain: explode -> keep video spans ->
    fetch (real GIF/AVI containers) -> VideoFrames demux+decode pool
    (1->N rows) -> resize pool -> byte-histogram features per frame.
    Small batch sizes on purpose: rows carry whole containers
    (SURVEY.md §7.4 hard part 4)."""
    import pyarrow.compute as pc

    pool = _elastic(concurrency)
    spans = media_spans(docs_ds).map_batches(
        lambda t: t.filter(pc.equal(t["kind"], pa.scalar("video"))),
        batch_format="pyarrow",
    )
    fetched = spans.map_batches(
        synthesize_media_batch, batch_format="pyarrow",
        batch_size=batch_size,
    )
    frames = fetched.map_batches(
        VideoFrames, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool, fn_constructor_kwargs={"max_frames": max_frames},
    )
    resized = frames.map_batches(
        RgbaResizer, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool,
    )
    return resized.map_batches(
        _payload_features, batch_format="pyarrow",
        batch_size=batch_size,
    )


def _payload_features(batch: pa.Table) -> pa.Table:
    return ByteHistogramFeatures()(batch)


def audio_pipeline(docs_ds, concurrency=4, batch_size=1024):
    """Audio leg of the media chain: explode -> keep audio spans ->
    fetch (real PCM WAV) -> AudioFeatures actor pool."""
    import pyarrow.compute as pc

    pool = _elastic(concurrency)
    spans = media_spans(docs_ds).map_batches(
        lambda t: t.filter(pc.equal(t["kind"], pa.scalar("audio"))),
        batch_format="pyarrow",
    )
    fetched = spans.map_batches(
        synthesize_media_batch, batch_format="pyarrow",
        batch_size=batch_size,
    )
    return fetched.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool,
    )


# ---- perceptual image near-dup (dHash) ---------------------------------


def dhash64(arr) -> int:
    """64-bit difference hash of one RGBA array — the standard dHash:
    integer luma, exact 8x9 box downsample (block sum // area via a
    2-D cumsum, so the value is deterministic integer arithmetic on
    any worker), then one bit per horizontal gradient. Robust to
    re-encoding and small brightness shifts; pure integers end to
    end."""
    import numpy as np

    h, w = arr.shape[0], arr.shape[1]
    if h < 1 or w < 1:
        raise ValueError("dhash64: empty image")
    a = arr.astype(np.int64)
    luma = (299 * a[..., 0] + 587 * a[..., 1] + 114 * a[..., 2]) // 1000
    # integral image -> exact box sums for the 8x9 grid
    ii = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(luma, axis=0), axis=1, out=ii[1:, 1:])
    rs = (np.arange(9, dtype=np.int64) * h) // 8
    cs = (np.arange(10, dtype=np.int64) * w) // 9
    # degenerate tiny images: force non-empty boxes by spreading edges
    if h < 8:
        rs = np.minimum(np.arange(9, dtype=np.int64), h - 1)
        rs[-1] = h
    if w < 9:
        cs = np.minimum(np.arange(10, dtype=np.int64), w - 1)
        cs[-1] = w
    sums = (ii[rs[1:], :][:, cs[1:]] - ii[rs[:-1], :][:, cs[1:]]
            - ii[rs[1:], :][:, cs[:-1]] + ii[rs[:-1], :][:, cs[:-1]])
    area = ((rs[1:] - rs[:-1])[:, None] * (cs[1:] - cs[:-1])[None, :])
    area = np.maximum(area, 1)
    g = sums // area                       # (8, 9) block means
    bits = (g[:, :-1] > g[:, 1:]).ravel()  # (64,) row-major gradients
    return int((bits.astype(np.uint64)
                << np.arange(64, dtype=np.uint64)).sum())


class DHashSignatures:
    """Actor-pool stage: decoded image rows -> SimHash-shaped band
    rows (route, band_id, band_hash, doc_num, simhash) carrying the
    dHash, so the existing banded-Hamming pair exchanges
    (stages/dedup._bucket_pairs_block / _pair_first_block) run
    UNCHANGED on images. Rows that failed to decode (width == 0) emit
    nothing. ``id_col`` must be int64-castable and unique per image."""

    def __init__(self, id_col: str = "img_id"):
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..core import raster as _raster
        from .dedup import _pack_bucket_route

        empty = pa.array([], type=pa.int64())
        out_empty = pa.table({"route": empty, "band_id": empty,
                              "band_hash": empty, "doc_num": empty,
                              "simhash": empty})
        if batch.num_rows == 0:
            return out_empty
        ids = np.asarray(batch[self.id_col], dtype=np.int64)
        ws = np.asarray(batch["width"], dtype=np.int64)
        hs = np.asarray(batch["height"], dtype=np.int64)
        payloads = batch["payload"].to_pylist()
        keep_ids, hashes = [], []
        for i in range(len(ids)):
            if ws[i] < 1 or hs[i] < 1:
                continue
            arr = _raster.to_array(payloads[i], int(ws[i]), int(hs[i]))
            keep_ids.append(int(ids[i]))
            hashes.append(dhash64(arr))
        if not keep_ids:
            return out_empty
        sims = np.array(hashes, dtype=np.uint64)
        idv = np.array(keep_ids, dtype=np.int64)
        n = len(idv)
        band_id = np.tile(np.arange(4, dtype=np.int64), n)
        band_val = np.empty(4 * n, dtype=np.int64)
        for bd in range(4):
            band_val[bd::4] = ((sims >> np.uint64(16 * bd))
                               & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table({
            "route": pa.array(_pack_bucket_route(band_id, band_val),
                              type=pa.int64()),
            "band_id": pa.array(band_id),
            "band_hash": pa.array(band_val),
            "doc_num": pa.array(np.repeat(idv, 4), type=pa.int64()),
            "simhash": pa.array(np.repeat(sims.astype(np.int64), 4),
                                type=pa.int64()),
        })


def image_near_dup(decoded_ds, max_hamming: int = 6,
                   id_col: str = "img_id", num_partitions: int = 16,
                   concurrency=4):
    """Perceptual image near-duplicate pairs over a DECODED media
    stream (the output shape of decode_media_bytes / decode_media plus
    an int64 ``id_col``): dHash signatures in an actor pool, then the
    engine's banded 16-bit LSH exchange — a pair is emitted iff the
    two hashes share a band AND their Hamming distance is <=
    max_hamming, each pair exactly once. Catches re-encoded /
    brightness-shifted copies that byte-exact dedup cannot see; same
    scale posture as text SimHash (no all-pairs, no broadcast)."""
    import functools

    from .dedup import _bucket_pairs_block, _pair_first_block
    from .exchange import hash_exchange

    if not 0 <= max_hamming <= 64:
        raise ValueError(
            f"image_near_dup: max_hamming must be in 0..64, got {max_hamming}")
    rows = decoded_ds.map_batches(
        DHashSignatures, fn_constructor_kwargs={"id_col": id_col},
        batch_format="pyarrow", concurrency=_elastic(concurrency))
    pairs = hash_exchange(
        rows, "route",
        functools.partial(_bucket_pairs_block, max_hamming=max_hamming),
        num_partitions=num_partitions)
    return hash_exchange(pairs, "route", _pair_first_block,
                         num_partitions=max(2, num_partitions // 2))
