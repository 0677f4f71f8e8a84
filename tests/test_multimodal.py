"""Multimodal plumbing: span explosion, media filtering, and the
REAL-codec decode pool (PNG/JPEG payloads synthesized per media_ref;
audio stays opaque behind the honest no-audio-codec gate)."""

import numpy as np
import pyarrow as pa

from versatiles_rs_ray.sources import docs as D
from versatiles_rs_ray.stages import multimodal as M


def test_explode_spans_preserves_order(ray_session, sf_dir):
    got = M.explode_spans(D.read_docs(sf_dir)).to_pandas()
    # per doc: span_idx dense 0..n-1, offsets strictly increasing
    for doc_id, g in got.groupby("doc_id"):
        g = g.sort_values("span_idx")
        assert list(g["span_idx"]) == list(range(len(g)))
        offs = list(g["offset"])
        assert offs == sorted(offs)


def test_media_spans_only_nontext(ray_session, sf_dir):
    got = M.media_spans(D.read_docs(sf_dir)).to_pandas()
    assert set(got["kind"]) <= {"image", "audio", "video"}
    assert (got["media_ref"].str.startswith("media://")).all()


def test_decode_media_schema_and_determinism(ray_session, sf_dir):
    a = M.decode_media(D.read_docs(sf_dir), concurrency=2, batch_size=128).to_pandas()
    assert set(a.columns) == {
        "doc_id", "span_idx", "kind", "media_ref", "payload", "width", "height", "n_bytes"
    }
    img0 = a[a.kind == "image"]
    aud = a[a.kind == "audio"]
    # images: real decoded rgba-raw payloads (w*h*4); audio: a REAL
    # PCM WAV (decoded by audio_pipeline, not the image decoder — it
    # passes through here opaque with w=h=0)
    assert (img0["n_bytes"] == img0["width"] * img0["height"] * 4).all()
    assert (aud["width"] == 0).all()
    assert all(bytes(p)[:4] == b"RIFF" for p in aud["payload"])
    b = M.decode_media(D.read_docs(sf_dir), concurrency=2, batch_size=128).to_pandas()
    key = ["doc_id", "span_idx"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert (a["payload"] == b["payload"]).all()  # synth+decode is deterministic
    img = a[a.kind == "image"]
    assert (img["width"] > 0).all() and (img["height"] > 0).all()
    # codec-real: a PNG-routed ref (even hash) round-trips the synthetic
    # gradient EXACTLY (PNG is lossless)
    import numpy as np

    from versatiles_rs_ray.stages.multimodal import (
        SyntheticMediaFetcher, hash_stable)

    f = SyntheticMediaFetcher()
    png_rows = img[[hash_stable(r) % 2 == 0 for r in img["media_ref"]]]
    assert len(png_rows) > 0
    row = png_rows.iloc[0]
    from versatiles_rs_ray.core.png import decode_png_rgba

    want = decode_png_rgba(f._fetch(row["media_ref"], "image"))
    got = np.frombuffer(row["payload"], np.uint8).reshape(
        row["height"], row["width"], 4)
    assert np.array_equal(got, want)


def test_media_pipeline_stages(ray_session, sf_dir):
    from versatiles_rs_ray.sources import docs as D
    from versatiles_rs_ray.stages import multimodal as mm

    ds = D.read_docs(sf_dir)
    out = mm.media_pipeline(ds, concurrency=2, batch_size=256).to_pandas()
    assert len(out) > 0
    # every row is one frame of a non-text span with a feature vector
    assert set(["doc_id", "span_idx", "kind", "media_ref", "frame_idx", "feature"]) <= set(out.columns)
    assert (out["kind"] != "text").all()
    dims = out["feature"].map(len).unique()
    assert list(dims) == [34]  # 32 bins + mean + std
    # features are normalized histograms: bins sum to ~1
    import numpy as np

    f = np.stack(out["feature"].to_numpy())
    assert np.allclose(f[:, :32].sum(axis=1), 1.0, atol=1e-5)
    # images contribute exactly one frame; audio/video payloads several
    img = out[out["kind"] == "image"]
    assert (img["frame_idx"] == 0).all()
    audio = out[out["kind"] == "audio"]
    assert (audio.groupby(["doc_id", "span_idx"])["frame_idx"].count() >= 1).all()
    assert audio["frame_idx"].max() >= 2  # every_n sampling visible


def test_resizer_deterministic_and_shaped(ray_session):
    import pyarrow as pa

    from versatiles_rs_ray.stages.multimodal import FakeImageResizer

    r = FakeImageResizer(target_w=4, target_h=3)
    t = pa.table(
        {
            "payload": pa.array([b"0123456789abcdef", b""], type=pa.binary()),
            "width": pa.array([16, 0], type=pa.int64()),
            "height": pa.array([1, 0], type=pa.int64()),
        }
    )
    out = r(t)
    assert out["width"].to_pylist() == [4, 4] and out["height"].to_pylist() == [3, 3]
    p0 = out["payload"][0].as_py()
    assert len(p0) == 12 and p0 == r._resize(b"0123456789abcdef")


def test_media_bytes_decoder_real_codecs(ray_session):
    """Inline PNG/JPEG/WEBP bytes decode through the real codecs to
    rgba-raw + true dimensions; unknown bytes pass through opaque."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.core import raster
    from versatiles_rs_ray.stages.multimodal import decode_media_bytes

    rng = np.random.default_rng(7)
    img1 = rng.integers(0, 256, size=(5, 8, 4), dtype=np.uint8)
    img1[:, :, 3] = 255
    img2 = rng.integers(0, 256, size=(12, 3, 4), dtype=np.uint8)
    img2[:, :, 3] = 255
    rows = pa.table({
        "doc_id": pa.array(["a", "b", "c"]),
        "span_idx": pa.array([0, 1, 2], type=pa.int64()),
        "kind": pa.array(["image", "image", "audio"]),
        "media_ref": pa.array(["png:1", "jpg:2", "bin:3"]),
        "payload": pa.array(
            [raster.encode(img1, "png"), raster.encode(img2, "jpg"), b"\x00raw"],
            type=pa.binary()),
    })
    out = decode_media_bytes(rd.from_arrow(rows)).to_pandas().set_index("doc_id")
    # PNG is lossless: decoded rgba-raw round-trips exactly
    assert (out.loc["a", "width"], out.loc["a", "height"]) == (8, 5)
    got1 = raster.to_array(out.loc["a", "payload"], 8, 5)
    np.testing.assert_array_equal(got1, img1)
    # JPEG is lossy: dimensions exact, pixels close
    assert (out.loc["b", "width"], out.loc["b", "height"]) == (3, 12)
    got2 = raster.to_array(out.loc["b", "payload"], 3, 12)
    assert got2.shape == img2.shape
    assert np.mean(np.abs(got2[:, :, :3].astype(int) - img2[:, :, :3].astype(int))) < 32
    # unknown bytes untouched
    assert out.loc["c", "payload"] == b"\x00raw"
    assert out.loc["c", "width"] == 0


def test_read_media_dir_decodes_real_files(ray_session, tmp_path):
    """Externally-encoded fixtures (the reference's Rust-image-crate
    mock tiles: 1-bit palette PNG, baseline JPEG, lossless WEBP) flow
    read_binary_files -> decode_media_bytes with correct pixels —
    the decode pool proven on bytes our own encoders never produced."""
    import shutil

    import numpy as np

    from versatiles_rs_ray.sources.media import kind_of, read_media_dir
    from versatiles_rs_ray.stages.multimodal import decode_media_bytes

    src = "/root/reference/versatiles_container/src/container/mock/mock_tiles"
    for name in ("mock.png", "mock.jpg", "mock.webp"):
        shutil.copy(f"{src}/{name}", tmp_path / name)
    (tmp_path / "notes.txt").write_bytes(b"not media")

    assert kind_of("a/b.JPG") == "image" and kind_of("x.wav") == "audio"
    assert kind_of("x.mkv") == "video" and kind_of("x.txt") == "binary"

    out = decode_media_bytes(read_media_dir(str(tmp_path))).to_pandas()
    out = out.set_index(out["media_ref"].str.rsplit("/", n=1).str[-1])
    assert sorted(out.index) == ["mock.jpg", "mock.png", "mock.webp", "notes.txt"]
    # non-media row passes through opaque (width=height=0)
    assert out.loc["notes.txt", "width"] == 0
    assert bytes(out.loc["notes.txt", "payload"]) == b"not media"
    # all three mock tiles are a solid ~(170,211,223) 256x256 fill;
    # JPEG is lossy -> +-2 per channel
    want = np.array([170, 211, 223, 255])
    for name, tol in [("mock.png", 0), ("mock.webp", 0), ("mock.jpg", 2)]:
        row = out.loc[name]
        assert row["kind"] == "image"
        assert (row["width"], row["height"]) == (256, 256)
        rgba = np.frombuffer(row["payload"], np.uint8).reshape(256, 256, 4)
        assert int(np.abs(rgba.astype(int) - want).max()) <= tol, name


def test_media_bytes_decoder_tiff_payload(ray_session, tmp_path):
    """A plain TIFF media payload decodes through the stdlib GeoTIFF
    parser into the same rgba-raw interchange as PNG/JPEG/WEBP."""
    import numpy as np

    from oracles import write_tiff
    from versatiles_rs_ray.sources.media import read_media_dir
    from versatiles_rs_ray.stages.multimodal import decode_media_bytes

    yy, xx = np.mgrid[0:20, 0:30]
    rgb = np.stack([(xx * 8).astype(np.uint8), (yy * 12).astype(np.uint8),
                    np.full((20, 30), 7, np.uint8)], axis=2)
    (tmp_path / "chip.tif").write_bytes(write_tiff(rgb, compression=5))
    grey16 = ((xx + yy) * 600).astype(np.uint16)[:, :, None]
    (tmp_path / "dem.tiff").write_bytes(write_tiff(grey16, predictor=1))

    out = decode_media_bytes(read_media_dir(str(tmp_path))).to_pandas()
    out = out.set_index(out["media_ref"].str.rsplit("/", n=1).str[-1])
    row = out.loc["chip.tif"]
    assert (row["kind"], row["width"], row["height"]) == ("image", 30, 20)
    rgba = np.frombuffer(row["payload"], np.uint8).reshape(20, 30, 4)
    assert np.array_equal(rgba[..., :3], rgb) and (rgba[..., 3] == 255).all()
    row = out.loc["dem.tiff"]
    assert (row["width"], row["height"]) == (30, 20)
    rgba = np.frombuffer(row["payload"], np.uint8).reshape(20, 30, 4)
    assert np.array_equal(rgba[..., 0], (grey16[..., 0] >> 8).astype(np.uint8))


def test_wav_codec_roundtrip_and_foreign_layouts():
    """RIFF/WAVE parser (core/wav.py): 16-bit round-trip through our
    encoder, hand-packed 8-bit/24-bit/float32 fixtures, chunk-skip
    (LIST before data), and honest gates."""
    import struct

    import numpy as np
    import pytest

    from versatiles_rs_ray.core.wav import decode_wav, encode_wav

    t = np.arange(800) / 8000.0
    src = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    s, rate = decode_wav(encode_wav(src, 8000))
    assert rate == 8000 and s.shape == (800, 1)
    assert np.abs(s[:, 0] - src).max() < 1.5 / 32768  # 16-bit quant

    def wav(fmt_code, channels, rate, bits, raw, pre_chunks=b""):
        fmt = struct.pack("<HHIIHH", fmt_code, channels, rate,
                          rate * channels * bits // 8,
                          channels * bits // 8, bits)
        body = (b"WAVE" + pre_chunks
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(raw)) + raw)
        return b"RIFF" + struct.pack("<I", len(body)) + body

    # 8-bit PCM is unsigned: 128 -> 0.0, 255 -> ~1.0
    s, _ = decode_wav(wav(1, 1, 8000, 8, bytes([128, 255, 0])))
    assert s[0, 0] == 0.0 and s[1, 0] > 0.98 and s[2, 0] == -1.0
    # 24-bit little-endian signed
    raw24 = (0x7FFFFF).to_bytes(3, "little") + (0x800000).to_bytes(3, "little")
    s, _ = decode_wav(wav(1, 1, 44100, 24, raw24))
    assert s[0, 0] > 0.999 and s[1, 0] == -1.0
    # float32 + a LIST chunk before fmt (chunk-skip per spec)
    raw = np.array([0.25, -0.5], "<f4").tobytes()
    s, rate = decode_wav(wav(3, 2, 16000, 32, raw,
                             pre_chunks=b"LIST\x04\x00\x00\x00INFO"))
    assert rate == 16000 and s.shape == (1, 2)
    assert s[0].tolist() == [0.25, -0.5]
    # gates
    with pytest.raises(NotImplementedError, match="format"):
        decode_wav(wav(85, 1, 8000, 16, b"\x00\x00"))  # mp3-in-wav
    with pytest.raises(ValueError, match="not a WAV"):
        decode_wav(b"RIFF\x00\x00\x00\x00AVI " + bytes(16))


def test_audio_pipeline_real_wav_features(ray_session, sf_dir):
    """Audio spans synthesize REAL PCM WAV and AudioFeatures decodes
    them for real: rms of a 0.5-amplitude sine is 0.5/sqrt(2)."""
    import numpy as np

    from versatiles_rs_ray.stages.multimodal import audio_pipeline

    out = audio_pipeline(D.read_docs(sf_dir)).to_pandas()
    if len(out) == 0:  # testdata carries no audio spans at this SF
        import pytest

        pytest.skip("no audio spans at this scale factor")
    assert (out["sample_rate"] == 8000).all()
    assert (out["n_samples"] >= 400).all()
    assert np.allclose(out["rms"], 0.5 / np.sqrt(2), atol=0.02)
    assert (out["duration_ms"] == out["n_samples"] / 8.0).all()


# ---- dHash / image near-dup --------------------------------------------

def _img(seed, w=32, h=24):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, 4), dtype=np.uint8)


def test_dhash64_reference_and_invariances():
    from versatiles_rs_ray.stages.multimodal import dhash64

    a = _img(1)
    h0 = dhash64(a)
    assert 0 <= h0 < (1 << 64)
    # brightness shift leaves gradients (mostly) unchanged
    b = a.copy()
    b[..., :3] = np.minimum(b[..., :3].astype(np.int64) + 4,
                            255).astype(np.uint8)
    assert bin(h0 ^ dhash64(b)).count("1") <= 6
    # a different image is far away
    assert bin(h0 ^ dhash64(_img(2))).count("1") > 10
    # deterministic
    assert dhash64(a) == h0
    # scalar reference on a tiny crafted image: 16x8 left-dark /
    # right-bright -> every gradient bit says left < right -> 0
    ramp = np.zeros((8, 18, 4), dtype=np.uint8)
    ramp[:, 9:, :3] = 255
    # every horizontal gradient bit is left<right except at the step:
    # g[:, c] > g[:, c+1] is False everywhere on a rising step -> 0
    assert dhash64(ramp) == 0
    import pytest
    with pytest.raises(ValueError):
        dhash64(np.zeros((0, 4, 4), dtype=np.uint8))


def test_image_near_dup_pairs(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from versatiles_rs_ray.core.raster import from_array
    from versatiles_rs_ray.stages.multimodal import image_near_dup

    # 6 originals + brightness-shifted copies of ids 0..2 (+100)
    rows = []
    for i in range(6):
        arr = _img(50 + i)
        rows.append((i, arr))
        if i < 3:
            shifted = arr.copy()
            shifted[..., :3] = np.minimum(
                shifted[..., :3].astype(np.int64) + 3, 255).astype(np.uint8)
            rows.append((100 + i, shifted))
    t = pa.table({
        "img_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "payload": pa.array([from_array(r[1]) for r in rows],
                            type=pa.binary()),
        "width": pa.array([r[1].shape[1] for r in rows], type=pa.int64()),
        "height": pa.array([r[1].shape[0] for r in rows], type=pa.int64()),
    })
    got = image_near_dup(rd.from_arrow(t).repartition(3),
                         max_hamming=6).to_pandas()
    pairs = {tuple(sorted((a, b)))
             for a, b in zip(got["doc_a"], got["doc_b"])}
    for i in range(3):
        assert (i, 100 + i) in pairs, pairs
    # distinct random images must not all collide
    assert len(pairs) < 10
    # undecoded rows (width 0) are skipped, not fatal
    t2 = pa.table({
        "img_id": pa.array([1, 2], type=pa.int64()),
        "payload": pa.array([b"junk", from_array(_img(9))],
                            type=pa.binary()),
        "width": pa.array([0, 32], type=pa.int64()),
        "height": pa.array([0, 24], type=pa.int64()),
    })
    assert image_near_dup(rd.from_arrow(t2), max_hamming=6).count() == 0


def test_image_near_dup_validation(ray_session):
    import pytest

    from versatiles_rs_ray.stages.multimodal import image_near_dup

    with pytest.raises(ValueError):
        image_near_dup(None, max_hamming=65)
