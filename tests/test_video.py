"""Video leg: GIF animation codec, AVI container parse/decode, MJPEG
DHT injection, and the VideoFrames sampling stage.

Reader-independence rule (same as the NetCDF fixture): the AVI parser
is validated against a HAND-PACKED byte fixture too, not only against
the repo's own writer.
"""

import struct

import numpy as np
import pyarrow as pa
import pytest

from versatiles_rs_ray.core.avi import (
    decode_avi_frame,
    encode_avi,
    ensure_jpeg_dht,
    parse_avi,
)
from versatiles_rs_ray.core.gif import (
    _lzw_decode,
    _lzw_encode,
    decode_gif,
    decode_gif_frames,
    encode_gif,
)
from versatiles_rs_ray.core.jpeg import decode_jpeg, encode_jpeg


def _frames(n=5, h=13, w=17):
    out = []
    for k in range(n):
        f = np.zeros((h, w, 4), np.uint8)
        f[..., 0] = (k * 40) % 256
        f[..., 1] = (np.arange(w, dtype=np.int64)[None, :] * 9 % 256
                     ).astype(np.uint8)
        f[..., 2] = 99
        f[..., 3] = 255
        out.append(f)
    return out


# ---- GIF LZW ------------------------------------------------------------


def test_gif_lzw_round_trip_fuzz():
    rng = np.random.default_rng(7)
    for trial in range(60):
        ncolors = int(rng.integers(1, 256))
        n = int(rng.integers(1, 20000))
        mode = trial % 4
        if mode == 0:
            idx = rng.integers(0, ncolors, n).astype(np.uint8)
        elif mode == 1:
            idx = np.zeros(n, np.uint8)  # KwKwK storm
        elif mode == 2:
            idx = (np.arange(n) % ncolors).astype(np.uint8)
        else:
            idx = np.repeat(rng.integers(0, ncolors, max(n // 7, 1)),
                            7)[:n].astype(np.uint8)
        mcs = max(2, int(np.ceil(np.log2(max(ncolors, 2)))))
        blob = _lzw_encode(idx, mcs)
        assert np.array_equal(_lzw_decode(blob, mcs, len(idx)), idx), \
            (trial, mode, ncolors, n)


def test_gif_lzw_dictionary_freeze_past_4096():
    # > 4096 dictionary entries forces the 12-bit cap + frozen table
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 250, 60000).astype(np.uint8)
    blob = _lzw_encode(idx, 8)
    assert np.array_equal(_lzw_decode(blob, 8, len(idx)), idx)


# ---- GIF animation ------------------------------------------------------


def test_gif_animation_round_trip():
    frames = _frames(5)
    frames[1][2:5, 3:8, 3] = 0  # transparent hole
    frames[3][0:2, :, 3] = 0
    data = encode_gif(frames, delays_cs=[10, 20, 30, 40, 50], loop=0)
    dec, delays = decode_gif_frames(data)
    assert delays == [10, 20, 30, 40, 50]
    assert len(dec) == 5
    for src, got in zip(frames, dec):
        exp = src.copy()
        exp[src[..., 3] < 128] = 0  # alpha binarized, RGB zeroed
        assert np.array_equal(got, exp)
    # first frame == decode_gif; max_frames stops early
    assert np.array_equal(decode_gif(data), dec[0])
    two, d2 = decode_gif_frames(data, max_frames=2)
    assert len(two) == 2 and d2 == [10, 20]
    assert np.array_equal(two[1], dec[1])


def test_gif_disposal_methods_hand_built():
    """Hand-assemble a 3-frame GIF exercising disposal 1 (leave) and
    3 (restore previous) with partial-rect frames."""
    # palette: 0=black 1=red 2=green 3=blue
    gct = bytes([0, 0, 0, 255, 0, 0, 0, 255, 0, 0, 0, 255])
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", 4, 4, 0x80 | 0x01, 0, 0)  # 4-entry GCT
    out += gct

    def frame(left, top, w, h, color, disposal):
        b = bytearray()
        b += b"\x21\xf9\x04" + bytes([(disposal << 2)]) + b"\x0a\x00\x00\x00"
        b += b"\x2c" + struct.pack("<HHHHB", left, top, w, h, 0)
        idx = np.full(w * h, color, np.uint8)
        blob = _lzw_encode(idx, 2)
        b += bytes([2])
        for i in range(0, len(blob), 255):
            c = blob[i : i + 255]
            b += bytes([len(c)]) + c
        b += b"\x00"
        return b

    out += frame(0, 0, 4, 4, 1, 1)   # full red, leave
    out += frame(1, 1, 2, 2, 2, 3)   # green patch, restore-previous
    out += frame(0, 0, 1, 1, 3, 0)   # blue pixel top-left
    out += b"\x3b"

    frames, delays = decode_gif_frames(bytes(out))
    assert len(frames) == 3 and delays == [10, 10, 10]
    red = [255, 0, 0, 255]
    assert np.array_equal(frames[0], np.tile(red, (4, 4, 1)))
    # frame 2: red canvas with green patch at (1..2, 1..2)
    exp = np.tile(red, (4, 4, 1)).astype(np.uint8)
    exp[1:3, 1:3] = [0, 255, 0, 255]
    assert np.array_equal(frames[1], exp)
    # frame 3: disposal 3 restored the all-red canvas, then blue pixel
    exp = np.tile(red, (4, 4, 1)).astype(np.uint8)
    exp[0, 0] = [0, 0, 255, 255]
    assert np.array_equal(frames[2], exp)


def test_gif_animation_pixel_budget():
    # many max-size frames exceed the total animation budget
    big = np.zeros((2048, 2048, 4), np.uint8)
    big[..., 3] = 255
    data = encode_gif([big] * 17)  # 17 * 4M px > 2^26
    with pytest.raises(ValueError, match="pixel budget"):
        decode_gif_frames(data)


def test_gif_palette_gate():
    rng = np.random.default_rng(0)
    f = np.zeros((32, 32, 4), np.uint8)
    f[..., :3] = rng.integers(0, 256, (32, 32, 3))
    f[..., 3] = 255
    with pytest.raises(ValueError, match="palette"):
        encode_gif([f])


# ---- AVI ----------------------------------------------------------------


def test_avi_dib_round_trip_exact():
    frames = _frames(6, h=24, w=32)
    data = encode_avi(frames, fps=12.5, codec="dib")
    info = parse_avi(data)
    assert (info.width, info.height, info.n_frames) == (32, 24, 6)
    assert abs(info.fps - 12.5) < 1e-9
    assert info.fourcc == "DIB"
    for i, f in enumerate(frames):
        assert np.array_equal(decode_avi_frame(data, info, i), f)


def test_avi_mjpeg_round_trip_near():
    frames = _frames(4, h=24, w=32)
    data = encode_avi(frames, fps=30, codec="mjpeg", quality=95)
    info = parse_avi(data)
    assert info.fourcc == "MJPG" and info.n_frames == 4
    for i, f in enumerate(frames):
        out = decode_avi_frame(data, info, i)
        assert out.shape == (24, 32, 4)
        err = np.abs(out[..., :3].astype(int)
                     - f[..., :3].astype(int)).max()
        assert err <= 12


def test_avi_hand_packed_fixture():
    """Reader-independent fixture: a minimal AVI assembled byte by
    byte from the public RIFF spec — one 2x2 raw-DIB video stream,
    2 frames, 5 fps, with an odd-sized junk chunk (word-padding) and
    a 'rec ' LIST wrapping frame 2."""
    def chunk(cc, body):
        pad = b"\x00" if len(body) & 1 else b""
        return cc + struct.pack("<I", len(body)) + body + pad

    # 2x2 24-bit DIB: stride = 8 (4-byte aligned), bottom-up BGR
    # frame A: top row red,green / bottom row blue,white
    def dib(rows):  # rows top->bottom of [B,G,R] triples
        out = b""
        for r in reversed(rows):
            line = b"".join(bytes(px) for px in r)
            out += line + b"\x00" * (8 - len(line))
        return out

    fa = dib([[[0, 0, 255], [0, 255, 0]], [[255, 0, 0], [255, 255, 255]]])
    fb = dib([[[10, 20, 30], [40, 50, 60]], [[70, 80, 90], [1, 2, 3]]])

    avih = struct.pack("<IIIIIIIIII4I", 200000, 0, 0, 0, 2, 0, 1, 64,
                       2, 2, 0, 0, 0, 0)
    strh = (b"vids" + b"\x00\x00\x00\x00" +
            struct.pack("<IHHIIIIIIIIhhhh", 0, 0, 0, 0, 1, 5, 0, 2, 64,
                        0, 0, 0, 0, 2, 2))
    strf = struct.pack("<IiiHH4sIiiII", 40, 2, 2, 1, 24,
                       b"\x00\x00\x00\x00", 16, 0, 0, 0, 0)
    hdrl = chunk(b"LIST", b"hdrl" + chunk(b"avih", avih) +
                 chunk(b"LIST", b"strl" + chunk(b"strh", strh) +
                       chunk(b"strf", strf)))
    junk = chunk(b"JUNK", b"x" * 7)  # odd size: checks word alignment
    movi = chunk(b"LIST", b"movi" + chunk(b"00dc", fa) + junk +
                 chunk(b"LIST", b"rec " + chunk(b"00dc", fb)))
    body = b"AVI " + hdrl + movi
    data = b"RIFF" + struct.pack("<I", len(body)) + body

    info = parse_avi(data)
    assert (info.width, info.height, info.n_frames) == (2, 2, 2)
    assert info.fps == 5.0 and info.bit_count == 24
    a = decode_avi_frame(data, info, 0)
    assert np.array_equal(
        a, [[[255, 0, 0, 255], [0, 255, 0, 255]],
            [[0, 0, 255, 255], [255, 255, 255, 255]]])
    b = decode_avi_frame(data, info, 1)
    assert np.array_equal(b[0, 0], [30, 20, 10, 255])
    assert np.array_equal(b[1, 1], [3, 2, 1, 255])


def test_avi_topdown_and_32bit_dib():
    """Spec edge cases: negative biHeight stores rows top-first (no
    bottom-up flip), and BI_RGB 32-bit frames carry a RESERVED 4th
    byte, not alpha."""
    def chunk(cc, body):
        pad = b"\x00" if len(body) & 1 else b""
        return cc + struct.pack("<I", len(body)) + body + pad

    # 2x1, 32-bit top-down: rows as stored = top row first, BGRX with
    # X=0 (the reserved byte every BI_RGB writer emits)
    frame = bytes([0, 0, 255, 0,   0, 255, 0, 0])  # red px, green px
    avih = struct.pack("<IIIIIIIIII4I", 100000, 0, 0, 0, 1, 0, 1, 8,
                       2, 1, 0, 0, 0, 0)
    strh = (b"vids" + b"\x00\x00\x00\x00" +
            struct.pack("<IHHIIIIIIIIhhhh", 0, 0, 0, 0, 1, 10, 0, 1, 8,
                        0, 0, 0, 0, 2, 1))
    strf = struct.pack("<IiiHH4sIiiII", 40, 2, -1, 1, 32,
                       b"\x00\x00\x00\x00", 8, 0, 0, 0, 0)
    hdrl = chunk(b"LIST", b"hdrl" + chunk(b"avih", avih) +
                 chunk(b"LIST", b"strl" + chunk(b"strh", strh) +
                       chunk(b"strf", strf)))
    movi = chunk(b"LIST", b"movi" + chunk(b"00dc", frame))
    body = b"AVI " + hdrl + movi
    data = b"RIFF" + struct.pack("<I", len(body)) + body

    info = parse_avi(data)
    assert info.top_down and info.bit_count == 32
    out = decode_avi_frame(data, info, 0)
    # top-down: stored row order IS display order; alpha forced opaque
    assert np.array_equal(out[0, 0], [255, 0, 0, 255])
    assert np.array_equal(out[0, 1], [0, 255, 0, 255])


def test_mjpeg_dht_injection_skips_fill_bytes():
    """T.81 B.1.1.2 allows 0xFF fill bytes before any marker; the DHT
    scanner must not read them as a marker with a length."""
    f = _frames(1, h=16, w=16)[0]
    js = _strip_dht(encode_jpeg(f[..., :3], quality=90))
    # insert a fill byte right before the SOS marker
    sos = js.find(b"\xff\xda")
    filled = js[:sos] + b"\xff" + js[sos:]
    out = decode_jpeg(ensure_jpeg_dht(filled), native=False)
    assert np.array_equal(out, decode_jpeg(ensure_jpeg_dht(js),
                                           native=False))


def test_avi_gates():
    with pytest.raises(ValueError, match="not an AVI"):
        parse_avi(b"RIFF\x04\x00\x00\x00WAVE")
    frames = _frames(1)
    data = bytearray(encode_avi(frames, codec="mjpeg"))
    # rewrite both the strh handler and strf biCompression fourccs
    i = data.find(b"MJPG")
    while i != -1:
        data[i : i + 4] = b"H264"
        i = data.find(b"MJPG")
    info = parse_avi(bytes(data))
    with pytest.raises(ValueError, match="H264"):
        decode_avi_frame(bytes(data), info, 0)


# ---- MJPEG DHT injection -------------------------------------------------


def _strip_dht(j: bytes) -> bytes:
    out = bytearray(j[:2])
    i = 2
    while i < len(j):
        m = j[i + 1]
        if m == 0xDA:
            out += j[i:]
            break
        ln = struct.unpack(">H", j[i + 2 : i + 4])[0]
        if m != 0xC4:
            out += j[i : i + 2 + ln]
        i += 2 + ln
    return bytes(out)


def test_mjpeg_dht_injection_bit_exact():
    f = _frames(1, h=16, w=16)[0]
    j = encode_jpeg(f[..., :3], quality=90)
    js = _strip_dht(j)
    assert b"\xff\xc4" not in js[: js.find(b"\xff\xda")]
    with pytest.raises(Exception):
        decode_jpeg(js, native=False)  # undC4odable without tables
    a = decode_jpeg(j, native=False)
    b = decode_jpeg(ensure_jpeg_dht(js), native=False)
    assert np.array_equal(a, b)
    # frames that already carry DHT pass through untouched
    assert ensure_jpeg_dht(j) == j


# ---- VideoFrames stage ---------------------------------------------------


def _span_batch(payloads):
    n = len(payloads)
    return pa.table({
        "doc_id": pa.array([f"doc-{i}" for i in range(n)]),
        "span_idx": pa.array([0] * n, type=pa.int64()),
        "kind": pa.array(["video"] * n),
        "media_ref": pa.array([f"media://{i}/0" for i in range(n)]),
        "payload": pa.array(payloads, type=pa.binary()),
    })


def test_video_frames_stage_sampling_and_timestamps():
    from versatiles_rs_ray.stages.multimodal import VideoFrames

    gif = encode_gif(_frames(6, h=9, w=9), delays_cs=[10] * 6)
    avi = encode_avi(_frames(10, h=8, w=8), fps=20, codec="mjpeg")
    out = VideoFrames(max_frames=4)(_span_batch([gif, avi])).to_pandas()
    g = out[out.doc_id == "doc-0"]
    a = out[out.doc_id == "doc-1"]
    # uniform sampling: first and last always included
    assert list(g.frame_idx) == [0, 2, 3, 5] and (g.n_frames == 6).all()
    assert list(g.timestamp_ms) == [0.0, 200.0, 300.0, 500.0]
    assert list(a.frame_idx) == [0, 3, 6, 9] and (a.n_frames == 10).all()
    assert list(a.timestamp_ms) == [0.0, 150.0, 300.0, 450.0]
    assert (a.width == 8).all() and (a.height == 8).all()
    # payloads are rgba-raw
    assert all(len(p) == w * h * 4 for p, w, h in
               zip(out.payload, out.width, out.height))
    # decoded GIF frame content matches the codec path
    want = decode_gif_frames(gif)[0][2]
    got = np.frombuffer(g.iloc[1].payload, np.uint8).reshape(9, 9, 4)
    assert np.array_equal(got, want)


def test_video_frames_stage_degrades_on_corrupt():
    from versatiles_rs_ray.stages.multimodal import VideoFrames

    gif = encode_gif(_frames(3, h=8, w=8))
    out = VideoFrames()(_span_batch(
        [b"not a container", gif[:40], gif])).to_pandas()
    bad = out[out.doc_id != "doc-2"]
    ok = out[out.doc_id == "doc-2"]
    assert len(bad) == 2 and bad.frame_idx.isna().all() and \
        (bad.width == 0).all()
    assert len(ok) == 3 and ok.frame_idx.notna().all()


def test_video_pipeline_end_to_end(ray_session, sf_dir):
    from versatiles_rs_ray.sources import docs as D
    from versatiles_rs_ray.stages.multimodal import video_pipeline

    out = video_pipeline(D.read_docs(sf_dir)).to_pandas()
    assert len(out) > 0
    assert (out["n_frames"] >= 3).all()
    assert out["frame_idx"].notna().all()
    assert out["feature"].map(len).eq(34).all()
    # every video span produced >= 3 sampled frames (clips have 3-6)
    per_span = out.groupby(["doc_id", "span_idx"]).size()
    assert (per_span >= 3).all() and (per_span <= 4).all()


def test_mov_mjpeg_round_trip_near():
    from versatiles_rs_ray.core.mov import (decode_mov_frame, encode_mov,
                                            parse_mov)

    frames = _frames(5, h=24, w=32)
    data = encode_mov(frames, fps=12.0, quality=95)
    info = parse_mov(data)
    assert (info.width, info.height, info.n_frames) == (32, 24, 5)
    assert info.codec == "jpeg" and info.timescale == 600
    # stts at 12 fps over timescale 600 -> 50-tick deltas
    assert info.times.tolist() == [0, 50, 100, 150, 200]
    for i, f in enumerate(frames):
        out = decode_mov_frame(data, info, i)
        assert out.shape == (24, 32, 4)
        err = np.abs(out[..., :3].astype(int)
                     - f[..., :3].astype(int)).max()
        assert err <= 12


def test_mov_hand_packed_fixture():
    """Reader-independent fixture: a minimal ISO-BMFF file assembled
    byte by byte from the public 14496-12 box layout — two JPEG
    samples split across TWO chunks (exercising the stsc run
    expansion), 64-bit co64 offsets, and an stts with two runs."""
    from versatiles_rs_ray.core.formats import sniff_format
    from versatiles_rs_ray.core.jpeg import encode_jpeg
    from versatiles_rs_ray.core.mov import decode_mov_frame, parse_mov

    def box(cc, body):
        return struct.pack(">I", 8 + len(body)) + cc + body

    def full(cc, body, version=0, flags=0):
        return box(cc, bytes([version]) + flags.to_bytes(3, "big") + body)

    f0 = np.zeros((8, 8, 3), np.uint8); f0[..., 0] = 200
    f1 = np.zeros((8, 8, 3), np.uint8); f1[..., 2] = 150
    s0, s1 = encode_jpeg(f0, 90), encode_jpeg(f1, 90)

    entry = (struct.pack(">I", 86) + b"jpeg" + b"\x00" * 6
             + struct.pack(">H", 1) + b"\x00" * 16
             + struct.pack(">HH", 8, 8) + b"\x00" * 50)
    stsd = full(b"stsd", struct.pack(">I", 1) + entry)
    stts = full(b"stts", struct.pack(">IIIII", 2, 1, 100, 1, 44))
    # two chunks, one sample each
    stsc = full(b"stsc", struct.pack(">IIII", 1, 1, 1, 1))
    stsz = full(b"stsz", struct.pack(">IIII", 0, 2, len(s0), len(s1)))
    mdhd = full(b"mdhd", struct.pack(">IIIIHH", 0, 0, 1000, 144, 0, 0))
    hdlr = full(b"hdlr", b"mhlr" + b"vide" + b"\x00" * 13)
    vmhd = full(b"vmhd", struct.pack(">HHHH", 0, 0, 0, 0), flags=1)
    dinf = box(b"dinf", full(b"dref", struct.pack(">I", 1)
                             + full(b"url ", b"", flags=1)))
    tkhd = full(b"tkhd", struct.pack(">IIIII", 0, 0, 1, 0, 144)
                + b"\x00" * 16 + b"\x00" * 36
                + struct.pack(">II", 8 << 16, 8 << 16), flags=7)
    mvhd = full(b"mvhd", struct.pack(">IIII", 0, 0, 1000, 144)
                + b"\x00" * 80)

    def lay(off0, off1):
        co64 = full(b"co64", struct.pack(">IQQ", 2, off0, off1))
        stbl = box(b"stbl", stsd + stts + stsc + stsz + co64)
        minf = box(b"minf", vmhd + dinf + stbl)
        mdia = box(b"mdia", mdhd + hdlr + minf)
        moov = box(b"moov", mvhd + box(b"trak", tkhd + mdia))
        return moov

    m0 = lay(0, 0)
    gap = b"\xee" * 5  # junk between the two chunks

    def build(lead):
        base = len(lead) + len(m0) + 8
        moov = lay(base, base + len(s0) + len(gap))
        return lead + moov + box(b"mdat", s0 + gap + s1)

    data = build(b"")
    info = parse_mov(data)
    assert (info.width, info.height, info.n_frames) == (8, 8, 2)
    assert info.timescale == 1000
    assert info.times.tolist() == [0, 100]
    a = decode_mov_frame(data, info, 0)
    b = decode_mov_frame(data, info, 1)
    assert abs(int(a[4, 4, 0]) - 200) <= 4 and int(a[4, 4, 2]) <= 8
    assert abs(int(b[4, 4, 2]) - 150) <= 4 and int(b[4, 4, 0]) <= 8

    # a leading 8-byte 'free' box: still sniffed as MOV, same frames
    padded = build(box(b"free", b""))
    assert sniff_format(data) == sniff_format(padded) == "mov"
    pinfo = parse_mov(padded)
    assert pinfo.times.tolist() == [0, 100]
    assert np.array_equal(decode_mov_frame(padded, pinfo, 0), a)
    assert np.array_equal(decode_mov_frame(padded, pinfo, 1), b)


def test_mov_entry_count_overruns_box():
    """A sample-table entry count that runs past the end of its own box
    must raise, not read the next box's bytes as entries: here stts
    claims a second (count, delta) run that would be stsc's header,
    i.e. garbage timestamps for frames 1 and 2."""
    from versatiles_rs_ray.core.mov import encode_mov, parse_mov

    data = bytearray(encode_mov(_frames(3), fps=10))
    i = data.find(b"stts")
    # FullBox payload: version/flags, entry count, then (count, delta) runs
    struct.pack_into(">II", data, i + 8, 2, 1)
    with pytest.raises(ValueError, match="stts claims 2 entries"):
        parse_mov(bytes(data))


def test_mov_codec_gate():
    """A compressed-codec track (avc1) must raise naming the codec."""
    from versatiles_rs_ray.core.mov import encode_mov, parse_mov

    data = bytearray(encode_mov(_frames(2), fps=10))
    i = data.find(b"jpeg", data.find(b"stsd"))
    data[i : i + 4] = b"avc1"
    with pytest.raises(NotImplementedError, match="avc1"):
        parse_mov(bytes(data))


def test_video_frames_stage_mov():
    """VideoFrames demuxes MJPEG-in-MOV: correct sampling, stts
    timestamps, decodable rgba-raw payloads."""
    import pyarrow as pa

    from versatiles_rs_ray.core.mov import encode_mov
    from versatiles_rs_ray.stages.multimodal import VideoFrames

    frames = _frames(7, h=12, w=10)
    blob = encode_mov(frames, fps=20.0)
    vf = VideoFrames(max_frames=3)
    out = vf(pa.table({"doc_id": pa.array([b"d1"], type=pa.binary()),
                       "payload": pa.array([blob], type=pa.binary())}))
    assert out.num_rows == 3
    assert out["frame_idx"].to_pylist() == [0, 3, 6]
    assert out["n_frames"].to_pylist() == [7, 7, 7]
    # 20 fps over timescale 600 -> 30-tick deltas -> 50 ms apart
    assert out["timestamp_ms"].to_pylist() == [0.0, 150.0, 300.0]
    w, h = out["width"][0].as_py(), out["height"][0].as_py()
    assert (w, h) == (10, 12)
    rgba = np.frombuffer(out["payload"][2].as_py(),
                         np.uint8).reshape(h, w, 4)
    err = np.abs(rgba[..., :3].astype(int)
                 - frames[6][..., :3].astype(int)).max()
    assert err <= 12


def test_mov_malformed_trak_walk():
    """A truncated first trak must surface the documented ValueError
    (not struct.error) — and must not stop the walk before a later
    valid MJPEG trak."""
    from versatiles_rs_ray.core.mov import encode_mov, parse_mov

    good = encode_mov(_frames(2), fps=10)
    # locate moov and its trak; craft a file whose moov contains a
    # garbage trak first, then the original one
    i = good.find(b"moov")
    moov_size = struct.unpack(">I", good[i - 4 : i])[0]
    moov_body = good[i + 4 : i - 4 + moov_size]
    j = moov_body.find(b"trak")
    mvhd, trak = moov_body[: j - 4], moov_body[j - 4 :]
    bad_trak = struct.pack(">I", 24) + b"trak" + \
        struct.pack(">I", 16) + b"mdia" + struct.pack(">I", 8) + b"mdhd"
    new_body = mvhd + bad_trak + trak
    new_moov = struct.pack(">I", 8 + len(new_body)) + b"moov" + new_body
    data = good[: i - 4] + new_moov + good[i - 4 + moov_size :]
    # offsets into mdat shifted by the inserted bytes: reparse only
    info = parse_mov(data)
    assert info.n_frames == 2  # the valid trak still parses

    # a moov holding ONLY the malformed trak raises ValueError
    lone = good[: i - 4] + (struct.pack(">I", 8 + len(mvhd + bad_trak))
                            + b"moov" + mvhd + bad_trak)
    with pytest.raises(ValueError):
        parse_mov(lone)


def test_sniff_mov_ranks_below_leading_magics():
    from versatiles_rs_ray.core.formats import sniff_format

    # an MVT-looking payload whose bytes 4:8 spell a box fourcc must
    # stay MVT; same for JSON
    assert sniff_format(b"\x1a\x00\x00\x00mdat" + b"x" * 8) == "mvt"
    assert sniff_format(b'{"a"moov": 1}    ') == "json"
    # a real ISO-BMFF header still sniffs as mov
    assert sniff_format(b"\x00\x00\x00\x14ftypqt  " + b"\x00" * 8) == "mov"
