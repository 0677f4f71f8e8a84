"""Pure-stdlib ISO-BMFF / QuickTime (.mov/.mp4) parser + minimal
writer for MOTION-JPEG tracks — the second real video container of the
media pipeline (stages/multimodal.py), built from the public ISO/IEC
14496-12 box structure the way core/avi.py is built from the RIFF
spec.

Scope (honest gate, like the AVI module): tracks whose ``stsd`` sample
entry is ``jpeg``/``mjpa``/``mjpb`` — every sample an independent
baseline JPEG this engine's own codec decodes (Annex K default Huffman
tables injected when a sample omits them, the MJPEG convention shared
with AVI). Compressed codecs (``avc1``/``hvc1``/``mp4v``...) raise
NotImplementedError naming the codec: no sandbox decoder, and a silent
wrong answer would be worse than an absent one.

- ``parse_mov``: box walk (moov -> trak -> mdia -> minf -> stbl),
  sample SPANS derived from stsc x stsz x stco/co64 (chunk runs
  expanded to per-sample file offsets) and TIMESTAMPS from stts over
  the mdhd timescale. Extraction is LAZY — spans only; the frame
  sampler decodes just the sampled frames, the property that makes
  uniform sampling over long clips cheap.
- ``decode_mov_frame``: one sample -> (H, W, 4) RGBA via core/jpeg.
- ``encode_mov``: minimal single-track writer (one chunk, 'jpeg'
  sample entry, mdat-after-moov so stco offsets are known) — the
  fixture source; the parser is additionally validated against a
  hand-packed byte fixture in tests (reader independence rule).
"""

from __future__ import annotations

import struct

import numpy as np

from .avi import ensure_jpeg_dht
from .jpeg import decode_jpeg, encode_jpeg

_MJPEG_ENTRIES = (b"jpeg", b"mjpa", b"mjpb")
_MAX_SAMPLES = 1 << 20  # untrusted-header bound (same class as AVI's)


class MovInfo:
    def __init__(self, width, height, timescale, n_frames, spans,
                 times, codec):
        self.width = width
        self.height = height
        self.timescale = timescale
        self.n_frames = n_frames
        self.spans = spans          # [(offset, size)] per sample
        self.times = times          # decode time per sample (timescale units)
        self.codec = codec


def _boxes(data: bytes, pos: int, end: int):
    """Yield (fourcc, body_start, body_end) for the boxes in a range;
    handles 64-bit largesize boxes."""
    while pos + 8 <= end:
        size = struct.unpack_from(">I", data, pos)[0]
        cc = data[pos + 4 : pos + 8]
        body = pos + 8
        if size == 1:
            if pos + 16 > end:
                break
            size = struct.unpack_from(">Q", data, pos + 8)[0]
            body = pos + 16
        elif size == 0:  # box extends to end of file
            size = end - pos
        if size < 8 or pos + size > end:
            break
        yield cc, body, pos + size
        pos += size


def _find(data: bytes, pos: int, end: int, cc: bytes):
    for c, b, e in _boxes(data, pos, end):
        if c == cc:
            return b, e
    return None


def _full(data: bytes, body: int):
    """(version, flags, payload_start) of a FullBox."""
    v = data[body]
    return v, body + 4


def parse_mov(data: bytes) -> MovInfo:
    n = len(data)
    moov = _find(data, 0, n, b"moov")
    if moov is None:
        raise ValueError("ISO-BMFF: no moov box")
    last_err = None
    for cc, tb, te in _boxes(data, *moov):
        if cc != b"trak":
            continue
        try:
            return _parse_trak(data, tb, te)
        except NotImplementedError as exc:
            last_err = exc  # a named unsupported codec beats a generic error
        except (ValueError, struct.error, IndexError) as exc:
            if last_err is None:
                # malformed/truncated trak (struct.error / IndexError
                # from reads past a truncated buffer): keep walking;
                # surface as the module's documented ValueError
                last_err = exc if isinstance(exc, ValueError) else \
                    ValueError(f"ISO-BMFF: malformed trak ({exc!r})")
    if last_err is not None:
        raise last_err
    raise ValueError("ISO-BMFF: no video trak with a sample table")


def _parse_trak(data: bytes, tb: int, te: int) -> MovInfo:
    mdia = _find(data, tb, te, b"mdia")
    if mdia is None:
        raise ValueError("trak without mdia")
    mdhd = _find(data, *mdia, b"mdhd")
    if mdhd is None:
        raise ValueError("mdia without mdhd")
    v, p = _full(data, mdhd[0])
    timescale = struct.unpack_from(
        ">I", data, p + (16 if v == 1 else 8))[0]
    minf = _find(data, *mdia, b"minf")
    if minf is None:
        raise ValueError("mdia without minf")
    stbl = _find(data, *minf, b"stbl")
    if stbl is None:
        raise ValueError("minf without stbl")

    stsd = _find(data, *stbl, b"stsd")
    if stsd is None:
        raise ValueError("stbl without stsd")
    _, p = _full(data, stsd[0])
    entry_cc = data[p + 8 : p + 12]
    if entry_cc not in _MJPEG_ENTRIES:
        raise NotImplementedError(
            f"ISO-BMFF codec {entry_cc.decode('latin1')!r}: no sandbox "
            "decoder (MJPEG 'jpeg'/'mjpa'/'mjpb' tracks are supported; "
            "bind pyav/ffmpeg at deploy for compressed codecs)")
    # VisualSampleEntry: 8 size+cc, 6 reserved + 2 dref idx (=16),
    # 2+2+12 predefined/reserved (=32), then 2 width + 2 height;
    # the entry itself starts at p+4 (after stsd's entry_count)
    width, height = struct.unpack_from(">HH", data, p + 4 + 32)

    def table(cc):
        """(payload start, box end) of sample-table box ``cc``."""
        t = _find(data, *stbl, cc)
        if t is None:
            return None, None
        _, q = _full(data, t[0])
        return q, t[1]

    def fits(cc, start, count, size, end):
        """Entries must end inside their own box, not read a neighbour's."""
        if start + count * size > end:
            raise ValueError(
                f"ISO-BMFF: {cc.decode('latin1')} claims {count} entries "
                f"of {size} bytes, past the end of its box")

    # stsz: fixed size or per-sample table
    q, end = table(b"stsz")
    if q is None:
        raise ValueError("stbl without stsz")
    fixed, count = struct.unpack_from(">II", data, q)
    if count > _MAX_SAMPLES:
        raise ValueError(f"ISO-BMFF: implausible sample count {count}")
    if fixed:
        sizes = np.full(count, fixed, dtype=np.int64)
    else:
        fits(b"stsz", q + 8, count, 4, end)
        sizes = np.frombuffer(
            data, dtype=">u4", count=count, offset=q + 8
        ).astype(np.int64)

    # chunk offsets: stco (32-bit) or co64
    q, end = table(b"stco")
    wide = False
    if q is None:
        q, end = table(b"co64")
        wide = True
    if q is None:
        raise ValueError("stbl without stco/co64")
    n_chunks = struct.unpack_from(">I", data, q)[0]
    fits(b"co64" if wide else b"stco", q + 4, n_chunks, 8 if wide else 4, end)
    dt = ">u8" if wide else ">u4"
    chunk_off = np.frombuffer(
        data, dtype=dt, count=n_chunks, offset=q + 4).astype(np.int64)

    # stsc: runs of (first_chunk, samples_per_chunk)
    q, end = table(b"stsc")
    if q is None:
        raise ValueError("stbl without stsc")
    n_runs = struct.unpack_from(">I", data, q)[0]
    fits(b"stsc", q + 4, n_runs, 12, end)
    runs = [struct.unpack_from(">III", data, q + 4 + 12 * i)[:2]
            for i in range(n_runs)]
    # expand runs -> samples-per-chunk for every chunk
    spc = np.zeros(n_chunks, dtype=np.int64)
    for i, (first, per) in enumerate(runs):
        last = runs[i + 1][0] - 1 if i + 1 < n_runs else n_chunks
        spc[first - 1 : last] = per
    # per-sample spans: walk chunks, cumulative sizes inside each
    spans = []
    s = 0
    for c in range(n_chunks):
        off = int(chunk_off[c])
        for _ in range(int(spc[c])):
            if s >= count:
                break
            spans.append((off, int(sizes[s])))
            off += int(sizes[s])
            s += 1
    if s != count:
        raise ValueError(
            f"ISO-BMFF: sample table inconsistent ({s} placed of {count})")

    # stts -> decode time per sample
    q, end = table(b"stts")
    if q is None:
        raise ValueError("stbl without stts")
    n_tt = struct.unpack_from(">I", data, q)[0]
    fits(b"stts", q + 4, n_tt, 8, end)
    times = np.zeros(count, dtype=np.int64)
    t = 0
    s = 0
    for i in range(n_tt):
        cnt, delta = struct.unpack_from(">II", data, q + 4 + 8 * i)
        for _ in range(cnt):
            if s >= count:
                break
            times[s] = t
            t += delta
            s += 1
    return MovInfo(int(width), int(height), int(timescale), int(count),
                   spans, times, entry_cc.decode("latin1"))


def decode_mov_frame(data: bytes, info: MovInfo, i: int) -> np.ndarray:
    off, size = info.spans[i]
    return decode_jpeg(ensure_jpeg_dht(data[off : off + size]))


def _box(cc: bytes, body: bytes) -> bytes:
    return struct.pack(">I", 8 + len(body)) + cc + body


def _fullbox(cc: bytes, version: int, flags: int, body: bytes) -> bytes:
    return _box(cc, struct.pack(">B", version)
                + flags.to_bytes(3, "big") + body)


def encode_mov(frames, fps: float = 10.0, quality: int = 90) -> bytes:
    """Minimal single-video-track MJPEG QuickTime file: moov then one
    mdat holding every sample in one chunk (stco known because moov is
    laid out first)."""
    if not frames:
        raise ValueError("encode_mov: need at least one frame")
    h, w = frames[0].shape[:2]
    samples = [encode_jpeg(np.ascontiguousarray(f[..., :3]), quality)
               for f in frames]
    n = len(samples)
    timescale = 600
    delta = max(1, round(timescale / fps))
    duration = n * delta

    entry = (struct.pack(">I", 86) + b"jpeg" + b"\x00" * 6
             + struct.pack(">H", 1)          # data ref index
             + b"\x00" * 16                  # predefined/reserved
             + struct.pack(">HH", w, h)
             + struct.pack(">II", 0x00480000, 0x00480000)  # 72 dpi
             + struct.pack(">I", 0) + struct.pack(">H", 1)
             + b"\x00" * 32                  # compressor name
             + struct.pack(">Hh", 24, -1))
    stsd = _fullbox(b"stsd", 0, 0, struct.pack(">I", 1) + entry)
    stts = _fullbox(b"stts", 0, 0,
                    struct.pack(">III", 1, n, delta))
    stsc = _fullbox(b"stsc", 0, 0, struct.pack(">IIII", 1, 1, n, 1))
    stsz = _fullbox(b"stsz", 0, 0, struct.pack(">II", 0, n)
                    + b"".join(struct.pack(">I", len(s))
                               for s in samples))

    def stbl_with(stco):
        return _box(b"stbl", stsd + stts + stsc + stsz + stco)

    vmhd = _fullbox(b"vmhd", 0, 1, struct.pack(">HHHH", 0, 0, 0, 0))
    dref = _fullbox(b"dref", 0, 0, struct.pack(">I", 1)
                    + _fullbox(b"url ", 0, 1, b""))
    dinf = _box(b"dinf", dref)
    hdlr = _fullbox(b"hdlr", 0, 0, b"mhlr" + b"vide" + b"\x00" * 12
                    + b"\x00")
    mdhd = _fullbox(b"mdhd", 0, 0,
                    struct.pack(">IIIIHH", 0, 0, timescale, duration,
                                0x55C4, 0))
    mat = struct.pack(">9I", 0x00010000, 0, 0, 0, 0x00010000, 0, 0, 0,
                      0x40000000)
    tkhd = _fullbox(b"tkhd", 0, 7,
                    struct.pack(">IIIII", 0, 0, 1, 0, duration)
                    + b"\x00" * 16 + mat
                    + struct.pack(">II", w << 16, h << 16))
    mvhd = _fullbox(b"mvhd", 0, 0,
                    struct.pack(">IIII", 0, 0, timescale, duration)
                    + struct.pack(">IH", 0x00010000, 0x0100)
                    + b"\x00" * 10 + mat + b"\x00" * 24
                    + struct.pack(">I", 2))

    def moov_with(stco):
        minf = _box(b"minf", vmhd + dinf + stbl_with(stco))
        mdia = _box(b"mdia", mdhd + hdlr + minf)
        trak = _box(b"trak", tkhd + mdia)
        return _box(b"moov", mvhd + trak)

    ftyp = _box(b"ftyp", b"qt  " + struct.pack(">I", 0x200) + b"qt  ")
    # two-pass: moov size is independent of the stco VALUE, so lay out
    # with a placeholder, compute the mdat body offset, rewrite
    placeholder = _fullbox(b"stco", 0, 0, struct.pack(">II", 1, 0))
    moov0 = moov_with(placeholder)
    mdat_body_off = len(ftyp) + len(moov0) + 8
    stco = _fullbox(b"stco", 0, 0, struct.pack(">II", 1, mdat_body_off))
    moov = moov_with(stco)
    assert len(moov) == len(moov0)
    return ftyp + moov + _box(b"mdat", b"".join(samples))
