"""ctypes bindings to SYSTEM codec libraries (no pip installs).

The sandbox bakes no Python codec packages, but the base image ships
the reference C libraries themselves: libbrotlienc/dec (the RFC 7932
reference implementation the Rust `brotli` crate wraps —
versatiles_core/src/utils/compression/functions.rs:141-205) and
libwebp (versatiles_image/src/format/webp.rs). Binding them through
the documented public C ABI keeps every byte produced by the same
code the reference uses, with graceful absence when a library is
missing (callers fall back to the pure-python stored-mode / gated
paths).

Only stable, documented entry points are used:
- BrotliEncoderCompress / BrotliEncoderMaxCompressedSize,
  BrotliDecoderDecompressStream (brotli/encode.h, decode.h)
- WebPEncodeRGBA / WebPEncodeLosslessRGBA / WebPDecodeRGBA /
  WebPFree (webp/encode.h, decode.h)
"""

from __future__ import annotations

import ctypes
import ctypes.util


def _load(*names):
    for n in names:
        try:
            return ctypes.CDLL(n)
        except OSError:
            continue
    return None


_benc = _load("libbrotlienc.so.1", "libbrotlienc.so", "libbrotlienc.dylib")
_bdec = _load("libbrotlidec.so.1", "libbrotlidec.so", "libbrotlidec.dylib")
_webp = _load("libwebp.so.7", "libwebp.so", "libwebp.dylib")

HAVE_BROTLI = _benc is not None and _bdec is not None
HAVE_WEBP = _webp is not None

if HAVE_BROTLI:
    _benc.BrotliEncoderMaxCompressedSize.restype = ctypes.c_size_t
    _benc.BrotliEncoderMaxCompressedSize.argtypes = [ctypes.c_size_t]
    _benc.BrotliEncoderCompress.restype = ctypes.c_int
    _benc.BrotliEncoderCompress.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_int,
        ctypes.c_size_t, ctypes.c_char_p,
        ctypes.POINTER(ctypes.c_size_t), ctypes.c_char_p,
    ]
    _bdec.BrotliDecoderCreateInstance.restype = ctypes.c_void_p
    _bdec.BrotliDecoderCreateInstance.argtypes = [ctypes.c_void_p] * 3
    _bdec.BrotliDecoderDestroyInstance.argtypes = [ctypes.c_void_p]
    _bdec.BrotliDecoderDecompressStream.restype = ctypes.c_int
    _bdec.BrotliDecoderDecompressStream.argtypes = [
        ctypes.c_void_p,
        ctypes.POINTER(ctypes.c_size_t), ctypes.POINTER(ctypes.c_char_p),
        ctypes.POINTER(ctypes.c_size_t), ctypes.POINTER(ctypes.c_char_p),
        ctypes.POINTER(ctypes.c_size_t),
    ]

# BrotliDecoderResult values (decode.h)
_BROTLI_RESULT_SUCCESS = 1
_BROTLI_RESULT_NEEDS_MORE_OUTPUT = 3


def brotli_compress(data: bytes, quality: int = 11, lgwin: int = 22) -> bytes:
    """One-shot brotli encode via the reference C encoder.

    quality defaults to 11 to match the Rust wrapper's best setting
    (functions.rs:141-160 uses quality 11 for `compress_brotli`)."""
    if not HAVE_BROTLI:
        raise RuntimeError("libbrotlienc not available")
    n = len(data)
    cap = ctypes.c_size_t(_benc.BrotliEncoderMaxCompressedSize(n) or n + 1024)
    out = ctypes.create_string_buffer(cap.value)
    ok = _benc.BrotliEncoderCompress(
        quality, lgwin, 0, n, data, ctypes.byref(cap), out
    )
    if not ok:
        raise ValueError("brotli compression failed")
    return out.raw[: cap.value]


def brotli_decompress(data: bytes) -> bytes:
    """Streaming brotli decode (output size unknown upfront)."""
    if not HAVE_BROTLI:
        raise RuntimeError("libbrotlidec not available")
    state = _bdec.BrotliDecoderCreateInstance(None, None, None)
    if not state:
        raise MemoryError("BrotliDecoderCreateInstance failed")
    try:
        chunks = []
        inbuf = ctypes.c_char_p(data)
        avail_in = ctypes.c_size_t(len(data))
        # next_in must be a mutable pointer ctypes can advance: cast to
        # POINTER(c_char) semantics via c_void_p arithmetic handled by
        # the library itself through the char** we pass.
        next_in = ctypes.cast(inbuf, ctypes.c_char_p)
        pin = ctypes.pointer(next_in)
        while True:
            bufsize = 1 << 18
            out = ctypes.create_string_buffer(bufsize)
            next_out = ctypes.cast(out, ctypes.c_char_p)
            pout = ctypes.pointer(next_out)
            avail_out = ctypes.c_size_t(bufsize)
            res = _bdec.BrotliDecoderDecompressStream(
                state, ctypes.byref(avail_in), pin,
                ctypes.byref(avail_out), pout, None,
            )
            produced = bufsize - avail_out.value
            if produced:
                chunks.append(out.raw[:produced])
            if res == _BROTLI_RESULT_SUCCESS:
                return b"".join(chunks)
            if res == _BROTLI_RESULT_NEEDS_MORE_OUTPUT:
                continue
            raise ValueError(f"brotli decode failed (result {res})")
    finally:
        _bdec.BrotliDecoderDestroyInstance(state)


if HAVE_WEBP:
    _webp.WebPDecodeRGBA.restype = ctypes.POINTER(ctypes.c_ubyte)
    _webp.WebPDecodeRGBA.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_int),
    ]
    for _fn in ("WebPEncodeRGBA", "WebPEncodeRGB",
                "WebPEncodeLosslessRGBA", "WebPEncodeLosslessRGB"):
        f = getattr(_webp, _fn)
        f.restype = ctypes.c_size_t
        f.argtypes = [
            ctypes.c_char_p, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        ] + ([ctypes.c_float] if "Lossless" not in _fn else []) + [
            ctypes.POINTER(ctypes.POINTER(ctypes.c_ubyte))
        ]
    _webp.WebPFree.argtypes = [ctypes.c_void_p]


def webp_encode(pixels: bytes, width: int, height: int, channels: int,
                quality: float | None = None) -> bytes:
    """Encode 8-bit RGB (channels=3) or RGBA (channels=4) to WebP.
    quality=None -> lossless; else the libwebp lossy quality factor
    (reference quality semantics live in core/raster.encode)."""
    if not HAVE_WEBP:
        raise RuntimeError("libwebp not available")
    assert channels in (3, 4), "webp encodes RGB or RGBA only"
    assert len(pixels) == width * height * channels, "pixel buffer size mismatch"
    outp = ctypes.POINTER(ctypes.c_ubyte)()
    stride = width * channels
    kind = "RGBA" if channels == 4 else "RGB"
    if quality is None:
        n = getattr(_webp, f"WebPEncodeLossless{kind}")(
            pixels, width, height, stride, ctypes.byref(outp))
    else:
        n = getattr(_webp, f"WebPEncode{kind}")(
            pixels, width, height, stride, ctypes.c_float(quality),
            ctypes.byref(outp))
    if not n:
        raise ValueError("webp encode failed")
    try:
        return ctypes.string_at(outp, n)
    finally:
        _webp.WebPFree(outp)


def webp_decode_rgba(data: bytes):
    """Decode webp to (rgba_bytes, width, height)."""
    if not HAVE_WEBP:
        raise RuntimeError("libwebp not available")
    w, h = ctypes.c_int(), ctypes.c_int()
    p = _webp.WebPDecodeRGBA(data, len(data), ctypes.byref(w), ctypes.byref(h))
    if not p:
        raise ValueError("webp decode failed")
    try:
        return ctypes.string_at(p, w.value * h.value * 4), w.value, h.value
    finally:
        _webp.WebPFree(p)


# ---- zstd (flat one-shot API, zstd.h) -----------------------------------
# Beyond the reference's compression enum (Uncompressed|Gzip|Brotli,
# functions.rs:55-205): the PMTiles v3 spec allows tile_compression
# zstd (id 4), so real-world archives need it to mount at all.

_zstd = _load("libzstd.so.1", "libzstd.so", "libzstd.dylib")
HAVE_ZSTD = _zstd is not None

if HAVE_ZSTD:
    _zstd.ZSTD_compressBound.restype = ctypes.c_size_t
    _zstd.ZSTD_compressBound.argtypes = [ctypes.c_size_t]
    _zstd.ZSTD_compress.restype = ctypes.c_size_t
    _zstd.ZSTD_compress.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.c_char_p, ctypes.c_size_t, ctypes.c_int]
    _zstd.ZSTD_decompress.restype = ctypes.c_size_t
    _zstd.ZSTD_decompress.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t]
    _zstd.ZSTD_getFrameContentSize.restype = ctypes.c_ulonglong
    _zstd.ZSTD_getFrameContentSize.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t]
    _zstd.ZSTD_isError.restype = ctypes.c_uint
    _zstd.ZSTD_isError.argtypes = [ctypes.c_size_t]
    _zstd.ZSTD_getErrorCode.restype = ctypes.c_int
    _zstd.ZSTD_getErrorCode.argtypes = [ctypes.c_size_t]

_ZSTD_CONTENTSIZE_UNKNOWN = (1 << 64) - 1  # -1 as unsigned long long
_ZSTD_CONTENTSIZE_ERROR = (1 << 64) - 2
_ZSTD_ERROR_DST_TOO_SMALL = 70  # zstd_errors.h ZSTD_error_dstSize_tooSmall


def zstd_compress(data: bytes, level: int = 3) -> bytes:
    """One-shot zstd encode; level fixed by callers for deterministic
    bytes (same build -> same output)."""
    if not HAVE_ZSTD:
        raise RuntimeError("libzstd not available")
    cap = _zstd.ZSTD_compressBound(len(data))
    out = ctypes.create_string_buffer(cap)
    n = _zstd.ZSTD_compress(out, cap, data, len(data), int(level))
    if _zstd.ZSTD_isError(n):
        raise ValueError("zstd compression failed")
    return out.raw[:n]


def zstd_decompress(data: bytes) -> bytes:
    """One-shot zstd decode; frames without a stored content size
    (streaming writers) retry with a doubling buffer."""
    if not HAVE_ZSTD:
        raise RuntimeError("libzstd not available")
    size = _zstd.ZSTD_getFrameContentSize(data, len(data))
    if size == _ZSTD_CONTENTSIZE_ERROR:
        raise ValueError("not a zstd frame")
    if size != _ZSTD_CONTENTSIZE_UNKNOWN:
        out = ctypes.create_string_buffer(max(int(size), 1))
        n = _zstd.ZSTD_decompress(out, int(size), data, len(data))
        if _zstd.ZSTD_isError(n) or n != size:
            raise ValueError("zstd decompression failed")
        return out.raw[:n]
    # unknown content size (streaming writer): grow ONLY on
    # dstSize_tooSmall — any other error is a corrupt frame and must
    # not burn gigabytes of retry allocations; cap at 1024x the
    # compressed size (beyond any real tile payload's ratio)
    cap = max(len(data) * 4, 1 << 16)
    limit = min(max(len(data) * 1024, 1 << 20), 1 << 31)
    while cap <= limit:
        out = ctypes.create_string_buffer(cap)
        n = _zstd.ZSTD_decompress(out, cap, data, len(data))
        if not _zstd.ZSTD_isError(n):
            return out.raw[:n]
        if _zstd.ZSTD_getErrorCode(n) != _ZSTD_ERROR_DST_TOO_SMALL:
            raise ValueError("zstd decompression failed (corrupt frame)")
        cap *= 4
    raise ValueError("zstd decompression failed (frame too large)")


# ---- AVIF (encode-only, matching the reference's write-only use:
# versatiles_image/src/format/avif.rs "Decoding is intentionally not
# implemented") -----------------------------------------------------------

_avif = _load("libavif.so.15", "libavif.so", "libavif.dylib")


class _AvifRGBImage(ctypes.Structure):
    # libavif 0.11.x avifRGBImage (avif.h); layout verified at runtime
    # by _avif_layout_ok below before any encode is attempted.
    _fields_ = [
        ("width", ctypes.c_uint32), ("height", ctypes.c_uint32),
        ("depth", ctypes.c_uint32), ("format", ctypes.c_int),
        ("chromaUpsampling", ctypes.c_int), ("chromaDownsampling", ctypes.c_int),
        ("avoidLibYUV", ctypes.c_int), ("ignoreAlpha", ctypes.c_int),
        ("alphaPremultiplied", ctypes.c_int), ("isFloat", ctypes.c_int),
        ("pixels", ctypes.POINTER(ctypes.c_uint8)), ("rowBytes", ctypes.c_uint32),
    ]


class _AvifRWData(ctypes.Structure):
    _fields_ = [("data", ctypes.POINTER(ctypes.c_uint8)), ("size", ctypes.c_size_t)]


# avifEncoder field offsets IN INT32 UNITS, for libavif 0.11.x only.
# Probed empirically on this image (see FIXTURES.md): maxThreads=1,
# speed=2; setting index 7 to 63 shrinks output (maxQuantizer), index
# 6 to 63 with max 0 errors min>max (minQuantizer) — consistent with
# the 0.11 header order codecChoice, maxThreads, speed,
# keyframeInterval, timescale(u64), minQuantizer, maxQuantizer,
# minQuantizerAlpha, maxQuantizerAlpha.
_AVIF_IDX = {"maxThreads": 1, "speed": 2, "minQ": 6, "maxQ": 7,
             "minQAlpha": 8, "maxQAlpha": 9}

if _avif is not None:
    _avif.avifVersion.restype = ctypes.c_char_p
    _avif.avifImageCreate.restype = ctypes.c_void_p
    _avif.avifImageCreate.argtypes = [ctypes.c_uint32] * 3 + [ctypes.c_int]
    _avif.avifRGBImageSetDefaults.restype = None
    _avif.avifRGBImageSetDefaults.argtypes = [
        ctypes.POINTER(_AvifRGBImage), ctypes.c_void_p]
    _avif.avifImageRGBToYUV.restype = ctypes.c_int
    _avif.avifImageRGBToYUV.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(_AvifRGBImage)]
    _avif.avifEncoderCreate.restype = ctypes.c_void_p
    _avif.avifEncoderCreate.argtypes = []
    _avif.avifEncoderWrite.restype = ctypes.c_int
    _avif.avifEncoderWrite.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(_AvifRWData)]
    _avif.avifRWDataFree.argtypes = [ctypes.POINTER(_AvifRWData)]
    _avif.avifEncoderDestroy.restype = None
    _avif.avifEncoderDestroy.argtypes = [ctypes.c_void_p]
    _avif.avifImageDestroy.restype = None
    _avif.avifImageDestroy.argtypes = [ctypes.c_void_p]
    _avif.avifResultToString.restype = ctypes.c_char_p


def _avif_layout_ok() -> bool:
    """Struct-layout sanity probe: SetDefaults must echo the image's
    dims through our _AvifRGBImage fields, and the library must be the
    0.11.x ABI the encoder offsets were probed against."""
    if _avif is None:
        return False
    if not _avif.avifVersion().decode().startswith("0.11"):
        return False
    img = _avif.avifImageCreate(7, 5, 8, 3)
    try:
        rgb = _AvifRGBImage()
        _avif.avifRGBImageSetDefaults(ctypes.byref(rgb), img)
        return (rgb.width, rgb.height, rgb.depth) == (7, 5, 8)
    finally:
        _avif.avifImageDestroy(img)


HAVE_AVIF = _avif_layout_ok()

_AVIF_YUV420 = 3  # avifPixelFormat


def avif_encode(rgba: bytes, width: int, height: int,
                quality: int = 90, speed: int = 10) -> bytes:
    """Encode 8-bit RGBA to AVIF via the system libavif (libaom).

    quality 0..99 maps to the min/max quantizer by the public libavif
    rule q = ((100 - quality) * 63 + 50) / 100; speed 1..10 as in the
    reference's encoder mapping (avif.rs)."""
    if not HAVE_AVIF:
        raise RuntimeError("libavif not available (or unknown ABI)")
    assert len(rgba) == width * height * 4, "rgba buffer size mismatch"
    img = _avif.avifImageCreate(width, height, 8, _AVIF_YUV420)
    enc = None
    try:
        rgb = _AvifRGBImage()
        _avif.avifRGBImageSetDefaults(ctypes.byref(rgb), img)
        cbuf = ctypes.create_string_buffer(rgba, len(rgba))
        rgb.pixels = ctypes.cast(cbuf, ctypes.POINTER(ctypes.c_uint8))
        rgb.rowBytes = width * 4
        r = _avif.avifImageRGBToYUV(img, ctypes.byref(rgb))
        if r:
            raise ValueError(f"avif RGB->YUV failed: {_avif.avifResultToString(r).decode()}")
        enc = _avif.avifEncoderCreate()
        i32 = ctypes.cast(enc, ctypes.POINTER(ctypes.c_int32))
        q = ((100 - int(quality)) * 63 + 50) // 100
        i32[_AVIF_IDX["maxThreads"]] = 1
        i32[_AVIF_IDX["speed"]] = int(speed)
        i32[_AVIF_IDX["minQ"]] = q
        i32[_AVIF_IDX["maxQ"]] = q
        out = _AvifRWData()
        r = _avif.avifEncoderWrite(enc, img, ctypes.byref(out))
        if r:
            raise ValueError(f"avif encode failed: {_avif.avifResultToString(r).decode()}")
        try:
            return ctypes.string_at(out.data, out.size)
        finally:
            _avif.avifRWDataFree(ctypes.byref(out))
    finally:
        if enc:
            _avif.avifEncoderDestroy(enc)
        _avif.avifImageDestroy(img)
