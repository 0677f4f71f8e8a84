"""Payload format sniffing + MIME map — the ONE copy.

Mirrors the reference's tile-format table
(versatiles_core/src/types/tile_format.rs) for the formats this engine
can produce or meet in the wild. Consumers: the deep probe
(stages/probe.py), the tile server (server.py), and the inline media
decoder (stages/multimodal.py).
"""

from __future__ import annotations

FORMAT_MIME = {
    "png": "image/png",
    "jpg": "image/jpeg",
    "jpeg": "image/jpeg",
    "webp": "image/webp",
    "avif": "image/avif",
    "tiff": "image/tiff",
    "gif": "image/gif",
    "bmp": "image/bmp",
    "wav": "audio/wav",
    "avi": "video/x-msvideo",
    "mov": "video/quicktime",
    "mvt": "application/x-protobuf",
    "pbf": "application/x-protobuf",
    "json": "application/json",
    "geojson": "application/geo+json",
    "bin": "application/octet-stream",
}


def sniff_format(payload: bytes) -> str:
    """bytes -> format name ('bin' when unknown).

    WEBP requires the full RIFF....WEBP signature — a bare RIFF prefix
    is WAV/AVI, not an image. MVT is recognized by its layer field tag
    (field 3, wire type 2)."""
    if payload[:4] == b"\x89PNG":
        return "png"
    if payload[:3] == b"\xff\xd8\xff":
        return "jpg"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
        return "webp"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "wav"
    if payload[:4] == b"RIFF" and payload[8:12] == b"AVI ":
        return "avi"
    if len(payload) > 11 and payload[4:12] == b"ftypavif":
        return "avif"
    if payload[:4] in (b"II*\x00", b"MM\x00*", b"II+\x00", b"MM\x00+"):
        return "tiff"  # classic and BigTIFF, either byte order
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    if payload[:2] == b"BM" and len(payload) > 17 and payload[14] >= 12:
        return "bmp"
    if payload[:1] == b"\x1a":
        return "mvt"
    if payload[:1] in (b"{", b"["):
        return "json"
    # ISO-BMFF / QuickTime: a box fourcc at offset 4 is a WEAK signal
    # (4 arbitrary bytes), so it ranks below every leading-magic
    # format above — an MVT/JSON payload whose bytes 4:8 happen to
    # spell 'mdat' must not be misrouted to the video demuxer
    if len(payload) > 11 and payload[4:8] in (b"ftyp", b"moov", b"mdat", b"wide",
                                              b"skip", b"free", b"styp", b"pnot"):
        return "mov"
    return "bin"


def sniff_mime(payload: bytes, fmt_hint: str | None = None) -> str:
    if fmt_hint and fmt_hint in FORMAT_MIME:
        return FORMAT_MIME[fmt_hint]
    return FORMAT_MIME[sniff_format(payload)]
