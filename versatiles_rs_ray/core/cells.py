"""Discrete-global-grid cell indexes: S2 cell ids and geohash.

The graft's north rule calls for H3/S2 encoding of document points
(BASELINE.json north_star). S2 is implemented here from the published
s2geometry algorithm (quadratic cube-face projection + Hilbert curve
position with 4-bit lookup tables) fully vectorized in numpy, so
`map_batches` stages can compute millions of cell ids per second per
core. H3 is out of scope: its tables come from the `h3` package,
which this environment does not ship.

Reference analogue: the tile/bbox pyramid keys of versatiles
(versatiles_core/src/types/tile_coord.rs, tile_hilbert_index.rs) —
S2 plays the same role as a spatial partition/sort key on the sphere.
"""

from __future__ import annotations

import numpy as np

S2_MAX_LEVEL = 30
_LOOKUP_BITS = 4
_SWAP = 0x01
_INVERT = 0x02
_POS_TO_ORIENT = [_SWAP, 0, 0, _INVERT + _SWAP]
_POS_TO_IJ = [
    [0, 1, 3, 2],
    [0, 2, 3, 1],
    [3, 2, 0, 1],
    [3, 1, 0, 2],
]


def _build_lookup_tables():
    lookup_pos = np.zeros(1 << (2 * _LOOKUP_BITS + 2), dtype=np.uint64)
    lookup_ij = np.zeros(1 << (2 * _LOOKUP_BITS + 2), dtype=np.uint64)
    # iterative version of s2geometry's InitLookupCell, seeded with all
    # four initial orientations (0, swap, invert, swap|invert)
    stack = [
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, _SWAP, _SWAP, 0),
        (0, 0, 0, _INVERT, _INVERT, 0),
        (0, 0, 0, _SWAP | _INVERT, _SWAP | _INVERT, 0),
    ]  # level, i, j, orig_orientation, orientation, pos
    while stack:
        level, i, j, orig, orient, pos = stack.pop()
        if level == _LOOKUP_BITS:
            ij = (i << _LOOKUP_BITS) + j
            lookup_pos[(ij << 2) + orig] = (pos << 2) + orient
            lookup_ij[(pos << 2) + orig] = (ij << 2) + orient
        else:
            level += 1
            i <<= 1
            j <<= 1
            pos <<= 2
            r = _POS_TO_IJ[orient]
            for idx in range(4):
                stack.append(
                    (
                        level,
                        i + (r[idx] >> 1),
                        j + (r[idx] & 1),
                        orig,
                        orient ^ _POS_TO_ORIENT[idx],
                        pos + idx,
                    )
                )
    return lookup_pos, lookup_ij


_LOOKUP_POS, _LOOKUP_IJ = _build_lookup_tables()


def _lonlat_to_xyz(lon, lat):
    lon = np.radians(np.asarray(lon, dtype=np.float64))
    lat = np.radians(np.asarray(lat, dtype=np.float64))
    cos_lat = np.cos(lat)
    return cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)


def _xyz_to_face_uv(x, y, z):
    x, y, z = np.atleast_1d(x, y, z)
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay, np.where(ax >= az, 0, 2), np.where(ay >= az, 1, 2))
    major = np.choose(face, [x, y, z])
    face = np.where(major < 0, face + 3, face).astype(np.int64)
    u = np.empty_like(x)
    v = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for f, (ue, ve, de) in enumerate(
            [
                (y, z, x),  # +x
                (-x, z, y),  # +y
                (-x, -y, z),  # +z
                (z, y, x),  # -x  (u = z/x, v = y/x with x<0)
                (z, -x, y),  # -y
                (-y, -x, z),  # -z
            ]
        ):
            m = face == f
            u[m] = (ue / de)[m]
            v[m] = (ve / de)[m]
    return face, u, v


def _uv_to_st(u):
    """Quadratic projection (s2geometry S2::UVtoST)."""
    u = np.asarray(u, dtype=np.float64)
    return np.where(u >= 0.0, 0.5 * np.sqrt(1.0 + 3.0 * u), 1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u))


def _st_to_ij(s):
    ij = np.floor(np.asarray(s) * (1 << S2_MAX_LEVEL)).astype(np.int64)
    return np.clip(ij, 0, (1 << S2_MAX_LEVEL) - 1)


def s2_cell_id(lon, lat, level=S2_MAX_LEVEL):
    """Vectorized S2 cell id (uint64-as-int64) for lon/lat degrees.

    Leaf id per s2geometry FromFaceIJ, then snapped to ``level`` via the
    standard parent operation. Returned as int64 (ids fit: face<=5 so
    the top bit is never set).
    """
    fx, fy, fz = _lonlat_to_xyz(lon, lat)
    face, u, v = _xyz_to_face_uv(fx, fy, fz)
    i = _st_to_ij(_uv_to_st(u)).astype(np.uint64)
    j = _st_to_ij(_uv_to_st(v)).astype(np.uint64)
    face = face.astype(np.uint64)

    n = face << np.uint64(60)
    bits = face & np.uint64(_SWAP)
    mask = np.uint64((1 << _LOOKUP_BITS) - 1)
    for k in range(7, -1, -1):
        ks = np.uint64(k * _LOOKUP_BITS)
        bits += ((i >> ks) & mask) << np.uint64(_LOOKUP_BITS + 2)
        bits += ((j >> ks) & mask) << np.uint64(2)
        bits = _LOOKUP_POS[bits]
        n |= (bits >> np.uint64(2)) << np.uint64(k * 2 * _LOOKUP_BITS)
        bits &= np.uint64(_SWAP | _INVERT)
    leaf = n * np.uint64(2) + np.uint64(1)
    return s2_parent(leaf.astype(np.int64), level)


def s2_parent(cell_id, level):
    """Ancestor cell at ``level`` (s2geometry S2CellId::parent)."""
    cid = np.asarray(cell_id, dtype=np.uint64)
    new_lsb = np.uint64(1) << np.uint64(2 * (S2_MAX_LEVEL - level))
    neg = (~new_lsb) + np.uint64(1)  # two's-complement -new_lsb
    return ((cid & neg) | new_lsb).astype(np.int64)


def s2_token(cell_id):
    """Canonical hex token: 16 hex digits with trailing zeros stripped."""
    cid = np.atleast_1d(np.asarray(cell_id, dtype=np.uint64))
    return np.asarray([format(int(c), "016x").rstrip("0") or "X" for c in cid.tolist()], dtype=object)


# ----------------------------------------------------------------------
# Geohash (public spec: Niemeyer 2008; base32 bisection encoding).
# Implemented directly from the published algorithm as pure integer
# bit arithmetic — no lookup tables beyond the 32-char alphabet — so
# unlike H3 (gated above) it is fully reconstructible offline AND
# exactly mirrorable in SQL: quantize each axis once, interleave bits
# (even positions from the MSB are longitude), group 5 bits per
# base32 character. The direct quantization floor((x - lo) / range *
# 2^bits) is algebraically the classic per-bit bisection unrolled.
# ----------------------------------------------------------------------

GEOHASH_ALPHABET = b"0123456789bcdefghjkmnpqrstuvwxyz"


def geohash_bits(precision: int) -> tuple[int, int]:
    """(lon_bits, lat_bits) for a precision in characters; lon leads."""
    nbits = 5 * precision
    return (nbits + 1) // 2, nbits // 2


def geohash_encode(lon, lat, precision: int = 9):
    """Vectorized geohash of lon/lat arrays -> object array of strings.

    precision <= 12 keeps the interleaved integer within uint64. The
    float chain is exactly ((x + off) / range) * 2^bits then floor —
    the SQL mirror (queries._sql_geohash) writes the identical chain,
    so quantized integers match bit-for-bit.
    """
    if not 1 <= precision <= 12:
        raise ValueError("geohash precision must be in 1..12")
    lon = np.atleast_1d(np.asarray(lon, dtype=np.float64))
    lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
    lon_bits, lat_bits = geohash_bits(precision)
    nbits = lon_bits + lat_bits
    lq = np.floor((lon + 180.0) / 360.0 * float(1 << lon_bits))
    # clamp BOTH ends: a coordinate a float-ulp below -180/-90 floors to
    # -1.0, which would wrap through the uint64 cast to the opposite edge
    lq = np.minimum(np.maximum(lq, 0.0),
                    float((1 << lon_bits) - 1)).astype(np.uint64)
    tq = np.floor((lat + 90.0) / 180.0 * float(1 << lat_bits))
    tq = np.minimum(np.maximum(tq, 0.0),
                    float((1 << lat_bits) - 1)).astype(np.uint64)
    gh = np.zeros(lon.shape, dtype=np.uint64)
    for k in range(nbits):  # k counts from the MSB; even slots = lon
        if k % 2 == 0:
            bit = (lq >> np.uint64(lon_bits - 1 - k // 2)) & np.uint64(1)
        else:
            bit = (tq >> np.uint64(lat_bits - 1 - k // 2)) & np.uint64(1)
        gh = (gh << np.uint64(1)) | bit
    alpha = np.frombuffer(GEOHASH_ALPHABET, dtype=np.uint8)
    idx = np.empty((lon.size, precision), dtype=np.uint64)
    for c in range(precision):
        idx[:, c] = (gh >> np.uint64(5 * (precision - 1 - c))) & np.uint64(31)
    codes = alpha[idx.astype(np.int64)]
    return np.asarray(
        [codes[i].tobytes().decode("ascii") for i in range(lon.size)],
        dtype=object,
    )


