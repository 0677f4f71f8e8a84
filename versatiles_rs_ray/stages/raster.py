"""Raster transform stages over (z, x, y, payload, width, height) tables.

Ray-Data reformulations of the reference raster VPL ops (SURVEY.md
§2.4): stateless map_batches for per-tile ops, the hash exchange for
the 2x2 overview reduction, flat-map for overscale. Payloads stay
encoded (raw RGBA here) across stage boundaries; decode happens only
inside the kernel that needs pixels (SURVEY.md §7.4 hard part 4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import raster
from .assign import pack_tkey, unpack_tkey


def _map_payloads(batch: pa.Table, fn) -> pa.Table:
    payloads = batch["payload"].to_pylist()
    widths = np.asarray(batch["width"], dtype=np.int64)
    heights = np.asarray(batch["height"], dtype=np.int64)
    out = [
        raster.from_array(fn(raster.to_array(p, int(w), int(h))))
        for p, w, h in zip(payloads, widths, heights)
    ]
    idx = batch.schema.get_field_index("payload")
    return batch.set_column(idx, "payload", pa.array(out, type=pa.binary()))


def raster_levels(ds, brightness=0.0, contrast=1.0, gamma=1.0):
    """Per-pixel levels adjustment (raster_levels.rs:61-74)."""
    return ds.map_batches(
        lambda t: _map_payloads(t, lambda a: raster.levels(a, brightness, contrast, gamma)),
        batch_format="pyarrow",
    )


def raster_flatten(ds, bg=(255, 255, 255)):
    """Composite translucent tiles onto an opaque background
    (raster_flatten.rs:54-68; only applied when alpha present)."""

    def fn(a):
        return a if raster.is_opaque(a) else raster.flatten_onto(a, bg)

    return ds.map_batches(lambda t: _map_payloads(t, fn), batch_format="pyarrow")


def raster_format(ds, fmt, quality_schedule=None, speed=None,
                  codec: str = "auto"):
    """Transcode with per-zoom quality (raster_format.rs:83-167).

    The schedule parser is the exact reference port. ``fmt="png"``
    emits REAL encoded tiles via the pure-stdlib codec (core/png.py,
    auto mode-narrowing, deterministic bytes; PNG is lossless so the
    quality value is ignored — reference parity with
    versatiles_image/src/format/png.rs). ``fmt="jpg"`` likewise emits
    real baseline JPEG (core/jpeg.py) with the per-zoom quality
    driving the quantization tables (default 95, translucent tiles
    rejected — run raster_flatten first; reference parity with
    versatiles_image/src/format/jpeg.rs). ``fmt="webp"`` and
    ``fmt="avif"`` bind the system libwebp/libavif via ctypes
    (core/native.py) with the reference quality semantics (webp.rs:
    q>=100 lossless; avif.rs: encode-only, lossless rejected).

    ``codec`` (default "auto") routes JPEG encoding through the
    compiled libjpeg shim (~40x per tile; core/imgshim.py) whenever
    the shim's probe-time self-check against the pure decoder passed
    — the 100-TB conversion path runs native by default. Bytes are
    deterministic per host+libjpeg version but differ from the pure
    encoder; pass ``codec="pure"`` for the engine's cross-host
    byte-determinism contract (PNG output is pure and bit-identical
    under every codec setting).
    """
    schedule = raster.parse_quality_schedule(quality_schedule)

    def fn(batch: pa.Table) -> pa.Table:
        z = np.asarray(batch["z"], dtype=np.int64)
        payloads = batch["payload"].to_pylist()
        widths = np.asarray(batch["width"], dtype=np.int64)
        heights = np.asarray(batch["height"], dtype=np.int64)
        out = [
            raster.encode(
                raster.decode(p, raster.RAW_FORMAT, int(w), int(h)),
                fmt,
                quality=schedule[int(zi)],
                codec=codec,
            )
            for p, w, h, zi in zip(payloads, widths, heights, z)
        ]
        idx = batch.schema.get_field_index("payload")
        t = batch.set_column(idx, "payload", pa.array(out, type=pa.binary()))
        col = pa.array([fmt] * len(out), type=pa.string())
        if "format" in t.column_names:
            t = t.set_column(t.schema.get_field_index("format"), "format", col)
        else:
            t = t.append_column("format", col)
        return t

    return ds.map_batches(fn, batch_format="pyarrow")


def raster_overscale(ds, delta: int = 1):
    """Synthesize zoom z+delta from base tiles: 1 -> 4^delta flat-map
    (raster_overscale.rs:80-124)."""

    def fn(batch: pa.Table) -> pa.Table:
        z = np.asarray(batch["z"], dtype=np.int64)
        x = np.asarray(batch["x"], dtype=np.int64)
        y = np.asarray(batch["y"], dtype=np.int64)
        widths = np.asarray(batch["width"], dtype=np.int64)
        heights = np.asarray(batch["height"], dtype=np.int64)
        payloads = batch["payload"].to_pylist()
        zs, xs, ys, ps, ws, hs = [], [], [], [], [], []
        n = 1 << delta
        for zi, xi, yi, p, w, h in zip(z, x, y, payloads, widths, heights):
            arr = raster.to_array(p, int(w), int(h))
            for dy in range(n):
                for dx in range(n):
                    cx = (int(xi) << delta) + dx
                    cy = (int(yi) << delta) + dy
                    sub = raster.extract_upsample(arr, cx, cy, delta)
                    zs.append(int(zi) + delta)
                    xs.append(cx)
                    ys.append(cy)
                    ps.append(raster.from_array(sub))
                    ws.append(int(w))
                    hs.append(int(h))
        return pa.table(
            {
                "z": pa.array(zs, type=pa.int64()),
                "x": pa.array(xs, type=pa.int64()),
                "y": pa.array(ys, type=pa.int64()),
                "payload": pa.array(ps, type=pa.binary()),
                "width": pa.array(ws, type=pa.int64()),
                "height": pa.array(hs, type=pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _overview_combine(table: pa.Table) -> pa.Table:
    """Per-partition: group children by parent key, mosaic 2x2."""
    pkey = np.asarray(table["pkey"], dtype=np.int64)
    x = np.asarray(table["x"], dtype=np.int64)
    y = np.asarray(table["y"], dtype=np.int64)
    widths = np.asarray(table["width"], dtype=np.int64)
    payloads = table["payload"].to_pylist()
    order = np.argsort(pkey, kind="stable")
    zs, xs, ys, ps, ws, hs = [], [], [], [], [], []
    i = 0
    while i < len(order):
        j = i
        children = {}
        while j < len(order) and pkey[order[j]] == pkey[order[i]]:
            idx = order[j]
            size = int(widths[idx])
            arr = raster.to_array(payloads[idx], size, size)
            children[(int(x[idx]) & 1, int(y[idx]) & 1)] = arr
            j += 1
        z_p, x_p, y_p = unpack_tkey(pkey[order[i]])
        size = int(widths[order[i]])
        out = raster.mosaic_2x2(children, size)
        zs.append(int(z_p))
        xs.append(int(x_p))
        ys.append(int(y_p))
        ps.append(raster.from_array(out))
        ws.append(size)
        hs.append(size)
        i = j
    return pa.table(
        {
            "z": pa.array(zs, type=pa.int64()),
            "x": pa.array(xs, type=pa.int64()),
            "y": pa.array(ys, type=pa.int64()),
            "payload": pa.array(ps, type=pa.binary()),
            "width": pa.array(ws, type=pa.int64()),
            "height": pa.array(hs, type=pa.int64()),
        }
    )


def _stack_combine(*sources: pa.Table) -> pa.Table:
    """Per-partition: group by tile key, composite in source order with
    the opaque short-circuit (from_stacked_raster.rs:57-74)."""
    # a source with no rows may arrive column-less; it adds nothing here
    table = pa.concat_tables(sources, promote_options="default")
    tkey = np.asarray(table["tkey"], dtype=np.int64)
    rank = np.repeat(np.arange(len(sources)), [t.num_rows for t in sources])
    widths = np.asarray(table["width"], dtype=np.int64)
    payloads = table["payload"].to_pylist()
    order = np.lexsort((rank, tkey))
    zs, xs, ys, ps, ws, hs = [], [], [], [], [], []
    i = 0
    while i < len(order):
        j = i
        out = None
        while j < len(order) and tkey[order[j]] == tkey[order[i]]:
            idx = order[j]
            size = int(widths[idx])
            arr = raster.to_array(payloads[idx], size, size)
            if out is None:
                out = arr.copy()
            else:
                # later (higher-rank) sources fill under the current image
                out = raster.overlay(arr, out)
            j += 1
            if raster.is_opaque(out):
                break  # short-circuit: remaining sources invisible
        while j < len(order) and tkey[order[j]] == tkey[order[i]]:
            j += 1  # skip remaining sources for this tile
        z, x, y = unpack_tkey(tkey[order[i]])
        zs.append(int(z))
        xs.append(int(x))
        ys.append(int(y))
        ps.append(raster.from_array(out))
        ws.append(out.shape[1])
        hs.append(out.shape[0])
        i = j
    return pa.table(
        {
            "z": pa.array(zs, type=pa.int64()),
            "x": pa.array(xs, type=pa.int64()),
            "y": pa.array(ys, type=pa.int64()),
            "payload": pa.array(ps, type=pa.binary()),
            "width": pa.array(ws, type=pa.int64()),
            "height": pa.array(hs, type=pa.int64()),
        }
    )


def stacked_raster(sources, num_partitions: int = 8):
    """N-ary alpha-blend per tile key: source-over compositing in
    source order with short-circuit when opaque — from_stacked_raster
    as a hash-exchange co-group. ``sources`` = ordered list of tile
    Datasets (first = topmost, like the reference's source order).
    """
    from .exchange import hash_exchange
    from .stack import tile_keyed

    return hash_exchange(tile_keyed(sources), "tkey", _stack_combine,
                         num_partitions=num_partitions)


def raster_overview_level(ds, num_partitions: int = 8):
    """One overview step: level z tiles -> level z-1 mosaics.

    The reference walks a DepthFirst traversal with a Push/Pop cache
    (raster_overview.rs:36-240); here each level is one hash exchange
    on the parent tile key with the mosaic in the combiner. Group size
    is bounded (<= 4 children), so partition memory = 4 tiles x
    rows/num_partitions — the raster analogue of the 32x32 block bound.
    """
    from .exchange import hash_exchange

    def add_parent_key(batch: pa.Table) -> pa.Table:
        z = np.asarray(batch["z"], dtype=np.int64)
        x = np.asarray(batch["x"], dtype=np.int64)
        y = np.asarray(batch["y"], dtype=np.int64)
        pkey = pack_tkey(z - 1, x >> 1, y >> 1)
        return batch.append_column("pkey", pa.array(pkey, type=pa.int64()))

    keyed = ds.map_batches(add_parent_key, batch_format="pyarrow")
    return hash_exchange(keyed, "pkey", _overview_combine, num_partitions=num_partitions)


def raster_overview(ds, z_from: int, z_to: int, num_partitions: int = 8):
    """Full overview cascade z_from -> z_to (exclusive of input level).

    Returns {z: Dataset}; each level derives from the one above.
    """
    levels = {z_from: ds}
    for z in range(z_from, z_to, -1):
        levels[z - 1] = raster_overview_level(levels[z], num_partitions)
    return levels


# ---------------------------------------------------------------- algebra

def _alg_absdiff(a, b):
    return np.abs(a.astype(np.int16) - b.astype(np.int16)).astype(np.uint8)


def _alg_add(a, b):
    return np.minimum(a.astype(np.int16) + b.astype(np.int16),
                      255).astype(np.uint8)


def _alg_mask_gt(a, b):
    return (a > b).astype(np.uint8) * np.uint8(255)


ALGEBRA_OPS = {
    "absdiff": _alg_absdiff,
    "add": _alg_add,          # saturating
    "min": np.minimum,
    "max": np.maximum,
    "mask_gt": _alg_mask_gt,  # 255 where a > b else 0
}


def _algebra_combine(a: pa.Table, b: pa.Table, op: str) -> pa.Table:
    """Per tkey-partition: pair each tile key's A and B images and
    apply the per-pixel op to the RGB bands (alpha forced opaque — a
    band difference is data, not coverage). Tiles present on only one
    side drop (inner-join semantics); duplicate tiles on one side and
    mismatched dimensions raise."""
    fn = ALGEBRA_OPS[op]
    if not (a.num_rows and b.num_rows):
        # inner join: nothing matches (an input with no rows may arrive
        # column-less, so both sides take the other's empty schema)
        a = b = (a if a.num_columns else b).slice(0, 0)
    ka, kb = (np.asarray(t["tkey"], dtype=np.int64) for t in (a, b))
    for k in (ka, kb):
        k = np.sort(k)
        dup = k[1:][k[1:] == k[:-1]]
        if len(dup):
            z, x, y = unpack_tkey(dup[0])
            raise ValueError(
                f"raster_algebra: duplicate tile {int(z)}/{int(x)}/"
                f"{int(y)} on one side — inputs must be tile-unique")
    # inner join: unmatched tile keys drop; rows in tile-key order
    both, ia, ib = np.intersect1d(ka, kb, return_indices=True)
    wa, ha = (np.asarray(a[c], dtype=np.int64)[ia] for c in ("width", "height"))
    wb, hb = (np.asarray(b[c], dtype=np.int64)[ib] for c in ("width", "height"))
    bad = np.flatnonzero((wa != wb) | (ha != hb))
    if len(bad):
        i = bad[0]
        z, x, y = unpack_tkey(both[i])
        raise ValueError(
            f"raster_algebra: size mismatch at {int(z)}/{int(x)}/"
            f"{int(y)}: {int(wa[i])}x{int(ha[i])} vs "
            f"{int(wb[i])}x{int(hb[i])}")
    pa_a = a["payload"].take(pa.array(ia, type=pa.int64())).to_pylist()
    pa_b = b["payload"].take(pa.array(ib, type=pa.int64())).to_pylist()
    ps = []
    for i in range(len(both)):
        img_a = raster.to_array(pa_a[i], int(wa[i]), int(ha[i]))
        img_b = raster.to_array(pa_b[i], int(wa[i]), int(ha[i]))
        out = np.empty_like(img_a)
        out[..., :3] = fn(img_a[..., :3], img_b[..., :3])
        out[..., 3] = 255
        ps.append(raster.from_array(out))
    z, x, y = unpack_tkey(both)
    return pa.table({
        "z": pa.array(z, type=pa.int64()),
        "x": pa.array(x, type=pa.int64()),
        "y": pa.array(y, type=pa.int64()),
        "payload": pa.array(ps, type=pa.binary()),
        "width": pa.array(wa, type=pa.int64()),
        "height": pa.array(ha, type=pa.int64()),
    })


def raster_algebra(a_ds, b_ds, op: str, num_partitions: int = 8):
    """Raster map algebra (the gdal_calc operation): per-pixel band
    arithmetic between two tile pyramids zip-joined on (z, x, y) —
    ONE hash exchange on the packed tile key co-locates each tile's
    A and B images, the combine applies the vectorized op per pixel.
    ops: absdiff | add (saturating) | min | max | mask_gt. Inner-join
    semantics: tiles present on only one side drop. Shuffle volume is
    |A| + |B| tile rows, exactly once, under any partitioning — the
    same scale shape as stacked_raster."""
    import functools

    from .exchange import hash_exchange
    from .stack import tile_keyed

    if op not in ALGEBRA_OPS:
        raise ValueError(
            f"raster_algebra: op {op!r}: want one of {sorted(ALGEBRA_OPS)}")
    return hash_exchange(
        tile_keyed([a_ds, b_ds],
                   columns=["z", "x", "y", "payload", "width", "height"]),
        "tkey", functools.partial(_algebra_combine, op=op),
        num_partitions=num_partitions)


# ---------------------------------------------------------------- focal

def _focal_rows(batch: pa.Table, radius: int) -> pa.Table:
    """Each tile emits itself to its own tkey plus an r-wide edge strip
    to each of its (up to) 8 existing neighbors — the halo exchange of
    every distributed stencil computation. Strip payloads are
    radius*size (edges) or radius^2 (corners) bytes x4 channels: tiny
    next to the tile itself, so shuffle volume is ~|tiles| rows + 8
    small strip rows per tile."""
    z = np.asarray(batch["z"], dtype=np.int64)
    x = np.asarray(batch["x"], dtype=np.int64)
    y = np.asarray(batch["y"], dtype=np.int64)
    widths = np.asarray(batch["width"], dtype=np.int64)
    heights = np.asarray(batch["height"], dtype=np.int64)
    payloads = batch["payload"].to_pylist()
    r = radius
    out = {"tkey": [], "rel_dx": [], "rel_dy": [], "payload": [],
           "w": [], "h": [], "size": []}
    for i in range(len(z)):
        s = int(widths[i])
        if int(heights[i]) != s:
            raise ValueError("focal_mean_tiles: tiles must be square")
        if r > s:
            # halos only come from the 8 IMMEDIATE neighbors; a window
            # reaching into the second ring would silently miss data
            # (and the edge slices would wrap) — fail loudly instead
            raise ValueError(
                f"focal_mean_tiles: radius {r} exceeds tile size {s} — "
                "the halo exchange covers one neighbor ring only")
        arr = raster.to_array(payloads[i], s, s)
        n = 1 << int(z[i])
        out["tkey"].append(int(pack_tkey(z[i], x[i], y[i])))
        out["rel_dx"].append(0)
        out["rel_dy"].append(0)
        out["payload"].append(payloads[i])
        out["w"].append(s)
        out["h"].append(s)
        out["size"].append(s)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = int(x[i]) + dx, int(y[i]) + dy
                if not (0 <= nx < n and 0 <= ny < n):
                    continue  # no wraparound at the level edge
                # the strip the neighbor needs from us: our edge FACING
                # it — the neighbor below (dy=+1, tile y grows south)
                # gets our bottom rows, the one to the right our
                # rightmost columns
                rows = slice(s - r, s) if dy == 1 else (
                    slice(0, r) if dy == -1 else slice(0, s))
                cols = slice(s - r, s) if dx == 1 else (
                    slice(0, r) if dx == -1 else slice(0, s))
                strip = np.ascontiguousarray(arr[rows, cols])
                out["tkey"].append(int(pack_tkey(z[i], nx, ny)))
                # our position relative to the RECEIVING center
                out["rel_dx"].append(-dx)
                out["rel_dy"].append(-dy)
                out["payload"].append(strip.tobytes())
                out["w"].append(strip.shape[1])
                out["h"].append(strip.shape[0])
                out["size"].append(s)
    return pa.table({
        "tkey": pa.array(out["tkey"], type=pa.int64()),
        "rel_dx": pa.array(out["rel_dx"], type=pa.int64()),
        "rel_dy": pa.array(out["rel_dy"], type=pa.int64()),
        "payload": pa.array(out["payload"], type=pa.binary()),
        "w": pa.array(out["w"], type=pa.int64()),
        "h": pa.array(out["h"], type=pa.int64()),
        "size": pa.array(out["size"], type=pa.int64()),
    })


def _focal_combine(table: pa.Table, radius: int) -> pa.Table:
    """Per center tile: place own pixels + neighbor halo strips on a
    zero-padded canvas, then the (2r+1)^2 windowed SUM by shifted-view
    accumulation and the exact integer mean sum // count, where count
    is the number of PRESENT pixels in the window (matches GDAL's
    in-bounds semantics when the level is fully populated)."""
    empty = pa.table({
        "z": pa.array([], type=pa.int64()),
        "x": pa.array([], type=pa.int64()),
        "y": pa.array([], type=pa.int64()),
        "payload": pa.array([], type=pa.binary()),
        "width": pa.array([], type=pa.int64()),
        "height": pa.array([], type=pa.int64()),
    })
    if table.num_rows == 0:
        return empty
    tkey = np.asarray(table["tkey"], dtype=np.int64)
    rdx = np.asarray(table["rel_dx"], dtype=np.int64)
    rdy = np.asarray(table["rel_dy"], dtype=np.int64)
    ws = np.asarray(table["w"], dtype=np.int64)
    hs = np.asarray(table["h"], dtype=np.int64)
    sizes = np.asarray(table["size"], dtype=np.int64)
    payloads = table["payload"].to_pylist()
    order = np.argsort(tkey, kind="stable")
    r = radius
    zs, xs, ys, ps, wo, ho = [], [], [], [], [], []
    i = 0
    while i < len(order):
        j = i
        center = None
        strips = []
        seen_rel = set()
        while j < len(order) and tkey[order[j]] == tkey[order[i]]:
            g = order[j]
            rel = (int(rdx[g]), int(rdy[g]))
            if rel in seen_rel:
                z, x, y = unpack_tkey(tkey[g])
                raise ValueError(
                    f"focal_mean_tiles: duplicate tile contribution at "
                    f"{int(z)}/{int(x)}/{int(y)} rel={rel} — input tiles "
                    "must be unique per (z, x, y)")
            seen_rel.add(rel)
            if rel == (0, 0):
                center = g
            else:
                strips.append(g)
            j += 1
        k0 = order[i]
        i = j
        if center is None:
            continue  # halo strips for an absent tile drop
        s = int(sizes[center])
        pad = np.zeros((s + 2 * r, s + 2 * r, 4), dtype=np.int64)
        mask = np.zeros((s + 2 * r, s + 2 * r), dtype=np.int64)
        arr = raster.to_array(payloads[center], s, s)
        pad[r:r + s, r:r + s] = arr
        mask[r:r + s, r:r + s] = 1
        for g in strips:
            sw, sh = int(ws[g]), int(hs[g])
            strip = np.frombuffer(payloads[g], dtype=np.uint8) \
                .reshape(sh, sw, 4)
            # rel is the strip OWNER's position relative to this center
            r0 = 0 if rdy[g] == -1 else (r + s if rdy[g] == 1 else r)
            c0 = 0 if rdx[g] == -1 else (r + s if rdx[g] == 1 else r)
            pad[r0:r0 + sh, c0:c0 + sw] = strip
            mask[r0:r0 + sh, c0:c0 + sw] = 1
        ssum = np.zeros((s, s, 4), dtype=np.int64)
        cnt = np.zeros((s, s), dtype=np.int64)
        for dy in range(2 * r + 1):
            for dx in range(2 * r + 1):
                ssum += pad[dy:dy + s, dx:dx + s]
                cnt += mask[dy:dy + s, dx:dx + s]
        outp = np.empty((s, s, 4), dtype=np.uint8)
        outp[..., :3] = (ssum[..., :3] // cnt[..., None]).astype(np.uint8)
        outp[..., 3] = 255
        z, x, y = unpack_tkey(tkey[k0])
        zs.append(int(z))
        xs.append(int(x))
        ys.append(int(y))
        ps.append(raster.from_array(outp))
        wo.append(s)
        ho.append(s)
    if not zs:
        return empty
    return pa.table({
        "z": pa.array(zs, type=pa.int64()),
        "x": pa.array(xs, type=pa.int64()),
        "y": pa.array(ys, type=pa.int64()),
        "payload": pa.array(ps, type=pa.binary()),
        "width": pa.array(wo, type=pa.int64()),
        "height": pa.array(ho, type=pa.int64()),
    })


def focal_mean_tiles(ds, radius: int = 1, num_partitions: int = 8):
    """Focal (moving-window) mean over a tiled raster level with
    cross-tile halos — the GDAL focal-statistics / convolution shape
    as a distributed stencil: each tile ships its r-wide edge strips
    to the 8 neighbors, ONE hash exchange on the tile key co-locates
    every tile with its halo, and the combine computes the exact
    integer (2r+1)^2 windowed mean (sum // count over PRESENT pixels;
    zero-padding beyond the level edge, GDAL in-bounds semantics).
    RGB filtered, alpha forced opaque. Deterministic integers end to
    end — SQL-mirrorable over closed-form fixtures."""
    import functools

    from .exchange import hash_exchange

    if radius < 1:
        raise ValueError(f"focal_mean_tiles: radius must be >= 1, got {radius}")
    rows = ds.map_batches(functools.partial(_focal_rows, radius=radius),
                          batch_format="pyarrow")
    return hash_exchange(rows, "tkey",
                         functools.partial(_focal_combine, radius=radius),
                         num_partitions=num_partitions)
