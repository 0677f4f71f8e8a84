"""GeoTIFF reader parity against the reference's own gradient.tif
goldens (versatiles_pipeline/src/operations/read/from_gdal/raster/
operation.rs:301-345: 7x7 pixel rows/cols at z0/z1 with max diff 1,
16x16 average colors per z1 quadrant)."""

import numpy as np
import pytest

from versatiles_rs_ray.sources.geotiff import GeoTIFF, read_geotiff
from versatiles_rs_ray.stages.reproject import SRSReprojector

from oracles import lzw_encode, packbits_encode, write_tiff

FIXTURE = "/root/reference/testdata/gradient.tif"


def _assert_same_vec(a, b, tol=1):
    a = np.asarray(a, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16)
    assert a.shape == b.shape and np.abs(a - b).max() <= tol, (a.tolist(), b.tolist())


def test_decode_reference_gradient():
    g = read_geotiff(FIXTURE)
    assert g.array.shape == (256, 256, 3)
    assert g.epsg == 4326 and g.model_type == 2
    # plate-carree world coverage: (0,0) -> (-180, 90), 360/256 x 180/256
    assert g.geotransform == (-180.0, 1.40625, 0.0, 90.0, 0.0, -0.703125)
    # the fixture encodes R = column index, G = row index, B = 0
    assert np.array_equal(g.array[0, :, 0], np.arange(256, dtype=np.uint8))
    assert np.array_equal(g.array[:, 0, 1], np.arange(256, dtype=np.uint8))
    assert (g.array[..., 2] == 0).all()


@pytest.mark.parametrize(
    "z,x,y,row,col",
    [
        # operation.rs:303-316 — row 3 of R (x-gradient), col 3 of G
        (0, 0, 0, [18, 54, 91, 127, 164, 201, 237], [12, 29, 67, 128, 188, 226, 243]),
        (1, 0, 0, [9, 27, 45, 64, 82, 100, 118], [9, 14, 22, 34, 52, 77, 110]),
        (1, 1, 0, [137, 155, 173, 192, 210, 228, 246], [9, 14, 22, 34, 52, 77, 110]),
        (1, 0, 1, [9, 27, 45, 64, 82, 100, 118], [145, 178, 203, 221, 233, 241, 246]),
        (1, 1, 1, [137, 155, 173, 192, 210, 228, 246], [145, 178, 203, 221, 233, 241, 246]),
    ],
)
def test_gradient_tile_goldens(z, x, y, row, col):
    g = read_geotiff(FIXTURE)
    rp = SRSReprojector(g.array, g.geotransform, g.epsg, tile_size=7,
                        resampling="average")
    tile = rp._reproject_one(z, x, y)  # (7, 7, 4)
    _assert_same_vec(tile[3, :, 0], row)
    _assert_same_vec(tile[:, 3, 1], col)
    assert (tile[..., 3] == 255).all()  # full coverage, opaque


def _triangle_1x1(tile):
    """The reference's `average_color` is NOT a mean: it is the image
    crate's Triangle-filter resize to 1x1 (operation.rs:101-104), i.e.
    a center-weighted triangle kernel with radius = tile size. Replicate
    that weighting so the golden comparison tests the warp, not the
    averaging artifact."""
    s = tile.shape[0]
    w = 1.0 - np.abs(np.arange(s) + 0.5 - s / 2) / s
    w /= w.sum()
    a = (tile[..., :3].astype(np.float64) * w[:, None, None]).sum(axis=0)
    return np.round((a * w[:, None]).sum(axis=0))


def test_gradient_average_colors():
    # operation.rs:330-343: 16x16 z1 tiles, average RGB per quadrant
    g = read_geotiff(FIXTURE)
    rp = SRSReprojector(g.array, g.geotransform, g.epsg, tile_size=16,
                        resampling="average")
    goldens = {(0, 0): [63, 43, 0], (1, 0): [192, 43, 0],
               (0, 1): [63, 212, 0], (1, 1): [192, 212, 0]}
    for (x, y), want in goldens.items():
        tile = rp._reproject_one(1, x, y)
        _assert_same_vec(_triangle_1x1(tile), want)


def test_vpl_from_gdal_raster_real_file(ray_session):
    from versatiles_rs_ray.core.raster import to_array
    from versatiles_rs_ray.pipelines.vpl import build_pipeline

    ds = build_pipeline(
        f'from_gdal_raster filename="{FIXTURE}" tile_size="16" '
        'level_min="1" level_max="1"'
    )
    rows = {(r["x"], r["y"]): r for r in ds.take_all()}
    assert set(rows) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    tile = to_array(rows[(1, 1)]["payload"], rows[(1, 1)]["width"],
                    rows[(1, 1)]["height"])
    _assert_same_vec(_triangle_1x1(tile), [192, 212, 0])


def test_writer_roundtrip_layouts():
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 256, (100, 130, 3), dtype=np.uint8)
    gt = (-180.0, 360 / 130, 0.0, 90.0, 0.0, -180 / 100)
    for tiled in (False, True):
        for compression in (1, 8):
            for predictor in (1, 2):
                if compression == 1 and predictor == 2:
                    continue  # predictor without compression is unusual; skip
                b = write_tiff(arr, geotransform=gt, epsg=4326, tiled=tiled,
                               compression=compression, predictor=predictor)
                g = read_geotiff(b)
                assert np.array_equal(g.array, arr), (tiled, compression, predictor)
                assert g.epsg == 4326
                assert np.allclose(g.geotransform, gt)


def test_grayscale_and_projected_keys():
    arr = np.arange(64 * 64, dtype=np.uint16).reshape(64, 64) % 256
    arr = arr.astype(np.uint8)
    gt = (399960.0, 10.0, 0.0, 4100020.0, 0.0, -10.0)  # UTM-ish
    b = write_tiff(arr, geotransform=gt, epsg=32633)
    g = read_geotiff(b)
    assert g.array.shape == (64, 64, 1)
    assert g.epsg == 32633 and g.model_type == 1
    assert np.array_equal(g.array[..., 0], arr)


def test_unsupported_gates():
    # Honest NotImplementedError gates, repo convention (no silent wrongness)
    bad = bytearray(open(FIXTURE, "rb").read())
    with pytest.raises(ValueError):
        read_geotiff(b"PK\x03\x04nope")
    g = read_geotiff(FIXTURE)
    assert isinstance(g, GeoTIFF)


def test_pixel_is_point_half_pixel_shift():
    # GDAL shifts the area-origin by half a pixel for PixelIsPoint DEMs
    import struct

    import versatiles_rs_ray.sources.geotiff as G

    arr = np.zeros((4, 4, 1), np.uint8)
    blob = bytearray(write_tiff(arr, geotransform=(10.0, 1.0, 0.0, 20.0, 0.0, -1.0),
                                epsg=4326))
    # patch RasterType key (1025) value from 1 (area) to 2 (point)
    b = bytes(blob)
    i = b.find(struct.pack("<HHHH", 1025, 0, 1, 1))
    assert i > 0
    blob[i:i + 8] = struct.pack("<HHHH", 1025, 0, 1, 2)
    g = G.read_geotiff(bytes(blob))
    assert g.raster_type == 2
    assert g.geotransform == (9.5, 1.0, 0.0, 20.5, 0.0, -1.0)


def test_unsupported_photometric_and_rotation():
    import struct

    import versatiles_rs_ray.sources.geotiff as G

    with pytest.raises(NotImplementedError, match="rotated"):
        write_tiff(np.zeros((4, 4, 3), np.uint8),
                   geotransform=(0, 1, 0.5, 0, 0.2, -1))
    blob = bytearray(write_tiff(np.zeros((4, 4, 1), np.uint8)))
    b = bytes(blob)
    i = b.find(struct.pack("<HHIHH", 262, 3, 1, 1, 0))  # photometric=1
    assert i > 0
    blob[i:i + 10] = struct.pack("<HHIHH", 262, 3, 1, 4, 0)  # transparency mask
    with pytest.raises(NotImplementedError, match="photometric"):
        G.read_geotiff(bytes(blob))
    blob[i:i + 10] = struct.pack("<HHIHH", 262, 3, 1, 3, 0)  # palette, no ColorMap
    with pytest.raises(NotImplementedError, match="ColorMap"):
        G.read_geotiff(bytes(blob))


def test_wgs84_reprojector_rgb_source(ray_session):
    # 3-channel sources must normalize to RGBA payloads (rgba-raw)
    from versatiles_rs_ray.core.raster import to_array
    from versatiles_rs_ray.stages.reproject import WGS84Reprojector

    src = np.zeros((8, 16, 3), np.uint8)
    src[..., 0] = 200
    rp = WGS84Reprojector(src, tile_size=4)
    tile = rp._reproject_one(0, 0, 0)
    assert tile.shape == (4, 4, 4)
    assert (tile[..., 0] == 200).all() and (tile[..., 3] == 255).all()


def test_16bit_bigtiff_planar_roundtrips():
    """Round 3: 16-bit unsigned/signed samples (DEM case), BigTIFF
    (magic 43) and planar configuration 2 — the from_gdal_raster
    any-raster posture (reference operation.rs:56-221) beyond 8-bit
    chunky classic TIFF."""
    rng = np.random.default_rng(11)
    gt = (-180.0, 360 / 90, 0.0, 90.0, 0.0, -180 / 70)
    u16 = rng.integers(0, 1 << 16, (70, 90, 1), dtype=np.uint16)
    i16 = rng.integers(-12000, 9000, (70, 90, 1)).astype(np.int16)  # DEM range
    rgb8 = rng.integers(0, 256, (70, 90, 3), dtype=np.uint8)
    cases = [
        (u16, dict()),                       # classic strips, deflate+pred2
        (u16, dict(tiled=True)),             # classic tiles
        (i16, dict()),                       # signed DEM
        (i16, dict(bigtiff=True, tiled=True)),
        (u16, dict(bigtiff=True)),
        (rgb8, dict(bigtiff=True)),          # BigTIFF with 8-bit RGB
        (rgb8, dict(planar=2)),              # separate planes, strips
        (rgb8, dict(planar=2, tiled=True)),  # separate planes, tiles
        (i16, dict(predictor=1, compression=1)),  # raw, no predictor
    ]
    for arr, kw in cases:
        b = write_tiff(arr, geotransform=gt, epsg=4326, **kw)
        g = read_geotiff(b)
        assert g.array.dtype == arr.dtype, kw
        assert np.array_equal(g.array, arr), kw
        assert np.allclose(g.geotransform, gt)


def test_16bit_dem_through_srs_reprojector(ray_session):
    """Exact-value goldens: a synthetic int16 DEM warped by
    SRSReprojector (nearest) must reproduce the exact source samples
    the plate-carree inverse mapping selects, dtype preserved."""
    h, w = 64, 128
    dem = (np.arange(h * w, dtype=np.int64).reshape(h, w) % 20000 - 10000).astype(np.int16)
    gt = (-180.0, 360.0 / w, 0.0, 90.0, 0.0, -180.0 / h)
    b = write_tiff(dem, geotransform=gt, epsg=4326, bigtiff=True)
    g = read_geotiff(b)
    assert g.array.dtype == np.int16 and np.array_equal(g.array[..., 0], dem)
    rp = SRSReprojector(g.array, g.geotransform, g.epsg, tile_size=32)
    tile = rp._reproject_one(1, 0, 0).reshape(32, 32, 4)
    assert tile.dtype == np.int16
    # golden: nearest sample at each mercator pixel center (independent
    # recomputation of the inverse mapping)
    s = 32
    fx = (0 + (np.arange(s) + 0.5) / s) / 2.0
    fy = (0 + (np.arange(s) + 0.5) / s) / 2.0
    lon = (fx - 0.5) * 360.0
    lat = (np.arctan(np.exp(np.pi * (1.0 - 2.0 * fy))) / np.pi - 0.25) * 360.0
    ci = np.floor((lon + 180.0) / (360.0 / w)).astype(np.int64)
    ri = np.floor((90.0 - lat) / (180.0 / h)).astype(np.int64)
    want = dem[ri[:, None], ci[None, :]]
    assert np.array_equal(tile[..., 0], want)
    assert (tile[..., 3] == np.iinfo(np.int16).max).all()  # opaque alpha


def test_packbits_spec_golden():
    """The TIFF 6.0 spec §9 worked example, verbatim: decoder must
    reproduce the spec's unpacked bytes from the spec's packed bytes
    (external golden, not a self-round-trip)."""
    import versatiles_rs_ray.sources.geotiff as G

    packed = bytes.fromhex("FEAA02 80002A FDAA03 80002A22 F7AA".replace(" ", ""))
    unpacked = bytes.fromhex(
        "AAAAAA 80002A AAAAAAAA 80002A22 AAAAAAAAAAAAAAAAAAAA".replace(" ", ""))
    assert G._packbits_decode(packed) == unpacked
    # round-trip through our own encoder too (packing may differ)
    assert G._packbits_decode(packbits_encode(unpacked)) == unpacked


def test_lzw_hand_computed_golden():
    """Hand-packed 9-bit MSB-first stream for input 07 07 07 08
    (codes Clear,7,258,8,EOI -> 0x80 0x01 0xE0 0x40 0x88 0x08),
    exercising the KwKwK case; computed bit-by-bit from TIFF 6.0 §13,
    independent of the encoder."""
    import versatiles_rs_ray.sources.geotiff as G

    golden = bytes([0x80, 0x01, 0xE0, 0x40, 0x88, 0x08])
    assert G._lzw_decode(golden) == b"\x07\x07\x07\x08"
    assert lzw_encode(b"\x07\x07\x07\x08") == golden


def test_lzw_width_transitions_roundtrip():
    """Data large/varied enough to push the code table through the
    9->10->11->12-bit transitions and a mid-stream Clear."""
    import versatiles_rs_ray.sources.geotiff as G

    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=60_000, dtype=np.uint8).tobytes()
    assert G._lzw_decode(lzw_encode(data)) == data
    runs = bytes(np.repeat(np.arange(256, dtype=np.uint8), 97))
    assert G._lzw_decode(lzw_encode(runs)) == runs


def test_tiff_lzw_packbits_roundtrip():
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(40, 50, 3), dtype=np.uint8)
    dem = rng.integers(-500, 8000, size=(33, 47), dtype=np.int16)
    for comp in (5, 32773):
        for arr, pred in ((rgb, 2), (rgb, 1), (dem, 2)):
            b = write_tiff(arr, compression=comp, predictor=pred)
            g = read_geotiff(b)
            want = arr if arr.ndim == 3 else arr[:, :, None]
            assert np.array_equal(g.array, want), (comp, pred, arr.dtype)


def test_palette_and_min_is_white():
    import versatiles_rs_ray.sources.geotiff as G

    idx = (np.arange(16 * 16, dtype=np.uint16).reshape(16, 16) % 256).astype(np.uint8)
    cmap = np.zeros((3, 256), np.uint16)
    cmap[0] = np.arange(256) * 257          # red ramp, exact 8-bit mapping
    cmap[1] = (255 - np.arange(256)) * 257  # green inverse ramp
    cmap[2, 7] = 65535                      # blue spike at index 7
    b = write_tiff(idx, colormap=cmap, compression=5)
    g = G.read_geotiff(b)
    assert g.array.shape == (16, 16, 3) and g.array.dtype == np.uint8
    assert np.array_equal(g.array[..., 0], idx)
    assert np.array_equal(g.array[..., 1], 255 - idx)
    assert np.array_equal(g.array[..., 2], np.where(idx == 7, 255, 0))

    grey = (np.arange(8 * 8, dtype=np.int64).reshape(8, 8) % 256).astype(np.uint8)
    b = write_tiff(grey, photometric=0, compression=32773)
    g = G.read_geotiff(b)
    assert np.array_equal(g.array[..., 0], 255 - grey)
    g16 = (np.arange(8 * 8, dtype=np.int64).reshape(8, 8) * 900 % 65536).astype(np.uint16)
    b = write_tiff(g16, photometric=0)
    g = G.read_geotiff(b)
    assert np.array_equal(g.array[..., 0], 65535 - g16)


def test_world_file_png_raster(tmp_path):
    """PNG + ESRI world file (+ .prj EPSG) opens like the equivalent
    GeoTIFF: same array, same GDAL geotransform (center-of-pixel world
    file convention -> half-pixel-shifted area origin)."""
    from versatiles_rs_ray.core.png import encode_png
    from versatiles_rs_ray.sources.geotiff import read_raster_source

    rng = np.random.default_rng(11)
    arr = rng.integers(0, 256, size=(32, 64, 4), dtype=np.uint8)
    arr[..., 3] = 255
    p = tmp_path / "w.png"
    p.write_bytes(encode_png(arr))
    # world file: dx=360/64, dy=-180/32, center of UL pixel
    dx, dy = 360.0 / 64, -180.0 / 32
    (tmp_path / "w.pgw").write_text(
        f"{dx}\n0.0\n0.0\n{dy}\n{-180 + dx / 2}\n{90 + dy / 2}\n")
    g = read_raster_source(str(p))
    assert np.array_equal(g.array, arr)
    assert np.allclose(g.geotransform, (-180.0, dx, 0.0, 90.0, 0.0, dy))
    assert g.epsg == 4326
    # .prj AUTHORITY wins over the default
    (tmp_path / "w.prj").write_text(
        'GEOGCS["WGS 84",DATUM["WGS_1984",SPHEROID["WGS 84",6378137,'
        '298.257223563,AUTHORITY["EPSG","7030"]],AUTHORITY["EPSG","6326"]],'
        'AUTHORITY["EPSG","4326"]]')
    assert read_raster_source(str(p)).epsg == 4326
    # explicit epsg overrides everything
    assert read_raster_source(str(p), epsg=3857).epsg == 3857


def test_world_file_vpl_from_gdal_raster(ray_session, tmp_path):
    """A world-file PNG through the full from_gdal_raster VPL op must
    produce the same z1 tiles as the SAME pixels shipped as GeoTIFF."""
    from versatiles_rs_ray.core.png import encode_png
    from versatiles_rs_ray.pipelines.vpl import build_pipeline

    yy, xx = np.mgrid[0:64, 0:128]
    arr = np.zeros((64, 128, 4), np.uint8)
    arr[..., 0] = (xx * 2) % 256
    arr[..., 1] = (yy * 4) % 256
    arr[..., 3] = 255
    png = tmp_path / "world.png"
    png.write_bytes(encode_png(arr))
    dx, dy = 360.0 / 128, -180.0 / 64
    (tmp_path / "world.pgw").write_text(
        f"{dx}\n0\n0\n{dy}\n{-180 + dx / 2}\n{90 + dy / 2}\n")
    tif = tmp_path / "world.tif"
    tif.write_bytes(write_tiff(arr, geotransform=(-180.0, dx, 0.0, 90.0, 0.0, dy),
                               epsg=4326))
    rows_png = {(r["x"], r["y"]): r["payload"] for r in build_pipeline(
        f'from_gdal_raster filename="{png}" tile_size="8" '
        'level_min="1" level_max="1"').take_all()}
    rows_tif = {(r["x"], r["y"]): r["payload"] for r in build_pipeline(
        f'from_gdal_raster filename="{tif}" tile_size="8" '
        'level_min="1" level_max="1"').take_all()}
    assert set(rows_png) == set(rows_tif) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for k in rows_tif:
        assert rows_png[k] == rows_tif[k]


def test_world_file_gates(tmp_path):
    import pytest as _pytest

    from versatiles_rs_ray.core.png import encode_png
    from versatiles_rs_ray.sources.geotiff import read_raster_source

    p = tmp_path / "nowf.png"
    p.write_bytes(encode_png(np.zeros((4, 4, 4), np.uint8)))
    with _pytest.raises(NotImplementedError, match="world file"):
        read_raster_source(str(p))
    (tmp_path / "nowf.pgw").write_text("1\n0\n0\n-1\n0.5\n-0.5\n")
    (tmp_path / "nowf.prj").write_text('PROJCS["local",UNIT["metre",1]]')
    with _pytest.raises(NotImplementedError, match="EPSG"):
        read_raster_source(str(p))


def test_jpeg_in_tiff_roundtrip():
    """Compression 7 (new-style JPEG), strip + tiled, with and without
    a shared JPEGTables tag (347) — the common satellite-export
    layout. Lossy codec: assert small per-pixel error on a smooth
    gradient, exact geo metadata."""
    yy, xx = np.mgrid[0:100, 0:130]
    arr = np.stack([
        (xx * 255 // 129), (yy * 255 // 99), ((xx + yy) * 255 // 228)
    ], axis=2).astype(np.uint8)
    gt = (-180.0, 360 / 130, 0.0, 90.0, 0.0, -180 / 100)
    for tiled in (False, True):
        for tables in (False, True):
            b = write_tiff(arr, geotransform=gt, epsg=4326, tiled=tiled,
                           compression=7, jpeg_tables=tables)
            g = read_geotiff(b)
            assert g.array.shape == arr.shape
            err = np.abs(g.array.astype(int) - arr.astype(int))
            assert err.mean() < 2.0 and err.max() <= 40, (tiled, tables)
            assert g.epsg == 4326 and np.allclose(g.geotransform, gt)
            if tables:
                # chunks really are abbreviated: tables appear once
                assert b.count(b"\xff\xc4") < arr.size  # sanity
    # greyscale single-sample path
    grey = (xx * 255 // 129).astype(np.uint8)[:, :, None]
    b = write_tiff(grey, geotransform=gt, epsg=4326, compression=7,
                   jpeg_tables=True)
    g = read_geotiff(b)
    assert g.array.shape == grey.shape
    assert np.abs(g.array.astype(int) - grey.astype(int)).mean() < 2.0


def test_jpeg_in_tiff_jpegtables_chunks_are_abbreviated():
    arr = np.full((32, 32, 3), 128, np.uint8)
    with_t = write_tiff(arr, compression=7, jpeg_tables=True)
    without = write_tiff(arr, compression=7, jpeg_tables=False)
    # hoisting DQT/DHT out of every chunk shrinks multi-chunk files
    assert len(with_t) < len(without)
    a = read_geotiff(with_t).array
    b = read_geotiff(without).array
    assert np.array_equal(a, b)  # same decoded pixels either way


def test_vpl_from_gdal_raster_jpeg_tiff(ray_session, tmp_path):
    """JPEG-compressed GeoTIFF through the full from_gdal_raster
    pipeline (reader -> warp pool -> tiles)."""
    from versatiles_rs_ray.core.raster import to_array
    from versatiles_rs_ray.pipelines.vpl import build_pipeline

    yy, xx = np.mgrid[0:128, 0:128]
    arr = np.stack([(xx * 2).astype(np.uint8), (yy * 2).astype(np.uint8),
                    np.full((128, 128), 99, np.uint8)], axis=2)
    gt = (-180.0, 360 / 128, 0.0, 90.0, 0.0, -180 / 128)
    p = tmp_path / "jpeg_geo.tif"
    p.write_bytes(write_tiff(arr, geotransform=gt, epsg=4326, tiled=True,
                             compression=7, jpeg_tables=True))
    ds = build_pipeline(
        f'from_gdal_raster filename="{p}" tile_size="16" '
        'level_min="1" level_max="1"'
    )
    rows = {(r["x"], r["y"]): r for r in ds.take_all()}
    assert set(rows) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    t = to_array(rows[(0, 0)]["payload"], rows[(0, 0)]["width"],
                 rows[(0, 0)]["height"])
    # left half of the image: low red, blue channel ~99 everywhere
    assert abs(int(t[..., 2].mean()) - 99) <= 3
    assert t[..., 0].mean() < 130


def test_world_file_albers_5070_from_gdal_raster(ray_session, tmp_path):
    """A world-file PNG in EPSG:5070 (NAD83 CONUS Albers, the new
    9822 family) with a .prj sidecar carrying the EPSG AUTHORITY:
    the full from_gdal_raster VPL op must resolve the CRS from the
    sidecar and warp it to the same z3 tiles as the SAME pixels
    shipped as a GeoTIFF with an inline EPSG code."""
    from versatiles_rs_ray.core.png import encode_png
    from versatiles_rs_ray.pipelines.vpl import build_pipeline

    # CONUS extent in Albers coordinates
    x0, x1 = -2_300_000.0, 2_200_000.0
    y1, y0 = 3_100_000.0, 300_000.0
    yy, xx = np.mgrid[0:64, 0:128]
    arr = np.zeros((64, 128, 4), np.uint8)
    arr[..., 0] = (xx * 2) % 256
    arr[..., 1] = (yy * 4) % 256
    arr[..., 2] = 64
    arr[..., 3] = 255
    dx, dy = (x1 - x0) / 128, -(y1 - y0) / 64
    png = tmp_path / "conus.png"
    png.write_bytes(encode_png(arr))
    (tmp_path / "conus.pgw").write_text(
        f"{dx}\n0\n0\n{dy}\n{x0 + dx / 2}\n{y1 + dy / 2}\n")
    (tmp_path / "conus.prj").write_text(
        'PROJCS["NAD83 / Conus Albers",GEOGCS["NAD83",DATUM["D",'
        'SPHEROID["GRS 1980",6378137,298.257222101]],'
        'AUTHORITY["EPSG","4269"]],PROJECTION["Albers_Conic_Equal_Area"],'
        'AUTHORITY["EPSG","5070"]]')
    tif = tmp_path / "conus.tif"
    tif.write_bytes(write_tiff(arr, geotransform=(x0, dx, 0.0, y1, 0.0, dy),
                               epsg=5070))
    rows_png = {(r["x"], r["y"]): r["payload"] for r in build_pipeline(
        f'from_gdal_raster filename="{png}" tile_size="16" '
        'level_min="3" level_max="3"').take_all()}
    rows_tif = {(r["x"], r["y"]): r["payload"] for r in build_pipeline(
        f'from_gdal_raster filename="{tif}" tile_size="16" '
        'level_min="3" level_max="3"').take_all()}
    assert rows_png and set(rows_png) == set(rows_tif)
    for k in rows_tif:
        assert rows_png[k] == rows_tif[k]
    # tiles with actual CONTENT (any opaque pixel; payloads are
    # rgba-raw at this stage) must sit in the North-America corner of
    # z3 — the warp put the Albers raster where CONUS is, nowhere else
    content = {k for k, p in rows_png.items()
               if np.frombuffer(p, np.uint8)[3::4].any()}
    assert content  # non-degenerate
    assert all(1 <= x <= 2 and 2 <= y <= 3 for x, y in content), content
