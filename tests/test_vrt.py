"""GDAL VRT mosaic reader (sources/vrt.py) — the mosaic front-door of
from_gdal_raster."""

import numpy as np
import pytest

from versatiles_rs_ray.sources.geotiff import read_raster_source

from oracles import write_tiff
from versatiles_rs_ray.sources.vrt import looks_like_vrt, read_vrt

GT = (-180.0, 360.0 / 8, 0.0, 90.0, 0.0, -180.0 / 4)


def _tile(w, h, base):
    yy, xx = np.mgrid[0:h, 0:w]
    arr = np.zeros((h, w, 3), np.uint8)
    arr[..., 0] = (base + xx) % 256
    arr[..., 1] = (base + yy * 3) % 256
    arr[..., 2] = base
    return arr


def _two_tile_vrt(tmp_path, rel=True, srs='EPSG:4326'):
    left, right = _tile(4, 4, 10), _tile(4, 4, 200)
    (tmp_path / "l.tif").write_bytes(write_tiff(left, geotransform=GT, epsg=4326))
    (tmp_path / "r.tif").write_bytes(write_tiff(right, geotransform=GT, epsg=4326))
    bands = []
    for b in (1, 2, 3):
        srcs = "".join(
            f'<SimpleSource>'
            f'<SourceFilename relativeToVRT="{int(rel)}">{name}</SourceFilename>'
            f'<SourceBand>{b}</SourceBand>'
            f'<SrcRect xOff="0" yOff="0" xSize="4" ySize="4"/>'
            f'<DstRect xOff="{dx}" yOff="0" xSize="4" ySize="4"/>'
            f'</SimpleSource>'
            for name, dx in ((("l.tif" if rel else str(tmp_path / "l.tif")), 0),
                             (("r.tif" if rel else str(tmp_path / "r.tif")), 4)))
        bands.append(f'<VRTRasterBand dataType="Byte" band="{b}">{srcs}'
                     f'</VRTRasterBand>')
    xml = (f'<VRTDataset rasterXSize="8" rasterYSize="4">'
           f'<SRS>{srs}</SRS>'
           f'<GeoTransform>{", ".join(str(v) for v in GT)}</GeoTransform>'
           f'{"".join(bands)}</VRTDataset>')
    p = tmp_path / "mosaic.vrt"
    p.write_text(xml)
    return p, np.concatenate([left, right], axis=1)


def test_vrt_mosaic_matches_concat(tmp_path):
    p, want = _two_tile_vrt(tmp_path)
    g = read_vrt(p)
    assert g.array.shape == (4, 8, 3)
    np.testing.assert_array_equal(g.array, want)
    assert g.geotransform == GT and g.epsg == 4326 and g.model_type == 2


def test_vrt_dispatch_and_sniff(tmp_path):
    p, want = _two_tile_vrt(tmp_path, rel=False)
    g = read_raster_source(str(p))  # .vrt extension + content sniff
    np.testing.assert_array_equal(g.array, want)
    assert looks_like_vrt(b'  <?xml version="1.0"?>\n<VRTDataset ')
    assert looks_like_vrt(b"<VRTDataset rasterXSize")
    assert not looks_like_vrt(b"<svg xmlns=")
    # bytes input with base_dir
    p2, want2 = _two_tile_vrt(tmp_path, rel=True)
    g2 = read_vrt(p2.read_bytes(), base_dir=str(tmp_path))
    np.testing.assert_array_equal(g2.array, want2)
    with pytest.raises(NotImplementedError, match="base_dir"):
        read_vrt(p2.read_bytes())


def test_vrt_wkt_srs(tmp_path):
    wkt = ('PROJCS["WGS 84 / Pseudo-Mercator",GEOGCS["WGS 84",'
           'AUTHORITY["EPSG","4326"]],AUTHORITY["EPSG","3857"]]')
    p, _ = _two_tile_vrt(tmp_path, srs=wkt)
    g = read_vrt(p)
    assert g.epsg == 3857 and g.model_type == 1


def test_vrt_window_resample_and_nodata(tmp_path):
    src = _tile(4, 2, 5)
    (tmp_path / "s.tif").write_bytes(write_tiff(src, geotransform=GT, epsg=4326))
    # 2x nearest upscale of a 2x2 window into the left half; right half
    # stays at the band NoDataValue
    xml = (f'<VRTDataset rasterXSize="8" rasterYSize="4">'
           f'<GeoTransform>{", ".join(str(v) for v in GT)}</GeoTransform>'
           f'<VRTRasterBand dataType="Byte" band="1">'
           f'<NoDataValue>7</NoDataValue>'
           f'<ComplexSource>'
           f'<SourceFilename relativeToVRT="1">s.tif</SourceFilename>'
           f'<SourceBand>2</SourceBand>'
           f'<SrcRect xOff="1" yOff="0" xSize="2" ySize="2"/>'
           f'<DstRect xOff="0" yOff="0" xSize="4" ySize="4"/>'
           f'</ComplexSource>'
           f'</VRTRasterBand></VRTDataset>')
    p = tmp_path / "win.vrt"
    p.write_text(xml)
    g = read_vrt(p)
    window = src[0:2, 1:3, 1]
    want = np.full((4, 8), 7, np.uint8)
    want[:, :4] = np.repeat(np.repeat(window, 2, axis=0), 2, axis=1)
    np.testing.assert_array_equal(g.array[:, :, 0], want)


def test_vrt_nested(tmp_path):
    p, want = _two_tile_vrt(tmp_path)
    outer = (f'<VRTDataset rasterXSize="8" rasterYSize="4">'
             f'<SRS>EPSG:4326</SRS>'
             f'<GeoTransform>{", ".join(str(v) for v in GT)}</GeoTransform>'
             + "".join(
                 f'<VRTRasterBand dataType="Byte" band="{b}">'
                 f'<SimpleSource>'
                 f'<SourceFilename relativeToVRT="1">mosaic.vrt</SourceFilename>'
                 f'<SourceBand>{b}</SourceBand>'
                 f'</SimpleSource></VRTRasterBand>' for b in (1, 2, 3))
             + '</VRTDataset>')
    po = tmp_path / "outer.vrt"
    po.write_text(outer)
    np.testing.assert_array_equal(read_vrt(po).array, want)


def test_vrt_gates(tmp_path):
    (tmp_path / "s.tif").write_bytes(
        write_tiff(_tile(2, 2, 1), geotransform=GT, epsg=4326))
    base = ('<VRTDataset rasterXSize="2" rasterYSize="2">{gt}'
            '<VRTRasterBand dataType="{dt}" band="1">{src}</VRTRasterBand>'
            '</VRTDataset>')
    gt = f'<GeoTransform>{", ".join(str(v) for v in GT)}</GeoTransform>'
    src = ('<SimpleSource>'
           '<SourceFilename relativeToVRT="1">s.tif</SourceFilename>'
           '</SimpleSource>')
    cases = [
        (base.format(gt="", dt="Byte", src=src), "GeoTransform"),
        (base.format(gt=gt, dt="Float32", src=src), "dataType"),
        (base.format(gt=gt, dt="Byte", src=src.replace(
            "<SimpleSource>",
            "<ComplexSource><ScaleRatio>2</ScaleRatio>").replace(
            "</SimpleSource>", "</ComplexSource>")), "scaling"),
    ]
    for xml, msg in cases:
        p = tmp_path / "bad.vrt"
        p.write_text(xml)
        with pytest.raises(NotImplementedError, match=msg):
            read_vrt(p)


def test_vrt_vpl_from_gdal_raster(ray_session, tmp_path):
    """A two-tile VRT mosaic through the full from_gdal_raster VPL op
    must produce the same z1 tiles as the SAME pixels in one TIFF."""
    from versatiles_rs_ray.pipelines.vpl import build_pipeline

    yy, xx = np.mgrid[0:64, 0:128]
    arr = np.zeros((64, 128, 4), np.uint8)
    arr[..., 0] = (xx * 2) % 256
    arr[..., 1] = (yy * 4) % 256
    arr[..., 3] = 255
    dx, dy = 360.0 / 128, -180.0 / 64
    whole_gt = (-180.0, dx, 0.0, 90.0, 0.0, dy)
    (tmp_path / "whole.tif").write_bytes(
        write_tiff(arr, geotransform=whole_gt, epsg=4326))
    (tmp_path / "w.tif").write_bytes(
        write_tiff(arr[:, :64], geotransform=whole_gt, epsg=4326))
    (tmp_path / "e.tif").write_bytes(
        write_tiff(arr[:, 64:], geotransform=(0.0, dx, 0.0, 90.0, 0.0, dy),
                   epsg=4326))
    bands = "".join(
        f'<VRTRasterBand dataType="Byte" band="{b}">' + "".join(
            f'<SimpleSource>'
            f'<SourceFilename relativeToVRT="1">{nm}</SourceFilename>'
            f'<SourceBand>{b}</SourceBand>'
            f'<DstRect xOff="{off}" yOff="0" xSize="64" ySize="64"/>'
            f'</SimpleSource>' for nm, off in (("w.tif", 0), ("e.tif", 64)))
        + '</VRTRasterBand>' for b in (1, 2, 3, 4))
    (tmp_path / "m.vrt").write_text(
        f'<VRTDataset rasterXSize="128" rasterYSize="64">'
        f'<SRS>EPSG:4326</SRS>'
        f'<GeoTransform>{", ".join(str(v) for v in whole_gt)}</GeoTransform>'
        f'{bands}</VRTDataset>')
    rows_vrt = {(r["x"], r["y"]): r["payload"] for r in build_pipeline(
        f'from_gdal_raster filename="{tmp_path / "m.vrt"}" tile_size="8" '
        'level_min="1" level_max="1"').take_all()}
    rows_tif = {(r["x"], r["y"]): r["payload"] for r in build_pipeline(
        f'from_gdal_raster filename="{tmp_path / "whole.tif"}" tile_size="8" '
        'level_min="1" level_max="1"').take_all()}
    assert set(rows_vrt) == set(rows_tif) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for k in rows_tif:
        assert rows_vrt[k] == rows_tif[k]


def test_vrt_offcanvas_dst_clips(tmp_path):
    src = _tile(4, 4, 50)
    (tmp_path / "s.tif").write_bytes(write_tiff(src, geotransform=GT, epsg=4326))
    xml = (f'<VRTDataset rasterXSize="4" rasterYSize="4">'
           f'<GeoTransform>{", ".join(str(v) for v in GT)}</GeoTransform>'
           f'<VRTRasterBand dataType="Byte" band="1">'
           f'<SimpleSource>'
           f'<SourceFilename relativeToVRT="1">s.tif</SourceFilename>'
           f'<SourceBand>1</SourceBand>'
           f'<DstRect xOff="-2" yOff="1" xSize="4" ySize="4"/>'
           f'</SimpleSource></VRTRasterBand></VRTDataset>')
    p = tmp_path / "neg.vrt"
    p.write_text(xml)
    g = read_vrt(p)
    want = np.zeros((4, 4), np.uint8)
    want[1:4, 0:2] = src[0:3, 2:4, 0]  # off-canvas part clipped, like GDAL
    np.testing.assert_array_equal(g.array[:, :, 0], want)
