"""GeoJSON/NDJSON surface, CSV side loader, dedup group resolution."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa

from versatiles_rs_ray.core import mvt
from versatiles_rs_ray.sources import geojson as GJ
from versatiles_rs_ray.stages import dedup


def test_csv_side_loader(tmp_path):
    # analogue of testdata/cities.csv (FIXTURES.md F4)
    path = tmp_path / "cities.csv"
    path.write_text("city_id,city_name,city_population\n1,Berlin,3755251\n2,Kyiv,2952301\n")
    side = GJ.load_csv_side(str(path), "city_id")
    assert side[1] == {"city_name": "Berlin", "city_population": 3755251}
    assert len(side) == 2


def test_ndjson_features_roundtrip(ray_session, tmp_path):
    feats = [
        {"type": "Feature", "id": i, "geometry": {"type": "Point", "coordinates": [i * 10.0, i * 5.0]},
         "properties": {"name": f"p{i}"}}
        for i in range(5)
    ]
    path = tmp_path / "f.ndjson"
    path.write_text("\n".join(json.dumps(f) for f in feats))
    ds = GJ.read_ndjson_features(str(path))
    df = ds.to_pandas().sort_values("feature_id").reset_index(drop=True)
    assert len(df) == 5
    assert df["lon"].tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
    out = GJ.features_to_geojson(df.to_dict("records"))
    doc = json.loads(out)
    assert doc["type"] == "FeatureCollection" and len(doc["features"]) == 5


def test_features_to_mvt(ray_session, tmp_path):
    feats = [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [10.0 + i, 20.0]},
         "properties": {"n": i}}
        for i in range(4)
    ]
    path = tmp_path / "f.ndjson"
    path.write_text("\n".join(json.dumps(f) for f in feats))
    ds = GJ.read_ndjson_features(str(path))
    tiles = GJ.features_to_mvt_tiles(ds, zoom=4, num_partitions=2).to_pandas()
    total = 0
    for _, row in tiles.iterrows():
        tile = mvt.decode_tile(row["payload"])
        total += len(tile["layers"][0]["features"])
    assert total == 4


def test_dup_groups_driver():
    pairs = pd.DataFrame({"doc_a": [1, 2, 10, 11], "doc_b": [2, 3, 11, 12]})
    got = dedup.dup_groups_driver(pairs).sort_values("doc_num")
    assert got["group_id"].tolist() == [1, 1, 1, 10, 10, 10]


def test_propagate_min_labels_matches_union_find(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(4)
    # chain components to force multi-round propagation
    pairs = [(i, i + 1) for i in range(0, 6)] + [(20, 21), (21, 22), (30, 31)]
    t = pa.table(
        {
            "doc_a": pa.array([p[0] for p in pairs], type=pa.int64()),
            "doc_b": pa.array([p[1] for p in pairs], type=pa.int64()),
        }
    )
    ds = rd.from_arrow(t)
    dist = (dedup.propagate_min_labels_exchange(ds).to_pandas()
            .sort_values("doc_num").reset_index(drop=True))
    brute = dedup.dup_groups_driver(
        pd.DataFrame({"doc_a": [p[0] for p in pairs], "doc_b": [p[1] for p in pairs]})
    ).sort_values("doc_num").reset_index(drop=True)
    assert dist.astype("int64").equals(brute.astype("int64"))


def test_features_to_mvt_lines_and_polygons(ray_session, tmp_path):
    """Line/polygon features encode real MVT command sequences and
    round-trip through the codec; cross-tile lines land in every tile
    their bbox touches."""
    feats = [
        {"type": "Feature", "geometry": {"type": "LineString",
         "coordinates": [[1.0, 1.0], [5.0, 3.0], [9.0, 1.0]]},
         "properties": {"name": "line"}},
        {"type": "Feature", "geometry": {"type": "Polygon",
         "coordinates": [[[20.0, 10.0], [24.0, 10.0], [24.0, 14.0],
                          [20.0, 14.0], [20.0, 10.0]]]},
         "properties": {"name": "poly"}},
        {"type": "Feature", "geometry": {"type": "Point",
         "coordinates": [40.0, 20.0]}, "properties": {"name": "pt"}},
        {"type": "Feature", "geometry": {"type": "MultiLineString",
         "coordinates": [[[60.0, 5.0], [61.0, 6.0]], [[62.0, 7.0], [63.0, 8.0]]]},
         "properties": {"name": "mline"}},
    ]
    path = tmp_path / "g.ndjson"
    path.write_text("\n".join(json.dumps(f) for f in feats))
    ds = GJ.read_ndjson_features(str(path))
    tiles = GJ.features_to_mvt_tiles(ds, zoom=6, num_partitions=2).to_pandas()
    by_name = {}
    for _, row in tiles.iterrows():
        tile = mvt.decode_tile(row["payload"])
        for layer in tile["layers"]:
            assert layer["extent"] == 4096
            for f in layer["features"]:
                by_name.setdefault(f["properties"]["name"], []).append(
                    (int(row["z"]), int(row["x"]), int(row["y"]), f)
                )
    # every feature present with the right geometry type
    assert by_name["line"][0][3]["type"] == mvt.GEOM_LINESTRING
    assert by_name["poly"][0][3]["type"] == mvt.GEOM_POLYGON
    assert by_name["pt"][0][3]["type"] == mvt.GEOM_POINT
    assert by_name["mline"][0][3]["type"] == mvt.GEOM_LINESTRING
    # per-tile CLIP semantics (core/clip): the tile holding the whole
    # line keeps all 3 vertices in one part; boundary tiles carry
    # clipped pieces whose coords stay inside the buffered extent
    assert any(len(g[3]["geometry"]) == 1 and len(g[3]["geometry"][0]) == 3
               for g in by_name["line"])
    for _, _, _, f in by_name["line"]:
        for part in f["geometry"]:
            for px, py in part:
                assert -65 <= px <= 4096 + 65 and -65 <= py <= 4096 + 65
    poly_parts = by_name["poly"][0][3]["geometry"]
    assert len(poly_parts) == 1 and len(poly_parts[0]) >= 4
    # the two mline segments live in different z6 tiles; after the
    # per-tile clip each tile carries only its own segment(s)
    assert sum(len(g[3]["geometry"]) for g in by_name["mline"]) >= 2
    assert all(len(part) == 2 for g in by_name["mline"]
               for part in g[3]["geometry"])
    # cross-tile: the z6 line spans lon 1..9 -> at least 2 tiles carry it
    assert len(by_name["line"]) >= 2
    # quantized coordinates in the anchor tile are inside the extent
    z, x, y, f = by_name["pt"][0]
    px, py = f["geometry"][0][0]
    assert 0 <= px < 4096 and 0 <= py < 4096


def test_features_to_mvt_geometry_roundtrip_exact(ray_session, tmp_path):
    """Quantized command-sequence encode->decode preserves every vertex
    (zigzag delta coding is exact for int coordinates)."""
    coords = [[0.1 * i, 0.05 * i] for i in range(20)]
    feats = [{"type": "Feature", "geometry": {"type": "LineString", "coordinates": coords},
              "properties": {}}]
    path = tmp_path / "l.ndjson"
    path.write_text("\n".join(json.dumps(f) for f in feats))
    tiles = GJ.features_to_mvt_tiles(
        GJ.read_ndjson_features(str(path)), zoom=3, num_partitions=2
    ).to_pandas()
    assert len(tiles) >= 1  # bbox may straddle a tile boundary
    full = 0
    for _, row in tiles.iterrows():
        tile = mvt.decode_tile(row["payload"])
        geom = tile["layers"][0]["features"][0]["geometry"]
        # the line's own tile keeps every vertex; boundary tiles
        # (buffer-clipped, core/clip) carry a strict subset
        if len(geom) == 1 and len(geom[0]) == 20:
            full += 1
        # re-encode -> identical bytes (deterministic codec)
        assert mvt.encode_tile(tile) == bytes(row["payload"])
    assert full == 1
