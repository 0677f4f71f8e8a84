"""CLI: the engine's `versatiles {convert,probe,pyramid,vpl}` surface.

Mirrors the reference binary's tools (versatiles/src/main.rs:78-90,
tools/convert.rs:63-124 flag handling) on Ray Data pipelines. This is
an OWNER of the Ray session (guarded init) — library code never is.

  python -m versatiles_rs_ray convert IN OUT [--bbox W,S,E,N]
         [--min-zoom Z] [--max-zoom Z] [--flip-y] [--swap-xy]
         [--compress {raw,gzip}]
  python -m versatiles_rs_ray probe IN
  python -m versatiles_rs_ray pyramid SF_DIR OUT [--z-base N] [--z-min N]
  python -m versatiles_rs_ray vpl "from_debug zmax=3 | filter ..." OUT
  python -m versatiles_rs_ray serve NAME=PATH [...] [--host H] [--port P]
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus=None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            logging_level="ERROR",
            **({"num_cpus": num_cpus} if num_cpus else {}),
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_convert(args):
    from versatiles_rs_ray.pipelines.vpl import open_container, write_container
    from versatiles_rs_ray.stages.filter import filter_bbox_zoom
    from versatiles_rs_ray.stages.transform import flip_y_ds, recompress_ds, swap_xy_ds

    ray = _ray_session(args.num_cpus)
    ds = open_container(args.input)
    if args.bbox or args.min_zoom is not None or args.max_zoom is not None:
        bbox = [float(v) for v in args.bbox.split(",")] if args.bbox else None
        ds = filter_bbox_zoom(ds, bbox=bbox, level_min=args.min_zoom,
                              level_max=args.max_zoom,
                              bbox_border=args.bbox_border)
    if args.flip_y:
        ds = flip_y_ds(ds)
    if args.swap_xy:
        ds = swap_xy_ds(ds)
    src_codec = args.override_input_compression or "raw"
    if args.compress and args.compress != src_codec:
        ds = recompress_ds(ds, "payload", src_codec, args.compress)
    elif args.override_input_compression and not args.compress:
        # override without a target: normalize payloads to raw
        ds = recompress_ds(ds, "payload", src_codec, "raw")
    rows = write_container(ds, args.output)
    print(json.dumps({"written": rows, "output": args.output}))
    ray.shutdown()


def cmd_probe(args):
    """Depths mirror the reference's ProbeDepth ladder (probe.rs:14-16):
    default = per-level pyramid scan; -d adds container metadata;
    -dd adds the distributed tile-contents scan (formats + MVT layers)."""
    from versatiles_rs_ray.pipelines.vpl import open_container
    from versatiles_rs_ray.stages.probe import infer_pyramid, probe_tile_contents

    ray = _ray_session(args.num_cpus)
    ds = open_container(args.input)
    levels = infer_pyramid(ds).to_pandas().sort_values("z")
    out = {
        "levels": levels.to_dict("records"),
        "total_tiles": int(levels["n_tiles"].sum()),
    }
    depth = getattr(args, "deep", 0) or 0
    if depth >= 1:
        if args.input.endswith(".versatiles"):
            from versatiles_rs_ray.sources.versatiles import (
                read_versatiles_header,
                read_versatiles_metadata,
            )

            hdr = read_versatiles_header(args.input)
            out["container"] = {
                "tile_format": hdr["tile_format"],
                "compression": hdr["compression"],
                "zoom_range": list(hdr["zoom_range"]),
                "geo_bbox": list(hdr["geo_bbox"]),
            }
            try:
                out["metadata"] = json.loads(read_versatiles_metadata(args.input))
            except Exception:
                pass
        elif args.input.endswith(".pmtiles"):
            from versatiles_rs_ray.sources.pmtiles import read_pmtiles_metadata

            out["metadata"] = read_pmtiles_metadata(args.input)
    if depth >= 2:
        contents = probe_tile_contents(ds).to_pandas().sort_values(
            ["z", "kind", "name"]
        )
        out["contents"] = contents.to_dict("records")
    print(json.dumps(out))
    ray.shutdown()


def cmd_zonal(args):
    """Zonal statistics over a tile container (gdal zonal-stats
    shape): per-zone count/sum/min/max of the pixels whose centers
    fall inside each lon/lat rect or polygon zone, decoded through
    whatever codec the container's tiles carry (magic-sniffed)."""
    from versatiles_rs_ray.pipelines.vpl import open_container
    from versatiles_rs_ray.stages.zonal import zonal_stats

    _ray_session(args.num_cpus)
    with open(args.zones) as f:
        zones = json.load(f)
    ds = open_container(args.input)
    if args.level is not None:
        import pyarrow.compute as pc

        lvl = int(args.level)

        def only_level(b, _l=lvl):
            return b.filter(pc.equal(b["z"], _l))

        ds = ds.map_batches(only_level, batch_format="pyarrow")
    band = args.band if args.band == "terrarium" else int(args.band)
    df = zonal_stats(ds, zones, band=band,
                     decoder="auto").to_pandas().sort_values("zone")
    if args.output:
        df.to_parquet(args.output)
    print(json.dumps({"zones": df.to_dict("records")}))
    return 0


def cmd_pyramid(args):
    from versatiles_rs_ray.pipelines.pyramid import build_and_write_pyramid

    ray = _ray_session(args.num_cpus)
    records = build_and_write_pyramid(
        args.sf_dir, args.output, z_base=args.z_base, z_min=args.z_min,
        replicate=args.replicate,
    )
    print(json.dumps({k: v["rows"] for k, v in sorted(records.items())}))
    ray.shutdown()


def cmd_status(args):
    """Inspect a resumable output's checkpoint manifest (no Ray):
    per-partition lineage + row/wall metrics, stale partitions, and
    whether a resume would skip or rebuild each partition."""
    import os

    from versatiles_rs_ray.state.manifest import Manifest

    path = os.path.join(args.output, "_manifest.jsonl")
    if not os.path.exists(path):
        print(json.dumps({"output": args.output, "partitions": 0,
                          "error": "no _manifest.jsonl"}))
        return 1
    recs = Manifest(args.output, "").latest()
    lineages = {}
    for p, r in sorted(recs.items()):
        lineages.setdefault(r.get("lineage", "?"), []).append(r)
    current = max(lineages, key=lambda k: len(lineages[k])) if lineages else None
    parts = []
    for p, r in sorted(recs.items()):
        on_disk = os.path.isdir(os.path.join(args.output, p))
        parts.append({
            "partition": p, "rows": r.get("rows"),
            "wall_s": r.get("wall_s"), "finished_at": r.get("finished_at"),
            "lineage": r.get("lineage"), "on_disk": on_disk,
            "state": ("missing-dir" if not on_disk else
                      "ok" if r.get("lineage") == current else "stale"),
        })
    print(json.dumps({
        "output": args.output,
        "partitions": len(parts),
        "rows_total": sum(p["rows"] or 0 for p in parts),
        "wall_s_total": round(sum(p["wall_s"] or 0 for p in parts), 3),
        "lineages": {k: len(v) for k, v in lineages.items()},
        "dominant_lineage": current,
        "stale": [p["partition"] for p in parts if p["state"] == "stale"],
        "missing_dirs": [p["partition"] for p in parts
                         if p["state"] == "missing-dir"],
        "parts": parts if args.verbose else None,
    }))
    return 0


def cmd_vpl(args):
    from versatiles_rs_ray.pipelines.vpl import build_pipeline, write_container

    ray = _ray_session(args.num_cpus)
    ds = build_pipeline(args.pipeline, sf_dir=args.sf_dir)
    rows = write_container(ds, args.output)
    print(json.dumps({"written": rows, "output": args.output}))
    ray.shutdown()


def cmd_serve(args):
    """Serve containers over HTTP (reference tools/serve.rs: each
    SOURCE is `path` or `name=path`, mounted at /tiles/{name})."""
    import os

    from versatiles_rs_ray.server import TileServer

    if not args.sources and not getattr(args, "config", None):
        raise SystemExit("serve: need at least one SOURCE or --config")
    if getattr(args, "config", None):
        from versatiles_rs_ray.config import server_from_config

        srv = server_from_config(args.config,
                                 skip_unreachable=args.skip_unreachable)
        # CLI host/port override the config only when EXPLICITLY given
        # (defaults are None here so passing the default value still
        # counts as explicit) — the reference's CLI-wins precedence
        if args.host is not None:
            srv.host = args.host
        if args.port is not None:
            srv.port = args.port
    else:
        srv = TileServer(host=args.host if args.host is not None else "127.0.0.1",
                         port=args.port if args.port is not None else 8080)
    import re as _re

    for spec in args.sources:
        # accepted forms (tools/serve.rs source syntax + our name=path):
        #   path[name]   [name]path   name=path   path
        m = _re.fullmatch(r"(.+)\[([^\]]+)\]", spec)
        m2 = _re.fullmatch(r"\[([^\]]+)\](.+)", spec)
        if m:
            path, name = m.group(1), m.group(2)
        elif m2:
            name, path = m2.group(1), m2.group(2)
        elif "=" in spec:
            name, path = spec.split("=", 1)
        else:
            name = os.path.basename(spec).rsplit(".", 1)[0]
            path = spec
        srv.add_tile_source(name, path)
    for spec in args.static or []:
        # first '=' splits PREFIX=PATH (same semantics as tile sources;
        # paths may themselves contain '=')
        prefix, sep, path = spec.partition("=")
        if not sep:
            prefix, path = "/", spec
        srv.add_static_source(path, url_prefix=prefix or "/")
    url = srv.start()
    print(json.dumps({"url": url, "sources": sorted(srv.sources)}), flush=True)
    try:
        import time

        if args.auto_shutdown:
            time.sleep(args.auto_shutdown / 1000.0)
            srv.shutdown()
            return
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        srv.shutdown()


def cmd_dev(args):
    """Dev tools (reference tools/dev.rs): measure-tile-sizes emits the
    scaled byte-sum grid (dev_tools/measure_tile_sizes.rs), export-
    outline the coverage MultiPolygon (dev_tools/export_outline.rs),
    print-tilejson the container's TileJSON (print_tilejson.rs)."""
    from versatiles_rs_ray.pipelines.vpl import open_container
    from versatiles_rs_ray.stages.probe import (
        coverage_outline_geojson,
        tile_size_histogram,
    )

    if args.tool == "print-tilejson":
        # metadata-only: no Ray session needed (print_tilejson.rs reads
        # the reader's tilejson, never the tile stream)
        from versatiles_rs_ray.core.tilejson import TileJSON
        from versatiles_rs_ray.sources.tiles_io import container_metadata

        tj = TileJSON.from_json(json.dumps(container_metadata(args.input)))
        doc = json.loads(tj.to_json())
        print(json.dumps(doc, sort_keys=True,
                         indent=2 if args.pretty else None))
        return

    ray = _ray_session(args.num_cpus)
    ds = open_container(args.input)
    if args.tool == "measure-tile-sizes":
        if args.output:
            # image parity path (measure_tile_sizes.rs:36-93): PNG only,
            # like the reference's extension ensure!()
            if not args.output.endswith(".png"):
                raise SystemExit("measure-tile-sizes: output must end in .png")
            from versatiles_rs_ray.stages.probe import measure_tile_sizes_image

            png = measure_tile_sizes_image(ds, level=args.level, scale=args.scale)
            with open(args.output, "wb") as f:
                f.write(png)
        else:
            out = tile_size_histogram(ds, scale_level=args.scale_level).to_pandas()
            out = out.sort_values(["z", "cell_x", "cell_y"])
            print(json.dumps(out.to_dict("records")))
    elif args.tool == "export-outline":
        print(json.dumps(coverage_outline_geojson(ds, args.level)))
    ray.shutdown()


def cmd_corpus(args):
    """Training-data curation over a documents parquet table: each op
    streams batches and writes partitioned parquet (stages/curate,
    stages/text). The tool surface over the graft's curation suite."""
    import os

    import ray.data as rd

    if os.path.isdir(args.output) and os.listdir(args.output):
        # Ray write_parquet appends uuid-named files: a re-run into a
        # non-empty dir would silently mix two runs' outputs
        raise SystemExit(f"corpus: output dir {args.output!r} is not empty")
    ray = _ray_session(args.num_cpus)
    ds = rd.read_parquet(args.input)
    if args.op == "quota":
        from versatiles_rs_ray.stages.curate import quota_per_key

        out = quota_per_key(ds, args.key, args.order_by, args.n)
    elif args.op == "sample":
        from versatiles_rs_ray.stages.curate import systematic_sample

        out = systematic_sample(ds, args.key, args.rate)
    elif args.op == "shuffle":
        from versatiles_rs_ray.stages.curate import deterministic_shuffle

        out = deterministic_shuffle(ds, args.key)
    elif args.op == "pack":
        from versatiles_rs_ray.stages.curate import (
            deterministic_shuffle,
            pack_sequences,
        )

        shuffled = deterministic_shuffle(ds, args.key)
        out = pack_sequences(shuffled, args.token_col, args.budget,
                             "shuffle_rank",
                             exact_global=not args.parallel_bins)
    elif args.op == "topk":
        from versatiles_rs_ray.stages.curate import topk_per_key

        out = topk_per_key(ds, args.key, args.order_by, args.n,
                           args.tiebreak)
    elif args.op == "split":
        from versatiles_rs_ray.stages.curate import dataset_split

        fracs = {}
        for part in args.fracs.split(","):
            name, _, v = part.partition("=")
            fracs[name] = float(v)
        out = dataset_split(ds, args.key, fracs)
    elif args.op == "dedup":
        if args.mode == "exact":
            # exact text dedup: first doc (by key) per distinct col value
            from versatiles_rs_ray.stages.curate import quota_per_key

            out = quota_per_key(ds, args.col, args.key, 1)
        elif args.mode == "paragraph":
            from versatiles_rs_ray.stages.dedup import dedup_paragraphs

            out = dedup_paragraphs(ds, id_col=args.key, text_col=args.col)
        else:  # near: curate_corpus' near-dup stage, nothing else
            from versatiles_rs_ray.pipelines.curate import drop_near_duplicates

            out = drop_near_duplicates(ds, id_col=args.key, text_col=args.col,
                                       near_dup_threshold=args.threshold)
    elif args.op == "normalize":
        from versatiles_rs_ray.stages.text import normalize_docs

        out = normalize_docs(ds, col=args.col)
    elif args.op == "chunk":
        if args.unit == "tokens":
            from versatiles_rs_ray.stages.text import chunk_documents_tokens

            out = chunk_documents_tokens(ds, args.size, args.overlap,
                                         id_col=args.key, text_col=args.col)
        else:
            from versatiles_rs_ray.stages.text import chunk_documents

            out = chunk_documents(ds, args.size, args.overlap,
                                  id_col=args.key, text_col=args.col)
    elif args.op == "dup-spans":
        from versatiles_rs_ray.stages.dedup import duplicate_spans

        out = duplicate_spans(ds, k=args.k, stride=args.stride,
                              id_col=args.key, text_col=args.col)
    elif args.op == "temp-sample":
        from versatiles_rs_ray.stages.curate import temperature_sample

        out = temperature_sample(ds, args.key, args.col,
                                 temperature=args.temperature,
                                 base_rate=args.rate)
    elif args.op == "scrub-spans":
        from versatiles_rs_ray.stages.dedup import remove_duplicate_spans

        out = remove_duplicate_spans(ds, k=args.k, stride=args.stride,
                                     id_col=args.key, text_col=args.col)
    elif args.op == "lm-score":
        from versatiles_rs_ray.stages.lm import lm_score

        out = lm_score(ds, n=args.lm_order, alpha=args.lm_alpha,
                       min_count=args.min_count, column=args.col,
                       id_col=args.key)
    elif args.op == "tfidf":
        from versatiles_rs_ray.stages.tfidf import hashed_tfidf

        out = hashed_tfidf(ds, dim=args.dim, column=args.col,
                           id_col=args.key)
    elif args.op == "quantiles":
        import ray.data as _rd

        from versatiles_rs_ray.stages.quantiles import float_quantiles

        qs = tuple(float(x) for x in str(args.qs).split(","))
        out = _rd.from_arrow(float_quantiles(ds, args.col, qs))
    elif args.op == "dsir":
        import ray.data as _rd

        from versatiles_rs_ray.stages.dsir import dsir_select, dsir_weights

        if not args.target:
            raise SystemExit("corpus dsir requires --target (parquet of "
                             "target-domain documents)")
        target = _rd.read_parquet(args.target, columns=[args.col])
        if args.select:
            out = _rd.from_arrow(dsir_select(
                ds, target, k=args.select, dim=args.dim, column=args.col,
                id_col=args.key, seed=args.seed))
        else:
            out = dsir_weights(ds, target, dim=args.dim, column=args.col,
                               id_col=args.key)
    elif args.op == "semdedup":
        from versatiles_rs_ray.stages.embed import semantic_dedup

        emb0 = ds.take(1)[0]["embedding"]
        out = semantic_dedup(ds, n_cells=args.cells, dim=len(emb0),
                             threshold=args.tau)
    elif args.op == "bpe-train":
        import pandas as pd

        import ray.data as _rd

        from versatiles_rs_ray.stages.bpe import bpe_train

        merges, _tbl = bpe_train(ds, num_merges=args.merges,
                                 column=args.col,
                                 min_word_count=args.min_count)
        out = _rd.from_pandas(pd.DataFrame(
            [(i + 1, l, r, c) for i, (l, r, c) in enumerate(merges)],
            columns=["rank", "left", "right", "pair_cnt"]))
    elif args.op == "curate":
        from versatiles_rs_ray.pipelines.curate import curate_corpus

        def _parse_fracs(spec):
            fracs = {}
            for part in spec.split(","):
                name, _, v = part.partition("=")
                fracs[name] = float(v)
            return fracs

        out = curate_corpus(
            ds, id_col=args.key, text_col=args.col,
            min_quality=args.min_quality,
            drop_repetitive=not args.keep_repetitive,
            near_dup_threshold=args.near_threshold,
            max_ppl_micro=args.max_ppl,
            ppl_percentile=args.ppl_percentile,
            lang_fracs=_parse_fracs(args.lang_fracs) if args.lang_fracs else None,
            default_frac=args.default_frac,
            split_fracs=_parse_fracs(args.fracs) if args.split else None,
            pack_budget=args.budget if args.pack else None,
            token_col=args.token_col,
        )
    else:  # pragma: no cover - argparse choices guard
        raise SystemExit(f"unknown corpus op {args.op}")
    out.write_parquet(args.output)
    import os

    rows = rd.read_parquet(args.output).count()
    print(json.dumps({"op": args.op, "rows": rows, "output": args.output}))
    ray.shutdown()


def _op_params(fn, skip=("ds", "sf_dir")):
    """Parameter table derived from the op function's live signature —
    the registry analog of the reference's #[derive(VPLDecode)] docs
    (versatiles_derive/src/decode_vpl.rs): name, default, required."""
    import inspect

    rows = []
    for p in inspect.signature(fn).parameters.values():
        if p.name in skip or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.default is inspect.Parameter.empty:
            rows.append(f"  - `{p.name}` (required)")
        elif p.default is None:
            rows.append(f"  - `{p.name}` (optional)")
        else:
            rows.append(f"  - `{p.name}` = `{p.default!r}`")
    return rows


def cmd_help(args):
    """help pipeline|config (tools/help.rs Topic enum): markdown docs
    generated from the live registries, like the reference's
    PipelineFactory::help_md / Config::help_md; per-op parameter lists
    come from the op signatures, so they cannot drift from the code."""
    if args.topic == "pipeline":
        from versatiles_rs_ray.pipelines import vpl

        if getattr(args, "op", None):
            reg = {**vpl.READ_OPS, **vpl.TRANSFORM_OPS}
            if args.op not in reg:
                raise SystemExit(
                    f"unknown op {args.op!r} (have {sorted(reg)})")
            fn = reg[args.op]
            kind = "read" if args.op in vpl.READ_OPS else "transform"
            lines = [f"# {args.op} ({kind} operation)", ""]
            doc = (fn.__doc__ or "").strip()
            if doc:
                lines += [doc, ""]
            lines += ["Parameters:"] + (_op_params(fn) or ["  (none)"])
            print("\n".join(lines))
            return
        lines = ["# VPL pipeline operations", "", "## Read operations", ""]
        for name in sorted(vpl.READ_OPS):
            doc = (vpl.READ_OPS[name].__doc__ or "").strip().splitlines()
            lines.append(f"- **{name}** — {doc[0] if doc else ''}")
            lines += _op_params(vpl.READ_OPS[name])
        lines += ["", "## Transform operations", ""]
        for name in sorted(vpl.TRANSFORM_OPS):
            doc = (vpl.TRANSFORM_OPS[name].__doc__ or "").strip().splitlines()
            lines.append(f"- **{name}** — {doc[0] if doc else ''}")
            lines += _op_params(vpl.TRANSFORM_OPS[name])
        print("\n".join(lines))
    elif args.topic == "corpus":
        # corpus ops map 1:1 onto library stages; docs come from the
        # live stage docstrings so they cannot drift from the code
        from versatiles_rs_ray.pipelines.curate import curate_corpus
        from versatiles_rs_ray.stages import curate as C
        from versatiles_rs_ray.stages import dedup as DD
        from versatiles_rs_ray.stages import text as T
        from versatiles_rs_ray.stages.bpe import bpe_train
        from versatiles_rs_ray.stages.dsir import dsir_select
        from versatiles_rs_ray.stages.embed import semantic_dedup
        from versatiles_rs_ray.stages.quantiles import float_quantiles
        from versatiles_rs_ray.stages.lm import lm_score
        from versatiles_rs_ray.stages.tfidf import hashed_tfidf

        ops = {
            "quota": C.quota_per_key, "sample": C.systematic_sample,
            "shuffle": C.deterministic_shuffle, "pack": C.pack_sequences,
            "topk": C.topk_per_key, "split": C.dataset_split,
            "normalize": T.normalize_docs,
            "dedup": DD.ngram_jaccard_pairs,
            "dup-spans": DD.duplicate_spans, "curate": curate_corpus,
            "scrub-spans": DD.remove_duplicate_spans,
            "temp-sample": C.temperature_sample,
            "chunk": T.chunk_documents_tokens,
            "lm-score": lm_score, "tfidf": hashed_tfidf,
            "semdedup": semantic_dedup, "bpe-train": bpe_train,
            "dsir": dsir_select,
            "quantiles": float_quantiles,
        }
        if getattr(args, "op", None):
            if args.op not in ops:
                raise SystemExit(f"unknown op {args.op!r} (have {sorted(ops)})")
            fn = ops[args.op]
            lines = [f"# corpus {args.op}", "",
                     (fn.__doc__ or "").strip(), "",
                     "Parameters:"] + (_op_params(fn) or ["  (none)"])
            print("\n".join(lines))
            return
        lines = ["# corpus curation operations", ""]
        for name in sorted(ops):
            doc = (ops[name].__doc__ or "").strip().splitlines()
            lines.append(f"- **{name}** — {doc[0] if doc else ''}")
        print("\n".join(lines))
    else:
        from versatiles_rs_ray import config as _cfg

        print("# Server YAML configuration\n")
        print((_cfg.load_server_config.__doc__ or "").strip())
        print("\nSections: server{ip,port,minimal_recompression,disable_api},")
        print("cors{allowed_origins globs,max_age_seconds}, extra_response_headers,")
        print("static[{path,url_prefix}], tiles[{name,path}] — see config.py")
        print("and the reference example testdata/config1.yml.")


def main(argv=None):
    p = argparse.ArgumentParser(prog="versatiles_rs_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("convert", help="convert between tile containers")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--bbox", help="W,S,E,N in WGS84")
    c.add_argument("--bbox-border", type=int,
                   help="extra tiles around the bbox at every level")
    c.add_argument("--min-zoom", type=int)
    c.add_argument("--max-zoom", type=int)
    c.add_argument("--flip-y", action="store_true")
    c.add_argument("--swap-xy", action="store_true")
    c.add_argument("--compress", choices=["raw", "gzip", "br"])
    c.add_argument("--override-input-compression", choices=["raw", "gzip", "br"],
                   help="treat input payloads as this compression (convert.rs)")
    c.set_defaults(fn=cmd_convert)

    pr = sub.add_parser("probe", help="inspect a tile container")
    pr.add_argument("input")
    pr.add_argument("-d", "--deep", action="count", default=0,
                    help="-d: container metadata; -dd: scan tile contents")
    pr.set_defaults(fn=cmd_probe)

    zn = sub.add_parser("zonal", help="zonal statistics over a tile "
                                      "container (per-zone pixel stats)")
    zn.add_argument("input", help="tile container (any readable format)")
    zn.add_argument("zones", help="JSON file: {zone_id: [lon0, lat0, "
                                  "lon1, lat1] | [[lon, lat], ...]}")
    zn.add_argument("--level", type=int, default=None,
                    help="restrict to one zoom level (recommended: "
                         "mixing zooms double-counts pixels)")
    zn.add_argument("--band", default="2",
                    help="0..3 channel index, or 'terrarium' for "
                         "terrain-RGB elevation in 1/256-m units")
    zn.add_argument("--output", help="also write the stats parquet here")
    zn.set_defaults(fn=cmd_zonal)

    py = sub.add_parser("pyramid", help="build the doc pyramid (resumable)")
    py.add_argument("sf_dir")
    py.add_argument("output")
    py.add_argument("--z-base", type=int, default=10)
    py.add_argument("--z-min", type=int, default=0)
    py.add_argument("--replicate", type=int, default=1)
    py.set_defaults(fn=cmd_pyramid)

    st = sub.add_parser("status", help="inspect a resumable output's "
                        "checkpoint manifest (lineage + metrics; no Ray)")
    st.add_argument("output")
    st.add_argument("--verbose", action="store_true",
                    help="include the per-partition record list")
    st.set_defaults(fn=cmd_status)

    v = sub.add_parser("vpl", help="run a VPL pipeline into a container")
    v.add_argument("pipeline")
    v.add_argument("output")
    v.add_argument("--sf-dir")
    v.set_defaults(fn=cmd_vpl)

    d = sub.add_parser("dev", help="dev tools: measure-tile-sizes, export-outline")
    d.add_argument("tool", choices=["measure-tile-sizes", "export-outline",
                                    "print-tilejson"])
    d.add_argument("input")
    d.add_argument("--scale-level", type=int, default=2)
    d.add_argument("--level", type=int, default=2)
    d.add_argument("--scale", type=int, default=4,
                   help="measure-tile-sizes image downscale factor")
    d.add_argument("--output", "-o",
                   help="measure-tile-sizes: write the log-scaled size "
                        "image (PNG) instead of the JSON histogram")
    d.add_argument("--pretty", "-p", action="store_true")
    d.set_defaults(fn=cmd_dev)

    s = sub.add_parser("serve", help="serve containers over HTTP")
    s.add_argument("sources", nargs="*", help="container paths (or name=path)")
    s.add_argument("--host", default=None, help="default 127.0.0.1 (or config ip)")
    s.add_argument("--port", type=int, default=None, help="default 8080 (or config port)")
    s.add_argument("--static", action="append",
                   help="static mount: PREFIX=PATH (folder or tar), repeatable")
    s.add_argument("--config", "-c", help="YAML server config (config/main.rs surface)")
    s.add_argument("--auto-shutdown", type=int, default=0, metavar="MS",
                   help="stop after MS milliseconds (tools/serve.rs test flag)")
    s.add_argument("--skip-unreachable", action="store_true",
                   help="with --config: skip tile sources that fail to open")
    s.set_defaults(fn=cmd_serve)

    co = sub.add_parser("corpus", help="training-data curation ops over parquet")
    co.add_argument("op", choices=["quota", "sample", "shuffle", "pack",
                                   "normalize", "topk", "split", "dedup",
                                   "curate", "dup-spans", "scrub-spans",
                                   "temp-sample",
                                   "chunk",
                                   "lm-score", "tfidf", "semdedup",
                                   "bpe-train", "dsir", "quantiles"])
    co.add_argument("input", help="documents parquet file/dir")
    co.add_argument("output", help="output parquet dir")
    co.add_argument("--key", default="doc_id",
                    help="id / group column (quota: group key; others: id)")
    co.add_argument("--order-by", default="doc_id", help="quota order column")
    co.add_argument("--n", type=int, default=5, help="quota: max rows per key")
    co.add_argument("--rate", type=float, default=0.1, help="sample rate")
    co.add_argument("--temperature", type=float, default=2.0,
                    help="temp-sample: mixture temperature T (count^(1/T))")
    co.add_argument("--token-col", default="n_chars", help="pack: token-count column")
    co.add_argument("--budget", type=int, default=8192, help="pack: tokens per sequence")
    co.add_argument("--col", default="text", help="normalize: text column")
    co.add_argument("--lm-order", type=int, default=2,
                    help="lm-score: n-gram order")
    co.add_argument("--lm-alpha", type=float, default=0.4,
                    help="lm-score: stupid-backoff alpha")
    co.add_argument("--min-count", type=int, default=2,
                    help="lm-score: n-gram count floor; bpe-train: "
                         "word-frequency floor")
    co.add_argument("--dim", type=int, default=256,
                    help="tfidf/dsir: hashed feature buckets")
    co.add_argument("--target",
                    help="dsir: parquet of target-domain documents")
    co.add_argument("--select", type=int, default=0,
                    help="dsir: Gumbel-top-k rows to keep (0 = emit "
                         "weights for every doc)")
    co.add_argument("--seed", type=int, default=0,
                    help="dsir: Gumbel seed (decorrelates from "
                         "sampling/split hashes)")
    co.add_argument("--qs", default="0.25,0.5,0.9,0.99",
                    help="quantiles: comma list of q values in [0,1] "
                         "(exact, over --col as float64)")
    co.add_argument("--cells", type=int, default=16,
                    help="semdedup: coarse-quantizer cells")
    co.add_argument("--tau", type=float, default=0.9,
                    help="semdedup: within-cluster cosine threshold")
    co.add_argument("--merges", type=int, default=100,
                    help="bpe-train: number of merges to learn")
    co.add_argument("--tiebreak", default="doc_id", help="topk tiebreak column")
    co.add_argument("--mode", default="exact",
                    choices=["exact", "near", "paragraph"],
                    help="dedup: exact text equality, n-gram Jaccard "
                         "near-dup, or CCNet paragraph-level dedup")
    co.add_argument("--threshold", type=float, default=0.6,
                    help="dedup near: Jaccard threshold")
    co.add_argument("--fracs", default="train=0.9,val=0.05,test=0.05",
                    help="split: name=frac list summing to 1")
    co.add_argument("--parallel-bins", action="store_true",
                    help="pack: independent per-block bins (scale mode)")
    co.add_argument("--size", type=int, default=2048,
                    help="chunk: window size (chars or tokens per --unit)")
    co.add_argument("--overlap", type=int, default=0,
                    help="chunk: window overlap")
    co.add_argument("--unit", default="chars", choices=["chars", "tokens"],
                    help="chunk: window unit")
    co.add_argument("--k", type=int, default=24,
                    help="dup-spans: window length in bytes")
    co.add_argument("--stride", type=int, default=1,
                    help="dup-spans: probe every stride-th window (scale knob)")
    co.add_argument("--min-quality", type=int, default=1,
                    help="curate: minimum integer quality bucket (0 disables)")
    co.add_argument("--keep-repetitive", action="store_true",
                    help="curate: keep Gopher-repetitive docs")
    co.add_argument("--near-threshold", type=float, default=None,
                    help="curate: enable near-dup removal at this n-gram Jaccard")
    co.add_argument("--max-ppl", type=int, default=None,
                    help="curate: drop docs whose mean LM NLL per token "
                         "exceeds this many micro-nats (CCNet-style gate)")
    co.add_argument("--ppl-percentile", type=float, default=None,
                    help="curate: keep the best FRACTION of docs by mean "
                         "NLL per token (exact radix-select threshold; "
                         "mutually exclusive with --max-ppl)")
    co.add_argument("--lang-fracs", default=None,
                    help="curate: per-lang mix fractions, e.g. en=0.5,de=1.0")
    co.add_argument("--default-frac", type=float, default=1.0,
                    help="curate: mix fraction for langs not in --lang-fracs")
    co.add_argument("--split", action="store_true",
                    help="curate: add train/val/test split per --fracs")
    co.add_argument("--pack", action="store_true",
                    help="curate: pack sequences per --budget/--token-col")
    co.set_defaults(fn=cmd_corpus)

    h = sub.add_parser("help", help="print operation / config docs")
    h.add_argument("topic", choices=["pipeline", "config", "corpus"])
    h.add_argument("op", nargs="?", default=None,
                   help="pipeline/corpus: a single operation for full docs")
    h.set_defaults(fn=cmd_help)

    args = p.parse_args(argv)
    rc = args.fn(args)
    # only `status` returns a process exit code; other commands return
    # incidental values (e.g. corpus row counts) that must not become
    # nonzero exits
    return rc if args.cmd == "status" else 0


if __name__ == "__main__":
    import sys as _sys

    _sys.exit(main())
