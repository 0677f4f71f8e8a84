"""Every top-level def/class of the engine has a production caller.

Production is the engine package ``versatiles_rs_ray/``, ``tools/``,
``perfbench/``, ``bench.py`` and ``__ray_entry__.py``; tests are not.
A name counts as referenced when production code other than its own
definition loads it (as a global, attribute or import) or names it in
a string such as a patch table entry. Re-exports in package
``__init__.py`` files do not count, and decorated definitions (the
registry ops) are exempt. The sources are compiled to bytecode and the
names each code object loads are read from it, so comments and
docstrings never count as references. A name only tests use belongs in
``tests/`` (see ``tests/oracles.py``), or is deleted.
"""

import dis
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "versatiles_rs_ray"
PRODUCTION = [PKG, "tools", "perfbench", "bench.py", "__ray_entry__.py"]

# top-level names kept without a production caller: "module.name" -> why
ALLOWED = {
    "core.traversal.traverse_pyramid": "reference-parity port with golden traversal tests",
    "core.traversal.intersect_orders": "reference-parity port with golden traversal tests",
    "core.coords.sort_index": "reference-parity port with golden tests",
    "core.coords.parent_tile": "reference-parity port with golden tests",
    "stages.reproject.max_zoom_for_source": "reference-parity port with golden tests",
    "core.compression.optimize_compression": "reference-parity port (best-effort codec choice)",
    "core.coords.quadkey": "reference-parity curve key (quadkey), golden and property tests",
    "sources.geojson.read_ndjson_features": "reference-parity NDJSON feature stream reader",
    "stages.bpe.bpe_apply": "encoder half of bpe_train; the CLI exposes training only",
    "stages.tfidf.tfidf_vectors": "dense tf-idf input for the embedding stack",
    "stages.embed.ivf_write_index": "on-disk IVF pair; its one test has no retarget that "
                                    "test_ivf_fixed_matches_pruned_bruteforce does not cover",
    "stages.embed.ivf_search_index": "on-disk IVF pair (see ivf_write_index)",
    "sources.media.read_media_dir": "media directory reader, tested on real files",
    "core.imgshim.have_native_png": "probe of the optional compiled codec",
    "core.imgshim.have_native_jpeg": "probe of the optional compiled codec",
}

_LOADS = {"LOAD_NAME", "LOAD_GLOBAL", "LOAD_ATTR", "LOAD_METHOD", "IMPORT_NAME", "IMPORT_FROM"}
_IDENT = re.compile(r"[A-Za-z_][\w.]*")
_FUNCTION = 0x1  # CO_OPTIMIZED: a function body, not a module or class body


def _production_files():
    for entry in PRODUCTION:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            yield path
            continue
        for d, _, files in os.walk(path):
            yield from (os.path.join(d, f) for f in sorted(files) if f.endswith(".py"))


def _names(code, is_init: bool) -> set:
    """Names one code object (not its children) refers to."""
    if code.co_flags & _FUNCTION:
        out = set(code.co_names)  # a function body stores no global names
    else:  # module or class body: its stores define names, only loads refer
        out = {i.argval for i in dis.get_instructions(code)
               if i.opname in _LOADS and not (is_init and i.opname == "IMPORT_FROM")}
    if not is_init:
        for c in code.co_consts:
            if isinstance(c, str) and _IDENT.fullmatch(c):
                out.update(c.split("."))
    return out


def _walk(code):
    yield code
    for c in code.co_consts:
        if hasattr(c, "co_code"):
            yield from _walk(c)


def _scan():
    """-> ({"module.name": owner}, {name: {owners referring to it}})."""
    defs, refs = {}, {}
    for path in _production_files():
        rel = os.path.relpath(path, ROOT)
        with open(path) as f:
            src = f.read()
        module = compile(src, path, "exec")
        is_init = os.path.basename(path) == "__init__.py"
        for name in _names(module, is_init):
            refs.setdefault(name, set()).add((rel, None))
        lines = src.splitlines()
        for top in module.co_consts:
            if not hasattr(top, "co_code"):
                continue
            owner = (rel, top.co_firstlineno)
            if (rel.startswith(PKG + os.sep) and not top.co_name.startswith(("<", "__"))
                    and not lines[top.co_firstlineno - 1].lstrip().startswith("@")):
                dotted = rel[len(PKG) + 1:-3].replace(os.sep, ".")
                defs[f"{dotted}.{top.co_name}"] = owner
            for code in _walk(top):
                for name in _names(code, is_init):
                    refs.setdefault(name, set()).add(owner)
    return defs, refs


def test_every_engine_name_has_a_production_caller():
    defs, refs = _scan()
    unreferenced = {d for d, owner in defs.items()
                    if not refs.get(d.rsplit(".", 1)[1], set()) - {owner}}
    missing = sorted(unreferenced - set(ALLOWED))
    assert not missing, (
        f"no production caller: {missing}; call it from the engine, move it "
        f"to tests/ (oracles, fixture writers) or delete it")
    stale = sorted(set(ALLOWED) - unreferenced)
    assert not stale, f"allowlisted but now called or gone, drop the entry: {stale}"
