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

import ast
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


def _engine_modules(marker: str):
    """(ast, "module") of each engine source file that mentions ``marker``."""
    for d, _, files in os.walk(os.path.join(ROOT, PKG)):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    src = fh.read()
                if marker in src:
                    rel = os.path.relpath(path, ROOT)
                    yield ast.parse(src, path), rel[len(PKG) + 1:-3].replace(os.sep, ".")


# co-groups handed to hash_exchange as one union: "module.function" -> why
UNION_FED = {
    "stages.cluster.within_join": "its pair kernel also serves the one-input "
                                  "eps_pairs self-join, so both keep one side-tagged layout",
    "stages.dedup.jaccard_verify_exchange": "doc rows ride through exchange 1 into "
                                            "exchange 2; separate inputs would run docs_ds twice",
}


def _is_union(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "union")


def _union_fed_exchanges(tree, dotted: str):
    """"module.function" of each hash_exchange call whose input is a
    ``.union(...)`` expression, or a name the same function assigned one."""
    found = set()
    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        unions = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
                  and _is_union(n.value) for t in n.targets if isinstance(t, ast.Name)}
        for n in ast.walk(fn):
            if not (isinstance(n, ast.Call) and n.args and "hash_exchange" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None))):
                continue
            arg = n.args[0]
            if _is_union(arg) or (isinstance(arg, ast.Name) and arg.id in unions):
                found.add(f"{dotted}.{fn.name}")
    return found


def test_no_union_fed_exchange():
    """Inputs that share a partition go to hash_exchange as a list of
    Datasets (one table each in the combine), not as one union padded
    to a shared schema and tagged by side."""
    found = set().union(*(_union_fed_exchanges(tree, dotted)
                          for tree, dotted in _engine_modules("hash_exchange")))
    assert not sorted(found - set(UNION_FED)), (
        f"union-fed hash_exchange: {sorted(found - set(UNION_FED))}; pass the "
        "inputs as a list instead")
    stale = sorted(set(UNION_FED) - found)
    assert not stale, f"allowlisted but no longer union-fed, drop the entry: {stale}"


# engine functions that launch raw Ray tasks: "module.function" -> why
RAW_TASKS = {
    "stages.exchange.hash_exchange": "the exchange itself: its reduce wave",
    "stages.exchange._stream_splits": "the exchange itself: its split tasks",
    "stages.curate.deterministic_shuffle": "ranks sorted blocks in order",
    "stages.curate.pack_sequences": "carries packing state over sorted blocks",
}


def _raw_task_sites(tree, dotted: str):
    """"module.name" of each top-level def/class whose body uses ``ray.remote``."""
    return {f"{dotted}.{top.name}" for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and any(isinstance(n, ast.Attribute) and n.attr == "remote"
                    and isinstance(n.value, ast.Name) and n.value.id == "ray"
                    for n in ast.walk(top))}


def test_raw_tasks_only_where_allowed():
    """Everything else reaches Ray through the Dataset API or
    hash_exchange; a new raw-task site needs an entry and a reason."""
    found = set().union(*(_raw_task_sites(tree, dotted)
                          for tree, dotted in _engine_modules("remote")))
    assert not sorted(found - set(RAW_TASKS)), (
        f"raw ray.remote tasks in {sorted(found - set(RAW_TASKS))}; use the "
        "Dataset API or hash_exchange")
    stale = sorted(set(RAW_TASKS) - found)
    assert not stale, f"allowlisted but no longer launches raw tasks, drop the entry: {stale}"
