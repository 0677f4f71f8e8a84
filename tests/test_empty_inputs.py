"""Empty-input robustness: Ray emits schema-less empty blocks (and
empty sorts lose the schema entirely); every operator must return a
schema-correct empty result instead of crashing or leaking
pre-combine columns (round-3 deep-review findings)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _empty_docs():
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
    }))


def test_hash_exchange_empty_keeps_post_combine_schema(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.dedup import propagate_min_labels_exchange
    from versatiles_rs_ray.stages.exchange import hash_exchange

    # nested def: cloudpickle ships it by value (the test module is not
    # importable on Ray workers)
    def _double(t: pa.Table) -> pa.Table:
        return pa.table({"doubled": pa.array(
            pc.multiply(t["x"], 2).to_pylist(), type=pa.int64())})

    empty = rd.from_arrow(pa.table({"x": pa.array([], type=pa.int64()),
                                    "route": pa.array([], type=pa.int64())}))
    out = hash_exchange(empty, "route", _double, num_partitions=4)
    assert out.schema().names == ["doubled"] and out.count() == 0

    # connected components: rounds of the exchange over empty pairs
    pairs = rd.from_arrow(pa.table({"doc_a": pa.array([1], type=pa.int64()),
                                    "doc_b": pa.array([2], type=pa.int64())}))
    out = propagate_min_labels_exchange(pairs.limit(0), num_partitions=4)
    assert out.count() == 0 and out.schema().names == ["doc_num", "group_id"]
    schemaless = rd.from_items([])
    assert schemaless.schema() is None
    assert propagate_min_labels_exchange(schemaless, num_partitions=4).count() == 0

    # pandas-backed empty inputs: map_batches passes the empty
    # DataFrame block through uncalled, so the split sees a DataFrame
    df = pd.DataFrame({"x": [1], "route": [2]}).iloc[:0]
    out = hash_exchange(rd.from_pandas(df).map_batches(lambda t: t, batch_format="pyarrow"),
                        "route", _double, num_partitions=4)
    assert out.count() == 0
    pairs_df = pd.DataFrame({"doc_a": [1], "doc_b": [2]}).iloc[:0]
    assert propagate_min_labels_exchange(rd.from_pandas(pairs_df), num_partitions=4).count() == 0


def test_topk_kernels_empty(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.embed import cosine_topk, lsh_topk
    from versatiles_rs_ray.stages.join import knn_join

    e = rd.from_arrow(pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.array([], type=pa.list_(pa.float32())),
    }))
    q = np.eye(4, dtype=np.float32)[:2]
    assert len(cosine_topk(e, [1, 2], q, 3)) == 0
    assert len(lsh_topk(e, [1, 2], q, 3, dim=4)) == 0
    d = rd.from_arrow(pa.table({
        "doc_num": pa.array([], type=pa.int64()),
        "lon": pa.array([], type=pa.float64()),
        "lat": pa.array([], type=pa.float64()),
    }))
    out = knn_join(d, [1], [0.0], [0.0], 3)
    assert len(out) == 0 and list(out.columns) == ["q_doc", "n_doc", "rank"]


def test_shuffle_and_pack_empty_schemas(ray_session):
    from versatiles_rs_ray.stages.curate import (
        dataset_split,
        deterministic_shuffle,
        pack_sequences,
        quota_per_key,
        systematic_sample,
    )

    sh = deterministic_shuffle(_empty_docs(), "doc_id")
    assert sh.schema().names == ["doc_id", "n", "shuffle_rank"]
    ps = pack_sequences(sh, "n", 10, "shuffle_rank")
    assert ps.count() == 0 and "seq_id" in ps.schema().names
    assert systematic_sample(_empty_docs(), "doc_id", 0.5).count() == 0
    assert dataset_split(_empty_docs(), "doc_id",
                         {"a": 0.5, "b": 0.5}).count() == 0


def test_zero_norm_query_keeps_query_in_output(ray_session):
    import ray.data as rd

    from versatiles_rs_ray.stages.embed import cosine_topk

    e = rd.from_arrow(pa.table({
        "vec_id": pa.array([10, 11], type=pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                              type=pa.list_(pa.float32())),
    }))
    q = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    out = cosine_topk(e, [1, 2], q, 2)
    # the zero-norm query scores 0 everywhere but is NOT silently dropped
    assert sorted(out["q_id"].unique().tolist()) == [1, 2]
