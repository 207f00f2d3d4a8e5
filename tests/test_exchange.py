"""The one exchange module: its partition hash is the same in every process
and pinned to the KG part layout, its map-side split hands each part
exactly its rows, its ``__part`` shuffle co-locates complete key groups,
and no other module decides a partition policy or splits by part."""

import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from chunksilo_ray.exchange import PARTS, map_partitions, part_ids, split_by_part, split_rows

pytestmark = pytest.mark.usefixtures("ray_session")

_TRIPLES = pa.table(
    {
        "subj": ["ent:acme", "canon:bob", "ent:acme", "surface:x y", "", "ent:ü"],
        "pred": ["uses", "owns", "configures", "uses", "uses", "mentions"],
        "obj": ["ent:bob", "ent:acme", "canon:zorp", "ent:k", "ent:k", "canon:ß"],
    }
)
_INTS = np.array([-5, 0, 7, 2**40, 123456789], np.int64)


def test_part_ids_same_in_ray_tasks_as_on_the_driver():
    def ids():
        return (
            part_ids(_TRIPLES, ["subj", "pred", "obj"]).to_pylist(),
            part_ids(_INTS).to_pylist(),
        )

    here = ids()
    in_task = ray.remote(ids)
    assert ray.get([in_task.remote(), in_task.remote()]) == [here, here]
    for ids in here:
        assert all(0 <= p < PARTS for p in ids)


def test_part_ids_pin_the_kg_part_layout():
    # the values materialize's string-key partitioner gave before the
    # exchange module existed: edges_agg / nodes keep their part layout
    assert part_ids(_TRIPLES, ["subj", "pred", "obj"]).to_pylist() == [50, 20, 43, 37, 24, 14]
    assert part_ids(_TRIPLES, ["subj"]).to_pylist() == [10, 4, 10, 39, 39, 34]
    # one key column may come as a table column, an Arrow array or numpy
    assert part_ids(_TRIPLES["subj"]).to_pylist() == [10, 4, 10, 39, 39, 34]
    assert part_ids(np.array(_TRIPLES["subj"].to_pylist(), object)).to_pylist() == [
        10, 4, 10, 39, 39, 34
    ]
    # one integer key: k * 0x9E3779B97F4A7C15 >> 33, whatever its int width
    assert part_ids(_INTS).to_pylist() == [48, 0, 9, 0, 2]
    assert part_ids(pa.array([7, 0], pa.int32())).to_pylist() == [9, 0]
    assert part_ids(_INTS, parts=4).to_pylist() == [0, 0, 1, 0, 2]


@pytest.mark.parametrize("parts", [1, 3, 4, PARTS])
def test_split_by_part_hands_each_part_exactly_its_rows(parts):
    t = pa.concat_tables([_TRIPLES] * 5).append_column("i", pa.array(range(30)))
    cols = ["subj", "pred", "obj"]
    slices = split_by_part(t, cols, parts)
    assert len(slices) == parts
    want = part_ids(t, cols, parts).to_numpy()
    for p, s in enumerate(slices):
        assert s.schema == t.schema
        # exactly the rows of part p, in their input order
        assert s["i"].to_pylist() == np.flatnonzero(want == p).tolist()
    # the slices together are a permutation of the input
    assert sorted(pa.concat_tables(slices)["i"].to_pylist()) == list(range(30))


def test_split_rows_by_a_given_part_array():
    t = pa.table({"v": ["a", "b", "c", "d", "e"]})
    slices = split_rows(t, np.array([2, 0, 2, 0, 0]), 4)
    assert [s["v"].to_pylist() for s in slices] == [["b", "d", "e"], [], ["a", "c"], []]
    empty = split_by_part(t.slice(0, 0), ["v"], 3)
    assert [s.num_rows for s in empty] == [0, 0, 0]
    assert all(s.schema == t.schema for s in empty)


def test_map_partitions_more_partitions_than_keys():
    schema = pa.schema([("k", pa.string()), ("n", pa.int64())])
    keys = ["a", "b", "c"]
    t = pa.table({"k": [keys[i % 3] for i in range(96)], "v": list(range(96))})
    tagged = rd.from_arrow(t).repartition(24).map_batches(
        lambda b: b.append_column("__part", part_ids(b, ["k"])),
        batch_format="pyarrow", batch_size=None,
    )

    def count(b: pa.Table) -> pa.Table:
        assert b.num_rows > 0
        g = b.group_by("k").aggregate([("v", "count")])
        return pa.table({"k": g["k"].cast(pa.string()), "n": g["v_count"]})

    out = map_partitions(tagged, "__part", count).materialize()
    blocks = ray.get(out.to_arrow_refs())
    assert len(blocks) > len(keys)  # some sort partitions hold no key
    rows = [r for b in blocks for r in b.to_pylist()]
    # every key met in ONE call: one row per key, with all of its rows
    assert sorted((r["k"], r["n"]) for r in rows) == [("a", 32), ("b", 32), ("c", 32)]
    # Ray hands an empty sort partition on without calling the UDF, so only
    # the blocks that hold rows are typed
    for b in blocks:
        assert b.num_rows == 0 or b.schema == schema
    assert out.schema().base_schema == schema


def test_no_partition_policy_outside_the_exchange_module():
    root = pathlib.Path(__file__).resolve().parents[1] / "chunksilo_ray"
    banned = [
        re.compile(r"""groupby\(\s*["']__part["']\s*\)"""),
        re.compile(r"""groupby\(\s*\[\s*["']__part["']"""),
        re.compile(r"^\s*_\w*PARTS\s*=", re.M),
        re.compile(r"^\s*_P\s*=\s*64\b", re.M),
        re.compile(r"from\s+\S*util\s+import[^\n]*\bmap_partitions\b"),
        re.compile(r"\butil\.map_partitions\b"),
        # a map-side split of its own: searchsorted bounds over the parts
        re.compile(r"arange\(\s*\w*parts\w*\s*\+\s*1\s*\)", re.I),
        re.compile(r"argsort\(\s*\w*part\b"),
    ]
    hits = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "exchange.py" and path.parent == root:
            continue
        text = path.read_text()
        hits += [f"{path.relative_to(root)}: {p.pattern}" for p in banned if p.search(text)]
    assert not hits, hits
