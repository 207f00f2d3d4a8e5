"""The fused graph stage: ``materialize_graph`` builds edges, edges_agg and
nodes in one two-round task graph over the pinned extracted blocks. Its
over-budget side (``CANON_BROADCAST_LIMIT`` forced to 0: a per-part lookup
round hands each map task the canonical-map entries its block names) must
equal the broadcast side, block and part counts included, on any block
layout, and start no Ray Data execution either way; ``build_kg``'s resume
must rebuild any subset of the three tables exactly, and a build with its
size gates forced to 0 must equal the default build."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data as rd

from chunksilo_ray.exchange import PARTS
from chunksilo_ray.stages.materialize import (
    _EDGE_SUM,
    _NODE_SUM,
    _TRIPLE_SUM,
    materialize_graph,
    node_rows,
)

pytestmark = pytest.mark.usefixtures("ray_session")

_NAMES = ("edges", "edges_agg", "nodes")


def _rows(ds):
    """A dataset's rows as a sorted list, independent of block layout and of
    string vs large_string columns."""
    return sorted((tuple(sorted(r.items())) for r in ds.take_all()), key=repr)


def _built(root, seed, turns=2000, cfg=None):
    """A cold build_kg over ``turns`` synthetic turns of ``seed`` under
    ``cfg``: (out dir, its canonical map, the build result)."""
    from chunksilo_ray import datagen
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.stages.canon import load_canonical_map

    root.mkdir(parents=True, exist_ok=True)
    pq.write_table(datagen.generate_transcripts(turns, seed=seed), root / "t.parquet")
    pq.write_table(datagen.alias_table(), root / "alias.parquet")
    out = root / "out"
    res = build_kg(
        str(root / "t.parquet"), str(root / "alias.parquet"), str(out), cfg=cfg,
        with_chunks=False,
    )
    info = json.loads((out / "state" / "build_info.json").read_text())
    return out, load_canonical_map(out, info["cmap_fp"]), res


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    return _built(tmp_path_factory.mktemp("graph_seed1"), 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_materialize_graph_equals_the_over_budget_path(seed, seed1, tmp_path, monkeypatch):
    from chunksilo_ray.stages import materialize

    out, cmap, res = seed1 if seed == 1 else _built(tmp_path, seed)
    assert cmap  # an empty map would take the broadcast path at limit 0 too
    extracted = rd.read_parquet(str(out / "extracted")).materialize()
    fused = materialize_graph(extracted, cmap)
    monkeypatch.setattr(materialize, "CANON_BROADCAST_LIMIT", 0)
    looked_up = materialize_graph(extracted, cmap)
    for name, a, b, built in zip(_NAMES, fused, looked_up, (res[n] for n in _NAMES)):
        assert _rows(a) == _rows(b) == _rows(built), name
    # one output block per extracted block (edges) and per part
    blocks = extracted.num_blocks()
    parts = min(PARTS, blocks)
    for graph in (fused, looked_up):
        assert [ds.num_blocks() for ds in graph] == [blocks, parts, parts]


def _extracted_table(seed1):
    return pq.read_table(seed1[0] / "extracted")


def test_one_block_and_more_blocks_than_parts(seed1):
    t = _extracted_table(seed1)
    cmap = seed1[1]
    one = materialize_graph(rd.from_arrow(t), cmap)
    assert [ds.num_blocks() for ds in one] == [1, 1, 1]
    many = rd.from_arrow(t).repartition(PARTS + 6).materialize()
    assert many.num_blocks() > PARTS
    split = materialize_graph(many, cmap)
    assert [ds.num_blocks() for ds in split] == [PARTS + 6, PARTS, PARTS]
    for name, a, b in zip(_NAMES, one, split):
        assert _rows(a) == _rows(b), name


def _no_graph_rows(t: pa.Table, column: str) -> pa.Table:
    """``t`` with every row's ``column`` list emptied."""
    empty = pa.array([[] for _ in range(t.num_rows)], t.schema.field(column).type)
    return t.set_column(t.column_names.index(column), column, empty)


def test_blocks_without_triples_or_mentions_give_typed_parts(seed1):
    t = _extracted_table(seed1).slice(0, 400)
    cmap = seed1[1]
    for column, empty_name in (("triples", "edges_agg"), ("mentions", "nodes")):
        bare = _no_graph_rows(t, column)
        edges, agg, nodes = materialize_graph(rd.from_arrow(bare).repartition(3), cmap)
        out = {"edges": edges, "edges_agg": agg, "nodes": nodes}
        assert out[empty_name].count() == 0
        # every reduce task got only empty slices, yet returned a typed part
        want = {"edges_agg": _TRIPLE_SUM, "nodes": node_rows(_NODE_SUM.empty_table()).schema}
        for block in ray.get(out[empty_name].to_arrow_refs()):
            assert block.schema == want[empty_name]
        # the other kind is untouched
        ref = materialize_graph(rd.from_arrow(t), cmap)
        other = "nodes" if column == "triples" else "edges_agg"
        assert _rows(out[other]) == _rows(ref[_NAMES.index(other)])


def test_zero_blocks_and_empty_blocks(seed1):
    cmap = seed1[1]
    zero = materialize_graph(rd.from_arrow_refs([]), cmap)
    assert [ds.count() for ds in zero] == [0, 0, 0]
    assert zero[0].schema().base_schema == _EDGE_SUM
    # a 0-row block may carry no columns at all: it adds nothing
    t = _extracted_table(seed1).slice(0, 300)
    mixed = rd.from_arrow_refs([ray.put(t), ray.put(pa.table({}))])
    ref = materialize_graph(rd.from_arrow(t), cmap)
    for name, a, b in zip(_NAMES, materialize_graph(mixed, cmap), ref):
        assert _rows(a) == _rows(b), name


def test_lookup_round_on_edge_layouts(seed1, monkeypatch):
    """The lookup side equals the broadcast side on one block (one part:
    the tasks' single-return shapes), on more blocks than parts, on zero
    blocks, next to a column-less 0-row block and on blocks without
    mentions."""
    from chunksilo_ray.stages import materialize

    t = _extracted_table(seed1)
    cmap = seed1[1]
    layouts = {
        "one": rd.from_arrow(t),
        "many": rd.from_arrow(t).repartition(PARTS + 6).materialize(),
        "zero": rd.from_arrow_refs([]),
        "mixed": rd.from_arrow_refs([ray.put(t.slice(0, 300)), ray.put(pa.table({}))]),
        "bare": rd.from_arrow(_no_graph_rows(t.slice(0, 400), "mentions")).repartition(3),
    }
    broadcast = {k: materialize_graph(ds, cmap) for k, ds in layouts.items()}
    monkeypatch.setattr(materialize, "CANON_BROADCAST_LIMIT", 0)
    for k, ds in layouts.items():
        looked_up = materialize_graph(ds, cmap)
        assert [d.num_blocks() for d in looked_up] == [d.num_blocks() for d in broadcast[k]], k
        for name, a, b in zip(_NAMES, broadcast[k], looked_up):
            assert _rows(a) == _rows(b), (k, name)


@pytest.mark.parametrize("gate", ["broadcast", "lookup"])
def test_materialize_graph_starts_no_ray_data_execution(seed1, monkeypatch, executions, gate):
    from chunksilo_ray.stages import materialize

    extracted = rd.from_arrow(_extracted_table(seed1)).repartition(4).materialize()
    if gate == "lookup":
        monkeypatch.setattr(materialize, "CANON_BROADCAST_LIMIT", 0)
    executions.clear()
    graph = [ds.materialize() for ds in materialize_graph(extracted, seed1[1])]
    assert sum(ds.count() for ds in graph) > 0
    assert executions == []


@pytest.mark.parametrize("missing", [("edges_agg",), ("nodes",), ("edges", "nodes")])
def test_resume_rebuilds_only_the_missing_graph_tables(missing, tmp_path, monkeypatch):
    """A resume that finds some of the graph checkpoints incomplete opens
    the extracted checkpoint and rebuilds them to a cold build's rows,
    without rerunning the extracted scan or the extraction."""
    from chunksilo_ray.pipelines import kg

    root = tmp_path / "kg"
    out, _, cold = _built(root, 1)
    for name in missing:
        (out / name / "_MANIFEST.json").unlink()

    def never(*args, **kwargs):
        raise AssertionError("the resume reran the scan or the extraction")

    monkeypatch.setattr(kg, "scan_extracted_stats", never)
    monkeypatch.setattr(kg, "ingest_blocks", never)
    res = kg.build_kg(
        str(root / "t.parquet"), str(root / "alias.parquet"), str(out), with_chunks=False
    )
    for name in _NAMES:
        assert _rows(res[name]) == _rows(cold[name]), name
        assert _rows(rd.read_parquet(str(out / name))) == _rows(cold[name]), name
        m = json.loads((out / name / "_MANIFEST.json").read_text())
        files = [out / name / p["file"] for p in m["parts"]]
        assert m["rows"] == sum(pq.read_metadata(f).num_rows for f in files)


def test_build_with_forced_gates_equals_the_default_build(seed1, tmp_path, monkeypatch):
    """A cold build with the canonical-map broadcast budget and the canon
    driver threshold both 0 (distributed LSH, lookup round) equals the
    default build as multisets, and records the same part count."""
    from chunksilo_ray.config import Config
    from chunksilo_ray.stages import materialize

    monkeypatch.setattr(materialize, "CANON_BROADCAST_LIMIT", 0)
    out, cmap, forced = _built(tmp_path, 1, cfg=Config({"canon": {"driver_threshold": 0}}))
    default_out, default_cmap, default = seed1
    assert cmap == default_cmap and cmap
    for name in _NAMES:
        assert _rows(forced[name]) == _rows(default[name]), name
    for name in ("edges_agg", "nodes"):
        parts = [
            json.loads((o / name / "_MANIFEST.json").read_text())["metrics"]["parts"]
            for o in (out, default_out)
        ]
        assert parts[0] == parts[1], name
