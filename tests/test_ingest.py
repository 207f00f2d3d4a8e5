"""The fused ingest stage: ``build_kg`` extracts, scans and chunks + embeds
the assembled blocks in one task per block. A cold build starts one Ray Data
execution (the read), dead letters add none, and ``extracted`` and
``chunks`` keep separate checkpoints: a resume that lacks one of them runs
only its half."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from chunksilo_ray.config import Config

pytestmark = pytest.mark.usefixtures("ray_session")


def _rows(ds):
    """A dataset's rows as a sorted list, independent of block layout."""
    return sorted((tuple(sorted(r.items())) for r in ds.take_all()), key=repr)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """2,000 synthetic turns in 4 row groups and the alias table."""
    from chunksilo_ray import datagen

    root = tmp_path_factory.mktemp("ingest")
    t = datagen.generate_transcripts(2000, seed=3)
    pq.write_table(t, root / "t.parquet", row_group_size=500)
    pq.write_table(datagen.alias_table(), root / "alias.parquet")
    return root, t


def _build(inputs, out, cfg=None):
    from chunksilo_ray.pipelines.kg import build_kg

    root, _ = inputs
    return build_kg(
        str(root / "t.parquet"), str(root / "alias.parquet"), str(out), cfg, with_chunks=True
    )


@pytest.fixture(scope="module")
def cold(inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("ingest_cold") / "out"
    res = _build(inputs, out)
    return out, {name: _rows(rd.read_parquet(str(out / name))) for name in ("extracted", "chunks")}, res


def test_cold_build_starts_one_ray_data_execution(inputs, tmp_path, executions):
    res = _build(inputs, tmp_path / "out")
    assert len(executions) == 1  # the read under the assembly
    assert res["metrics"]["extracted_turns"] == inputs[1].num_rows
    assert res["chunks"].count() == inputs[1].num_rows


def _layout(ds) -> list[int]:
    return [m.num_rows for b in ds.iter_internal_ref_bundles() for _, m in b.blocks]


@pytest.mark.parametrize(
    "rows", [[1252, 1252, 1251, 1251], [5000, 10, 10, 5000], [300] * 7, [4096, 1, 4095, 2048, 2048]]
)
def test_ingest_blocks_equals_the_stages_it_fuses(rows):
    """Over any block layout, ``ingest_blocks`` returns ``link_extract``'s
    and ``chunk_turns`` + ``embed_chunks``' rows in their block layout, and
    its scan and dead-letter refs describe its extracted blocks."""
    import ray

    from chunksilo_ray import datagen
    from chunksilo_ray.stages.assemble import assemble_table
    from chunksilo_ray.stages.chunk import chunk_turns
    from chunksilo_ray.stages.embed import embed_chunks
    from chunksilo_ray.stages.ingest import dead_letter_rows, ingest_blocks, scan_partial
    from chunksilo_ray.stages.link import link_extract

    t = assemble_table(datagen.generate_transcripts(sum(rows), seed=5)).slice(0, sum(rows))
    offsets = [sum(rows[:i]) for i in range(len(rows))]
    assembled = rd.from_arrow_refs([ray.put(t.slice(o, n)) for o, n in zip(offsets, rows)])
    alias = ray.put(datagen.alias_table())
    cfg = Config()
    linking, chunking, embedding = (cfg.section(s) for s in ("linking", "chunking", "embedding"))

    got = ingest_blocks(assembled, alias, linking, chunking, embedding)
    ctx = rd.DataContext.get_current()
    ctx.execution_options.preserve_order = True
    try:
        want_ext = link_extract(assembled, alias, **linking).materialize()
        want_chunks = embed_chunks(chunk_turns(assembled, **chunking), **embedding).materialize()
    finally:
        ctx.execution_options.preserve_order = False
    extracted = got.extracted
    assert _layout(extracted) == _layout(want_ext)
    assert _layout(got.chunks) == _layout(want_chunks)
    assert _rows(extracted) == _rows(want_ext)
    assert _rows(got.chunks) == _rows(want_chunks)
    blocks = ray.get(extracted.to_arrow_refs())
    for block, scan, dead in zip(blocks, *(ray.get(r) for r in (got.scan, got.dead))):
        assert scan.equals(scan_partial(block))
        assert dead.equals(dead_letter_rows(block))


def test_dead_letters_start_no_extra_execution(inputs, tmp_path, executions):
    """Every row over budget: the dead-letter rows are every input turn,
    written from the ingest tasks' refs with no execution of their own."""
    res = _build(inputs, tmp_path / "out", Config({"linking": {"per_row_seconds": 0.0}}))
    assert len(executions) == 1
    t = inputs[1]
    dl = pq.read_table(res["metrics"]["dead_letter_path"])
    assert sorted(zip(dl["conv_id"].to_pylist(), dl["turn_idx"].to_pylist())) == sorted(
        zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist())
    )
    assert all(e.startswith("TimeBudgetExceeded") for e in dl["error"].to_pylist())
    assert res["metrics"]["dead_letter_turns"] == t.num_rows


def _only_halves(monkeypatch, *, linking: bool, chunking: bool):
    """Make ``build_kg`` fail if it asks the ingest tasks for a half it
    should not run."""
    from chunksilo_ray.pipelines import kg

    ingest_blocks = kg.ingest_blocks
    calls = []

    def guarded(assembled, alias_ref, linking_cfg, chunking_cfg, embedding_cfg):
        if (linking_cfg is not None) != linking or (chunking_cfg is not None) != chunking:
            raise AssertionError(f"ingest asked for linking={linking_cfg} chunking={chunking_cfg}")
        calls.append(1)
        return ingest_blocks(assembled, alias_ref, linking_cfg, chunking_cfg, embedding_cfg)

    monkeypatch.setattr(kg, "ingest_blocks", guarded)
    return calls


def _copy(cold, tmp_path):
    import shutil

    out = tmp_path / "out"
    shutil.copytree(cold[0], out)
    return out


def test_resume_without_chunks_does_not_extract(inputs, cold, tmp_path, monkeypatch):
    out = _copy(cold, tmp_path)
    (out / "chunks" / "_MANIFEST.json").unlink()
    extracted_manifest = (out / "extracted" / "_MANIFEST.json").read_bytes()
    calls = _only_halves(monkeypatch, linking=False, chunking=True)
    res = _build(inputs, out)
    assert calls == [1]
    assert _rows(res["chunks"]) == cold[1]["chunks"]
    assert _rows(rd.read_parquet(str(out / "chunks"))) == cold[1]["chunks"]
    assert (out / "extracted" / "_MANIFEST.json").read_bytes() == extracted_manifest


def test_resume_without_extracted_does_not_chunk(inputs, cold, tmp_path, monkeypatch):
    out = _copy(cold, tmp_path)
    (out / "extracted" / "_MANIFEST.json").unlink()
    chunks_manifest = (out / "chunks" / "_MANIFEST.json").read_bytes()
    calls = _only_halves(monkeypatch, linking=True, chunking=False)
    res = _build(inputs, out)
    assert calls == [1]
    assert _rows(rd.read_parquet(str(out / "extracted"))) == cold[1]["extracted"]
    assert (out / "chunks" / "_MANIFEST.json").read_bytes() == chunks_manifest
    assert res["metrics"] == cold[2]["metrics"]


def test_chunking_change_does_not_re_extract(inputs, cold, tmp_path, monkeypatch):
    out = _copy(cold, tmp_path)
    extracted_manifest = (out / "extracted" / "_MANIFEST.json").read_bytes()
    cfg = Config({"chunking": {"chunk_size": 8, "chunk_overlap": 2}})
    calls = _only_halves(monkeypatch, linking=False, chunking=True)
    res = _build(inputs, out, cfg)
    assert calls == [1]
    assert (out / "extracted" / "_MANIFEST.json").read_bytes() == extracted_manifest
    monkeypatch.undo()
    fresh = _build(inputs, tmp_path / "fresh", cfg)
    assert _rows(res["chunks"]) == _rows(fresh["chunks"])
    assert res["chunks"].count() > inputs[1].num_rows  # long turns split


def test_actor_pool_embedding_equals_the_task_embedding(inputs, cold, tmp_path):
    """``embedding.mode = "actors"`` embeds in an actor-pool execution of its
    own over the tasks' chunk blocks; its chunks equal the fused tasks'."""
    res = _build(inputs, tmp_path / "out", Config({"embedding": {"mode": "actors"}}))
    assert _rows(res["chunks"]) == cold[1]["chunks"]


def test_ingest_outputs_respect_the_target_block_size(inputs):
    """Like ``map_batches``' output, an ingest output block over
    ``DataContext.target_max_block_size`` is cut, rows kept in order."""
    import ray

    from chunksilo_ray.stages.assemble import assemble_table
    from chunksilo_ray.stages.ingest import ingest_blocks

    assembled = rd.from_arrow_refs([ray.put(assemble_table(inputs[1]))])
    cfg = Config()
    linking, chunking, embedding = (cfg.section(s) for s in ("linking", "chunking", "embedding"))
    alias = ray.put(pq.read_table(inputs[0] / "alias.parquet"))
    whole = ingest_blocks(assembled, alias, linking, chunking, embedding)
    ctx = rd.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024
    try:
        cut = ingest_blocks(assembled, alias, linking, chunking, embedding)
    finally:
        ctx.target_max_block_size = saved
    for name in ("extracted", "chunks"):
        a, b = getattr(whole, name), getattr(cut, name)
        assert len(_layout(a)) == 1 and len(_layout(b)) > 1, name
        sizes = [m.size_bytes for x in b.iter_internal_ref_bundles() for _, m in x.blocks]
        assert max(sizes) <= 64 * 1024 * 1.1, name
        rows = [pa.concat_tables(ray.get(x.to_arrow_refs())) for x in (a, b)]
        assert rows[1].equals(rows[0]), name
