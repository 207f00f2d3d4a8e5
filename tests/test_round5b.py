"""Round-5 batch B: incremental-ingest state persistence + dead-letter
surfacing (the verdict's item 7 and the groundwork for `build --append`)."""

import json
import pathlib

import pyarrow.parquet as pq
import ray
import pytest

from chunksilo_ray.stages.canon import load_canonical_map

pytestmark = pytest.mark.usefixtures("ray_session")


def _run(smoke_corpus, out_dir, **kw):
    from chunksilo_ray.pipelines.kg import build_kg

    return build_kg(
        f"{smoke_corpus}/transcripts.parquet",
        f"{smoke_corpus}/alias_index.parquet",
        out_dir,
        **kw,
    )


def test_state_persisted_for_append(smoke_corpus, tmp_out, ingested_convs):
    """A build leaves out/state/ with the distinct-norm vocabulary and the
    build parameters `append_kg` needs; the extracted checkpoint they list
    holds every ingested conv id."""
    res = _run(smoke_corpus, tmp_out, with_chunks=False)
    state = pathlib.Path(tmp_out) / "state"

    src = pq.read_table(f"{smoke_corpus}/transcripts.parquet", columns=["conv_id"])
    assert ingested_convs(tmp_out) == set(src["conv_id"].to_pylist())

    info = json.loads((state / "build_info.json").read_text())
    norms = pq.read_table(str(state / "distinct_norms.parquet"))
    assert norms.num_rows > 0
    # every canonical-map key is an observed unknown norm
    cmap = load_canonical_map(tmp_out, info["cmap_fp"])
    assert cmap is not None
    assert set(cmap) <= set(norms["norm"].to_pylist())
    assert info["alias_path"].endswith("alias_index.parquet")
    assert info["appends"] == []
    assert set(info["sections"]) == {"linking", "canon"}

    # clean corpus: no dead letters, no dead_letter partition
    assert res["metrics"]["dead_letter_turns"] == 0
    assert res["metrics"]["dead_letter_path"] is None
    assert not (pathlib.Path(tmp_out) / "dead_letter").exists()


def test_resume_reuses_canonical_map(smoke_corpus, tmp_out, monkeypatch):
    """A second build over a complete out dir loads the saved map instead
    of rebuilding it; a map saved for another lineage is not loaded."""
    from chunksilo_ray.pipelines import kg

    first = _run(smoke_corpus, tmp_out, with_chunks=False)
    info = json.loads((pathlib.Path(tmp_out) / "state" / "build_info.json").read_text())
    saved = load_canonical_map(tmp_out, info["cmap_fp"])
    assert saved is not None
    assert load_canonical_map(tmp_out, "0" * 16) is None

    def _no_rebuild(*args, **kwargs):
        raise AssertionError("resume rebuilt the canonical map")

    monkeypatch.setattr(kg, "build_canonical_map", _no_rebuild)
    again = _run(smoke_corpus, tmp_out, with_chunks=False)
    assert again["metrics"]["canonical_merges"] == len(saved)
    assert again["metrics"]["edges"] == first["metrics"]["edges"]
    assert load_canonical_map(tmp_out, info["cmap_fp"]) == saved


def test_dead_letter_partition(smoke_corpus, tmp_path):
    """Poison policy e2e: with a zero per-row wall-clock budget every row
    dead-letters; the rows land in a queryable out/dead_letter/ Parquet
    partition with (conv_id, turn_idx, error) and the count matches."""
    from chunksilo_ray.config import Config

    cfg = Config({"linking": {"per_row_seconds": 0.0}})
    out = str(tmp_path / "kg_poison")
    res = _run(smoke_corpus, out, cfg=cfg, with_chunks=False)

    n_turns = pq.read_metadata(f"{smoke_corpus}/transcripts.parquet").num_rows
    assert res["metrics"]["dead_letter_turns"] == n_turns
    dl = pq.read_table(res["metrics"]["dead_letter_path"])
    assert dl.num_rows == n_turns
    assert set(dl.column_names) == {"conv_id", "turn_idx", "error"}
    errs = dl["error"].to_pylist()
    assert all(e.startswith("TimeBudgetExceeded") for e in errs)
    # dead-lettered rows emit no triples: the graph is empty
    assert res["metrics"]["edges"] == 0


def test_scan_holds_no_conv_ids_on_the_driver(smoke_corpus, tmp_path):
    """What the extracted scan brings to the driver is bounded by the norm
    vocabulary: per block one dead-letter count row plus one row per
    distinct unknown norm, and no conv id, even when every row dead-letters."""
    from chunksilo_ray.config import Config
    from chunksilo_ray.pipelines.kg import ScanStats, scan_extracted_stats
    from chunksilo_ray.stages.ingest import scan_partial
    from chunksilo_ray.stages.canon import batch_distinct_unknown_norms
    from chunksilo_ray.state.manifest import StageCheckpoint

    cfg = Config({"linking": {"per_row_seconds": 0.0}})
    out = str(tmp_path / "kg_poison")
    _run(smoke_corpus, out, cfg=cfg, with_chunks=False)
    extracted = StageCheckpoint(out, "extracted", "").read()
    src = pq.read_table(f"{smoke_corpus}/transcripts.parquet", columns=["conv_id"])
    convs = set(src["conv_id"].to_pylist())

    for t in extracted.iter_batches(batch_format="pyarrow", batch_size=None):
        norms = batch_distinct_unknown_norms(t)["norm"].to_pylist()
        part = scan_partial(t)
        assert part["kind"].to_pylist() == [0] + [1] * len(norms)
        assert part["s"].to_pylist()[1:] == norms
        assert not set(part["s"].to_pylist()) & convs

    partials = [ray.put(scan_partial(t)) for t in ray.get(extracted.to_arrow_refs())]
    stats = scan_extracted_stats(partials)()
    assert ScanStats.__slots__ == ("dead_total", "norms")
    assert stats.dead_total == src.num_rows
    assert not stats.norms & convs
