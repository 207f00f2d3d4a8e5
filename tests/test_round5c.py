"""Round-5 batch C: incremental append end-to-end (`append_kg` /
`build --append`) — the reference's mtime/hash-incremental reindex analog at
conversation granularity (reference src/chunksilo/index.py:1497-1544).

The load-bearing assertion: append(A, B) == rebuild(A + B) on all three
graph tables, because both sides canonicalize with the map built from the
SAME norm union and every aggregate is additive."""

import json
import pathlib
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

pytestmark = pytest.mark.usefixtures("ray_session")


def _sorted_df(ds, keys):
    df = ds.to_pandas()
    return df.sort_values(keys).reset_index(drop=True)


def _assert_tables_equal(a, b, keys):
    import pandas as pd

    da, db = _sorted_df(a, keys), _sorted_df(b, keys)
    pd.testing.assert_frame_equal(da[sorted(da.columns)], db[sorted(db.columns)])


@pytest.fixture(scope="module")
def split_corpus(tmp_path_factory):
    """Day-1 / day-2 split of a synthetic corpus: day 2 has NEW conv_ids
    (re-tagged seed-7 conversations) plus a re-delivered copy of some day-1
    conversations (must be skipped), plus the merged corpus for the rebuild
    twin."""
    from chunksilo_ray import datagen

    root = tmp_path_factory.mktemp("append_corpus")
    day1 = datagen.generate_transcripts(1500, seed=42)
    day2 = datagen.generate_transcripts(900, seed=7)
    # re-tag day-2 conv ids so they don't collide with day 1
    conv2 = pa.array(
        ["day2-" + c for c in day2["conv_id"].to_pylist()], pa.string()
    )
    day2 = day2.set_column(0, "conv_id", conv2)
    # re-deliver ~5 day-1 conversations inside the day-2 file (dup delivery)
    dup_ids = sorted(set(day1["conv_id"].to_pylist()))[:5]
    redelivered = day1.filter(pa.compute.is_in(day1["conv_id"], value_set=pa.array(dup_ids)))
    day2_file = pa.concat_tables([day2, redelivered])

    merged = pa.concat_tables([day1, day2])  # rebuild twin: day1 + NEW rows only

    pq.write_table(day1, root / "day1.parquet")
    pq.write_table(day2_file, root / "day2.parquet")
    (root / "merged").mkdir()
    pq.write_table(merged, root / "merged" / "all.parquet")
    pq.write_table(datagen.alias_table(), root / "alias_index.parquet")
    return root


@pytest.fixture(scope="module")
def rebuild(split_corpus, ray_session, tmp_path_factory):
    """The one-shot build over day 1 + day 2's new conversations that every
    append must equal: (out dir, build_kg result)."""
    from chunksilo_ray.pipelines.kg import build_kg

    out = str(tmp_path_factory.mktemp("rebuild"))
    alias = str(split_corpus / "alias_index.parquet")
    return out, build_kg(str(split_corpus / "merged"), alias, out, with_chunks=False)


def _assert_equals_rebuild(res, full):
    _assert_tables_equal(
        res["edges_agg"], full["edges_agg"], ["subj", "pred", "obj"]
    )
    _assert_tables_equal(
        res["nodes"], full["nodes"], ["entity_id", "surface", "type"]
    )
    _assert_tables_equal(
        res["edges"], full["edges"], ["conv_id", "turn_idx", "subj", "pred", "obj"]
    )


def test_append_equals_rebuild(split_corpus, rebuild, tmp_path, ingested_convs):
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg
    from chunksilo_ray.stages.canon import load_canonical_map

    alias = str(split_corpus / "alias_index.parquet")
    inc_out = str(tmp_path / "incremental")
    res1 = build_kg(str(split_corpus / "day1.parquet"), alias, inc_out, with_chunks=False)
    res2 = append_kg(inc_out, str(split_corpus / "day2.parquet"))
    assert res2["metrics"]["noop"] is False
    assert res2["metrics"]["skipped_existing_convs"] == 5
    assert res2["metrics"]["new_convs"] > 0
    # the fold grew the graph
    assert res2["metrics"]["edges"] > res1["metrics"]["edges"]

    full_out, full = rebuild
    _assert_equals_rebuild(res2, full)

    # state advanced: build_info records the append, and the extracted
    # checkpoints it lists cover both days
    state = pathlib.Path(inc_out) / "state"
    merged_src = pq.read_table(str(split_corpus / "merged"), columns=["conv_id"])
    assert ingested_convs(inc_out) == set(merged_src["conv_id"].to_pylist())
    info = json.loads((state / "build_info.json").read_text())
    assert len(info["appends"]) == 1

    # canonical map converged to the rebuild's (same norm union)
    full_info = json.loads((pathlib.Path(full_out) / "state" / "build_info.json").read_text())
    cm_inc = load_canonical_map(inc_out, info["cmap_fp"])
    cm_full = load_canonical_map(full_out, full_info["cmap_fp"])
    assert cm_inc is not None and cm_inc == cm_full


def test_append_with_a_file_of_only_redelivered_conversations(split_corpus, rebuild, tmp_path):
    """The re-delivered conversations arrive in their own day-2 file, so the
    membership filter empties whole blocks; the append must still fold the
    new file and equal the rebuild."""
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    day2 = pq.read_table(split_corpus / "day2.parquet")
    is_new = pa.compute.starts_with(day2["conv_id"], "day2-")
    (tmp_path / "day2").mkdir()
    pq.write_table(day2.filter(is_new), tmp_path / "day2" / "a-new.parquet")
    pq.write_table(day2.filter(pa.compute.invert(is_new)), tmp_path / "day2" / "b-redelivered.parquet")

    alias = str(split_corpus / "alias_index.parquet")
    out = str(tmp_path / "kg")
    build_kg(str(split_corpus / "day1.parquet"), alias, out, with_chunks=False)
    res = append_kg(out, str(tmp_path / "day2"))
    assert res["metrics"]["skipped_existing_convs"] == 5
    _assert_equals_rebuild(res, rebuild[1])


@pytest.mark.parametrize("append_killed", [False, True], ids=["appended", "append_killed"])
def test_rebuild_over_an_appended_dir_replaces_the_append_state(
    split_corpus, rebuild, tmp_path, monkeypatch, append_killed
):
    """Re-running the build over an appended out dir rebuilds the graph of
    day 1 alone, so it must also drop the append's conv ids, also those of
    an append killed after its state write: appending day 2 again then
    folds every new day-2 conversation."""
    from chunksilo_ray.pipelines import kg_append
    from chunksilo_ray.pipelines.kg import build_kg

    alias = str(split_corpus / "alias_index.parquet")
    day1, day2 = str(split_corpus / "day1.parquet"), str(split_corpus / "day2.parquet")
    out = str(tmp_path / "kg")
    built = build_kg(day1, alias, out, with_chunks=False)
    if append_killed:
        def die(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(kg_append, "save_canonical_map", die)
        with pytest.raises(KeyboardInterrupt):
            kg_append.append_kg(out, day2)
        monkeypatch.undo()
    else:
        kg_append.append_kg(out, day2)
    again = build_kg(day1, alias, out, with_chunks=False)
    assert again["metrics"] == built["metrics"]
    res = kg_append.append_kg(out, day2)
    day2_convs = set(pq.read_table(day2, columns=["conv_id"])["conv_id"].to_pylist())
    assert res["metrics"]["new_convs"] == sum(c.startswith("day2-") for c in day2_convs)
    assert res["metrics"]["skipped_existing_convs"] == 5
    _assert_equals_rebuild(res, rebuild[1])


def test_append_refuses_a_config_that_differs_from_the_build(split_corpus, tmp_path):
    """An append extracted or canonicalized with settings the base never
    used would equal neither rebuild: it is refused before any write."""
    from chunksilo_ray.config import Config
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    alias = str(split_corpus / "alias_index.parquet")
    out = pathlib.Path(tmp_path / "kg")
    build_kg(str(split_corpus / "day1.parquet"), alias, str(out), with_chunks=False)
    info_path = out / "state" / "build_info.json"
    before = info_path.read_bytes()
    with pytest.raises(ValueError, match=r"'linking'.*max_ngram"):
        append_kg(str(out), str(split_corpus / "day2.parquet"),
                  cfg=Config({"linking": {"max_ngram": 2}}))
    with pytest.raises(ValueError, match=r"'canon'.*jaccard_threshold"):
        append_kg(str(out), str(split_corpus / "day2.parquet"),
                  cfg=Config({"canon": {"jaccard_threshold": 0.5}}))
    assert info_path.read_bytes() == before
    assert not (out / "append").exists()


def test_append_idempotent(split_corpus, tmp_path):
    """Re-appending the same file is a no-op (every conv already ingested)."""
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    alias = str(split_corpus / "alias_index.parquet")
    out = str(tmp_path / "kg")
    build_kg(str(split_corpus / "day1.parquet"), alias, out, with_chunks=False)
    first = append_kg(out, str(split_corpus / "day2.parquet"))
    again = append_kg(out, str(split_corpus / "day2.parquet"))
    assert again["metrics"]["noop"] is True
    assert again["metrics"]["new_convs"] == 0
    # graph untouched by the no-op
    info = json.loads((pathlib.Path(out) / "state" / "build_info.json").read_text())
    assert len(info["appends"]) == 1
    assert first["metrics"]["edges_agg"] == pq.read_table(
        str(pathlib.Path(out) / "edges_agg")
    ).num_rows


def test_an_append_missing_from_build_info_is_not_ingested(split_corpus, tmp_path):
    """An append counts as ingested only once build_info.json lists it, the
    append's last write: with its entry removed, as a kill just before that
    write leaves it, re-running the same append folds its conversations
    instead of returning a no-op."""
    from chunksilo_ray.pipelines.kg_append import append_kg

    out = tmp_path / "kg"
    _build_day1(split_corpus, out)
    first = append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert first["metrics"]["new_convs"] > 0
    info_path = out / "state" / "build_info.json"
    info = json.loads(info_path.read_text())
    info["appends"] = []
    info_path.write_text(json.dumps(info, indent=1))

    again = append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert again["metrics"]["noop"] is False
    assert again["metrics"]["new_convs"] == first["metrics"]["new_convs"]
    assert again["metrics"]["skipped_existing_convs"] == 5


def test_append_cli(split_corpus, tmp_path):
    from chunksilo_ray.cli import main

    alias = str(split_corpus / "alias_index.parquet")
    out = str(tmp_path / "kg_cli")
    rc = main(
        ["build", "--input", str(split_corpus / "day1.parquet"),
         "--alias", alias, "--out", out]
    )
    assert rc == 0
    rc = main(["build", "--append", "--input", str(split_corpus / "day2.parquet"), "--out", out])
    assert rc == 0
    info = json.loads((pathlib.Path(out) / "state" / "build_info.json").read_text())
    assert len(info["appends"]) == 1


def test_canonical_remap_merge_and_conflict():
    from chunksilo_ray.stages.canon import CanonicalDriftError, canonical_remap

    old = {"data-base": "data base", "db": "db"}
    # day-2 norm bridged db's cluster into "data base": a pure merge
    new = {"data-base": "data base", "db": "data base", "data_base": "data base"}
    remap = canonical_remap(old, new, {"data-base", "db", "data base"})
    assert remap == {"db": "data base"}

    # a split (two norms sharing an old canonical now disagree) must raise
    old2 = {"a1": "a", "a2": "a"}
    new2 = {"a1": "x", "a2": "y"}
    with pytest.raises(CanonicalDriftError):
        canonical_remap(old2, new2, {"a1", "a2"})


# ---------------------------------------------------------------------------
# the fold into the base's parts, and the graph re-run


def _rows(path):
    """A table directory's rows, sorted, independent of part layout and of
    string vs large_string columns."""
    files = [path] if path.is_file() else sorted(path.glob("*.parquet"))
    rows = [r for f in files for r in pq.read_table(f).to_pylist()]
    return sorted((tuple(sorted(r.items())) for r in rows), key=repr)


def _manifest_matches_disk(table_dir):
    m = json.loads((table_dir / "_MANIFEST.json").read_text())
    files = sorted(f.name for f in table_dir.glob("*.parquet"))
    assert sorted(p["file"] for p in m["parts"]) == files
    assert m["rows"] == sum(pq.read_metadata(table_dir / f).num_rows for f in files)


def _build_day1(split_corpus, out, cfg=None):
    from chunksilo_ray.pipelines.kg import build_kg

    alias = str(split_corpus / "alias_index.parquet")
    build_kg(str(split_corpus / "day1.parquet"), alias, str(out), cfg=cfg, with_chunks=False)


@pytest.mark.parametrize(
    "linking", [{}, {"per_row_seconds": 0.0}], ids=["default", "dead_letters"]
)
def test_small_and_exchange_append_paths_agree(
    split_corpus, tmp_path, monkeypatch, ingested_convs, linking
):
    """The same append assembled by one task (default budget) and by
    assemble_dialogues (budget 0) folds into the same graph and writes the
    same ingest state; a zero per-row budget dead-letters every delta
    row."""
    from chunksilo_ray.config import Config
    from chunksilo_ray.pipelines import kg_append
    from chunksilo_ray.stages.canon import load_canonical_map

    cfg = Config({"linking": linking})
    _build_day1(split_corpus, tmp_path / "base", cfg)
    outs = {}
    for path, budget in (("small", kg_append.SMALL_DELTA_ROWS), ("exchange", 0)):
        out = tmp_path / path
        shutil.copytree(tmp_path / "base", out)
        monkeypatch.setattr(kg_append, "SMALL_DELTA_ROWS", budget)
        res = kg_append.append_kg(str(out), str(split_corpus / "day2.parquet"), cfg=cfg)
        assert res["metrics"]["path"] == "fold"
        assert res["metrics"]["skipped_existing_convs"] == 5
        outs[path] = (out, res["metrics"])

    (small, m_small), (exch, m_exch) = outs["small"], outs["exchange"]
    assert m_small == m_exch
    for name in ("edges", "edges_agg", "nodes"):
        assert _rows(small / name) == _rows(exch / name), name
        _manifest_matches_disk(small / name)
    for name, keys in (("edges_agg", ["subj", "pred", "obj"]),
                       ("nodes", ["entity_id", "surface", "type"])):
        rows = [dict(r) for r in _rows(small / name)]
        assert len({tuple(r[k] for k in keys) for r in rows}) == len(rows), name

    info = json.loads((small / "state" / "build_info.json").read_text())
    info_exch = json.loads((exch / "state" / "build_info.json").read_text())
    assert info == info_exch
    assert load_canonical_map(small, info["cmap_fp"]) == load_canonical_map(exch, info["cmap_fp"])
    tag = info["appends"][0]["batch_fp"][:8]
    assert ingested_convs(small) == ingested_convs(exch)
    assert _rows(small / "state/distinct_norms.parquet") == _rows(exch / "state/distinct_norms.parquet")
    dead = f"dead_letter/append-{tag}"
    assert (small / dead).exists() == (exch / dead).exists() == bool(linking)
    if linking:
        # the error text carries the row's measured seconds: compare its kind
        def dead_rows(out):
            return sorted((r["conv_id"], r["turn_idx"], r["error"].split(":")[0])
                          for r in map(dict, _rows(out / dead)))

        assert len(dead_rows(small)) == m_small["dead_letter_turns"] > 0
        assert dead_rows(small) == dead_rows(exch)


def test_append_with_canonical_drift_equals_rebuild(split_corpus, tmp_path):
    """A day-2 norm that bridges two day-1 clusters re-canonicalizes the
    base: the append re-runs the graph over every extracted table under
    the new map, and equals the rebuild."""
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    def conv(conv_id, texts):
        n = len(texts)
        return pa.table({
            "conv_id": pa.array([conv_id] * n, pa.string()),
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": pa.array(["user", "assistant"] * (n // 2), pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array([""] * n, pa.string()),
            "ts": pa.array([0] * n, pa.timestamp("us")),
        })

    # zentravoluxbrim and travoluxbrimqo are too far apart to merge, and
    # zentravoluxbrimqo is close to both
    base_drift = conv("drift-base", ["We deployed Zentravoluxbrim with the gateway",
                                     "I configured Travoluxbrimqo for Zentravoluxbrim"])
    day2_drift = conv("day2-drift", ["We deployed Zentravoluxbrimqo with the gateway",
                                     "I configured Zentravoluxbrimqo and Travoluxbrimqo"])
    day1 = pq.read_table(split_corpus / "day1.parquet")
    day2 = pq.read_table(split_corpus / "day2.parquet")
    pq.write_table(pa.concat_tables([day1, base_drift]), tmp_path / "day1.parquet")
    pq.write_table(pa.concat_tables([day2, day2_drift]), tmp_path / "day2.parquet")
    is_new = pa.compute.starts_with(day2["conv_id"], "day2-")
    (tmp_path / "merged").mkdir()
    pq.write_table(pa.concat_tables([day1, base_drift, day2.filter(is_new), day2_drift]),
                   tmp_path / "merged" / "all.parquet")

    alias = str(split_corpus / "alias_index.parquet")
    full = build_kg(str(tmp_path / "merged"), alias, str(tmp_path / "full"), with_chunks=False)
    build_kg(str(tmp_path / "day1.parquet"), alias, str(tmp_path / "kg"), with_chunks=False)
    res = append_kg(str(tmp_path / "kg"), str(tmp_path / "day2.parquet"))
    assert res["metrics"]["drifted_clusters"] > 0
    assert res["metrics"]["path"] == "regraph"
    _assert_equals_rebuild(res, full)


@pytest.mark.parametrize("path", ["small", "exchange"])
def test_append_killed_after_the_edges_write_adds_them_once(
    split_corpus, rebuild, tmp_path, monkeypatch, path
):
    """A rerun after a kill between the edges write and the fold's write
    of edges_agg must not list the delta's edge parts twice; for a delta
    assembled by one task (small) and by assemble_dialogues (exchange)."""
    from chunksilo_ray.pipelines import kg_append
    from chunksilo_ray.state.manifest import StageCheckpoint

    write = StageCheckpoint._write_checkpoint

    def die_at_edges_agg(ckpt, *args, **kwargs):
        if ckpt.stage == "edges_agg":
            raise KeyboardInterrupt
        write(ckpt, *args, **kwargs)

    out = tmp_path / "kg"
    _build_day1(split_corpus, out)
    if path == "exchange":
        monkeypatch.setattr(kg_append, "SMALL_DELTA_ROWS", 0)
    edges_before = pq.read_table(out / "edges").num_rows
    agg_before = _rows(out / "edges_agg")
    monkeypatch.setattr(StageCheckpoint, "_write_checkpoint", die_at_edges_agg)
    with pytest.raises(KeyboardInterrupt):
        kg_append.append_kg(str(out), str(split_corpus / "day2.parquet"))
    monkeypatch.undo()
    if path == "exchange":
        monkeypatch.setattr(kg_append, "SMALL_DELTA_ROWS", 0)
    assert _rows(out / "edges_agg") == agg_before
    assert pq.read_table(out / "edges").num_rows > edges_before
    res = kg_append.append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert res["metrics"]["path"] == "fold"
    _manifest_matches_disk(out / "edges")
    assert res["metrics"]["edges"] == pq.read_table(out / "edges").num_rows
    _assert_equals_rebuild(res, rebuild[1])


@pytest.mark.parametrize("kill", ["files_written", "swapped"])
def test_small_append_killed_during_the_merge_resumes(
    split_corpus, rebuild, tmp_path, monkeypatch, kill
):
    """Kill the small-delta merge after its new files are written (before
    the swap), or after the swap (before build_info.json): the table is
    whole at the kill, and the rerun equals the rebuild."""
    from chunksilo_ray.pipelines import kg_append
    from chunksilo_ray.state import manifest

    def die(*args, **kwargs):
        raise KeyboardInterrupt

    swap_in = manifest._swap_in

    def die_at_edges_agg(staged, dest):
        if dest.name == "edges_agg":
            raise KeyboardInterrupt
        swap_in(staged, dest)

    out = tmp_path / "kg"
    _build_day1(split_corpus, out)
    before = _rows(out / "edges_agg")
    if kill == "files_written":
        monkeypatch.setattr(manifest, "_swap_in", die_at_edges_agg)
    else:
        monkeypatch.setattr(kg_append, "write_ingest_state", die)
    with pytest.raises(KeyboardInterrupt):
        kg_append.append_kg(str(out), str(split_corpus / "day2.parquet"))
    monkeypatch.undo()
    _manifest_matches_disk(out / "edges_agg")
    if kill == "files_written":
        assert any((out / "edges_agg.tmp").glob("*.parquet"))
        assert _rows(out / "edges_agg") == before
    else:
        assert not (out / "edges_agg.tmp").exists()
        assert _rows(out / "edges_agg") != before

    res = kg_append.append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert res["metrics"]["path"] == "fold"
    assert not list(out.glob("*.tmp"))
    _assert_equals_rebuild(res, rebuild[1])


@pytest.mark.parametrize("kill", ["write_ingest_state", "save_canonical_map", "_move_in_state"])
def test_append_killed_after_a_state_write_resumes(
    split_corpus, rebuild, tmp_path, monkeypatch, kill
):
    """Kill the append right after it writes the norm union, the new
    canonical map, or build_info.json (before the staged state moves in).
    The base's map and norms stay readable until build_info.json names the
    new map, so the rerun equals the rebuild, a third run is a no-op, and
    the map and norms end up the rebuild's."""
    from chunksilo_ray.pipelines import kg_append
    from chunksilo_ray.stages.canon import load_canonical_map

    day2 = str(split_corpus / "day2.parquet")
    out = tmp_path / "kg"
    _build_day1(split_corpus, out)
    write = getattr(kg_append, kill)

    def write_then_die(*args, **kwargs):
        if kill != "_move_in_state":
            write(*args, **kwargs)
            raise KeyboardInterrupt
        if (out / "state" / "next").exists():  # not the check at the append's start
            raise KeyboardInterrupt
        write(*args, **kwargs)

    base = ("state/distinct_norms.parquet", "canonical_map.parquet", "state/build_info.json")
    before = {f: (out / f).read_bytes() for f in base}
    monkeypatch.setattr(kg_append, kill, write_then_die)
    with pytest.raises(KeyboardInterrupt):
        kg_append.append_kg(str(out), day2)
    monkeypatch.undo()
    if kill != "_move_in_state":  # not committed: the base's state is untouched
        assert {f: (out / f).read_bytes() for f in base} == before

    res = kg_append.append_kg(str(out), day2)
    if kill == "_move_in_state":  # committed: the rerun only moves the state in
        assert res["metrics"]["noop"] is True
        res = {name: rd.read_parquet(str(out / name)) for name in ("edges", "edges_agg", "nodes")}
    _assert_equals_rebuild(res, rebuild[1])
    assert kg_append.append_kg(str(out), day2)["metrics"]["noop"] is True
    full = pathlib.Path(rebuild[0])
    info, full_info = (json.loads((d / "state" / "build_info.json").read_text()) for d in (out, full))
    assert load_canonical_map(out, info["cmap_fp"]) == load_canonical_map(full, full_info["cmap_fp"])
    assert _rows(out / "state/distinct_norms.parquet") == _rows(full / "state/distinct_norms.parquet")
    assert not (out / "state" / "next").exists()


_AGG_KEYS = {"edges_agg": ["subj", "pred", "obj"], "nodes": ["entity_id", "surface", "type"]}


def _assert_hash_aligned(table_dir, parts):
    """The manifest records ``parts``, and each part file p holds only keys
    with ``part_ids(key, parts) == p``."""
    from chunksilo_ray.exchange import part_ids
    from chunksilo_ray.state.manifest import part_file

    m = json.loads((table_dir / "_MANIFEST.json").read_text())
    assert m["metrics"]["parts"] == parts
    names = {part_file(p): p for p in range(parts)}
    for f in table_dir.glob("*.parquet"):
        t = pq.read_table(f)
        assert set(part_ids(t, _AGG_KEYS[table_dir.name], parts).to_pylist()) == {names[f.name]}


def test_successive_small_appends_keep_the_aggregate_part_count(split_corpus, tmp_path):
    """Each append folds into the base's hash-aligned parts, so edges_agg /
    nodes keep the base's part count P and part files however many appends
    follow, new keys included, every part p holds only keys hashing to p,
    and every append still equals the rebuild over what it has seen. edges
    gains the delta's rows as parts of their own."""
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    alias = str(split_corpus / "alias_index.parquet")
    day1 = pq.read_table(split_corpus / "day1.parquet")
    day2 = pq.read_table(split_corpus / "day2.parquet")
    new = day2.filter(pa.compute.starts_with(day2["conv_id"], "day2-"))
    convs = sorted(set(new["conv_id"].to_pylist()))
    out = tmp_path / "kg"
    _build_day1(split_corpus, out)

    def part_files(name):
        return sorted(f.name for f in (out / name).glob("*.parquet"))

    def keys(name):
        return {tuple(r[k] for k in _AGG_KEYS[name]) for r in map(dict, _rows(out / name))}

    base = {name: part_files(name) for name in _AGG_KEYS}
    assert all(base.values())
    parts = json.loads((out / "nodes" / "_MANIFEST.json").read_text())["metrics"]["parts"]
    for name in _AGG_KEYS:
        _assert_hash_aligned(out / name, parts)
    edge_parts = len(part_files("edges"))
    seen = [day1]
    for k in range(3):
        before = {name: keys(name) for name in _AGG_KEYS}
        batch = new.filter(pa.compute.is_in(new["conv_id"], value_set=pa.array(convs[k::3])))
        pq.write_table(batch, tmp_path / f"delta{k}.parquet")
        seen.append(batch)
        res = append_kg(str(out), str(tmp_path / f"delta{k}.parquet"))
        assert res["metrics"]["path"] == "fold"
        assert {name: part_files(name) for name in base} == base
        for name in _AGG_KEYS:
            assert keys(name) > before[name], name  # the delta brought new keys
            _assert_hash_aligned(out / name, parts)
        for name in ("edges", "edges_agg", "nodes"):
            _manifest_matches_disk(out / name)
        (tmp_path / f"seen{k}").mkdir()
        pq.write_table(pa.concat_tables(seen), tmp_path / f"seen{k}" / "all.parquet")
        full = build_kg(
            str(tmp_path / f"seen{k}"), alias, str(tmp_path / f"full{k}"), with_chunks=False
        )
        _assert_equals_rebuild(res, full)
    assert len(part_files("edges")) == edge_parts + 3


def test_small_append_onto_an_empty_graph(split_corpus, tmp_path):
    """A base whose turns name no entity has no edges_agg / nodes parts:
    the delta's sums become the tables, equal to the rebuild."""
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    n = 4
    quiet = pa.table({
        "conv_id": pa.array(["quiet"] * n, pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": pa.array(["user", "assistant"] * (n // 2), pa.string()),
        "text": pa.array(["ok", "sure thing", "thanks", "you are welcome"], pa.string()),
        "tool": pa.array([""] * n, pa.string()),
        "ts": pa.array([0] * n, pa.timestamp("us")),
    })
    day2 = pq.read_table(split_corpus / "day2.parquet")  # every conv is new here
    pq.write_table(quiet, tmp_path / "quiet.parquet")
    (tmp_path / "merged").mkdir()
    merged = pa.concat_tables([quiet, day2.cast(quiet.schema)])
    pq.write_table(merged, tmp_path / "merged" / "all.parquet")
    alias = str(split_corpus / "alias_index.parquet")
    out = tmp_path / "kg"
    build_kg(str(tmp_path / "quiet.parquet"), alias, str(out), with_chunks=False)
    for name in ("edges_agg", "nodes"):
        assert json.loads((out / name / "_MANIFEST.json").read_text())["parts"] == []
    res = append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert res["metrics"]["path"] == "fold"
    for name in ("edges_agg", "nodes"):
        _manifest_matches_disk(out / name)
        assert len(list((out / name).glob("*.parquet"))) == 1
    full = build_kg(str(tmp_path / "merged"), alias, str(tmp_path / "full"), with_chunks=False)
    _assert_equals_rebuild(res, full)


def test_fold_onto_a_dead_letter_base_equals_the_rebuild(split_corpus, tmp_path):
    """With a zero per-row budget every row is dead-lettered, so the base's
    edges_agg / nodes have no part files at all: the fold takes its part
    count from the manifests, and equals the rebuild."""
    from chunksilo_ray.config import Config
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    cfg = Config({"linking": {"per_row_seconds": 0.0}})
    out = tmp_path / "kg"
    _build_day1(split_corpus, out, cfg)
    for name in _AGG_KEYS:
        assert not list((out / name).glob("*.parquet"))
    parts = json.loads((out / "nodes" / "_MANIFEST.json").read_text())["metrics"]["parts"]
    res = append_kg(str(out), str(split_corpus / "day2.parquet"), cfg=cfg)
    assert res["metrics"]["path"] == "fold"
    assert res["metrics"]["dead_letter_turns"] > 0
    for name in _AGG_KEYS:
        _assert_hash_aligned(out / name, parts)
    alias = str(split_corpus / "alias_index.parquet")
    full = tmp_path / "full"
    build_kg(str(split_corpus / "merged"), alias, str(full), cfg=cfg, with_chunks=False)
    for name in ("edges", "edges_agg", "nodes"):
        assert _rows(out / name) == _rows(full / name), name


def test_append_regraphs_where_it_cannot_fold(split_corpus, rebuild, tmp_path):
    """A base whose edges_agg manifest records no part count (as older code
    wrote it) leaves no hash-aligned parts to fold into: the append re-runs
    the graph over every extracted table and equals the rebuild."""
    from chunksilo_ray.pipelines.kg_append import append_kg

    out = tmp_path / "kg"
    _build_day1(split_corpus, out)
    path = out / "edges_agg" / "_MANIFEST.json"
    m = json.loads(path.read_text())
    del m["metrics"]["parts"]
    path.write_text(json.dumps(m))
    res = append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert res["metrics"]["path"] == "regraph"
    _assert_equals_rebuild(res, rebuild[1])
    info = json.loads((out / "state" / "build_info.json").read_text())
    assert info["appends"][0]["path"] == "regraph"
    for name in _AGG_KEYS:
        m = json.loads((out / name / "_MANIFEST.json").read_text())
        _assert_hash_aligned(out / name, m["metrics"]["parts"])


def test_over_budget_append_folds(split_corpus, rebuild, tmp_path, monkeypatch):
    """Past the canonical-map broadcast budget the append still folds: the
    graph's lookup round hands the delta's map tasks the map entries they
    name, the manifests keep the base's part count, every part file stays
    hash-aligned, and the result equals the rebuild."""
    from chunksilo_ray.pipelines.kg_append import append_kg
    from chunksilo_ray.stages import materialize

    out = tmp_path / "kg"
    _build_day1(split_corpus, out)
    parts = json.loads((out / "nodes" / "_MANIFEST.json").read_text())["metrics"]["parts"]
    assert rebuild[1]["metrics"]["canonical_merges"] > 0  # the map is past a budget of 0
    monkeypatch.setattr(materialize, "CANON_BROADCAST_LIMIT", 0)
    res = append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert res["metrics"]["path"] == "fold"
    _assert_equals_rebuild(res, rebuild[1])
    info = json.loads((out / "state" / "build_info.json").read_text())
    assert info["appends"][0]["path"] == "fold"
    for name in _AGG_KEYS:
        _assert_hash_aligned(out / name, parts)


@pytest.mark.parametrize("budget", ["small", "large"])
def test_append_execution_counts(split_corpus, tmp_path, monkeypatch, executions, budget):
    """A delta within SMALL_DELTA_ROWS is assembled by one task and starts no
    Ray Data execution; a larger one starts one, the read under
    assemble_dialogues. Everything after the assembly is plain tasks."""
    from chunksilo_ray.pipelines import kg_append

    out = tmp_path / "kg"
    _build_day1(split_corpus, out)
    if budget == "large":
        monkeypatch.setattr(kg_append, "SMALL_DELTA_ROWS", 0)
    executions.clear()
    res = kg_append.append_kg(str(out), str(split_corpus / "day2.parquet"))
    assert res["metrics"]["path"] == "fold"
    assert len(executions) == (0 if budget == "small" else 1)
