"""CLI surface tests (reference test_cli.py layer) — arg parsing and
dump-defaults run in-process; build/search are covered by the e2e suite
through the library API and by the verify flow through subprocesses."""

import json

import pytest

from chunksilo_ray.cli import main


def test_dump_defaults_yaml(capsys):
    assert main(["dump-defaults"]) == 0
    out = capsys.readouterr().out
    import yaml

    cfg = yaml.safe_load(out)
    assert cfg["chunking"]["chunk_size"] == 512
    assert cfg["canon"]["bands"] == 32


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_build_requires_args():
    with pytest.raises(SystemExit):
        main(["build"])  # missing --input/--alias/--out


def test_config_yaml_roundtrip(tmp_path):
    from chunksilo_ray.config import Config

    p = tmp_path / "cfg.yaml"
    p.write_text("chunking:\n  chunk_size: 128\nsearch:\n  rerank_top_k: 3\n")
    cfg = Config.from_yaml(str(p))
    assert cfg.get("chunking.chunk_size") == 128
    assert cfg.get("chunking.chunk_overlap") == 50  # defaults survive merge
    assert cfg.get("search.rerank_top_k") == 3
    assert cfg.get("nope.missing", "dflt") == "dflt"


def test_build_append_takes_one_input(capsys):
    assert main(["build", "--append", "--input", "a.parquet", "b.parquet", "--out", "o"]) == 2
    assert "--append takes one --input" in capsys.readouterr().err


def test_build_of_three_shards(ray_session, smoke_corpus, tmp_path, capsys):
    """Several --input paths are the shards of one build: each keeps its own
    checkpoints under --out/shards/<stem>."""
    import pathlib
    import zlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(f"{smoke_corpus}/transcripts.parquet")
    assign = [zlib.crc32(c.encode()) % 3 for c in t["conv_id"].to_pylist()]
    shards = []
    for s in range(3):
        path = tmp_path / f"part-{s}.parquet"
        pq.write_table(t.filter(pa.array([a == s for a in assign])), path)
        shards.append(str(path))
    out = tmp_path / "out"
    rc = main(["build", "--input", *shards, "--alias", f"{smoke_corpus}/alias_index.parquet",
               "--out", str(out)])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert metrics["shards"] == 3
    assert metrics["turns"] == t.num_rows
    assert sorted(p.parent.name for p in out.glob("shards/*/extracted")) == [
        pathlib.Path(s).stem for s in shards
    ]
    assert (out / "chunks" / "_MANIFEST.json").exists()
