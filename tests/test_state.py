"""Checkpoint-manifest + change-detection tests (reference
test_incremental_ingest.py layer)."""

import pyarrow as pa
import pytest

import ray.data as rd

from chunksilo_ray.state.change_detect import (
    change_counts,
    classify_changes,
    scan_manifest,
)
from chunksilo_ray.state.manifest import fingerprint, input_fingerprint

pytestmark = pytest.mark.usefixtures("ray_session")


def _manifest(rows):
    return pa.table(
        {
            "path": pa.array([r[0] for r in rows], pa.string()),
            "hash": pa.array([r[1] for r in rows], pa.string()),
            "mtime": pa.array([float(r[2]) for r in rows], pa.float64()),
        }
    )


class TestChangeDetect:
    def test_new_modified_deleted_unchanged(self):
        tracked = _manifest([("a", "h1", 1), ("b", "h2", 2), ("c", "h3", 3)])
        scan = rd.from_arrow(_manifest([("a", "h1", 1), ("b", "hX", 9), ("d", "h4", 4)]))
        got = {r["path"]: r["status"] for r in classify_changes(scan, tracked).take_all()}
        assert got == {"a": "unchanged", "b": "modified", "d": "new", "c": "deleted"}

    def test_counts(self):
        tracked = _manifest([("a", "h1", 1)])
        scan = rd.from_arrow(_manifest([("a", "h1", 1), ("b", "h2", 2)]))
        assert change_counts(scan, tracked) == {"unchanged": 1, "new": 1}

    def test_scan_manifest_mtime_fastpath(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("hello")
        m1 = scan_manifest(str(tmp_path))
        m2 = scan_manifest(str(tmp_path))
        assert m1.equals(m2)
        f.write_text("hello world")
        m3 = scan_manifest(str(tmp_path))
        assert m3["hash"][0].as_py() != m1["hash"][0].as_py()


class TestFingerprints:
    def test_fingerprint_stable_and_sensitive(self):
        assert fingerprint("a", 1) == fingerprint("a", 1)
        assert fingerprint("a", 1) != fingerprint("a", 2)

    def test_input_fingerprint_changes_on_touch(self, tmp_path):
        f = tmp_path / "data.bin"
        f.write_bytes(b"abc")
        fp1 = input_fingerprint(str(tmp_path))
        import os

        os.utime(f, (1, 1))
        assert input_fingerprint(str(tmp_path)) != fp1


@pytest.mark.parametrize(
    "exchange, killed",
    [(True, False), (False, False), (False, True)],
    ids=["exchange", "two_renames", "killed_between_the_renames"],
)
def test_checkpoint_commit_swaps_in_a_whole_new_version(tmp_path, monkeypatch, exchange, killed):
    """``commit`` replaces a checkpoint with its staged version, through an
    atomic directory exchange or, where that is unavailable, two renames;
    no staging or old directory is left behind. A kill between the two
    renames leaves only ``<stage>.old`` and ``<stage>.tmp``: the next look
    at the checkpoint restores the previous version, and a rerun commits."""
    import os

    import pyarrow.parquet as pq

    from chunksilo_ray.state import manifest

    if not exchange:
        monkeypatch.setattr(manifest, "_exchange_dirs", lambda a, b: False)
    ckpt = manifest.StageCheckpoint(str(tmp_path), "t", "fp1")
    ckpt.run(lambda: rd.from_arrow(pa.table({"x": [1, 2]})))
    ckpt = manifest.StageCheckpoint(str(tmp_path), "t", "fp2")
    if killed:
        class Killed(Exception):
            pass

        renames, replace = [], os.replace

        def killed_at_the_second_rename(src, dst):
            renames.append(src)
            if len(renames) == 2:
                raise Killed
            replace(src, dst)

        staged = ckpt.staging_dir()
        pq.write_table(pa.table({"x": [3]}), staged / "part-new.parquet")
        monkeypatch.setattr(manifest.os, "replace", killed_at_the_second_rename)
        with pytest.raises(Killed):
            ckpt.commit(staged, [{"file": "part-new.parquet", "rows": 1, "bytes": 0}])
        monkeypatch.setattr(manifest.os, "replace", replace)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["t.old", "t.tmp"]
        assert not ckpt.complete() and ckpt.manifest()["fingerprint"] == "fp1"
        assert sorted(pq.read_table(ckpt.dir)["x"].to_pylist()) == [1, 2]
    staged = ckpt.staging_dir()
    pq.write_table(pa.table({"x": [3]}), staged / "part-new.parquet")
    ckpt.commit(staged, [{"file": "part-new.parquet", "rows": 1, "bytes": 0}])
    assert ckpt.complete() and ckpt.manifest()["rows"] == 1
    assert sorted(f.name for f in ckpt.dir.iterdir()) == ["_MANIFEST.json", "part-new.parquet"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["t"]
