"""Every config key reaches the stage it configures: each pipeline section
is passed whole (``**cfg.section(name)``) to its stage function, so a key
that is not a parameter of that function would either crash the build or
sit inert."""

import inspect

from chunksilo_ray.config import DEFAULTS
from chunksilo_ray.stages.canon import build_canonical_map
from chunksilo_ray.stages.chunk import chunk_turns
from chunksilo_ray.stages.embed import embed_chunks
from chunksilo_ray.stages.link import link_extract

SECTION_STAGES = {
    "linking": link_extract,
    "canon": build_canonical_map,
    "chunking": chunk_turns,
    "embedding": embed_chunks,
}


def test_section_keys_are_stage_parameters():
    for section, stage in SECTION_STAGES.items():
        params = set(inspect.signature(stage).parameters)
        extra = set(DEFAULTS[section]) - params
        assert not extra, (section, stage.__name__, sorted(extra))


def test_no_inert_sections_or_runtime_keys():
    assert "assembly" not in DEFAULTS
    assert set(DEFAULTS["runtime"]) == {"target_max_block_size"}
    assert set(DEFAULTS["linking"]) == {"max_ngram", "batch_size", "per_row_seconds"}
    assert "incremental" not in DEFAULTS

    def leaves(d):
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in d.values())

    assert leaves(DEFAULTS) == 27
