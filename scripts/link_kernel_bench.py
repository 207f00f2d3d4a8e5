#!/usr/bin/env python
"""Layer-level A/B of the extraction kernels, in one process, no Ray.

Runs the columnar kernel (``extraction_core.extract_columns``) and the
per-row kernel (``stages.link.extract_rows``, the oracle's scan + triple
rules) over ``datagen.generate_transcripts(N, seed)`` in
``linking.batch_size`` batches, asserts the two outputs are
``Table.equals``, then prints the best-of-``reps`` seconds of each and the
host's ``nproc``. Usage:

    python scripts/link_kernel_bench.py [--turns 50000] [--seed 1] [--reps 5]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--turns", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    import pyarrow as pa

    from chunksilo_ray import datagen
    from chunksilo_ray.config import DEFAULTS
    from chunksilo_ray.extraction_core import AliasIndex, extract_columns
    from chunksilo_ray.stages.link import _with_outputs, extract_rows

    linking = DEFAULTS["linking"]
    alias = AliasIndex.from_arrow(datagen.alias_table(), max_ngram=linking["max_ngram"])
    t = datagen.generate_transcripts(args.turns, args.seed)
    batches = [t.slice(o, linking["batch_size"]) for o in range(0, t.num_rows, linking["batch_size"])]

    def columnar() -> pa.Table:
        memo: dict = {}
        outs = []
        for b in batches:
            mentions, triples = extract_columns(b, alias, memo)
            outs.append(_with_outputs(b, mentions, triples, pa.nulls(b.num_rows, pa.string())))
        return pa.concat_tables(outs)

    def per_row() -> pa.Table:
        return pa.concat_tables([extract_rows(b, alias, float("inf")) for b in batches])

    if not columnar().equals(per_row()):
        raise SystemExit("columnar and per-row outputs differ")

    def best(fn) -> float:
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    print(
        f"turns={t.num_rows} seed={args.seed} batch_size={linking['batch_size']} "
        f"nproc={nproc} cores={len(os.sched_getaffinity(0))} reps={args.reps}"
    )
    col_s, row_s = best(columnar), best(per_row)
    print(f"columnar_s={col_s:.3f} per_row_s={row_s:.3f} ratio={col_s / row_s:.2f}")


if __name__ == "__main__":
    main()
