"""The three workloads and the closed-loop client that drives them.

Each workload has a set-up (its inputs, made from the seed, and the state
its timed operations need), untimed reference checks, and two kinds of
timed operation: a primary one and an auxiliary one. Within a run the
primary operations all run back to back first, then the auxiliary ones;
the order is fixed because a resume run between appends made each later
append slower (1.8 s to 3.4 s over five rounds at 200k turns), while
appends back to back held at 1.64-1.82 s.

The benchmark calls only the public entry points ``build_kg``,
``append_kg``, ``search_docs``, ``entity_lookup`` and ``entity_neighbors``.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
import re
import shutil
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .checks import drop_one_row, graph_digests, oracle_precision_recall
from .trace import Tracer

# input sizes; "tiny" exists for the benchmark's own smoke test
SIZES = {
    "full": {"build_turns": 50_000, "base_turns": 50_000, "delta_turns": 500, "query_turns": 5_000},
    "tiny": {"build_turns": 2_000, "base_turns": 2_000, "delta_turns": 200, "query_turns": 800},
}
REDELIVERED_CONVS = 5
MIN_OPS = 3  # per operation kind, even if the run's time is up


@dataclass
class Op:
    kind: str
    wall_s: float
    ok: bool
    layers: dict | None  # per-layer numbers, for traced operations only
    extra: dict


class Client:
    """Closed loop: one thread; each operation starts after the last ends.
    With a tracer, operations of each kind alternate traced and untraced."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.ops: list[Op] = []
        self._seen: Counter = Counter()
        self._tracing = False

    def span(self, name: str):
        return self.tracer.span(name) if self._tracing else contextlib.nullcontext()

    def call(self, kind: str, fn, check, extra=lambda result: {}) -> None:
        traced = self.tracer is not None and self._seen[kind] % 2 == 0
        self._seen[kind] += 1
        executions = self.tracer.executions if self.tracer else 0
        if traced:
            self.tracer.install()
            self._tracing = True
        result, ok = None, False
        gc.collect()  # keep collector pauses of earlier operations out of this one
        t0 = time.perf_counter()
        try:
            result = fn()
            ok = True
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
        finally:
            t1 = time.perf_counter()
            if traced:
                self._tracing = False
                self.tracer.uninstall()
        info: dict = {}
        if ok:
            try:
                ok = bool(check(result))
                info = extra(result)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"perfbench: output check failed for {kind}", file=sys.stderr)
        layers = None
        if traced:
            layers = self.tracer.op_layers(kind, t0, t1, self.tracer.executions - executions)
            layers.update(info.get("layers", {}))
        self.ops.append(Op(kind, t1 - t0, ok, layers, info))

    def loop(self, until: float, op) -> None:
        n = 0
        while n < MIN_OPS or time.perf_counter() < until:
            op(self)
            n += 1


class Workload:
    primary: str
    aux: str
    aux_share = 0.25  # of the run's seconds, after the primary phase

    def __init__(self, work: Path, seed: int, sizes: dict, fault: bool):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.fault = fault
        self.aliases = work / "alias_index.parquet"

    def _write_inputs(self, **tables: pa.Table) -> None:
        from chunksilo_ray import datagen

        pq.write_table(datagen.alias_table(), self.aliases)
        for name, table in tables.items():
            path = self.work / name
            path.parent.mkdir(parents=True, exist_ok=True)
            pq.write_table(table, path, row_group_size=16384)

    def _graph_matches(self, out: Path, expected: dict) -> bool:
        if self.fault:
            drop_one_row(out / "edges_agg")
        return graph_digests(out) == expected


class BuildWorkload(Workload):
    """Repeated cold ``build_kg(..., with_chunks=True)`` into an empty dir,
    then no-op re-runs over the last finished build."""

    primary, aux = "build", "resume"
    # a resume is one short execution whose time jumps between ~0.5 s and
    # ~0.8 s from op to op; it needs more samples per run than a build
    aux_share = 0.35

    def setup(self) -> None:
        from chunksilo_ray import datagen
        from chunksilo_ray.pipelines.kg import build_kg

        table = datagen.generate_transcripts(self.sizes["build_turns"], seed=self.seed)
        self.turns = table.num_rows
        self.transcripts = self.work / "transcripts.parquet"
        self._write_inputs(**{"transcripts.parquet": table})
        # the warm-up build; its output is the reference the timed builds match
        self.reference = self.work / "reference"
        build_kg(str(self.transcripts), str(self.aliases), str(self.reference), with_chunks=True)

    def reference_ok(self) -> bool:
        self.expected = graph_digests(self.reference)
        precision, recall = oracle_precision_recall(self.transcripts, self.aliases, self.reference)
        print(f"perfbench: oracle triple P={precision:.4f} R={recall:.4f}", file=sys.stderr)
        return precision >= 0.95 and recall >= 0.95

    def _build(self):
        from chunksilo_ray.pipelines.kg import build_kg

        return build_kg(str(self.transcripts), str(self.aliases), str(self.work / "build"), with_chunks=True)

    def primary_op(self, client: Client) -> None:
        shutil.rmtree(self.work / "build", ignore_errors=True)
        client.call(
            "build",
            self._build,
            lambda res: self._graph_matches(self.work / "build", self.expected),
            lambda res: {"layers": {"link.dead_letter_rows": res["metrics"]["dead_letter_turns"]}},
        )

    def aux_op(self, client: Client) -> None:
        client.call("resume", self._build, lambda res: graph_digests(self.work / "build") == self.expected)

    def report(self, med) -> dict:
        return {
            "build_turns_per_s": (self.turns / med("build") if med("build") else 0.0, "turns/s"),
            "resume_s": (med("resume"), "s"),
        }


class IncrementalWorkload(Workload):
    """``append_kg`` of a ~1% delta onto a fresh copy of a tracked base,
    then no-op ``build_kg`` re-runs over the base."""

    primary, aux = "append", "resume"

    def setup(self) -> None:
        from chunksilo_ray import datagen
        from chunksilo_ray.pipelines.kg import build_kg
        from chunksilo_ray.pipelines.kg_append import append_kg

        base = datagen.generate_transcripts(self.sizes["base_turns"], seed=self.seed)
        delta = datagen.generate_transcripts(self.sizes["delta_turns"], seed=self.seed + 1)
        delta = delta.set_column(
            0, "conv_id", pa.array(["delta-" + c for c in delta.column("conv_id").to_pylist()], pa.string())
        )
        # the delta file also re-delivers a few base conversations, which
        # append_kg must skip
        dup_ids = sorted(set(base.column("conv_id").to_pylist()))[:REDELIVERED_CONVS]
        dups = base.filter(pc.is_in(base.column("conv_id"), value_set=pa.array(dup_ids)))
        self.base_file = self.work / "base.parquet"
        self.delta_file = self.work / "delta.parquet"
        self.merged_dir = self.work / "merged"
        # rows shuffled, as datagen shuffles every transcript file. This also
        # spreads the re-delivered rows over the read blocks: a block of only
        # re-delivered rows crashes append_kg (README.md, open findings).
        delta_file = pa.concat_tables([delta, dups])
        delta_file = delta_file.take(np.random.default_rng(self.seed).permutation(delta_file.num_rows))
        self._write_inputs(
            **{
                "base.parquet": base,
                "delta.parquet": delta_file,
                "merged/all.parquet": pa.concat_tables([base, delta]),
            }
        )
        self.base_out = self.work / "base_out"
        build_kg(str(self.base_file), str(self.aliases), str(self.base_out), with_chunks=False)
        self.appended = self.work / "append"
        shutil.copytree(self.base_out, self.appended)
        append_kg(str(self.appended), str(self.delta_file))  # warm-up

    def reference_ok(self) -> bool:
        """append == rebuild: one untimed rebuild of base + delta per run."""
        from chunksilo_ray.pipelines.kg import build_kg

        rebuild = self.work / "rebuild"
        build_kg(str(self.merged_dir), str(self.aliases), str(rebuild), with_chunks=False)
        self.expected = graph_digests(rebuild)
        self.base_digests = graph_digests(self.base_out)
        return graph_digests(self.appended) == self.expected

    def primary_op(self, client: Client) -> None:
        from chunksilo_ray.pipelines.kg_append import append_kg

        shutil.rmtree(self.appended, ignore_errors=True)
        shutil.copytree(self.base_out, self.appended)

        def check(res) -> bool:
            m = res["metrics"]
            return (
                not m["noop"]
                and m["skipped_existing_convs"] == REDELIVERED_CONVS
                and self._graph_matches(self.appended, self.expected)
            )

        client.call(
            "append",
            lambda: append_kg(str(self.appended), str(self.delta_file)),
            check,
            lambda res: {"layers": {"link.dead_letter_rows": res["metrics"]["dead_letter_turns"]}},
        )

    def aux_op(self, client: Client) -> None:
        from chunksilo_ray.pipelines.kg import build_kg

        client.call(
            "resume",
            lambda: build_kg(str(self.base_file), str(self.aliases), str(self.base_out), with_chunks=False),
            lambda res: graph_digests(self.base_out) == self.base_digests,
        )

    def report(self, med) -> dict:
        return {"append_s": (med("append"), "s"), "resume_s": (med("resume"), "s")}


SEARCH_KEYS = {"matched_files", "chunks", "num_matched_files", "num_chunks", "query", "retrieval_time"}


class QueryWorkload(Workload):
    """A fixed read-only mix over a small built index: ``search_docs`` in
    four query shapes, then entity hops (``entity_lookup`` of a
    top-frequency node's canonical surface, ``entity_neighbors`` of its id)."""

    primary, aux = "search", "hop"

    def setup(self) -> None:
        from chunksilo_ray import datagen
        from chunksilo_ray.pipelines.kg import build_kg

        table = datagen.generate_transcripts(self.sizes["query_turns"], seed=self.seed)
        transcripts = self.work / "transcripts.parquet"
        self._write_inputs(**{"transcripts.parquet": table})
        self.out = self.work / "kg"
        build_kg(str(transcripts), str(self.aliases), str(self.out), with_chunks=True)
        searches, entities = self._pick_inputs()
        # warm-up: one query of each kind. Each input's first timed answer
        # becomes the reference its later answers must repeat.
        self._search_answer(self._search(searches[0]))
        self._hop_answer(self._hop(entities[0]))
        self.expected: dict = {}
        self._searches = itertools.cycle(searches)
        self._entities = itertools.cycle(entities)

    def _pick_inputs(self) -> tuple[list, list]:
        rng = random.Random(self.seed)
        chunks = pq.read_table(self.out / "chunks", columns=["text", "tool", "ts"])
        self.chunk_rows = chunks.num_rows
        texts = chunks.column("text").to_pylist()

        def words(n: int) -> str:
            tokens = [w for w in rng.choice(texts).split() if re.fullmatch(r"[A-Za-z][\w-]*", w)]
            start = rng.randrange(max(1, len(tokens) - n + 1))
            return " ".join(tokens[start : start + n])

        def phrase() -> str:
            # consecutive whitespace tokens of one chunk: an exact substring
            while True:
                tokens = rng.choice(texts).split()
                start = rng.randrange(max(1, len(tokens) - 2))
                window = tokens[start : start + 3]
                if len(window) >= 2 and not any('"' in t for t in window):
                    return '"' + " ".join(window) + '"'

        ts = chunks.column("ts")
        lo, hi = pc.min(ts).as_py(), pc.max(ts).as_py()
        third = (hi - lo) / 3
        tools = sorted({t for t in chunks.column("tool").to_pylist() if t})
        searches = [
            ("plain", words(4), None, None),
            ("phrase", phrase(), None, None),
            ("dated", words(4), (lo + third).strftime("%Y-%m-%d"), (hi - third).strftime("%Y-%m-%d")),
            ("tool", rng.choice(tools), None, None),
        ]
        edges = pq.read_table(self.out / "edges_agg", columns=["subj", "obj"])
        linked = set(edges.column("subj").to_pylist()) | set(edges.column("obj").to_pylist())
        nodes = pq.read_table(self.out / "nodes", columns=["entity_id", "canonical", "freq"])
        nodes = nodes.filter(pc.is_in(nodes.column("entity_id"), value_set=pa.array(sorted(linked))))
        top = nodes.sort_by([("freq", "descending"), ("entity_id", "ascending"), ("canonical", "ascending")])
        candidates = sorted(set(zip(top.column("canonical").to_pylist()[:32], top.column("entity_id").to_pylist()[:32])))
        return searches, rng.sample(candidates, 4)

    def _search(self, case):
        from chunksilo_ray.pipelines.serve import search_docs

        _, query, date_from, date_to = case
        return search_docs(str(self.out), query, date_from=date_from, date_to=date_to)

    @staticmethod
    def _search_answer(res: dict) -> tuple:
        """What must repeat: the result shape and the ranked scores (rows
        tied on score may come back in either order)."""
        if set(res) != SEARCH_KEYS or res["num_chunks"] != len(res["chunks"]) or not res["chunks"]:
            raise ValueError(f"search_docs returned a bad or empty result for {res.get('query')!r}")
        return res["num_chunks"], sorted(round(c["score"], 9) for c in res["chunks"])

    def _hop(self, entity: tuple[str, str], client: Client | None = None) -> tuple[list, list]:
        from chunksilo_ray.pipelines.serve import entity_lookup, entity_neighbors

        span = client.span if client else lambda name: contextlib.nullcontext()
        canonical, entity_id = entity
        t0 = time.perf_counter()
        with span("serve.lookup"):
            hits = entity_lookup(str(self.out), canonical)
        t1 = time.perf_counter()
        with span("serve.neighbors"):
            edges = entity_neighbors(str(self.out), entity_id)
        self._last_hop = (t1 - t0, time.perf_counter() - t1)
        return hits, edges

    @staticmethod
    def _hop_answer(res: tuple[list, list]) -> tuple:
        hits, edges = res
        if not hits or not edges:
            raise ValueError("entity_lookup or entity_neighbors returned nothing for a linked node")
        return sorted(h["freq"] for h in hits), sorted(e["weight"] for e in edges)

    def primary_op(self, client: Client) -> None:
        case = next(self._searches)
        client.call(
            "search",
            lambda: self._search(case),
            lambda res: self.expected.setdefault(case, self._search_answer(res)) == self._search_answer(res),
            lambda res: {"layers": {"search.rows_scanned": self.chunk_rows, "search.rows_returned": res["num_chunks"]}},
        )

    def aux_op(self, client: Client) -> None:
        entity = next(self._entities)
        client.call(
            "hop",
            lambda: self._hop(entity, client),
            lambda res: self.expected.setdefault(entity, self._hop_answer(res)) == self._hop_answer(res),
            lambda res: {"lookup_s": self._last_hop[0], "neighbors_s": self._last_hop[1]},
        )

    def reference_ok(self) -> bool:
        return True  # answers are checked against each input's first answer

    def report(self, med) -> dict:
        return {
            "search_ms": (1000 * med("search"), "ms"),
            "lookup_ms": (1000 * med("hop", "lookup_s"), "ms"),
            "neighbors_ms": (1000 * med("hop", "neighbors_s"), "ms"),
        }


WORKLOADS = {"build": BuildWorkload, "incremental": IncrementalWorkload, "query": QueryWorkload}
