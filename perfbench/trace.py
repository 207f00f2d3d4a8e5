"""Per-layer spans, recorded from outside the program.

A layer is a module of ``chunksilo_ray``; its span is the public call that
forces its work. ``Tracer.install`` wraps those calls in place and
``uninstall`` restores them, so traced and untraced operations can
alternate within one run and the difference between them is the tracing
overhead. Spans stay in memory; ``op_layers`` turns the spans that fall
inside one timed operation into that operation's per-layer numbers.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# StageCheckpoint stage name -> layer name used in metric names
STAGE_LAYER = {
    "assembled": "assemble",
    "extracted": "link",
    "chunks": "chunks",
    "edges": "edges",
    "edges_agg": "edges_agg",
    "nodes": "nodes",
}


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    attrs: dict = field(default_factory=dict)


class _CapHits(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "max_pairs" in record.getMessage():
            self.tracer._record("canon.cap_hit", time.perf_counter())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.executions = 0
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _CapHits(self)

    # ---- wrappers --------------------------------------------------------
    def _record(self, name: str, t0: float, attrs: dict | None = None) -> None:
        self.spans.append(Span(name, t0, time.perf_counter(), attrs or {}))

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, t0)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        from chunksilo_ray.pipelines import kg, kg_append, serve
        from chunksilo_ray.state.manifest import StageCheckpoint

        stage_run = StageCheckpoint.run

        def run(ckpt, *args, **kwargs):
            reused = ckpt.complete()
            t0 = time.perf_counter()
            try:
                return stage_run(ckpt, *args, **kwargs)
            finally:
                self._record(ckpt.stage, t0, {"dir": str(ckpt.dir), "reused": reused})

        self._patch(StageCheckpoint, "run", run)

        for mod in (kg, kg_append):

            def canon(*args, _orig=mod.build_canonical_map, **kwargs):
                t0, cmap = time.perf_counter(), {}
                try:
                    cmap = _orig(*args, **kwargs)
                    return cmap
                finally:
                    norms = kwargs.get("norms")
                    self._record("canon", t0, {"norms_in": len(norms or ()), "merges": len(cmap)})

            def scan(*args, _orig=mod.scan_extracted_stats, **kwargs):
                return self._timed("scan", _orig(*args, **kwargs))

            self._patch(mod, "build_canonical_map", canon)
            self._patch(mod, "scan_extracted_stats", scan)

        self._patch(serve, "search_chunks", self._timed("search.plan", serve.search_chunks))

        execute = StreamingExecutor.execute

        def counted(executor, *args, **kwargs):
            with self._lock:
                self.executions += 1
            return execute(executor, *args, **kwargs)

        self._patch(StreamingExecutor, "execute", counted)
        logging.getLogger("chunksilo_ray.stages.canon").addHandler(self._handler)

    def uninstall(self) -> None:
        logging.getLogger("chunksilo_ray.stages.canon").removeHandler(self._handler)
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark's client records around its own calls."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, t0)

    # ---- per-operation layer numbers --------------------------------------
    def op_layers(self, kind: str, t0: float, t1: float, executions: int) -> dict:
        """Per-layer numbers of one operation that ran in [t0, t1]."""
        spans = [s for s in self.spans if t0 <= s.t0 and s.t1 <= t1]
        wall = t1 - t0
        out: dict[str, float] = {f"ray.executions_{kind}": executions}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0) + value

        blocking = []  # stage and canon spans: the serial steps of a build
        for s in spans:
            dur = s.t1 - s.t0
            layer = STAGE_LAYER.get(s.name)
            if layer is not None:
                blocking.append(s)
                add("checkpoint.stages_reused", int(s.attrs["reused"]))
                add(f"{layer}.busy_s", dur)
                if not s.attrs["reused"]:
                    rows, nbytes = _manifest_totals(Path(s.attrs["dir"]))
                    add(f"{layer}.rows_out", rows)
                    add(f"{layer}.bytes_written", nbytes)
                    add("checkpoint.bytes_written", nbytes)
            elif s.name == "canon":
                blocking.append(s)
                add("canon.busy_s", dur)
                add("canon.norms_in", s.attrs.get("norms_in", 0))
                add("canon.merges", s.attrs.get("merges", 0))
            elif s.name == "canon.cap_hit":
                add("canon.cap_hits", 1)
            elif s.name == "scan":
                add("scan.busy_s", dur)
            elif s.name == "search.plan":
                add("search.plan_s", dur)
                add("search.exec_s", wall - dur)
            elif s.name in ("serve.lookup", "serve.neighbors"):
                add(f"{s.name}_exec_s", dur)
        if blocking:
            durable = t1 - max(s.t1 for s in blocking)
            out["checkpoint.durable_wait_s"] = durable
            out["trace.span_coverage"] = (_union(blocking) + durable) / wall
        if kind == "append":
            out["append.fold_s"] = wall - _union(spans)
        return out


def _manifest_totals(stage_dir: Path) -> tuple[int, int]:
    manifest = json.loads((stage_dir / "_MANIFEST.json").read_text())
    return int(manifest["rows"]), sum(int(p["bytes"]) for p in manifest["parts"])


def _union(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total, end = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.t0):
        if s.t1 > end:
            total += s.t1 - max(s.t0, end)
            end = s.t1
    return total
