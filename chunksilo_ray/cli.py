"""CLI entry points — the user surface of the engine (reference analog:
``chunksilo --build-index`` / ``chunksilo "query"``, reference
src/chunksilo/cli.py:85-110).

    python -m chunksilo_ray build  --input transcripts.parquet [more shards] \
        --alias alias_index.parquet --out /tmp/kg_out [--config cfg.yaml]
    python -m chunksilo_ray search --out /tmp/kg_out "query text" \
        [--date-from YYYY-MM-DD] [--date-to YYYY-MM-DD]
    python -m chunksilo_ray dump-defaults

The CLI owns its Ray session (guarded init, shutdown at exit) — the library
never does (driver contract)."""

from __future__ import annotations

import argparse
import json
import sys


class _RaySession:
    """Init-if-needed session handle: shutdown() only tears Ray down when
    THIS call created it (a test harness or caller that already owns a
    session keeps it)."""

    def __init__(self):
        import ray

        self._ray = ray
        self._owned = not ray.is_initialized()
        if self._owned:
            ray.init(
                address="local",
                include_dashboard=False,
                ignore_reinit_error=True,
                logging_level="ERROR",
            )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False

    def shutdown(self):
        if self._owned:
            self._ray.shutdown()


def _ray_session() -> _RaySession:
    return _RaySession()


def cmd_build(args) -> int:
    from .config import Config

    if not args.append and not args.alias:
        print("error: --alias is required unless --append", file=sys.stderr)
        return 2
    if args.append and len(args.input) > 1:
        print("error: --append takes one --input (a file or directory)", file=sys.stderr)
        return 2
    # several inputs are the shards of one build
    inputs = args.input[0] if len(args.input) == 1 else args.input
    cfg = Config.from_yaml(args.config) if args.config else None
    ray = _ray_session()
    try:
        if args.append:
            from .pipelines.kg_append import append_kg

            res = append_kg(args.out, inputs, alias_path=args.alias, cfg=cfg)
        else:
            from .pipelines.kg import build_kg

            res = build_kg(inputs, args.alias, args.out, cfg=cfg, with_chunks=True)
        print(json.dumps(res["metrics"]))
    finally:
        ray.shutdown()
    return 0


def cmd_search(args) -> int:
    import ray.data as rd

    from .config import Config
    from .pipelines.search import search_chunks

    cfg = Config.from_yaml(args.config) if args.config else None
    ray = _ray_session()
    try:
        chunks = rd.read_parquet(f"{args.out}/chunks")
        results = search_chunks(
            chunks, args.query, date_from=args.date_from, date_to=args.date_to, cfg=cfg
        ).take_all()
        for r in results:
            print(
                json.dumps(
                    {
                        "score": r["score"],
                        "uri": r["uri"],
                        "heading_path": r["heading_path"],
                        "text": r["text"],
                    }
                )
            )
    finally:
        ray.shutdown()
    return 0


def cmd_query(args) -> int:
    """Serving-surface analog (reference server.py `search_docs` tool): one
    request against the materialized output dir, result dict on stdout."""
    from .config import Config
    from .pipelines import serve

    cfg = Config.from_yaml(args.config) if args.config else None
    ray = _ray_session()
    try:
        if args.entity:
            out = {
                "lookup": serve.entity_lookup(args.out, args.entity),
                "neighbors": [],
            }
            if out["lookup"]:
                out["neighbors"] = serve.entity_neighbors(
                    args.out, out["lookup"][0]["entity_id"]
                )
            print(json.dumps(out))
        else:
            print(
                json.dumps(
                    serve.search_docs(
                        args.out, args.query, date_from=args.date_from,
                        date_to=args.date_to, cfg=cfg,
                    )
                )
            )
    finally:
        ray.shutdown()
    return 0


def cmd_serve(args) -> int:
    """MCP stdio loop over the built KG tables (reference server.py:61-106:
    FastMCP run over stdio). Requires the 'mcp' package — absent here, the
    error names the one-shot 'query' alternative."""
    from .config import Config
    from .pipelines.serve import build_mcp_server

    cfg = Config.from_yaml(args.config) if args.config else None
    ray = _ray_session()
    try:
        server = build_mcp_server(args.out, cfg=cfg)
        server.run()  # stdio loop; returns on client disconnect
    finally:
        ray.shutdown()
    return 0


def cmd_dump_defaults(_args) -> int:
    from .config import DEFAULTS

    try:
        import yaml

        print(yaml.safe_dump(DEFAULTS, sort_keys=True))
    except ImportError:  # pragma: no cover
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="chunksilo_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="run the KG-construction pipeline")
    b.add_argument(
        "--input",
        required=True,
        nargs="+",
        help="transcripts parquet file/dir; several paths are the shards of "
        "one build (each holds whole conversations, and keeps its own "
        "checkpoints under --out/shards/<file stem>)",
    )
    b.add_argument(
        "--alias",
        default=None,
        help="alias_index parquet (with --append, defaults to the path "
        "recorded at build time)",
    )
    b.add_argument(
        "--append",
        action="store_true",
        help="incremental ingest: --input is a NEW batch of conversations "
        "folded into the KG already built at --out (new conv_ids detected "
        "against the extracted checkpoints of the build and its appends; "
        "only they are extracted, then merged into edges/edges_agg/nodes)",
    )
    b.add_argument("--out", required=True, help="output/checkpoint directory")
    b.add_argument("--config", default=None, help="YAML config (deep-merged over defaults)")
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search", help="search the built chunks table")
    s.add_argument("--out", required=True, help="pipeline output directory (contains chunks/)")
    s.add_argument("query")
    s.add_argument("--date-from", default=None)
    s.add_argument("--date-to", default=None)
    s.add_argument("--config", default=None)
    s.set_defaults(fn=cmd_search)

    q = sub.add_parser("query", help="serving-surface request over built KG tables")
    q.add_argument("--out", required=True, help="pipeline output directory")
    q.add_argument("query", nargs="?", default="")
    q.add_argument("--entity", default=None, help="entity surface lookup + neighbors")
    q.add_argument("--date-from", default=None)
    q.add_argument("--date-to", default=None)
    q.add_argument("--config", default=None)
    q.set_defaults(fn=cmd_query)

    m = sub.add_parser("serve", help="MCP stdio server over built KG tables")
    m.add_argument("--out", required=True, help="pipeline output directory")
    m.add_argument("--config", default=None)
    m.set_defaults(fn=cmd_serve)

    d = sub.add_parser("dump-defaults", help="print the default config as YAML")
    d.set_defaults(fn=cmd_dump_defaults)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
