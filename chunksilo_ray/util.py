"""Small runtime utilities (no ray.init here — session is the driver's)."""

from __future__ import annotations


def pool_bounds(max_actors: int | None = None, num_cpus: float = 1.0) -> tuple[int, int]:
    """Actor-pool (min, max) sized to the cluster: max ~= the CPUs the pool
    may use (leaving headroom for read/write/shuffle tasks), min = half of
    that so short stages reach parallelism immediately instead of waiting on
    the autoscaler ramp (measured: (1,16) pools ran a 7 s stage in 12 s).

    ``max_actors`` optionally caps the pool (e.g. a stage whose state is
    expensive to replicate)."""
    try:
        import ray

        ncpu = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    except Exception:  # pragma: no cover - ray not importable
        ncpu = 4
    hi = max(1, int((ncpu - 2) / max(num_cpus, 0.25)))
    if max_actors is not None:
        hi = max(1, min(hi, max_actors))
    # min = hi//4: enough immediate parallelism for short stages without
    # paying hi actor-process startups on every stage (actors are fresh
    # worker processes; tasks reuse warm ones)
    lo = max(1, hi // 4)
    return (lo, hi)


_REF_CACHE: dict[str, object] = {}


def cached_get(ref):
    """Worker-global broadcast fetch: ``ray.get`` an ObjectRef once per
    worker process, then serve every subsequent task on that worker from the
    cache (the stateless-task twin of doing ``ray.get`` in an actor's
    ``__init__``). Stateless tasks + warm workers beat a dedicated actor
    pool for SHORT stages: no actor-process startup on the critical path,
    and the stage scales to every free CPU instantly."""
    import ray

    key = ref.hex()
    got = _REF_CACHE.get(key)
    if got is None:
        if len(_REF_CACHE) > 8:
            _REF_CACHE.clear()
        got = ray.get(ref)
        _REF_CACHE[key] = got
    return got


def polars_safe():
    """Import polars with a retry around its lazy-submodule initialization.

    Observed once under Ray: a worker's first polars use inside a task hit
    ``module 'polars._reexport' has no attribute 'DataFrame'`` — a partial
    lazy import. Import LAZILY here (an eager module-level import costs
    ~1 s x every spawned worker process, measured as +5 s on the first
    pipeline stage) and poke the lazy attribute with a short retry instead."""
    import time as _t

    last: Exception | None = None
    for _ in range(3):
        try:
            import polars as pl

            pl.DataFrame  # force the lazy re-export to resolve
            return pl
        except AttributeError as exc:  # pragma: no cover - rare import race
            last = exc
            _t.sleep(0.05)
    raise last  # pragma: no cover

