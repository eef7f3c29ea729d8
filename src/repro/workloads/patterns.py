"""Access-pattern generators.

Each generator is a :data:`repro.workloads.base.TraceFactory` producing an
infinite :class:`WarpOp` stream for one warp.  The patterns correspond to the
behaviours the paper's benchmark suite exercises:

* :func:`streaming` — grid-stride loops over large arrays (srad_v2,
  streamcluster, backprop ...): perfectly coalesced, little reuse, the
  access shape that stresses metadata caches.
* :func:`tiled` — small working sets revisited repeatedly (heartwall,
  lavaMD): high cache hit rates, compute bound.
* :func:`random_access` — irregular, data-dependent addresses (bfs, cfd,
  kmeans): poor spatial locality, partially coalesced.
* :func:`pointer_chase` — serialized dependent lookups (b+tree probes):
  scattered sectors, few sectors per access.
* :func:`stencil` — multi-array structured-grid sweeps (fdtd2d, lbm,
  2Dconvolution, dwt2d): several read streams plus a write stream.
* :func:`compute_only` — compute phases with rare tiled accesses
  (heartwall, lavaMD).

``spec.sectors_per_access`` sectors are touched per memory instruction; a
value above 4 spans consecutive 128 B lines (back-to-back coalesced loads).
All addresses are sector-aligned and wrap inside ``spec.working_set``.

Epoch-batched generation
------------------------

On the fast path (:data:`repro.sim.fastpath.REFERENCE` off) the regular
patterns — streaming, tiled, stencil — pregenerate their line indices an
*epoch* at a time with numpy array arithmetic and memoize the resulting (frozen, immutable) :class:`WarpOp` objects by
``(base address, is_write)``.  The op *sequence* is unchanged: the index
recurrences are evaluated with the same integer math, and the per-step
``rng.random()`` write-ratio draws are issued in the same order (or
skipped entirely when ``write_ratio == 0``, in which case no draw is ever
observable).  Irregular patterns (random, pointer_chase, mixed) stay on
the scalar path for their address draws — the Mersenne Twister sequence
cannot be vectorized without changing it — and only reuse memoized ops /
validation-free construction, which is output-invisible.  The reference
path keeps the plain per-step generators as the oracle.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.common import params
from repro.sim import fastpath
from repro.workloads.base import WarpOp, WorkloadSpec, make_op_unchecked

_LINE = params.CACHE_LINE_BYTES
_SECTOR = params.SECTOR_BYTES

#: steps of line indices pregenerated per numpy batch.
EPOCH_STEPS = 512


def _span(base: int, count: int, region_base: int, region_bytes: int) -> Tuple[int, ...]:
    """*count* consecutive sectors from *base*, wrapped inside the region."""
    offset = base - region_base
    return tuple(
        region_base + (offset + i * _SECTOR) % region_bytes for i in range(count)
    )


def _stream_index(spec: WorkloadSpec, warp: int, total_warps: int, i: int, lines: int, span: int) -> int:
    """Line index of step *i* for one warp.

    ``blocked`` (default): each warp streams through its own contiguous
    slice of the iteration space — how row/tile-parallel kernels behave.
    ``strided``: classic grid-stride interleaving, where all warps sweep the
    same region in lockstep (the most metadata-hostile shape).
    """
    if spec.extra.get("layout", "blocked") == "strided":
        return ((i * total_warps + warp) * span) % lines
    slice_lines = max(span, lines // max(1, total_warps))
    base = (warp * slice_lines) % lines
    return (base + (i * span) % slice_lines) % lines


def _stream_index_epoch(
    spec: WorkloadSpec, warp: int, total_warps: int, start: int, lines: int, span: int
) -> list:
    """``_stream_index`` for steps ``[start, start + EPOCH_STEPS)`` at once.

    Same integer recurrence as the scalar form, evaluated in int64 array
    arithmetic (all operands fit comfortably: line counts are < 2**40).
    """
    np = fastpath.numpy
    i = np.arange(start, start + EPOCH_STEPS, dtype=np.int64)
    if spec.extra.get("layout", "blocked") == "strided":
        return (((i * total_warps + warp) * span) % lines).tolist()
    slice_lines = max(span, lines // max(1, total_warps))
    base = (warp * slice_lines) % lines
    return ((base + (i * span) % slice_lines) % lines).tolist()


def streaming(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Streaming over the working set (blocked or grid-stride)."""
    rng = spec.rng_for(warp)
    lines = spec.working_set // _LINE
    span = max(1, -(-spec.sectors_per_access * _SECTOR // _LINE))  # lines per step
    if not fastpath.REFERENCE:
        return _streaming_epoch(spec, warp, total_warps, rng, lines, span)
    return _streaming_scalar(spec, warp, total_warps, rng, lines, span)


def _streaming_scalar(spec, warp, total_warps, rng, lines, span) -> Iterator[WarpOp]:
    i = 0
    while True:
        line = _stream_index(spec, warp, total_warps, i, lines, span) * _LINE
        is_write = rng.random() < spec.write_ratio
        yield WarpOp(
            n_insts=spec.insts_per_step,
            compute_cycles=spec.compute_cycles,
            mem_addrs=_span(line, spec.sectors_per_access, 0, spec.working_set),
            is_write=is_write,
        )
        i += 1


def _streaming_epoch(spec, warp, total_warps, rng, lines, span) -> Iterator[WarpOp]:
    n_insts = spec.insts_per_step
    compute = spec.compute_cycles
    count = spec.sectors_per_access
    region = spec.working_set
    write_ratio = spec.write_ratio
    draw = rng.random if write_ratio > 0.0 else None
    memo: dict = {}
    start = 0
    while True:
        for index in _stream_index_epoch(spec, warp, total_warps, start, lines, span):
            base = index * _LINE
            is_write = draw() < write_ratio if draw is not None else False
            key = (base, is_write)
            op = memo.get(key)
            if op is None:
                op = make_op_unchecked(
                    n_insts, compute, _span(base, count, 0, region), is_write
                )
                memo[key] = op
            yield op
        start += EPOCH_STEPS


def tiled(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Repeated sweeps over a small shared tile (high reuse).

    ``spec.extra['tile_share']`` consecutive warps (default: one SM's worth)
    share a tile of ``tile_lines`` lines, so tiles stay L1/L2 resident.
    """
    rng = spec.rng_for(warp)
    tile_lines = max(1, spec.extra.get("tile_lines", 32))
    share = max(1, spec.extra.get("tile_share", 16))
    lines = spec.working_set // _LINE
    base_line = ((warp // share) * tile_lines) % max(1, lines - tile_lines)
    if not fastpath.REFERENCE:
        # the tile cycles with period tile_lines: after one sweep every op
        # object is served from the memo, allocation-free.
        n_insts = spec.insts_per_step
        compute = spec.compute_cycles
        count = spec.sectors_per_access
        region = spec.working_set
        write_ratio = spec.write_ratio
        draw = rng.random if write_ratio > 0.0 else None
        memo: dict = {}
        i = 0
        while True:
            base = (base_line + i % tile_lines) * _LINE
            is_write = draw() < write_ratio if draw is not None else False
            key = (base, is_write)
            op = memo.get(key)
            if op is None:
                op = make_op_unchecked(
                    n_insts, compute, _span(base, count, 0, region), is_write
                )
                memo[key] = op
            yield op
            i += 1
    i = 0
    while True:
        line = (base_line + i % tile_lines) * _LINE
        is_write = rng.random() < spec.write_ratio
        yield WarpOp(
            n_insts=spec.insts_per_step,
            compute_cycles=spec.compute_cycles,
            mem_addrs=_span(line, spec.sectors_per_access, 0, spec.working_set),
            is_write=is_write,
        )
        i += 1


def mixed(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Hot-set reuse plus a cold stream.

    With probability ``extra['hot_fraction']`` an access goes to a small hot
    region (``extra['hot_bytes']``, e.g. network weights, stencil rows) that
    stays cache resident; otherwise the warp advances its cold blocked
    stream.  This is how medium-bandwidth kernels behave: most accesses hit
    on chip, a steady minority goes to DRAM.

    The address draws are inherently scalar (per-step Mersenne draws), so
    this pattern keeps the per-step loop on the fast path and only
    memoizes the finished ops.
    """
    rng = spec.rng_for(warp)
    hot_fraction = spec.extra.get("hot_fraction", 0.8)
    hot_bytes = spec.extra.get("hot_bytes", 512 * 1024)
    hot_lines = max(1, hot_bytes // _LINE)
    lines = spec.working_set // _LINE
    span = max(1, -(-spec.sectors_per_access * _SECTOR // _LINE))
    memo: dict = None if fastpath.REFERENCE else {}
    i = 0
    while True:
        is_write = rng.random() < spec.write_ratio
        if rng.random() < hot_fraction:
            line = rng.randrange(hot_lines) * _LINE
            region, base = hot_bytes, 0
            is_write = False  # hot sets are read-shared (weights, stencils)
        else:
            line = _stream_index(spec, warp, total_warps, i, lines, span) * _LINE
            region, base = spec.working_set, 0
            i += 1
        if memo is not None:
            key = (line, base, is_write)
            op = memo.get(key)
            if op is None:
                op = make_op_unchecked(
                    spec.insts_per_step,
                    spec.compute_cycles,
                    _span(line, spec.sectors_per_access, base, region),
                    is_write,
                )
                memo[key] = op
            yield op
            continue
        yield WarpOp(
            n_insts=spec.insts_per_step,
            compute_cycles=spec.compute_cycles,
            mem_addrs=_span(line, spec.sectors_per_access, base, region),
            is_write=is_write,
        )


def random_access(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Uniformly random lines; partially coalesced accesses.

    Address draws stay scalar (the rng sequence is the spec); on the fast
    path the finished ops are memoized by (line, is_write) so revisited
    lines cost two dict probes instead of a construction + validation.
    """
    rng = spec.rng_for(warp)
    lines = spec.working_set // _LINE
    if not fastpath.REFERENCE:
        n_insts = spec.insts_per_step
        compute = spec.compute_cycles
        count = spec.sectors_per_access
        region = spec.working_set
        write_ratio = spec.write_ratio
        randrange = rng.randrange
        draw = rng.random
        memo: dict = {}
        while True:
            line = randrange(lines) * _LINE
            is_write = draw() < write_ratio
            key = (line, is_write)
            op = memo.get(key)
            if op is None:
                op = make_op_unchecked(
                    n_insts, compute, _span(line, count, 0, region), is_write
                )
                memo[key] = op
            yield op
    while True:
        line = rng.randrange(lines) * _LINE
        is_write = rng.random() < spec.write_ratio
        yield WarpOp(
            n_insts=spec.insts_per_step,
            compute_cycles=spec.compute_cycles,
            mem_addrs=_span(line, spec.sectors_per_access, 0, spec.working_set),
            is_write=is_write,
        )


def pointer_chase(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Dependent scattered lookups: each step touches a few random sectors.

    ``spec.extra['fanout']`` sectors per access, each from a different line
    (a warp of threads probing different tree nodes).
    """
    rng = spec.rng_for(warp)
    lines = spec.working_set // _LINE
    fanout = max(1, spec.extra.get("fanout", 8))
    #: probability a probe stays in the hot top levels of the structure.
    hot_fraction = spec.extra.get("hot_fraction", 0.0)
    hot_lines = max(1, spec.extra.get("hot_bytes", 256 * 1024) // _LINE)
    # every address term is a multiple of _SECTOR, so construction-time
    # validation proves nothing; skip it on the fast path.
    make = WarpOp if fastpath.REFERENCE else make_op_unchecked
    while True:
        addrs = tuple(
            (
                rng.randrange(hot_lines)
                if rng.random() < hot_fraction
                else rng.randrange(lines)
            )
            * _LINE
            + rng.randrange(params.SECTORS_PER_LINE) * _SECTOR
            for _ in range(fanout)
        )
        is_write = rng.random() < spec.write_ratio
        yield make(spec.insts_per_step, spec.compute_cycles, addrs, is_write)


def stencil(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Structured-grid sweep over several arrays plus a write stream.

    ``spec.extra['arrays']`` streams partition the working set; all but the
    last are read at a common index, then the output line is written with
    probability ``write_ratio``.
    """
    rng = spec.rng_for(warp)
    arrays = max(2, spec.extra.get("arrays", 3))
    array_bytes = (spec.working_set // arrays) // _LINE * _LINE
    lines = array_bytes // _LINE
    span = max(1, -(-spec.sectors_per_access * _SECTOR // _LINE))
    if not fastpath.REFERENCE:
        return _stencil_epoch(spec, warp, total_warps, rng, arrays, array_bytes, lines, span)
    return _stencil_scalar(spec, warp, total_warps, rng, arrays, array_bytes, lines, span)


def _stencil_scalar(
    spec, warp, total_warps, rng, arrays, array_bytes, lines, span
) -> Iterator[WarpOp]:
    i = 0
    while True:
        index = _stream_index(spec, warp, total_warps, i, lines, span)
        for a in range(arrays - 1):
            base = a * array_bytes + index * _LINE
            yield WarpOp(
                n_insts=spec.insts_per_step,
                compute_cycles=spec.compute_cycles,
                mem_addrs=_span(base, spec.sectors_per_access, a * array_bytes, array_bytes),
                is_write=False,
            )
        out_base = (arrays - 1) * array_bytes + index * _LINE
        yield WarpOp(
            n_insts=spec.insts_per_step,
            compute_cycles=spec.compute_cycles,
            mem_addrs=_span(
                out_base, spec.sectors_per_access, (arrays - 1) * array_bytes, array_bytes
            ),
            is_write=rng.random() < spec.write_ratio,
        )
        i += 1


def _stencil_epoch(
    spec, warp, total_warps, rng, arrays, array_bytes, lines, span
) -> Iterator[WarpOp]:
    n_insts = spec.insts_per_step
    compute = spec.compute_cycles
    count = spec.sectors_per_access
    write_ratio = spec.write_ratio
    draw = rng.random if write_ratio > 0.0 else None
    out_array = arrays - 1
    out_region_base = out_array * array_bytes
    memo: dict = {}
    start = 0
    while True:
        for index in _stream_index_epoch(spec, warp, total_warps, start, lines, span):
            row = index * _LINE
            for a in range(out_array):
                region_base = a * array_bytes
                base = region_base + row
                op = memo.get(base)  # reads: is_write is always False
                if op is None:
                    op = make_op_unchecked(
                        n_insts, compute, _span(base, count, region_base, array_bytes), False
                    )
                    memo[base] = op
                yield op
            out_base = out_region_base + row
            is_write = draw() < write_ratio if draw is not None else False
            key = (out_base, is_write)
            op = memo.get(key)
            if op is None:
                op = make_op_unchecked(
                    n_insts,
                    compute,
                    _span(out_base, count, out_region_base, array_bytes),
                    is_write,
                )
                memo[key] = op
            yield op
        start += EPOCH_STEPS


def compute_only(spec: WorkloadSpec, warp: int, total_warps: int) -> Iterator[WarpOp]:
    """Pure-compute phases interleaved with rare tiled accesses."""
    mem_every = max(1, spec.extra.get("mem_every", 8))
    inner = tiled(spec, warp, total_warps)
    if not fastpath.REFERENCE:
        # the compute op is constant: one frozen instance serves every step.
        compute_op = WarpOp(n_insts=spec.insts_per_step, compute_cycles=spec.compute_cycles)
        i = 0
        while True:
            if i % mem_every == mem_every - 1:
                yield next(inner)
            else:
                yield compute_op
            i += 1
    i = 0
    while True:
        if i % mem_every == mem_every - 1:
            yield next(inner)
        else:
            yield WarpOp(n_insts=spec.insts_per_step, compute_cycles=spec.compute_cycles)
        i += 1


PATTERNS = {
    "streaming": streaming,
    "tiled": tiled,
    "mixed": mixed,
    "random": random_access,
    "pointer_chase": pointer_chase,
    "stencil": stencil,
    "compute": compute_only,
}
