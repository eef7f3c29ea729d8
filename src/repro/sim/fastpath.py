"""The one fast-path switch: the fast core or the scalar reference oracle.

The fast core — grouped crossbar delivery, the columnar delivery lane,
numpy epoch trace generation and the vectorized latency-histogram fold —
is a *pure mechanical* optimization: it must produce bit-identical
results to the scalar per-access path.  :data:`REFERENCE` selects that
scalar path (scalar trace generators, per-access delivery, eager
histogram fold) so the claim stays testable: the golden-identity and
differential tests run every case both ways.

The switch deliberately lives OUTSIDE :class:`repro.common.config.GpuConfig`:
it can never change a simulated statistic, so it must not perturb config
digests used as cache keys (a fast and a reference run of the same config
share one cache entry).  Set it with ``repro --reference`` or, in-process,
with :func:`scoped`; process pools fork, so children inherit it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy  # noqa: F401  (re-exported for the epoch trace generators)

#: run the scalar reference path instead of the fast core.
REFERENCE = False


@contextmanager
def scoped(reference: bool | None = None):
    """Temporarily select the reference path (affects GPUs built inside)."""
    global REFERENCE
    saved = REFERENCE
    if reference is not None:
        REFERENCE = bool(reference)
    try:
        yield
    finally:
        REFERENCE = saved


def switch_state() -> dict:
    """The active fast-path selection.

    Recorded in benchmark metadata (``BENCH_core.json`` host info) so a
    regression check can refuse to compare runs taken on different paths.
    """
    return {"reference": REFERENCE}


def warm_state() -> dict:
    """Summary of the process-wide cross-point warm state.

    Reports the shared secure-geometry memos the batched core keeps warm
    across the simulation points one worker executes: layout instances and
    their address-translation LRUs, tree-parent maps, and the shared cache
    index-geometry table.  Purely observational — reading it never touches
    simulated state.  In a process pool each worker accumulates its own.
    """
    # deferred imports: these modules import fastpath at module scope.
    from repro.secure import layout as layout_mod
    from repro.secure import merkle
    from repro.secure.engine import _PARENT_MEMOS
    from repro.sim.cache import _index_geometry

    layouts = layout_mod.shared_layout.cache_info()
    translations = 0
    for shared in layout_mod.shared_layouts():
        for memo in (
            shared.counter_block_addr,
            shared.mac_block_addr,
            shared.bmt_path_addrs,
            shared.mt_path_addrs,
        ):
            translations += memo.cache_info().currsize
    return {
        "layouts": layouts.currsize,
        "layout_reuses": layouts.hits,
        "address_translations": translations,
        "tree_parent_entries": sum(len(m) for m in _PARENT_MEMOS.values()),
        "tree_geometries": (
            merkle.bmt_geometry.cache_info().currsize
            + merkle.mt_geometry.cache_info().currsize
        ),
        "cache_index_geometries": _index_geometry.cache_info().currsize,
    }
