"""Compiled kernel tier: the greedy event loop lowered to a native code core.

The Python tier (:class:`repro.sim.kernel.ResidentSimulationKernel`)
removed the per-event re-derivation of the reference loop but still
dispatches every event — active-set maintenance, the dirty-flag greedy
allocation pass over the flow→edge incidence, the argmin next-event
selection, segment coalescing — through the Python interpreter.  That caps
sweep instances around a few thousand flows.  This module lowers exactly
that loop into a small C core operating on typed arrays, which is what
100k-flow instances need (millions of events per second instead of tens
of thousands).

Engine
------
The preferred lowering named by the roadmap is a Numba ``@njit`` of the
loop; this build targets environments where ``numba`` (and Cython) are not
installed, so the tier ships the equivalent *compiled C core*: ~300 lines
of dependency-free C99 (embedded in :data:`_C_SOURCE`), built once with the
system C toolchain (``cc -O2 -ffp-contract=off``), cached on disk keyed by
a source digest, and loaded through :mod:`ctypes` — all by the package's
shared loader, :mod:`repro.native`, which also builds the path core of
:mod:`repro.core.network`.  ``-ffp-contract=off``
matters: fused multiply-adds would change the rounding of
``remaining - rate * elapsed`` and break the bit-identity contract below.
When no C compiler is present, :func:`available` reports ``False`` and the
kernel selector (:func:`repro.sim.simulator.make_kernel`) falls back to the
Python tier — selecting the ``jit`` backend is always safe.

Bit-identity contract
---------------------
:class:`ResidentJitKernel` performs the *same IEEE-754 double arithmetic on
the same values in the same order* as the Python tier (which is itself
property-tested against ``run_reference()``), so all three event loops
produce identical completion and start times and identical segments.  The
C core only lowers the default greedy-priority policy — the one the paper's
methodology and every pinned benchmark use; plans selecting ``max-min`` /
``weighted`` allocators run on the Python tier.
``tests/sim/test_kernel_equivalence.py`` asserts the three-way equivalence
across topology × workload × allocator families, pause/resume included,
and ``tests/sim/test_streaming_equivalence.py`` holds streaming sessions on
both tiers to a rebuild-per-epoch oracle.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import math
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..faults import maybe_inject
from ..native import CompiledCore
from .kernel import ResidentSimulationKernel, _TIME_EPS, _VOLUME_EPS

__all__ = [
    "ResidentJitKernel",
    "SegmentLog",
    "available",
    "paused_gc",
]


@contextmanager
def paused_gc():
    """Pause cyclic garbage collection for the enclosed block.

    Result assembly (the segment drain, the per-flow completion and start
    maps, the realised schedule) materialises O(events) Python objects
    that are all retained, so cyclic-GC passes over the (large)
    surrounding heap only add cost during that storm.  The manager is
    reentrant-safe — nesting it inside an already-paused scope is a no-op
    — which lets a streaming session hold one session-scoped pause while
    per-epoch calls keep their own (now free) guard, and it restores the
    collector even when the block raises.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

#: Exit statuses of the C core's event loop.
_FINISHED = 0
_PAUSED = 1
_STALLED = 2
_EVENT_CAP = 3
_NEED_SEGMENT_SPACE = 4

#: Slots of the int64 state vector shared with the C core.
_EVENTS, _PENDING_PTR, _ACT_LEN, _DIRTY_LEN, _G_LEN = 0, 1, 2, 3, 4
_FORCE_FULL, _COMPLETED, _SEG_LEN, _MAX_EVENTS = 5, 6, 7, 8
_ISTATE_SLOTS = 9

_C_SOURCE = r"""
/* The greedy-priority event loop of repro.sim.kernel, lowered to C99.
 *
 * Every float operation mirrors the Python kernel statement-for-statement
 * (compile with -ffp-contract=off; no reassociation) so completion times
 * are bit-identical.  All state lives in caller-owned arrays; the function
 * returns a status and can be re-entered to resume (pause at `until`,
 * segment-buffer drain).
 */
#include <math.h>
#include <string.h>

typedef long long i64;

/* istate slots (keep in sync with kernel_jit.py) */
#define ST_EVENTS 0
#define ST_PENDING_PTR 1
#define ST_ACT_LEN 2
#define ST_DIRTY_LEN 3
#define ST_G_LEN 4
#define ST_FORCE_FULL 5
#define ST_COMPLETED 6
#define ST_SEG_LEN 7
#define ST_MAX_EVENTS 8

typedef struct {
    i64 n, n_edges;
    const double *size;
    double *remaining;
    double *completion;
    double *start;
    unsigned char *started;
    const i64 *rank;
    const i64 *sid;
    const i64 *eoff;
    const i64 *eend;
    const i64 *csr_idx;
    const double *caps;
    double *residual;
    const double *pend_release;
    const i64 *pend_rank;
    const i64 *pend_k;
    i64 n_pending;
    i64 *act;
    i64 *act_rank;
    const i64 *ea_off;
    i64 *ea_flow;
    i64 *ea_rank;
    i64 *ea_len;
    unsigned char *flow_dirty;
    i64 *dirty_stack;
    i64 *g_pos;
    double *g_rate;
    double *rate_prev;
    i64 *seg_flow;
    double *seg_start;
    double *seg_end;
    double *seg_rate;
    i64 seg_cap;
    i64 *last_seg;
    i64 *done_scratch;
    i64 *istate;
    double *dstate;
    double vol_eps, time_eps;
} ctx_t;

/* bisect.bisect_right over an i64 array. */
static i64 upper_bound(const i64 *arr, i64 len, i64 value) {
    i64 lo = 0, hi = len;
    while (lo < hi) {
        i64 mid = (lo + hi) / 2;
        if (value < arr[mid]) hi = mid; else lo = mid + 1;
    }
    return lo;
}

/* ResidentSimulationKernel._mark_dirty: the active lower-priority flows
 * sharing an edge with k (plus, on release, k itself). */
static void mark_dirty(ctx_t *c, i64 k, int include_self) {
    if (include_self && !c->flow_dirty[k]) {
        c->flow_dirty[k] = 1;
        c->dirty_stack[c->istate[ST_DIRTY_LEN]++] = k;
    }
    i64 own = c->rank[k];
    for (i64 p = c->eoff[k]; p < c->eend[k]; p++) {
        i64 e = c->csr_idx[p];
        i64 off = c->ea_off[e];
        i64 len = c->ea_len[e];
        for (i64 q = upper_bound(c->ea_rank + off, len, own); q < len; q++) {
            i64 f = c->ea_flow[off + q];
            if (!c->flow_dirty[f]) {
                c->flow_dirty[f] = 1;
                c->dirty_stack[c->istate[ST_DIRTY_LEN]++] = f;
            }
        }
    }
}

/* ResidentSimulationKernel._enter_active: sorted insert into the active
 * list and into each edge's active slab. */
static void enter_active(ctx_t *c, i64 k, i64 rk) {
    i64 len = c->istate[ST_ACT_LEN];
    i64 lo = upper_bound(c->act_rank, len, rk);
    memmove(c->act + lo + 1, c->act + lo, (size_t)(len - lo) * sizeof(i64));
    memmove(c->act_rank + lo + 1, c->act_rank + lo,
            (size_t)(len - lo) * sizeof(i64));
    c->act[lo] = k;
    c->act_rank[lo] = rk;
    c->istate[ST_ACT_LEN] = len + 1;
    for (i64 p = c->eoff[k]; p < c->eend[k]; p++) {
        i64 e = c->csr_idx[p];
        i64 off = c->ea_off[e];
        i64 elen = c->ea_len[e];
        i64 pos = upper_bound(c->ea_rank + off, elen, rk);
        memmove(c->ea_flow + off + pos + 1, c->ea_flow + off + pos,
                (size_t)(elen - pos) * sizeof(i64));
        memmove(c->ea_rank + off + pos + 1, c->ea_rank + off + pos,
                (size_t)(elen - pos) * sizeof(i64));
        c->ea_flow[off + pos] = k;
        c->ea_rank[off + pos] = rk;
        c->ea_len[e] = elen + 1;
    }
}

/* ResidentSimulationKernel._leave_active: delete-in-place from the active
 * list and each edge slab. */
static void leave_active(ctx_t *c, i64 k) {
    i64 len = c->istate[ST_ACT_LEN];
    i64 i = 0;
    while (c->act[i] != k) i++;
    memmove(c->act + i, c->act + i + 1, (size_t)(len - i - 1) * sizeof(i64));
    memmove(c->act_rank + i, c->act_rank + i + 1,
            (size_t)(len - i - 1) * sizeof(i64));
    c->istate[ST_ACT_LEN] = len - 1;
    for (i64 p = c->eoff[k]; p < c->eend[k]; p++) {
        i64 e = c->csr_idx[p];
        i64 off = c->ea_off[e];
        i64 elen = c->ea_len[e];
        i64 j = 0;
        while (c->ea_flow[off + j] != k) j++;
        memmove(c->ea_flow + off + j, c->ea_flow + off + j + 1,
                (size_t)(elen - j - 1) * sizeof(i64));
        memmove(c->ea_rank + off + j, c->ea_rank + off + j + 1,
                (size_t)(elen - j - 1) * sizeof(i64));
        c->ea_len[e] = elen - 1;
    }
}

/* ResidentSimulationKernel._allocate, greedy incremental path: re-derive
 * only the dirty flows; reuse the cached grants outright when nothing is
 * dirty. */
static void allocate(ctx_t *c) {
    int force = (int)c->istate[ST_FORCE_FULL];
    if (!force && c->istate[ST_DIRTY_LEN] == 0) return;
    c->istate[ST_FORCE_FULL] = 0;
    memcpy(c->residual, c->caps, (size_t)c->n_edges * sizeof(double));
    i64 g = 0;
    i64 alen = c->istate[ST_ACT_LEN];
    for (i64 i = 0; i < alen; i++) {
        i64 k = c->act[i];
        double rate;
        if (force || c->flow_dirty[k]) {
            rate = INFINITY;
            for (i64 p = c->eoff[k]; p < c->eend[k]; p++) {
                double v = c->residual[c->csr_idx[p]];
                if (v < rate) rate = v;
            }
            if (rate <= c->vol_eps) rate = 0.0;
            if (rate != c->rate_prev[k]) {
                c->rate_prev[k] = rate;
                if (!force) mark_dirty(c, k, 0);
            }
        } else {
            rate = c->rate_prev[k];
        }
        if (rate > 0.0) {
            for (i64 p = c->eoff[k]; p < c->eend[k]; p++)
                c->residual[c->csr_idx[p]] -= rate;
            c->g_pos[g] = k;
            c->g_rate[g] = rate;
            g++;
        }
    }
    for (i64 i = 0; i < c->istate[ST_DIRTY_LEN]; i++)
        c->flow_dirty[c->dirty_stack[i]] = 0;
    c->istate[ST_DIRTY_LEN] = 0;
    c->istate[ST_G_LEN] = g;
}

/* ResidentSimulationKernel._record_segment: coalesce into the flow's last
 * segment of the session's log, else append.  Segments are attributed to
 * the slot's stable id (sid) rather than the slot index so the session can
 * recycle slots without mixing up flows. */
static void record_segment(ctx_t *c, i64 k, double s, double e, double r) {
    i64 last = c->last_seg[k];
    if (last >= 0 && c->seg_end[last] == s && c->seg_rate[last] == r) {
        c->seg_end[last] = e;
        return;
    }
    i64 len = c->istate[ST_SEG_LEN];
    c->seg_flow[len] = c->sid[k];
    c->seg_start[len] = s;
    c->seg_end[len] = e;
    c->seg_rate[len] = r;
    c->last_seg[k] = len;
    c->istate[ST_SEG_LEN] = len + 1;
}

i64 repro_greedy_run(
    i64 n, i64 n_edges,
    const double *size, double *remaining,
    double *completion, double *start, unsigned char *started,
    const i64 *rank, const i64 *sid,
    const i64 *eoff, const i64 *eend, const i64 *csr_idx,
    const double *caps, double *residual,
    const double *pend_release, const i64 *pend_rank, const i64 *pend_k,
    i64 n_pending,
    i64 *act, i64 *act_rank,
    const i64 *ea_off, i64 *ea_flow, i64 *ea_rank, i64 *ea_len,
    unsigned char *flow_dirty, i64 *dirty_stack,
    i64 *g_pos, double *g_rate, double *rate_prev,
    i64 *seg_flow, double *seg_start, double *seg_end, double *seg_rate,
    i64 seg_cap, i64 *last_seg, i64 *done_scratch,
    i64 *istate, double *dstate,
    double until, double vol_eps, double time_eps)
{
    ctx_t C = {
        n, n_edges, size, remaining, completion, start, started, rank,
        sid, eoff, eend, csr_idx, caps, residual, pend_release, pend_rank, pend_k,
        n_pending, act, act_rank, ea_off, ea_flow, ea_rank, ea_len,
        flow_dirty, dirty_stack, g_pos, g_rate, rate_prev, seg_flow,
        seg_start, seg_end, seg_rate, seg_cap, last_seg, done_scratch,
        istate, dstate, vol_eps, time_eps,
    };
    ctx_t *c = &C;
    while (c->istate[ST_COMPLETED] < n) {
        double now = c->dstate[0];
        /* 0. Releases whose time has come join the active set. */
        double threshold = now + c->time_eps;
        while (c->istate[ST_PENDING_PTR] < c->n_pending &&
               c->pend_release[c->istate[ST_PENDING_PTR]] <= threshold) {
            i64 pp = c->istate[ST_PENDING_PTR]++;
            i64 k = c->pend_k[pp];
            enter_active(c, k, c->pend_rank[pp]);
            mark_dirty(c, k, 1);
        }
        /* 1. Allocate rates (incremental greedy pass). */
        allocate(c);
        i64 glen = c->istate[ST_G_LEN];
        /* Drain point: this event records at most glen segments; return to
         * Python for a bigger/empty buffer before mutating anything. */
        if (c->istate[ST_SEG_LEN] + glen > c->seg_cap) return 4;
        /* 2. Next event: earliest projected completion vs next release. */
        double next_completion = INFINITY;
        for (i64 i = 0; i < glen; i++) {
            double projected = now + c->remaining[c->g_pos[i]] / c->g_rate[i];
            if (projected < next_completion) next_completion = projected;
        }
        double next_release =
            (c->istate[ST_PENDING_PTR] < c->n_pending)
                ? c->pend_release[c->istate[ST_PENDING_PTR]]
                : INFINITY;
        double next_time =
            next_completion < next_release ? next_completion : next_release;
        if (!isfinite(next_time)) return 2;
        {
            double floor_time = now + c->time_eps;
            if (next_time < floor_time) next_time = floor_time;
        }
        /* 3. Pause at the splice deadline instead of crossing it. */
        if (next_time > until) {
            double elapsed = until - now;
            if (elapsed > 0.0) {
                for (i64 i = 0; i < glen; i++) {
                    i64 k = c->g_pos[i];
                    double rate = c->g_rate[i];
                    double transferred = rate * elapsed;
                    if (transferred > c->remaining[k])
                        transferred = c->remaining[k];
                    c->remaining[k] -= transferred;
                    record_segment(c, k, now, until, rate);
                    if (!c->started[k] &&
                        c->size[k] - c->remaining[k] > c->vol_eps) {
                        c->started[k] = 1;
                        c->start[k] = now;
                    }
                }
                c->dstate[0] = until;
            }
            return 1;
        }
        c->istate[ST_EVENTS] += 1;
        if (c->istate[ST_EVENTS] > c->istate[ST_MAX_EVENTS]) return 3;
        /* 4. Advance: move volume, record segments, retire completions. */
        {
            double elapsed = next_time - now;
            i64 ndone = 0;
            for (i64 i = 0; i < glen; i++) {
                i64 k = c->g_pos[i];
                double rate = c->g_rate[i];
                double volume = c->remaining[k];
                double transferred = rate * elapsed;
                if (transferred > volume) transferred = volume;
                double after = volume - transferred;
                if (after <= c->vol_eps) {
                    after = 0.0;
                    c->done_scratch[ndone++] = k;
                }
                c->remaining[k] = after;
                if (!c->started[k] && c->size[k] - after > c->vol_eps) {
                    c->started[k] = 1;
                    c->start[k] = now;
                }
                record_segment(c, k, now, next_time, rate);
            }
            for (i64 d = 0; d < ndone; d++) {
                i64 k = c->done_scratch[d];
                c->completion[k] = next_time;
                c->istate[ST_COMPLETED] += 1;
                leave_active(c, k);
                c->rate_prev[k] = 0.0;
                /* Keep the cached grant lists exact for the no-change fast
                 * path (a completed flow always held a positive grant). */
                i64 g2 = c->istate[ST_G_LEN];
                i64 gi = 0;
                while (c->g_pos[gi] != k) gi++;
                memmove(c->g_pos + gi, c->g_pos + gi + 1,
                        (size_t)(g2 - gi - 1) * sizeof(i64));
                memmove(c->g_rate + gi, c->g_rate + gi + 1,
                        (size_t)(g2 - gi - 1) * sizeof(double));
                c->istate[ST_G_LEN] = g2 - 1;
                mark_dirty(c, k, 0);
            }
            c->dstate[0] = next_time;
        }
    }
    return 0;
}

/* ResidentJitKernel.begin_epoch, lowered: generation-tag tombstoning,
 * stale-dirty clearing, ranks, epoch-local baselines, the active/pending
 * split and the per-edge slabs in two passes over the live flows.  The
 * order is already rank-sorted, so appending actives as they are visited
 * is a counting sort — the slab layout is identical to the Python
 * tier's (grouped by edge, ranks ascending).  Pending flows come out in
 * rank order; the caller stable-sorts them by release.  Departed slots
 * (previous live set plus fresh ingests, minus the new order) land in
 * `departed` for the caller to validate and free.  Returns 1 when the
 * slab buffers are too small for the live incidence (`out[2]` holds the
 * needed size; the call is idempotent, so the caller grows and retries),
 * else 0. */
i64 repro_begin_epoch(
    i64 nlive, i64 n_edges, double threshold,
    const i64 *order,
    const double *release, const double *remaining,
    double *size, unsigned char *started, double *start, i64 *rank,
    const i64 *eoff, const i64 *eend, const i64 *csr_idx,
    i64 *act, i64 *act_rank,
    i64 *pend_k, i64 *pend_rank, double *pend_release,
    i64 *ea_off, i64 *ea_len, i64 *ea_flow, i64 *ea_rank,
    i64 *tag, i64 epoch_no,
    const i64 *prev_live, i64 n_prev,
    const i64 *ingested, i64 n_ing,
    unsigned char *flow_dirty,
    i64 *departed, i64 ea_cap,
    i64 *out)
{
    for (i64 i = 0; i < nlive; i++) tag[order[i]] = epoch_no;
    i64 nd = 0;
    for (i64 i = 0; i < n_prev; i++) {
        i64 k = prev_live[i];
        /* Stale dirty flags can survive a finished epoch (the final
         * event's completions mark neighbours dirty after the last
         * allocation pass); they only ever sit on these rows. */
        flow_dirty[k] = 0;
        if (tag[k] != epoch_no) departed[nd++] = k;
    }
    for (i64 i = 0; i < n_ing; i++) {
        i64 k = ingested[i];
        if (tag[k] != epoch_no) departed[nd++] = k;
    }
    out[3] = nd;
    i64 total = 0;
    for (i64 e = 0; e < n_edges; e++) ea_len[e] = 0;
    for (i64 i = 0; i < nlive; i++) {
        i64 k = order[i];
        total += eend[k] - eoff[k];
        for (i64 p = eoff[k]; p < eend[k]; p++) ea_len[csr_idx[p]]++;
    }
    out[2] = total;
    if (total > ea_cap) return 1;
    i64 acc = 0;
    for (i64 e = 0; e < n_edges; e++) {
        i64 t = ea_len[e];
        ea_off[e] = acc;
        acc += t;
        ea_len[e] = 0;
    }
    i64 na = 0, npend = 0;
    for (i64 i = 0; i < nlive; i++) {
        i64 k = order[i];
        rank[k] = i;
        size[k] = remaining[k];
        started[k] = 0;
        start[k] = NAN;
        if (release[k] <= threshold) {
            act[na] = k;
            act_rank[na] = i;
            na++;
            for (i64 p = eoff[k]; p < eend[k]; p++) {
                i64 e = csr_idx[p];
                i64 q = ea_off[e] + ea_len[e]++;
                ea_flow[q] = k;
                ea_rank[q] = i;
            }
        } else {
            pend_k[npend] = k;
            pend_rank[npend] = i;
            pend_release[npend] = release[k];
            npend++;
        }
    }
    out[0] = na;
    out[1] = npend;
    return 0;
}

/* ResidentJitKernel.harvest_epoch, lowered: one pass over the live rows
 * collecting newly-completed, first-started, volume-touched and
 * first-moved slots into compact scratch arrays (completion values are
 * NaN or finite, so !isnan matches the python tier's isfinite).  A start
 * is emitted only the first epoch the flow moves — the global fold keeps
 * the earliest start anyway, and epochs close in time order. */
void repro_harvest_epoch(
    i64 nlive, const i64 *live,
    const double *completion, unsigned char *harvested,
    const unsigned char *started, unsigned char *start_harvested,
    const double *remaining, double *harvest_remaining,
    const i64 *last_seg, unsigned char *harvest_moved,
    i64 *done_k, i64 *start_k, i64 *touch_k, i64 *moved_k,
    i64 *out)
{
    i64 ndone = 0, nstart = 0, ntouch = 0, nmoved = 0;
    for (i64 i = 0; i < nlive; i++) {
        i64 k = live[i];
        if (!isnan(completion[k]) && !harvested[k]) {
            harvested[k] = 1;
            done_k[ndone++] = k;
        }
        if (started[k] == 1 && !start_harvested[k]) {
            start_harvested[k] = 1;
            start_k[nstart++] = k;
        }
        if (remaining[k] != harvest_remaining[k]) {
            harvest_remaining[k] = remaining[k];
            touch_k[ntouch++] = k;
        }
        if (last_seg[k] >= 0 && !harvest_moved[k]) {
            harvest_moved[k] = 1;
            moved_k[nmoved++] = k;
        }
    }
    out[0] = ndone;
    out[1] = nstart;
    out[2] = ntouch;
    out[3] = nmoved;
}
"""


# --------------------------------------------------------------- compilation


def _declare(lib: ctypes.CDLL) -> None:
    """Argument and result types of the core's three entry points."""
    p = ctypes.c_void_p
    i = ctypes.c_longlong
    d = ctypes.c_double
    fn = lib.repro_greedy_run
    fn.restype = ctypes.c_longlong
    fn.argtypes = [
        i, i,                # n, n_edges
        p, p, p, p, p,       # size, remaining, completion, start, started
        p, p, p, p, p,       # rank, sid, eoff, eend, csr_idx
        p, p,                # caps, residual
        p, p, p, i,          # pend_release, pend_rank, pend_k, n_pending
        p, p,                # act, act_rank
        p, p, p, p,          # ea_off, ea_flow, ea_rank, ea_len
        p, p,                # flow_dirty, dirty_stack
        p, p, p,             # g_pos, g_rate, rate_prev
        p, p, p, p, i, p, p,  # seg buffers, seg_cap, last_seg, done
        p, p,                # istate, dstate
        d, d, d,             # until, vol_eps, time_eps
    ]
    fb = lib.repro_begin_epoch
    fb.restype = ctypes.c_longlong
    fb.argtypes = [
        i, i, d,             # nlive, n_edges, threshold
        p,                   # order
        p, p,                # release, remaining
        p, p, p, p,          # size, started, start, rank
        p, p, p,             # eoff, eend, csr_idx
        p, p,                # act, act_rank
        p, p, p,             # pend_k, pend_rank, pend_release
        p, p, p, p,          # ea_off, ea_len, ea_flow, ea_rank
        p, i,                # tag, epoch_no
        p, i,                # prev_live, n_prev
        p, i,                # ingested, n_ing
        p,                   # flow_dirty
        p, i,                # departed, ea_cap
        p,                   # out [n_active, n_pending, total, n_departed]
    ]
    fh = lib.repro_harvest_epoch
    fh.restype = None
    fh.argtypes = [
        i, p,                # nlive, live
        p, p,                # completion, harvested
        p, p,                # started, start_harvested
        p, p,                # remaining, harvest_remaining
        p, p,                # last_seg, harvest_moved
        p, p, p, p,          # done_k, start_k, touch_k, moved_k
        p,                   # out [n_done, n_start, n_touch, n_moved]
    ]


#: The simulator core, built through the package's shared loader and cached
#: as ``repro_kernel_<digest>.so``.
CORE = CompiledCore("repro_kernel", "kernel core", _C_SOURCE, _declare)


def available() -> bool:
    """Whether the compiled (jit) backend can run on this machine."""
    return CORE.load() is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled backend cannot run (``None`` when it can)."""
    CORE.load()
    return CORE.error


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


# -------------------------------------------------------------------- kernel


class SegmentLog:
    """A compiled session's segment log: one ``(ingest id, start, end,
    rate)`` record per coalesced segment, in recording order.

    Iterating it yields ``(ingest id, segments)`` per flow, ids ascending,
    each flow's ``[start, end, rate]`` segments in time order: the drain of
    :meth:`ResidentJitKernel.drain_all_segments`.  A result keeps one made
    of copies (:meth:`ResidentJitKernel.segment_log`) and drains it only if
    its schedule is read.
    """

    __slots__ = ("sids", "starts", "ends", "rates")

    def __init__(
        self, sids: np.ndarray, starts: np.ndarray, ends: np.ndarray,
        rates: np.ndarray,
    ) -> None:
        self.sids = sids
        self.starts = starts
        self.ends = ends
        self.rates = rates

    def __iter__(self) -> Iterator[Tuple[int, List[List[float]]]]:
        count = len(self.sids)
        if count == 0:
            return
        order = np.argsort(self.sids, kind="stable")  # per-sid, in time order
        triples = np.column_stack(
            (self.starts[order], self.ends[order], self.rates[order])
        ).tolist()
        sids_sorted = self.sids[order]
        bounds = np.flatnonzero(sids_sorted[1:] != sids_sorted[:-1]) + 1
        chunk_starts = np.concatenate(([0], bounds))
        chunk_ends = np.concatenate((bounds, [count]))
        for a, b, sid in zip(chunk_starts.tolist(), chunk_ends.tolist(),
                             sids_sorted[chunk_starts].tolist()):
            yield sid, triples[a:b]


class ResidentJitKernel(ResidentSimulationKernel):
    """The compiled kernel tier: a :class:`ResidentSimulationKernel` whose
    state lives in ctypes-owned arrays the C core runs on directly.

    * per-slot state (sizes, volumes, clocks, ranks, incidence bounds) is
      preallocated with capacity doubling and a LIFO free-list;
    * flow→edge incidence lives in an append-only pool addressed by
      per-slot ``(offset, end)`` bounds (re-routing a flow appends a new
      row; freed rows are leaked, bounded by total ingested incidence);
    * the segment log is one growable buffer shared by all epochs,
      attributed by ingest-unique slot ids, so pause/resume splices
      coalesce in C and nothing is re-ingested or copied between epochs;
    * ``run()`` re-enters the C core directly on the persistent arrays —
      no list round-trips; the Python-side state of the parent class is
      used only for slot bookkeeping and error diagnostics.

    Only the greedy-priority policy is lowered; sessions with other
    allocators run on the Python tier, and :meth:`begin_epoch` raises
    ``ValueError`` when a later plan switches a compiled session to one.
    """

    def __init__(
        self,
        network,
        allocator: str = "greedy",
        start_time: float = 0.0,
        initial_capacity: int = 1024,
        initial_segment_capacity: int = 1 << 16,
    ) -> None:
        if allocator != "greedy":
            raise ValueError(
                f"the compiled kernel tier only lowers the greedy "
                f"allocator, not {allocator!r}; use the Python tier "
                "(ResidentSimulationKernel) for other policies"
            )
        if not available():
            raise RuntimeError(
                unavailable_reason() or "compiled kernel core unavailable"
            )
        super().__init__(network, allocator=allocator, start_time=start_time)
        n_edges = len(self._caps)
        cap = max(int(initial_capacity), 1)
        self._cap = cap
        self._nrows = 0
        self.a_size = np.zeros(cap, dtype=np.float64)
        self.a_remaining = np.zeros(cap, dtype=np.float64)
        self.a_completion = np.full(cap, np.nan, dtype=np.float64)
        self.a_start = np.full(cap, np.nan, dtype=np.float64)
        self.a_started = np.zeros(cap, dtype=np.uint8)
        self.a_release = np.zeros(cap, dtype=np.float64)
        self.a_rate_prev = np.zeros(cap, dtype=np.float64)
        self.a_rank = np.zeros(cap, dtype=np.int64)
        self.a_sid = np.zeros(cap, dtype=np.int64)
        self.a_eoff = np.zeros(cap, dtype=np.int64)
        self.a_eend = np.zeros(cap, dtype=np.int64)
        self.a_last_seg = np.full(cap, -1, dtype=np.int64)
        self.a_live = np.zeros(cap, dtype=bool)
        self.a_harvested = np.zeros(cap, dtype=np.uint8)
        self.a_harvest_remaining = np.zeros(cap, dtype=np.float64)
        self.a_harvest_moved = np.zeros(cap, dtype=np.uint8)
        self.a_start_harvested = np.zeros(cap, dtype=np.uint8)
        self._flow_dirty_arr = np.zeros(cap, dtype=np.uint8)
        # Generation tags: begin_epoch stamps the epoch number on every
        # slot in the order, so departures fall out of an O(live) compare
        # instead of an O(capacity) membership scan.
        self._epoch_tag = np.zeros(cap, dtype=np.int64)
        self._epoch_no = 0
        self._ingested_since: List[int] = []

        self._pool = np.zeros(max(4 * cap, 16), dtype=np.int64)
        self._pool_len = 0

        self._caps_arr = np.asarray(self._caps, dtype=np.float64)
        self._residual = np.empty(max(n_edges, 1), dtype=np.float64)

        self._seg_cap = max(int(initial_segment_capacity), 16)
        self._seg_flow = np.empty(self._seg_cap, dtype=np.int64)
        self._seg_start = np.empty(self._seg_cap, dtype=np.float64)
        self._seg_end = np.empty(self._seg_cap, dtype=np.float64)
        self._seg_rate = np.empty(self._seg_cap, dtype=np.float64)

        self._istate = np.zeros(_ISTATE_SLOTS, dtype=np.int64)
        self._dstate = np.array([float(start_time)], dtype=np.float64)
        self._n_target = 0
        self._live_rows = np.zeros(0, dtype=np.int64)
        self._n_pend = 0
        self._pend_release = np.empty(1, dtype=np.float64)
        self._pend_rank = np.empty(1, dtype=np.int64)
        self._pend_k = np.empty(1, dtype=np.int64)
        #: Cached c_void_p groups for the run(), begin_epoch() and
        #: harvest_epoch() calls; every buffer reallocation resets all three
        #: to None.
        self._run_ptrs = self._be_ptrs = self._hv_ptrs = None
        # Persistent per-epoch scratch (grown geometrically by begin_epoch;
        # the C core never reads beyond the live lengths it is handed).
        self._scratch_cap = 1
        self._act = np.empty(1, dtype=np.int64)
        self._act_rank = np.empty(1, dtype=np.int64)
        self._dirty_stack = np.empty(1, dtype=np.int64)
        self._g_pos = np.empty(1, dtype=np.int64)
        self._g_rate = np.empty(1, dtype=np.float64)
        self._done_scratch = np.empty(1, dtype=np.int64)
        self._ps_k = np.empty(1, dtype=np.int64)
        self._ps_rank = np.empty(1, dtype=np.int64)
        self._ps_rel = np.empty(1, dtype=np.float64)
        self._dep_scratch = np.empty(1, dtype=np.int64)
        self._be_out = np.zeros(4, dtype=np.int64)
        self._hv_done = np.empty(1, dtype=np.int64)
        self._hv_start = np.empty(1, dtype=np.int64)
        self._hv_touch = np.empty(1, dtype=np.int64)
        self._hv_moved = np.empty(1, dtype=np.int64)
        self._hv_out = np.zeros(4, dtype=np.int64)
        self._ea_off = np.zeros(max(n_edges, 1), dtype=np.int64)
        self._ea_flow = np.empty(1, dtype=np.int64)
        self._ea_rank = np.empty(1, dtype=np.int64)
        self._ea_len = np.zeros(max(n_edges, 1), dtype=np.int64)

    # ---------------------------------------------------------------- growth
    def _grow_rows(self) -> None:
        new_cap = self._cap * 2
        grow_specs = [
            ("a_size", 0.0), ("a_remaining", 0.0), ("a_completion", np.nan),
            ("a_start", np.nan), ("a_started", 0), ("a_release", 0.0),
            ("a_rate_prev", 0.0), ("a_rank", 0), ("a_sid", 0),
            ("a_eoff", 0), ("a_eend", 0), ("a_last_seg", -1),
            ("a_live", False), ("a_harvested", 0),
            ("a_harvest_remaining", 0.0), ("a_harvest_moved", 0),
            ("a_start_harvested", 0),
            ("_flow_dirty_arr", 0), ("_epoch_tag", 0),
        ]
        for name, fill in grow_specs:
            old = getattr(self, name)
            new = np.full(new_cap, fill, dtype=old.dtype)
            new[: self._cap] = old
            setattr(self, name, new)
        self._cap = new_cap
        self._run_ptrs = self._be_ptrs = self._hv_ptrs = None

    def _grow_segments(self) -> None:
        # The C core returns before recording anything once the buffer is
        # full, so growing in place (keeping SEG_LEN and last_seg) and
        # re-entering resumes exactly where it left off.
        seg_len = int(self._istate[_SEG_LEN])
        new_cap = self._seg_cap * 2
        for name in ("_seg_flow", "_seg_start", "_seg_end", "_seg_rate"):
            old = getattr(self, name)
            new = np.empty(new_cap, dtype=old.dtype)
            new[:seg_len] = old[:seg_len]
            setattr(self, name, new)
        self._seg_cap = new_cap
        self._run_ptrs = self._be_ptrs = self._hv_ptrs = None

    def _set_edges(self, k: int, edges: List[int]) -> None:
        m = len(edges)
        while self._pool_len + m > len(self._pool):
            new = np.zeros(len(self._pool) * 2, dtype=np.int64)
            new[: self._pool_len] = self._pool[: self._pool_len]
            self._pool = new
            self._run_ptrs = self._be_ptrs = self._hv_ptrs = None
        self._pool[self._pool_len : self._pool_len + m] = edges
        self.a_eoff[k] = self._pool_len
        self.a_eend[k] = self._pool_len + m
        self._pool_len += m

    # ------------------------------------------------------------ slot deltas
    def ingest(self, fid, size, release, path, weight: float = 1.0) -> int:
        if fid in self._pos:
            raise ValueError(f"flow {fid!r} is already resident")
        size = float(size)
        if size <= _VOLUME_EPS:
            raise ValueError(
                f"flow {fid!r} has no volume ({size:g}); zero-size flows "
                "complete at their release and are never ingested"
            )
        edges = self.network.path_edge_ids(path)
        sid = self._next_sid
        self._next_sid += 1
        if self._free:
            k = self._free.pop()
            self.slots_reused += 1
            self.fids[k] = fid
        else:
            if self._nrows >= self._cap:
                self._grow_rows()
            k = self._nrows
            self._nrows += 1
            self.fids.append(fid)
        self._pos[fid] = k
        self.a_sid[k] = sid
        self.a_live[k] = True
        self.a_size[k] = size
        self.a_remaining[k] = size
        self.a_release[k] = float(release)
        self.a_completion[k] = np.nan
        self.a_start[k] = np.nan
        self.a_started[k] = 0
        self.a_rate_prev[k] = 0.0
        self.a_rank[k] = 0
        self.a_last_seg[k] = -1
        self.a_harvested[k] = 0
        self.a_harvest_remaining[k] = size
        self.a_harvest_moved[k] = 0
        self.a_start_harvested[k] = 0
        self._set_edges(k, edges)
        self._ingested_since.append(k)
        return k

    def ingest_many(self, fids, sizes, releases, paths, weight: float = 1.0):
        """Ingest a batch of flows; equivalent to sequential :meth:`ingest`.

        Slot allocation, sid assignment and edge-pool layout match the
        one-at-a-time path exactly (same free-list pops, same sid order),
        but the per-slot column writes are vectorised, which is what makes
        admitting a whole coflow cheap inside a re-plan patch.
        """
        n = len(fids)
        if n == 0:
            return []
        sizes = [float(s) for s in sizes]
        seen = set()
        for fid, size in zip(fids, sizes):
            if fid in self._pos or fid in seen:
                raise ValueError(f"flow {fid!r} is already resident")
            seen.add(fid)
            if size <= _VOLUME_EPS:
                raise ValueError(
                    f"flow {fid!r} has no volume ({size:g}); zero-size "
                    "flows complete at their release and are never ingested"
                )
        edge_lists = [self.network.path_edge_ids(path) for path in paths]
        # Sequential ingests pop free slots first, then append fresh rows.
        free = self._free
        reused = min(len(free), n)
        ks = [free.pop() for _ in range(reused)]
        for k, fid in zip(ks, fids):
            self.fids[k] = fid
        self.slots_reused += reused
        fresh = n - reused
        while self._nrows + fresh > self._cap:
            self._grow_rows()
        ks.extend(range(self._nrows, self._nrows + fresh))
        self.fids.extend(fids[reused:])
        self._nrows += fresh
        self._pos.update(zip(fids, ks))
        k_arr = np.asarray(ks, dtype=np.int64)
        sid0 = self._next_sid
        self._next_sid += n
        self.a_sid[k_arr] = np.arange(sid0, sid0 + n, dtype=np.int64)
        size_arr = np.asarray(sizes, dtype=np.float64)
        self.a_live[k_arr] = True
        self.a_size[k_arr] = size_arr
        self.a_remaining[k_arr] = size_arr
        self.a_release[k_arr] = np.asarray(
            [float(r) for r in releases], dtype=np.float64
        )
        self.a_completion[k_arr] = np.nan
        self.a_start[k_arr] = np.nan
        self.a_started[k_arr] = 0
        self.a_rate_prev[k_arr] = 0.0
        self.a_rank[k_arr] = 0
        self.a_last_seg[k_arr] = -1
        self.a_harvested[k_arr] = 0
        self.a_harvest_remaining[k_arr] = size_arr
        self.a_harvest_moved[k_arr] = 0
        self.a_start_harvested[k_arr] = 0
        lengths = np.fromiter(map(len, edge_lists), dtype=np.int64, count=n)
        total = int(lengths.sum())
        while self._pool_len + total > len(self._pool):
            new = np.zeros(len(self._pool) * 2, dtype=np.int64)
            new[: self._pool_len] = self._pool[: self._pool_len]
            self._pool = new
            self._run_ptrs = self._be_ptrs = self._hv_ptrs = None
        # The rows land back to back in ingest order, exactly as a run of
        # single ingests would lay them out.
        off = self._pool_len
        ends = off + np.cumsum(lengths)
        self._pool[off : off + total] = np.fromiter(
            itertools.chain.from_iterable(edge_lists), dtype=np.int64, count=total
        )
        self.a_eoff[k_arr] = ends - lengths
        self.a_eend[k_arr] = ends
        self._pool_len = off + total
        self._ingested_since.extend(ks)
        return ks

    def sid_of(self, fid) -> int:
        return int(self.a_sid[self.slot_of(fid)])

    def update_path(self, k: int, path) -> None:
        self._set_edges(k, self.network.path_edge_ids(path))

    # ------------------------------------------------------------- epoch turn
    def begin_epoch(self, now, order, max_events=None, allocator=None):
        if allocator is not None and allocator != "greedy":
            raise ValueError(
                f"the compiled kernel tier only lowers the greedy "
                f"allocator; the plan switched to {allocator!r} mid-session "
                f"(run a replanner that switches allocators with "
                f"REPRO_SIM_BACKEND=array)"
            )
        if now + _TIME_EPS < self.now:
            raise ValueError(
                f"epoch start t={now:g} precedes the kernel clock "
                f"t={self.now:g}"
            )
        n_edges = len(self._caps)
        order_arr = np.ascontiguousarray(order, dtype=np.int64)
        nlive = len(order_arr)
        self._epoch_no += 1

        # Per-epoch work arrays (indices are slot ids, lengths are bounded
        # by the live-flow count).  The scratch is persistent and grown
        # geometrically; stale contents beyond the handed-in lengths are
        # never read by the C core.
        if nlive > self._scratch_cap:
            new_cap = max(self._scratch_cap * 2, nlive)
            self._scratch_cap = new_cap
            self._act = np.empty(new_cap, dtype=np.int64)
            self._act_rank = np.empty(new_cap, dtype=np.int64)
            self._dirty_stack = np.empty(new_cap, dtype=np.int64)
            self._g_pos = np.empty(new_cap, dtype=np.int64)
            self._g_rate = np.empty(new_cap, dtype=np.float64)
            self._done_scratch = np.empty(new_cap, dtype=np.int64)
            self._ps_k = np.empty(new_cap, dtype=np.int64)
            self._ps_rank = np.empty(new_cap, dtype=np.int64)
            self._ps_rel = np.empty(new_cap, dtype=np.float64)
            self._pend_release = np.empty(new_cap, dtype=np.float64)
            self._pend_rank = np.empty(new_cap, dtype=np.int64)
            self._pend_k = np.empty(new_cap, dtype=np.int64)
            self._hv_done = np.empty(new_cap, dtype=np.int64)
            self._hv_start = np.empty(new_cap, dtype=np.int64)
            self._hv_touch = np.empty(new_cap, dtype=np.int64)
            self._hv_moved = np.empty(new_cap, dtype=np.int64)
            self._run_ptrs = self._be_ptrs = self._hv_ptrs = None
        prev = self._live_rows
        if self._ingested_since:
            ing = np.asarray(self._ingested_since, dtype=np.int64)
        else:
            ing = prev[:0]
        dep_need = len(prev) + len(ing)
        if dep_need > len(self._dep_scratch):
            self._dep_scratch = np.empty(
                max(dep_need, 2 * len(self._dep_scratch)), dtype=np.int64
            )
            self._be_ptrs = None

        # One compiled pass splices the epoch: generation-tag tombstoning
        # and stale-dirty clearing over the previous live set, then ranks,
        # epoch-local baselines, the active/pending split and the per-edge
        # rank-sorted slabs (the order is already rank-sorted, so the slab
        # fill is a counting sort with the same layout the Python tier
        # builds).  The call is idempotent; a too-small slab buffer grows
        # geometrically and retries.
        threshold = float(now) + _TIME_EPS
        lib = CORE.load()
        while True:
            ptrs = self._be_ptrs
            if ptrs is None:
                ptrs = self._be_ptrs = (
                    (
                        _ptr(self.a_release), _ptr(self.a_remaining),
                        _ptr(self.a_size), _ptr(self.a_started),
                        _ptr(self.a_start), _ptr(self.a_rank),
                        _ptr(self.a_eoff), _ptr(self.a_eend),
                        _ptr(self._pool),
                        _ptr(self._act), _ptr(self._act_rank),
                        _ptr(self._ps_k), _ptr(self._ps_rank),
                        _ptr(self._ps_rel),
                        _ptr(self._ea_off), _ptr(self._ea_len),
                        _ptr(self._ea_flow), _ptr(self._ea_rank),
                    ),
                    _ptr(self._epoch_tag),
                    _ptr(self._flow_dirty_arr),
                    _ptr(self._dep_scratch),
                    _ptr(self._be_out),
                )
            cols, p_tag, p_dirty, p_dep, p_out = ptrs
            need_space = lib.repro_begin_epoch(
                nlive, n_edges, threshold,
                _ptr(order_arr),
                *cols,
                p_tag, self._epoch_no,
                _ptr(prev), len(prev),
                _ptr(ing), len(ing),
                p_dirty,
                p_dep, len(self._ea_flow),
                p_out,
            )
            if need_space:
                slab_cap = max(int(self._be_out[2]), 2 * len(self._ea_flow))
                self._ea_flow = np.empty(slab_cap, dtype=np.int64)
                self._ea_rank = np.empty(slab_cap, dtype=np.int64)
                self._run_ptrs = self._be_ptrs = self._hv_ptrs = None
                continue
            break
        self._ingested_since.clear()

        # Tombstoned slots: completed during the closing epoch, or paused
        # below the volume epsilon (those complete at the re-plan time).
        n_departed = int(self._be_out[3])
        if n_departed:
            departed = self._dep_scratch[:n_departed]
            unfinished = np.isnan(self.a_completion[departed])
            bad = unfinished & (self.a_remaining[departed] > _VOLUME_EPS)
            if bad.any():
                k = int(departed[np.flatnonzero(bad)[0]])
                raise ValueError(
                    f"slot {k} ({self.fids[k]!r}) still holds "
                    f"{float(self.a_remaining[k]):g} volume but is absent "
                    "from the epoch order"
                )
            self.a_completion[departed[unfinished]] = now
            self.a_live[departed] = False
            fids = self.fids
            pos = self._pos
            free = self._free
            for k in departed.tolist():
                del pos[fids[k]]
                fids[k] = None
                free.append(k)
        self._live_rows = order_arr
        n_active = int(self._be_out[0])
        npend = int(self._be_out[1])
        self._n_pend = npend
        if npend:
            # (release, rank, slot) order: the core emits pending flows in
            # rank order, so a stable sort on release alone reproduces the
            # tuple sort (the slot tiebreaker is unreachable — ranks are
            # unique).  Sorted into persistent buffers so the run() call's
            # cached pointers stay valid.
            srt = np.argsort(self._ps_rel[:npend], kind="stable")
            np.take(self._ps_rel[:npend], srt, out=self._pend_release[:npend])
            np.take(self._ps_rank[:npend], srt, out=self._pend_rank[:npend])
            np.take(self._ps_k[:npend], srt, out=self._pend_k[:npend])

        ist = self._istate
        seg_len = int(ist[_SEG_LEN])  # the segment log spans epochs
        ist[:] = 0
        ist[_SEG_LEN] = seg_len
        ist[_ACT_LEN] = n_active
        ist[_FORCE_FULL] = 1
        cap_events = (
            int(max_events) if max_events is not None else 4 * nlive + 16
        )
        ist[_MAX_EVENTS] = cap_events
        self._dstate[0] = float(now)
        self._n_target = nlive
        self.now = float(now)
        self.events = 0
        self.max_events = cap_events

    # ------------------------------------------------------------- event loop
    def run(self, until=None) -> bool:
        maybe_inject("sim")
        lib = CORE.load()
        n_edges = len(self._caps)
        until_c = math.inf if until is None else float(until)
        with paused_gc():
            while True:
                # Pointer groups are cached across epochs (the arrays are
                # persistent); any buffer reallocation resets the cache.
                ptrs = self._run_ptrs
                if ptrs is None:
                    ptrs = self._run_ptrs = (
                        (
                            _ptr(self.a_size), _ptr(self.a_remaining),
                            _ptr(self.a_completion), _ptr(self.a_start),
                            _ptr(self.a_started),
                            _ptr(self.a_rank), _ptr(self.a_sid),
                            _ptr(self.a_eoff), _ptr(self.a_eend),
                            _ptr(self._pool),
                            _ptr(self._caps_arr), _ptr(self._residual),
                            _ptr(self._pend_release), _ptr(self._pend_rank),
                            _ptr(self._pend_k),
                        ),
                        (
                            _ptr(self._act), _ptr(self._act_rank),
                            _ptr(self._ea_off), _ptr(self._ea_flow),
                            _ptr(self._ea_rank), _ptr(self._ea_len),
                            _ptr(self._flow_dirty_arr),
                            _ptr(self._dirty_stack),
                            _ptr(self._g_pos), _ptr(self._g_rate),
                            _ptr(self.a_rate_prev),
                            _ptr(self._seg_flow), _ptr(self._seg_start),
                            _ptr(self._seg_end), _ptr(self._seg_rate),
                        ),
                        (
                            _ptr(self.a_last_seg), _ptr(self._done_scratch),
                            _ptr(self._istate), _ptr(self._dstate),
                        ),
                    )
                before, middle, after = ptrs
                status = lib.repro_greedy_run(
                    self._n_target, n_edges,
                    *before, self._n_pend,
                    *middle, self._seg_cap, *after,
                    until_c, _VOLUME_EPS, _TIME_EPS,
                )
                if status == _NEED_SEGMENT_SPACE:
                    self._grow_segments()
                    continue
                break
        self.events = int(self._istate[_EVENTS])
        self.now = float(self._dstate[0])
        if status == _STALLED:
            raise self._stuck_error(
                f"simulation stalled at t={self.now:g}: no runnable "
                "flow and no pending release"
            )
        if status == _EVENT_CAP:
            raise self._stuck_error(
                f"simulation exceeded the event cap ({self.max_events}) "
                f"at t={self.now:g}; this indicates an internal "
                "inconsistency"
            )
        return status == _FINISHED

    # ---------------------------------------------------------------- harvest
    def harvest_epoch(self):
        live = self._live_rows  # replaced every epoch, so never cached
        lib = CORE.load()
        ptrs = self._hv_ptrs
        if ptrs is None:
            ptrs = self._hv_ptrs = (
                _ptr(self.a_completion), _ptr(self.a_harvested),
                _ptr(self.a_started), _ptr(self.a_start_harvested),
                _ptr(self.a_remaining), _ptr(self.a_harvest_remaining),
                _ptr(self.a_last_seg), _ptr(self.a_harvest_moved),
                _ptr(self._hv_done), _ptr(self._hv_start),
                _ptr(self._hv_touch), _ptr(self._hv_moved),
                _ptr(self._hv_out),
            )
        lib.repro_harvest_epoch(len(live), _ptr(live), *ptrs)
        n_done, n_start, n_touch, n_moved = self._hv_out.tolist()
        done_rows = self._hv_done[:n_done]
        completions = list(
            zip(done_rows.tolist(), self.a_completion[done_rows].tolist())
        )
        start_rows = self._hv_start[:n_start]
        starts = list(
            zip(start_rows.tolist(), self.a_start[start_rows].tolist())
        )
        touch_rows = self._hv_touch[:n_touch]
        touched = list(
            zip(touch_rows.tolist(), self.a_remaining[touch_rows].tolist())
        )
        return completions, starts, touched, self._hv_moved[:n_moved].tolist()

    def drain_all_segments(self) -> Iterator[Tuple[int, List[List[float]]]]:
        count = int(self._istate[_SEG_LEN])
        return iter(
            SegmentLog(
                self._seg_flow[:count], self._seg_start[:count],
                self._seg_end[:count], self._seg_rate[:count],
            )
        )

    def segment_log(self) -> "SegmentLog":
        """Copies of the segment buffers' filled part, drained on iteration."""
        count = int(self._istate[_SEG_LEN])
        return SegmentLog(
            self._seg_flow[:count].copy(), self._seg_start[:count].copy(),
            self._seg_end[:count].copy(), self._seg_rate[:count].copy(),
        )

    # ------------------------------------------------------------ diagnostics
    def _edge_ids_of(self, k: int) -> List[int]:
        return self._pool[int(self.a_eoff[k]) : int(self.a_eend[k])].tolist()

    def _unfinished_report(self):
        rows = self._live_rows[np.isnan(self.a_completion[self._live_rows])]
        return [
            (self.fids[k], float(self.a_release[k]),
             float(self.a_remaining[k]))
            for k in rows.tolist()
        ]

    def _current_residual(self):
        residual = list(self._caps)
        glen = int(self._istate[_G_LEN])
        for k, rate in zip(self._g_pos[:glen].tolist(),
                           self._g_rate[:glen].tolist()):
            for e in self._edge_ids_of(k):
                residual[e] -= rate
        return residual

    def _saturated_edges(self, residual):
        saturated: List[int] = []
        seen = set()
        rows = self._live_rows[np.isnan(self.a_completion[self._live_rows])]
        for k in rows.tolist():
            for e in self._edge_ids_of(k):
                if e not in seen and residual[e] <= _VOLUME_EPS:
                    seen.add(e)
                    saturated.append(e)
        return [self.edge_list[e] for e in sorted(saturated)]
