/* Compiled charging engine.
 *
 * Binds the flat-array state of the simulator (repro.cpu.arraystate,
 * repro.mem.directory, repro.mem.arraysystem, repro.prof.slotaccounting)
 * via the buffer protocol and runs the whole Cpu.charge hot path --
 * trace-cache fetch, ITLB/DTLB translation, the fused three-level
 * read/write walks with MESI directory coherence, branch prediction,
 * stall arithmetic, SMT contention, per-CPU totals and per-(cpu,
 * function) accounting -- in C.  Results are bit-identical to the pure
 * engine: every transition mirrors repro/cpu/core.py line by line, all
 * float expressions keep Python's evaluation order (Python float ==
 * IEEE double; int() == trunc for the non-negative values here), and
 * the golden-determinism suite pins both variants to one hash table.
 *
 * Two types live here.  CpuCore is the base of repro.cpu.compiled's
 * CPU class: it holds the per-charge bookkeeping (clock, busy cycles,
 * oprofile skid accumulator, last/skid spec, sibling load) as C struct
 * members, which Python code reads and writes as plain attributes.
 * EngineState is the machine-wide binding build_state() returns; it
 * takes part in garbage collection, so a finished machine is freed
 * even though the state and the memory system refer to each other.
 *
 * Growth protocol: the Python side owns every buffer.  Arrays that can
 * grow (directory columns, accounting rows, branch-predictor state)
 * are reallocated by Python, which bumps a generation counter in a
 * small never-reassigned _meta array; this module re-acquires buffers
 * whenever the generation it last saw is stale.  The directory is the
 * one table C grows itself: Python allocates the doubled columns
 * (LineDirectory._alloc) and C rehashes into them from the old
 * buffers, slot for slot as LineDirectory._grow does.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

#define CACHE_LINE_C 64
#define PAGE_SIZE_C 4096
#define BYTES_PER_INSTRUCTION_C 4
#define COLD_RATE_C 0.06
#define WARMUP_INVOCATIONS_C 8

#define N_EVENTS_C 11
enum {
    EV_CYCLES, EV_INSTRUCTIONS, EV_BRANCHES, EV_BR_MISPREDICTS,
    EV_LLC_MISSES, EV_L2_HITS, EV_L3_HITS, EV_TC_MISSES,
    EV_ITLB_WALKS, EV_DTLB_WALKS, EV_MACHINE_CLEARS
};

/* Stats layouts -- keep in sync with the Python modules. */
enum { CACHE_HITS_I, CACHE_MISSES_I };
enum { TLB_HITS_I, TLB_WALKS_I };
enum { BP_MISPREDICTS_I, BP_COLD_EVENTS_I };
enum { BP_HEAD_I, BP_TAIL_I, BP_COUNT_I };
enum { MS_INV_I, MS_C2C_I, MS_DMA_R_I, MS_DMA_W_I, MS_BUS_DELAY_I };
enum { ACCT_ENABLED_I, ACCT_ORDER_COUNT_I };
enum { DIR_COUNT_I, DIR_GEN_I };
#define REG_GEN_I 0

#define DIR_FIB 0x9E3779B97F4A7C15ULL

typedef struct {
    int64_t first_line;
    int64_t n_lines;
    int64_t code_page;
    int64_t stall_per_call;
    double stall_per_instr;
    double branch_frac;
    double mispredict_rate;
    char loaded;
} SpecStatic;

typedef struct {
    PyObject *bp;
    Py_buffer l1t_v, l1s_v, l2t_v, l2s_v, l3t_v, l3s_v;
    int64_t *l1t, *l1s, *l2t, *l2s, *l3t, *l3s;
    int64_t mask1, ways1, mask2, ways2, mask3, ways3;
    Py_buffer tct_v, tcs_v;
    int64_t *tct, *tcs, tc_mask, tc_ways;
    Py_buffer it_v, is_v, dt_v, ds_v;
    int64_t *itlb_pages, *itlb_stats, *dtlb_pages, *dtlb_stats;
    int64_t itlb_cap, dtlb_cap;
    Py_buffer bseen_v, bres_v, bprev_v, bnext_v, bmeta_v, bstats_v;
    int64_t *bp_seen, *bp_prev, *bp_next, *bp_meta, *bp_stats;
    double *bp_residual;
    int64_t bp_capacity;
    Py_buffer tot_v;
    int64_t *totals;
    int64_t domain;
    uint64_t mybit; /* the domain's sharer bit */
} CpuC;

typedef struct {
    PyObject_HEAD
    /* Registry / spec statics. */
    PyObject *registry;
    PyObject *reg_dict; /* registry._spec_to_slot */
    Py_buffer reg_meta_v;
    int64_t *reg_meta;
    int64_t gen_seen;
    SpecStatic *specs;
    int64_t spec_cap;
    /* Accounting. */
    PyObject *acct;
    Py_buffer acct_rows_v, acct_touched_v, acct_order_v, acct_meta_v;
    int64_t *acct_rows, *acct_touched, *acct_order, *acct_meta;
    int64_t acct_ncpus;
    /* Memory system + directory. */
    PyObject *memsys, *directory;
    Py_buffer dir_keys_v, dir_sharers_v, dir_owner_v, dir_meta_v;
    int64_t *dir_keys, *dir_meta;
    uint64_t *dir_sharers;
    int8_t *dir_owner;
    int64_t dir_mask, dir_shift, dir_gen_seen;
    Py_buffer ms_stats_v;
    int64_t *ms_stats;
    int dma_read_invalidates;
    /* Costs. */
    int64_t retire_width, l2_hit, l3_hit, llc_miss, llc_store_miss;
    int64_t c2c_transfer, tc_miss, itlb_walk, dtlb_walk, br_mispredict;
    double smt_penalty;
    /* Oprofile skid sampling period (repro.cpu.events.SKID_PERIOD). */
    int64_t skid_period;
    /* CPUs. */
    int n_cpus;
    CpuC *cpus;
    int n_domains;
    int *domain_rep;
} EngineState;

/* The per-CPU bookkeeping a charge updates, as C members of the base
 * type of repro.cpu.compiled's CPU class. */
typedef struct CpuCoreObject {
    PyObject_HEAD
    long long now;
    long long busy_cycles;
    long long skid_acc;
    double recent_load;
    PyObject *last_spec;
    PyObject *skid_spec;
    struct CpuCoreObject *sibling;
    /* Bound by build_state: the machine's engine state, this CPU's
     * position in it, and the extension module (the CPU's _core). */
    EngineState *engine;
    int slot;
    PyObject *core;
} CpuCoreObject;

static PyTypeObject EngineState_Type;
static PyTypeObject CpuCore_Type;

/* ------------------------------------------------------------------ */
/* Attribute / buffer plumbing.                                        */
/* ------------------------------------------------------------------ */

static int
get_i64(PyObject *o, const char *attr, int64_t *out)
{
    PyObject *v = PyObject_GetAttrString(o, attr);
    if (v == NULL)
        return -1;
    long long x = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)x;
    return 0;
}

static int
get_dbl(PyObject *o, const char *attr, double *out)
{
    PyObject *v = PyObject_GetAttrString(o, attr);
    if (v == NULL)
        return -1;
    double x = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (x == -1.0 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

/* Re-acquire a writable flat buffer from owner.attr, releasing any
 * prior view.  Works for both acquisition and rebind-after-growth. */
static int
bind_buf(PyObject *owner, const char *attr, Py_buffer *view, void *ptr_out)
{
    Py_buffer nv;
    memset(&nv, 0, sizeof(nv));
    PyObject *obj = PyObject_GetAttrString(owner, attr);
    if (obj == NULL)
        return -1;
    int rc = PyObject_GetBuffer(obj, &nv, PyBUF_SIMPLE | PyBUF_WRITABLE);
    Py_DECREF(obj);
    if (rc < 0)
        return -1;
    if (view->obj != NULL)
        PyBuffer_Release(view);
    *view = nv;
    *(void **)ptr_out = nv.buf;
    return 0;
}

static int
rebind_directory(EngineState *st)
{
    if (bind_buf(st->directory, "_keys", &st->dir_keys_v, &st->dir_keys) < 0 ||
        bind_buf(st->directory, "_sharers", &st->dir_sharers_v, &st->dir_sharers) < 0 ||
        bind_buf(st->directory, "_owner", &st->dir_owner_v, &st->dir_owner) < 0 ||
        get_i64(st->directory, "_mask", &st->dir_mask) < 0 ||
        get_i64(st->directory, "_shift", &st->dir_shift) < 0)
        return -1;
    st->dir_gen_seen = st->dir_meta[DIR_GEN_I];
    return 0;
}

static int
rebind_registry_growth(EngineState *st)
{
    int64_t cap;
    if (get_i64(st->registry, "capacity", &cap) < 0)
        return -1;
    if (cap > st->spec_cap) {
        SpecStatic *ns = (SpecStatic *)PyMem_Realloc(
            st->specs, (size_t)cap * sizeof(SpecStatic));
        if (ns == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memset(ns + st->spec_cap, 0,
               (size_t)(cap - st->spec_cap) * sizeof(SpecStatic));
        st->specs = ns;
        st->spec_cap = cap;
    }
    if (bind_buf(st->acct, "_rows", &st->acct_rows_v, &st->acct_rows) < 0 ||
        bind_buf(st->acct, "_touched", &st->acct_touched_v, &st->acct_touched) < 0 ||
        bind_buf(st->acct, "_order", &st->acct_order_v, &st->acct_order) < 0)
        return -1;
    for (int i = 0; i < st->n_cpus; i++) {
        CpuC *c = &st->cpus[i];
        if (bind_buf(c->bp, "_seen", &c->bseen_v, &c->bp_seen) < 0 ||
            bind_buf(c->bp, "_residual", &c->bres_v, &c->bp_residual) < 0 ||
            bind_buf(c->bp, "_prev", &c->bprev_v, &c->bp_prev) < 0 ||
            bind_buf(c->bp, "_next", &c->bnext_v, &c->bp_next) < 0)
            return -1;
    }
    st->gen_seen = st->reg_meta[REG_GEN_I];
    return 0;
}

static int
ensure_bound(EngineState *st)
{
    if (st->reg_meta[REG_GEN_I] != st->gen_seen &&
        rebind_registry_growth(st) < 0)
        return -1;
    if (st->dir_meta[DIR_GEN_I] != st->dir_gen_seen &&
        rebind_directory(st) < 0)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Array-state primitives (mirrors of the pure-Python classes).        */
/* ------------------------------------------------------------------ */

/* Unconditional MRU insert, evicting the LRU way (list.insert(0) +
 * pop of the reference).  Caller guarantees the line is absent. */
static inline void
seg_fill_front(int64_t *tags, int64_t base, int64_t ways, int64_t line)
{
    for (int64_t i = ways - 1; i > 0; i--)
        tags[base + i] = tags[base + i - 1];
    tags[base] = line;
}

/* One SetAssocCache.access transition without counter updates:
 * returns 1 on hit (line promoted to MRU), 0 on miss (line filled). */
static inline int
seg_access(int64_t *tags, int64_t mask, int64_t ways, int64_t line)
{
    int64_t base = (line & mask) * ways;
    if (tags[base] == line)
        return 1;
    for (int64_t i = 1; i < ways; i++) {
        int64_t t = tags[base + i];
        if (t == line) {
            for (; i > 0; i--)
                tags[base + i] = tags[base + i - 1];
            tags[base] = line;
            return 1;
        }
        if (t == -1)
            break;
    }
    seg_fill_front(tags, base, ways, line);
    return 0;
}

static inline void
seg_invalidate(int64_t *tags, int64_t mask, int64_t ways, int64_t line)
{
    int64_t base = (line & mask) * ways;
    for (int64_t i = 0; i < ways; i++) {
        int64_t t = tags[base + i];
        if (t == line) {
            for (; i < ways - 1; i++)
                tags[base + i] = tags[base + i + 1];
            tags[base + ways - 1] = -1;
            return;
        }
        if (t == -1)
            return;
    }
}

/* Tlb.access: 1 on hit, 0 on walk (page filled either way). */
static inline int
tlb_access(int64_t *pages, int64_t cap, int64_t *stats, int64_t page)
{
    if (pages[0] == page) {
        stats[TLB_HITS_I]++;
        return 1;
    }
    for (int64_t i = 1; i < cap; i++) {
        int64_t e = pages[i];
        if (e == page) {
            for (; i > 0; i--)
                pages[i] = pages[i - 1];
            pages[0] = page;
            stats[TLB_HITS_I]++;
            return 1;
        }
        if (e == -1)
            break;
    }
    stats[TLB_WALKS_I]++;
    for (int64_t i = cap - 1; i > 0; i--)
        pages[i] = pages[i - 1];
    pages[0] = page;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Directory.                                                          */
/* ------------------------------------------------------------------ */

static inline int64_t
dir_find(EngineState *st, int64_t line)
{
    int64_t *keys = st->dir_keys;
    uint64_t mask = (uint64_t)st->dir_mask;
    uint64_t idx = ((uint64_t)line * DIR_FIB) >> st->dir_shift;
    for (;;) {
        int64_t k = keys[idx];
        if (k == line)
            return (int64_t)idx;
        if (k == -1)
            return -1;
        idx = (idx + 1) & mask;
    }
}

/* Double the directory.  LineDirectory._alloc replaces the Python
 * object's columns with empty ones twice the size; the old buffers stay
 * alive through the views held here while this rehashes them, in
 * storage order and so slot for slot as LineDirectory._grow does. */
static int
dir_grow(EngineState *st)
{
    Py_buffer old_k = st->dir_keys_v, old_s = st->dir_sharers_v;
    Py_buffer old_o = st->dir_owner_v;
    int64_t *okeys = st->dir_keys;
    uint64_t *osharers = st->dir_sharers;
    int8_t *oowner = st->dir_owner;
    int64_t old_mask = st->dir_mask, old_shift = st->dir_shift;
    int64_t old_slots = old_mask + 1;
    memset(&st->dir_keys_v, 0, sizeof(Py_buffer));
    memset(&st->dir_sharers_v, 0, sizeof(Py_buffer));
    memset(&st->dir_owner_v, 0, sizeof(Py_buffer));
    PyObject *r = PyObject_CallMethod(st->directory, "_alloc", "L",
                                      (long long)(old_slots * 2));
    if (r == NULL || rebind_directory(st) < 0) {
        /* Stay bound to the old columns; the error propagates. */
        Py_XDECREF(r);
        if (st->dir_keys_v.obj != NULL)
            PyBuffer_Release(&st->dir_keys_v);
        if (st->dir_sharers_v.obj != NULL)
            PyBuffer_Release(&st->dir_sharers_v);
        if (st->dir_owner_v.obj != NULL)
            PyBuffer_Release(&st->dir_owner_v);
        st->dir_keys_v = old_k;
        st->dir_sharers_v = old_s;
        st->dir_owner_v = old_o;
        st->dir_keys = okeys;
        st->dir_sharers = osharers;
        st->dir_owner = oowner;
        st->dir_mask = old_mask;
        st->dir_shift = old_shift;
        return -1;
    }
    Py_DECREF(r);
    int64_t *keys = st->dir_keys;
    uint64_t mask = (uint64_t)st->dir_mask;
    for (int64_t i = 0; i < old_slots; i++) {
        int64_t line = okeys[i];
        if (line == -1)
            continue;
        uint64_t idx = ((uint64_t)line * DIR_FIB) >> st->dir_shift;
        while (keys[idx] != -1)
            idx = (idx + 1) & mask;
        keys[idx] = line;
        st->dir_sharers[idx] = osharers[i];
        st->dir_owner[idx] = oowner[i];
    }
    PyBuffer_Release(&old_k);
    PyBuffer_Release(&old_s);
    PyBuffer_Release(&old_o);
    st->dir_meta[DIR_GEN_I]++;
    st->dir_gen_seen = st->dir_meta[DIR_GEN_I];
    return 0;
}

/* Insert an absent line; returns its slot, or -2 on Python error.
 * Grows past three-quarter load, as LineDirectory.insert does. */
static int64_t
dir_insert(EngineState *st, int64_t line, uint64_t sharers, int64_t owner)
{
    if ((st->dir_meta[DIR_COUNT_I] + 1) * 4 > (st->dir_mask + 1) * 3 &&
        dir_grow(st) < 0)
        return -2;
    uint64_t mask = (uint64_t)st->dir_mask;
    uint64_t idx = ((uint64_t)line * DIR_FIB) >> st->dir_shift;
    while (st->dir_keys[idx] != -1)
        idx = (idx + 1) & mask;
    st->dir_keys[idx] = line;
    st->dir_sharers[idx] = sharers;
    st->dir_owner[idx] = (int8_t)owner;
    st->dir_meta[DIR_COUNT_I]++;
    return (int64_t)idx;
}

/* Invalidate one line in every cache level of one coherence domain. */
static inline void
domain_invalidate(EngineState *st, int dom, int64_t line)
{
    CpuC *rep = &st->cpus[st->domain_rep[dom]];
    seg_invalidate(rep->l1t, rep->mask1, rep->ways1, line);
    seg_invalidate(rep->l2t, rep->mask2, rep->ways2, line);
    seg_invalidate(rep->l3t, rep->mask3, rep->ways3, line);
}

/* MemorySystem.make_exclusive.  Returns invalidation count or -2. */
static int64_t
make_exclusive_c(EngineState *st, CpuC *me, int64_t line)
{
    int64_t idx = dir_find(st, line);
    if (idx < 0) {
        idx = dir_insert(st, line, me->mybit, me->domain);
        return idx == -2 ? -2 : 0;
    }
    uint64_t others = st->dir_sharers[idx] & ~me->mybit;
    int64_t invalidated = 0;
    if (others) {
        for (int d = 0; d < st->n_domains; d++) {
            if (others & ((uint64_t)1 << d)) {
                domain_invalidate(st, d, line);
                invalidated++;
            }
        }
        st->ms_stats[MS_INV_I] += invalidated;
    }
    st->dir_sharers[idx] = me->mybit;
    st->dir_owner[idx] = (int8_t)me->domain;
    return invalidated;
}

/* ------------------------------------------------------------------ */
/* Branch predictor (slot-indexed intrusive LRU).                      */
/* ------------------------------------------------------------------ */

static inline void
bp_unlink(CpuC *c, int64_t slot)
{
    int64_t prev = c->bp_prev[slot];
    int64_t next = c->bp_next[slot];
    if (prev >= 0)
        c->bp_next[prev] = next;
    else
        c->bp_meta[BP_HEAD_I] = next;
    if (next >= 0)
        c->bp_prev[next] = prev;
    else
        c->bp_meta[BP_TAIL_I] = prev;
}

static inline void
bp_append(CpuC *c, int64_t slot)
{
    int64_t tail = c->bp_meta[BP_TAIL_I];
    c->bp_prev[slot] = tail;
    c->bp_next[slot] = -1;
    if (tail >= 0)
        c->bp_next[tail] = slot;
    else
        c->bp_meta[BP_HEAD_I] = slot;
    c->bp_meta[BP_TAIL_I] = slot;
}

/* BranchPredictor.predict for branches > 0 (caller handles <= 0). */
static int64_t
bp_predict(CpuC *c, int64_t slot, int64_t branches, double base_rate)
{
    int64_t *seen = c->bp_seen;
    int64_t *meta = c->bp_meta;
    if (seen[slot] < 0) {
        seen[slot] = 0;
        c->bp_residual[slot] = 0.0;
        bp_append(c, slot);
        meta[BP_COUNT_I]++;
        if (meta[BP_COUNT_I] > c->bp_capacity) {
            int64_t victim = meta[BP_HEAD_I];
            bp_unlink(c, victim);
            seen[victim] = -1;
            meta[BP_COUNT_I]--;
        }
        c->bp_stats[BP_COLD_EVENTS_I]++;
    }
    else if (meta[BP_TAIL_I] != slot) {
        bp_unlink(c, slot);
        bp_append(c, slot);
    }
    int64_t s = seen[slot];
    double rate = base_rate;
    if (s < WARMUP_INVOCATIONS_C)
        rate += COLD_RATE_C * (double)(WARMUP_INVOCATIONS_C - s)
                / (double)WARMUP_INVOCATIONS_C;
    seen[slot] = s + 1;
    /* Rounded twice, like Python's ``residual + branches * rate``:
     * engine.py builds with -ffp-contract=off, because a fused
     * multiply-add here rounds once and moves the residual (and every
     * later mispredict count) off the pure engine's. */
    double expected = c->bp_residual[slot] + (double)branches * rate;
    int64_t whole = (int64_t)expected;
    c->bp_residual[slot] = expected - (double)whole;
    if (whole > branches)
        whole = branches;
    c->bp_stats[BP_MISPREDICTS_I] += whole;
    return whole;
}

/* ------------------------------------------------------------------ */
/* Fused data walks (mirrors of Cpu._read_range / Cpu._write_range).   */
/* ------------------------------------------------------------------ */

static inline int64_t
walk_dtlb(CpuC *c, int64_t addr, int64_t last)
{
    int64_t page = addr / PAGE_SIZE_C;
    int64_t last_page = last / PAGE_SIZE_C;
    if (page == last_page) {
        if (c->dtlb_pages[0] == page) {
            c->dtlb_stats[TLB_HITS_I]++;
            return 0;
        }
        return tlb_access(c->dtlb_pages, c->dtlb_cap, c->dtlb_stats, page)
                   ? 0 : 1;
    }
    int64_t walks = 0;
    for (int64_t p = page; p <= last_page; p++)
        if (!tlb_access(c->dtlb_pages, c->dtlb_cap, c->dtlb_stats, p))
            walks++;
    return walks;
}

static int
walk_read(EngineState *st, CpuC *c, int64_t addr, int64_t size,
          int64_t *llc_out, int64_t *l2h_out, int64_t *l3h_out,
          int64_t *cyc_out, int64_t *walks_out)
{
    int64_t last = addr + size - 1;
    *walks_out += walk_dtlb(c, addr, last);
    int64_t first = addr / CACHE_LINE_C;
    int64_t last_line = last / CACHE_LINE_C;
    int64_t l1_hits = 0, l2_hits = 0, l3_hits = 0, llc_misses = 0;
    int64_t cycles = 0;
    for (int64_t line = first; line <= last_line; line++) {
        if (seg_access(c->l1t, c->mask1, c->ways1, line)) {
            l1_hits++;
            continue;
        }
        int64_t idx = dir_find(st, line);
        if (idx < 0) {
            /* Never-seen line: fill through, created shared. */
            seg_fill_front(c->l2t, (line & c->mask2) * c->ways2, c->ways2, line);
            seg_fill_front(c->l3t, (line & c->mask3) * c->ways3, c->ways3, line);
            llc_misses++;
            if (dir_insert(st, line, c->mybit, -1) == -2)
                return -1;
            cycles += st->llc_miss;
            continue;
        }
        uint64_t sharers = st->dir_sharers[idx];
        if (!(sharers & c->mybit)) {
            /* Provably cold here (sharer bit clear): fill through. */
            seg_fill_front(c->l2t, (line & c->mask2) * c->ways2, c->ways2, line);
            seg_fill_front(c->l3t, (line & c->mask3) * c->ways3, c->ways3, line);
            llc_misses++;
            int64_t owner = st->dir_owner[idx];
            if (owner >= 0 && owner != c->domain) {
                st->ms_stats[MS_C2C_I]++;
                st->dir_owner[idx] = -1;
                cycles += st->c2c_transfer;
            }
            else {
                cycles += st->llc_miss;
            }
            st->dir_sharers[idx] = sharers | c->mybit;
            continue;
        }
        if (seg_access(c->l2t, c->mask2, c->ways2, line)) {
            l2_hits++;
            cycles += st->l2_hit;
        }
        else if (seg_access(c->l3t, c->mask3, c->ways3, line)) {
            l3_hits++;
            cycles += st->l3_hit;
        }
        else {
            llc_misses++;
            int64_t owner = st->dir_owner[idx];
            if (owner >= 0 && owner != c->domain) {
                st->ms_stats[MS_C2C_I]++;
                st->dir_owner[idx] = -1;
                cycles += st->c2c_transfer;
            }
            else {
                cycles += st->llc_miss;
            }
        }
    }
    if (llc_misses)
        cycles += llc_misses * st->ms_stats[MS_BUS_DELAY_I];
    int64_t n_lines = last_line - first + 1;
    c->l1s[CACHE_HITS_I] += l1_hits;
    c->l1s[CACHE_MISSES_I] += n_lines - l1_hits;
    n_lines -= l1_hits;
    c->l2s[CACHE_HITS_I] += l2_hits;
    c->l2s[CACHE_MISSES_I] += n_lines - l2_hits;
    n_lines -= l2_hits;
    c->l3s[CACHE_HITS_I] += l3_hits;
    c->l3s[CACHE_MISSES_I] += n_lines - l3_hits;
    *llc_out += llc_misses;
    *l2h_out += l2_hits;
    *l3h_out += l3_hits;
    *cyc_out += cycles;
    return 0;
}

static int
walk_write(EngineState *st, CpuC *c, int64_t addr, int64_t size,
           int64_t *llc_out, int64_t *l2h_out, int64_t *l3h_out,
           int64_t *cyc_out, int64_t *walks_out)
{
    int64_t last = addr + size - 1;
    *walks_out += walk_dtlb(c, addr, last);
    int64_t first = addr / CACHE_LINE_C;
    int64_t last_line = last / CACHE_LINE_C;
    int64_t l1_hits = 0, l2_hits = 0, l3_hits = 0, llc_misses = 0;
    int64_t cycles = 0;
    for (int64_t line = first; line <= last_line; line++) {
        if (seg_access(c->l1t, c->mask1, c->ways1, line)) {
            l1_hits++;
            int64_t idx = dir_find(st, line);
            if (idx < 0 || st->dir_sharers[idx] != c->mybit ||
                st->dir_owner[idx] != c->domain) {
                if (make_exclusive_c(st, c, line) == -2)
                    return -1;
            }
            continue;
        }
        int64_t idx = dir_find(st, line);
        if (idx < 0) {
            /* Never-seen line: fill through, created exclusive. */
            seg_fill_front(c->l2t, (line & c->mask2) * c->ways2, c->ways2, line);
            seg_fill_front(c->l3t, (line & c->mask3) * c->ways3, c->ways3, line);
            llc_misses++;
            cycles += st->llc_store_miss;
            if (dir_insert(st, line, c->mybit, c->domain) == -2)
                return -1;
            continue;
        }
        uint64_t sharers = st->dir_sharers[idx];
        if (!(sharers & c->mybit)) {
            /* Cold here: fill through, then claim exclusivity. */
            seg_fill_front(c->l2t, (line & c->mask2) * c->ways2, c->ways2, line);
            seg_fill_front(c->l3t, (line & c->mask3) * c->ways3, c->ways3, line);
            llc_misses++;
            int64_t owner = st->dir_owner[idx];
            if (owner >= 0 && owner != c->domain) {
                st->ms_stats[MS_C2C_I]++;
                st->dir_owner[idx] = -1;
                cycles += st->c2c_transfer;
            }
            else {
                cycles += st->llc_store_miss;
            }
            st->dir_sharers[idx] = sharers | c->mybit;
            if (make_exclusive_c(st, c, line) == -2)
                return -1;
            continue;
        }
        if (seg_access(c->l2t, c->mask2, c->ways2, line)) {
            l2_hits++;
            cycles += st->l2_hit;
        }
        else if (seg_access(c->l3t, c->mask3, c->ways3, line)) {
            l3_hits++;
            cycles += st->l3_hit;
        }
        else {
            llc_misses++;
            int64_t owner = st->dir_owner[idx];
            if (owner >= 0 && owner != c->domain) {
                st->ms_stats[MS_C2C_I]++;
                st->dir_owner[idx] = -1;
                cycles += st->c2c_transfer;
            }
            else {
                cycles += st->llc_store_miss;
            }
        }
        if (st->dir_sharers[idx] != c->mybit ||
            st->dir_owner[idx] != c->domain) {
            if (make_exclusive_c(st, c, line) == -2)
                return -1;
        }
    }
    if (llc_misses)
        cycles += llc_misses * st->ms_stats[MS_BUS_DELAY_I];
    int64_t n_lines = last_line - first + 1;
    c->l1s[CACHE_HITS_I] += l1_hits;
    c->l1s[CACHE_MISSES_I] += n_lines - l1_hits;
    n_lines -= l1_hits;
    c->l2s[CACHE_HITS_I] += l2_hits;
    c->l2s[CACHE_MISSES_I] += n_lines - l2_hits;
    n_lines -= l2_hits;
    c->l3s[CACHE_HITS_I] += l3_hits;
    c->l3s[CACHE_MISSES_I] += n_lines - l3_hits;
    *llc_out += llc_misses;
    *l2h_out += l2_hits;
    *l3h_out += l3_hits;
    *cyc_out += cycles;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Read/write range lists, with Cpu.charge's single-line fast paths.   */
/* ------------------------------------------------------------------ */

static int
unpack_pair(PyObject *it, int64_t *addr, int64_t *size)
{
    if (PyTuple_CheckExact(it) && PyTuple_GET_SIZE(it) == 2) {
        long long a = PyLong_AsLongLong(PyTuple_GET_ITEM(it, 0));
        if (a == -1 && PyErr_Occurred())
            return -1;
        long long s = PyLong_AsLongLong(PyTuple_GET_ITEM(it, 1));
        if (s == -1 && PyErr_Occurred())
            return -1;
        *addr = (int64_t)a;
        *size = (int64_t)s;
        return 0;
    }
    PyObject *fast = PySequence_Fast(it, "access range must be (addr, size)");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != 2) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError, "access range must be (addr, size)");
        return -1;
    }
    long long a = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, 0));
    long long s = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, 1));
    Py_DECREF(fast);
    if ((a == -1 || s == -1) && PyErr_Occurred())
        return -1;
    *addr = (int64_t)a;
    *size = (int64_t)s;
    return 0;
}

static int
accumulate_ranges(EngineState *st, CpuC *c, PyObject *ranges, int is_write,
                  int64_t *llc, int64_t *l2h, int64_t *l3h,
                  int64_t *cyc, int64_t *walks)
{
    if (ranges == Py_None)
        return 0;
    PyObject *fast = PySequence_Fast(
        ranges, "reads/writes must be iterable of (addr, size)");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t k = 0; k < n; k++) {
        int64_t addr, size;
        if (unpack_pair(items[k], &addr, &size) < 0) {
            Py_DECREF(fast);
            return -1;
        }
        if (size <= 0)
            continue;
        int64_t line = addr / CACHE_LINE_C;
        if (line == (addr + size - 1) / CACHE_LINE_C &&
            c->l1t[(line & c->mask1) * c->ways1] == line) {
            /* Hot single-line touch: L1-MRU hit + DTLB-MRU hit (and,
             * for writes, already exclusive to us) is a no-op on all
             * state except two hit counters. */
            int ok = 1;
            if (is_write) {
                int64_t idx = dir_find(st, line);
                ok = idx >= 0 && st->dir_sharers[idx] == c->mybit &&
                     st->dir_owner[idx] == c->domain;
            }
            if (ok && c->dtlb_pages[0] == addr / PAGE_SIZE_C) {
                c->l1s[CACHE_HITS_I]++;
                c->dtlb_stats[TLB_HITS_I]++;
                continue;
            }
        }
        int rc = is_write
                     ? walk_write(st, c, addr, size, llc, l2h, l3h, cyc, walks)
                     : walk_read(st, c, addr, size, llc, l2h, l3h, cyc, walks);
        if (rc < 0) {
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Spec statics.                                                       */
/* ------------------------------------------------------------------ */

static int
load_spec(EngineState *st, int64_t slot, PyObject *spec)
{
    int64_t code_addr, code_size;
    SpecStatic *sp = &st->specs[slot];
    if (get_i64(spec, "code_addr", &code_addr) < 0 ||
        get_i64(spec, "code_size", &code_size) < 0 ||
        get_i64(spec, "stall_per_call", &sp->stall_per_call) < 0 ||
        get_dbl(spec, "stall_per_instr", &sp->stall_per_instr) < 0 ||
        get_dbl(spec, "branch_frac", &sp->branch_frac) < 0 ||
        get_dbl(spec, "mispredict_rate", &sp->mispredict_rate) < 0)
        return -1;
    sp->first_line = code_addr / CACHE_LINE_C;
    sp->n_lines = (code_addr + code_size - 1) / CACHE_LINE_C
                  - sp->first_line + 1;
    sp->code_page = code_addr / PAGE_SIZE_C;
    sp->loaded = 1;
    return 0;
}

static int64_t
resolve_slot(EngineState *st, PyObject *spec)
{
    PyObject *v = PyDict_GetItemWithError(st->reg_dict, spec);
    if (v == NULL) {
        if (PyErr_Occurred())
            return -2;
        v = PyObject_CallMethod(st->registry, "slot_for", "O", spec);
        if (v == NULL)
            return -2;
        long long slot = PyLong_AsLongLong(v);
        Py_DECREF(v);
        if (slot == -1 && PyErr_Occurred())
            return -2;
        /* slot_for may have grown the registry (notifying accounting
         * and predictor growers). */
        if (st->reg_meta[REG_GEN_I] != st->gen_seen &&
            rebind_registry_growth(st) < 0)
            return -2;
        return (int64_t)slot;
    }
    long long slot = PyLong_AsLongLong(v);
    if (slot == -1 && PyErr_Occurred())
        return -2;
    return (int64_t)slot;
}

/* ------------------------------------------------------------------ */
/* charge()                                                            */
/* ------------------------------------------------------------------ */

/* The cost of one invocation of spec on CPU cpu_index: everything of
 * Cpu.charge except the clock and skid bookkeeping.  Stores the cycles
 * in *cycles_out; returns -1 with a Python error set on failure. */
static int
charge_cycles(EngineState *st, int cpu_index, PyObject *spec,
              int64_t instructions, PyObject *reads, PyObject *writes,
              int64_t extra_cycles, int64_t branches, int64_t mispredicts,
              double sib_load, int64_t *cycles_out)
{
    if (ensure_bound(st) < 0)
        return -1;
    CpuC *c = &st->cpus[cpu_index];

    int64_t slot = resolve_slot(st, spec);
    if (slot == -2)
        return -1;
    SpecStatic *sp = &st->specs[slot];
    if (!sp->loaded && load_spec(st, slot, spec) < 0)
        return -1;

    /* Instruction fetch through the trace cache (FunctionSpec.
     * fetch_lines computed directly; the Python memos are a pure
     * cache). */
    int64_t needed = ((int64_t)instructions * BYTES_PER_INSTRUCTION_C
                      + CACHE_LINE_C - 1) / CACHE_LINE_C;
    if (needed >= sp->n_lines)
        needed = sp->n_lines;
    else if (needed == 0)
        needed = 1;
    int64_t tc_misses = 0;
    {
        int64_t end = sp->first_line + needed;
        for (int64_t line = sp->first_line; line < end; line++)
            if (!seg_access(c->tct, c->tc_mask, c->tc_ways, line))
                tc_misses++;
        c->tcs[CACHE_HITS_I] += needed - tc_misses;
        c->tcs[CACHE_MISSES_I] += tc_misses;
    }
    int64_t itlb_walks = 0;
    if (c->itlb_pages[0] == sp->code_page)
        c->itlb_stats[TLB_HITS_I]++;
    else if (!tlb_access(c->itlb_pages, c->itlb_cap, c->itlb_stats,
                         sp->code_page))
        itlb_walks = 1;
    int64_t penalty = 0;
    if (tc_misses)
        penalty += tc_misses * st->tc_miss;
    if (itlb_walks)
        penalty += st->itlb_walk;

    /* Data ranges. */
    int64_t llc_misses = 0, l2_hits = 0, l3_hits = 0, dtlb_walks = 0;
    if (accumulate_ranges(st, c, reads, 0, &llc_misses, &l2_hits, &l3_hits,
                          &penalty, &dtlb_walks) < 0)
        return -1;
    if (accumulate_ranges(st, c, writes, 1, &llc_misses, &l2_hits, &l3_hits,
                          &penalty, &dtlb_walks) < 0)
        return -1;
    if (dtlb_walks)
        penalty += dtlb_walks * st->dtlb_walk;

    /* Spec-static per-count costs (same float ops as the pure path:
     * int(instructions * stall_per_instr), int(instructions *
     * branch_frac) -- non-negative and far below 2^53, so the C
     * double product and truncation are bit-identical). */
    int64_t static_stall =
        (int64_t)((double)instructions * sp->stall_per_instr)
        + sp->stall_per_call;
    if (branches < 0)
        branches = (int64_t)((double)instructions * sp->branch_frac);

    if (mispredicts < 0) {
        mispredicts = branches <= 0
                          ? 0
                          : bp_predict(c, slot, branches, sp->mispredict_rate);
    }
    else {
        c->bp_stats[BP_MISPREDICTS_I] += mispredicts;
    }
    if (mispredicts)
        penalty += mispredicts * st->br_mispredict;

    int64_t cycles =
        (instructions + st->retire_width - 1) / st->retire_width
        + static_stall + extra_cycles + penalty;
    if (sib_load > 0.0)
        cycles += (int64_t)((double)cycles * st->smt_penalty * sib_load);

    int64_t *totals = c->totals;
    totals[EV_CYCLES] += cycles;
    totals[EV_INSTRUCTIONS] += instructions;
    totals[EV_BRANCHES] += branches;
    totals[EV_BR_MISPREDICTS] += mispredicts;
    totals[EV_LLC_MISSES] += llc_misses;
    totals[EV_L2_HITS] += l2_hits;
    totals[EV_L3_HITS] += l3_hits;
    totals[EV_TC_MISSES] += tc_misses;
    totals[EV_ITLB_WALKS] += itlb_walks;
    totals[EV_DTLB_WALKS] += dtlb_walks;

    if (st->acct_meta[ACCT_ENABLED_I]) {
        int64_t idx = slot * st->acct_ncpus + cpu_index;
        if (!st->acct_touched[idx]) {
            st->acct_touched[idx] = 1;
            st->acct_order[st->acct_meta[ACCT_ORDER_COUNT_I]] = idx;
            st->acct_meta[ACCT_ORDER_COUNT_I]++;
        }
        int64_t *row = st->acct_rows + idx * N_EVENTS_C;
        row[EV_CYCLES] += cycles;
        row[EV_INSTRUCTIONS] += instructions;
        row[EV_BRANCHES] += branches;
        row[EV_BR_MISPREDICTS] += mispredicts;
        row[EV_LLC_MISSES] += llc_misses;
        row[EV_L2_HITS] += l2_hits;
        row[EV_L3_HITS] += l3_hits;
        row[EV_TC_MISSES] += tc_misses;
        row[EV_ITLB_WALKS] += itlb_walks;
        row[EV_DTLB_WALKS] += dtlb_walks;
    }
    *cycles_out = cycles;
    return 0;
}

static int
as_i64(PyObject *o, int64_t *out)
{
    long long x = PyLong_AsLongLong(o);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)x;
    return 0;
}

/* charge(cpu, spec, instructions, reads, writes, extra_cycles, branches,
 * mispredicts): CompiledCpu.charge in full -- the cost, then the clock,
 * busy-cycle and oprofile-skid bookkeeping on the CpuCore members. */
static PyObject *
mod_charge(PyObject *Py_UNUSED(module), PyObject *const *args,
           Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "charge() takes 8 arguments (cpu, spec, "
                        "instructions, reads, writes, extra_cycles, "
                        "branches, mispredicts)");
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &CpuCore_Type)) {
        PyErr_SetString(PyExc_TypeError, "charge() needs a CpuCore");
        return NULL;
    }
    CpuCoreObject *cpu = (CpuCoreObject *)args[0];
    EngineState *st = cpu->engine;
    if (st == NULL || st->memsys == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "CPU is not bound to an engine state");
        return NULL;
    }
    PyObject *spec = args[1];
    int64_t instructions, extra_cycles, branches = -1, mispredicts = -1;
    if (as_i64(args[2], &instructions) < 0 ||
        as_i64(args[5], &extra_cycles) < 0 ||
        (args[6] != Py_None && as_i64(args[6], &branches) < 0) ||
        (args[7] != Py_None && as_i64(args[7], &mispredicts) < 0))
        return NULL;

    Py_INCREF(spec);
    Py_XSETREF(cpu->last_spec, spec);
    double sib_load = cpu->sibling != NULL ? cpu->sibling->recent_load : 0.0;
    int64_t cycles;
    if (charge_cycles(st, cpu->slot, spec, instructions, args[3], args[4],
                      extra_cycles, branches, mispredicts, sib_load,
                      &cycles) < 0)
        return NULL;

    cpu->now += cycles;
    cpu->busy_cycles += cycles;
    long long acc = cpu->skid_acc + cycles;
    if (acc >= st->skid_period) {
        acc %= st->skid_period;
        Py_INCREF(spec);
        Py_XSETREF(cpu->skid_spec, spec);
    }
    cpu->skid_acc = acc;
    return PyLong_FromLongLong((long long)cycles);
}

/* ------------------------------------------------------------------ */
/* DMA entry points (mirrors of MemorySystem.dma_write / dma_read).    */
/* ------------------------------------------------------------------ */

static EngineState *
engine_arg(PyObject *obj)
{
    if (!PyObject_TypeCheck(obj, &EngineState_Type)) {
        PyErr_SetString(PyExc_TypeError, "expected an EngineState");
        return NULL;
    }
    EngineState *st = (EngineState *)obj;
    if (st->memsys == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "engine state was cleared");
        return NULL;
    }
    if (ensure_bound(st) < 0)
        return NULL;
    return st;
}

static PyObject *
mod_dma_write(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *obj;
    long long addr, size;
    if (!PyArg_ParseTuple(args, "OLL", &obj, &addr, &size))
        return NULL;
    EngineState *st = engine_arg(obj);
    if (st == NULL)
        return NULL;
    int64_t invalidations = 0, n = 0;
    if (size > 0) {
        int64_t first = addr / CACHE_LINE_C;
        int64_t last = (addr + size - 1) / CACHE_LINE_C;
        for (int64_t line = first; line <= last; line++) {
            n++;
            int64_t idx = dir_find(st, line);
            if (idx >= 0 && st->dir_sharers[idx]) {
                uint64_t sharers = st->dir_sharers[idx];
                for (int d = 0; d < st->n_domains; d++) {
                    if (sharers & ((uint64_t)1 << d)) {
                        domain_invalidate(st, d, line);
                        invalidations++;
                    }
                }
                st->dir_sharers[idx] = 0;
                st->dir_owner[idx] = -1;
            }
        }
    }
    st->ms_stats[MS_INV_I] += invalidations;
    st->ms_stats[MS_DMA_W_I] += n;
    Py_RETURN_NONE;
}

static PyObject *
mod_dma_read(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *obj;
    long long addr, size;
    if (!PyArg_ParseTuple(args, "OLL", &obj, &addr, &size))
        return NULL;
    EngineState *st = engine_arg(obj);
    if (st == NULL)
        return NULL;
    int64_t invalidations = 0, n = 0;
    if (size > 0) {
        int64_t first = addr / CACHE_LINE_C;
        int64_t last = (addr + size - 1) / CACHE_LINE_C;
        for (int64_t line = first; line <= last; line++) {
            n++;
            int64_t idx = dir_find(st, line);
            if (idx >= 0) {
                uint64_t sharers = st->dir_sharers[idx];
                if (st->dma_read_invalidates && sharers) {
                    for (int d = 0; d < st->n_domains; d++) {
                        if (sharers & ((uint64_t)1 << d)) {
                            domain_invalidate(st, d, line);
                            invalidations++;
                        }
                    }
                    st->dir_sharers[idx] = 0;
                }
                st->dir_owner[idx] = -1;
            }
        }
    }
    st->ms_stats[MS_INV_I] += invalidations;
    st->ms_stats[MS_DMA_R_I] += n;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* EngineState: construction, garbage collection, destruction.         */
/* ------------------------------------------------------------------ */

static int
engine_traverse(PyObject *self, visitproc visit, void *arg)
{
    EngineState *st = (EngineState *)self;
    Py_VISIT(st->registry);
    Py_VISIT(st->reg_dict);
    Py_VISIT(st->acct);
    Py_VISIT(st->memsys);
    Py_VISIT(st->directory);
    if (st->cpus != NULL)
        for (int i = 0; i < st->n_cpus; i++)
            Py_VISIT(st->cpus[i].bp);
    return 0;
}

/* Drops the object references only: the buffer views (over arrays,
 * which cannot be part of a cycle) stay valid until dealloc. */
static int
engine_clear(PyObject *self)
{
    EngineState *st = (EngineState *)self;
    Py_CLEAR(st->registry);
    Py_CLEAR(st->reg_dict);
    Py_CLEAR(st->acct);
    Py_CLEAR(st->memsys);
    Py_CLEAR(st->directory);
    if (st->cpus != NULL)
        for (int i = 0; i < st->n_cpus; i++)
            Py_CLEAR(st->cpus[i].bp);
    return 0;
}

static void
engine_dealloc(PyObject *self)
{
    EngineState *st = (EngineState *)self;
    PyObject_GC_UnTrack(self);
#define REL(v) if ((v).obj != NULL) PyBuffer_Release(&(v))
    REL(st->reg_meta_v);
    REL(st->acct_rows_v);
    REL(st->acct_touched_v);
    REL(st->acct_order_v);
    REL(st->acct_meta_v);
    REL(st->dir_keys_v);
    REL(st->dir_sharers_v);
    REL(st->dir_owner_v);
    REL(st->dir_meta_v);
    REL(st->ms_stats_v);
    if (st->cpus != NULL) {
        for (int i = 0; i < st->n_cpus; i++) {
            CpuC *c = &st->cpus[i];
            REL(c->l1t_v); REL(c->l1s_v);
            REL(c->l2t_v); REL(c->l2s_v);
            REL(c->l3t_v); REL(c->l3s_v);
            REL(c->tct_v); REL(c->tcs_v);
            REL(c->it_v); REL(c->is_v);
            REL(c->dt_v); REL(c->ds_v);
            REL(c->bseen_v); REL(c->bres_v);
            REL(c->bprev_v); REL(c->bnext_v);
            REL(c->bmeta_v); REL(c->bstats_v);
            REL(c->tot_v);
        }
    }
#undef REL
    engine_clear(self);
    PyMem_Free(st->cpus);
    PyMem_Free(st->domain_rep);
    PyMem_Free(st->specs);
    Py_TYPE(self)->tp_free(self);
}

static PyTypeObject EngineState_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_enginecore.EngineState",
    .tp_basicsize = sizeof(EngineState),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Flat-array machine state bound by build_state().",
    .tp_traverse = engine_traverse,
    .tp_clear = engine_clear,
    .tp_dealloc = engine_dealloc,
};

static int
bind_cache(PyObject *cpu, const char *attr, Py_buffer *tv, int64_t **tags,
           Py_buffer *sv, int64_t **stats, int64_t *mask, int64_t *ways)
{
    PyObject *cache = PyObject_GetAttrString(cpu, attr);
    if (cache == NULL)
        return -1;
    int rc = 0;
    if (bind_buf(cache, "_tags", tv, tags) < 0 ||
        bind_buf(cache, "_stats", sv, stats) < 0 ||
        get_i64(cache, "_mask", mask) < 0 ||
        get_i64(cache, "_ways", ways) < 0)
        rc = -1;
    Py_DECREF(cache);
    return rc;
}

static int
bind_tlb(PyObject *cpu, const char *attr, Py_buffer *pv, int64_t **pages,
         Py_buffer *sv, int64_t **stats, int64_t *cap)
{
    PyObject *tlb = PyObject_GetAttrString(cpu, attr);
    if (tlb == NULL)
        return -1;
    int rc = 0;
    if (bind_buf(tlb, "_pages", pv, pages) < 0 ||
        bind_buf(tlb, "_stats", sv, stats) < 0 ||
        get_i64(tlb, "_capacity", cap) < 0)
        rc = -1;
    Py_DECREF(tlb);
    return rc;
}

static int
bind_cpu(EngineState *st, int i, PyObject *cpu)
{
    CpuC *c = &st->cpus[i];
    if (!PyObject_TypeCheck(cpu, &CpuCore_Type)) {
        PyErr_SetString(PyExc_TypeError, "every CPU must be a CpuCore");
        return -1;
    }
    if (bind_cache(cpu, "l1", &c->l1t_v, &c->l1t, &c->l1s_v, &c->l1s,
                   &c->mask1, &c->ways1) < 0 ||
        bind_cache(cpu, "l2", &c->l2t_v, &c->l2t, &c->l2s_v, &c->l2s,
                   &c->mask2, &c->ways2) < 0 ||
        bind_cache(cpu, "l3", &c->l3t_v, &c->l3t, &c->l3s_v, &c->l3s,
                   &c->mask3, &c->ways3) < 0 ||
        bind_cache(cpu, "trace_cache", &c->tct_v, &c->tct, &c->tcs_v, &c->tcs,
                   &c->tc_mask, &c->tc_ways) < 0 ||
        bind_tlb(cpu, "itlb", &c->it_v, &c->itlb_pages, &c->is_v,
                 &c->itlb_stats, &c->itlb_cap) < 0 ||
        bind_tlb(cpu, "dtlb", &c->dt_v, &c->dtlb_pages, &c->ds_v,
                 &c->dtlb_stats, &c->dtlb_cap) < 0 ||
        bind_buf(cpu, "totals", &c->tot_v, &c->totals) < 0 ||
        get_i64(cpu, "domain", &c->domain) < 0)
        return -1;
    if (c->domain < 0 || c->domain >= 64) { /* one uint64 sharer bit each */
        PyErr_SetString(PyExc_ValueError, "coherence domain outside 0..63");
        return -1;
    }
    c->mybit = (uint64_t)1 << c->domain;
    c->bp = PyObject_GetAttrString(cpu, "branch_predictor");
    if (c->bp == NULL)
        return -1;
    if (bind_buf(c->bp, "_seen", &c->bseen_v, &c->bp_seen) < 0 ||
        bind_buf(c->bp, "_residual", &c->bres_v, &c->bp_residual) < 0 ||
        bind_buf(c->bp, "_prev", &c->bprev_v, &c->bp_prev) < 0 ||
        bind_buf(c->bp, "_next", &c->bnext_v, &c->bp_next) < 0 ||
        bind_buf(c->bp, "_meta", &c->bmeta_v, &c->bp_meta) < 0 ||
        bind_buf(c->bp, "_stats", &c->bstats_v, &c->bp_stats) < 0 ||
        get_i64(c->bp, "_capacity", &c->bp_capacity) < 0)
        return -1;
    return 0;
}

static int
desc_item(PyObject *desc, const char *key, PyObject **out)
{
    *out = PyDict_GetItemString(desc, key);
    if (*out == NULL) {
        PyErr_Format(PyExc_ValueError, "state description needs %s", key);
        return -1;
    }
    return 0;
}

static PyObject *
mod_build_state(PyObject *module, PyObject *args)
{
    PyObject *desc;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &desc))
        return NULL;
    PyObject *registry, *acct, *memsys, *costs, *cpus, *skid;
    if (desc_item(desc, "registry", &registry) < 0 ||
        desc_item(desc, "accounting", &acct) < 0 ||
        desc_item(desc, "memsys", &memsys) < 0 ||
        desc_item(desc, "costs", &costs) < 0 ||
        desc_item(desc, "cpus", &cpus) < 0 ||
        desc_item(desc, "skid_period", &skid) < 0)
        return NULL;
    if (!PyList_Check(cpus)) {
        PyErr_SetString(PyExc_TypeError, "cpus must be a list");
        return NULL;
    }
    EngineState *st = PyObject_GC_New(EngineState, &EngineState_Type);
    if (st == NULL)
        return NULL;
    /* Zero everything after the object header so dealloc is safe from
     * any failure point below. */
    memset((char *)st + sizeof(PyObject), 0,
           sizeof(EngineState) - sizeof(PyObject));
    PyObject_GC_Track((PyObject *)st);

    if (as_i64(skid, &st->skid_period) < 0)
        goto fail;
    if (st->skid_period <= 0) {
        PyErr_SetString(PyExc_ValueError, "skid_period must be positive");
        goto fail;
    }
    st->registry = Py_NewRef(registry);
    st->acct = Py_NewRef(acct);
    st->memsys = Py_NewRef(memsys);

    st->reg_dict = PyObject_GetAttrString(registry, "_spec_to_slot");
    if (st->reg_dict == NULL || !PyDict_Check(st->reg_dict))
        goto fail;
    if (bind_buf(registry, "_meta", &st->reg_meta_v, &st->reg_meta) < 0 ||
        get_i64(registry, "capacity", &st->spec_cap) < 0)
        goto fail;
    st->specs = (SpecStatic *)PyMem_Calloc((size_t)st->spec_cap,
                                           sizeof(SpecStatic));
    if (st->specs == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    st->gen_seen = st->reg_meta[REG_GEN_I];

    if (bind_buf(acct, "_rows", &st->acct_rows_v, &st->acct_rows) < 0 ||
        bind_buf(acct, "_touched", &st->acct_touched_v, &st->acct_touched) < 0 ||
        bind_buf(acct, "_order", &st->acct_order_v, &st->acct_order) < 0 ||
        bind_buf(acct, "_meta", &st->acct_meta_v, &st->acct_meta) < 0 ||
        get_i64(acct, "n_cpus", &st->acct_ncpus) < 0)
        goto fail;

    st->directory = PyObject_GetAttrString(memsys, "directory");
    if (st->directory == NULL)
        goto fail;
    if (bind_buf(st->directory, "_meta", &st->dir_meta_v, &st->dir_meta) < 0 ||
        rebind_directory(st) < 0 ||
        bind_buf(memsys, "_stats", &st->ms_stats_v, &st->ms_stats) < 0)
        goto fail;
    {
        PyObject *v = PyObject_GetAttrString(memsys, "dma_read_invalidates");
        if (v == NULL)
            goto fail;
        st->dma_read_invalidates = PyObject_IsTrue(v);
        Py_DECREF(v);
        if (st->dma_read_invalidates < 0)
            goto fail;
    }

    if (get_i64(costs, "retire_width", &st->retire_width) < 0 ||
        get_i64(costs, "l2_hit", &st->l2_hit) < 0 ||
        get_i64(costs, "l3_hit", &st->l3_hit) < 0 ||
        get_i64(costs, "llc_miss", &st->llc_miss) < 0 ||
        get_i64(costs, "llc_store_miss", &st->llc_store_miss) < 0 ||
        get_i64(costs, "c2c_transfer", &st->c2c_transfer) < 0 ||
        get_i64(costs, "tc_miss", &st->tc_miss) < 0 ||
        get_i64(costs, "itlb_walk", &st->itlb_walk) < 0 ||
        get_i64(costs, "dtlb_walk", &st->dtlb_walk) < 0 ||
        get_i64(costs, "br_mispredict", &st->br_mispredict) < 0 ||
        get_dbl(costs, "smt_penalty", &st->smt_penalty) < 0)
        goto fail;

    st->n_cpus = (int)PyList_GET_SIZE(cpus);
    st->cpus = (CpuC *)PyMem_Calloc((size_t)st->n_cpus, sizeof(CpuC));
    if (st->cpus == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int i = 0; i < st->n_cpus; i++)
        if (bind_cpu(st, i, PyList_GET_ITEM(cpus, i)) < 0)
            goto fail;

    st->n_domains = 0;
    for (int i = 0; i < st->n_cpus; i++)
        if (st->cpus[i].domain + 1 > st->n_domains)
            st->n_domains = (int)st->cpus[i].domain + 1;
    st->domain_rep = (int *)PyMem_Malloc((size_t)st->n_domains * sizeof(int));
    if (st->domain_rep == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int d = 0; d < st->n_domains; d++)
        st->domain_rep[d] = -1;
    for (int i = 0; i < st->n_cpus; i++) {
        int d = (int)st->cpus[i].domain;
        if (st->domain_rep[d] < 0)
            st->domain_rep[d] = i;
    }
    for (int d = 0; d < st->n_domains; d++) {
        if (st->domain_rep[d] < 0) {
            PyErr_SetString(PyExc_ValueError,
                            "coherence domains must be contiguous");
            goto fail;
        }
    }

    /* Everything bound: attach the CPUs to this state. */
    for (int i = 0; i < st->n_cpus; i++) {
        CpuCoreObject *cpu = (CpuCoreObject *)PyList_GET_ITEM(cpus, i);
        Py_INCREF(st);
        Py_XSETREF(cpu->engine, st);
        Py_XSETREF(cpu->core, Py_NewRef(module));
        cpu->slot = i;
    }
    return (PyObject *)st;
fail:
    Py_DECREF(st);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* CpuCore: the charge bookkeeping as C members.                       */
/* ------------------------------------------------------------------ */

static int
cpucore_traverse(PyObject *self, visitproc visit, void *arg)
{
    CpuCoreObject *cpu = (CpuCoreObject *)self;
    Py_VISIT(cpu->last_spec);
    Py_VISIT(cpu->skid_spec);
    Py_VISIT(cpu->sibling);
    Py_VISIT(cpu->engine);
    Py_VISIT(cpu->core);
    return 0;
}

static int
cpucore_clear(PyObject *self)
{
    CpuCoreObject *cpu = (CpuCoreObject *)self;
    Py_CLEAR(cpu->last_spec);
    Py_CLEAR(cpu->skid_spec);
    Py_CLEAR(cpu->sibling);
    Py_CLEAR(cpu->engine);
    Py_CLEAR(cpu->core);
    return 0;
}

static void
cpucore_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    cpucore_clear(self);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *
cpucore_get_sibling(PyObject *self, void *Py_UNUSED(closure))
{
    CpuCoreObject *cpu = (CpuCoreObject *)self;
    return Py_NewRef(cpu->sibling != NULL ? (PyObject *)cpu->sibling
                                          : Py_None);
}

static int
cpucore_set_sibling(PyObject *self, PyObject *value, void *Py_UNUSED(closure))
{
    CpuCoreObject *cpu = (CpuCoreObject *)self;
    if (value == NULL || value == Py_None) {
        Py_CLEAR(cpu->sibling);
        return 0;
    }
    if (!PyObject_TypeCheck(value, &CpuCore_Type)) {
        PyErr_SetString(PyExc_TypeError, "sibling must be a CpuCore or None");
        return -1;
    }
    Py_INCREF(value);
    Py_XSETREF(cpu->sibling, (CpuCoreObject *)value);
    return 0;
}

static PyMemberDef cpucore_members[] = {
    {"now", T_LONGLONG, offsetof(CpuCoreObject, now), 0,
     "Local clock, in cycles."},
    {"busy_cycles", T_LONGLONG, offsetof(CpuCoreObject, busy_cycles), 0,
     "Cycles spent charging work."},
    {"_skid_acc", T_LONGLONG, offsetof(CpuCoreObject, skid_acc), 0,
     "Cycles since the last oprofile skid sample."},
    {"recent_load", T_DOUBLE, offsetof(CpuCoreObject, recent_load), 0,
     "Load estimate the SMT sibling's charges are slowed by."},
    {"last_spec", T_OBJECT, offsetof(CpuCoreObject, last_spec), 0,
     "Function spec charged last."},
    {"skid_spec", T_OBJECT, offsetof(CpuCoreObject, skid_spec), 0,
     "Spec running at the last skid sample."},
    {"_core", T_OBJECT, offsetof(CpuCoreObject, core), READONLY,
     "The extension module, once build_state() bound this CPU."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef cpucore_getset[] = {
    {"sibling", cpucore_get_sibling, cpucore_set_sibling,
     "The SMT sibling sharing this CPU's caches, or None.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CpuCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_enginecore.CpuCore",
    .tp_basicsize = sizeof(CpuCoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Per-CPU charge bookkeeping; base of the compiled CPU class.",
    .tp_traverse = cpucore_traverse,
    .tp_clear = cpucore_clear,
    .tp_dealloc = cpucore_dealloc,
    .tp_members = cpucore_members,
    .tp_getset = cpucore_getset,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"build_state", mod_build_state, METH_VARARGS,
     "Bind the flat-array machine state and its CPUs; returns an "
     "EngineState."},
    {"charge", (PyCFunction)(void (*)(void))mod_charge, METH_FASTCALL,
     "charge(cpu, spec, instructions, reads, writes, extra_cycles, "
     "branches, mispredicts) -> cycles"},
    {"dma_write", mod_dma_write, METH_VARARGS,
     "dma_write(state, addr, size)"},
    {"dma_read", mod_dma_read, METH_VARARGS,
     "dma_read(state, addr, size)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef enginecore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_enginecore",
    .m_doc = "Compiled charging engine over buffer-bound array state.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__enginecore(void)
{
    if (PyType_Ready(&EngineState_Type) < 0 ||
        PyType_Ready(&CpuCore_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&enginecore_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "CpuCore", (PyObject *)&CpuCore_Type) < 0 ||
        PyModule_AddObjectRef(m, "EngineState",
                              (PyObject *)&EngineState_Type) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
