/* Types and entry points of the compiled window kernel (native.c).
 *
 * This file is both the C header and cffi's cdef, so it holds plain
 * declarations only: no #include, no macros, no inline bodies.  See
 * repro/cpu/native.py for how the Python objects map onto these
 * structs and for what stays in C between calls.
 */

/* CPython's MT19937 state: random.Random.getstate()[1] verbatim
 * (624 words, then the position of the next word). */
typedef struct {
    uint32_t mt[624];
    uint32_t index;
} mt_t;

/* A SetAssociativeCache: set s holds len[s] block ids at
 * ways[s * assoc ...], index 0 = next victim, last = MRU. */
typedef struct {
    int64_t *ways;
    int32_t *len;
    int64_t n_sets;
    int32_t assoc;
    int32_t lru;
} cache_t;

/* One core's hardware state.  The five caches, the two predictor
 * tables and the backing RNG live here between calls; the prefetcher
 * and the store-gather buffer are copied in and out every call. */
typedef struct {
    cache_t l1i, l1d, ierat, derat, tlb;
    int8_t *dir;
    int64_t dir_entries;
    int64_t *tgt;
    int64_t tgt_entries;
    mt_t backing;
    int64_t iline, dline, ierat_granule, derat_granule;
    int64_t streams[16];
    int32_t n_streams, max_streams;
    int64_t run_key[32], run_len[32];
    int32_t n_runs, max_runs;
    int64_t allocate_after, depth;
    int64_t gather[16];
    int32_t n_gather;
} core_t;

/* A Region: the address draws plus its backing distribution (source
 * ordinals of DataSource, or of InstSource for the code region). */
typedef struct {
    int64_t base, size, end, page, n_pages, dwell_span;
    double scan_affinity;
    int32_t n_src;
    int32_t src[8];
    double p[8];
} region_t;

/* A CodeUnit and an IndirectSite, as offsets into the pool arrays. */
typedef struct {
    int64_t base, end;
    int32_t cond_off, n_cond, ind_off, n_ind;
} unit_t;

typedef struct {
    int64_t sid;
    int32_t t_off, n_t, c_off, n_c;
} site_t;

/* One SliceRunner.run_until call: the profile, latencies and
 * module constants in, the runner/accountant state in and out, and
 * counter, hit/miss and objprof deltas out. */
typedef struct {
    double mean_extra, inv_mean_extra, mem_per_instr, larx_per_instr,
        sync_per_instr, load_fraction, seq_load_fraction, seq_store_fraction,
        call_frac, ind_frac, hard_frac, dwell_p;
    int64_t dwell_override;
    double inv_scan_chunk, stcx_fail_p;
    int64_t instr_bytes, seq_load_step, seq_store_step;

    double base_cpi, ierat_lat, derat_lat, tlb_lat, derat_redisp,
        covered_lat, alloc_lat, store_miss_lat, stcx_lat, sync_lat,
        sync_srq_lat, br_lat, ta_lat, flush_w, l2_redisp;
    double data_pen[8], inst_pen[4];
    int32_t l2_src;

    region_t **regs;
    int32_t *load_reg, *store_reg;
    double *load_cum, *store_cum;
    int32_t n_load, n_store;
    int64_t *granule, *seq_ptr;
    region_t *code;

    unit_t *units;
    int64_t *cond_sid;
    double *cond_bias;
    site_t *sites;
    int64_t *targets;
    double *tcum;
    int32_t *active;
    double *active_cum;
    int32_t n_active;

    /* objprof site attribution; prof is NULL when no profiler is
     * active.  Data region i's extents end at the region offsets
     * ext_bound[ext_off[i] .. ext_off[i + 1]) (the last extent's end
     * is the region's), and ext_site[ext_off[i] + i ...] names the
     * site of each extent, one more than there are bounds.  prof holds
     * one row of counters per site, in native.c's P_* order. */
    int32_t *ext_off, *ext_site;
    int64_t *ext_bound, *prof;

    int32_t unit;
    int64_t pos, fetched, completed;
    double cycles, extra, srq;
    mt_t rng;
    int64_t counts[31];
    int64_t stats[12];
} slice_t;

void run_slice(core_t *core, slice_t *s, double cycle_limit);

/* CPython's random.Random methods, for the word-for-word tests. */
double mt_random(mt_t *r);
uint32_t mt_getrandbits(mt_t *r, int k);
int64_t mt_randbelow(mt_t *r, int64_t n);
double mt_expovariate(mt_t *r, double lambd);

/* ---- the fault-free SystemUnderTest tick loop (tick.c) ----------- */

/* One in-flight request: its type, arrival, CPU demand and progress,
 * and its sorted I/O thresholds (io, grown with realloc by tick.c and
 * released by sut_free). */
typedef struct {
    int32_t type, n_io, cap_io, next_io;
    double arrival_s, total, consumed;
    double *io;
} treq_t;

/* One SystemUnderTest.run.  native_tick.py fills the configuration,
 * the four workload streams and the buffers; sut_run advances ticks
 * until the run ends or it needs Python, and says which by its return
 * value (SUT_*).  Every queue holds slot indexes into req, and each
 * has room for max_in_flight of them: admission keeps the live
 * requests below that.  The out_* arrays have one row per tick. */
typedef struct {
    int32_t n_types;
    int64_t n_ticks;
    double tick_s, tick_ms, capacity_ms, ramp_up_s, ramp_down_s, duration_s;
    double rate[16], spec_cpu_ms[16], alloc_per_cpu_ms[16], db_queries[16],
        overhead_ms[16], prop[16][5];
    double base_miss, live_target, live_floor, live_ramp_s, trigger_free;
    int64_t max_in_flight, thread_pool, live_per_request, live_headroom,
        capacity_bytes;
    double disk_tick_ms, service_ms;
    int64_t n_disks;

    mt_t arrivals, web, db, requests;
    int64_t live, alloc, dark;
    double gc_wall_remaining_ms, disk_carry, disk_busy;
    int64_t queries, misses, wait_samples, rejected[16];

    treq_t *req;
    int32_t *free_slot, *accept, *running, *scratch, *disk, *done;
    int32_t n_free, acc_head, n_acc, n_running, disk_head, n_disk, n_done;

    /* Where sut_run resumes: the tick, and whether its first half
     * (up to the GC trigger) is done; the allocation an overflow
     * stopped at. */
    int64_t tick, pending_alloc;
    int32_t phase;

    int32_t *out_arrivals, *out_completions;
    double *out_comp, *out_by_type, *out_gc, *out_idle;
    int64_t *out_io_waiting, *out_heap_used, *out_queue;
    /* Response samples of type k at [k * resp_cap ...], resp_n[k] of
     * them: the tick each completed in, and its response time. */
    int32_t *resp_tick;
    double *resp_rt;
    int64_t resp_n[16], resp_cap;
} sut_t;

enum { SUT_DONE, SUT_GC, SUT_DRAIN, SUT_OVERFLOW, SUT_NOMEM };

int sut_run(sut_t *t);
void sut_free(sut_t *t);
