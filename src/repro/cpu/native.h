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
 * counter and hit/miss deltas out. */
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
