/* The compiled window kernel: SliceRunner._run_until_impl in C.
 *
 * A port of SliceRunner._run_generic in repro/cpu/stream.py with the
 * whole block pipeline inlined, objprof's site attribution included.
 * Every RNG draw happens in the same order with the same width, and
 * every float is added into the same accumulator in the same order,
 * so a window is bit-identical to the generic path and the reference
 * engine.  Build with -O2 -ffp-contract=off (no FMA contraction),
 * never with -ffast-math (it reassociates floats) or -march=native
 * (the build cache key does not name the CPU).  The types live in
 * native.h.
 */

#include <math.h>
#include <string.h>

/* Kernel counter ordinals (slice_t.counts); native.py maps them to
 * CounterBank slots. */
enum {
    K_IERAT_MISS, K_ITLB_MISS, K_DERAT_MISS, K_DTLB_MISS, K_LD_REF,
    K_LD_MISS, K_ST_REF, K_ST_MISS, K_L1_PREF, K_L2_PREF, K_STREAM_ALLOC,
    K_LARX, K_STCX, K_STCX_FAIL, K_SYNC_CNT, K_BR_CMPL, K_BR_MPRED_CR,
    K_BR_INDIRECT, K_BR_MPRED_TA, K_INST0, K_DATA0 = K_INST0 + 4
};

/* Objprof counter ordinals (one row of slice_t.prof per site);
 * native.py maps them to ObjProfiler slots. */
enum {
    P_LD_MISS, P_ST_MISS, P_DERAT_MISS, P_DTLB_MISS, P_COVERED, P_DATA0,
    P_N = P_DATA0 + 8
};

/* Hit/miss ordinals (slice_t.stats). */
enum {
    S_L1I_H, S_L1I_M, S_L1D_H, S_L1D_M, S_IERAT_H, S_IERAT_M,
    S_DERAT_H, S_DERAT_M, S_TLB_DH, S_TLB_DM, S_TLB_IH, S_TLB_IM
};

/* ---- CPython's _randommodule.c and random.py -------------------- */

static inline uint32_t mt_next(mt_t *r)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = r->mt;
    uint32_t y;
    if (r->index >= 624) {
        int kk;
        for (kk = 0; kk < 624 - 397; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + 397] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < 623; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (397 - 624)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[623] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[623] = mt[396] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static inline double rnd(mt_t *r)
{
    uint32_t a = mt_next(r) >> 5, b = mt_next(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* getrandbits(k) for 0 <= k <= 32 (native.py never asks for more). */
static inline uint32_t bits(mt_t *r, int k)
{
    return k ? mt_next(r) >> (32 - k) : 0;
}

/* _randbelow_with_getrandbits(n), n > 0. */
static inline int64_t below(mt_t *r, int64_t n)
{
    int k = 64 - __builtin_clzll((uint64_t)n);
    int64_t x = bits(r, k);
    while (x >= n)
        x = bits(r, k);
    return x;
}

double mt_random(mt_t *r) { return rnd(r); }
uint32_t mt_getrandbits(mt_t *r, int k) { return bits(r, k); }
int64_t mt_randbelow(mt_t *r, int64_t n) { return below(r, n); }
double mt_expovariate(mt_t *r, double lambd) { return -log(1.0 - rnd(r)) / lambd; }

/* ---- structures ------------------------------------------------- */

/* Probe; an LRU hit rotates the block to MRU.  No insert. */
static inline int lookup(cache_t *c, int64_t key)
{
    int64_t set = key % c->n_sets;
    int64_t *w = c->ways + set * c->assoc;
    int32_t n = c->len[set];
    for (int32_t i = 0; i < n; i++) {
        if (w[i] == key) {
            if (c->lru && i != n - 1) {
                memmove(w + i, w + i + 1, (size_t)(n - 1 - i) * sizeof *w);
                w[n - 1] = key;
            }
            return 1;
        }
    }
    return 0;
}

/* Insert an absent block, evicting the victim of a full set. */
static inline void insert(cache_t *c, int64_t key)
{
    int64_t set = key % c->n_sets;
    int64_t *w = c->ways + set * c->assoc;
    int32_t n = c->len[set];
    if (n >= c->assoc) {
        memmove(w, w + 1, (size_t)(n - 1) * sizeof *w);
        n--;
    }
    w[n] = key;
    c->len[set] = n + 1;
}

static inline int access_(cache_t *c, int64_t key)
{
    if (lookup(c, key))
        return 1;
    insert(c, key);
    return 0;
}

/* Insertion-ordered small sets (the prefetcher's and the store
 * buffer's dicts): find, and remove keeping order. */
static inline int find(const int64_t *a, int32_t n, int64_t key)
{
    for (int32_t i = 0; i < n; i++)
        if (a[i] == key)
            return i;
    return -1;
}

static inline void drop(int64_t *a, int32_t *n, int32_t i)
{
    memmove(a + i, a + i + 1, (size_t)(*n - 1 - i) * sizeof *a);
    (*n)--;
}

static inline void drop_run(core_t *c, int32_t i)
{
    int32_t n = c->n_runs;
    drop(c->run_len, &n, i);
    drop(c->run_key, &c->n_runs, i);
}

/* StreamPrefetcher.on_miss; returns 1 when a stream was allocated. */
static int on_miss(core_t *c, int64_t line)
{
    int64_t run = 1;
    int i = find(c->run_key, c->n_runs, line - 1);
    if (i >= 0) {
        run += c->run_len[i];
        drop_run(c, i);
    }
    if (run > c->allocate_after) {
        if (find(c->streams, c->n_streams, line + 1) < 0) {
            while (c->n_streams >= c->max_streams)
                drop(c->streams, &c->n_streams, 0);
            c->streams[c->n_streams++] = line + 1;
            return 1;
        }
        return 0;
    }
    i = find(c->run_key, c->n_runs, line);
    if (i >= 0) {
        c->run_len[i] = run;
    } else {
        c->run_key[c->n_runs] = line;
        c->run_len[c->n_runs++] = run;
    }
    while (c->n_runs > c->max_runs)
        drop_run(c, 0);
    return 0;
}

/* Region.pick_source / pick_inst_source. */
static inline int pick(mt_t *r, const region_t *reg)
{
    double x = rnd(r), acc = 0.0;
    for (int32_t i = 0; i < reg->n_src; i++) {
        acc += reg->p[i];
        if (x < acc)
            return reg->src[i];
    }
    return reg->src[reg->n_src - 1];
}

/* bisect.bisect_right */
static inline int32_t bisect_right(const double *a, int32_t n, double x)
{
    int32_t lo = 0, hi = n;
    while (lo < hi) {
        int32_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* The weighted draw over a cumulative list (_memory_op, _pick_unit). */
static inline int32_t draw(mt_t *r, const double *cum, int32_t n)
{
    double x = rnd(r) * cum[n - 1];
    int32_t lo = 0, hi = n - 1;
    while (lo < hi) {
        int32_t mid = (lo + hi) / 2;
        if (cum[mid] <= x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* A conditional branch through the 2-bit direction table; returns 1
 * on a mispredict. */
static inline int direction(core_t *c, int64_t sid, int taken)
{
    int64_t idx = sid % c->dir_entries;
    int state = c->dir[idx];
    if (taken)
        c->dir[idx] = (int8_t)(state < 3 ? state + 1 : 3);
    else
        c->dir[idx] = (int8_t)(state > 0 ? state - 1 : 0);
    return (state >= 2) != taken;
}

/* ObjProfiler.charge: count one event against the site that owns
 * the extent of data region ri holding offset off (bisect_right over
 * the extents' ends). */
static inline void charge(const slice_t *s, int32_t ri, int64_t off, int slot)
{
    const int64_t *b = s->ext_bound + s->ext_off[ri];
    int32_t lo = 0, hi = s->ext_off[ri + 1] - s->ext_off[ri];
    while (lo < hi) {
        int32_t mid = (lo + hi) / 2;
        if (off < b[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    s->prof[(int64_t)s->ext_site[s->ext_off[ri] + ri + lo] * P_N + slot]++;
}

/* ---- the kernel ------------------------------------------------- */

void run_slice(core_t *c, slice_t *s, double cycle_limit)
{
    mt_t *rng = &s->rng, *brng = &c->backing;
    int64_t *cnt = s->counts, *st = s->stats;
    const int64_t ib = s->instr_bytes;
    const region_t *code = s->code;
    const int64_t code_page = code->page, code_flag = code_page > 4096;
    double cycles = s->cycles, extra = s->extra, srq = s->srq;
    int64_t completed = s->completed, pos = s->pos, fetched = s->fetched;
    int32_t ui = s->unit;
    const unit_t *unit = &s->units[ui];

    while (cycles < cycle_limit) {
        /* ---- block length: 1 + min(int(expovariate), 64) ---- */
        int64_t k = 1;
        if (s->mean_extra > 0.0) {
            double x = -log(1.0 - rnd(rng)) / s->inv_mean_extra;
            k = 1 + (x < 64.0 ? (int64_t)x : 64);
        }

        /* ---- instruction fetch: the I-lines the block spans ---- */
        int64_t end = pos + k * ib;
        int64_t line = pos / c->iline, last = (end - 1) / c->iline;
        if (line == fetched)
            line++;
        for (; line <= last; line++) {
            int64_t addr = line * c->iline;
            int64_t g = addr / c->ierat_granule;
            if (lookup(&c->ierat, g)) {
                st[S_IERAT_H]++;
            } else {
                st[S_IERAT_M]++;
                insert(&c->ierat, g);
                cnt[K_IERAT_MISS]++;
                int hit = access_(&c->tlb, addr / code_page * 2 + code_flag);
                if (hit) {
                    st[S_TLB_IH]++;
                } else {
                    st[S_TLB_IM]++;
                    cnt[K_ITLB_MISS]++;
                }
                cycles += s->ierat_lat;
                if (!hit)
                    cycles += s->tlb_lat;
            }
            if (lookup(&c->l1i, line)) {
                st[S_L1I_H]++;
                cnt[K_INST0]++;
            } else {
                st[S_L1I_M]++;
                int src = pick(brng, code);
                cnt[K_INST0 + src]++;
                insert(&c->l1i, line);
                cycles += s->inst_pen[src];
            }
            fetched = line;
        }
        pos = end;

        completed += k;
        cycles += (double)k * s->base_cpi;

        /* ---- memory operations ---- */
        double e = (double)k * s->mem_per_instr;
        int64_t n = (int64_t)e;
        if (rnd(rng) < e - (double)n)
            n++;
        for (; n > 0; n--) {
            int is_load = rnd(rng) < s->load_fraction;
            int32_t ri = is_load ? s->load_reg[draw(rng, s->load_cum, s->n_load)]
                                 : s->store_reg[draw(rng, s->store_cum, s->n_store)];
            const region_t *reg = s->regs[ri];
            double seq = is_load ? s->seq_load_fraction : s->seq_store_fraction;
            int64_t addr;

            if (rnd(rng) < seq * reg->scan_affinity) {
                /* scan: advance the region's sequential pointer */
                int64_t ptr = s->seq_ptr[ri];
                if (ptr < 0 || rnd(rng) < s->inv_scan_chunk)
                    ptr = reg->base + below(rng, reg->n_pages) * reg->page;
                addr = ptr;
                ptr += is_load ? s->seq_load_step : s->seq_store_step;
                if (ptr >= reg->end)
                    ptr = reg->base;
                s->seq_ptr[ri] = ptr;
            } else {
                /* dwell in the current neighborhood, or draw afresh */
                int64_t span = reg->dwell_span;
                if (s->dwell_override && span > 512 && s->dwell_override < span)
                    span = s->dwell_override;
                addr = -1;
                if (rnd(rng) < s->dwell_p) {
                    int64_t gran = s->granule[ri];
                    if (gran >= 0) {
                        int64_t m = reg->end - gran;
                        if (span < m)
                            m = span;
                        addr = gran + below(rng, m);
                    }
                }
                if (addr < 0) {
                    addr = reg->base + below(rng, reg->size);
                    int64_t gran = (addr / span) * span;
                    s->granule[ri] = gran > reg->base ? gran : reg->base;
                }
            }

            /* D-side translation: DERAT, then the unified TLB */
            int64_t g = addr / c->derat_granule;
            if (lookup(&c->derat, g)) {
                st[S_DERAT_H]++;
            } else {
                st[S_DERAT_M]++;
                insert(&c->derat, g);
                cnt[K_DERAT_MISS]++;
                if (s->prof)
                    charge(s, ri, addr - reg->base, P_DERAT_MISS);
                int hit = access_(&c->tlb, addr / reg->page * 2 + (reg->page > 4096));
                if (hit) {
                    st[S_TLB_DH]++;
                } else {
                    st[S_TLB_DM]++;
                    cnt[K_DTLB_MISS]++;
                    if (s->prof)
                        charge(s, ri, addr - reg->base, P_DTLB_MISS);
                }
                cycles += s->derat_lat;
                extra += s->derat_redisp;
                if (!hit)
                    cycles += s->tlb_lat;
            }

            int64_t db = addr / c->dline;
            if (is_load) {
                cnt[K_LD_REF]++;
                int i = find(c->streams, c->n_streams, db);
                if (i >= 0) {
                    /* prefetch-covered: the stream advances */
                    drop(c->streams, &c->n_streams, i);
                    if (find(c->streams, c->n_streams, db + 1) < 0)
                        c->streams[c->n_streams++] = db + 1;
                    access_(&c->l1d, db);
                    cnt[K_L1_PREF]++;
                    cnt[K_L2_PREF]++;
                    if (s->prof)
                        charge(s, ri, addr - reg->base, P_COVERED);
                    cycles += s->covered_lat;
                } else if (lookup(&c->l1d, db)) {
                    st[S_L1D_H]++;
                } else {
                    st[S_L1D_M]++;
                    cnt[K_LD_MISS]++;
                    int alloc = on_miss(c, db);
                    if (alloc) {
                        cnt[K_STREAM_ALLOC]++;
                        cnt[K_L2_PREF] += c->depth;
                    }
                    int src = pick(brng, reg);
                    cnt[K_DATA0 + src]++;
                    if (s->prof) {
                        charge(s, ri, addr - reg->base, P_LD_MISS);
                        charge(s, ri, addr - reg->base, P_DATA0 + src);
                    }
                    insert(&c->l1d, db);
                    cycles += s->data_pen[src];
                    if (src == s->l2_src)
                        extra += s->l2_redisp;
                    if (alloc)
                        cycles += s->alloc_lat;
                }
            } else {
                /* write-through, non-allocating, 8-entry store gather */
                cnt[K_ST_REF]++;
                int i = find(c->gather, c->n_gather, db);
                if (i >= 0) {
                    drop(c->gather, &c->n_gather, i);
                    c->gather[c->n_gather++] = db;
                } else {
                    c->gather[c->n_gather++] = db;
                    if (c->n_gather > 8)
                        drop(c->gather, &c->n_gather, 0);
                    if (lookup(&c->l1d, db)) {
                        st[S_L1D_H]++;
                    } else {
                        st[S_L1D_M]++;
                        cnt[K_ST_MISS]++;
                        if (s->prof)
                            charge(s, ri, addr - reg->base, P_ST_MISS);
                        cycles += s->store_miss_lat;
                    }
                }
            }
        }

        /* ---- LARX/STCX pairs ---- */
        e = (double)k * s->larx_per_instr;
        n = (int64_t)e;
        if (rnd(rng) < e - (double)n)
            n++;
        cnt[K_LARX] += n;
        cnt[K_STCX] += n;
        for (; n > 0; n--) {
            if (rnd(rng) < s->stcx_fail_p) {
                cnt[K_STCX_FAIL]++;
                cycles += s->stcx_lat;
            }
        }

        /* ---- SYNCs ---- */
        e = (double)k * s->sync_per_instr;
        n = (int64_t)e;
        if (rnd(rng) < e - (double)n)
            n++;
        cnt[K_SYNC_CNT] += n;
        for (; n > 0; n--) {
            cycles += s->sync_lat;
            srq += s->sync_srq_lat;
        }

        /* ---- end-of-block branch ---- */
        cnt[K_BR_CMPL]++;
        int sw;
        if (s->hard_frac != 0.0 && rnd(rng) < s->hard_frac) {
            /* data-dependent: effectively unpredictable */
            int64_t sid = s->cond_sid[unit->cond_off] ^ 0x5A5A5A5A;
            int taken = rnd(rng) < 0.5;
            if (direction(c, sid, taken)) {
                cnt[K_BR_MPRED_CR]++;
                cycles += s->br_lat;
                extra += s->flush_w;
            }
            if (taken) {
                pos += ib * (2 + below(rng, 19));
                fetched = -1;
            }
            sw = rnd(rng) < s->call_frac || pos >= unit->end;
        } else if (unit->n_ind && rnd(rng) < s->ind_frac) {
            const site_t *site = &s->sites[unit->ind_off + below(rng, unit->n_ind)];
            int64_t target;
            if (site->n_t == 1) {
                target = s->targets[site->t_off];
            } else {
                int32_t i = bisect_right(s->tcum + site->c_off, site->n_c, rnd(rng));
                target = s->targets[site->t_off + (i < site->n_t - 1 ? i : site->n_t - 1)];
            }
            cnt[K_BR_INDIRECT]++;
            int64_t idx = site->sid % c->tgt_entries;
            if (c->tgt[idx] != target) {
                cnt[K_BR_MPRED_TA]++;
                cycles += s->ta_lat;
                extra += s->flush_w;
            }
            c->tgt[idx] = target;
            sw = rnd(rng) < 0.6;
        } else {
            int64_t r = unit->cond_off + below(rng, unit->n_cond);
            int taken = rnd(rng) < s->cond_bias[r];
            if (direction(c, s->cond_sid[r], taken)) {
                cnt[K_BR_MPRED_CR]++;
                cycles += s->br_lat;
                extra += s->flush_w;
            }
            if (taken) {
                if (rnd(rng) < 0.85) {
                    int64_t npos = pos - k * ib * (1 + below(rng, 3));
                    pos = npos < unit->base ? unit->base : npos;
                } else {
                    pos += ib * (4 + below(rng, 37));
                }
                fetched = -1;
            }
            sw = rnd(rng) < s->call_frac || pos >= unit->end;
        }
        if (sw) {
            ui = s->active[draw(rng, s->active_cum, s->n_active)];
            unit = &s->units[ui];
            pos = unit->base;
            fetched = -1;
        }
    }

    s->cycles = cycles;
    s->extra = extra;
    s->srq = srq;
    s->completed = completed;
    s->pos = pos;
    s->fetched = fetched;
    s->unit = ui;
}
