/* The compiled tick loop: SystemUnderTest.run without faults, in C.
 *
 * A port of the fault-free path of SystemUnderTest.run in
 * repro/workload/sut.py and of the collaborators it calls: the
 * driver's arrivals and Poisson sampler, Database.plan_ios, the draws
 * of Request.__init__, AppServer._fill_pool and serve, DiskModel.tick,
 * the live-set ramp and FlatHeap's allocation accounting, and
 * WebServer.response_overhead_s.  WebServer.route only counts
 * requests per protocol, which no result reads, so it has no port.
 * Every draw comes from the same stream in the same order, and every
 * min/max returns the operand the Python builtin returns (ties
 * included), so a run is bit-identical to the Python loop.  The
 * collector stays in Python: sut_run returns SUT_GC where the loop
 * would call collect() and resumes after it.  This file is appended
 * to native.c (it uses its MT19937) and built with the same flags.
 */

#include <stdlib.h>

static double load_factor(const sut_t *t, double now)
{
    if (t->ramp_up_s > 0 && now < t->ramp_up_s)
        return now / t->ramp_up_s;
    double down_start = t->duration_s - t->ramp_down_s;
    if (t->ramp_down_s > 0 && now > down_start) {
        double f = (t->duration_s - now) / t->ramp_down_s;
        return f > 0.0 ? f : 0.0;
    }
    return 1.0;
}

/* repro.workload.transactions.poisson: Knuth's product up to rate 30,
 * unit-rate exponential gaps in log space above it. */
static int64_t poisson(mt_t *r, double lam)
{
    int64_t k = 0;
    if (lam <= 0.0)
        return 0;
    if (lam <= 30.0) {
        double threshold = pow(2.718281828459045, -lam);
        double p = rnd(r);
        while (p > threshold) {
            p *= rnd(r);
            k++;
        }
        return k;
    }
    double total = -log(1.0 - rnd(r));
    while (total <= lam) {
        k++;
        total -= log(1.0 - rnd(r));
    }
    return k;
}

static inline int64_t in_flight(const sut_t *t)
{
    return (int64_t)t->n_running + t->n_acc + t->n_disk;
}

/* Database.plan_ios, then Request.__init__, then AppServer.admit.
 * Returns 0, or SUT_NOMEM. */
static int admit(sut_t *t, int32_t type, double now)
{
    mt_t *r = &t->requests;
    int64_t n_queries = poisson(&t->db, t->db_queries[type]);
    t->queries += n_queries;
    double miss_p = t->base_miss;
    if (miss_p >= 0.98)
        miss_p = 0.98;
    int32_t misses = 0;
    for (int64_t i = 0; i < n_queries; i++)
        if (rnd(&t->db) < miss_p)
            misses++;
    t->misses += misses;

    int32_t slot = t->free_slot[--t->n_free];
    treq_t *q = &t->req[slot];
    if (misses > q->cap_io) {
        double *io = realloc(q->io, (size_t)misses * sizeof *io);
        if (io == NULL) {
            t->n_free++;
            return SUT_NOMEM;
        }
        q->io = io;
        q->cap_io = misses;
    }
    double total = t->spec_cpu_ms[type] * (0.7 + (1.35 - 0.7) * rnd(r));
    for (int32_t i = 0; i < misses; i++) {
        double p = rnd(r);
        int32_t j = i;
        for (; j > 0 && q->io[j - 1] > p; j--)
            q->io[j] = q->io[j - 1];
        q->io[j] = p;
    }
    for (int32_t i = 0; i < misses; i++)
        q->io[i] *= total;
    q->type = type;
    q->n_io = misses;
    q->next_io = 0;
    q->arrival_s = now;
    q->total = total;
    q->consumed = 0.0;
    t->accept[(t->acc_head + t->n_acc) % t->max_in_flight] = slot;
    t->n_acc++;
    return 0;
}

static void fill_pool(sut_t *t)
{
    int64_t capacity = t->thread_pool - t->n_running - t->n_disk;
    while (capacity > 0 && t->n_acc) {
        t->running[t->n_running++] = t->accept[t->acc_head];
        t->acc_head = (int32_t)((t->acc_head + 1) % t->max_in_flight);
        t->n_acc--;
        capacity--;
    }
}

/* AppServer.serve: processor sharing by repeated equal division.  A
 * request that reaches its next I/O point joins the disk queue at
 * once (the loop submits serve's I/O list before anything reads the
 * queue); finished requests go to done.  Returns the CPU used. */
static double serve(sut_t *t, double capacity_ms, double *comp, double *by_type)
{
    double web = 0.0, jited = 0.0, nonjited = 0.0, db2 = 0.0, kernel = 0.0;
    double used = 0.0, remaining = capacity_ms;
    fill_pool(t);
    while (remaining > 1e-9 && t->n_running) {
        double share = remaining / t->n_running;
        double consumed = 0.0;
        int32_t n_still = 0;
        for (int32_t i = 0; i < t->n_running; i++) {
            int32_t slot = t->running[i];
            treq_t *q = &t->req[slot];
            double before = q->consumed, total = q->total;
            double want = total - before;
            if (want >= share)
                want = share;
            else if (want <= 0.0)
                want = 0.0;
            int hit_io = 0;
            if (q->next_io < q->n_io) {
                double budget = q->io[q->next_io] - before;
                if (budget <= 0.0)
                    budget = 0.0;
                if (budget + 1e-12 < want)
                    want = budget + 1e-12;
                if (want >= budget) {
                    want = budget;
                    hit_io = 1;
                }
            }
            double after = before + want;
            q->consumed = after;
            double delta = after - before;
            consumed += delta;
            const double *p = t->prop[q->type];
            web += delta * p[0];
            jited += delta * p[1];
            nonjited += delta * p[2];
            db2 += delta * p[3];
            kernel += delta * p[4];
            by_type[q->type] += delta;
            if (hit_io) {
                q->next_io++;
                t->disk[(t->disk_head + t->n_disk) % t->max_in_flight] = slot;
                t->n_disk++;
            } else if (after >= total && q->next_io >= q->n_io) {
                t->done[t->n_done++] = slot;
            } else {
                t->scratch[n_still++] = slot;
            }
        }
        int32_t *swap = t->running;
        t->running = t->scratch;
        t->scratch = swap;
        t->n_running = n_still;
        used += consumed;
        remaining -= consumed;
        if (consumed <= 1e-12)
            break;
        fill_pool(t);
    }
    comp[0] = web;
    comp[1] = jited;
    comp[2] = nonjited;
    comp[3] = db2;
    comp[4] = kernel;
    return used;
}

/* Arrivals, admission, live set, GC pause accounting, service and
 * allocation of tick t->tick.  Returns 0 to go on with the tick's
 * second half, or the SUT_* code to return with. */
static int first_half(sut_t *t)
{
    int32_t n = t->n_types;
    int64_t tick = t->tick;
    double now = tick * t->tick_s;

    int32_t *arrivals = t->out_arrivals + tick * n;
    double factor = load_factor(t, now);
    for (int32_t k = 0; k < n; k++)
        arrivals[k] = (int32_t)poisson(&t->arrivals, t->rate[k] * factor * t->tick_s);
    for (int32_t k = 0; k < n; k++) {
        for (int32_t i = 0; i < arrivals[k]; i++) {
            if (in_flight(t) >= t->max_in_flight)
                t->rejected[k]++;
            else if (admit(t, k, now))
                return SUT_NOMEM;
        }
    }

    double ramp = t->live_floor + (1.0 - t->live_floor) * now / t->live_ramp_s;
    if (!(ramp < 1.0))
        ramp = 1.0;
    int64_t desired = (int64_t)(t->live_target * ramp) + in_flight(t) * t->live_per_request;
    int64_t max_live = t->capacity_bytes - t->dark - t->live_headroom;
    if (max_live < desired)
        desired = max_live;
    t->live = desired > 0 ? desired : 0;

    double gc_wall = t->gc_wall_remaining_ms < t->tick_ms ? t->gc_wall_remaining_ms : t->tick_ms;
    t->gc_wall_remaining_ms -= gc_wall;
    double gc_cpu = t->capacity_ms * (gc_wall / t->tick_ms);
    double mutator = t->capacity_ms - gc_cpu;

    double *comp = t->out_comp + tick * 5, *by_type = t->out_by_type + tick * n;
    double used = mutator > 0 ? serve(t, mutator, comp, by_type) : 0.0;
    double idle = t->capacity_ms - used - gc_cpu;
    t->out_gc[tick] = gc_cpu;
    t->out_idle[tick] = idle > 0.0 ? idle : 0.0;

    int64_t alloc = 0;
    for (int32_t k = 0; k < n; k++)
        alloc += (int64_t)(by_type[k] * t->alloc_per_cpu_ms[k]);
    if (alloc) {
        if (t->live + t->dark + alloc > t->capacity_bytes) {
            t->pending_alloc = alloc;
            return SUT_OVERFLOW;
        }
        t->alloc += alloc;
        double free_bytes = (double)(t->capacity_bytes - t->live - t->alloc - t->dark);
        if (free_bytes < t->trigger_free && t->gc_wall_remaining_ms <= 0.0)
            return SUT_GC;
    }
    return 0;
}

/* Disk progress, completions and the rest of the tick record. */
static void second_half(sut_t *t)
{
    int32_t n = t->n_types;
    int64_t tick = t->tick;
    double done_s = tick * t->tick_s + t->tick_s;

    double budget = t->disk_carry + t->disk_tick_ms * t->n_disks;
    double service = t->service_ms;
    while (t->n_disk && budget >= service) {
        budget -= service;
        t->disk_busy += service;
        t->running[t->n_running++] = t->disk[t->disk_head];
        t->disk_head = (int32_t)((t->disk_head + 1) % t->max_in_flight);
        t->n_disk--;
    }
    t->disk_carry = t->n_disk ? (service < budget ? service : budget) : 0.0;
    t->wait_samples += t->n_disk;

    int32_t *completions = t->out_completions + tick * n;
    for (int32_t i = 0; i < t->n_done; i++) {
        int32_t slot = t->done[i];
        treq_t *q = &t->req[slot];
        completions[q->type]++;
        double rt = done_s - q->arrival_s;
        rt += (0.5 + rnd(&t->web)) * t->overhead_ms[q->type] / 1000.0;
        int64_t at = q->type * t->resp_cap + t->resp_n[q->type]++;
        t->resp_tick[at] = (int32_t)tick;
        t->resp_rt[at] = rt;
        t->free_slot[t->n_free++] = slot;
    }
    t->n_done = 0;
    t->out_io_waiting[tick] = t->n_disk;
    t->out_heap_used[tick] = t->live + t->alloc + t->dark;
    t->out_queue[tick] = in_flight(t);
}

int sut_run(sut_t *t)
{
    for (; t->tick < t->n_ticks; t->tick++) {
        if (t->phase == 0) {
            /* Room for every completion this tick could produce. */
            for (int32_t k = 0; k < t->n_types; k++)
                if (t->resp_n[k] + t->max_in_flight > t->resp_cap)
                    return SUT_DRAIN;
            t->phase = 1;
            int status = first_half(t);
            if (status)
                return status;
        }
        second_half(t);
        t->phase = 0;
    }
    return SUT_DONE;
}

void sut_free(sut_t *t)
{
    for (int64_t i = 0; i < t->max_in_flight; i++) {
        free(t->req[i].io);
        t->req[i].io = NULL;
        t->req[i].cap_io = 0;
    }
}
