/* The compiled dense-gate kernel of qsim (see the Conventions in
 * svcore.py). `qsim_apply_matrix` multiplies a 2^w x 2^w complex matrix
 * into the target bits of 2^m interleaved complex128 amplitudes, in place,
 * over the indices whose control bits are all 1.
 *
 * One 64-byte vector holds the 4 amplitudes that index bits 0 and 1 tell
 * apart, and every load and store moves one whole vector. A row vector is
 * the vector at a base index plus the offset of one setting of the
 * targets above bit 1. The bases are the vector numbers with a zero bit
 * inserted at each sorted target and control position above bit 1, OR
 * those controls' mask, and they step one vector at a time below the
 * lowest of those positions.
 *
 * Each matrix entry m adds Re m * x + Im m * (i x): the arithmetic of the
 * numpy fallback, [Re M | Im M] @ [x ; i x]. With no target or control at
 * bit 0 or 1, the 4 lanes of a vector are 4 groups, each entry is one
 * scalar for all lanes, and a group's 2^w rows are 2^w row vectors
 * (`mix`). Otherwise the lanes of one row vector hold several rows (a
 * target at bit 0 or 1) or amplitudes whose control bit reads 0
 * (`mix_lanes`). For each source row r, one permutation in registers
 * gives each lane row r of its own group, and a coefficient vector per
 * output row vector holds, in lane l, the entry between the row that lane
 * l stands for and r, or the identity's entry where lane l fails a
 * control. Both sum the terms of each output in the order of r, so a gate
 * rounds alike wherever its bits sit. The bodies are specialised for 2 to
 * 32 rows (widths 1 to 5) and 1, 2 or 4 rows per row vector.
 *
 * A step that touches at least 2^PARALLEL_BITS amplitudes is split into
 * chunks of consecutive bases, 2^CHUNK_BITS amplitudes each, when its
 * share of cores, `cores`, is more than one. The caller and up to that
 * many less one helper threads claim chunks from an atomic counter and run
 * each through the same body, so the result is the same bytes for any
 * count. One split step is open in a process at a time: a call that finds
 * one open runs its step serially, so threads that call at once add one
 * thread each, not a share each. Helpers block on a condition variable
 * between steps and never spin, and may run on any CPU of the process but
 * the caller's. The caller waits only for helpers that have joined its
 * step: a helper that wakes late finds the chunks taken, and one that
 * never starts leaves them all to the caller.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_WIDTH 5
#define MAX_ROWS (1 << MAX_WIDTH)
/* log2 of the amplitudes a step must touch before it is split, and of
 * those in one chunk of a split step. On 2 threads (2-vCPU Xeon, median of
 * 200, width 1 and 3) a step over 2^13 amplitudes took 1.05-1.45x its
 * one-thread time, 2^14 0.78-1.1x, 2^15 0.77-1.03x and 2^16 0.7-0.86x */
#define PARALLEL_BITS 15
#define CHUNK_BITS 12
/* the most threads, caller included, that one step takes */
#define MAX_THREADS 64

typedef double v8d __attribute__((vector_size(64)));
typedef int64_t v8i __attribute__((vector_size(64)));

static inline v8d load4(const double *p)
{
    v8d v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store4(double *p, v8d v)
{
    memcpy(p, &v, sizeof v);
}

struct layout {
    int64_t off[MAX_ROWS]; /* amplitude offset of each row vector */
    int sorted[64];        /* target and control bits above bit 1, ascending */
    int k;
    uint64_t cmask;        /* control bits above bit 1 */
    uint64_t amps;         /* 2^(m - k): the amplitudes the bases step over */
    const double *mat;     /* row-major interleaved, for `mix` */
    /* for `mix_lanes`: the rows that one row vector holds; for each source
     * row, the row vector and the lane-target bits that hold it; for each
     * setting of those bits, the permutation that gives every lane that
     * setting, then the same with re/im swapped; and the coefficients, A
     * and B, per output row vector and source row */
    int held;
    int vector_of[MAX_ROWS], lanes_of[MAX_ROWS];
    v8i perm[8];
    v8d *coef;
};

/* x <- M x for `rows` row vectors, M's entries the same in every lane.
 * Up to 16 rows accumulate at once, each over the columns in order, so the
 * accumulators stay in registers while each column is read once per 16 */
static inline __attribute__((always_inline)) void mix(v8d *x, const double *mat, int rows)
{
    const v8i swap = {1, 0, 3, 2, 5, 4, 7, 6};
    const v8d sign = {-1, 1, -1, 1, -1, 1, -1, 1};
    const int block = rows < 16 ? rows : 16;
    v8d ix[MAX_ROWS], y[MAX_ROWS];
    for (int c = 0; c < rows; c++)
        ix[c] = __builtin_shuffle(x[c], swap) * sign;
    for (int r0 = 0; r0 < rows; r0 += block) {
        v8d acc[16];
        for (int r = 0; r < block; r++) {
            const double *e = mat + 2 * (r0 + r) * rows;
            acc[r] = e[0] * x[0];
            acc[r] += e[1] * ix[0];
        }
        for (int c = 1; c < rows; c++)
            for (int r = 0; r < block; r++) {
                const double *e = mat + 2 * ((r0 + r) * rows + c);
                acc[r] += e[0] * x[c];
                acc[r] += e[1] * ix[c];
            }
        for (int r = 0; r < block; r++)
            y[r0 + r] = acc[r];
    }
    for (int r = 0; r < rows; r++)
        x[r] = y[r];
}

/* x <- the lane-wise product for the row vectors of `rows` rows. Each
 * output sums one term per source row r, ascending as in `mix`, so both
 * round alike: A * z + B * (z with re/im swapped), B's signs making the
 * second i z, where z is the row vector that holds row r read with each
 * lane taking row r of its own group */
static inline __attribute__((always_inline)) void mix_lanes(
    v8d *restrict x, const v8d *restrict coef, const v8i *perm, const int *vector_of,
    const int *lanes_of, int held, int rows)
{
    const int vectors = rows / held, block = vectors < 16 ? vectors : 16;
    v8d z[MAX_ROWS], sz[MAX_ROWS], y[MAX_ROWS];
    for (int r = 0; r < rows; r++) {
        z[r] = __builtin_shuffle(x[vector_of[r]], perm[2 * lanes_of[r]]);
        sz[r] = __builtin_shuffle(x[vector_of[r]], perm[2 * lanes_of[r] + 1]);
    }
    for (int r0 = 0; r0 < vectors; r0 += block) {
        v8d acc[16];
        for (int r = 0; r < block; r++) {
            const v8d *k = coef + 2 * (r0 + r) * rows;
            acc[r] = k[0] * z[0];
            acc[r] += k[1] * sz[0];
        }
        for (int u = 1; u < rows; u++)
            for (int r = 0; r < block; r++) {
                const v8d *k = coef + 2 * ((r0 + r) * rows + u);
                acc[r] += k[0] * z[u];
                acc[r] += k[1] * sz[u];
            }
        for (int r = 0; r < block; r++)
            y[r0 + r] = acc[r];
    }
    for (int r = 0; r < vectors; r++)
        x[r] = y[r];
}

/* g with a zero bit inserted at each of the k ascending positions */
static inline uint64_t spread(uint64_t g, const int *sorted, int k)
{
    for (int i = 0; i < k; i++) {
        uint64_t low = g & ((UINT64_C(1) << sorted[i]) - 1);
        g = ((g ^ low) << 1) | low;
    }
    return g;
}

/* bases h0 to h1 of the array through `mix` (held 0) or `mix_lanes`,
 * whose row vectors each hold `held` rows; base h starts at the vector
 * numbered h * step with the zero bits inserted, and spans `step`
 * consecutive amplitudes, which no inserted bit splits */
static inline __attribute__((always_inline)) void run(double *a, const struct layout *L,
                                                      int rows, int held, uint64_t h0,
                                                      uint64_t h1, uint64_t step)
{
    const int vectors = held ? rows / held : rows, k = L->k;
    const uint64_t cmask = L->cmask;
    const double *mat = L->mat;
    /* the coefficients of up to 8 rows as a local copy, which the stores
     * to the amplitudes cannot alias: read through L, they were reloaded
     * after every store, and lane steps at one thread took 1.1-1.4x as
     * long */
    v8d kept[2 * 8 * 8];
    const v8d *coef = L->coef;
    if (rows <= 8 && held) {
        memcpy(kept, coef, sizeof(v8d) * 2 * vectors * rows);
        coef = kept;
    }
    int sorted[64], vector_of[MAX_ROWS], lanes_of[MAX_ROWS];
    int64_t off[MAX_ROWS];
    v8i perm[8];
    memcpy(sorted, L->sorted, sizeof sorted);
    memcpy(off, L->off, sizeof off);
    memcpy(vector_of, L->vector_of, sizeof vector_of);
    memcpy(lanes_of, L->lanes_of, sizeof lanes_of);
    memcpy(perm, L->perm, sizeof perm);
    v8d x[MAX_ROWS];
    /* every base holds a whole vector; without this, steps whose bases
     * hold one vector took up to 1.3x as long */
    if (step < 4)
        __builtin_unreachable();
    for (uint64_t h = h0; h < h1; h++) {
        double *base = a + 2 * (spread(h * step, sorted, k) | cmask);
        for (uint64_t j = 0; j < step; j += 4) {
            double *at = base + 2 * j;
            for (int c = 0; c < vectors; c++)
                x[c] = load4(at + 2 * off[c]);
            if (held)
                mix_lanes(x, coef, perm, vector_of, lanes_of, held, rows);
            else
                mix(x, mat, rows);
            for (int c = 0; c < vectors; c++)
                store4(at + 2 * off[c], x[c]);
        }
    }
}

#define CASE(rows)                            \
    case rows:                                \
        if (!held)                            \
            run(a, L, rows, 0, h0, h1, step); \
        else if (held == 1)                   \
            run(a, L, rows, 1, h0, h1, step); \
        else if (held == 2)                   \
            run(a, L, rows, 2, h0, h1, step); \
        else                                  \
            run(a, L, rows, 4, h0, h1, step); \
        break;

/* `run` specialised for 2^w rows and `held` rows per row vector (0 for
 * `mix`): the one body of a step, whole or in chunks. It is inlined into
 * both of its callers: called as a function, lane steps at one thread took
 * 1.02-1.04x as long as inside the entry point */
static inline __attribute__((always_inline)) void run_bases(double *a, const struct layout *L,
                                                            int w, int held, uint64_t h0,
                                                            uint64_t h1, uint64_t step)
{
    switch (1 << w) {
        CASE(2)
        CASE(4)
        CASE(8)
        CASE(16)
        CASE(32)
    }
}

/* One step split into chunks of `per_chunk` consecutive bases, which the
 * caller and the helpers that join claim through `next` and run alike */
struct job {
    int w, held;
    double *amps;
    const struct layout *L;
    uint64_t step, per_chunk, chunks;
    uint64_t next;  /* the next chunk to claim, atomically */
    int want, busy; /* helpers that may still join, and those that have; under the lock */
};

/* The helper threads of this process, started on demand, and the one
 * split step they serve. A helper blocks on `work` while that step wants
 * none; the caller blocks on `done` only for helpers that have joined it.
 * A call that finds the step taken runs its own serially */
static struct {
    pthread_mutex_t lock;
    pthread_cond_t work, done;
    struct job *job; /* the open split step, or NULL */
    int helpers;     /* started */
    pthread_t ids[MAX_THREADS];
    int avoided;     /* the CPU the helpers may not run on, or -1 */
} pool = {.lock = PTHREAD_MUTEX_INITIALIZER, .work = PTHREAD_COND_INITIALIZER,
          .done = PTHREAD_COND_INITIALIZER, .avoided = -1};

static void run_chunks(struct job *J)
{
    uint64_t c;
    while ((c = __atomic_fetch_add(&J->next, 1, __ATOMIC_RELAXED)) < J->chunks)
        run_bases(J->amps, J->L, J->w, J->held, c * J->per_chunk, (c + 1) * J->per_chunk,
                  J->step);
}

static void *helper(void *unused)
{
    (void)unused;
    pthread_mutex_lock(&pool.lock);
    for (;;) {
        struct job *J = pool.job;
        if (!J || !J->want || __atomic_load_n(&J->next, __ATOMIC_RELAXED) >= J->chunks) {
            pthread_cond_wait(&pool.work, &pool.lock);
            continue;
        }
        J->want--;
        J->busy++;
        pthread_mutex_unlock(&pool.lock);
        run_chunks(J);
        pthread_mutex_lock(&pool.lock);
        if (!--J->busy)
            pthread_cond_signal(&pool.done);
    }
    return NULL;
}

/* One more helper; 0, or -1 if it cannot be started */
static int start_helper(void)
{
    pthread_t t;
    if (pthread_create(&t, NULL, helper, NULL))
        return -1;
    pthread_detach(t);
    pool.ids[pool.helpers++] = t;
    pool.avoided = -1;
    return 0;
}

/* Keep the helpers off `cpu`, the caller's. In a VM an idle vCPU can look
 * busy to the scheduler, which then wakes a helper on the caller's CPU,
 * where the two take turns: a 2-thread step then took as long as a
 * 1-thread one (2-vCPU KVM guest), against 0.55x with the helper kept off.
 * Called with no step open, so no helper is moved mid-chunk */
static void avoid(int cpu)
{
    cpu_set_t set;
    if (cpu == pool.avoided || cpu < 0 || sched_getaffinity(0, sizeof set, &set) ||
        !CPU_ISSET(cpu, &set) || CPU_COUNT(&set) < 2)
        return;
    CPU_CLR(cpu, &set);
    for (int i = 0; i < pool.helpers; i++)
        pthread_setaffinity_np(pool.ids[i], sizeof set, &set);
    pool.avoided = cpu;
}

/* A forked child has only the thread that forked, and a lock that a
 * helper may have held */
static void forget_helpers(void)
{
    pthread_mutex_init(&pool.lock, NULL);
    pthread_cond_init(&pool.work, NULL);
    pthread_cond_init(&pool.done, NULL);
    pool.job = NULL;
    pool.helpers = 0;
    pool.avoided = -1;
}

__attribute__((constructor)) static void on_load(void)
{
    pthread_atfork(NULL, NULL, forget_helpers);
}

/* J with up to `threads` - 1 helpers joining the caller; 0, or -1,
 * running nothing, if another call's split step is open. If no helper can
 * be started, or none wakes in time, the caller runs every chunk */
static int run_parallel(struct job *J, int threads)
{
    J->next = 0;
    J->want = threads - 1;
    J->busy = 0;
    pthread_mutex_lock(&pool.lock);
    if (pool.job) {
        pthread_mutex_unlock(&pool.lock);
        return -1;
    }
    while (pool.helpers < threads - 1)
        if (start_helper())
            break;
    avoid(sched_getcpu());
    pool.job = J;
    for (int i = 1; i < threads; i++)
        pthread_cond_signal(&pool.work);
    pthread_mutex_unlock(&pool.lock);
    run_chunks(J);
    pthread_mutex_lock(&pool.lock);
    J->want = 0;
    while (J->busy)
        pthread_cond_wait(&pool.done, &pool.lock);
    pool.job = NULL;
    pthread_mutex_unlock(&pool.lock);
    return 0;
}

/* the matrix row that row vector i stands for in lane l: bit q of i is
 * target high[q], and index bit pos[j] < 2 of lane l is target j */
static int lane_row(int i, int l, const int *high, int nhigh, const int *pos, int w)
{
    int r = 0;
    for (int q = 0; q < nhigh; q++)
        r |= ((i >> q) & 1) << high[q];
    for (int j = 0; j < w; j++)
        if (pos[j] < 2)
            r |= ((l >> pos[j]) & 1) << j;
    return r;
}

/* The tables and coefficients of `mix_lanes` for the lane bits `tl` that
 * are targets and `cl` that are controls; 0, or -1 if the coefficients
 * cannot be allocated */
static int lane_coefficients(struct layout *L, const double *mat, int w, const int *pos,
                             const int *high, int nhigh, int tl, int cl)
{
    const int rows = 1 << w, vectors = 1 << nhigh;
    L->held = rows / vectors;
    for (int r = 0; r < rows; r++) {
        L->vector_of[r] = L->lanes_of[r] = 0;
        for (int q = 0; q < nhigh; q++)
            L->vector_of[r] |= ((r >> high[q]) & 1) << q;
        for (int j = 0; j < w; j++)
            if (pos[j] < 2)
                L->lanes_of[r] |= ((r >> j) & 1) << pos[j];
    }
    for (int p = 0; p < 4; p++)
        for (int e = 0; e < 8; e++) {
            int from = 2 * (((e >> 1) & ~tl) | p);
            L->perm[2 * p][e] = from + (e & 1);
            L->perm[2 * p + 1][e] = from + 1 - (e & 1);
        }
    L->coef = aligned_alloc(sizeof(v8d), sizeof(v8d) * 2 * vectors * rows);
    if (!L->coef)
        return -1;
    v8d *k = L->coef;
    for (int i = 0; i < vectors; i++)
        for (int r = 0; r < rows; r++, k += 2)
            for (int l = 0; l < 4; l++) {
                int out = lane_row(i, l, high, nhigh, pos, w);
                double re = r == out, im = 0;
                if ((l & cl) == cl) {
                    re = mat[2 * (out * rows + r)];
                    im = mat[2 * (out * rows + r) + 1];
                }
                k[0][2 * l] = k[0][2 * l + 1] = re;
                k[1][2 * l] = -im;
                k[1][2 * l + 1] = im;
            }
    return 0;
}

/* The threads that one step over 2^bits amplitudes takes from a share of
 * `share` cores: 1 below 2^PARALLEL_BITS, else at most one per chunk of
 * 2^CHUNK_BITS amplitudes and at most MAX_THREADS */
int qsim_threads(int bits, int share)
{
    if (bits < PARALLEL_BITS || share < 2)
        return 1;
    int64_t chunks = INT64_C(1) << (bits - CHUNK_BITS);
    if (share > MAX_THREADS)
        share = MAX_THREADS;
    return share < chunks ? share : (int)chunks;
}

/* amps: 2^m complex128; mat: 2^w x 2^w complex128, row-major; byte j of
 * `targets` is the index bit of target j (matrix bit j); `cmask` holds the
 * control bits; `cores` is the share of cores a split step may take.
 * Returns 0, or -1, touching nothing, for a
 * width the kernel does not take, fewer than 4 amplitudes, bits that
 * repeat or lie outside the m index bits, or no memory for the
 * coefficients. */
int qsim_apply_matrix(double *amps, int m, const double *mat, int w,
                      uint64_t targets, uint64_t cmask, int cores)
{
    struct layout L = {0};
    int pos[MAX_WIDTH], high[MAX_WIDTH], nhigh = 0;
    uint64_t tmask = 0;
    if (w < 1 || w > MAX_WIDTH || m < 2 || m > 62)
        return -1;
    for (int j = 0; j < w; j++) {
        pos[j] = (targets >> (8 * j)) & 0xff;
        if (pos[j] >= m || (tmask >> pos[j]) & 1)
            return -1;
        tmask |= UINT64_C(1) << pos[j];
        if (pos[j] >= 2)
            high[nhigh++] = j;
    }
    if ((tmask & cmask) || (cmask >> m))
        return -1;
    L.k = 0;
    for (int b = 2; b < m; b++)
        if (((tmask | cmask) >> b) & 1)
            L.sorted[L.k++] = b;
    L.cmask = cmask & ~UINT64_C(3);
    L.amps = UINT64_C(1) << (m - L.k);
    for (int i = 0; i < (1 << nhigh); i++) {
        L.off[i] = 0;
        for (int q = 0; q < nhigh; q++)
            L.off[i] |= (int64_t)((i >> q) & 1) << pos[high[q]];
    }
    L.mat = mat;
    if ((tmask | cmask) & 3) {
        if (lane_coefficients(&L, mat, w, pos, high, nhigh, tmask & 3, cmask & 3))
            return -1;
    }
    const int held = L.coef ? L.held : 0;
    /* the amplitudes below the lowest inserted bit are consecutive */
    const uint64_t step = L.k ? UINT64_C(1) << L.sorted[0] : L.amps;
    const int bits = m - __builtin_popcountll(cmask);
    const int threads = qsim_threads(bits, cores);
    int serial = threads == 1;
    if (!serial) {
        /* a chunk spans 2^CHUNK_BITS of the amplitudes the step touches,
         * `span` >= 2^(CHUNK_BITS - MAX_WIDTH) consecutive vector numbers:
         * whole bases where a base is shorter, else a part of one, which
         * is a base of its own with a shorter step */
        const uint64_t chunks = UINT64_C(1) << (bits - CHUNK_BITS), span = L.amps / chunks,
                       sub = step < span ? step : span;
        struct job J = {.w = w, .held = held, .amps = amps, .L = &L, .step = sub,
                        .per_chunk = span / sub, .chunks = chunks};
        serial = run_parallel(&J, threads);
    }
    if (serial)
        run_bases(amps, &L, w, held, 0, L.amps / step, step);
    free(L.coef);
    return 0;
}
