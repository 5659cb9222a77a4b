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
 * 32 rows (widths 1 to 5), 0 (`mix`), 1, 2 or 4 rows per row vector, and
 * with or without diagonals: 33 bodies, as 4 rows per row vector need 4
 * rows or more, and 1 means a control at bit 0 or 1, which a step with
 * diagonals never has.
 *
 * A step that touches at least 2^PARALLEL_BITS amplitudes is split into
 * chunks of consecutive bases, 2^CHUNK_BITS amplitudes each, when its
 * share of cores, `cores`, is more than one. The caller and up to that
 * many less one helper threads claim chunks from an atomic counter and run
 * each through the same body, so the result is the same bytes for any
 * count. A serial step is a split step of one chunk, run by the caller
 * alone. One split step is open in a process at a time: a call that finds
 * one open runs its step serially, so threads that call at once add one
 * thread each, not a share each. Helpers block on a condition variable
 * between steps and never spin, and may run on any CPU of the process but
 * the caller's. The caller waits only for helpers that have joined its
 * step: a helper that wakes late finds the chunks taken, and one that
 * never starts leaves them all to the caller.
 *
 * A step may also carry a diagonal to apply before the matrix and one to
 * apply after it, so a diagonal costs no sweep of its own: each a table
 * of 2^d complex128 phases over d index bits in ascending order (`mask`),
 * the entry for amplitude i being pext(i, mask). Each loaded row vector is
 * multiplied by the before phases ahead of `mix`/`mix_lanes`, and each
 * stored one by the after phases. Index bits 0 and 1 are the lowest bits
 * of an entry's number, so the 4 lanes' entries lie among 4 consecutive
 * ones: one 64-byte load, and a shuffle that gives each lane its own.
 * Width 0 is a serial sweep with no matrix. Every path multiplies an
 * amplitude by its phase in `times`, so a diagonal folded into a dense
 * step and the same diagonal applied alone give the same bytes.
 */
#define _GNU_SOURCE
#ifdef __BMI2__
#include <immintrin.h>
#endif
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
/* the most index bits that one phase table spans: a DIAGONAL op's 13 */
#define MAX_PHASE_BITS 13

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

/* the bits of x at the set bits of mask, packed into the low bits */
static inline uint64_t pext(uint64_t x, uint64_t mask)
{
#ifdef __BMI2__
    return _pext_u64(x, mask);
#else
    uint64_t r = 0;
    for (uint64_t bit = 1; mask; mask &= mask - 1, bit <<= 1)
        if (x & mask & -mask)
            r |= bit;
    return r;
#endif
}

/* A diagonal applied with a step: a copy of its table, padded so that 4
 * entries load from any entry's number, the mask of its index bits, and
 * the shuffles that give lane l the real and the imaginary part of entry
 * pext(l, mask & 3) of the 4 loaded */
struct phases {
    double *table;
    uint64_t mask;
    v8i re, im;
    uint64_t off[MAX_ROWS]; /* the entry number of each row vector's offset */
};

/* x times the phases whose real parts fill re and whose imaginary parts,
 * signed for i x, fill im: the one complex multiply of every path */
static inline __attribute__((always_inline)) v8d times(v8d x, v8d re, v8d im)
{
    const v8i swap = {1, 0, 3, 2, 5, 4, 7, 6};
    return x * re + __builtin_shuffle(x, swap) * im;
}

/* the phases of the 4 amplitudes from the one numbered `entry` by the
 * mask, spread as `times` takes them */
static inline __attribute__((always_inline)) void lanes(const struct phases *P,
                                                        uint64_t entry, v8d *re, v8d *im)
{
    const v8d sign = {-1, 1, -1, 1, -1, 1, -1, 1};
    v8d e = load4(P->table + 2 * entry);
    *re = __builtin_shuffle(e, P->re);
    *im = __builtin_shuffle(e, P->im) * sign;
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
    /* the diagonals before and after the matrix, each NULL if none */
    const struct phases *before, *after;
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
 * whose row vectors each hold `held` rows, with L's diagonals if
 * `phased`; base h starts at the vector numbered h * step with the zero
 * bits inserted, and spans `step` consecutive amplitudes, which no
 * inserted bit splits */
static inline __attribute__((always_inline)) void run(double *a, const struct layout *L,
                                                      int rows, int held, int phased,
                                                      uint64_t h0, uint64_t h1,
                                                      uint64_t step)
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
    /* the diagonals as local copies too, for the same reason */
    const int hasB = phased && L->before, hasA = phased && L->after;
    struct phases pb = {0}, pa = {0};
    if (hasB)
        pb = *L->before;
    if (hasA)
        pa = *L->after;
    for (uint64_t h = h0; h < h1; h++) {
        const uint64_t first = spread(h * step, sorted, k) | cmask;
        double *base = a + 2 * first;
        for (uint64_t j = 0; j < step; j += 4) {
            double *at = base + 2 * j;
            /* the row vectors' entries differ only by their offsets' */
            const uint64_t eb = hasB ? pext(first + j, pb.mask) : 0,
                           ea = hasA ? pext(first + j, pa.mask) : 0;
            v8d re, im;
            for (int c = 0; c < vectors; c++) {
                x[c] = load4(at + 2 * off[c]);
                if (hasB) {
                    lanes(&pb, eb + pb.off[c], &re, &im);
                    x[c] = times(x[c], re, im);
                }
            }
            if (held)
                mix_lanes(x, coef, perm, vector_of, lanes_of, held, rows);
            else
                mix(x, mat, rows);
            for (int c = 0; c < vectors; c++) {
                if (hasA) {
                    lanes(&pa, ea + pa.off[c], &re, &im);
                    x[c] = times(x[c], re, im);
                }
                store4(at + 2 * off[c], x[c]);
            }
        }
    }
}

/* `run` for each (rows, held) that a step can have (see the top). 4 rows
 * per row vector stay the last branch: ordered as the others, the 8-row
 * step on bits 0, 1 and 2 took 1.04x as long at one thread (n=20, median
 * of 101, 5 processes) */
#define CASE(rows, phased)                                  \
    case rows:                                              \
        if (!held)                                          \
            run(a, L, rows, 0, phased, h0, h1, step);       \
        else if (held == 1) {                               \
            if (!phased)                                    \
                run(a, L, rows, 1, phased, h0, h1, step);   \
        } else if (held == 2)                               \
            run(a, L, rows, 2, phased, h0, h1, step);       \
        else if (rows > 2)                                  \
            run(a, L, rows, 4, phased, h0, h1, step);       \
        break;

#define SWITCH(phased)      \
    switch (1 << w) {       \
        CASE(2, phased)     \
        CASE(4, phased)     \
        CASE(8, phased)     \
        CASE(16, phased)    \
        CASE(32, phased)    \
    }

/* `run` with L's diagonals, specialised as in `run_bases`. `run_chunks`
 * chooses it per chunk; kept out of line, since a branch to it inside
 * `run_bases` made steps without diagonals 1.04-1.06x as long at one
 * thread (lane target sets, n=20, median of 81) */
static __attribute__((noinline)) void run_phased(
    double *a, const struct layout *L, int w, int held, uint64_t h0, uint64_t h1, uint64_t step)
{
    SWITCH(1)
}

/* `run` specialised for 2^w rows and `held` rows per row vector (0 for
 * `mix`): the one body of every chunk. It is inlined into `run_chunks`:
 * called as a function, lane steps at one thread took 1.02-1.04x as long
 * as inlined */
static inline __attribute__((always_inline)) void run_bases(double *a, const struct layout *L,
                                                            int w, int held, uint64_t h0,
                                                            uint64_t h1, uint64_t step)
{
    SWITCH(0)
}

/* The diagonals alone over 2^m amplitudes, in runs of consecutive
 * amplitudes below the lowest of their bits above bit 1, whose lanes'
 * phases stay the same */
static void run_phases(double *a, int m, const struct phases *B, const struct phases *A)
{
    const uint64_t high = ((B ? B->mask : 0) | (A ? A->mask : 0)) & ~UINT64_C(3);
    const int low = high ? __builtin_ctzll(high) : m;
    const uint64_t span = UINT64_C(1) << low;
    v8d bre = {0}, bim = {0}, are = {0}, aim = {0};
    for (uint64_t first = 0; first < UINT64_C(1) << m; first += span) {
        if (B)
            lanes(B, pext(first, B->mask), &bre, &bim);
        if (A)
            lanes(A, pext(first, A->mask), &are, &aim);
        for (double *at = a + 2 * first, *end = at + 2 * span; at < end; at += 8) {
            v8d x = load4(at);
            if (B)
                x = times(x, bre, bim);
            if (A)
                x = times(x, are, aim);
            store4(at, x);
        }
    }
}

/* One step as chunks of `per_chunk` consecutive bases, which the caller
 * and the helpers that join claim through `next` and run alike; a serial
 * step is one chunk of every base */
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

/* The chunks of J that this thread claims: the one copy of the bodies,
 * which the entry point and the helpers call */
static __attribute__((noinline)) void run_chunks(struct job *J)
{
    uint64_t c;
    const int phased = J->L->before || J->L->after;
    while ((c = __atomic_fetch_add(&J->next, 1, __ATOMIC_RELAXED)) < J->chunks)
        if (phased)
            run_phased(J->amps, J->L, J->w, J->held, c * J->per_chunk,
                       (c + 1) * J->per_chunk, J->step);
        else
            run_bases(J->amps, J->L, J->w, J->held, c * J->per_chunk,
                      (c + 1) * J->per_chunk, J->step);
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

/* P for a caller's table of 2^d phases over the d bits of `mask`; 0, or
 * -1 if the copy cannot be allocated */
static int phases_of(struct phases *P, const double *table, uint64_t mask)
{
    const size_t entries = (size_t)1 << __builtin_popcountll(mask);
    /* 3 entries more, so that 4 load from the last, in whole vectors */
    const size_t bytes = (16 * (entries + 3) + 63) & ~(size_t)63;
    P->table = aligned_alloc(64, bytes);
    if (!P->table)
        return -1;
    memcpy(P->table, table, 16 * entries);
    memset(P->table + 2 * entries, 0, bytes - 16 * entries);
    P->mask = mask;
    for (int l = 0; l < 4; l++) {
        const int64_t e = (int64_t)pext(l, mask & 3);
        P->re[2 * l] = P->re[2 * l + 1] = 2 * e;
        P->im[2 * l] = P->im[2 * l + 1] = 2 * e + 1;
    }
    return 0;
}

/* amps: 2^m complex128; mat: 2^w x 2^w complex128, row-major; byte j of
 * `targets` is the index bit of target j (matrix bit j); `cmask` holds the
 * control bits; `cores` is the share of cores a split step may take.
 * `before` and `after`, each NULL or 2^d complex128 phases over the d
 * index bits set in its mask, ascending, multiply every amplitude before
 * and after the matrix; width 0 has no matrix, and applies them alone.
 * Returns 0, or -1, touching nothing, for a width outside 0 to 5, width 0
 * with no phases, fewer than 4 amplitudes, bits that repeat or lie outside
 * the m index bits, phases with controls or over more than 13 bits, or no
 * memory for the coefficients or the tables. */
int qsim_apply_matrix(double *amps, int m, const double *mat, int w,
                      uint64_t targets, uint64_t cmask, int cores,
                      const double *before, uint64_t before_mask,
                      const double *after, uint64_t after_mask)
{
    struct layout L = {0};
    struct phases pb = {0}, pa = {0};
    int pos[MAX_WIDTH], high[MAX_WIDTH], nhigh = 0;
    uint64_t tmask = 0;
    if (w < 0 || w > MAX_WIDTH || m < 2 || m > 62)
        return -1;
    before_mask = before ? before_mask : 0;
    after_mask = after ? after_mask : 0;
    if (before || after) {
        if (cmask || ((before_mask | after_mask) >> m) ||
            __builtin_popcountll(before_mask) > MAX_PHASE_BITS ||
            __builtin_popcountll(after_mask) > MAX_PHASE_BITS)
            return -1;
    } else if (!w) {
        return -1;
    }
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
    int status = -1;
    if ((before && phases_of(&pb, before, before_mask)) ||
        (after && phases_of(&pa, after, after_mask)))
        goto done;
    L.before = before ? &pb : NULL;
    L.after = after ? &pa : NULL;
    if (!w) {
        run_phases(amps, m, L.before, L.after);
        status = 0;
        goto done;
    }
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
        pb.off[i] = pext(L.off[i], before_mask);
        pa.off[i] = pext(L.off[i], after_mask);
    }
    L.mat = mat;
    if ((tmask | cmask) & 3) {
        if (lane_coefficients(&L, mat, w, pos, high, nhigh, tmask & 3, cmask & 3))
            goto done;
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
    if (serial) {
        struct job J = {.w = w, .held = held, .amps = amps, .L = &L, .step = step,
                        .per_chunk = L.amps / step, .chunks = 1};
        run_chunks(&J);
    }
    status = 0;
done:
    free(L.coef);
    free(pb.table);
    free(pa.table);
    return status;
}
