/* The compiled dense-gate kernel of qsim (see the Conventions in
 * svcore.py), and fusion's block builder (at the end of this comment).
 * `qsim_apply_matrix` multiplies a 2^w x 2^w complex matrix,
 * w from 1 to 3, into the target bits of 2^m interleaved complex128
 * amplitudes, in place, over the indices whose control bits are all 1.
 * svcore's GateOp takes no FUSED op of more than 3 qubits, `fuse` builds
 * no wider block (DEFAULT_FUSION_WIDTH) and no named gate has more than 2
 * targets, so no step is wider; the entry still declines one.
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
 * control.
 *
 * A step of 8 rows with no target or control at bit 0 or 1 whose matrix
 * falls into blocks (`blocks_of`: each row has its nonzero entries among
 * the 2 or 4 columns of one block, as in a generalized permutation, X (x)
 * H (x) X, or X (x) U for a 2-qubit U) runs through `mix_blocks`, which
 * sums 2 or 4 terms per output rather than 8. It loads the row vectors of
 * each block side by side and stores each output at its own row's
 * offset, so no row moves in registers. The entry point finds the blocks
 * from the 64 entries on every call, and `qsim_terms` reports its choice;
 * an entry counts unless it is exactly 0. At n=20 steps in blocks of 2
 * took 0.46-0.65x the dense body's time and in blocks of 4 0.59-0.70x, at
 * one thread and at two.
 *
 * A step of 1 to 3 targets with no control at bit 0 or 1 whose matrix is
 * real up to powers of i (`real_of`: M = D_a R D_b, R real, D_a and D_b
 * diagonal with entries i^a_r and i^b_c for a bit a_r of each row and
 * b_c of each column, as in RX (x) RX (x) RX, H (x) H (x) H or CX (H (x)
 * RX)) and that does not fall into blocks runs through `mix_real`. Each
 * of its entries is real or imaginary, so it adds one product rather than
 * two: one shuffle per source row swaps re/im where b is odd (with the
 * lane moves of `mix_lanes` where a target is at bit 0 or 1), each entry
 * of R adds one FMA, signed for the turns by i, and one shuffle per output
 * swaps re/im where a is odd. The entry point tests the matrix on every
 * call, as it finds the blocks, and `qsim_real` reports its choice. At
 * n=20, one thread (medians over 10 processes), width-3 steps took 0.64x
 * the dense body's time on bits 0, 1 and 2, 0.65-0.70x on other sets with
 * a target at bit 0 or 1, and 0.66-0.73x with none there, where a body
 * with no FMA at all took as long: those steps are bound by moving their
 * 8 row vectors. Width-2 steps took 0.89-0.98x and width-1 0.97-0.99x.
 *
 * All four bodies sum the terms of each output in the order of r and
 * start each sum alike (`mix_blocks` spells out the FMA that GCC makes of
 * the first term in `mix` and `mix_lanes`, and `mix_real` rounds its
 * first product alone, which is what that FMA gives when one of its two
 * products is 0; the tests compare their values), so a gate rounds alike
 * wherever its bits sit and whichever body takes it, up to the signs of
 * zero sums: a block body leaves out only entries of 0, and the real body
 * the parts of 0, whose terms add zeros, and a turn by i only moves and
 * negates. The bodies are specialised for 2 to 8 rows (widths 1 to 3), 0
 * (`mix`), 1, 2 or 4 rows per row vector, and with or without diagonals;
 * the blocks of 2 and of 4 with or without diagonals; and `mix_real` for
 * 2 to 8 rows and 1, 2 or 4 rows per row vector with or without
 * diagonals: 39 bodies, as 4 rows per row vector need 4 rows or more, and
 * a dense body with 1 means a control at bit 0 or 1, which a step with
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
 * multiplied by the before phases ahead of the body, and each stored one
 * by the after phases of the offset it is stored at. Index bits 0 and 1
 * are the lowest bits of an entry's number, so the 4 lanes' entries lie
 * among 4 consecutive ones: one 64-byte load, and a shuffle that gives
 * each lane its own.
 * Width 0 is a serial sweep with no matrix. Every path multiplies an
 * amplitude by its phase in `times`, so a diagonal folded into a dense
 * step and the same diagonal applied alone give the same bytes.
 *
 * `qsim_build_block` builds the array of one block that svcore's `fuse`
 * emits from its op list, in one call: a record per op (its targets and
 * controls among the block's u qubits) and each op's small table, 2^t
 * phases or a 2^t x 2^t matrix, so the caller spells out no controls and
 * reorders no bits. A dense block's matrix is the ops applied in order to
 * the flattened identity, a state of 2u index bits, each op one step of
 * `qsim_apply_matrix` (a diagonal op's phases spelled out over its bits
 * as svcore's `_phases` gives them), so it has the bytes that one
 * `apply_gate` per op gives, by construction. A stretch's phases widen as
 * svcore's `_product` widens them: each op multiplies the 2^|span|
 * entries of the span so far, after widening it where the op adds
 * qubits, and each product rounds as numpy's complex128 multiply does
 * on x86 with FMA (numpy 2.4 on AVX-512: re = fma(Re x, Re p,
 * -(Im x Im p)), im = fma(Re x, Im p, Im x Re p)), x the product so far
 * and p the op's phase, so it has `_product`'s bytes; the tests compare
 * the two. A dense block spans at most MAX_WIDTH qubits, as svcore's
 * blocks do. At one thread (2-vCPU Xeon) a 13-qubit stretch of 12 CPs
 * that each add a qubit, about 16k products, took 26 us in C, against
 * 330 us for `_product` with `diagonal_of`, and a width-3 block of 3 ops
 * about 2 us, against 7 us per op for a `ckernel.apply` call from
 * Python.
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

/* the widest step and the widest dense block: svcore's
 * DEFAULT_FUSION_WIDTH, its widest FUSED op and fusion block (see the
 * top); a wider one needs both raised, and bodies for it */
#define MAX_WIDTH 3
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
/* the most rows of a step, all of them in a step through `mix_blocks`,
 * and the widest block of that */
#define BLOCK_ROWS (1 << MAX_WIDTH)
#define MAX_BLOCK 4

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
    uint64_t off[BLOCK_ROWS]; /* the entry number of each row vector's offset */
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
    int64_t off[BLOCK_ROWS]; /* amplitude offset of each row vector */
    int sorted[64];          /* target and control bits above bit 1, ascending */
    int k;
    uint64_t cmask;          /* control bits above bit 1 */
    uint64_t amps;           /* 2^(m - k): the amplitudes the bases step over */
    const double *mat;       /* row-major interleaved, for `mix` */
    /* for `mix_lanes` (the first three for `mix_real` too): the rows that
     * one row vector holds; for each source row, the row vector and the
     * lane-target bits that hold it; for each setting of those bits, the
     * permutation that gives every lane that setting, then the same with
     * re/im swapped; and the coefficients, A and B, per output row vector
     * and source row */
    int held;
    int vector_of[BLOCK_ROWS], lanes_of[BLOCK_ROWS];
    v8i perm[8];
    v8d coef[2 * BLOCK_ROWS * BLOCK_ROWS];
    /* for `mix_blocks`: the offset that each row vector is stored at
     * (`off` is where it is loaded from), and each output's entries over
     * the columns of its block */
    int64_t put[BLOCK_ROWS];
    double entry[BLOCK_ROWS][MAX_BLOCK][2];
    /* for `mix_real`: per source row, the shuffle of its row vector that
     * gives every lane that row of its own group, and per output row
     * vector, the one that swaps re/im of the lanes to turn by i; its
     * coefficients, one per output row vector and source row, are in
     * `coef` */
    v8i in[BLOCK_ROWS], out[BLOCK_ROWS];
    /* the diagonals before and after the matrix, each NULL if none */
    const struct phases *before, *after;
};

/* x <- M x for `rows` row vectors, M's entries the same in every lane.
 * Every row accumulates at once, over the columns in order, so the
 * accumulators stay in registers while each column is read once. The one
 * pass is written as a loop over one block of outputs: without that loop,
 * GCC made dense 8-row steps that took 1.01-1.05x as long at one thread
 * (n=20, median of 41, 10 processes) */
static inline __attribute__((always_inline)) void mix(v8d *x, const double *mat, int rows)
{
    const v8i swap = {1, 0, 3, 2, 5, 4, 7, 6};
    const v8d sign = {-1, 1, -1, 1, -1, 1, -1, 1};
    v8d ix[BLOCK_ROWS], y[BLOCK_ROWS];
    for (int c = 0; c < rows; c++)
        ix[c] = __builtin_shuffle(x[c], swap) * sign;
    for (int r0 = 0; r0 < rows; r0 += rows) {
        v8d acc[BLOCK_ROWS];
        for (int r = 0; r < rows; r++) {
            const double *e = mat + 2 * (r0 + r) * rows;
            acc[r] = e[0] * x[0];
            acc[r] += e[1] * ix[0];
        }
        for (int c = 1; c < rows; c++)
            for (int r = 0; r < rows; r++) {
                const double *e = mat + 2 * ((r0 + r) * rows + c);
                acc[r] += e[0] * x[c];
                acc[r] += e[1] * ix[c];
            }
        for (int r = 0; r < rows; r++)
            y[r0 + r] = acc[r];
    }
    for (int r = 0; r < rows; r++)
        x[r] = y[r];
}

/* p, which the compiler cannot see as a product, so that it is rounded
 * on its own rather than taken into an FMA */
static inline __attribute__((always_inline)) v8d rounded(v8d p)
{
#ifdef __AVX512F__
    __asm__("" : "+v"(p));
#else
    __asm__("" : "+m"(p));
#endif
    return p;
}

/* x <- M x for BLOCK_ROWS row vectors in blocks of `size`: the outputs
 * of a block have their nonzero entries in the columns that its row
 * vectors hold, in ascending order, and x[0] holds column 0; e holds each
 * output's entries over its block's columns. Each output sums its terms
 * as `mix` sums its row, whose other entries add zeros that leave the sum
 * as it is: block 0 starts as `mix` starts at column 0, Re m * x in one
 * FMA with Im m * (i x) rounded alone (GCC's contraction of `mix`, here
 * spelled out), and the other blocks from a zero, as `mix` reaches their
 * first column. As in `mix`, each column's terms go to every output
 * before the next column's: summed one output at a time, blocks of 4
 * took 1.5x as long */
static inline __attribute__((always_inline)) void mix_blocks(v8d *x,
                                                             const double (*e)[MAX_BLOCK][2],
                                                             int size)
{
    const v8i swap = {1, 0, 3, 2, 5, 4, 7, 6};
    const v8d sign = {-1, 1, -1, 1, -1, 1, -1, 1};
    v8d ix[BLOCK_ROWS], acc[BLOCK_ROWS];
    for (int c = 0; c < BLOCK_ROWS; c++)
        ix[c] = __builtin_shuffle(x[c], swap) * sign;
    for (int r = 0; r < BLOCK_ROWS; r++) {
        const int k = r - r % size;
        if (k) {
            acc[r] = (v8d){0};
            acc[r] += e[r][0][0] * x[k];
            acc[r] += e[r][0][1] * ix[k];
        } else {
            acc[r] = e[r][0][0] * x[0] + rounded(e[r][0][1] * ix[0]);
        }
    }
    for (int j = 1; j < size; j++)
        for (int r = 0; r < BLOCK_ROWS; r++) {
            const int k = r - r % size;
            acc[r] += e[r][j][0] * x[k + j];
            acc[r] += e[r][j][1] * ix[k + j];
        }
    for (int r = 0; r < BLOCK_ROWS; r++)
        x[r] = acc[r];
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
    const int vectors = rows / held;
    v8d z[BLOCK_ROWS], sz[BLOCK_ROWS], y[BLOCK_ROWS];
    for (int r = 0; r < rows; r++) {
        z[r] = __builtin_shuffle(x[vector_of[r]], perm[2 * lanes_of[r]]);
        sz[r] = __builtin_shuffle(x[vector_of[r]], perm[2 * lanes_of[r] + 1]);
    }
    /* one pass over the outputs, as in `mix`: without the loop, the 8-row
     * step on bits 0, 1 and 2 took 1.03-1.06x as long */
    for (int r0 = 0; r0 < vectors; r0 += vectors) {
        v8d acc[BLOCK_ROWS];
        for (int r = 0; r < vectors; r++) {
            const v8d *k = coef + 2 * (r0 + r) * rows;
            acc[r] = k[0] * z[0];
            acc[r] += k[1] * sz[0];
        }
        for (int u = 1; u < rows; u++)
            for (int r = 0; r < vectors; r++) {
                const v8d *k = coef + 2 * ((r0 + r) * rows + u);
                acc[r] += k[0] * z[u];
                acc[r] += k[1] * sz[u];
            }
        for (int r = 0; r < vectors; r++)
            y[r0 + r] = acc[r];
    }
    for (int r = 0; r < vectors; r++)
        x[r] = y[r];
}

/* x <- D_a R D_b x for the row vectors of `rows` rows, `held` to a row
 * vector, R real and D_a, D_b diagonal in powers of i (`real_of`). One
 * shuffle of its row vector (`in`) gives every lane source row u of its
 * own group, its re/im swapped where b_u is odd; each output sums its
 * terms in the order of u, one FMA each, from a first product rounded
 * alone, as `mix_blocks` starts; and one shuffle (`out`) swaps re/im of
 * each output lane whose row has an odd a. The coefficients are R's
 * entries with the signs of those turns by i: i (re, im) is (-im, re).
 * A term whose part of M is 0 is an exact zero in `mix` and `mix_lanes`,
 * and the other term is the same product up to sign, so each output
 * takes the value that those bodies give it */
static inline __attribute__((always_inline)) void mix_real(
    v8d *restrict x, const v8d *restrict coef, const v8i *in, const v8i *out,
    const int *vector_of, int held, int rows)
{
    const int vectors = rows / held;
    v8d z[BLOCK_ROWS], acc[BLOCK_ROWS];
    for (int u = 0; u < rows; u++)
        z[u] = __builtin_shuffle(x[held == 1 ? u : vector_of[u]], in[u]);
    for (int r = 0; r < vectors; r++)
        acc[r] = rounded(coef[r * rows] * z[0]);
    for (int u = 1; u < rows; u++)
        for (int r = 0; r < vectors; r++)
            acc[r] += coef[r * rows + u] * z[u];
    for (int r = 0; r < vectors; r++)
        x[r] = __builtin_shuffle(acc[r], out[r]);
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

/* bases h0 to h1 of the array through `mix` (held 0), `mix_lanes`,
 * whose row vectors each hold `held` rows, with a block `size`
 * `mix_blocks`, or if `real` `mix_real`, with L's diagonals if `phased`;
 * base h starts at the vector numbered h * step with the zero bits
 * inserted, and spans `step` consecutive amplitudes, which no inserted bit
 * splits */
static inline __attribute__((always_inline)) void run(double *a, const struct layout *L,
                                                      int rows, int held, int size, int real,
                                                      int phased, uint64_t h0, uint64_t h1,
                                                      uint64_t step)
{
    const int vectors = held ? rows / held : rows, k = L->k;
    const uint64_t cmask = L->cmask;
    const double *mat = L->mat;
    /* the coefficients as a local copy, which the stores to the
     * amplitudes cannot alias: read through L, they were reloaded after
     * every store, and lane steps at one thread took 1.1-1.4x as long */
    v8d coef[2 * BLOCK_ROWS * BLOCK_ROWS];
    v8i in[BLOCK_ROWS], out[BLOCK_ROWS];
    if (real) {
        memcpy(coef, L->coef, sizeof(v8d) * vectors * rows);
        memcpy(in, L->in, sizeof in);
        memcpy(out, L->out, sizeof out);
    } else if (held) {
        memcpy(coef, L->coef, sizeof(v8d) * 2 * vectors * rows);
    }
    int sorted[64], vector_of[BLOCK_ROWS], lanes_of[BLOCK_ROWS];
    int64_t off[BLOCK_ROWS];
    v8i perm[8];
    memcpy(sorted, L->sorted, sizeof sorted);
    memcpy(off, L->off, sizeof off);
    /* the blocks' entries and where each row vector is stored, as local
     * copies for the same reason */
    double entry[BLOCK_ROWS][MAX_BLOCK][2];
    int64_t put[BLOCK_ROWS];
    if (size) {
        memcpy(entry, L->entry, sizeof entry);
        memcpy(put, L->put, sizeof put);
    }
    const int64_t *to = size ? put : off;
    memcpy(vector_of, L->vector_of, sizeof vector_of);
    memcpy(lanes_of, L->lanes_of, sizeof lanes_of);
    memcpy(perm, L->perm, sizeof perm);
    v8d x[BLOCK_ROWS];
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
            if (real)
                mix_real(x, coef, in, out, vector_of, held, rows);
            else if (held)
                mix_lanes(x, coef, perm, vector_of, lanes_of, held, rows);
            else if (size)
                mix_blocks(x, entry, size);
            else
                mix(x, mat, rows);
            for (int c = 0; c < vectors; c++) {
                if (hasA) {
                    lanes(&pa, ea + pa.off[c], &re, &im);
                    x[c] = times(x[c], re, im);
                }
                store4(at + 2 * to[c], x[c]);
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
            run(a, L, rows, 0, 0, 0, phased, h0, h1, step); \
        else if (held == 1) {                               \
            if (!phased)                                    \
                run(a, L, rows, 1, 0, 0, phased, h0, h1, step);\
        } else if (held == 2)                               \
            run(a, L, rows, 2, 0, 0, phased, h0, h1, step); \
        else if (rows > 2)                                  \
            run(a, L, rows, 4, 0, 0, phased, h0, h1, step); \
        break;

#define SWITCH(phased)      \
    switch (1 << w) {       \
        CASE(2, phased)     \
        CASE(4, phased)     \
        CASE(8, phased)     \
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

/* `run` with `phased` as a constant */
#define PHASED(rows, held, size, real)                                  \
    do {                                                                \
        if (phased)                                                     \
            run(a, L, rows, held, size, real, 1, h0, h1, step);         \
        else                                                            \
            run(a, L, rows, held, size, real, 0, h0, h1, step);         \
    } while (0)

#define REAL(rows)                      \
    case rows:                          \
        if (held == 1)                  \
            PHASED(rows, 1, 0, 1);      \
        else if (held == 2)             \
            PHASED(rows, 2, 0, 1);      \
        else if (rows > 2)              \
            PHASED(rows, 4, 0, 1);      \
        break;

/* `run` through `mix_blocks` in blocks of `size`, or with `size` 0
 * through `mix_real` for 2^w rows, L->held to a row vector; with L's
 * diagonals if `phased` */
static __attribute__((noinline)) void run_sparse(double *a, const struct layout *L, int w,
                                                 int size, int phased, uint64_t h0,
                                                 uint64_t h1, uint64_t step)
{
    const int held = L->held;
    if (size == 2)
        PHASED(BLOCK_ROWS, 0, 2, 0);
    else if (size == 4)
        PHASED(BLOCK_ROWS, 0, 4, 0);
    else
        switch (1 << w) {
            REAL(2)
            REAL(4)
            REAL(8)
        }
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
    int w, held, size, real;
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
    /* a loop of its own: with a branch to `run_sparse` in the loop below,
     * the dense 8-row step on bits 2, 13 and 14 took 1.01-1.06x as long
     * at one thread (n=20, median of 41, 6 processes) */
    if (J->size || J->real) {
        while ((c = __atomic_fetch_add(&J->next, 1, __ATOMIC_RELAXED)) < J->chunks)
            run_sparse(J->amps, J->L, J->w, J->size, phased, c * J->per_chunk,
                       (c + 1) * J->per_chunk, J->step);
        return;
    }
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

/* The rows that one row vector holds, and for each source row the row
 * vector and the lane-target bits that hold it */
static void lane_rows(struct layout *L, int w, const int *pos, const int *high, int nhigh)
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
}

/* The tables and coefficients of `mix_lanes` for the lane bits `tl` that
 * are targets and `cl` that are controls */
static void lane_coefficients(struct layout *L, const double *mat, int w, const int *pos,
                              const int *high, int nhigh, int tl, int cl)
{
    const int rows = 1 << w, vectors = 1 << nhigh;
    lane_rows(L, w, pos, high, nhigh);
    for (int p = 0; p < 4; p++)
        for (int e = 0; e < 8; e++) {
            int from = 2 * (((e >> 1) & ~tl) | p);
            L->perm[2 * p][e] = from + (e & 1);
            L->perm[2 * p + 1][e] = from + 1 - (e & 1);
        }
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
}

/* The block size at which `mix_blocks` takes a 2^w x 2^w complex matrix
 * on the target bits `tmask` under the controls `cmask`, or 0. It takes
 * BLOCK_ROWS rows with no target or control at bit 0 or 1. The columns
 * fall into groups where a row has nonzero entries (an entry is nonzero
 * unless exactly 0) in more than one, and a row belongs to the group
 * that holds them; no group may have more rows than columns. The groups
 * are packed, widest first, into as few blocks of 2, else of 4, as they
 * fill exactly, and rows with no nonzero entry fill the blocks. If L is
 * not NULL, its offsets, one per matrix row, are reordered into
 * `mix_blocks`'s slots, the blocks in the order of their lowest column
 * and each block's columns ascending, and its `put` and entries are
 * filled */
static int blocks_of(struct layout *L, const double *mat, int w, uint64_t tmask,
                     uint64_t cmask)
{
    const int rows = 1 << w;
    unsigned nonzero[BLOCK_ROWS], group[BLOCK_ROWS];
    if (rows != BLOCK_ROWS || ((tmask | cmask) & 3))
        return 0;
    for (int c = 0; c < rows; c++)
        group[c] = 1u << c;
    for (int r = 0; r < rows; r++) {
        unsigned joined = 0;
        nonzero[r] = 0;
        for (int c = 0; c < rows; c++)
            if (mat[2 * (r * rows + c)] != 0 || mat[2 * (r * rows + c) + 1] != 0) {
                nonzero[r] |= 1u << c;
                joined |= group[c];
            }
        for (int c = 0; c < rows; c++)
            if (joined >> c & 1)
                group[c] = joined;
    }
    int widest = 1;
    for (int c = 0; c < rows; c++) {
        int held = 0;
        for (int r = 0; r < rows; r++)
            held += (nonzero[r] & group[c]) != 0;
        if (held > __builtin_popcount(group[c]))
            return 0;
        if (__builtin_popcount(group[c]) > widest)
            widest = __builtin_popcount(group[c]);
    }
    for (int size = 2; size <= MAX_BLOCK; size *= 2) {
        unsigned block[BLOCK_ROWS];
        int blocks = 0;
        if (size < widest)
            continue;
        for (int width = size; width > 0; width--)
            for (int c = 0; c < rows; c++) {
                if (__builtin_ctz(group[c]) != c || __builtin_popcount(group[c]) != width)
                    continue;
                int b = 0;
                while (b < blocks && __builtin_popcount(block[b]) + width > size)
                    b++;
                if (b == blocks)
                    block[blocks++] = 0;
                block[b] |= group[c];
            }
        if (blocks * size != rows)
            continue;
        if (!L)
            return size;
        /* the column each slot is loaded as, and the row it is stored as */
        int in[BLOCK_ROWS], out[BLOCK_ROWS], slot = 0;
        unsigned spare = 0, placed = 0;
        for (int r = 0; r < rows; r++)
            spare |= (unsigned)!nonzero[r] << r;
        for (int c = 0; c < rows; c++) {
            if (placed >> c & 1)
                continue;
            unsigned cols = 0;
            for (int b = 0; b < blocks; b++)
                cols |= block[b] >> c & 1 ? block[b] : 0;
            placed |= cols;
            int o = slot;
            for (int k = 0; k < rows; k++)
                if (cols >> k & 1)
                    in[slot++] = k;
            for (int r = 0; r < rows; r++)
                if (nonzero[r] & cols)
                    out[o++] = r;
            for (; o < slot; o++) {
                out[o] = __builtin_ctz(spare);
                spare &= spare - 1;
            }
        }
        int64_t off[BLOCK_ROWS];
        memcpy(off, L->off, sizeof off);
        for (int s = 0; s < rows; s++) {
            L->off[s] = off[in[s]];
            L->put[s] = off[out[s]];
            for (int j = 0; j < size; j++) {
                const double *m = mat + 2 * (out[s] * rows + in[s - s % size + j]);
                L->entry[s][j][0] = m[0];
                L->entry[s][j][1] = m[1];
            }
        }
        return size;
    }
    return 0;
}

/* Whether `mix_real` takes a 2^w x 2^w complex matrix under the controls
 * `cmask`: none at bit 0 or 1, and every nonzero entry (an entry is
 * nonzero unless exactly 0) has a real or an imaginary part of exactly 0,
 * imaginary just where a_r XOR b_c is 1 for some bit a_r of each row r
 * and b_c of each column c. Then M = D_a R D_b, with R real and D_a, D_b
 * diagonal with entries i^a_r and i^b_c. The rows take their bits one at
 * a time, each next one sharing a nonzero column with those before if
 * any does: its a is then fixed by the b found so far, else taken as 0.
 * A column with no nonzero entry takes b = 0 */
static int real_of(const double *mat, int w, uint64_t cmask, int *a, int *b)
{
    const int rows = 1 << w;
    unsigned nonzero[BLOCK_ROWS], odd[BLOCK_ROWS], seen = 0, bits = 0;
    if (cmask & 3)
        return 0;
    for (int r = 0; r < rows; r++) {
        a[r] = -1;
        nonzero[r] = odd[r] = 0;
        for (int c = 0; c < rows; c++) {
            const double re = mat[2 * (r * rows + c)], im = mat[2 * (r * rows + c) + 1];
            if (re != 0 && im != 0)
                return 0;
            nonzero[r] |= (unsigned)(re != 0 || im != 0) << c;
            odd[r] |= (unsigned)(im != 0) << c;
        }
    }
    for (int done = 0; done < rows; done++) {
        int r = -1;
        for (int s = 0; s < rows; s++)
            if (a[s] < 0 && (r < 0 || ((nonzero[s] & seen) && !(nonzero[r] & seen))))
                r = s;
        const unsigned shared = nonzero[r] & seen, differ = (odd[r] ^ bits) & shared;
        if (differ && differ != shared)
            return 0;
        a[r] = differ != 0;
        bits |= (odd[r] ^ (a[r] ? nonzero[r] : 0)) & nonzero[r] & ~seen;
        seen |= nonzero[r];
    }
    for (int c = 0; c < rows; c++)
        b[c] = bits >> c & 1;
    return 1;
}

/* The tables and coefficients of `mix_real` for the bits a and b of
 * `real_of`, with the lane bits `tl` that are targets. A source row whose
 * b is odd is read with re/im swapped, and an output lane whose row's a
 * is odd is stored with re/im swapped. As i (re, im) is (-im, re), an
 * entry m then adds Re m in both parts where a = b, and where they differ
 * Im m, negated in the part that the turn by i negates: the re part of
 * the swapped source row, or the part stored as the output's re part */
static void real_coefficients(struct layout *L, const double *mat, int w, const int *pos,
                              const int *high, int nhigh, int tl, const int *a, const int *b)
{
    const int rows = 1 << w, vectors = 1 << nhigh;
    int row[BLOCK_ROWS][4];
    lane_rows(L, w, pos, high, nhigh);
    for (int u = 0; u < rows; u++)
        for (int e = 0; e < 8; e++)
            L->in[u][e] = 2 * (((e >> 1) & ~tl) | L->lanes_of[u]) + ((e & 1) ^ b[u]);
    for (int i = 0; i < vectors; i++)
        for (int l = 0; l < 4; l++) {
            row[i][l] = lane_row(i, l, high, nhigh, pos, w);
            L->out[i][2 * l] = 2 * l + a[row[i][l]];
            L->out[i][2 * l + 1] = 2 * l + 1 - a[row[i][l]];
        }
    for (int i = 0; i < vectors; i++)
        for (int u = 0; u < rows; u++)
            for (int l = 0; l < 4; l++) {
                const int o = row[i][l];
                const double *m = mat + 2 * (o * rows + u);
                double *k = &L->coef[i * rows + u][2 * l];
                if (a[o] == b[u]) {
                    k[0] = k[1] = m[0];
                } else {
                    k[0] = a[o] ? m[1] : -m[1];
                    k[1] = -k[0];
                }
            }
}

/* The terms that each output of this step sums in `qsim_apply_matrix`
 * (byte j of `targets` the bit of target j): 2 or 4 through `mix_blocks`,
 * else 2^w; 0 for a width outside 1 to MAX_WIDTH */
int qsim_terms(const double *mat, int w, uint64_t targets, uint64_t cmask)
{
    uint64_t tmask = 0;
    if (w < 1 || w > MAX_WIDTH)
        return 0;
    for (int j = 0; j < w; j++)
        tmask |= UINT64_C(1) << ((targets >> (8 * j)) & 63);
    const int size = blocks_of(NULL, mat, w, tmask, cmask);
    return size ? size : 1 << w;
}

/* 1 if `qsim_apply_matrix` runs this step (as `qsim_terms` takes it)
 * through `mix_real`, else 0: a step that falls into blocks keeps its
 * block body */
int qsim_real(const double *mat, int w, uint64_t targets, uint64_t cmask)
{
    int a[BLOCK_ROWS], b[BLOCK_ROWS];
    return qsim_terms(mat, w, targets, cmask) == 1 << w && real_of(mat, w, cmask, a, b);
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
 * Returns 0, or -1, touching nothing, for a width outside 0 to MAX_WIDTH,
 * width 0 with no phases, fewer than 4 amplitudes, bits that repeat or lie
 * outside the m index bits, phases with controls or over more than 13
 * bits, or no memory for the tables. */
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
    }
    /* with every target above bit 1, row vector i holds matrix row i */
    const int size = blocks_of(&L, mat, w, tmask, cmask);
    int a[BLOCK_ROWS], b[BLOCK_ROWS];
    const int real = !size && real_of(mat, w, cmask, a, b);
    for (int i = 0; i < (1 << nhigh); i++) {
        pb.off[i] = pext(L.off[i], before_mask);
        pa.off[i] = pext(size ? L.put[i] : L.off[i], after_mask);
    }
    L.mat = mat;
    if (real)
        real_coefficients(&L, mat, w, pos, high, nhigh, tmask & 3, a, b);
    else if ((tmask | cmask) & 3)
        lane_coefficients(&L, mat, w, pos, high, nhigh, tmask & 3, cmask & 3);
    const int held = L.held;
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
        struct job J = {.w = w, .held = held, .size = size, .real = real, .amps = amps, .L = &L,
                        .step = sub, .per_chunk = span / sub, .chunks = chunks};
        serial = run_parallel(&J, threads);
    }
    if (serial) {
        struct job J = {.w = w, .held = held, .size = size, .real = real, .amps = amps, .L = &L,
                        .step = step, .per_chunk = L.amps / step, .chunks = 1};
        run_chunks(&J);
    }
    status = 0;
done:
    free(pb.table);
    free(pa.table);
    return status;
}

/* the count of set bits of `mask` below bit p: where bit p of the index
 * bits in `mask` lands once they are packed in ascending order */
static inline int packed_at(uint64_t mask, int p)
{
    return __builtin_popcountll(mask & ((UINT64_C(1) << p) - 1));
}

/* One op of a block, read from its record (see `qsim_build_block`): its
 * target and control counts, whether it is diagonal, its target
 * positions, target j first, the masks of its targets and controls, the
 * record's length and the complex entries of its table */
struct block_op {
    int t, c, diagonal;
    const int64_t *pos;
    uint64_t tmask, cmask;
    int64_t length, entries;
};

/* The op whose record starts at `spec`, within the `left` entries that
 * remain of it, over u index bits; t = 0 if that is not a record that
 * `qsim_build_block` takes */
static struct block_op block_op_at(const int64_t *spec, int64_t left, int u)
{
    struct block_op op = {0};
    if (left < 3 || spec[0] < 1 || spec[0] > u || spec[1] < 0 || spec[1] > u ||
        left < 3 + spec[0] + spec[1])
        return op;
    op.pos = spec + 3;
    op.diagonal = spec[2] != 0;
    op.length = 3 + spec[0] + spec[1];
    uint64_t seen = 0;
    for (int j = 0; j < spec[0] + spec[1]; j++) {
        if (op.pos[j] < 0 || op.pos[j] >= u || (seen >> op.pos[j]) & 1)
            return op;
        seen |= UINT64_C(1) << op.pos[j];
        if (j < spec[0])
            op.tmask = seen;
    }
    op.cmask = seen & ~op.tmask;
    op.entries = op.diagonal ? INT64_C(1) << spec[0] : INT64_C(1) << (2 * spec[0]);
    op.c = (int)spec[1];
    op.t = (int)spec[0];
    return op;
}

/* A diagonal op's phases spelled out over the ascending bits of its
 * qubits, as svcore's `diagonal_of` gives them: entry e takes its table's
 * entry whose bit j is target j's bit of e where every control reads 1,
 * else 1 */
static void spell(const struct block_op *op, const double *table, double *phases)
{
    const uint64_t mask = op->tmask | op->cmask, c = pext(op->cmask, mask);
    int at[MAX_PHASE_BITS];
    for (int j = 0; j < op->t; j++)
        at[j] = packed_at(mask, (int)op->pos[j]);
    for (uint64_t e = 0; e < UINT64_C(1) << (op->t + op->c); e++) {
        uint64_t k = 0;
        for (int j = 0; j < op->t; j++)
            k |= ((e >> at[j]) & 1) << j;
        phases[2 * e] = (e & c) == c ? table[2 * k] : 1;
        phases[2 * e + 1] = (e & c) == c ? table[2 * k + 1] : 0;
    }
}

/* x times p as numpy multiplies complex128: re = fma(Re x, Re p,
 * -(Im x Im p)), im = fma(Re x, Im p, Im x Re p) */
static inline void product(double *out, const double *x, const double *p)
{
    const double xr = x[0], xi = x[1];
    out[0] = __builtin_fma(xr, p[0], -(xi * p[1]));
    out[1] = __builtin_fma(xr, p[1], xi * p[0]);
}

/* A stretch's phases, as svcore's `_product` builds them, in `out`, with
 * `phases` room for each op's phases spelled out: the product starts as
 * the one entry 1 over no bits, and each op multiplies its phase into
 * every entry (`product`, the old entry times the phase), after widening
 * the product to the op's bits where it adds any. The product over the
 * bits `span` is kept in the first 2^|span| entries of `out`; widened,
 * entry i takes the old entry that its bits of `span` number, so the
 * entries are written from the top down, each after every entry it
 * reads */
static void build_stretch(double *out, int u, const int64_t *spec, int64_t length,
                          const double *table, double *phases)
{
    uint64_t span = 0;
    out[0] = 1;
    out[1] = 0;
    for (int64_t at = 0; at < length;) {
        const struct block_op op = block_op_at(spec + at, length - at, u);
        const uint64_t wider = span | op.tmask | op.cmask, keep = pext(span, wider),
                       mine = pext(op.tmask | op.cmask, wider),
                       entries = UINT64_C(1) << __builtin_popcountll(wider);
        spell(&op, table, phases);
        if (wider == span)
            for (uint64_t i = 0; i < entries; i++)
                product(out + 2 * i, out + 2 * i, phases + 2 * pext(i, mine));
        else
            for (uint64_t i = entries; i-- > 0;)
                product(out + 2 * i, out + 2 * pext(i, keep), phases + 2 * pext(i, mine));
        span = wider;
        table += 2 * op.entries;
        at += op.length;
    }
}

/* A dense block's matrix, as svcore's `_Block.op` builds it with one
 * `apply_gate` per op: the ops applied in order to the identity,
 * flattened into a state of 2u index bits whose row bit j is index bit
 * u + j, through `qsim_apply_matrix`. A diagonal op takes its phases
 * spelled out in `phases`, as svcore's `_phases` gives them. 0, or -1 if
 * a step's table cannot be allocated */
static int build_dense(double *out, int u, const int64_t *spec, int64_t length,
                       const double *table, double *phases)
{
    const uint64_t rows = UINT64_C(1) << u;
    memset(out, 0, 16 * rows * rows);
    for (uint64_t r = 0; r < rows; r++)
        out[2 * (r * rows + r)] = 1;
    for (int64_t at = 0; at < length;) {
        const struct block_op op = block_op_at(spec + at, length - at, u);
        int status;
        if (op.diagonal) {
            spell(&op, table, phases);
            status = qsim_apply_matrix(out, 2 * u, NULL, 0, 0, 0, 1, phases,
                                       (op.tmask | op.cmask) << u, NULL, 0);
        } else {
            uint64_t targets = 0;
            for (int j = 0; j < op.t; j++)
                targets |= (uint64_t)(op.pos[j] + u) << (8 * j);
            status = qsim_apply_matrix(out, 2 * u, table, op.t, targets, op.cmask << u, 1, NULL,
                                       0, NULL, 0);
        }
        if (status)
            return -1;
        table += 2 * op.entries;
        at += op.length;
    }
    return 0;
}

/* out: 2^u complex128 phases of a stretch (`dense` 0) or a 2^u x 2^u
 * row-major complex128 matrix of a dense block (`dense` 1), bit j of an
 * entry's index (of a row's or a column's) being the block's j-th qubit.
 * spec: `length` int64s, a record per op in order: t, c, whether the op
 * is diagonal, its t target positions, target j first, and its c control
 * positions; tables: `entries` complex128, each op's table in order, 2^t
 * phases of a diagonal op (bit j of an entry's index = target j, controls
 * left out), else a 2^t x 2^t row-major matrix. Returns 0, or -1,
 * touching nothing, for u outside 1 to 13 (a stretch) or 1 to MAX_WIDTH
 * (a dense block), no op, a record that does not fit `spec` or has no
 * target, positions that repeat or lie outside the u bits, a non-diagonal
 * op in a stretch, a stretch whose ops leave one of the u bits out (its
 * entries there would not be written), or tables of other than `entries`
 * entries; -1 too, with `out` undefined, if a table cannot be allocated.
 * A record's targets lie among the u bits, so a dense op is never wider
 * than MAX_WIDTH */
int qsim_build_block(double *out, int u, int dense, const int64_t *spec, int64_t length,
                     const double *tables, int64_t entries)
{
    int widest = 0;
    uint64_t span = 0;
    if (u < 1 || u > (dense ? MAX_WIDTH : MAX_PHASE_BITS) || length < 1)
        return -1;
    for (int64_t at = 0; at < length;) {
        const struct block_op op = block_op_at(spec + at, length - at, u);
        if (!op.t || (!op.diagonal && !dense) || op.entries > entries)
            return -1;
        widest = op.diagonal && op.t + op.c > widest ? op.t + op.c : widest;
        span |= op.tmask | op.cmask;
        entries -= op.entries;
        at += op.length;
    }
    if (entries || (!dense && span != (UINT64_C(1) << u) - 1))
        return -1;
    double *phases = malloc((size_t)16 << widest);
    if (!phases)
        return -1;
    int status = 0;
    if (dense)
        status = build_dense(out, u, spec, length, tables, phases);
    else
        build_stretch(out, u, spec, length, tables, phases);
    free(phases);
    return status;
}
