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
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_WIDTH 5
#define MAX_ROWS (1 << MAX_WIDTH)

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

/* every group of the array through `mix` (held 0) or `mix_lanes`, whose
 * row vectors each hold `held` rows */
static inline __attribute__((always_inline)) void run(double *a, const struct layout *L,
                                                      int rows, int held)
{
    const int vectors = held ? rows / held : rows, k = L->k;
    /* the amplitudes below the lowest inserted bit are consecutive */
    const uint64_t step = k ? UINT64_C(1) << L->sorted[0] : L->amps;
    const uint64_t bases = L->amps / step, cmask = L->cmask;
    const double *mat = L->mat;
    const v8d *coef = L->coef;
    int sorted[64], vector_of[MAX_ROWS], lanes_of[MAX_ROWS];
    int64_t off[MAX_ROWS];
    v8i perm[8];
    memcpy(sorted, L->sorted, sizeof sorted);
    memcpy(off, L->off, sizeof off);
    memcpy(vector_of, L->vector_of, sizeof vector_of);
    memcpy(lanes_of, L->lanes_of, sizeof lanes_of);
    memcpy(perm, L->perm, sizeof perm);
    v8d x[MAX_ROWS];
    for (uint64_t h = 0; h < bases; h++) {
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

#define CASE(rows)                  \
    case rows:                      \
        if (!L.coef)                \
            run(amps, &L, rows, 0); \
        else if (L.held == 1)       \
            run(amps, &L, rows, 1); \
        else if (L.held == 2)       \
            run(amps, &L, rows, 2); \
        else                        \
            run(amps, &L, rows, 4); \
        break;

/* amps: 2^m complex128; mat: 2^w x 2^w complex128, row-major; byte j of
 * `targets` is the index bit of target j (matrix bit j); `cmask` holds the
 * control bits. Returns 0, or -1, touching nothing, for a width the kernel
 * does not take, fewer than 4 amplitudes, bits that repeat or lie outside
 * the m index bits, or no memory for the coefficients. */
int qsim_apply_matrix(double *amps, int m, const double *mat, int w,
                      uint64_t targets, uint64_t cmask)
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
    switch (1 << w) {
        CASE(2)
        CASE(4)
        CASE(8)
        CASE(16)
        CASE(32)
    }
    free(L.coef);
    return 0;
}
