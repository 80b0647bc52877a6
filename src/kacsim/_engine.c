/* One event loop for one copy or two coupled copies, one pass over the
 * particle pairs, and the assignment solver that pairs two copies' slots.
 *
 * kac_advance runs the coupled dynamics on u and v, or Kac's dynamics on u
 * alone when v is NULL (gs is then not read).  Loaded through ctypes by
 * _engine.py, which documents the accumulator layout and the status codes.
 * system._collide spells the same arithmetic in python operation for
 * operation, so the python fallback replays this loop bit for bit.  Build
 * with -ffp-contract=off (and never -ffast-math) so no fused multiply-add
 * changes the rounding; -fno-math-errno only lets sqrt be the instruction.
 *
 * Each frame rule is spelled once, as in geometry: normalize scales to
 * unit length, project_off is the two-pass projection, complement_unit and
 * ortho_axis finish with normalize, and transport_frames builds the frame
 * of one copy (nv = nu) or two.
 *
 * kac_pair_sums runs over a stack of configurations, and within one it
 * runs vector lanes that each own a row i.  The lanes are spelled once, in
 * _pair_pass.h, which is included here at three vector widths: 2 doubles
 * per vector on every CPU and, on x86-64, 4 built for AVX2 and 8 for
 * AVX-512F, picked on CPUs that have them (no -march flag, so one library
 * serves every CPU; kac_widths names the widths a CPU runs).  The
 * lane-order rule: each lane adds to its row in j order, exactly +0.0 for
 * the pairs it does not own, and every lane rounds alike, so the sums are
 * the same bit for bit at every width.
 *
 * kac_assign, at the end of this file, is scipy's shortest augmenting path
 * solver for the square linear sum assignment under scipy's BSD license
 * (reproduced there): the same duals, arithmetic and tie rule, with each
 * search scanning its columns in index order, in vector lanes spelled
 * once in _assign_path.h and built at the pair pass's three widths.
 *
 * Arrays are C-contiguous: states (n, d), per-event arrays (nb,) or
 * (nb, d), work (9 d,).  clock = {t, t_next} and ctr = {cursor, proj_ctr}
 * are updated in place.  A pair index outside [0, n) stops the loop with
 * status -1, a projection that annihilates its Gaussian with status -2;
 * either stop leaves the event's pair unchanged.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#define REORTHO_RATIO 1e-8
#define ANNIHILATION_SQ 1e-24

/* Scale x (length d) to unit length; returns its length before. */
static double normalize(double *x, int64_t d)
{
    double s = 0.0;
    for (int64_t k = 0; k < d; k++)
        s += x[k] * x[k];
    double r = sqrt(s), inv = 1.0 / r;
    for (int64_t k = 0; k < d; k++)
        x[k] *= inv;
    return r;
}

/* out = (a - b)/|a - b|; returns |a - b|.  Zero difference -> e_0. */
static double unit_of_diff(const double *a, const double *b, double *out,
                           int64_t d)
{
    for (int64_t k = 0; k < d; k++)
        out[k] = a[k] - b[k];
    double r = normalize(out, d);
    if (!(r > 0.0)) {
        memset(out, 0, (size_t)d * sizeof(double));
        out[0] = 1.0;
    }
    return r;
}

/* Deterministic unit vector orthogonal to n (same rule as geometry). */
static void ortho_axis(const double *n, double *out, int64_t d)
{
    int64_t k0 = 0;
    double best = fabs(n[0]);
    for (int64_t k = 1; k < d; k++) {
        double a = fabs(n[k]);
        if (a < best) {
            best = a;
            k0 = k;
        }
    }
    double c = n[k0];
    for (int64_t k = 0; k < d; k++) {
        double w = -c * n[k];
        if (k == k0)
            w += 1.0;
        out[k] = w;
    }
    normalize(out, d);
}

/* Remove from x its components along n, of squared length nn, and, unless
 * m is NULL, along the unit m (both coefficients from the same x); a
 * result that keeps less than REORTHO_RATIO of x2 is projected again, as
 * one pass can leave it off-orthogonal by eps |x| / |result|.  Returns
 * |x|^2 afterwards.  The rule of geometry._project_off. */
static double project_off(double *x, const double *n, double nn,
                          const double *m, double x2, int64_t d)
{
    double s = 0.0;
    for (int pass = 0; pass < 2 && (pass == 0 || s < REORTHO_RATIO * x2);
         pass++) {
        double a = 0.0, b = 0.0;
        for (int64_t k = 0; k < d; k++) {
            a += x[k] * n[k];
            if (m)
                b += x[k] * m[k];
        }
        a /= nn;
        s = 0.0;
        for (int64_t k = 0; k < d; k++) {
            x[k] -= a * n[k];
            if (m)
                x[k] -= b * m[k];
            s += x[k] * x[k];
        }
    }
    return s;
}

/* Unit vector along g projected orthogonal to n and m (orthonormal; m may
 * be NULL), the rule of geometry.complement_unit.  Returns -1, with out not
 * normalized, when the projection keeps |w|^2 <= ANNIHILATION_SQ. */
static int complement_unit(const double *g, const double *n, const double *m,
                           double *out, int64_t d)
{
    double g2 = 0.0;
    for (int64_t k = 0; k < d; k++)
        g2 += g[k] * g[k];
    memcpy(out, g, (size_t)d * sizeof(double));
    if (!(project_off(out, n, 1.0, m, g2, d) > ANNIHILATION_SQ))
        return -1;
    normalize(out, d);
    return 0;
}

/* The frame of geometry.transport_frames in mu and mv, from the half-angle
 * basis w = nu + nv, z = nu - nv: mu = sin w^ - cos z^, mv = -sin w^ - cos z^
 * with cos = |w|/2, sin = |z|/2.  Returns 1 when gs completed the plane of
 * antipodal directions, 0 otherwise, -1 when gs lies along z.  Identical
 * directions (nv = nu for a single copy) take mu = mv = ortho_axis(nu)
 * and never read gs. */
static int transport_frames(const double *nu, const double *nv,
                            const double *gs, double *mu, double *mv,
                            int64_t d)
{
    double *w = mu, *z = mv;
    double ww = 0.0, zz = 0.0;
    for (int64_t k = 0; k < d; k++) {
        w[k] = nu[k] + nv[k];
        z[k] = nu[k] - nv[k];
        ww += w[k] * w[k];
        zz += z[k] * z[k];
    }
    double cos_h = 0.5 * sqrt(ww), sin_h = 0.5 * sqrt(zz);
    int w_short = ww < zz;
    double *lo = w_short ? w : z, *hi = w_short ? z : w;
    double ll = w_short ? ww : zz, hh = w_short ? zz : ww;
    /* the shorter one projected off the longer, unscaled */
    double s = project_off(lo, hi, hh, NULL, ll, d);
    int is_open = !(s > ANNIHILATION_SQ * ll);
    if (is_open && !w_short) {
        ortho_axis(nu, mu, d);
        memcpy(mv, mu, (size_t)d * sizeof(double));
        return 0;
    }
    /* lo * f_lo and hi * f_hi are w^ and z^ in some order; the factors
     * are folded into the combination below */
    double f_lo = 1.0 / sqrt(s), f_hi = 0.5 / (w_short ? sin_h : cos_h);
    if (is_open) {
        for (int64_t k = 0; k < d; k++)
            hi[k] *= f_hi;
        if (complement_unit(gs, hi, NULL, lo, d))
            return -1;
        f_lo = f_hi = 1.0;
    }
    double a_w = sin_h * (w_short ? f_lo : f_hi);
    double a_z = cos_h * (w_short ? f_hi : f_lo);
    for (int64_t k = 0; k < d; k++) {
        double a = w[k], b = z[k];
        mu[k] = a_w * a - a_z * b;
        mv[k] = -a_w * a - a_z * b;
    }
    return is_open;
}

/* Recenter to zero mean and rescale to unit mean energy, in place. */
static void reproject(double *v, int64_t n, int64_t d)
{
    for (int64_t k = 0; k < d; k++) {
        double mu = 0.0;
        for (int64_t i = 0; i < n; i++)
            mu += v[i * d + k];
        mu /= (double)n;
        for (int64_t i = 0; i < n; i++)
            v[i * d + k] -= mu;
    }
    double s = 0.0;
    for (int64_t i = 0; i < n * d; i++)
        s += v[i] * v[i];
    double scale = sqrt((double)n / s);
    for (int64_t i = 0; i < n * d; i++)
        v[i] *= scale;
}

int kac_advance(double *u, double *v, int64_t n, int64_t d, double *clock,
                double t_stop, double rate, double max_events,
                const double *thetas, const double *cphis, const double *exps,
                const int64_t *pi, const int64_t *pj, const double *gl,
                const double *gs, int64_t nb, int64_t *ctr, int64_t proj_every,
                double *acc, double *work)
{
    double *nu = work, *nv = work + d, *mu = work + 2 * d, *mv = work + 3 * d;
    double *l_hat = work + 4 * d, *npu = work + 5 * d, *npv = work + 6 * d;
    double *su = work + 7 * d, *sv = work + 8 * d;
    double t = clock[0], t_next = clock[1];
    int64_t cursor = ctr[0], proj_ctr = ctr[1];
    int status;
    for (;;) {
        if (t_next > t_stop) {
            t = t_stop;
            status = 0;
            break;
        }
        if (acc[4] >= max_events) {
            status = 2;
            break;
        }
        if (cursor >= nb) {
            status = 1;
            break;
        }
        int64_t i = pi[cursor], j = pj[cursor];
        if (i < 0 || i >= n || j < 0 || j >= n) {
            status = -1;
            break;
        }
        t = t_next;
        double *ui = u + i * d, *uj = u + j * d;
        double *vi = NULL, *vj = NULL;
        double r_u = unit_of_diff(ui, uj, nu, d);
        double r_v = 0.0, c = 0.0;
        if (v) {
            vi = v + i * d;
            vj = v + j * d;
            r_v = unit_of_diff(vi, vj, nv, d);
            for (int64_t k = 0; k < d; k++)
                c += nu[k] * nv[k];
        }
        /* a single copy takes the frame of identical directions (z = 0),
         * which never reads gs */
        int completed = transport_frames(nu, v ? nv : nu,
                                         v ? gs + cursor * d : NULL, mu, mv, d);
        if (completed < 0) {
            status = -2;
            break;
        }
        if (complement_unit(gl + cursor * d, nu, mu, l_hat, d)) {
            status = -2;
            break;
        }
        double cphi = cphis[cursor];
        double sphi = 1.0 - cphi * cphi;
        sphi = sqrt(sphi > 0.0 ? sphi : 0.0);
        double ct = cos(thetas[cursor]);
        double st = sin(thetas[cursor]);
        double d_old = 0.0, e_old_u = 0.0, e_old_v = 0.0;
        for (int64_t k = 0; k < d; k++) {
            su[k] = ui[k] + uj[k];
            e_old_u += ui[k] * ui[k] + uj[k] * uj[k];
            npu[k] = ct * nu[k] + st * (cphi * mu[k] + sphi * l_hat[k]);
            if (!v)
                continue;
            sv[k] = vi[k] + vj[k];
            e_old_v += vi[k] * vi[k] + vj[k] * vj[k];
            double wui = ui[k] - vi[k];
            double wuj = uj[k] - vj[k];
            d_old += wui * wui + wuj * wuj;
            npv[k] = ct * nv[k] + st * (cphi * mv[k] + sphi * l_hat[k]);
        }
        /* force exactly unit outgoing directions; an l_hat off-orthogonal
         * by rounding would otherwise leak into the energies */
        normalize(npu, d);
        if (v)
            normalize(npv, d);
        double d_new = 0.0, e_new_u = 0.0, e_new_v = 0.0;
        double mom_u = 0.0, mom_v = 0.0;
        for (int64_t k = 0; k < d; k++) {
            double a = 0.5 * (su[k] + r_u * npu[k]);
            double b = 0.5 * (su[k] - r_u * npu[k]);
            ui[k] = a;
            uj[k] = b;
            e_new_u += a * a + b * b;
            double me = fabs((a + b) - su[k]);
            if (me > mom_u)
                mom_u = me;
            if (!v)
                continue;
            double p = 0.5 * (sv[k] + r_v * npv[k]);
            double q = 0.5 * (sv[k] - r_v * npv[k]);
            vi[k] = p;
            vj[k] = q;
            e_new_v += p * p + q * q;
            d_new += (a - p) * (a - p) + (b - q) * (b - q);
            me = fabs((p + q) - sv[k]);
            if (me > mom_v)
                mom_v = me;
        }
        double err = fabs(e_new_u - e_old_u) / (e_old_u + 1e-300);
        double mom_rel = mom_u / (sqrt(e_old_u) + 1e-300);
        if (mom_rel > err)
            err = mom_rel;
        if (v) {
            double err_v = fabs(e_new_v - e_old_v) / (e_old_v + 1e-300);
            if (err_v > err)
                err = err_v;
            mom_rel = mom_v / (sqrt(e_old_v) + 1e-300);
            if (mom_rel > err)
                err = mom_rel;
        }
        if (err > acc[2])
            acc[2] = err;
        if (v) {
            double delta = d_new - d_old;
            double resid = delta + st * st * sphi * sphi
                                       * (r_u * r_v - r_u * r_v * c);
            if (fabs(resid) > acc[0]) {
                acc[0] = fabs(resid);
                acc[6] = t;
            }
            if (delta > acc[1]) {
                acc[1] = delta;
                acc[7] = t;
            }
            if (completed) {
                acc[3] += 1.0;
                if (delta > acc[5])
                    acc[5] = delta;
            }
        }
        acc[4] += 1.0;
        proj_ctr += 1;
        if (proj_ctr >= proj_every) {
            reproject(u, n, d);
            if (v)
                reproject(v, n, d);
            proj_ctr = 0;
        }
        t_next = t + exps[cursor] / rate;
        cursor += 1;
    }
    clock[0] = t;
    clock[1] = t_next;
    ctr[0] = cursor;
    ctr[1] = proj_ctr;
    return status;
}

/* e as an integer when it is one exactly (and at most 1024), else -1. */
static int64_t integer_exponent(double e)
{
    return (e >= 0.0 && e <= 1024.0 && e == floor(e)) ? (int64_t)e : -1;
}

#define PASTE_(a, b) a##b
#define PASTE(a, b) PASTE_(a, b)

/* The vector widths, in doubles per vector, that this CPU runs, as a bit
 * set: 2 on every CPU, and on x86-64 also 4 with AVX2 and 8 with AVX-512F
 * (which libgcc reports only where the OS saves the wider registers). */
int kac_widths(void)
{
    int widths = 2;
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        widths |= 4;
    if (__builtin_cpu_supports("avx512f"))
        widths |= 8;
#endif
    return widths;
}

/* The pass at three vector widths, each exported as kac_pair_sums_<VW>
 * for the tests: two 2-double vectors (4 rows), the width of SSE2 and
 * NEON, built for every CPU; on x86-64 also two 4-double vectors (8 rows)
 * built for AVX2 and two 8-double vectors (16 rows) built for AVX-512F,
 * which kac_pair_sums runs on CPUs that have them from the row counts
 * below (narrower lanes were slower there, and wider vectors without
 * their ISA are kept in memory). */
#define VW 2
#define PAIR_PASS kac_pair_sums_2
#define PAIR_TARGET
#include "_pair_pass.h"

#if defined(__x86_64__)
#define VW 4
#define PAIR_PASS kac_pair_sums_4
#define PAIR_TARGET __attribute__((target("avx2")))
#include "_pair_pass.h"

#define VW 8
#define PAIR_PASS kac_pair_sums_8
#define PAIR_TARGET __attribute__((target("avx512f")))
#include "_pair_pass.h"
#endif

/* kac_pair_sums runs the 16-row blocks from PAIR_ROWS_8 rows on and the
 * 8-row blocks from PAIR_ROWS_4: below, a block's dead lanes, pow
 * included, cost more than its wider vectors save.  The widths give the
 * same sums, so the choice changes no bit. */
#define PAIR_ROWS_8 32
#define PAIR_ROWS_4 8

/* For each of s configurations (u, v) of a stack, sums over all ordered
 * pairs (i, j), weighted by w_i w_j, of
 *   out[0] |du|^(2a)        out[1] |dv|^(2b)
 *   out[2] |du||dv| - du.dv  out[3] |du|^2 |dv|^2 - (du.dv)^2
 * with du = u_i - u_j, dv = v_i - v_j; u, v are (s, n, d), w is (n,) and
 * shared, out is (s, 4) and work (2 LANES d,), at most (32 d,).  Integral
 * exponents are raised by repeated squaring, others by pow.  One loop over
 * i < j per configuration, with no memory beyond work: the terms are
 * symmetric in (i, j) and vanish on the diagonal for a, b > 0.  A NULL v
 * fills out[0] of each configuration only.
 *
 * Vector lanes each own a row i and sum it over j > i in j order; the rows
 * are added to the totals in i order.  Every lane rounds alike at every
 * width (uu, vv and uv summed from 0 over k, the same squaring sequence,
 * sqrt(uu vv) - uv and uu vv - uv^2), so every width gives the same sums
 * bit for bit. */
int kac_pair_sums(const double *u, const double *v, const double *w,
                  int64_t s, int64_t n, int64_t d, double a, double b,
                  double *out, double *work)
{
#if defined(__x86_64__)
    int widths = kac_widths();
    if (widths & 8 && n >= PAIR_ROWS_8)
        return kac_pair_sums_8(u, v, w, s, n, d, a, b, out, work);
    if (widths & 4 && n >= PAIR_ROWS_4)
        return kac_pair_sums_4(u, v, w, s, n, d, a, b, out, work);
#endif
    return kac_pair_sums_2(u, v, w, s, n, d, a, b, out, work);
}

/* The square linear sum assignment: kac_assign is the shortest augmenting
 * path solver of scipy.optimize.linear_sum_assignment,
 * scipy/optimize/rectangular_lsap/rectangular_lsap.cpp (author PM Larsen),
 * which follows the pseudocode on pages 1685-1686 of
 *
 *     DF Crouse. On implementing 2D rectangular assignment algorithms.
 *     IEEE Transactions on Aerospace and Electronic Systems
 *     52(4):1679-1696, August 2016. doi: 10.1109/TAES.2016.140952
 *
 * Only the square, minimizing case is kept.  The duals, the arithmetic of
 * every reduced cost, the tie rule and the augmentation are scipy's, so
 * the permutation is scipy's, ties included; each search scans its
 * columns in index order, not in the order of scipy's remaining list (see
 * _assign_path.h).  scipy's code is under the following license:
 *
 * Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
 * All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions
 * are met:
 *
 * 1. Redistributions of source code must retain the above copyright
 *    notice, this list of conditions and the following disclaimer.
 *
 * 2. Redistributions in binary form must reproduce the above
 *    copyright notice, this list of conditions and the following
 *    disclaimer in the documentation and/or other materials provided
 *    with the distribution.
 *
 * 3. Neither the name of the copyright holder nor the names of its
 *    contributors may be used to endorse or promote products derived
 *    from this software without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
 * "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
 * LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
 * A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
 * OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
 * SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
 * LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
 * DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
 * THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
 * (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
 * OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
 */

/* The solver's arrays: work holds six rows of doubles (u, v, spc, key,
 * vscan, rank) and iwork six rows of int64s (path, row4col, sr, sc,
 * remaining, settled), each ASSIGN_STRIDE(n) long: the 8-wide scan reads
 * its last vector up to 7 past column n - 1, from padding that assign fills
 * once (key +inf, vscan -inf, rank -1).  In one search, spc holds a
 * column's shortest path cost once it is settled, key the costs of the
 * columns not yet settled (+inf after) and vscan their duals v (-inf
 * after); rank orders a column for scipy's tie rule by its place in
 * scipy's remaining list, and settled lists the columns in the order the
 * search settled them. */
#define ASSIGN_STRIDE(n) ((n) + 8)

struct assign_work {
    int64_t n;
    const double *cost;
    double *u, *v, *spc, *key, *vscan, *rank;
    int64_t *col4row, *path, *row4col, *sr, *sc, *remaining, *settled;
};

/* One shortest augmenting path from row i, a Dijkstra search over the
 * reduced costs that stops at the first free column it settles.  Returns
 * that column (the sink), with the path's length in *p_min_val and the
 * path's columns' predecessor rows in path, or -1 when every reduced cost
 * is infinite.  Spelled once, in _assign_path.h, at the pair pass's three
 * widths: augmenting_path_2 on every CPU (with the x86 min instruction
 * there) and, on x86-64, augmenting_path_4 for AVX2 and augmenting_path_8
 * for AVX-512F.  All settle the same columns, so they find the same
 * paths. */
#define VW 2
#define ASSIGN_PATH augmenting_path_2
#define ASSIGN_TARGET
#define VEC_MIN _mm_min_pd
#include "_assign_path.h"

#if defined(__x86_64__)
#define VW 4
#define ASSIGN_PATH augmenting_path_4
#define ASSIGN_TARGET __attribute__((target("avx2")))
#define VEC_MIN _mm256_min_pd
#include "_assign_path.h"

#define VW 8
#define ASSIGN_PATH augmenting_path_8
#define ASSIGN_TARGET __attribute__((target("avx512f")))
#define VEC_MIN _mm512_min_pd
#include "_assign_path.h"
#endif

typedef int64_t (*augmenting_path)(const struct assign_work *, int64_t,
                                   double *);

/* kac_assign (see there) with one width of the search. */
static int assign(const double *cost, int64_t n, int64_t *col4row,
                  double *work, int64_t *iwork, augmenting_path search)
{
    int64_t m = ASSIGN_STRIDE(n);
    struct assign_work w = {
        n, cost, work, work + m, work + 2 * m, work + 3 * m, work + 4 * m,
        work + 5 * m, col4row, iwork, iwork + m, iwork + 2 * m, iwork + 3 * m,
        iwork + 4 * m, iwork + 5 * m};
    double *u = w.u, *v = w.v, *shortest_path_costs = w.spc;
    int64_t *path = w.path, *row4col = w.row4col, *sr = w.sr, *sc = w.sc;
    for (int64_t k = n; k < m; k++) {
        w.key[k] = INFINITY;
        w.vscan[k] = -INFINITY;
        w.rank[k] = -1.0;
    }
    for (int64_t k = 0; k < n; k++) {
        u[k] = 0;
        v[k] = 0;
        path[k] = -1;
        col4row[k] = -1;
        row4col[k] = -1;
    }

    /* iteratively build the solution */
    for (int64_t cur_row = 0; cur_row < n; cur_row++) {
        double min_val;
        int64_t sink = search(&w, cur_row, &min_val);
        if (sink < 0)
            return -1;

        /* update the dual variables */
        u[cur_row] += min_val;
        for (int64_t i = 0; i < n; i++) {
            if (sr[i] && i != cur_row)
                u[i] += min_val - shortest_path_costs[col4row[i]];
        }
        for (int64_t j = 0; j < n; j++) {
            if (sc[j])
                v[j] -= min_val - shortest_path_costs[j];
        }

        /* augment the previous solution */
        int64_t j = sink;
        for (;;) {
            int64_t i = path[j];
            row4col[j] = i;
            int64_t swap = col4row[i];
            col4row[i] = j;
            j = swap;
            if (i == cur_row)
                break;
        }
    }
    return 0;
}

/* Permutation col4row minimizing sum_i cost[i, col4row[i]] over the n x n
 * cost matrix (C order).  work holds 6 (n + 8) doubles and iwork 6 (n + 8)
 * int64s.  Returns 0, or -1 when no finite assignment exists.  kac_assign
 * runs the widest search the CPU has (see kac_widths); kac_assign_<VW>
 * runs the VW-wide one and is exported for the tests. */
int kac_assign_2(const double *cost, int64_t n, int64_t *col4row,
                 double *work, int64_t *iwork)
{
    return assign(cost, n, col4row, work, iwork, augmenting_path_2);
}

#if defined(__x86_64__)
int kac_assign_4(const double *cost, int64_t n, int64_t *col4row,
                 double *work, int64_t *iwork)
{
    return assign(cost, n, col4row, work, iwork, augmenting_path_4);
}

int kac_assign_8(const double *cost, int64_t n, int64_t *col4row,
                 double *work, int64_t *iwork)
{
    return assign(cost, n, col4row, work, iwork, augmenting_path_8);
}
#endif

int kac_assign(const double *cost, int64_t n, int64_t *col4row, double *work,
               int64_t *iwork)
{
#if defined(__x86_64__)
    int widths = kac_widths();
    if (widths & 8)
        return kac_assign_8(cost, n, col4row, work, iwork);
    if (widths & 4)
        return kac_assign_4(cost, n, col4row, work, iwork);
#endif
    return kac_assign_2(cost, n, col4row, work, iwork);
}
