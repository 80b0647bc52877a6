/* The pair pass at one vector width.  _engine.c includes this file once per
 * width, with VW (doubles per vector), PAIR_PASS (the function's name) and
 * PAIR_TARGET (attributes of every function here, for the ISA the width
 * needs) defined; the names below are suffixed with VW, and the macros are
 * undefined at the end.
 *
 * The pass takes LANES = 2 VW rows i at a time, in two vectors.  The
 * helpers take vectors through pointers: a vector passed by value would
 * change the calling convention with the ISA (gcc's -Wpsabi). */

#define LANES (2 * VW)
#define vec PASTE(vec, VW)
#define mask PASTE(mask, VW)
#define vec_power PASTE(vec_power, VW)
#define vec_add PASTE(vec_add, VW)
#define LANE_FN static inline __attribute__((always_inline)) PAIR_TARGET
typedef double vec __attribute__((vector_size(VW * sizeof(double))));
typedef int64_t mask __attribute__((vector_size(VW * sizeof(int64_t))));

/* x^e on every lane of x0 and x1, in place: for k >= 0, e as an integer,
 * the same repeated squaring on each lane; for k < 0, pow lane by lane. */
LANE_FN void vec_power(vec *x0, vec *x1, double e, int64_t k)
{
    if (k < 0) {
        for (int l = 0; l < VW; l++) {
            (*x0)[l] = pow((*x0)[l], e);
            (*x1)[l] = pow((*x1)[l], e);
        }
        return;
    }
    vec r0 = {0.0}, r1 = {0.0};
    r0 += 1.0;
    r1 += 1.0;
    for (;;) {
        if (k & 1) {
            r0 *= *x0;
            r1 *= *x1;
        }
        k >>= 1;
        if (!k)
            break;
        *x0 *= *x0;
        *x1 *= *x1;
    }
    *x0 = r0;
    *x1 = r1;
}

/* r += wj x on the lanes live marks, exactly +0.0 on the others: the bits
 * are masked, so an inf or nan in a dead lane adds nothing. */
LANE_FN void vec_add(vec r[2], double wj, const vec *x0, const vec *x1,
                     const mask live[2])
{
    r[0] += (vec)((mask)(wj * *x0) & live[0]);
    r[1] += (vec)((mask)(wj * *x1) & live[1]);
}

/* kac_pair_sums (see there) at this width.  Lane l owns row i0 + l of a
 * block and streams every j > i0 in order, adding the pair's terms where
 * j > i0 + l and +0.0 elsewhere, also past the last row; a row sum starts
 * at +0.0, so the +0.0's leave it as it is and it is the sum over
 * j > i0 + l in j order.  The block's rows are read from (d, LANES) tiles
 * in work, one cache line per coordinate at 4 doubles per vector and two
 * at 8: transposed (d, n) copies would put the d loads of a power-of-two
 * n, such as 2048, in one cache set. */
PAIR_TARGET
int PAIR_PASS(const double *u, const double *v, const double *w, int64_t s,
              int64_t n, int64_t d, double a, double b, double *out,
              double *work)
{
    int64_t ka = integer_exponent(a), kb = integer_exponent(b);
    double *ut = work, *vt = work + LANES * d;
    vec lane[2];    /* l, as a double: SSE2 has no 64-bit integer compare */
    for (int l = 0; l < VW; l++) {
        lane[0][l] = l;
        lane[1][l] = VW + l;
    }
    for (int64_t c = 0; c < s; c++, u += n * d, v = v ? v + n * d : NULL,
                 out += 4) {
        double tot[4] = {0.0, 0.0, 0.0, 0.0};
        for (int64_t i0 = 0; i0 < n; i0 += LANES) {
            for (int l = 0; l < LANES; l++)
                for (int64_t k = 0; k < d; k++) {
                    int row = i0 + l < n;
                    ut[k * LANES + l] = row ? u[(i0 + l) * d + k] : 0.0;
                    if (v)
                        vt[k * LANES + l] = row ? v[(i0 + l) * d + k] : 0.0;
                }
            vec r[4][2] = {{{0.0}}};
            for (int64_t j = i0 + 1; j < n; j++) {
                const double *uj = u + j * d, *vj = v ? v + j * d : NULL;
                double jl = (double)(j - i0);
                mask live[2] = {lane[0] < jl, lane[1] < jl};
                vec uu0 = {0.0}, vv0 = {0.0}, uv0 = {0.0};
                vec uu1 = {0.0}, vv1 = {0.0}, uv1 = {0.0};
                vec x0, x1, y0, y1;
                for (int64_t k = 0; k < d; k++) {
                    memcpy(&x0, ut + k * LANES, sizeof x0);
                    memcpy(&x1, ut + k * LANES + VW, sizeof x1);
                    x0 -= uj[k];
                    x1 -= uj[k];
                    uu0 += x0 * x0;
                    uu1 += x1 * x1;
                    if (!v)
                        continue;
                    memcpy(&y0, vt + k * LANES, sizeof y0);
                    memcpy(&y1, vt + k * LANES + VW, sizeof y1);
                    y0 -= vj[k];
                    y1 -= vj[k];
                    vv0 += y0 * y0;
                    vv1 += y1 * y1;
                    uv0 += x0 * y0;
                    uv1 += x1 * y1;
                }
                double wj = w[j];
                x0 = uu0;
                x1 = uu1;
                vec_power(&x0, &x1, a, ka);
                vec_add(r[0], wj, &x0, &x1, live);
                if (!v)
                    continue;
                y0 = vv0;
                y1 = vv1;
                vec_power(&y0, &y1, b, kb);
                vec_add(r[1], wj, &y0, &y1, live);
                vec uuvv0 = uu0 * vv0, uuvv1 = uu1 * vv1;
                for (int l = 0; l < VW; l++) {
                    x0[l] = sqrt(uuvv0[l]);
                    x1[l] = sqrt(uuvv1[l]);
                }
                x0 -= uv0;
                x1 -= uv1;
                vec_add(r[2], wj, &x0, &x1, live);
                x0 = uuvv0 - uv0 * uv0;
                x1 = uuvv1 - uv1 * uv1;
                vec_add(r[3], wj, &x0, &x1, live);
            }
            double rows[4][LANES];
            memcpy(rows, r, sizeof rows);
            for (int l = 0; l < LANES && i0 + l < n; l++)
                for (int m = 0; m < 4; m++)
                    tot[m] += w[i0 + l] * rows[m][l];
        }
        for (int m = 0; m < (v ? 4 : 1); m++)
            out[m] = 2.0 * tot[m];
    }
    return 0;
}

#undef LANES
#undef vec
#undef mask
#undef vec_power
#undef vec_add
#undef LANE_FN
#undef VW
#undef PAIR_PASS
#undef PAIR_TARGET
