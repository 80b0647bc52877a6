/* Event loops for the single and coupled collision dynamics.
 *
 * Loaded through ctypes by _engine.py, which documents the accumulator
 * layout and the status codes.  The arithmetic follows the python
 * reference steppers term by term; build with -ffp-contract=off (and never
 * -ffast-math) so no fused multiply-add changes the rounding.
 *
 * Arrays are C-contiguous: states (n, d), per-event arrays (nb,) or
 * (nb, d).  clock = {t, t_next} and ctr = {cursor, proj_ctr} are updated in
 * place.  A pair index outside [0, n) stops the loop with status -1, a
 * projection that annihilates its Gaussian with status -2; either stop
 * leaves the event's pair unchanged.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define PARALLEL_EPS 1e-13
#define ANTIPODAL_EPS 1e-9
#define REORTHO_RATIO 1e-8

/* out = (a - b)/|a - b|; returns |a - b|.  Zero difference -> e_0. */
static double unit_of_diff(const double *a, const double *b, double *out,
                           int64_t d)
{
    double s = 0.0;
    for (int64_t k = 0; k < d; k++) {
        out[k] = a[k] - b[k];
        s += out[k] * out[k];
    }
    double r = sqrt(s);
    if (r > 0.0) {
        double inv = 1.0 / r;
        for (int64_t k = 0; k < d; k++)
            out[k] *= inv;
    } else {
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
    double s = 0.0;
    for (int64_t k = 0; k < d; k++) {
        double w = -c * n[k];
        if (k == k0)
            w += 1.0;
        out[k] = w;
        s += w * w;
    }
    double inv = 1.0 / sqrt(s);
    for (int64_t k = 0; k < d; k++)
        out[k] *= inv;
}

/* Remove from x its components along n and, unless m is NULL, along m
 * (both coefficients from the same x); returns |x|^2 afterwards. */
static double project_out(double *x, const double *n, const double *m,
                          int64_t d)
{
    double a = 0.0, b = 0.0;
    for (int64_t k = 0; k < d; k++) {
        a += x[k] * n[k];
        if (m)
            b += x[k] * m[k];
    }
    double s = 0.0;
    for (int64_t k = 0; k < d; k++) {
        x[k] -= a * n[k];
        if (m)
            x[k] -= b * m[k];
        s += x[k] * x[k];
    }
    return s;
}

/* Unit vector along g projected orthogonal to n and m (orthonormal; m may
 * be NULL), the rule of geometry.complement_unit: a g within a relative
 * REORTHO_RATIO of the span is projected twice.  Returns -1, with out not
 * normalized, when the projection keeps |w| <= 1e-12. */
static int complement_unit(const double *g, const double *n, const double *m,
                           double *out, int64_t d)
{
    double g2 = 0.0;
    for (int64_t k = 0; k < d; k++)
        g2 += g[k] * g[k];
    memcpy(out, g, (size_t)d * sizeof(double));
    double s = project_out(out, n, m, d);
    if (s < REORTHO_RATIO * g2)
        s = project_out(out, n, m, d);
    if (!(s > 1e-24))
        return -1;
    double inv = 1.0 / sqrt(s);
    for (int64_t k = 0; k < d; k++)
        out[k] *= inv;
    return 0;
}

/* Scale x (length d) to unit length. */
static void normalize(double *x, int64_t d)
{
    double s = 0.0;
    for (int64_t k = 0; k < d; k++)
        s += x[k] * x[k];
    double inv = 1.0 / sqrt(s);
    for (int64_t k = 0; k < d; k++)
        x[k] *= inv;
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

static double sin_from_cos(double c)
{
    double x = 1.0 - c * c;
    return sqrt(x > 0.0 ? x : 0.0);
}

int kac_advance_kac(double *v, int64_t n, int64_t d, double *clock,
                    double t_stop, double rate, double max_events,
                    const double *thetas, const double *cphis,
                    const double *exps, const int64_t *pi, const int64_t *pj,
                    const double *gl, int64_t nb, int64_t *ctr,
                    int64_t proj_every, double *acc, double *work)
{
    double *n_hat = work, *m_hat = work + d, *l_hat = work + 2 * d;
    double *npr = work + 3 * d, *s_arr = work + 4 * d;
    double t = clock[0], t_next = clock[1];
    int64_t cursor = ctr[0], proj_ctr = ctr[1];
    int status;
    for (;;) {
        if (t_next > t_stop) {
            t = t_stop;
            status = 0;
            break;
        }
        if (acc[1] >= max_events) {
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
        double *vi = v + i * d, *vj = v + j * d;
        double r = unit_of_diff(vi, vj, n_hat, d);
        ortho_axis(n_hat, m_hat, d);
        if (complement_unit(gl + cursor * d, n_hat, m_hat, l_hat, d)) {
            status = -2;
            break;
        }
        double cphi = cphis[cursor];
        double sphi = sin_from_cos(cphi);
        double ct = cos(thetas[cursor]);
        double st = sin(thetas[cursor]);
        double e_old = 0.0;
        for (int64_t k = 0; k < d; k++) {
            s_arr[k] = vi[k] + vj[k];
            e_old += vi[k] * vi[k] + vj[k] * vj[k];
            npr[k] = ct * n_hat[k] + st * (cphi * m_hat[k] + sphi * l_hat[k]);
        }
        /* an l_hat that is off-orthogonal by rounding (in-plane Gaussian
         * nearly in span(n, m)) would otherwise leak into the energy */
        normalize(npr, d);
        double e_new = 0.0, mom_err = 0.0;
        for (int64_t k = 0; k < d; k++) {
            double a = 0.5 * (s_arr[k] + r * npr[k]);
            double b = 0.5 * (s_arr[k] - r * npr[k]);
            vi[k] = a;
            vj[k] = b;
            e_new += a * a + b * b;
            double me = fabs((a + b) - s_arr[k]);
            if (me > mom_err)
                mom_err = me;
        }
        double err = fabs(e_new - e_old) / (e_old + 1e-300);
        double mom_rel = mom_err / (sqrt(e_old) + 1e-300);
        if (mom_rel > err)
            err = mom_rel;
        if (err > acc[0])
            acc[0] = err;
        acc[1] += 1.0;
        proj_ctr += 1;
        if (proj_ctr >= proj_every) {
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

int kac_advance_coupled(double *u, double *v, int64_t n, int64_t d,
                        double *clock, double t_stop, double rate,
                        double max_events, const double *thetas,
                        const double *cphis, const double *exps,
                        const int64_t *pi, const int64_t *pj,
                        const double *gl, const double *gs, int64_t nb,
                        int64_t *ctr, int64_t proj_every, double *acc,
                        double *work)
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
        double *vi = v + i * d, *vj = v + j * d;
        double r_u = unit_of_diff(ui, uj, nu, d);
        double r_v = unit_of_diff(vi, vj, nv, d);
        /* a zero relative velocity leaves its copy unchanged whatever the
         * outgoing direction; borrow the other copy's direction so the
         * active copy gets a clean marginal draw */
        if (r_u == 0.0 && r_v > 0.0)
            memcpy(nu, nv, (size_t)d * sizeof(double));
        else if (r_v == 0.0 && r_u > 0.0)
            memcpy(nv, nu, (size_t)d * sizeof(double));
        double c_raw = 0.0;
        for (int64_t k = 0; k < d; k++)
            c_raw += nu[k] * nv[k];
        double c = c_raw;
        if (c > 1.0)
            c = 1.0;
        else if (c < -1.0)
            c = -1.0;
        int antipodal = 0, parallel = 0;
        if (1.0 - c < PARALLEL_EPS) {
            parallel = 1;
            ortho_axis(nu, mu, d);
            memcpy(mv, mu, (size_t)d * sizeof(double));
        } else if (1.0 + c < ANTIPODAL_EPS) {
            /* no continuously transported frame exists; complete the plane
             * with an independent random direction orthogonal to nu */
            antipodal = 1;
            if (complement_unit(gs + cursor * d, nu, NULL, mu, d)) {
                status = -2;
                break;
            }
            for (int64_t k = 0; k < d; k++)
                mv[k] = -mu[k];
        } else {
            double s = 0.0;
            for (int64_t k = 0; k < d; k++) {
                mu[k] = nv[k] - c * nu[k];
                s += mu[k] * mu[k];
            }
            double inv = 1.0 / sqrt(s);
            for (int64_t k = 0; k < d; k++)
                mu[k] *= inv;
            s = 0.0;
            for (int64_t k = 0; k < d; k++) {
                mv[k] = nu[k] - c * nv[k];
                s += mv[k] * mv[k];
            }
            inv = -1.0 / sqrt(s);
            for (int64_t k = 0; k < d; k++)
                mv[k] *= inv;
        }
        if (complement_unit(gl + cursor * d, nu, mu, l_hat, d)) {
            status = -2;
            break;
        }
        double cphi = cphis[cursor];
        double sphi = sin_from_cos(cphi);
        double ct = cos(thetas[cursor]);
        double st = sin(thetas[cursor]);
        double d_old = 0.0, e_old_u = 0.0, e_old_v = 0.0;
        for (int64_t k = 0; k < d; k++) {
            su[k] = ui[k] + uj[k];
            sv[k] = vi[k] + vj[k];
            e_old_u += ui[k] * ui[k] + uj[k] * uj[k];
            e_old_v += vi[k] * vi[k] + vj[k] * vj[k];
            double wui = ui[k] - vi[k];
            double wuj = uj[k] - vj[k];
            d_old += wui * wui + wuj * wuj;
            npu[k] = ct * nu[k] + st * (cphi * mu[k] + sphi * l_hat[k]);
            /* axes agree to within the cutoff: both copies take the same
             * outgoing direction, so the pair distance cannot grow from a
             * frame that is stale for one of them */
            if (parallel)
                npv[k] = npu[k];
            else
                npv[k] = ct * nv[k] + st * (cphi * mv[k] + sphi * l_hat[k]);
        }
        /* force exactly unit outgoing directions; near the branch cutoffs
         * the transported frame can be off-orthonormal by the residual
         * angle and would otherwise leak into the energies */
        normalize(npu, d);
        normalize(npv, d);
        double d_new = 0.0, e_new_u = 0.0, e_new_v = 0.0;
        double mom_u = 0.0, mom_v = 0.0;
        for (int64_t k = 0; k < d; k++) {
            double a = 0.5 * (su[k] + r_u * npu[k]);
            double b = 0.5 * (su[k] - r_u * npu[k]);
            double p = 0.5 * (sv[k] + r_v * npv[k]);
            double q = 0.5 * (sv[k] - r_v * npv[k]);
            ui[k] = a;
            uj[k] = b;
            vi[k] = p;
            vj[k] = q;
            e_new_u += a * a + b * b;
            e_new_v += p * p + q * q;
            d_new += (a - p) * (a - p) + (b - q) * (b - q);
            double me = fabs((a + b) - su[k]);
            if (me > mom_u)
                mom_u = me;
            me = fabs((p + q) - sv[k]);
            if (me > mom_v)
                mom_v = me;
        }
        double delta = d_new - d_old;
        double err = fabs(e_new_u - e_old_u) / (e_old_u + 1e-300);
        double err_v = fabs(e_new_v - e_old_v) / (e_old_v + 1e-300);
        if (err_v > err)
            err = err_v;
        double mom_rel = mom_u / (sqrt(e_old_u) + 1e-300);
        if (mom_rel > err)
            err = mom_rel;
        mom_rel = mom_v / (sqrt(e_old_v) + 1e-300);
        if (mom_rel > err)
            err = mom_rel;
        if (err > acc[2])
            acc[2] = err;
        if (antipodal) {
            acc[3] += 1.0;
            if (delta > acc[5])
                acc[5] = delta;
        } else {
            double resid = delta + st * st * sphi * sphi
                                       * (r_u * r_v - r_u * r_v * c_raw);
            if (fabs(resid) > acc[0]) {
                acc[0] = fabs(resid);
                acc[6] = t;
            }
            if (delta > acc[1]) {
                acc[1] = delta;
                acc[7] = t;
            }
        }
        acc[4] += 1.0;
        proj_ctr += 1;
        if (proj_ctr >= proj_every) {
            reproject(u, n, d);
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
