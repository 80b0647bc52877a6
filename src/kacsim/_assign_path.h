/* One shortest augmenting path of kac_assign at one vector width.
 * _engine.c includes this file once per width, with VW (doubles per
 * vector), ASSIGN_PATH (the function's name), ASSIGN_TARGET (its
 * attributes, for the ISA the width needs) and VEC_MIN (the x86 min
 * intrinsic at this width) defined; the names below are suffixed with VW,
 * and the macros are undefined at the end.
 *
 * scipy scans the columns left in a list that starts in reverse order and
 * loses the settled column by swap removal.  This search scans all
 * columns in index order, VW at a time and without branches, with the
 * same arithmetic per column, and a settled column drops out through its
 * data: its key is +inf and its scan copy of v -inf, so its reduced cost
 * is +inf and never below its key.  The scan order matters only to
 * scipy's tie rule (among the columns at the lowest key the free one
 * latest in the list, else the one earliest there), so every column
 * carries a rank that orders it by that rule: n + its place in the list
 * if it is free, n - 1 - its place if not.  Each lane keeps the lowest
 * key it meets and the highest rank at that key, and the highest rank
 * over the lanes at the lowest key names the column scipy settles.
 *
 * The path is not recorded during the scan: a column's key last fell at
 * the first step whose reduced cost equals its settled cost, so the rows
 * of the path's few columns are found again after the search. */

#define vec PASTE(vec, VW)
#define mask PASTE(mask, VW)
#define lowest PASTE(lowest, VW)
#define scan_block PASTE(scan_block, VW)
#define vec_min PASTE(vec_min, VW)
#define SCAN_FN static inline __attribute__((always_inline)) ASSIGN_TARGET
typedef double vec __attribute__((vector_size(VW * sizeof(double))));
typedef int64_t mask __attribute__((vector_size(VW * sizeof(int64_t))));

/* min(a, b) lane by lane as a < b ? a : b, which is the x86 min
 * instruction; a blend elsewhere */
SCAN_FN vec vec_min(vec a, vec b)
{
#if defined(__x86_64__)
    return VEC_MIN(a, b);
#else
    mask lower = a < b;
    return (vec)(((mask)a & lower) | ((mask)b & ~lower));
#endif
}

/* Per lane, the lowest key met and the highest rank among the columns
 * at it. */
struct lowest {
    vec key, rank;
};

/* Columns j .. j + VW - 1 from a row whose costs there are c: the reduced
 * cost min_val + c - u_i - v_j, in that order, replaces a larger key, and
 * the lanes of lo take the column's rank if its key is lower, or as low
 * and its rank higher. */
SCAN_FN void scan_block(double *restrict key_row,
                        const double *restrict vscan,
                        const double *restrict rank_row, const vec *c,
                        const vec *min_val, const vec *ui, struct lowest *lo)
{
    vec key, vs, rank;
    memcpy(&key, key_row, sizeof key);
    memcpy(&vs, vscan, sizeof vs);
    memcpy(&rank, rank_row, sizeof rank);
    key = vec_min(*min_val + *c - *ui - vs, key);
    memcpy(key_row, &key, sizeof key);
    mask take = (key < lo->key) | ((key == lo->key) & (rank > lo->rank));
    lo->key = vec_min(key, lo->key);
    lo->rank = (vec)(((mask)rank & take) | ((mask)lo->rank & ~take));
}

/* augmenting_path (see there) at this width. */
ASSIGN_TARGET
static int64_t ASSIGN_PATH(const struct assign_work *w, int64_t cur_row,
                           double *p_min_val)
{
    int64_t n = w->n;
    double *restrict key = w->key, *restrict vscan = w->vscan;
    double *restrict rank = w->rank;
    for (int64_t j = 0; j < n; j++) {
        key[j] = INFINITY;
        vscan[j] = w->v[j];
        w->remaining[j] = n - 1 - j;
        rank[j] = w->row4col[j] == -1 ? 2 * n - 1 - j : j;
        w->sr[j] = 0;
        w->sc[j] = 0;
    }

    int64_t i = cur_row, steps = 0, sink = -1;
    double min_val = 0;
    while (sink == -1) {
        w->sr[i] = 1;
        const double *row = w->cost + i * n;
        vec mv = {0.0}, ui = {0.0}, c;
        mv += min_val;
        ui += w->u[i];
        /* two sets of lanes, so two blocks' comparisons overlap */
        struct lowest lo[2];
        for (int s = 0; s < 2; s++) {
            lo[s].key = (vec){0.0} + INFINITY;
            lo[s].rank = (vec){0.0} - 1.0;
        }
        int64_t j = 0;
        for (; j + 2 * VW <= n; j += 2 * VW) {
            memcpy(&c, row + j, sizeof c);
            scan_block(key + j, vscan + j, rank + j, &c, &mv, &ui, &lo[0]);
            memcpy(&c, row + j + VW, sizeof c);
            scan_block(key + j + VW, vscan + j + VW, rank + j + VW, &c, &mv,
                       &ui, &lo[1]);
        }
        if (j + VW <= n) {
            memcpy(&c, row + j, sizeof c);
            scan_block(key + j, vscan + j, rank + j, &c, &mv, &ui, &lo[0]);
            j += VW;
        }
        if (j < n) {
            /* the lanes past the last column meet the padding: key +inf,
             * scan copy -inf and rank -1 */
            c = (vec){0.0};
            memcpy(&c, row + j, (n - j) * sizeof(double));
            scan_block(key + j, vscan + j, rank + j, &c, &mv, &ui, &lo[1]);
        }

        /* the lowest key, and among the columns at it the highest rank,
         * which names the column through its place in remaining */
        double low = INFINITY, top = -1.0;
        for (int s = 0; s < 2; s++)
            for (int l = 0; l < VW; l++)
                if (lo[s].key[l] < low
                    || (lo[s].key[l] == low && lo[s].rank[l] > top)) {
                    low = lo[s].key[l];
                    top = lo[s].rank[l];
                }
        if (low == INFINITY)
            return -1;
        int64_t p = top < n ? n - 1 - (int64_t)top : (int64_t)top - n;
        j = w->remaining[p];

        min_val = key[j];
        w->spc[j] = min_val;
        key[j] = INFINITY;
        vscan[j] = -INFINITY;
        w->settled[steps++] = j;
        if (w->row4col[j] == -1)
            sink = j;
        else
            i = w->row4col[j];

        w->sc[j] = 1;
        int64_t last = w->remaining[n - steps];
        w->remaining[p] = last;
        rank[last] = w->row4col[last] == -1 ? n + p : n - 1 - p;
    }

    /* The path back from the sink.  A column's key last fell at the first
     * step whose reduced cost equals its settled cost, so that step's row
     * is its predecessor (step s scans row cur_row or the row of the
     * column settled before it, from that column's cost). */
    for (int64_t j = sink;;) {
        for (int64_t s = 0;; s++) {
            int64_t prev = s ? w->settled[s - 1] : -1;
            i = s ? w->row4col[prev] : cur_row;
            double r = (s ? w->spc[prev] : 0.0) + w->cost[i * n + j] - w->u[i]
                       - w->v[j];
            if (r == w->spc[j])
                break;
        }
        w->path[j] = i;
        if (i == cur_row)
            break;
        j = w->col4row[i];
    }

    *p_min_val = min_val;
    return sink;
}

#undef vec
#undef mask
#undef lowest
#undef scan_block
#undef vec_min
#undef SCAN_FN
#undef VW
#undef ASSIGN_PATH
#undef ASSIGN_TARGET
#undef VEC_MIN
