/* Native cost kernels for repro.perf (loaded by repro/perf/native.py).
 *
 * Both routines repeat the Python reference arithmetic operation for
 * operation, so their outputs are bit-identical to it.  Build with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Binary max-heap of n doubles: push v. */
static void heap_push(double *h, int64_t *n, double v)
{
    int64_t i = (*n)++;
    for (; i > 0 && h[(i - 1) / 2] < v; i = (i - 1) / 2)
        h[i] = h[(i - 1) / 2];
    h[i] = v;
}

/* Binary max-heap of n doubles: remove and return the top. */
static double heap_pop(double *h, int64_t *n)
{
    double top = h[0], v = h[--*n];
    int64_t i = 0, c;
    for (; (c = 2 * i + 1) < *n; i = c) {
        if (c + 1 < *n && h[c + 1] > h[c])
            c++;
        if (h[c] <= v)
            break;
        h[i] = h[c];
    }
    h[i] = v;
    return top;
}

/* out[t] = SAE(x[0..t]) for t < m, the two-heap running median of
 * costrows._running_sae.  reverse != 0 reads x[m-1], ..., x[0] and
 * writes out[m-1-t], i.e. out[i] = SAE(x[i..m-1]).  `low` is a max-heap
 * of the values <= median; `high` holds the rest negated, so it is a
 * max-heap too (negation is exact).  Returns -1 when the heap scratch
 * cannot be allocated. */
int running_sae(const double *x, int64_t m, int reverse, double *out)
{
    double *low = malloc(sizeof(double) * (size_t)(m + 1));
    double *high = low + m / 2 + 1;
    int64_t nl = 0, nh = 0, t;
    double low_sum = 0.0, high_sum = 0.0, v, median, sae;
    if (low == NULL)
        return -1;
    for (t = 0; t < m; t++) {
        v = reverse ? x[m - 1 - t] : x[t];
        if (nl == 0 || v <= low[0]) {
            heap_push(low, &nl, v);
            low_sum += v;
        } else {
            heap_push(high, &nh, -v);
            high_sum += v;
        }
        if (nl > nh + 1) {
            v = heap_pop(low, &nl);
            low_sum -= v;
            heap_push(high, &nh, -v);
            high_sum += v;
        } else if (nh > nl) {
            v = -heap_pop(high, &nh);
            high_sum -= v;
            heap_push(low, &nl, v);
            low_sum += v;
        }
        median = low[0];
        sae = (high_sum - (double)nh * median) + ((double)nl * median - low_sum);
        out[reverse ? m - 1 - t : t] = sae < 0.0 ? 0.0 : sae;
    }
    free(low);
    return 0;
}

/* For each stop p = stops[r]: the minimum over candidates c with
 * starts[c] < p of SSE(starts[c], p) + offsets[c], SSE from the prefix
 * sums exactly as PrefixSSECost.grid computes it (clamped like numpy's
 * maximum(sse, 0.0)).  Ties go to the leftmost candidate, a NaN wins
 * like numpy's argmin, and a row with no valid start gets inf at 0. */
void sse_argmin(const double *prefix, const double *prefix_sq,
                const int64_t *starts, const double *offsets, int64_t width,
                const int64_t *stops, int64_t count,
                double *best_val, int64_t *best_idx)
{
    int64_t r, c, p, s, bi;
    double ps, psq, t, tsq, sse, total, best;
    for (r = 0; r < count; r++) {
        p = stops[r];
        ps = prefix[p];
        psq = prefix_sq[p];
        best = INFINITY;
        bi = 0;
        for (c = 0; c < width; c++) {
            s = starts[c];
            if (s >= p)
                continue;
            t = ps - prefix[s];
            tsq = psq - prefix_sq[s];
            sse = tsq - t * t / (double)(p - s);
            total = (sse <= 0.0 ? 0.0 : sse) + offsets[c];
            if (isnan(total)) {
                best = total;
                bi = c;
                break;
            }
            if (total < best) {
                best = total;
                bi = c;
            }
        }
        best_val[r] = best;
        best_idx[r] = bi;
    }
}
