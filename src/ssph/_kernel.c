/* The compiled kernels of ssph, each giving the bytes of its numpy form:
   window_scores, the best-path log score of every width-symbol window of
   a symbol run under one HMM (ssph.hmm._window_scores), and
   estep_forward and estep_counts, the E-step of ssph.hmm._EStep.

   window_scores makes the same IEEE additions in the same order as the
   numpy kernel, and its compare picks what np.maximum picks on log
   parameters, which lie in [-inf, 0] and are never NaN. The E-step makes
   the multiplies, adds and divides of hmm._EStep's numpy fallback, in the
   order its docstring writes down. None of them may be built with
   -ffast-math or -Ofast, which let the compiler reorder the adds and assume
   no infinities; -ffp-contract=off keeps the build free of fused
   multiply-adds, which would round a product and a sum once instead of
   twice.

   Every kernel works over blocks of windows, state-major, so that a
   block's vectors stay in L1 and each step is a loop over contiguous
   doubles that the compiler vectorizes; target_clones builds one loop per
   SIMD level and picks the best the CPU has when the library loads. */

#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 512 /* windows per block of window_scores */

#ifdef KERNEL_ONE_TARGET /* for tests: one build per -march level */
#define TARGETS
#else
#define TARGETS __attribute__((target_clones("avx512f", "avx2", "default")))
#endif

/* scores[s] = the best-path log score of window s, s < m, under the model
   of n states with log initial probabilities init (n), log transitions
   trans (n x n, row-major, trans[i * n + j] from i to j), where emit holds
   each state's log emission of every symbol of the run, gathered once:
   emit[j * (m + width - 1) + s] for state j and symbol s. Returns 0, or -1
   when its buffers cannot be allocated. */
TARGETS
int window_scores(ptrdiff_t n, ptrdiff_t width, ptrdiff_t m,
                  const double *init, const double *trans,
                  const double *emit, double *scores)
{
    ptrdiff_t run = m + width - 1;
    double *buffer = malloc(2 * (size_t)n * BLOCK * sizeof *buffer);
    if (buffer == NULL)
        return -1;
    for (ptrdiff_t s0 = 0; s0 < m; s0 += BLOCK) {
        ptrdiff_t k = m - s0 < BLOCK ? m - s0 : BLOCK;
        double *delta = buffer, *next = buffer + n * BLOCK;
        for (ptrdiff_t j = 0; j < n; j++) {
            double *restrict d = delta + j * BLOCK;
            const double *restrict e = emit + j * run + s0;
            for (ptrdiff_t b = 0; b < k; b++)
                d[b] = init[j] + e[b];
        }
        for (ptrdiff_t t = 1; t < width; t++) {
            for (ptrdiff_t j = 0; j < n; j++) {
                double *restrict best = next + j * BLOCK;
                const double *restrict d = delta;
                const double *restrict e = emit + j * run + s0 + t;
                double move = trans[j];
                for (ptrdiff_t b = 0; b < k; b++)
                    best[b] = d[b] + move;
                for (ptrdiff_t i = 1; i < n; i++) {
                    const double *restrict di = delta + i * BLOCK;
                    double step = trans[i * n + j];
                    for (ptrdiff_t b = 0; b < k; b++) {
                        double a = best[b], c = di[b] + step;
                        best[b] = a >= c ? a : c;
                    }
                }
                for (ptrdiff_t b = 0; b < k; b++)
                    best[b] += e[b];
            }
            double *swap = delta;
            delta = next;
            next = swap;
        }
        double *restrict out = scores + s0;
        memcpy(out, delta, k * sizeof *out);
        for (ptrdiff_t j = 1; j < n; j++) {
            const double *restrict d = delta + j * BLOCK;
            for (ptrdiff_t b = 0; b < k; b++)
                out[b] = out[b] >= d[b] ? out[b] : d[b];
        }
    }
    free(buffer);
    return 0;
}

/* ESTEP_BLOCK, the windows per block of the E-step, and LANES, the lanes of
   its sums across windows (window b adds into lane b % LANES in window
   order, then the lanes add in lane order), come from the build command:
   ssph._ckernel.CFLAGS passes its E_STEP_BLOCK and E_STEP_LANES. */

/* out[b] = e[sym[b]] for b < k: a loop of its own, since no SIMD level
   here vectorizes a gather, and the arithmetic on what it gathers then
   does. */
static inline void gather(double *restrict out, const double *restrict e,
                          const ptrdiff_t *restrict sym, ptrdiff_t k)
{
    for (ptrdiff_t b = 0; b < k; b++)
        out[b] = e[sym[b]];
}

/* The scaled forward pass of one batch of `batch` sequences of `length`
   symbols, steps[t * batch + b] the symbol of sequence b at step t, under
   the model of n states and m symbols with initial probabilities init (n),
   transitions trans (n x n, row-major, trans[i * n + j] from i to j) and
   emissions emis (n x m). Writes the normalized alphas, alpha[j * length *
   batch + t * batch + b] for state j, and the scale factors scale[t * batch
   + b]. Each step's alpha of state j is the transition products of the
   previous step's alphas added in state order, times j's emission of the
   step's symbol; the scale factor is the alphas added in state order, and
   divides them where it is positive. */
TARGETS
void estep_forward(ptrdiff_t n, ptrdiff_t m, ptrdiff_t length,
                   ptrdiff_t batch, const double *init, const double *trans,
                   const double *emis, const ptrdiff_t *steps,
                   double *alpha, double *scale)
{
    ptrdiff_t lattice = length * batch;
    double emitted[ESTEP_BLOCK];
    for (ptrdiff_t b0 = 0; b0 < batch; b0 += ESTEP_BLOCK) {
        ptrdiff_t k = batch - b0 < ESTEP_BLOCK ? batch - b0 : ESTEP_BLOCK;
        for (ptrdiff_t t = 0; t < length; t++) {
            const ptrdiff_t *restrict sym = steps + t * batch + b0;
            double *restrict now = alpha + t * batch + b0;
            for (ptrdiff_t j = 0; j < n; j++) {
                double *restrict a = now + j * lattice;
                gather(emitted, emis + j * m, sym, k);
                if (t == 0) {
                    double start = init[j];
                    for (ptrdiff_t b = 0; b < k; b++)
                        a[b] = start * emitted[b];
                    continue;
                }
                const double *restrict prev = now - batch;
                double move = trans[j];
                for (ptrdiff_t b = 0; b < k; b++)
                    a[b] = move * prev[b];
                for (ptrdiff_t i = 1; i < n; i++) {
                    const double *restrict from = prev + i * lattice;
                    move = trans[i * n + j];
                    for (ptrdiff_t b = 0; b < k; b++)
                        a[b] += move * from[b];
                }
                for (ptrdiff_t b = 0; b < k; b++)
                    a[b] *= emitted[b];
            }
            double *restrict c = scale + t * batch + b0;
            memcpy(c, now, k * sizeof *c);
            for (ptrdiff_t j = 1; j < n; j++) {
                const double *restrict a = now + j * lattice;
                for (ptrdiff_t b = 0; b < k; b++)
                    c[b] += a[b];
            }
            for (ptrdiff_t j = 0; j < n; j++) {
                double *restrict a = now + j * lattice;
                for (ptrdiff_t b = 0; b < k; b++) {
                    /* Written so that every SIMD level vectorizes it. */
                    double one = 1.0, divisor = c[b] > 0.0 ? c[b] : one;
                    a[b] = a[b] / divisor;
                }
            }
        }
    }
}

/* Adds the k values of v into lanes[b % LANES] in window order. */
static inline void fold(double *restrict lanes, const double *restrict v,
                        ptrdiff_t k)
{
    ptrdiff_t full = k - k % LANES;
    for (ptrdiff_t r = 0; r < full; r += LANES)
        for (ptrdiff_t l = 0; l < LANES; l++)
            lanes[l] += v[r + l];
    for (ptrdiff_t l = 0; l < k - full; l++)
        lanes[l] += v[full + l];
}

/* The posteriors of one step of a block, gamma[j][b] = alpha * beta, each
   added to its state's count of the step's symbol, in window order. */
static inline void posteriors(ptrdiff_t n, ptrdiff_t m, ptrdiff_t k,
                              ptrdiff_t lattice, const double *a,
                              const double *beta, const ptrdiff_t *sym,
                              double *gamma, double *hist)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        const double *restrict aj = a + j * lattice;
        const double *restrict bj = beta + j * ESTEP_BLOCK;
        double *restrict g = gamma + j * ESTEP_BLOCK;
        for (ptrdiff_t b = 0; b < k; b++)
            g[b] = aj[b] * bj[b];
        double *h = hist + j * m;
        for (ptrdiff_t b = 0; b < k; b++)
            h[sym[b]] += g[b];
    }
}

/* The backward pass of the batch that estep_forward left in alpha and
   scale, and its expected counts: sums[j], the posteriors of step 0, and
   sums[n + i * n + j], the sum of alpha(t, i) * e_j(o_t+1) * beta(t+1, j) /
   c(t+1) over steps and windows, which the transition probability
   multiplies into the transition count; emitted[j * m + s], the
   posteriors of state j at the steps that show symbol s. Beta is 0 where
   alpha is, and otherwise the transition products of the next step's
   terms added in state order.

   Each block runs its steps from the last to the first. A window's
   transition sum adds its steps in that order, and the start posteriors
   and the window sums then add into LANES lanes, as fold does. Each block
   adds its emission posteriors into a count of its own, step by step from
   the last and window by window, and the blocks' counts are added to
   emitted in block order. Returns 0, or -1 when its buffers cannot be
   allocated. */
TARGETS
int estep_counts(ptrdiff_t n, ptrdiff_t m, ptrdiff_t length, ptrdiff_t batch,
                 const double *trans, const double *emis,
                 const ptrdiff_t *steps, const double *alpha,
                 const double *scale, double *sums, double *emitted)
{
    ptrdiff_t lattice = length * batch, count = n + n * n;
    size_t size = (size_t)(2 * n + count) * ESTEP_BLOCK + (size_t)n * m
                  + (size_t)count * LANES;
    double *buffer = calloc(size, sizeof *buffer);
    if (buffer == NULL)
        return -1;
    double *next = buffer, *beta = next + n * ESTEP_BLOCK;
    /* term (then the posteriors) and part: the block's count sums, in a row */
    double *term = beta + n * ESTEP_BLOCK, *part = term + n * ESTEP_BLOCK;
    double *hist = term + count * ESTEP_BLOCK, *lanes = hist + n * m;
    for (ptrdiff_t b0 = 0; b0 < batch; b0 += ESTEP_BLOCK) {
        ptrdiff_t k = batch - b0 < ESTEP_BLOCK ? batch - b0 : ESTEP_BLOCK;
        memset(part, 0, n * n * ESTEP_BLOCK * sizeof *part);
        memset(hist, 0, n * m * sizeof *hist);
        ptrdiff_t t = length - 1;
        const double *a = alpha + t * batch + b0;
        for (ptrdiff_t j = 0; j < n; j++) {
            const double *restrict aj = a + j * lattice;
            double *restrict bj = next + j * ESTEP_BLOCK;
            for (ptrdiff_t b = 0; b < k; b++)
                bj[b] = aj[b] > 0.0 ? 1.0 : 0.0;
        }
        posteriors(n, m, k, lattice, a, next, steps + t * batch + b0, term,
                   hist);
        for (t = length - 2; t >= 0; t--) {
            const ptrdiff_t *restrict sym = steps + (t + 1) * batch + b0;
            const double *restrict c = scale + (t + 1) * batch + b0;
            a = alpha + t * batch + b0;
            for (ptrdiff_t j = 0; j < n; j++) {
                const double *restrict bj = next + j * ESTEP_BLOCK;
                double *restrict tj = term + j * ESTEP_BLOCK;
                gather(tj, emis + j * m, sym, k);
                for (ptrdiff_t b = 0; b < k; b++)
                    tj[b] = tj[b] * bj[b] / c[b];
            }
            for (ptrdiff_t i = 0; i < n; i++) {
                const double *restrict ai = a + i * lattice;
                for (ptrdiff_t j = 0; j < n; j++) {
                    double *restrict p = part + (i * n + j) * ESTEP_BLOCK;
                    const double *restrict tj = term + j * ESTEP_BLOCK;
                    for (ptrdiff_t b = 0; b < k; b++)
                        p[b] += ai[b] * tj[b];
                }
                double *restrict s = beta + i * ESTEP_BLOCK;
                double move = trans[i * n];
                for (ptrdiff_t b = 0; b < k; b++)
                    s[b] = move * term[b];
                for (ptrdiff_t j = 1; j < n; j++) {
                    const double *restrict tj = term + j * ESTEP_BLOCK;
                    move = trans[i * n + j];
                    for (ptrdiff_t b = 0; b < k; b++)
                        s[b] += move * tj[b];
                }
                for (ptrdiff_t b = 0; b < k; b++)
                    s[b] = (ai[b] > 0.0 ? 1.0 : 0.0) * s[b];
            }
            posteriors(n, m, k, lattice, a, beta, steps + t * batch + b0,
                       term, hist);
            double *swap = next;
            next = beta;
            beta = swap;
        }
        for (ptrdiff_t r = 0; r < count; r++)
            fold(lanes + r * LANES, term + r * ESTEP_BLOCK, k);
        for (ptrdiff_t js = 0; js < n * m; js++)
            emitted[js] += hist[js];
    }
    for (ptrdiff_t r = 0; r < count; r++) {
        sums[r] = lanes[r * LANES];
        for (ptrdiff_t l = 1; l < LANES; l++)
            sums[r] += lanes[r * LANES + l];
    }
    free(buffer);
    return 0;
}
