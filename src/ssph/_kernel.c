/* The compiled form of ssph.predictor._window_scores: the best-path log
   score of every width-symbol window of a symbol run under one HMM, in
   float64, bit for bit.

   It makes the same IEEE additions in the same order as the numpy kernel,
   and its compare picks what np.maximum picks on log parameters, which lie
   in [-inf, 0] and are never NaN. It only adds and compares, so it must
   never be built with -ffast-math or -Ofast, which let the compiler
   reorder the adds and assume no infinities; -ffp-contract=off keeps the
   build free of fused operations should one ever apply.

   Windows are scored in blocks of BLOCK, state-major, so that a block's
   vectors stay in L1 and each step is a loop over contiguous doubles that
   the compiler vectorizes; target_clones builds one loop per SIMD level
   and picks the best the CPU has when the library loads. */

#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 512

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
