/* CacheSim.access over every stream of a replay (see repro/sim/cache.py).
 *
 * Row s of streams describes stream s in eight int64s: its phase count,
 * line_bytes, n_sets and assoc, then the addresses of its phase_ends, addr
 * and nbytes arrays and of its ways matrix.  Phase p of a stream replays
 * its accesses phase_ends[p - 1] (0 for p = 0) up to phase_ends[p], access
 * i touching the lines that nbytes[i] bytes from byte addr[i] span.  ways
 * is an (n_sets, assoc) row-major tag matrix, most recently used first, -1
 * for an empty way; it holds the warm state on entry and the final state
 * on return.  Stream after stream, hits gets one verdict per line (1 = hit)
 * and phase_hits and phase_lines each phase's hits and lines.  Inputs are
 * checked in Python.
 */
#include <stdint.h>

void lru_run(int64_t n_streams, const int64_t *streams, uint8_t *hits,
             int64_t *phase_hits, int64_t *phase_lines)
{
    for (const int64_t *s = streams; s < streams + 8 * n_streams; s += 8) {
        int64_t n_phases = s[0], line_bytes = s[1], n_sets = s[2], assoc = s[3];
        const int64_t *phase_ends = (const int64_t *)(intptr_t)s[4];
        const int64_t *addr = (const int64_t *)(intptr_t)s[5];
        const int64_t *nbytes = (const int64_t *)(intptr_t)s[6];
        int64_t *ways = (int64_t *)(intptr_t)s[7];
        int64_t i = 0;
        for (int64_t p = 0; p < n_phases; p++) {
            uint8_t *start = hits;
            int64_t h = 0;
            for (int64_t end = phase_ends[p]; i < end; i++) {
                if (nbytes[i] <= 0)
                    continue; /* a no-op, as in CacheSim.access */
                int64_t first = addr[i] / line_bytes;
                int64_t n = (addr[i] + (nbytes[i] - 1)) / line_bytes - first + 1;
                for (int64_t j = 0; j < n; j++) {
                    int64_t line = first + j;
                    int64_t tag = line / n_sets;
                    int64_t *w = ways + (line % n_sets) * assoc;
                    int64_t k = 0;
                    while (k < assoc && w[k] != tag)
                        k++;
                    h += *hits++ = k < assoc;
                    if (k == assoc)
                        k--; /* miss: the LRU way (or an empty one) drops off the end */
                    for (; k > 0; k--)
                        w[k] = w[k - 1];
                    w[0] = tag;
                }
            }
            *phase_hits++ = h;
            *phase_lines++ = hits - start;
        }
    }
}
