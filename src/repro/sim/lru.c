/* CacheSim.access_line over a whole line trace (see repro/sim/cache.py).
 *
 * ways is an (n_sets, assoc) row-major tag matrix, most recently used first,
 * -1 for an empty way; it holds the warm state on entry and the final state
 * on return.  hits[i] is 1 when lines[i] hit.  Inputs are checked in Python.
 */
#include <stdint.h>

void lru_run(const int64_t *lines, int64_t n, int64_t n_sets, int64_t assoc,
             int64_t *ways, uint8_t *hits)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t tag = lines[i] / n_sets;
        int64_t *w = ways + (lines[i] % n_sets) * assoc;
        int64_t p = 0;
        while (p < assoc && w[p] != tag)
            p++;
        hits[i] = p < assoc;
        if (p == assoc)
            p--; /* miss: the LRU way (or an empty one) drops off the end */
        for (; p > 0; p--)
            w[p] = w[p - 1];
        w[0] = tag;
    }
}
