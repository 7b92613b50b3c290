/* Budgeted true-LRU replay of one trace slice on one set-associative cache.
 *
 * State (per cache): ways[num_sets * assoc] resident lines, most recently
 * used first; dirty[] parallel write-back flags; fill[s] resident ways of
 * set s.  Mirrors SetAssociativeCache.run_budget_rows access for access:
 * a hit costs hit_cost, a miss hit_cost + miss_extra, every access adds its
 * extra cycles, and the slice stops after the access whose completion
 * meets or exceeds the budget.  out[] receives next, used, hits, misses,
 * write_hits, write_misses, dirty_evictions.
 */
#include <stdint.h>

void lru_run_budget(int64_t *ways, uint8_t *dirty, int32_t *fill,
                    int64_t set_mask, int64_t assoc, const int64_t *lines,
                    const uint8_t *writes, const int64_t *extra, int64_t end,
                    int64_t start, int64_t hit_cost, int64_t miss_extra,
                    int64_t budget, int64_t *out)
{
    int64_t i = start, used = 0, hits = 0, misses = 0;
    int64_t write_hits = 0, write_misses = 0, evictions = 0;
    while (i < end && used < budget) {
        int64_t line = lines[i], s = line & set_mask, k = 0;
        int64_t *row = ways + s * assoc;
        uint8_t *drow = dirty + s * assoc, w = writes[i], d;
        int32_t f = fill[s];
        while (k < f && row[k] != line)
            k++;
        used += hit_cost + extra[i];
        if (k < f) {
            hits++;
            write_hits += w;
            d = drow[k] | w;
        } else {
            misses++;
            write_misses += w;
            used += miss_extra;
            d = w;
            if (f < assoc)
                fill[s] = f + 1;
            else
                evictions += drow[--k];
        }
        for (; k > 0; k--) {
            row[k] = row[k - 1];
            drow[k] = drow[k - 1];
        }
        row[0] = line;
        drow[0] = d;
        i++;
    }
    out[0] = i;
    out[1] = used;
    out[2] = hits;
    out[3] = misses;
    out[4] = write_hits;
    out[5] = write_misses;
    out[6] = evictions;
}
