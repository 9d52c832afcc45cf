/* PackedRTree.range_filter and nearest_neighbors (repro/spatial/rtree.py),
 * ported line for line, one query batch per call (see batchtraverse.py).
 * Built with -ffp-contract=off, so every sum and product rounds as it does
 * in Python and NumPy.
 *
 * Query q's outputs start where query q - 1's end (offsets[q]); a run starts
 * at query q and returns how many queries are finished.  When an output
 * buffer or the heap is full it returns early, with the unfinished query's
 * partial end in offsets[q + 1], and the caller grows that buffer and calls
 * again from the unfinished query.  Inputs are checked in Python.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* The tree's columns and its dataset's segment endpoints. */
typedef struct {
    const double *node_xmin, *node_ymin, *node_xmax, *node_ymax;
    const int32_t *node_level;
    const int64_t *node_child_start, *node_child_count;
    const double *entry_xmin, *entry_ymin, *entry_xmax, *entry_ymax;
    const int64_t *entry_ids;
    const double *x1, *y1, *x2, *y2;
    int64_t root;
} Tree;

/* range_filter: leaf hits appended in slice order, internal hits pushed in
 * reverse so they pop in slice order. */
int64_t filter_run(const Tree *t, int64_t q, int64_t nq,
                   const double *qxmin, const double *qymin,
                   const double *qxmax, const double *qymax,
                   int64_t *visited, int64_t visited_cap,
                   int64_t *visited_offsets,
                   int64_t *cand, int64_t cand_cap, int64_t *cand_offsets,
                   int64_t *mbr_tests, int64_t *stack)
{
    int64_t nv = 0, nc = 0;
    for (; q < nq; q++) {
        double x0 = qxmin[q], y0 = qymin[q], x1 = qxmax[q], y1 = qymax[q];
        int64_t top = 0, tests = 0;
        nv = visited_offsets[q];
        nc = cand_offsets[q];
        stack[top++] = t->root;
        while (top > 0) {
            int64_t node = stack[--top];
            int64_t s = t->node_child_start[node], c = t->node_child_count[node];
            if (nv == visited_cap)
                goto full;
            visited[nv++] = node;
            tests += c;
            if (t->node_level[node] == 0) {
                for (int64_t j = s; j < s + c; j++)
                    if (t->entry_xmin[j] <= x1 && t->entry_xmax[j] >= x0 &&
                        t->entry_ymin[j] <= y1 && t->entry_ymax[j] >= y0) {
                        if (nc == cand_cap)
                            goto full;
                        cand[nc++] = j;
                    }
            } else {
                for (int64_t j = s + c - 1; j >= s; j--)
                    if (t->node_xmin[j] <= x1 && t->node_xmax[j] >= x0 &&
                        t->node_ymin[j] <= y1 && t->node_ymax[j] >= y0)
                        stack[top++] = j;
            }
        }
        visited_offsets[q + 1] = nv;
        cand_offsets[q + 1] = nc;
        mbr_tests[q] = tests;
    }
    return nq;
full:
    visited_offsets[q + 1] = nv;
    cand_offsets[q + 1] = nc;
    return q;
}

/* A queued node or entry, or (tb unused) a best-k hit. */
typedef struct {
    double d;
    int64_t tb, id, is_entry;
} Item;

typedef int (*Before)(const Item *, const Item *);

/* The queue's order: (mindist, tiebreak). */
static int queue_before(const Item *a, const Item *b)
{
    return a->d < b->d || (a->d == b->d && a->tb < b->tb);
}

/* The best-k set's order, Python's (-d, seg_id): its root is the farthest
 * hit, the smallest id among equally far ones. */
static int best_before(const Item *a, const Item *b)
{
    return -a->d < -b->d || (-a->d == -b->d && a->id < b->id);
}

static inline void push(Item *h, int64_t *n, Item x, Before before)
{
    int64_t i = (*n)++;
    for (; i > 0 && before(&x, &h[(i - 1) / 2]); i = (i - 1) / 2)
        h[i] = h[(i - 1) / 2];
    h[i] = x;
}

static inline Item pop(Item *h, int64_t *n, Before before)
{
    Item top = h[0], x = h[--*n];
    int64_t i = 0, c;
    while ((c = 2 * i + 1) < *n) {
        if (c + 1 < *n && before(&h[c + 1], &h[c]))
            c++;
        if (!before(&h[c], &x))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = x;
    return top;
}

static int by_dist_then_id(const void *pa, const void *pb)
{
    const Item *a = pa, *b = pb;
    if (a->d != b->d)
        return a->d < b->d ? -1 : 1;
    return (a->id > b->id) - (a->id < b->id);
}

/* vecgeom.mbr_mindist_sq for one box. */
static double mindist_sq(double px, double py, double xmin, double ymin,
                         double xmax, double ymax)
{
    double dx = xmin - px > px - xmax ? xmin - px : px - xmax;
    double dy = ymin - py > py - ymax ? ymin - py : py - ymax;
    dx = dx > 0.0 ? dx : 0.0;
    dy = dy > 0.0 ? dy : 0.0;
    return dx * dx + dy * dy;
}

/* geometry.point_segment_distance_sq. */
static double segment_dist_sq(double px, double py, double x1, double y1,
                              double x2, double y2)
{
    double dx = x2 - x1, dy = y2 - y1;
    double len_sq = dx * dx + dy * dy;
    double ex, ey, t;
    if (len_sq == 0.0) {
        ex = px - x1;
        ey = py - y1;
        return ex * ex + ey * ey;
    }
    t = ((px - x1) * dx + (py - y1) * dy) / len_sq;
    if (t < 0.0)
        t = 0.0;
    else if (t > 1.0)
        t = 1.0;
    ex = px - (x1 + t * dx);
    ey = py - (y1 + t * dy);
    return ex * ex + ey * ey;
}

/* nearest_neighbors: a leaf's entries pushed in stable mindist order up to
 * the first past the bound, an internal node's children in slice order
 * skipping those past it; answers sorted by (d, id).  tallies holds five
 * rows of nq: nodes visited, MBR tests, candidates refined, heap operations,
 * results produced.  The pop log is (log_entry, log_id); answers are
 * written from ans_offsets[q], sized by the caller for min(k, entries) per
 * query.  best holds min(max k, entries) + 1 items; mind and order hold one
 * node's children. */
int64_t nn_run(const Tree *t, int64_t q, int64_t nq,
               const double *qx, const double *qy, const int64_t *ks,
               int64_t *tallies,
               uint8_t *log_entry, int64_t *log_id, int64_t log_cap,
               int64_t *log_offsets, int64_t *ans, int64_t *ans_offsets,
               Item *heap, int64_t heap_cap, Item *best,
               double *mind, int64_t *order)
{
    int64_t nlog = 0;
    for (; q < nq; q++) {
        double px = qx[q], py = qy[q];
        int64_t k = ks[q], nheap = 0, nbest = 0, tiebreak = 0;
        int64_t nodes = 0, tests = 0, refined = 0, heap_ops = 1;
        nlog = log_offsets[q];
        push(heap, &nheap, (Item){0.0, 0, t->root, 0}, queue_before);
        while (nheap > 0) {
            Item it = pop(heap, &nheap, queue_before);
            double kth = nbest >= k ? best[0].d : INFINITY;
            heap_ops++;
            if (it.d > kth)
                break;
            if (nlog == log_cap)
                goto full;
            log_entry[nlog] = (uint8_t)it.is_entry;
            log_id[nlog++] = it.id;
            if (it.is_entry) {
                double d = segment_dist_sq(px, py, t->x1[it.id], t->y1[it.id],
                                           t->x2[it.id], t->y2[it.id]);
                refined++;
                if (d < kth) {
                    push(best, &nbest, (Item){d, 0, it.id, 1}, best_before);
                    if (nbest > k)
                        pop(best, &nbest, best_before);
                    heap_ops++;
                }
                continue;
            }
            int64_t s = t->node_child_start[it.id];
            int64_t c = t->node_child_count[it.id];
            nodes++;
            tests += c;
            if (t->node_level[it.id] == 0) {
                for (int64_t j = 0; j < c; j++) {
                    int64_t i = j;
                    mind[j] = mindist_sq(px, py, t->entry_xmin[s + j],
                                         t->entry_ymin[s + j],
                                         t->entry_xmax[s + j],
                                         t->entry_ymax[s + j]);
                    for (; i > 0 && mind[order[i - 1]] > mind[j]; i--)
                        order[i] = order[i - 1];
                    order[i] = j;
                }
                for (int64_t j = 0; j < c && mind[order[j]] <= kth; j++) {
                    if (nheap == heap_cap)
                        goto full;
                    push(heap, &nheap,
                         (Item){mind[order[j]], ++tiebreak,
                                t->entry_ids[s + order[j]], 1},
                         queue_before);
                    heap_ops++;
                }
            } else {
                for (int64_t j = s; j < s + c; j++) {
                    double md = mindist_sq(px, py, t->node_xmin[j],
                                           t->node_ymin[j], t->node_xmax[j],
                                           t->node_ymax[j]);
                    if (md > kth)
                        continue;
                    if (nheap == heap_cap)
                        goto full;
                    push(heap, &nheap, (Item){md, ++tiebreak, j, 0},
                         queue_before);
                    heap_ops++;
                }
            }
        }
        qsort(best, (size_t)nbest, sizeof(Item), by_dist_then_id);
        for (int64_t j = 0; j < nbest; j++)
            ans[ans_offsets[q] + j] = best[j].id;
        ans_offsets[q + 1] = ans_offsets[q] + nbest;
        log_offsets[q + 1] = nlog;
        tallies[q] = nodes;
        tallies[nq + q] = tests;
        tallies[2 * nq + q] = refined;
        tallies[3 * nq + q] = heap_ops;
        tallies[4 * nq + q] = nbest;
    }
    return nq;
full:
    log_offsets[q + 1] = nlog;
    return q;
}
