/* Native kernels for the measured hot loops of the reproduction:
 *
 *  1. repro_delta_batch — the bucketed delta-stepping engine of
 *     CSRGraph._delta_batch over the flattened (source, vertex) space.
 *     One call runs the whole batch: the bucket queue, the apply/relax
 *     fixpoint per open bucket, the scatter-min into the flattened
 *     float64 tentative buffer, sealing, per-source ball-fill / bounded
 *     finish bookkeeping, and the per-source cap shrinking.  Python
 *     keeps setup (cap/start computation) and output assembly; the
 *     contract is the least float64 fixpoint with per-bucket settled
 *     sets identical to the numpy wave engine (see the membership
 *     argument in csr._delta_batch).  Plain C over raw buffers, loaded
 *     through ctypes.CDLL so the call releases the GIL.
 *
 *  2. repro_decode_table / repro_encode_table — the v1 NodeTable shard
 *     codec (magic "RT") written against the CPython API and loaded
 *     through ctypes.PyDLL (the GIL stays held).  Decode builds the
 *     record's Python objects straight from the payload bytes; encode
 *     writes the payload bytes straight from the record's objects.
 *     Both return None for anything outside their fast domain —
 *     truncation, a foreign magic or version, trailing bytes, an int
 *     outside int64, a non-string category name, a type or subclass
 *     the fast path does not handle, an unhashable key, invalid UTF-8
 *     — and the caller re-runs the pure Python codec, which produces
 *     the canonical bytes or raises the canonical error.  Neither
 *     keeps state between calls, so concurrent threads are safe.
 *
 *  3. repro_decode_value / repro_encode_value — the same tagged value
 *     encoding on its own (shard_codec.encode_value/decode_value), the
 *     payload format of every cluster RPC.  Same helpers, same fast
 *     domain, same None-means-fall-back contract; decode boxes its
 *     result as (value,) so a decoded None is not mistaken for it.
 *
 *  4. repro_cluster_tree — one cluster tree T_C(w) in one call: the
 *     induced-subgraph Dijkstra and closure check of
 *     MetricView.restricted_spt_parents, then the RootedTree sizes and
 *     heavy children and the TreeRouting heavy-first intervals,
 *     records and labels (Lemma 3), returned as the reference's three
 *     dicts.  CPython API, PyDLL, stateless like the codecs.
 *
 * C99 + the CPython headers: compiled on demand by repro.native with
 * the system compiler into a content-hash- and ABI-named shared
 * library.
 *
 * Wire constants below mirror repro/routing/shard_codec.py and are
 * cross-checked against repro/analysis/layouts.py by CODEC001.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DS_INF ((double)INFINITY)

/* ------------------------------------------------------------------ */
/* shard codec layout (must match repro/routing/shard_codec.py)        */
/* ------------------------------------------------------------------ */
#define RT_MAGIC_0 0x52            /* 'R' */
#define RT_MAGIC_1 0x54            /* 'T' */
#define RT_CODEC_VERSION 1
#define RT_FLAG_UNIT_WEIGHTS 0x01

#define RT_T_NONE 0x00
#define RT_T_FALSE 0x01
#define RT_T_TRUE 0x02
#define RT_T_INT 0x03
#define RT_T_FLOAT 0x04
#define RT_T_STR 0x05
#define RT_T_TUPLE 0x06
#define RT_T_LIST 0x07
#define RT_T_DICT 0x08

/* nesting bound of the C codec; deeper values take the pure path */
#define MAX_VALUE_DEPTH 200

/* ------------------------------------------------------------------ */
/* kernel 1: delta-stepping bucket relaxation                          */
/* ------------------------------------------------------------------ */

/* One flattened (source, vertex) slot of the engine's scratch: the
 * tentative distance, the value the vertex last expanded at, and a
 * generation stamp making both lazily resettable — stamp < 2*gen means
 * "untouched this batch" (dist reads as +inf), 2*gen means "written,
 * not yet expanded", 2*gen + 1 means "expanded at .exp".  One struct =
 * one cache line touch where three parallel arrays would take three.
 * The caller allocates this as a zeroed 3 * nb * n int64 numpy array
 * (gen starts at 1, so zeros are never valid) and only ever hands the
 * pointer back — Python never reads it. */
typedef struct {
    double dist;
    double exp;
    int64_t stamp;
} vtx_t;

/* Candidate queue chunk: flattened target, source row (carried so the
 * hot loop never divides by n), tentative distance. */
typedef struct {
    int32_t *t;
    int32_t *s;
    double *d;
    int64_t len;
    int64_t cap;
} tsd_buf;

static int tsd_push(tsd_buf *b, int32_t t, int32_t s, double d)
{
    if (b->len == b->cap) {
        int64_t cap = b->cap ? b->cap * 2 : 256;
        int32_t *nt = (int32_t *)realloc(b->t, (size_t)cap * sizeof(int32_t));
        if (nt == NULL)
            return -1;
        b->t = nt;
        int32_t *ns = (int32_t *)realloc(b->s, (size_t)cap * sizeof(int32_t));
        if (ns == NULL)
            return -1;
        b->s = ns;
        double *nd = (double *)realloc(b->d, (size_t)cap * sizeof(double));
        if (nd == NULL)
            return -1;
        b->d = nd;
        b->cap = cap;
    }
    b->t[b->len] = t;
    b->s[b->len] = s;
    b->d[b->len] = d;
    b->len++;
    return 0;
}

/* Settled output: flattened id + final distance, chunked per bucket. */
typedef struct {
    int32_t *t;
    double *d;
    int64_t len;
    int64_t cap;
} out_buf;

static int out_push(out_buf *b, int32_t t)
{
    if (b->len == b->cap) {
        int64_t cap = b->cap ? b->cap * 2 : 256;
        int32_t *nt = (int32_t *)realloc(b->t, (size_t)cap * sizeof(int32_t));
        if (nt == NULL)
            return -1;
        b->t = nt;
        double *nd = (double *)realloc(b->d, (size_t)cap * sizeof(double));
        if (nd == NULL)
            return -1;
        b->d = nd;
        b->cap = cap;
    }
    b->t[b->len++] = t;
    return 0;
}

/* Seal-sort element: (final distance, flattened id), the engine's
 * canonical per-chunk order — identical to the numpy engine's
 * _argsort_with_id_ties over np.unique'd chunks. */
typedef struct {
    double d;
    int32_t t;
} pair_dt;

static inline int dt_less(pair_dt a, pair_dt b)
{
    if (a.d != b.d)
        return a.d < b.d;
    return a.t < b.t;
}

/* Ascending (d, id) sort of a seal chunk.  Keys are distinct (ids are
 * unique within a chunk), so every comparison sort produces the same —
 * the numpy engine's exact — order; this quicksort + insertion-sort
 * hybrid exists because libc qsort's indirect comparator call per
 * compare dominates the seal phase at large ell. */
static void sort_dt(pair_dt *a, int64_t lo, int64_t hi)
{
    pair_dt tmp;
    int64_t i, j;
    while (hi - lo > 16) {
        int64_t mid = lo + ((hi - lo) >> 1);
        /* median-of-three pivot: a[lo] <= a[mid] <= a[hi-1] afterwards,
         * so the Hoare scans below cannot run off either end. */
        if (dt_less(a[mid], a[lo])) {
            tmp = a[lo]; a[lo] = a[mid]; a[mid] = tmp;
        }
        if (dt_less(a[hi - 1], a[mid])) {
            tmp = a[mid]; a[mid] = a[hi - 1]; a[hi - 1] = tmp;
            if (dt_less(a[mid], a[lo])) {
                tmp = a[lo]; a[lo] = a[mid]; a[mid] = tmp;
            }
        }
        pair_dt pivot = a[mid];
        i = lo;
        j = hi - 1;
        for (;;) {
            while (dt_less(a[i], pivot))
                i++;
            while (dt_less(pivot, a[j]))
                j--;
            if (i >= j)
                break;
            tmp = a[i]; a[i] = a[j]; a[j] = tmp;
            i++;
            j--;
        }
        /* Recurse into the smaller half, loop on the larger: stack
         * depth stays O(log chunk). */
        if (j + 1 - lo < hi - (j + 1)) {
            sort_dt(a, lo, j + 1);
            lo = j + 1;
        } else {
            sort_dt(a, j + 1, hi);
            hi = j + 1;
        }
    }
    for (i = lo + 1; i < hi; i++) {
        pair_dt key = a[i];
        for (j = i - 1; j >= lo && dt_less(key, a[j]); j--)
            a[j + 1] = a[j];
        a[j + 1] = key;
    }
}

void repro_release(void *p)
{
    free(p);
}

/* Run one whole delta-stepping batch to completion.
 *
 * Inputs mirror the numpy engine exactly: int32 CSR mirrors, nb
 * flattened start ids, the per-source cap array (mutated in place,
 * like the numpy engine), `lim` for bounded mode (NULL in ball mode,
 * where ell >= 0), and the caller-owned zeroed vtx scratch of nb*n
 * entries (gen starts at 1, so a zero stamp is never current).
 *
 * The bucket queue is a ring of `ring` slots of (t, s, d) candidate
 * chunks: a candidate generated in bucket b has nd < (b+1)*delta +
 * wmax, so its key lands within wmax/delta (+ rounding slop) buckets
 * ahead — the caller sizes the ring from the max edge weight.  Keys
 * replicate the numpy engine's corrective-compare computation bit for
 * bit (trunc(nd/delta) pinned to k*delta <= nd); a key at or below the
 * open bucket — possible only through float rounding — requeues one
 * bucket ahead, exactly like the numpy engine's clip + spill-forward
 * path.  Candidates carry their source row so the hot loop never
 * divides by n.
 *
 * Per open bucket: apply + relax to the fixpoint (a candidate is live
 * iff d is still its target's best tentative value and inside its
 * source cap; the stamped per-vertex expansion record replaces the
 * numpy wave dedupe — re-expansion happens exactly when a strictly
 * better in-bucket value arrives), then seal: the chunk of
 * first-settled ids gets its final distances read out of vtx and, in
 * ball mode, is sorted by (dist, id) — the numpy engine's exact
 * per-chunk assembly order (np.unique + stable distance sort).
 * Bounded chunks stay in settle order; the caller's global id argsort
 * matches numpy's sorted-chunk concat because flattened ids are
 * distinct.  Then the per-source fill/finish bookkeeping: ball mode
 * (ell >= 0) marks a source filled at >= ell settled and shrinks its
 * cap to fill_t + tol, both modes kill finished sources via cap = -inf
 * (ell < 0 selects bounded mode via lim).
 *
 * Outputs (malloc'd; caller copies and frees via repro_release):
 *   settled    — per-bucket settled flattened ids, concatenated
 *   settled_d  — matching final distances
 *
 * Returns 0 on success, -1 on allocation failure, -2 on a ring
 * overflow (cannot happen for a correctly sized ring); on failure the
 * outputs are unset and the vtx scratch is garbage for this gen — the
 * caller must raise, not fall back.
 */
int repro_delta_batch(
    const int32_t *indptr,
    const int32_t *indices,
    const double *weights,
    int64_t n,
    int64_t nb,
    const int32_t *start,
    void *vtx_mem,
    double *cap,
    const double *lim,
    double delta,
    int64_t ring,
    int64_t ell,
    double tol,
    int64_t gen,
    int32_t **settled_out,
    double **settled_d_out,
    int64_t *settled_n)
{
    int rc = -1;
    double inv_delta = 1.0 / delta;
    vtx_t *vtx = (vtx_t *)vtx_mem;
    int64_t gen2 = 2 * gen;
    tsd_buf *buckets = NULL;
    tsd_buf work = {NULL, NULL, NULL, 0, 0};
    out_buf settled = {NULL, NULL, 0, 0};
    pair_dt *pairs = NULL;
    int64_t pairs_cap = 0;
    int64_t *counts = NULL;
    double *fill_t = NULL;
    uint8_t *done = NULL;
    int64_t i, s;

    *settled_out = NULL;
    *settled_d_out = NULL;
    *settled_n = 0;

    buckets = (tsd_buf *)calloc((size_t)ring, sizeof(tsd_buf));
    counts = (int64_t *)calloc((size_t)nb, sizeof(int64_t));
    fill_t = (double *)malloc((size_t)nb * sizeof(double));
    done = (uint8_t *)calloc((size_t)nb, 1);
    if (buckets == NULL || counts == NULL || fill_t == NULL || done == NULL)
        goto out;
    for (s = 0; s < nb; s++)
        fill_t[s] = DS_INF;
    for (i = 0; i < nb; i++) {
        int32_t t = start[i];
        vtx[t].dist = 0.0;
        vtx[t].stamp = gen2;
        if (tsd_push(&buckets[0], t, (int32_t)i, 0.0) != 0)
            goto out;
    }

    int64_t open_total = nb;
    int64_t b = 0;
    while (open_total > 0) {
        tsd_buf *open = &buckets[b % ring];
        if (open->len == 0) {
            b++;
            continue;
        }
        double t_high = (double)(b + 1) * delta;
        int64_t chunk_start = settled.len;
        int64_t next = 0;
        work.len = 0;
        for (;;) {
            int32_t t, src;
            double d;
            if (work.len > 0) {
                work.len--;
                t = work.t[work.len];
                src = work.s[work.len];
                d = work.d[work.len];
            } else if (next < open->len) {
                t = open->t[next];
                src = open->s[next];
                d = open->d[next];
                next++;
            } else {
                break;
            }
            vtx_t *vt = &vtx[t];
            /* A queued candidate's own scatter stamped its slot, so
             * stamp >= gen2 always holds here; keep the inf fallback
             * anyway so a stale stamp reads as "no better value". */
            if (vt->stamp >= gen2 && d > vt->dist)
                continue;
            double cap_s = cap[src];
            if (d >= cap_s)
                continue;
            if (vt->stamp == gen2 + 1) {
                if (vt->exp <= d)
                    continue;
            } else {
                vt->stamp = gen2 + 1;
                if (out_push(&settled, t) != 0)
                    goto out;
            }
            vt->exp = d;
            int32_t base = (int32_t)(src * (int32_t)n);
            int32_t v = t - base;
            int32_t e_hi = indptr[v + 1];
            for (int32_t e = indptr[v]; e < e_hi; e++) {
                double nd = d + weights[e];
                if (nd >= cap_s)
                    continue;
                int32_t tgt = base + indices[e];
                vtx_t *vg = &vtx[tgt];
                double cur = (vg->stamp >= gen2) ? vg->dist : DS_INF;
                if (nd < cur) {
                    vg->dist = nd;
                    if (vg->stamp < gen2)
                        vg->stamp = gen2;
                    if (nd < t_high) {
                        if (tsd_push(&work, tgt, src, nd) != 0)
                            goto out;
                    } else {
                        int64_t k = (int64_t)(nd * inv_delta);
                        if (nd < (double)k * delta)
                            k--;
                        if (k <= b)
                            k = b + 1;
                        if (k - b >= ring) {
                            rc = -2;
                            goto out;
                        }
                        if (tsd_push(&buckets[k % ring], tgt, src, nd) != 0)
                            goto out;
                        open_total++;
                    }
                }
            }
        }
        open_total -= open->len;
        open->len = 0;
        int64_t chunk_len = settled.len - chunk_start;
        if (chunk_len > 0) {
            if (chunk_len > pairs_cap) {
                int64_t want = pairs_cap ? pairs_cap : 1024;
                while (want < chunk_len)
                    want *= 2;
                pair_dt *grown =
                    (pair_dt *)realloc(pairs, (size_t)want * sizeof(pair_dt));
                if (grown == NULL)
                    goto out;
                pairs = grown;
                pairs_cap = want;
            }
            for (i = chunk_start; i < settled.len; i++) {
                int32_t t = settled.t[i];
                pairs[i - chunk_start].d = vtx[t].dist;
                pairs[i - chunk_start].t = t;
                counts[(int64_t)t / n]++;
            }
            if (ell >= 0)
                sort_dt(pairs, 0, chunk_len);
            for (i = 0; i < chunk_len; i++) {
                settled.t[chunk_start + i] = pairs[i].t;
                settled.d[chunk_start + i] = pairs[i].d;
            }
        }
        if (ell >= 0) {
            for (s = 0; s < nb; s++) {
                if (done[s])
                    continue;
                if (fill_t[s] == DS_INF && counts[s] >= ell) {
                    fill_t[s] = t_high;
                    double shrunk = t_high + tol;
                    if (shrunk < cap[s])
                        cap[s] = shrunk;
                }
                if (t_high >= fill_t[s] + tol) {
                    done[s] = 1;
                    cap[s] = -DS_INF;
                }
            }
        } else {
            for (s = 0; s < nb; s++) {
                if (done[s])
                    continue;
                if (t_high >= lim[s]) {
                    done[s] = 1;
                    cap[s] = -DS_INF;
                }
            }
        }
        b++;
    }

    *settled_out = settled.t;
    *settled_d_out = settled.d;
    *settled_n = settled.len;
    settled.t = NULL;
    settled.d = NULL;
    rc = 0;

out:
    if (buckets != NULL) {
        for (i = 0; i < ring; i++) {
            free(buckets[i].t);
            free(buckets[i].s);
            free(buckets[i].d);
        }
        free(buckets);
    }
    free(work.t);
    free(work.s);
    free(work.d);
    free(settled.t);
    free(settled.d);
    free(pairs);
    free(counts);
    free(fill_t);
    free(done);
    return rc;
}

/* ------------------------------------------------------------------ */
/* kernel 2: the NodeTable shard codec (CPython API, GIL held)         */
/* ------------------------------------------------------------------ */

/* Every helper below returns 0 / a new reference on success and -1 /
 * NULL when the input leaves the fast domain (possibly with a Python
 * exception set); the two entry points clear the exception and return
 * None, so the caller falls back to the pure codec. */

static double get_double(const uint8_t *p)
{
    uint64_t bits = 0;
    double d;
    for (int i = 0; i < 8; i++)
        bits |= (uint64_t)p[i] << (8 * i);
    memcpy(&d, &bits, 8);
    return d;
}

static void put_double(uint8_t *p, double d)
{
    uint64_t bits;
    memcpy(&bits, &d, 8);
    for (int i = 0; i < 8; i++)
        p[i] = (uint8_t)(bits >> (8 * i));
}

typedef struct {
    const uint8_t *data;
    Py_ssize_t len;
    Py_ssize_t pos;
} rd_ctx;

/* 7-bit-continuation uvarint; mirrors _read_uvarint (at most 11 bytes,
 * shift limit 70).  Values past 64 bits leave the fast domain. */
static int rd_uvarint(rd_ctx *c, uint64_t *out)
{
    uint64_t result = 0;
    for (int shift = 0; shift <= 70; shift += 7) {
        if (c->pos >= c->len)
            return -1; /* truncated varint */
        uint8_t byte = c->data[c->pos++];
        uint64_t bits = byte & 0x7F;
        if (bits != 0) {
            if (shift > 63 || (bits << shift) >> shift != bits)
                return -1;
            result |= bits << shift;
        }
        if (!(byte & 0x80)) {
            *out = result;
            return 0;
        }
    }
    return -1; /* varint too long */
}

/* uvarint that must fit a non-negative int64 (owner, neighbour ids) */
static PyObject *rd_id(rd_ctx *c)
{
    uint64_t raw;
    if (rd_uvarint(c, &raw) != 0 || raw > (uint64_t)INT64_MAX)
        return NULL;
    return PyLong_FromLongLong((long long)raw);
}

/* A count or byte length: every element takes at least one payload
 * byte, so anything larger than the bytes left is truncation. */
static int rd_size(rd_ctx *c, Py_ssize_t *out)
{
    uint64_t raw;
    if (rd_uvarint(c, &raw) != 0 || raw > (uint64_t)(c->len - c->pos))
        return -1;
    *out = (Py_ssize_t)raw;
    return 0;
}

static PyObject *rd_value(rd_ctx *c, int depth);

/* `count` key/value pairs into `dict` (later duplicates win, as in the
 * pure decoder's `result[k] = v`) */
static int rd_items(rd_ctx *c, PyObject *dict, Py_ssize_t count, int depth)
{
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *k = rd_value(c, depth);
        if (k == NULL)
            return -1;
        PyObject *v = rd_value(c, depth);
        if (v == NULL) {
            Py_DECREF(k);
            return -1;
        }
        int rc = PyDict_SetItem(dict, k, v); /* unhashable key: -1 */
        Py_DECREF(k);
        Py_DECREF(v);
        if (rc != 0)
            return -1;
    }
    return 0;
}

static PyObject *rd_value(rd_ctx *c, int depth)
{
    if (depth > MAX_VALUE_DEPTH || c->pos >= c->len)
        return NULL;
    uint8_t tag = c->data[c->pos++];
    switch (tag) {
    case RT_T_NONE:
        Py_RETURN_NONE;
    case RT_T_TRUE:
        Py_RETURN_TRUE;
    case RT_T_FALSE:
        Py_RETURN_FALSE;
    case RT_T_INT: {
        uint64_t raw;
        if (rd_uvarint(c, &raw) != 0)
            return NULL;
        /* zigzag: even -> raw >> 1, odd -> -(raw >> 1) - 1 */
        long long half = (long long)(raw >> 1);
        return PyLong_FromLongLong((raw & 1) ? -half - 1 : half);
    }
    case RT_T_FLOAT: {
        if (c->len - c->pos < 8)
            return NULL; /* truncated float */
        double d = get_double(c->data + c->pos);
        c->pos += 8;
        return PyFloat_FromDouble(d);
    }
    case RT_T_STR: {
        Py_ssize_t n;
        if (rd_size(c, &n) != 0)
            return NULL;
        PyObject *s = PyUnicode_DecodeUTF8(
            (const char *)c->data + c->pos, n, NULL);
        c->pos += n;
        return s;
    }
    case RT_T_TUPLE:
    case RT_T_LIST: {
        Py_ssize_t n;
        if (rd_size(c, &n) != 0)
            return NULL;
        PyObject *seq = tag == RT_T_TUPLE ? PyTuple_New(n) : PyList_New(n);
        if (seq == NULL)
            return NULL;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *item = rd_value(c, depth + 1);
            if (item == NULL) {
                Py_DECREF(seq);
                return NULL;
            }
            if (tag == RT_T_TUPLE)
                PyTuple_SET_ITEM(seq, i, item);
            else
                PyList_SET_ITEM(seq, i, item);
        }
        return seq;
    }
    case RT_T_DICT: {
        Py_ssize_t n;
        if (rd_size(c, &n) != 0)
            return NULL;
        PyObject *dict = PyDict_New();
        if (dict == NULL)
            return NULL;
        if (rd_items(c, dict, n, depth + 1) != 0) {
            Py_DECREF(dict);
            return NULL;
        }
        return dict;
    }
    default:
        return NULL; /* unknown value tag */
    }
}

/* The record body after the 4-byte header, as the 5-tuple
 * (owner, ids, weights | None, label, categories). */
static PyObject *rd_table(rd_ctx *c, int unit)
{
    PyObject *owner = NULL, *ids = NULL, *weights = NULL;
    PyObject *label = NULL, *cats = NULL, *result = NULL;
    Py_ssize_t degree, ncat;

    owner = rd_id(c);
    if (owner == NULL || rd_size(c, &degree) != 0)
        goto out;
    ids = PyList_New(degree);
    if (ids == NULL)
        goto out;
    for (Py_ssize_t i = 0; i < degree; i++) {
        PyObject *nb = rd_id(c);
        if (nb == NULL)
            goto out;
        PyList_SET_ITEM(ids, i, nb);
    }
    if (unit) {
        Py_INCREF(Py_None);
        weights = Py_None;
    } else {
        if (c->len - c->pos < 8 * degree)
            goto out; /* truncated weights */
        weights = PyList_New(degree);
        if (weights == NULL)
            goto out;
        for (Py_ssize_t i = 0; i < degree; i++) {
            PyObject *w = PyFloat_FromDouble(get_double(c->data + c->pos));
            if (w == NULL)
                goto out;
            PyList_SET_ITEM(weights, i, w);
            c->pos += 8;
        }
    }
    label = rd_value(c, 0);
    if (label == NULL || rd_size(c, &ncat) != 0)
        goto out;
    cats = PyDict_New();
    if (cats == NULL)
        goto out;
    for (Py_ssize_t i = 0; i < ncat; i++) {
        Py_ssize_t nent;
        PyObject *name = rd_value(c, 0);
        if (name == NULL)
            goto out;
        if (!PyUnicode_CheckExact(name) || rd_size(c, &nent) != 0) {
            Py_DECREF(name); /* category name is not a string */
            goto out;
        }
        PyObject *entries = PyDict_New();
        int rc = entries == NULL ? -1 : rd_items(c, entries, nent, 0);
        if (rc == 0)
            rc = PyDict_SetItem(cats, name, entries);
        Py_DECREF(name);
        Py_XDECREF(entries);
        if (rc != 0)
            goto out;
    }
    if (c->pos == c->len) /* else: trailing bytes */
        result = PyTuple_Pack(5, owner, ids, weights, label, cats);

out:
    Py_XDECREF(owner);
    Py_XDECREF(ids);
    Py_XDECREF(weights);
    Py_XDECREF(label);
    Py_XDECREF(cats);
    return result;
}

/* Decode one v1 shard payload from any simple buffer (bytes, an mmap
 * memoryview slice).  The buffer export is released before returning,
 * so an mmap can close right after; strings are copied out. */
PyObject *repro_decode_table(PyObject *buffer)
{
    Py_buffer view;
    PyObject *result = NULL;
    if (PyObject_GetBuffer(buffer, &view, PyBUF_SIMPLE) != 0) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    const uint8_t *data = (const uint8_t *)view.buf;
    if (view.len >= 4 && data[0] == RT_MAGIC_0 && data[1] == RT_MAGIC_1
        && data[2] == RT_CODEC_VERSION) {
        rd_ctx c = {data, view.len, 4};
        result = rd_table(&c, data[3] & RT_FLAG_UNIT_WEIGHTS);
    }
    PyBuffer_Release(&view);
    if (result == NULL) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    return result;
}

typedef struct {
    uint8_t *buf;
    Py_ssize_t len;
    Py_ssize_t cap;
} wr_ctx;

static int wr_reserve(wr_ctx *w, Py_ssize_t extra)
{
    if (w->cap - w->len >= extra)
        return 0;
    Py_ssize_t cap = w->cap ? w->cap : 1024;
    while (cap - w->len < extra)
        cap *= 2;
    uint8_t *grown = (uint8_t *)PyMem_Realloc(w->buf, (size_t)cap);
    if (grown == NULL)
        return -1;
    w->buf = grown;
    w->cap = cap;
    return 0;
}

static int wr_byte(wr_ctx *w, uint8_t byte)
{
    if (wr_reserve(w, 1) != 0)
        return -1;
    w->buf[w->len++] = byte;
    return 0;
}

static int wr_uvarint(wr_ctx *w, uint64_t value)
{
    if (wr_reserve(w, 10) != 0)
        return -1;
    while (value >= 0x80) {
        w->buf[w->len++] = (uint8_t)(value | 0x80);
        value >>= 7;
    }
    w->buf[w->len++] = (uint8_t)value;
    return 0;
}

/* An exact int in [0, INT64_MAX] (owner, neighbour ids) as a uvarint;
 * negative ids take the pure path, which raises its own error. */
static int wr_id(wr_ctx *w, PyObject *v)
{
    int overflow;
    if (!PyLong_CheckExact(v))
        return -1;
    long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (overflow || x < 0)
        return -1;
    return wr_uvarint(w, (uint64_t)x);
}

static int wr_bytes(wr_ctx *w, const void *src, Py_ssize_t n)
{
    if (wr_reserve(w, n) != 0)
        return -1;
    memcpy(w->buf + w->len, src, (size_t)n);
    w->len += n;
    return 0;
}

static int wr_value(wr_ctx *w, PyObject *v, int depth);

static int wr_items(wr_ctx *w, PyObject *dict, int depth)
{
    Py_ssize_t pos = 0;
    PyObject *k, *v;
    if (wr_uvarint(w, (uint64_t)PyDict_GET_SIZE(dict)) != 0)
        return -1;
    while (PyDict_Next(dict, &pos, &k, &v))
        if (wr_value(w, k, depth) != 0 || wr_value(w, v, depth) != 0)
            return -1;
    return 0;
}

/* Mirrors _write_value: bool is tested before int (bool subclasses
 * int), and only exact builtin types take the fast path. */
static int wr_value(wr_ctx *w, PyObject *v, int depth)
{
    if (depth > MAX_VALUE_DEPTH)
        return -1;
    if (v == Py_None)
        return wr_byte(w, RT_T_NONE);
    if (v == Py_True)
        return wr_byte(w, RT_T_TRUE);
    if (v == Py_False)
        return wr_byte(w, RT_T_FALSE);
    if (PyLong_CheckExact(v)) {
        int overflow;
        long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (overflow)
            return -1; /* beyond int64 */
        /* zigzag: non-negative -> even, negative -> odd */
        uint64_t zz = x >= 0 ? (uint64_t)x << 1
                             : ((uint64_t)(-(x + 1)) << 1) | 1;
        if (wr_byte(w, RT_T_INT) != 0)
            return -1;
        return wr_uvarint(w, zz);
    }
    if (PyFloat_CheckExact(v)) {
        if (wr_reserve(w, 9) != 0)
            return -1;
        w->buf[w->len++] = RT_T_FLOAT;
        put_double(w->buf + w->len, PyFloat_AS_DOUBLE(v));
        w->len += 8;
        return 0;
    }
    if (PyUnicode_CheckExact(v)) {
        Py_ssize_t n;
        const char *s = PyUnicode_AsUTF8AndSize(v, &n); /* surrogates: NULL */
        if (s == NULL || wr_byte(w, RT_T_STR) != 0
            || wr_uvarint(w, (uint64_t)n) != 0)
            return -1;
        return wr_bytes(w, s, n);
    }
    if (PyTuple_CheckExact(v) || PyList_CheckExact(v)) {
        int is_tuple = PyTuple_CheckExact(v);
        Py_ssize_t n = is_tuple ? PyTuple_GET_SIZE(v) : PyList_GET_SIZE(v);
        if (wr_byte(w, is_tuple ? RT_T_TUPLE : RT_T_LIST) != 0
            || wr_uvarint(w, (uint64_t)n) != 0)
            return -1;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *item =
                is_tuple ? PyTuple_GET_ITEM(v, i) : PyList_GET_ITEM(v, i);
            if (wr_value(w, item, depth + 1) != 0)
                return -1;
        }
        return 0;
    }
    if (PyDict_CheckExact(v)) {
        if (wr_byte(w, RT_T_DICT) != 0)
            return -1;
        return wr_items(w, v, depth + 1);
    }
    return -1; /* a type (or subclass) the fast path leaves to Python */
}

/* Mirrors encode_node_table: header, owner, port-ordered neighbour ids,
 * the weight block unless every weight == 1.0, label, categories. */
static int wr_table(wr_ctx *w, PyObject *owner, PyObject *neighbors,
                    PyObject *label, PyObject *categories)
{
    if (!PyTuple_CheckExact(neighbors) || !PyDict_CheckExact(categories))
        return -1;
    Py_ssize_t degree = PyTuple_GET_SIZE(neighbors);
    int unit = 1;
    for (Py_ssize_t i = 0; i < degree; i++) {
        PyObject *link = PyTuple_GET_ITEM(neighbors, i);
        if (!PyTuple_CheckExact(link) || PyTuple_GET_SIZE(link) != 2
            || !PyFloat_CheckExact(PyTuple_GET_ITEM(link, 1)))
            return -1;
        if (PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(link, 1)) != 1.0)
            unit = 0;
    }
    uint8_t header[4] = {RT_MAGIC_0, RT_MAGIC_1, RT_CODEC_VERSION,
                         unit ? RT_FLAG_UNIT_WEIGHTS : 0};
    if (wr_bytes(w, header, 4) != 0 || wr_id(w, owner) != 0
        || wr_uvarint(w, (uint64_t)degree) != 0)
        return -1;
    for (Py_ssize_t i = 0; i < degree; i++)
        if (wr_id(w, PyTuple_GET_ITEM(PyTuple_GET_ITEM(neighbors, i), 0)))
            return -1;
    if (!unit) {
        if (wr_reserve(w, 8 * degree) != 0)
            return -1;
        for (Py_ssize_t i = 0; i < degree; i++) {
            PyObject *link = PyTuple_GET_ITEM(neighbors, i);
            put_double(w->buf + w->len,
                       PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(link, 1)));
            w->len += 8;
        }
    }
    if (wr_value(w, label, 0) != 0)
        return -1;
    if (wr_uvarint(w, (uint64_t)PyDict_GET_SIZE(categories)) != 0)
        return -1;
    Py_ssize_t pos = 0;
    PyObject *name, *entries;
    while (PyDict_Next(categories, &pos, &name, &entries)) {
        /* the decoder rejects non-string names: leave them to Python */
        if (!PyUnicode_CheckExact(name) || !PyDict_CheckExact(entries))
            return -1;
        if (wr_value(w, name, 0) != 0 || wr_items(w, entries, 0) != 0)
            return -1;
    }
    return 0;
}

/* The written bytes when rc == 0, else None; frees the buffer. */
static PyObject *wr_result(wr_ctx *w, int rc)
{
    PyObject *out = NULL;
    if (rc == 0)
        out = PyBytes_FromStringAndSize((const char *)w->buf, w->len);
    PyMem_Free(w->buf);
    if (out == NULL) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    return out;
}

/* Encode one NodeTable's fields into the v1 payload bytes, or None. */
PyObject *repro_encode_table(PyObject *owner, PyObject *neighbors,
                             PyObject *label, PyObject *categories)
{
    wr_ctx w = {NULL, 0, 0};
    return wr_result(&w, wr_table(&w, owner, neighbors, label, categories));
}

/* ------------------------------------------------------------------ */
/* kernel 3: the tagged value codec (cluster wire payloads)            */
/* ------------------------------------------------------------------ */

/* Decode one tagged value (shard_codec.decode_value) from any simple
 * buffer.  The result is boxed as the 1-tuple (value,) so a decoded
 * None stays distinct from the None that means "use the pure codec":
 * truncation, trailing bytes, an int outside int64, nesting past
 * MAX_VALUE_DEPTH, an unhashable key, invalid UTF-8. */
PyObject *repro_decode_value(PyObject *buffer)
{
    Py_buffer view;
    PyObject *value, *result = NULL;
    if (PyObject_GetBuffer(buffer, &view, PyBUF_SIMPLE) != 0) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    rd_ctx c = {(const uint8_t *)view.buf, view.len, 0};
    value = rd_value(&c, 0);
    PyBuffer_Release(&view);
    if (value != NULL) {
        if (c.pos == c.len) /* else: trailing bytes */
            result = PyTuple_Pack(1, value);
        Py_DECREF(value);
    }
    if (result == NULL) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    return result;
}

/* Encode one value (shard_codec.encode_value) into its tagged bytes,
 * or None outside the fast domain (subclasses, ints beyond int64,
 * lone surrogates, nesting past MAX_VALUE_DEPTH, foreign types). */
PyObject *repro_encode_value(PyObject *value)
{
    wr_ctx w = {NULL, 0, 0};
    return wr_result(&w, wr_value(&w, value, 0));
}

/* ------------------------------------------------------------------ */
/* kernel 4: cluster trees (induced SPT + heavy-path tree routing)     */
/* ------------------------------------------------------------------ */

/* One heap entry of the induced Dijkstra.  `v` is a local member
 * index; members are strictly increasing, so (d, v) orders exactly
 * like the reference's (d, vertex id) tuples. */
typedef struct {
    double d;
    int32_t v;
} heap_dv;

typedef struct {
    heap_dv *a;
    int64_t len;
    int64_t cap;
} dv_heap;

static inline int dv_less(heap_dv x, heap_dv y)
{
    return x.d < y.d || (x.d == y.d && x.v < y.v);
}

static int dv_push(dv_heap *h, double d, int32_t v)
{
    if (h->len == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 64;
        heap_dv *grown =
            (heap_dv *)realloc(h->a, (size_t)cap * sizeof(heap_dv));
        if (grown == NULL)
            return -1;
        h->a = grown;
        h->cap = cap;
    }
    heap_dv x = {d, v};
    int64_t i = h->len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!dv_less(x, h->a[p]))
            break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i] = x;
    return 0;
}

static heap_dv dv_pop(dv_heap *h)
{
    heap_dv top = h->a[0];
    heap_dv x = h->a[--h->len];
    int64_t i = 0, n = h->len;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && dv_less(h->a[c + 1], h->a[c]))
            c++;
        if (!dv_less(h->a[c], x))
            break;
        h->a[i] = h->a[c];
        i = c;
    }
    if (n > 0)
        h->a[i] = x;
    return top;
}

/* Open-addressing index of the members: vertex id -> local index,
 * about one probe per lookup (the Dijkstra asks once per scanned
 * edge, so a binary search over the members dominated the kernel). */
typedef struct {
    int64_t key; /* -1 = empty slot */
    int32_t val;
} mm_slot;

typedef struct {
    mm_slot *slot;
    uint64_t mask;
    int shift;
} member_map;

static inline uint64_t mm_hash(const member_map *m, int64_t v)
{
    return ((uint64_t)v * 0x9E3779B97F4A7C15ULL) >> m->shift;
}

static int mm_init(member_map *m, const int64_t *mem, int32_t nm)
{
    int bits = 1;
    while ((INT64_C(1) << bits) < 2 * (int64_t)nm)
        bits++;
    size_t cap = (size_t)1 << bits;
    m->slot = (mm_slot *)malloc(cap * sizeof(mm_slot));
    if (m->slot == NULL)
        return -1;
    for (size_t i = 0; i < cap; i++)
        m->slot[i].key = -1;
    m->mask = cap - 1;
    m->shift = 64 - bits;
    for (int32_t i = 0; i < nm; i++) {
        uint64_t h = mm_hash(m, mem[i]);
        while (m->slot[h].key >= 0)
            h = (h + 1) & m->mask;
        m->slot[h].key = mem[i];
        m->slot[h].val = i;
    }
    return 0;
}

static inline int32_t mm_find(const member_map *m, int64_t v)
{
    for (uint64_t h = mm_hash(m, v);; h = (h + 1) & m->mask) {
        if (m->slot[h].key == v)
            return m->slot[h].val;
        if (m->slot[h].key < 0)
            return -1;
    }
}

/* Build the heavy-path tree routing of one cluster tree in one pass —
 * MetricView.restricted_spt_parents + RootedTree + TreeRouting of
 * repro/routing/tree_routing.py, with identical results:
 *
 *   1. Dijkstra on the subgraph induced by the members, popping in
 *      (d, vertex) order; an equal-distance relaxation from a smaller
 *      predecessor of a not-yet-settled vertex takes over its parent
 *      (no re-push: its (d, v) entry is already queued);
 *   2. the closure check: every member's induced distance is finite
 *      and within `tol` of the global one in `gdist` (member order;
 *      the first failure is reported);
 *   3. children in ascending id order, subtree sizes, each vertex's
 *      heavy child (largest subtree, ties to the smallest id);
 *   4. the heavy-first DFS intervals: a child's dfs_in is its parent's
 *      plus one plus the sizes of the siblings visited before it, and
 *      dfs_out = dfs_in + size;
 *   5. records (dfs_in, dfs_out, parent_port, heavy_port, heavy_in,
 *      heavy_out) and labels (dfs_in, light stops), light stops shared
 *      down heavy edges like the reference's tuples.
 *
 * `ports[e]` is the port at u of CSR edge e = (u, indices[e]).  Both
 * ports of a tree edge come out of the Dijkstra: the port at the
 * parent from the relaxing edge, the port at the child from its own
 * adjacency scan once settled (its parent is final then).
 *
 * Vertices are local indices into the strictly increasing `mem` (so
 * local order is id order), `r` the root's; `ids` are the members' own
 * int objects, reused as dict keys.  The result is as documented at
 * repro_cluster_tree, minus its None. */
static PyObject *cluster_tree(const int64_t *indptr, const int64_t *indices,
                              const double *weights, const int32_t *ports,
                              int32_t r, const int64_t *mem, PyObject **ids,
                              int32_t nm, const double *gdist, double tol)
{
    PyObject *result = NULL, *parents = NULL, *records = NULL;
    PyObject *labels = NULL, *zero = NULL, **objs = NULL;
    member_map map = {NULL, 0, 0};
    dv_heap heap = {NULL, 0, 0};
    double *dist = (double *)malloc((size_t)nm * sizeof(double));
    int32_t *scratch =
        (int32_t *)malloc(((size_t)nm * 9 + 1) * sizeof(int32_t));
    uint8_t *done = (uint8_t *)calloc((size_t)nm, 1);
    if (dist == NULL || scratch == NULL || done == NULL
        || mm_init(&map, mem, nm) != 0) {
        PyErr_NoMemory();
        goto out;
    }
    int32_t *par = scratch;          /* local parent */
    int32_t *down = par + nm;        /* port at the parent toward v */
    int32_t *up = down + nm;         /* port at v toward its parent */
    int32_t *kptr = up + nm;         /* children CSR offsets (nm + 1) */
    int32_t *kids = kptr + nm + 1;   /* children, ascending per parent */
    int32_t *order = kids + nm;      /* root-first BFS order */
    int32_t *size = order + nm;      /* subtree sizes */
    int32_t *heavy = size + nm;      /* heavy child or -1 */
    int32_t *din = heavy + nm;       /* dfs_in (dfs_out = din + size) */

    /* 1. induced Dijkstra */
    for (int32_t i = 0; i < nm; i++) {
        dist[i] = DS_INF;
        par[i] = -1;
        up[i] = -1;
    }
    dist[r] = 0.0;
    par[r] = r;
    if (dv_push(&heap, 0.0, r) != 0) {
        PyErr_NoMemory();
        goto out;
    }
    while (heap.len > 0) {
        heap_dv top = dv_pop(&heap);
        int32_t u = top.v;
        double d = top.d;
        if (done[u] || d > dist[u])
            continue;
        done[u] = 1;
        int32_t pu = u == r ? -1 : par[u];
        for (int64_t e = indptr[mem[u]]; e < indptr[mem[u] + 1]; e++) {
            int32_t v = mm_find(&map, indices[e]);
            if (v < 0)
                continue;
            if (v == pu)
                up[u] = ports[e];
            double nd = d + weights[e];
            if (nd < dist[v]) {
                dist[v] = nd;
                par[v] = u;
                down[v] = ports[e];
                if (dv_push(&heap, nd, v) != 0) {
                    PyErr_NoMemory();
                    goto out;
                }
            } else if (nd == dist[v] && !done[v] && u < par[v]) {
                par[v] = u;
                down[v] = ports[e];
            }
        }
    }

    /* 2. closure check */
    for (int32_t i = 0; i < nm; i++) {
        if (i == r)
            continue;
        double dv = dist[i];
        if (!isfinite(dv) || fabs(dv - gdist[i]) > tol) {
            result = Py_BuildValue("(Ldd)", (long long)mem[i], dv, gdist[i]);
            goto out;
        }
    }

    /* 3. children, BFS order, sizes, heavy children */
    memset(kptr, 0, (size_t)(nm + 1) * sizeof(int32_t));
    for (int32_t i = 0; i < nm; i++)
        if (i != r)
            kptr[par[i] + 1]++;
    for (int32_t i = 0; i < nm; i++)
        kptr[i + 1] += kptr[i];
    memcpy(heavy, kptr, (size_t)nm * sizeof(int32_t)); /* fill cursors */
    for (int32_t i = 0; i < nm; i++)
        if (i != r)
            kids[heavy[par[i]]++] = i;
    int32_t tail = 1;
    order[0] = r;
    for (int32_t h = 0; h < tail; h++)
        for (int32_t k = kptr[order[h]]; k < kptr[order[h] + 1]; k++)
            order[tail++] = kids[k];
    for (int32_t i = 0; i < nm; i++)
        size[i] = 1;
    for (int32_t h = nm - 1; h > 0; h--)
        size[par[order[h]]] += size[order[h]];
    for (int32_t i = 0; i < nm; i++) {
        int32_t best = -1;
        for (int32_t k = kptr[i]; k < kptr[i + 1]; k++)
            if (best < 0 || size[kids[k]] > size[best])
                best = kids[k];
        heavy[i] = best;
    }

    /* 4. heavy-first DFS intervals */
    din[r] = 0;
    for (int32_t h = 0; h < nm; h++) {
        int32_t v = order[h];
        int32_t cursor = din[v] + 1;
        if (heavy[v] >= 0) {
            din[heavy[v]] = cursor;
            cursor += size[heavy[v]];
        }
        for (int32_t k = kptr[v]; k < kptr[v + 1]; k++) {
            if (kids[k] != heavy[v]) {
                din[kids[k]] = cursor;
                cursor += size[kids[k]];
            }
        }
    }

    /* 5. the three dicts.  Each vertex's dfs_in and dfs_out int
     * objects are made once and shared by every tuple holding them.
     * The tuples hold only ints (or tuples of ints), so they can never
     * be part of a reference cycle: they leave the cyclic collector's
     * lists at birth — what the collector would do itself on its next
     * pass, without the passes over ~5 tuples per vertex — and the
     * dicts holding them stay untracked too. */
    objs = (PyObject **)calloc((size_t)nm * 3, sizeof(PyObject *));
    if (objs == NULL) {
        PyErr_NoMemory();
        goto out;
    }
    PyObject **pin = objs, **pout = pin + nm, **stops = pout + nm;
    for (int32_t i = 0; i < nm; i++)
        if ((pin[i] = PyLong_FromLong(din[i])) == NULL
            || (pout[i] = PyLong_FromLong(din[i] + size[i])) == NULL)
            goto out;
    if ((zero = PyLong_FromLong(0)) == NULL
        || (stops[r] = PyTuple_New(0)) == NULL)
        goto out;
    for (int32_t h = 1; h < nm; h++) {
        int32_t v = order[h], p = par[v];
        if (heavy[p] == v) {
            Py_INCREF(stops[p]);
            stops[v] = stops[p];
            continue;
        }
        Py_ssize_t len = PyTuple_GET_SIZE(stops[p]);
        PyObject *port = PyLong_FromLong(down[v]);
        PyObject *pair = port == NULL ? NULL : PyTuple_Pack(2, pin[v], port);
        Py_XDECREF(port);
        if (pair == NULL || (stops[v] = PyTuple_New(len + 1)) == NULL) {
            Py_XDECREF(pair);
            goto out;
        }
        for (Py_ssize_t j = 0; j < len; j++) {
            PyObject *x = PyTuple_GET_ITEM(stops[p], j);
            Py_INCREF(x);
            PyTuple_SET_ITEM(stops[v], j, x);
        }
        PyTuple_SET_ITEM(stops[v], len, pair);
        PyObject_GC_UnTrack(pair);
        PyObject_GC_UnTrack(stops[v]);
    }
    parents = PyDict_New();
    records = PyDict_New();
    labels = PyDict_New();
    if (parents == NULL || records == NULL || labels == NULL)
        goto out;
    for (int32_t j = -1; j < nm; j++) {
        int32_t v = j < 0 ? r : j; /* root first, then ascending */
        if (j == r)
            continue;
        int32_t hv = heavy[v];
        PyObject *pport = PyLong_FromLong(v == r ? -1 : up[v]);
        PyObject *hport = PyLong_FromLong(hv >= 0 ? down[hv] : -1);
        PyObject *record = NULL, *label = NULL;
        if (pport != NULL && hport != NULL)
            record = PyTuple_Pack(6, pin[v], pout[v], pport, hport,
                                  hv >= 0 ? pin[hv] : zero,
                                  hv >= 0 ? pout[hv] : zero);
        Py_XDECREF(pport);
        Py_XDECREF(hport);
        if (record != NULL) {
            PyObject_GC_UnTrack(record);
            if ((label = PyTuple_Pack(2, pin[v], stops[v])) != NULL)
                PyObject_GC_UnTrack(label);
        }
        int rc = (label == NULL
                  || PyDict_SetItem(parents, ids[v], ids[par[v]]) != 0
                  || PyDict_SetItem(records, ids[v], record) != 0
                  || PyDict_SetItem(labels, ids[v], label) != 0);
        Py_XDECREF(record);
        Py_XDECREF(label);
        if (rc)
            goto out;
    }
    result = PyTuple_Pack(3, parents, records, labels);

out:
    Py_XDECREF(parents);
    Py_XDECREF(records);
    Py_XDECREF(labels);
    Py_XDECREF(zero);
    if (objs != NULL)
        for (int32_t i = 0; i < 3 * nm; i++)
            Py_XDECREF(objs[i]);
    free(objs);
    free(map.slot);
    free(heap.a);
    free(dist);
    free(scratch);
    free(done);
    return result;
}

/* The entry point of kernel 4.
 *
 * `graph` is the tuple (indptr, indices, weights, ports) of contiguous
 * CSR arrays — int64, int64, float64 and int32, where ports[e] is the
 * port at u of edge e = (u, indices[e]); `members` a sequence of ints,
 * `member_dists` a contiguous float64 array of their global distances
 * from `root`.
 *
 * Returns (parents, records, labels) — three dicts keyed root first,
 * then the other members ascending, the reference's insertion order —
 * or (v, induced, global) for the first member failing the closure
 * check (the caller raises the reference's ValueError), or None for
 * input outside the fast domain: members not strictly increasing ints
 * in [0, n), the root not among them, a distance count or an array
 * item size that does not match (the caller runs the reference, which
 * gives the canonical result or error).  NULL with MemoryError set on
 * allocation failure. */
PyObject *repro_cluster_tree(PyObject *graph, PyObject *members,
                             PyObject *member_dists, long long root,
                             double tol)
{
    static const Py_ssize_t itemsize[5] = {8, 8, 8, 4, 8};
    Py_buffer view[5];
    int held = 0;
    PyObject *seq = NULL, *result = NULL;
    int64_t *mem = NULL;
    if (!PyTuple_Check(graph) || PyTuple_GET_SIZE(graph) != 4)
        goto fallback;
    for (; held < 5; held++) {
        PyObject *arr = held < 4 ? PyTuple_GET_ITEM(graph, held)
                                 : member_dists;
        if (PyObject_GetBuffer(arr, &view[held],
                               PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) != 0)
            goto fallback;
        if (view[held].itemsize != itemsize[held]) {
            held++;
            goto fallback;
        }
    }
    int64_t n = view[0].len / 8 - 1;
    seq = PySequence_Fast(members, "members");
    if (seq == NULL)
        goto fallback;
    Py_ssize_t nm = PySequence_Fast_GET_SIZE(seq);
    if (nm <= 0 || nm > INT32_MAX / 2 || nm != view[4].len / 8)
        goto fallback;
    PyObject **ids = PySequence_Fast_ITEMS(seq);
    mem = (int64_t *)malloc((size_t)nm * sizeof(int64_t));
    if (mem == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int32_t r = -1;
    for (Py_ssize_t i = 0; i < nm; i++) {
        if (!PyLong_CheckExact(ids[i]))
            goto fallback;
        mem[i] = PyLong_AsLongLong(ids[i]);
        if (mem[i] < 0 || mem[i] >= n || (i > 0 && mem[i - 1] >= mem[i]))
            goto fallback; /* also an overflow's -1 */
        if (mem[i] == root)
            r = (int32_t)i;
    }
    if (r < 0)
        goto fallback;
    result = cluster_tree(
        (const int64_t *)view[0].buf, (const int64_t *)view[1].buf,
        (const double *)view[2].buf, (const int32_t *)view[3].buf, r, mem,
        ids, (int32_t)nm, (const double *)view[4].buf, tol);
    goto done;
fallback:
    PyErr_Clear();
    Py_INCREF(Py_None);
    result = Py_None;
done:
    while (held > 0)
        PyBuffer_Release(&view[--held]);
    Py_XDECREF(seq);
    free(mem);
    return result;
}
