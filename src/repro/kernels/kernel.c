/* The c kernel's loops, for repro.kernels.c_impl.
 *
 * Each function is the python kernel's loop (repro.kernels.python_impl)
 * in the same order, so every answer is identical: flows, residual
 * capacities and push order, arcs, forests edge for edge, rows in fill
 * order, components and side-groups in order, the phase-1 order and the
 * strong set.  A kvcc_view is a CSR view read in place: its active ids
 * (ascending), its base-length byte mask, and the base's indptr /
 * indices at either width (int32 sections of a mapped KVCCG file, or
 * 8-byte in-process arrays).  Base-indexed scratch is malloc'd
 * uncleared and only touched at active ids (every read follows a mask
 * test), so a call costs O(view) however large the base is.  A KVCCG
 * load checks only indptr's endpoints, so C checks each id it reads
 * against base_n, each row against 0 <= start <= end <= nnz and each
 * position against verts; functions that allocate or read the base
 * return a negative KVCC_E* code on failure.  No globals: calls on
 * different data may run in parallel.
 */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KVCC_ENOMEM (-1) /* an allocation failed */
#define KVCC_EBAD (-2)   /* an id or row outside the base, or asymmetric rows */

typedef struct {
    int n;                     /* active vertices */
    const int *verts;          /* n active base ids, ascending */
    const unsigned char *mask; /* base_n bytes, nonzero = active */
    const void *indptr;        /* base_n + 1 row offsets */
    const void *indices;       /* neighbor ids, each row ascending */
    int wide;                  /* entries are 8 bytes (else 4) */
    int base_n;                /* vertices of the base */
    long nnz;                  /* entries of indices */
} kvcc_view;

static inline long at(const void *a, int wide, long i)
{
    return wide ? (long)((const int64_t *)a)[i] : (long)((const int32_t *)a)[i];
}

static void *alloc(size_t count, size_t size)
{
    return malloc(count > 0 ? count * size : 1);
}

/* Row u as indices[*lo .. *hi); 0 unless u < base_n, 0 <= lo <= hi <= nnz. */
static int row(const kvcc_view *v, long u, long *lo, long *hi)
{
    return (unsigned long)u < (unsigned long)v->base_n
           && (*lo = at(v->indptr, v->wide, u)) >= 0
           && (*hi = at(v->indptr, v->wide, u + 1)) >= *lo && *hi <= v->nnz;
}

/* loc: base id -> position, uncleared but at verts (NULL when out of
 * memory); the caller has checked verts against base_n. */
static int *locate(const kvcc_view *v)
{
    int i, *loc = alloc((size_t)v->base_n, sizeof(int));
    for (i = 0; loc != NULL && i < v->n; i++)
        loc[v->verts[i]] = i;
    return loc;
}

/* The position of w if active, -1 if inactive, or KVCC_EBAD when w is
 * no base id or verts lacks it (a valid loc entry points back at w). */
static int position(const kvcc_view *v, const int *loc, long w)
{
    int i;
    if ((unsigned long)w >= (unsigned long)v->base_n)
        return KVCC_EBAD;
    if (!v->mask[w])
        return -1;
    i = loc[w];
    return (unsigned)i < (unsigned)v->n && v->verts[i] == w ? i : KVCC_EBAD;
}

/* The view's active rows in positions, ascending, in one block: ptr
 * (n + 1 offsets) then the entries.  Returns the entry count, or a
 * KVCC_E* code. */
static long compact(const kvcc_view *v, int **rows)
{
    long total = 0, cnt = 0, p, lo, hi;
    int i, j, *loc, *ptr;
    for (i = 0; i < v->n; i++) {
        if (!row(v, v->verts[i], &lo, &hi))
            return KVCC_EBAD;
        total += hi - lo;
    }
    /* Distinct rows of a sound base do not overlap; positions are ints. */
    if (total > v->nnz || total > INT_MAX - v->n - 1)
        return KVCC_EBAD;
    loc = locate(v);
    ptr = *rows = alloc((size_t)v->n + 1 + (size_t)total, sizeof(int));
    if (loc == NULL || ptr == NULL)
        cnt = KVCC_ENOMEM;
    for (i = 0; cnt >= 0 && i < v->n; i++) {
        ptr[i] = (int)cnt;
        row(v, v->verts[i], &lo, &hi);
        for (p = lo; cnt >= 0 && p < hi; p++)
            if ((j = position(v, loc, at(v->indices, v->wide, p))) >= 0)
                ptr[v->n + 1 + cnt++] = j;
            else if (j == KVCC_EBAD)
                cnt = KVCC_EBAD;
    }
    free(loc);
    if (cnt < 0)
        free(ptr);
    else
        ptr[v->n] = (int)cnt;
    return cnt;
}

/* ------------------------------------------------------------------ */
/* Dinic                                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    int n;            /* nodes */
    int *indptr;      /* n + 1: arcs of node u at arcs[indptr[u] .. indptr[u + 1]) */
    int *arcs;        /* arc ids grouped by tail, ascending within a node */
    int *head;        /* arc id -> target node */
    int *cap;         /* arc id -> residual capacity */
    int *level;       /* scratch, n */
    int *iter;        /* scratch, n: current-arc cursor (position in arcs) */
    int *queue;       /* scratch, n */
    int *path;        /* scratch, n: arcs of the partial DFS path */
    int *log;         /* pushed arc ids, in push order */
    int log_size;     /* capacity of log */
    int log_len;      /* entries used by the current call */
    int flow;         /* flow pushed by the current call */
    int in_phase;     /* 1 when a call returned mid-phase (log full) */
} kvcc_net;

/* Group arc ids by tail node: a stable counting sort of 0 .. m - 1.
 * The tail of arc a is the head of its reverse a ^ 1. */
void kvcc_layout(int n, int m, const int *head, int *indptr, int *arcs)
{
    int u, a;
    for (u = 0; u <= n; u++)
        indptr[u] = 0;
    for (a = 0; a < m; a++)
        indptr[head[a ^ 1] + 1]++;
    for (u = 0; u < n; u++)
        indptr[u + 1] += indptr[u];
    /* indptr[t] serves as node t's fill cursor, then shifts back. */
    for (a = 0; a < m; a++)
        arcs[indptr[head[a ^ 1]]++] = a;
    for (u = n; u > 0; u--)
        indptr[u] = indptr[u - 1];
    indptr[0] = 0;
}

static int bfs_levels(kvcc_net *net, int source, int sink)
{
    const int *indptr = net->indptr, *arcs = net->arcs, *head = net->head;
    const int *cap = net->cap;
    int *level = net->level, *queue = net->queue;
    int qh = 0, qt = 0, u, p, end;
    for (u = 0; u < net->n; u++)
        level[u] = -1;
    level[source] = 0;
    queue[qt++] = source;
    while (qh < qt) {
        u = queue[qh++];
        int lu = level[u] + 1;
        for (p = indptr[u], end = indptr[u + 1]; p < end; p++) {
            int a = arcs[p];
            int v = head[a];
            if (level[v] < 0 && cap[a] > 0) {
                level[v] = lu;
                if (v == sink)
                    return 1;
                queue[qt++] = v;
            }
        }
    }
    return 0;
}

/* One augmenting path along the level graph; the units pushed (0 when
 * the source dead-ends). */
static int dfs_blocking(kvcc_net *net, int source, int sink, int limit)
{
    const int *indptr = net->indptr, *arcs = net->arcs, *head = net->head;
    int *cap = net->cap, *level = net->level, *iter = net->iter;
    int *path = net->path;
    int depth = 0, node = source, i;
    for (;;) {
        if (node == sink) {
            int pushed = limit;
            for (i = 0; i < depth; i++)
                if (cap[path[i]] < pushed)
                    pushed = cap[path[i]];
            for (i = 0; i < depth; i++) {
                int a = path[i];
                cap[a] -= pushed;
                cap[a ^ 1] += pushed;
                net->log[net->log_len++] = a;
            }
            return pushed;
        }
        int j = iter[node], end = indptr[node + 1];
        int target = level[node] + 1;
        for (; j < end; j++) {
            int a = arcs[j];
            if (level[head[a]] == target && cap[a] > 0)
                break;
        }
        if (j < end) {
            iter[node] = j;
            path[depth++] = arcs[j];
            node = head[arcs[j]];
            continue;
        }
        /* Dead end: retreat, marking the node unusable for this phase. */
        iter[node] = j;
        level[node] = -1;
        if (depth == 0)
            return 0;
        node = head[path[--depth] ^ 1]; /* tail of the arc we came through */
        iter[node]++;
    }
}

/* Dinic capped at k.  Returns 0 when done (net->flow holds the flow),
 * 1 when the log cannot hold the next path; call again after growing
 * it, and the phase resumes where it stopped. */
int kvcc_max_flow(kvcc_net *net, int source, int sink, int k)
{
    int u;
    while (net->flow < k) {
        if (!net->in_phase) {
            if (!bfs_levels(net, source, sink))
                break;
            for (u = 0; u < net->n; u++)
                net->iter[u] = net->indptr[u];
            net->in_phase = 1;
        }
        while (net->flow < k) {
            /* Every path of a phase has exactly level[sink] arcs. */
            if (net->log_len + net->level[sink] > net->log_size)
                return 1;
            int pushed = dfs_blocking(net, source, sink, k - net->flow);
            if (pushed == 0)
                break;
            net->flow += pushed;
        }
        net->in_phase = 0;
    }
    net->in_phase = 0;
    return 0;
}

/* Mark in seen (n bytes, zeroed) the nodes reachable from source over
 * arcs with residual capacity. */
void kvcc_reachable(kvcc_net *net, int source, unsigned char *seen)
{
    const int *indptr = net->indptr, *arcs = net->arcs, *head = net->head;
    const int *cap = net->cap;
    int *queue = net->queue;
    int qh = 0, qt = 0, p, end;
    seen[source] = 1;
    queue[qt++] = source;
    while (qh < qt) {
        int u = queue[qh++];
        for (p = indptr[u], end = indptr[u + 1]; p < end; p++) {
            int a = arcs[p];
            if (cap[a] > 0) {
                int w = head[a];
                if (!seen[w]) {
                    seen[w] = 1;
                    queue[qt++] = w;
                }
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Flow arc builders                                                    */
/* ------------------------------------------------------------------ */

/* Internal arcs 2i / 2i + 1 per position, then per entry j of row i
 * with verts[j] > verts[i] the quad i_out -> j_in, j_out -> i_in, each
 * followed by its reverse.  With head NULL only counts. */
long kvcc_rows_arcs(int n, const int *verts, const int *ptr, const int *adj,
                    int k, int *head, int *cap)
{
    long m = 2L * n;
    int i, p;
    for (i = 0; head != NULL && i < n; i++) {
        head[2 * i] = 2 * i + 1;
        head[2 * i + 1] = 2 * i;
        cap[2 * i] = 1;
        cap[2 * i + 1] = 0;
    }
    for (i = 0; i < n; i++)
        for (p = ptr[i]; p < ptr[i + 1]; p++) {
            int out_v = 2 * i + 1, in_w = 2 * adj[p];
            if (verts[adj[p]] <= verts[i])
                continue;
            if (head != NULL) {
                head[m] = in_w;
                head[m + 1] = out_v;
                head[m + 2] = out_v - 1;
                head[m + 3] = in_w + 1;
                cap[m] = cap[m + 2] = k;
                cap[m + 1] = cap[m + 3] = 0;
            }
            m += 4;
        }
    return m;
}

/* The same arena for a view, from its rows in position order. */
long kvcc_view_arcs(const kvcc_view *v, int k, int *head, int *cap)
{
    int *rows;
    long m = compact(v, &rows);
    if (m < 0)
        return m;
    m = kvcc_rows_arcs(v->n, v->verts, rows, rows + v->n + 1, k, head, cap);
    free(rows);
    return m;
}

/* ------------------------------------------------------------------ */
/* Sparse certificate                                                   */
/* ------------------------------------------------------------------ */

typedef struct {
    int nforests; /* forests extracted (the last may be empty) */
    int nedges;   /* forest edges in all */
    int ngroups;  /* components of F_k with at least min_group vertices */
    int *block;   /* owns every array below */
    int *fedges;  /* 2 * nedges base ids: (scanner, marked), stream order */
    int *fends;   /* nforests: edge count after each forest */
    int *rptr;    /* n + 1 row offsets, by position */
    int *radj;    /* 2 * nedges row entries, fill order, as positions */
    int *rids;    /* the same entries as base ids */
    int *gmem;    /* the groups' members, group after group, ascending */
    int *gends;   /* ngroups: member count after each group */
} kvcc_cert;

void kvcc_cert_free(kvcc_cert *c)
{
    free(c->block);
    memset(c, 0, sizeof(*c));
}

static int find_root(int *parent, int x)
{
    int root = x;
    while (parent[root] != root)
        root = parent[root];
    while (parent[x] != root) {
        int next = parent[x];
        parent[x] = root;
        x = next;
    }
    return root;
}

/* The k-connectivity sparse certificate of a view (Theorem 5): up to k
 * FIFO scan-first forests (roots in position order, each scanned vertex
 * marking its unmarked neighbors over unused edges in row order), each
 * on the view minus the earlier forests' edges, stopping after the
 * first empty one; their union as rows, each edge appended to both
 * endpoint rows as it streams by; and the components of the last forest
 * with at least min_group vertices, ordered by smallest member.  The
 * outputs live in c->block; release them with kvcc_cert_free.  Returns
 * 0 or a KVCC_E* code. */
int kvcc_certificate(const kvcc_view *v, int k, int min_group, kvcc_cert *c)
{
    int n = v->n, i, f, g = 0, kept = 0, ne = 0, last = 0, code = 0;
    int *rows, *adj, *ptr, *rev, *cur, *queue, *fe, *ends, *parent, *gid, *size;
    unsigned char *used, *marked;
    long total = compact(v, &rows), s;
    memset(c, 0, sizeof(*c));
    if (total < 0)
        return (int)total;
    ptr = rows;
    adj = rows + n + 1;
    /* rev, fe: total each; cur, ends: n + 1 (a forest other than the
     * last lowers every non-isolated vertex's unused degree, so there
     * are at most n + 1); queue, parent, gid, size: n. */
    rev = alloc(2 * (size_t)total + 6 * (size_t)n + 2, sizeof(int));
    used = alloc((size_t)total + (size_t)n, 1);
    if (rev == NULL || used == NULL) {
        code = KVCC_ENOMEM;
        goto out;
    }
    fe = rev + total;
    cur = fe + total;
    ends = cur + n + 1;
    queue = ends + n + 1;
    parent = queue + n;
    gid = parent + n;
    size = gid + n;
    marked = used + total;
    memset(used, 0, (size_t)total);
    /* rev[s]: the slot of the same edge in the other endpoint's row.
     * Rows ascend, so row j lists its smaller neighbors first, in the
     * order the scan over i meets them. */
    for (i = 0; i < n; i++)
        cur[i] = ptr[i];
    for (i = 0; i < n; i++)
        for (s = ptr[i]; s < ptr[i + 1]; s++)
            if (adj[s] > i) {
                int j = adj[s], t = cur[j]++;
                if (t >= ptr[j + 1] || adj[t] != i) {
                    code = KVCC_EBAD;
                    goto out;
                }
                rev[s] = t;
                rev[t] = (int)s;
            }
    for (i = 0; i < n; i++)
        if (cur[i] < ptr[i + 1] && adj[cur[i]] < i) {
            code = KVCC_EBAD; /* a smaller neighbor that does not list i */
            goto out;
        }
    for (f = 0; f < k && (f == 0 || ne > last); f++) {
        int root;
        last = ne;
        memset(marked, 0, (size_t)n);
        for (root = 0; root < n; root++) {
            int qh = 0, qt = 0;
            if (marked[root])
                continue;
            marked[root] = 1;
            queue[qt++] = root;
            while (qh < qt) {
                int u = queue[qh++];
                for (s = ptr[u]; s < ptr[u + 1]; s++) {
                    int w = adj[s];
                    if (marked[w] || used[s])
                        continue;
                    marked[w] = used[s] = used[rev[s]] = 1;
                    fe[2 * ne] = u;
                    fe[2 * ne + 1] = w;
                    ne++;
                    queue[qt++] = w;
                }
            }
        }
        ends[f] = ne;
        c->nforests = f + 1;
    }
    /* F_k = fe[last .. ne): union-find, numbered by smallest member. */
    for (i = 0; i < n; i++)
        parent[i] = i, gid[i] = -1, size[i] = 0;
    for (s = last; s < ne; s++) {
        int ru = find_root(parent, fe[2 * s]), rv = find_root(parent, fe[2 * s + 1]);
        if (ru != rv)
            parent[ru] = rv;
    }
    for (i = 0; i < n; i++) {
        int r = find_root(parent, i);
        if (gid[r] < 0)
            gid[r] = g++;
        size[gid[r]]++;
    }
    c->block = alloc(6 * (size_t)ne + (size_t)(c->nforests + 3 * n + 1), sizeof(int));
    if (c->block == NULL) {
        code = KVCC_ENOMEM;
        goto out;
    }
    c->nedges = ne;
    c->fedges = c->block;
    c->radj = c->fedges + 2 * ne;
    c->rids = c->radj + 2 * ne;
    c->fends = c->rids + 2 * ne;
    c->rptr = c->fends + c->nforests;
    c->gmem = c->rptr + n + 1;
    c->gends = c->gmem + n;
    memcpy(c->fends, ends, sizeof(int) * (size_t)c->nforests);
    /* Rows in fill order: counting sort of the edge stream. */
    memset(c->rptr, 0, sizeof(int) * ((size_t)n + 1));
    for (i = 0; i < 2 * ne; i++)
        c->rptr[fe[i] + 1]++;
    for (i = 0; i < n; i++) {
        c->rptr[i + 1] += c->rptr[i];
        cur[i] = c->rptr[i];
    }
    for (i = 0; i < ne; i++) {
        c->radj[cur[fe[2 * i]]++] = fe[2 * i + 1];
        c->radj[cur[fe[2 * i + 1]]++] = fe[2 * i];
    }
    for (i = 0; i < 2 * ne; i++) {
        c->rids[i] = v->verts[c->radj[i]];
        c->fedges[i] = v->verts[fe[i]];
    }
    /* Kept groups: size[] becomes each one's fill cursor (else -1). */
    for (f = 0, s = 0; f < g; f++) {
        if (size[f] < min_group) {
            size[f] = -1;
            continue;
        }
        c->gends[kept++] = (int)s + size[f];
        size[f] = (int)s;
        s = c->gends[kept - 1];
    }
    c->ngroups = kept;
    for (i = 0; i < n; i++) {
        int e = gid[find_root(parent, i)];
        if (size[e] >= 0)
            c->gmem[size[e]++] = v->verts[i];
    }
out:
    free(rows);
    free(rev);
    free(used);
    return code;
}

/* ------------------------------------------------------------------ */
/* View traversals                                                      */
/* ------------------------------------------------------------------ */

/* Components of the view minus removed (base ids; inactive ones are
 * ignored): discovery in position order, expansion in row order.  order
 * gets the members' positions component after component in BFS order,
 * ends the running count after each.  Returns the component count or a
 * KVCC_E* code. */
int kvcc_components(const kvcc_view *v, const int *removed, int nremoved,
                    int *order, int *ends)
{
    int *loc = NULL, i, j, qt = 0, ncomp = 0;
    unsigned char *seen;
    for (i = 0; i < v->n; i++)
        if ((unsigned)v->verts[i] >= (unsigned)v->base_n)
            return KVCC_EBAD;
    loc = locate(v);
    seen = calloc((size_t)v->n + 1, 1);
    if (loc == NULL || seen == NULL) {
        ncomp = KVCC_ENOMEM;
        goto done;
    }
    for (i = 0; i < nremoved; i++)
        if ((j = position(v, loc, removed[i])) >= 0)
            seen[j] = 1;
        else if (j == KVCC_EBAD)
            goto bad;
    for (i = 0; i < v->n; i++) {
        int qh = qt;
        if (seen[i])
            continue;
        seen[i] = 1;
        order[qt++] = i;
        while (qh < qt) {
            long p, lo, hi;
            if (!row(v, v->verts[order[qh++]], &lo, &hi))
                goto bad;
            for (p = lo; p < hi; p++)
                if ((j = position(v, loc, at(v->indices, v->wide, p))) >= 0) {
                    if (!seen[j])
                        order[qt++] = j;
                    seen[j] = 1;
                } else if (j == KVCC_EBAD)
                    goto bad;
        }
        ends[ncomp++] = qt;
    }
    goto done;
bad:
    ncomp = KVCC_EBAD;
done:
    free(loc);
    free(seen);
    return ncomp;
}

/* The positions of the nonzero bytes of mask (n bytes), ascending, into
 * out; returns how many. */
int kvcc_active_ids(const unsigned char *mask, int n, int *out)
{
    int i, c = 0;
    for (i = 0; i < n; i++)
        if (mask[i])
            out[c++] = i;
    return c;
}

/* out[i]: the active neighbors of members[i].  Returns 0 or KVCC_EBAD. */
int kvcc_active_degrees(const kvcc_view *v, const int *members, int nm,
                        int *out)
{
    int i;
    for (i = 0; i < nm; i++) {
        long p, end;
        if (!row(v, members[i], &p, &end))
            return KVCC_EBAD;
        for (out[i] = 0; p < end; p++) {
            long w = at(v->indices, v->wide, p);
            if ((unsigned long)w >= (unsigned long)v->base_n)
                return KVCC_EBAD;
            out[i] += v->mask[w] != 0;
        }
    }
    return 0;
}

/* Farthest-first over rows in positions: every vertex by BFS distance
 * from the source, descending, ties in position order; the vertices the
 * BFS does not reach come first.  out gets base ids.  A source that is
 * not among verts reaches nothing but itself. */
int kvcc_rows_farthest_first(int n, const int *verts, const int *ptr,
                             const int *adj, int source, int *out)
{
    int *dist = alloc(2 * (size_t)n, sizeof(int)), *queue = dist + n;
    int *start, i, qh = 0, qt = 0, far = 1;
    if (dist == NULL)
        return KVCC_ENOMEM;
    for (i = 0; i < n; i++) {
        dist[i] = -1;
        if (verts[i] == source)
            queue[qt++] = i;
    }
    if (qt) {
        dist[queue[0]] = 0;
        while (qh < qt) {
            int u = queue[qh++], p;
            for (p = ptr[u]; p < ptr[u + 1]; p++)
                if (dist[adj[p]] < 0) {
                    dist[adj[p]] = dist[u] + 1;
                    queue[qt++] = adj[p];
                }
        }
        far = dist[queue[qt - 1]] + 1;
    }
    /* Counting sort by descending distance, stable in position order. */
    start = calloc((size_t)far + 2, sizeof(int));
    if (start == NULL) {
        free(dist);
        return KVCC_ENOMEM;
    }
    for (i = 0; i < n; i++) {
        if (dist[i] < 0)
            dist[i] = far;
        start[far - dist[i] + 1]++;
    }
    for (i = 1; i <= far + 1; i++)
        start[i] += start[i - 1];
    for (i = 0; i < n; i++)
        out[start[far - dist[i]]++] = verts[i];
    free(dist);
    free(start);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Strong side-vertices (Theorem 8)                                     */
/* ------------------------------------------------------------------ */

/* kvcc_strong searches an anchor's row longer than this many times the
 * pairs left at it, else merges: merging wins up to about 64 steps a pair
 * (BENCH_28.json "strong_crossover"); searching stops a hub's row from
 * being walked once per neighbor. */
#define KVCC_SEARCH_RATIO 64L

/* Whether the sorted base row [lo, hi) (a checked row) holds x. */
static int row_has(const kvcc_view *v, long lo, long hi, long x)
{
    while (lo < hi) {
        long mid = lo + (hi - lo) / 2, y = at(v->indices, v->wide, mid);
        if (y == x)
            return 1;
        if (y < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return 0;
}

/* Whether a and b have at least k common active neighbors (1 or 0), or
 * KVCC_EBAD. */
static int common_at_least(const kvcc_view *v, long a, long b, int k)
{
    long p, pe, q, qe;
    int count = 0;
    if (!row(v, a, &p, &pe) || !row(v, b, &q, &qe))
        return KVCC_EBAD;
    while (p < pe && q < qe) {
        long x = at(v->indices, v->wide, p), y = at(v->indices, v->wide, q);
        p += x <= y;
        q += y <= x;
        if (x != y)
            continue;
        if ((unsigned long)x >= (unsigned long)v->base_n)
            return KVCC_EBAD;
        if (v->mask[x] && ++count >= k)
            return 1;
    }
    return count >= k;
}

/* flags[i] = 1 when pool[i] (an active base id) is a strong
 * side-vertex: every pair of its active neighbors is adjacent or has at
 * least k common active neighbors.  Each neighbor anchors the pairs
 * with the neighbors after it; a row much longer than those is
 * searched (KVCC_SEARCH_RATIO), others are merged.  Returns 0 or a
 * KVCC_E* code. */
int kvcc_strong(const kvcc_view *v, int k, const int *pool, int npool,
                unsigned char *flags)
{
    int *nb = NULL, q;
    long nb_size = 0;
    for (q = 0; q < npool; q++) {
        long p, end;
        int na = 0, a, b, ok = 1;
        if (!row(v, pool[q], &p, &end))
            goto bad;
        if (end - p > nb_size) {
            free(nb);
            nb = alloc((size_t)(nb_size = end - p), sizeof(int));
            if (nb == NULL)
                return KVCC_ENOMEM;
        }
        for (; p < end; p++) {
            long w = at(v->indices, v->wide, p);
            if ((unsigned long)w >= (unsigned long)v->base_n)
                goto bad;
            if (v->mask[w])
                nb[na++] = (int)w;
        }
        for (a = 0; ok == 1 && a + 1 < na; a++) {
            long lo, hi, r;
            int search;
            if (!row(v, nb[a], &lo, &hi))
                goto bad;
            r = lo;
            search = hi - lo > KVCC_SEARCH_RATIO * (na - a - 1);
            for (b = a + 1; ok == 1 && b < na; b++) {
                if (search) {
                    if (row_has(v, lo, hi, nb[b]))
                        continue;
                } else {
                    while (r < hi && at(v->indices, v->wide, r) < nb[b])
                        r++;
                    if (r < hi && at(v->indices, v->wide, r) == nb[b])
                        continue;
                }
                ok = common_at_least(v, nb[a], nb[b], k);
            }
        }
        if (ok < 0)
            goto bad;
        flags[q] = (unsigned char)ok;
    }
    free(nb);
    return 0;
bad:
    free(nb);
    return KVCC_EBAD;
}
