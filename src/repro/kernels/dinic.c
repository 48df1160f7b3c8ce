/* Dinic's max flow and the residual BFS of LOC-CUT, for repro.kernels.c_impl.
 *
 * The same algorithm as the python kernel (repro.kernels.python_impl),
 * step for step, so flows, residual capacities, the order of pushed arcs
 * and min cuts are identical:
 *
 *   - the layered BFS stops as soon as it labels the sink;
 *   - the blocking-flow DFS is iterative, with Dinic's current-arc
 *     cursor per node, and marks a dead-end node unusable for the phase;
 *   - each node's arcs are visited in ascending arc id order.
 *
 * Arrays are int32 and owned by the caller (one set per flow network):
 * arc id -> head / cap, and a CSR over arc ids grouped by tail
 * (indptr, arcs).  Arc a ^ 1 is the reverse of arc a.  Pushed arcs are
 * appended to a log the caller reads back after each call; when the log
 * has no room for the next augmenting path the call returns with the
 * phase intact, and the caller grows the log and calls again.
 *
 * Build: cc -O2 -shared -fPIC (the caller compiles this file on first
 * use).  No globals, so calls on different networks may run in
 * parallel threads.
 */

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

/* The arcs the current call pushed and their reverses, as
 * (arc id, final capacity) pairs for the caller to write back:
 * ids and caps hold 2 * log_len entries. */
void kvcc_pushed_caps(const kvcc_net *net, int *ids, int *caps)
{
    int i;
    for (i = 0; i < net->log_len; i++) {
        int a = net->log[i];
        ids[2 * i] = a;
        ids[2 * i + 1] = a ^ 1;
        caps[2 * i] = net->cap[a];
        caps[2 * i + 1] = net->cap[a ^ 1];
    }
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
