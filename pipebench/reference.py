"""Reference answers computed by the benchmark itself, never by the program.

Everything here works on the generator's own vertex ids and edge arrays
(``u < v``, one row per edge) and is independent of the package under
test:

* κ at (1, 2) is ``networkx.core_number``;
* κ at (2, 3) comes from a batch truss peeling over a triangle list built
  here (wedges of a degree-oriented forward adjacency, closed by a binary
  search over packed edge keys);
* the hierarchy reference gives, for every κ level ``k``, the partition of
  the r-cliques with κ >= k into connected components over the s-cliques
  whose r-cliques all have κ >= k (``scipy.sparse.csgraph``).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def edge_keys(u, v, n):
    """Packed key ``min * n + max`` of every edge (int64)."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    return lo.astype(np.int64) * n + hi


def triangles(n, u, v):
    """Every triangle once, as an ``(T, 3)`` array of edge indices."""
    keys = edge_keys(u, v, n)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    # orient every edge towards the endpoint of higher (degree, id) rank
    rank = np.lexsort((np.arange(n), deg))
    pos = np.empty(n, dtype=np.int64)
    pos[rank] = np.arange(n)
    fwd_u = np.where(pos[u] < pos[v], u, v)
    fwd_v = np.where(pos[u] < pos[v], v, u)
    fwd_e = np.arange(len(u), dtype=np.int64)
    by_src = np.argsort(fwd_u, kind="stable")
    fwd_u, fwd_v, fwd_e = fwd_u[by_src], fwd_v[by_src], fwd_e[by_src]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fwd_u, minlength=n), out=ptr[1:])
    # every pair (a, b), a < b, of positions within one forward row
    later = ptr[fwd_u + 1] - np.arange(len(u), dtype=np.int64) - 1
    a = np.repeat(np.arange(len(u), dtype=np.int64), later)
    b = a + 1 + np.arange(len(a), dtype=np.int64) - np.repeat(np.cumsum(later) - later, later)
    closing = edge_keys(fwd_v[a], fwd_v[b], n)
    hit = np.searchsorted(sorted_keys, closing)
    hit[hit == len(sorted_keys)] = 0
    found = sorted_keys[hit] == closing
    return np.column_stack((fwd_e[a][found], fwd_e[b][found], order[hit[found]]))


def incidence(groups, num_items):
    """CSR ``(ptr, ids)`` listing, for every item, the groups containing it."""
    flat = groups.ravel()
    owner = np.repeat(np.arange(len(groups), dtype=np.int64), groups.shape[1])
    order = np.argsort(flat, kind="stable")
    ptr = np.zeros(num_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=num_items), out=ptr[1:])
    return ptr, owner[order]


def peel(groups, num_items):
    """κ of every item by batch peeling over its containing groups.

    The support of an item is the number of live groups containing it; at
    level ``k`` every item whose support is at most ``k`` is removed (κ =
    ``k``) together with the groups it kills, until none is left, and
    ``k`` then jumps to the smallest remaining support.  With groups =
    triangles and items = edges this is the truss decomposition.
    """
    ptr, ids = incidence(groups, num_items)
    support = np.diff(ptr)
    kappa = np.full(num_items, -1, dtype=np.int64)
    live_item = np.ones(num_items, dtype=bool)
    live_group = np.ones(len(groups), dtype=bool)
    k = 0
    while live_item.any():
        k = max(k, int(support[live_item].min()))
        while True:
            batch = np.flatnonzero(live_item & (support <= k))
            if not len(batch):
                break
            kappa[batch] = k
            live_item[batch] = False
            counts = ptr[batch + 1] - ptr[batch]
            starts = np.repeat(ptr[batch] - np.cumsum(counts) + counts, counts)
            hit = ids[starts + np.arange(counts.sum(), dtype=np.int64)]
            dead = np.unique(hit[live_group[hit]])
            live_group[dead] = False
            support -= np.bincount(groups[dead].ravel(), minlength=num_items)
    return kappa


def core_numbers(n, u, v):
    """κ at (1, 2) of every vertex id, from ``networkx.core_number``."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(u.tolist(), v.tolist()))
    core = nx.core_number(graph)
    return np.fromiter((core[x] for x in range(n)), dtype=np.int64, count=n)


def level_partitions(kappa, groups):
    """Reference nuclei: component label of every r-clique at every level.

    Row ``k`` labels the r-cliques with κ >= k by their connected component
    over the s-cliques (``groups``, rows of r-clique indices) whose members
    all have κ >= k; r-cliques with κ < k get ``-1``.
    """
    n = len(kappa)
    max_k = int(kappa.max(initial=0))
    group_min = kappa[groups].min(axis=1) if len(groups) else np.empty(0, np.int64)
    labels = np.full((max_k + 1, n), -1, dtype=np.int32)
    for k in range(max_k + 1):
        live = groups[group_min >= k]
        src = np.repeat(live[:, 0], live.shape[1] - 1)
        dst = live[:, 1:].ravel()
        graph = coo_matrix(
            (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
        ).tocsr()
        _, comp = connected_components(graph, directed=False)
        active = kappa >= k
        labels[k, active] = comp[active]
    return labels


def reference(workload_rs, n, u, v):
    """``(kappa, level_labels)`` indexed by the generator's r-clique ids.

    r-cliques are vertex ids at (1, 2) and edge rows at (2, 3).
    """
    if workload_rs == (1, 2):
        kappa = core_numbers(n, u, v)
        groups = np.column_stack((u, v))
    else:
        groups = triangles(n, u, v)
        kappa = peel(groups, len(u))
    return kappa, level_partitions(kappa, groups)
