"""Seeded input generator for the pipeline benchmark.

The graph model is a copy of the heterogeneous-attachment power-law
cluster model (Holme-Kim triad formation with a per-vertex attachment
count drawn uniformly from ``[m_min, m_max]``).  It lives here, not in
the package, so that a change to the program can never change the
workload.  The same seed always yields the same edge list, byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

#: Prefixes of the unicode vertex labels: multi-byte letters from several
#: scripts, so the string read path sees real UTF-8 and a non-trivial sort.
SYLLABLES = ("Zoë", "Ωμέγα", "東京", "Ñandú", "Şişli", "Łódź", "Αθήνα", "Дом")


@dataclass
class EdgeInput:
    """A generated graph: ``n`` vertices, edges ``(u, v)`` with ``u < v``."""

    n: int
    u: np.ndarray
    v: np.ndarray
    labels: list  # label of every vertex id, as written to the file

    @property
    def m(self) -> int:
        return len(self.u)


def heterogeneous_cluster_edges(n, m_min, m_max, p, seed):
    """Edge arrays of the heterogeneous-attachment power-law cluster model.

    Starts from a clique on ``m_max + 1`` vertices.  Every later vertex
    draws its attachment count from ``[m_min, m_max]``; each target is a
    uniform neighbour of the previous target with probability ``p`` (triad
    formation) and a degree-proportional vertex otherwise.
    """
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    nbrs = [[] for _ in range(n)]

    def link(a, b):
        adj[a].add(b)
        adj[b].add(a)
        nbrs[a].append(b)
        nbrs[b].append(a)

    for a in range(m_max + 1):
        for b in range(a + 1, m_max + 1):
            link(a, b)
    repeated = [u for u in range(m_max + 1) for _ in range(m_max)]
    for new in range(m_max + 1, n):
        m = rng.randint(m_min, m_max)
        added = []
        mine = adj[new]
        while len(added) < m:
            if added and rng.random() < p:
                pivot = nbrs[added[-1]]
                # uniform over the pivot's neighbours not yet linked to `new`:
                # rejection sampling, with an exact scan when most are taken
                target = None
                for _ in range(8):
                    w = pivot[rng.randrange(len(pivot))]
                    if w != new and w not in mine:
                        target = w
                        break
                else:
                    free = [w for w in pivot if w != new and w not in mine]
                    if free:
                        target = rng.choice(free)
                if target is not None:
                    link(new, target)
                    repeated.append(target)
                    added.append(target)
                    continue
            target = rng.choice(repeated)
            if target != new and target not in mine:
                link(new, target)
                repeated.append(target)
                added.append(target)
        repeated.extend([new] * m)
    count = sum(len(row) for row in nbrs)
    src = np.repeat(np.arange(n, dtype=np.int64), [len(row) for row in nbrs])
    dst = np.fromiter((w for row in nbrs for w in row), dtype=np.int64, count=count)
    keep = src < dst
    return src[keep], dst[keep]


def unicode_labels(n, seed):
    """Distinct UTF-8 labels, one per vertex, shuffled by ``seed``."""
    order = list(range(n))
    random.Random(seed ^ 0x5EED).shuffle(order)
    return [f"{SYLLABLES[i % len(SYLLABLES)]}_{i}" for i in order]


def make_input(n, m_min, m_max, p, seed, string_labels):
    u, v = heterogeneous_cluster_edges(n, m_min, m_max, p, seed)
    labels = unicode_labels(n, seed) if string_labels else list(range(n))
    return EdgeInput(n=n, u=u, v=v, labels=labels)


def write_edge_list(inp: EdgeInput, path, seed):
    """Write the edges in a seeded shuffled order; returns the sha256 hex."""
    perm = np.random.default_rng(seed).permutation(inp.m)
    labels = inp.labels
    pairs = zip(inp.u[perm].tolist(), inp.v[perm].tolist())
    data = "".join(f"{labels[a]} {labels[b]}\n" for a, b in pairs).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
