"""Simple graphs for the tests, given by their edges."""

import numpy as np

from dbrg.bigraph import Graph


def simple_graph(n, edges):
    """The graph on 0..n-1 with the (u, v) pairs of ``edges``, either way round."""
    adj = np.zeros((n, n), bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return Graph(adj)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return simple_graph(10, outer + inner + spokes)
