"""Independent oracles for the benchmark's three programs.

Nothing here imports the engine under test: every expected answer is
computed with NumPy and SciPy from the same integer EDB the engine was
given, by an algorithm that shares no code with it.

* :func:`check_sg_tree` checks SG on any subtree of a rooted tree without
  enumerating the answer: two nodes are in the same generation exactly when
  both have the same depth >= 1 and differ, so ``|sg| = sum_d n_d (n_d - 1)``.
* :func:`reach_oracle` is breadth-first reachability over paths of length
  >= 1 (``scipy.sparse.csgraph``).
* :func:`cspa_oracle` is a naive fixpoint of the eight CSPA rules written as
  boolean sparse-matrix products.

Every checker raises :class:`OracleMismatch` on the first disagreement.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


class OracleMismatch(AssertionError):
    """A relation returned by the engine differs from the oracle's answer."""


def as_pairs(rows) -> np.ndarray:
    """Rows of a binary relation as an ``(n, 2)`` int64 array."""
    array = np.asarray(rows, dtype=np.int64)
    return array.reshape(-1, 2)


def _pair_keys(pairs: np.ndarray, width: int) -> np.ndarray:
    return pairs[:, 0] * width + pairs[:, 1]


def check_pairs(name: str, got, expected: np.ndarray) -> None:
    """Require ``got`` to hold exactly the distinct pairs of ``expected``.

    ``expected`` is the oracle's answer as sorted, distinct ``(n, 2)`` rows.
    A duplicate, a missing or an extra row is a mismatch.
    """
    got = as_pairs(got)
    if got.shape[0] != expected.shape[0]:
        raise OracleMismatch(
            f"{name}: engine returned {got.shape[0]} rows, oracle has {expected.shape[0]}"
        )
    if got.size == 0:
        return
    width = int(max(got.max(), expected.max() if expected.size else 0)) + 1
    if int(min(got.min(), 0)) < 0:
        raise OracleMismatch(f"{name}: negative identifier in the engine's rows")
    got_keys = np.sort(_pair_keys(got, width))
    want_keys = _pair_keys(expected, width)
    if np.any(got_keys[1:] == got_keys[:-1]):
        raise OracleMismatch(f"{name}: engine returned duplicate rows")
    if not np.array_equal(got_keys, want_keys):
        extra = np.setdiff1d(got_keys, want_keys)
        missing = np.setdiff1d(want_keys, got_keys)
        sample = (
            f"extra {divmod(int(extra[0]), width)}" if extra.size
            else f"missing {divmod(int(missing[0]), width)}"
        )
        raise OracleMismatch(
            f"{name}: {extra.size} extra and {missing.size} missing rows ({sample})"
        )


def _sorted_pairs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    pairs = np.stack([rows.astype(np.int64), cols.astype(np.int64)], axis=1)
    if pairs.shape[0] > 1:
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
    return pairs


# ----------------------------------------------------------------------
# SG on a rooted tree
# ----------------------------------------------------------------------
def tree_depths(edges, root: int = 0) -> np.ndarray:
    """Depth of every node reachable from ``root`` (-1 elsewhere).

    Raises ``ValueError`` when ``edges`` is not a tree hanging from ``root``
    (a node with two parents, or an edge whose parent is unreachable).
    """
    edges = as_pairs(edges)
    size = int(max(edges.max(initial=root), root)) + 1
    children = edges[:, 1]
    if np.unique(children).shape[0] != children.shape[0]:
        raise ValueError("not a tree: some node has two parents")
    depth = np.full(size, -1, dtype=np.int64)
    depth[root] = 0
    while True:
        ready = (depth[edges[:, 0]] >= 0) & (depth[children] < 0)
        if not ready.any():
            break
        depth[children[ready]] = depth[edges[ready, 0]] + 1
    if np.any(depth[children] < 0):
        raise ValueError(f"not a tree rooted at {root}: some edge is unreachable")
    return depth


def _nodes_per_depth(depth: np.ndarray) -> np.ndarray:
    return np.bincount(depth[depth >= 1])


def sg_tree_count(edges, root: int = 0) -> int:
    """``|sg|`` on a tree: the sum over depths d >= 1 of ``n_d (n_d - 1)``."""
    per_depth = _nodes_per_depth(tree_depths(edges, root))
    return int(np.sum(per_depth * (per_depth - 1)))


def check_sg_tree(got, edges, root: int = 0) -> None:
    """Check an SG answer over a tree by count and by the per-pair property."""
    depth = tree_depths(edges, root)
    per_depth = _nodes_per_depth(depth)
    expected = int(np.sum(per_depth * (per_depth - 1)))
    got = as_pairs(got)
    if got.shape[0] != expected:
        raise OracleMismatch(f"sg: engine returned {got.shape[0]} rows, oracle has {expected}")
    if got.size == 0:
        return
    if got.min() < 0 or got.max() >= depth.shape[0]:
        raise OracleMismatch("sg: a returned pair names a node outside the tree")
    left, right = depth[got[:, 0]], depth[got[:, 1]]
    bad = (left < 1) | (left != right) | (got[:, 0] == got[:, 1])
    if bad.any():
        first = got[np.argmax(bad)]
        raise OracleMismatch(
            f"sg: pair {tuple(int(v) for v in first)} is not two distinct nodes of one depth >= 1"
        )
    keys = np.sort(_pair_keys(got, depth.shape[0]))
    if np.any(keys[1:] == keys[:-1]):
        raise OracleMismatch("sg: engine returned duplicate rows")


# ----------------------------------------------------------------------
# REACH: breadth-first reachability
# ----------------------------------------------------------------------
def reach_oracle(edges) -> np.ndarray:
    """Sorted distinct ``(x, y)`` with a path of length >= 1 from x to y."""
    edges = as_pairs(edges)
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    nodes, local = np.unique(edges, return_inverse=True)
    local = local.reshape(-1, 2)
    size = nodes.shape[0]
    adjacency = sparse.csr_matrix(
        (np.ones(local.shape[0], dtype=np.int8), (local[:, 0], local[:, 1])), shape=(size, size)
    )
    # Length >= 0 reachability from every node, one BFS per source...
    closure = np.zeros((size, size), dtype=np.int8)
    for source in range(size):
        closure[source, csgraph.breadth_first_order(adjacency, source, return_predecessors=False)] = 1
    # ...then one more hop in front, so x reaches itself only on a cycle.
    reach = (adjacency @ closure) > 0
    rows, cols = np.nonzero(reach)
    return _sorted_pairs(nodes[rows], nodes[cols])


# ----------------------------------------------------------------------
# CSPA: naive fixpoint over boolean sparse matrices
# ----------------------------------------------------------------------
def _boolean(matrix) -> sparse.csr_matrix:
    matrix = sparse.csr_matrix(matrix)
    matrix.data[:] = 1
    matrix.eliminate_zeros()
    return matrix.astype(np.int8)


def cspa_oracle(assign, dereference) -> dict[str, np.ndarray]:
    """valueflow, valuealias and memalias for one CSPA EDB.

    Relation ``r(a, b)`` is the matrix entry ``R[a, b]``.  Each rule of the
    program becomes one product, and the three relations are recomputed
    from scratch until none of them grows:

    * ``valueflow`` = A  +  A.M  +  VF.VF  +  diag(rows of A)  +  diag(cols of A)
    * ``valuealias`` = VF'.VF  +  VF'.M.VF
    * ``memalias`` = D'.VA.D
    """
    assign, dereference = as_pairs(assign), as_pairs(dereference)
    size = int(max(assign.max(initial=0), dereference.max(initial=0))) + 1

    def matrix(pairs: np.ndarray) -> sparse.csr_matrix:
        return _boolean(
            sparse.csr_matrix(
                (np.ones(pairs.shape[0], dtype=np.int64), (pairs[:, 0], pairs[:, 1])),
                shape=(size, size),
            )
        )

    a, d = matrix(assign), matrix(dereference)
    touched = np.zeros(size, dtype=np.int64)
    touched[assign[:, 0]] = 1
    touched[assign[:, 1]] = 1
    diagonal = sparse.diags(touched, format="csr", dtype=np.int8)
    vf = _boolean(a + diagonal)
    va = sparse.csr_matrix((size, size), dtype=np.int8)
    ma = sparse.csr_matrix((size, size), dtype=np.int8)
    while True:
        vf_i, va_i, ma_i = vf.astype(np.int64), va.astype(np.int64), ma.astype(np.int64)
        new_vf = _boolean(a + diagonal + a.astype(np.int64) @ ma_i + vf_i @ vf_i)
        new_va = _boolean(vf_i.T @ vf_i + vf_i.T @ ma_i @ vf_i)
        new_ma = _boolean(d.astype(np.int64).T @ va_i @ d.astype(np.int64))
        if new_vf.nnz == vf.nnz and new_va.nnz == va.nnz and new_ma.nnz == ma.nnz:
            break
        vf, va, ma = new_vf, new_va, new_ma
    answer = {}
    for name, relation in (("valueflow", vf), ("valuealias", va), ("memalias", ma)):
        coo = relation.tocoo()
        answer[name] = _sorted_pairs(coo.row, coo.col)
    return answer


def perturbation_rejected(check, rows: np.ndarray) -> None:
    """Show that ``check`` rejects ``rows`` with one row added or one dropped.

    ``check(rows)`` must accept the unperturbed rows; the added row repeats
    the first row's left value on both sides, or pairs it with an unused
    identifier when that self-pair is already in the answer.
    """
    rows = as_pairs(rows)
    if rows.shape[0] == 0:
        raise ValueError("cannot perturb an empty answer")
    check(rows)
    value = int(rows[0, 0])
    present = np.any((rows[:, 0] == value) & (rows[:, 1] == value))
    extra = (value, int(rows.max()) + 1) if present else (value, value)
    for label, perturbed in (
        ("one row added", np.vstack([rows, np.array([extra], dtype=np.int64)])),
        ("one row dropped", rows[:-1]),
    ):
        try:
            check(perturbed)
        except OracleMismatch:
            continue
        raise OracleMismatch(f"the checker accepted the answer with {label}")
