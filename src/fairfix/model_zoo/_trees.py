"""CART-style trees and a bagged forest, grown level by level.

Splits are exact: a node scores every cut between distinct sorted values of
every candidate feature, and ties go to the first feature in candidate
order, then to the first cut. Each feature is sorted once at the root, and
at every depth a stable regroup by node keeps each node's rows sorted by
value, equal values in ascending row order. All frontier nodes of a depth
are scored together as rows of padded (nodes, features, rows) blocks. One
fit can grow several trees, one per equal block of rows, or start from a
presort it is given (a boosting stage keeps its model's to its rows). A
fitted tree is a set of flat per-node arrays, numbered level by level, that
`predict` walks one depth at a time. A tree that draws candidate features
draws them from its own generator, at each split node in node order, so a
forest's independent trees grow a group at a time in stacked fits.

Sums that decide a split or a leaf value are numpy's own sums of a node's
rows in sort order, or a leaf's rows in row order, each taken at that row's
own length, so a tree is the same bit for bit whether grown alone or in a
stack.
"""

from __future__ import annotations

import numpy as np

# a scoring block holds at most this many cells (nodes x features x rows);
# a wider node is scored a group of features at a time, which bounds the
# working memory of a fit. The root sort and each regroup also work on
# about this many cells at a time
_BLOCK_CELLS = 1 << 16
# padding cells a block may hold beyond its nodes' rows: nodes are taken
# largest first, each padded to the first, so this keeps a block of small
# nodes from carrying a large one's width. Deep stage trees fit 1.5-2.5x
# slower with no padding (each node size alone) or with no bound on it
_PAD_CELLS = 2048


def _binary_entropy(p):
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        mask = q > 0
        out[mask] -= q[mask] * np.log2(q[mask])
    return out


def _row_sums(A, n):
    """`A[k, :, :n[k]].sum(axis=-1)` for every k of a C-contiguous (c, r, w)
    A, with n non-increasing. numpy sums the rows of each length at that
    length, so every total is the sum numpy gives for that row alone."""
    out = np.empty(A.shape[:2])
    firsts = [0, *((n[1:] != n[:-1]).nonzero()[0] + 1).tolist(), len(n)]
    for a, b in zip(firsts, firsts[1:]):
        out[a:b] = A[a:b, :, : n[a]].sum(axis=-1)
    return out


def _cut_scores(V, T, m, min_leaf, criterion):
    """Weighted child impurity at every cut of every row, inf where invalid.

    V and T are (c, f, w): node k's values and targets sorted by each of its
    candidate features in the first m[k] places of a row. Past them, V
    repeats the last value and T is 0. Cut i puts sorted places 0..i left;
    it is valid when it falls between distinct values and leaves min_leaf
    rows on each side.
    """
    w = V.shape[-1]
    ln = np.arange(1.0, w)
    rn = m[:, None, None] - ln
    if min_leaf > 1:
        # inf at the last min_leaf - 1 cuts of each node, 0 before them
        tail = np.where(rn < min_leaf, np.inf, 0.0)
    np.maximum(rn, 1.0, out=rn)  # a dummy right count past a node's rows
    # overwriting steps keep the arithmetic of the per-feature expressions
    # il = max(lq/ln - (ls/ln)**2, 0) and scores = (ln*il + rn*ir)/m
    if criterion == "variance":
        # targets and their squares, summed in one pass
        f = T.shape[1]
        TQ = np.empty((len(T), 2 * f, w))
        TQ[:, :f] = T
        np.multiply(T, T, out=TQ[:, f:])
        left = TQ[..., :-1].cumsum(axis=-1)
        right = _row_sums(TQ, m)[..., None] - left
        ls, lq = left[:, :f], left[:, f:]
        rs, rq = right[:, :f], right[:, f:]
        il, ir = lq / ln, rq / rn
        ls /= ln
        rs /= rn
        il -= ls * ls
        ir -= rs * rs
        np.maximum(il, 0.0, out=il)
        np.maximum(ir, 0.0, out=ir)
    else:
        lp = T[..., :-1].cumsum(axis=-1)
        rp = _row_sums(T, m)[..., None] - lp
        pl = lp / ln
        pr = rp / rn
        if criterion == "gini":
            il = 2.0 * pl * (1.0 - pl)
            ir = 2.0 * pr * (1.0 - pr)
        else:  # entropy
            il = _binary_entropy(pl)
            ir = _binary_entropy(pr)
    il *= ln
    ir *= rn
    il += ir
    il /= m[:, None, None]
    # V repeats a node's last value past its rows, so this also rules out
    # every cut past the node's last row
    il[V[..., 1:] == V[..., :-1]] = np.inf
    if min_leaf > 1:
        il[..., : min_leaf - 1] = np.inf
        il += tail
    return il


def _blocks(sizes, features):
    """(nodes, first feature, end feature) of each scoring block.

    Nodes are taken largest first, each block padded to its first node's
    size; a node too wide for one block is scored a group of features at a
    time, in feature order.
    """
    by_size = (-sizes).argsort(kind="stable")
    size = sizes[by_size].tolist()
    i = 0
    while i < len(size):
        w = size[i]
        group = max(1, _BLOCK_CELLS // w)
        if group < features:
            for f in range(0, features, group):
                yield by_size[i : i + 1], f, min(f + group, features)
            i += 1
            continue
        j, pad = i + 1, 0
        room = _BLOCK_CELLS // (features * w)
        while j < len(size) and j - i < room:
            pad += (w - size[j]) * features
            if pad > _PAD_CELLS:
                break
            j += 1
        yield by_size[i:j], 0, features
        i = j


def _best_splits(X, target, order, starts, sizes, feats, min_leaf, criterion):
    """(score, feature, threshold) of the best cut of each node.

    Node k holds places starts[k]..starts[k]+sizes[k] of every row of
    `order`; feats[k] lists its candidate features, or None means every
    feature. A node with no valid cut scores inf. NaN scores come only from
    non-finite or overflowing targets, which leave no finite score in any
    feature: a NaN pick loses, and the node stays a leaf.
    """
    d, width = X.shape[1], order.shape[1]
    flat = order.ravel()
    every = feats is None
    n_feats = X.shape[1] if every else feats.shape[1]
    best = np.full(len(starts), np.inf)
    feature = np.zeros(len(starts), dtype=np.intp)
    threshold = np.zeros(len(starts))
    for nodes, f0, f1 in _blocks(sizes, n_feats):
        m = sizes[nodes]
        w = int(m[0])
        fb = np.arange(f0, f1)[None] if every else feats[nodes, f0:f1]
        if every and len(nodes) == 1:
            a = int(starts[nodes[0]])
            rows = order[None, f0:f1, a : a + w].astype(np.intp)
        else:
            pos = starts[nodes, None] + np.minimum(np.arange(w), m[:, None] - 1)
            rows = flat[fb[:, :, None] * width + pos[:, None, :]].astype(np.intp)
        # C-contiguous (node, feature, row) gathers, so a row's sum is
        # numpy's pairwise sum, as for one feature's 1-D slice
        V = X.ravel()[rows * d + fb[:, :, None]]
        T = target[rows]
        if w > m[-1]:
            np.copyto(T, 0.0, where=np.arange(w) >= m[:, None, None])
        scores = _cut_scores(V, T, m, min_leaf, criterion)
        c, f = len(nodes), f1 - f0
        k = np.arange(c)
        pick = scores.reshape(c, -1).argmin(axis=1) + k * (f * (w - 1))
        score = scores.ravel()[pick]
        r, i = np.divmod(pick, w - 1)  # r numbers the block's (node, feature) rows
        win = score < best[nodes]  # strict, so an earlier group keeps a tie
        won = nodes[win]
        best[won] = score[win]
        feature[won] = (f0 + r % f if every else fb.ravel()[r])[win]
        at = r * w + i  # cut i of row r of V
        threshold[won] = ((V.ravel()[at] + V.ravel()[at + 1]) / 2.0)[win]
    return best, feature, threshold


def _presort(X, trees):
    """Each feature's order of X's rows, sorted within each of `trees`
    equal blocks of rows, equal values in row order; then a last row that
    lists the rows in ascending order."""
    N, d = X.shape
    n = N // trees
    order = np.empty((d + 1, N), dtype=np.uint16 if N <= 2**16 else np.int32)
    order[d] = np.arange(N)
    step = max(1, _BLOCK_CELLS // max(N, 1))
    offsets = (np.arange(trees) * n)[:, None]
    for f in range(0, d, step):
        key = X[:, f : f + step].T.reshape(-1, n).argsort(axis=1, kind="stable")
        part = order[f : f + len(key) // trees].reshape(-1, trees, n)
        np.add(key.reshape(part.shape), offsets, out=part, casting="unsafe")
    return order


def _presort_rows(order, rows):
    """`_presort(X[rows], 1)` from X's own presort `order`, for ascending
    `rows`: each row of `order` keeps the rows taken, in its order, each
    renumbered to its index in `rows`."""
    taken = np.zeros(order.shape[1], dtype=bool)
    taken[rows] = True
    index = (taken.cumsum() - 1).astype(order.dtype)
    return index[order[taken[order]].reshape(len(order), len(rows))]


def _regroup(order, M, side, lefts, rights):
    """Regroup, within `order`, the first M places of each row: rows on
    side 0 first, then rows on side 1, each in their current order; rows on
    side 2 leave. Each row holds `lefts` side-0 and `rights` side-1 rows."""
    step = max(1, _BLOCK_CELLS // max(M, 1))
    for f in range(0, len(order), step):
        part = order[f : f + step, :M]
        n = len(part)
        part = part.ravel()
        s = np.take(side, part)
        goes = np.compress(s == 0, part), np.compress(s == 1, part)
        order[f : f + step, :lefts] = goes[0].reshape(n, lefts)
        order[f : f + step, lefts : lefts + rights] = goes[1].reshape(n, rights)
    return lefts + rights


class _Tree:
    """Shared growth and prediction.

    Nodes are numbered level by level: the roots first, one per tree, then
    each depth's nodes, the left children of its split nodes in their order
    before the right ones. A leaf has feature -1 and is its own left and
    right child, so a walk that reaches it stays there. A leaf's value is
    the sum of its rows' targets over the sum of their weights, each row
    weighing 1 if no weights are given; a gini or entropy tree takes the
    majority label of that mean, ties to 1.
    """

    def __init__(self, max_depth, min_leaf, criterion):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.criterion = criterion
        self.n_trees = 0
        self.depth = 0
        self.feature = self.threshold = self.left = self.right = self.value = None

    def fit(self, X, target, weight=None, rng=None, max_features=None, trees=1, order=None):
        """Grow `trees` trees, tree t on the t-th of `trees` equal blocks of
        rows of (X, target, weight); generator `rng[t]` draws `max_features`
        candidate features at each split node of tree t, in node order.
        `order`, if given, is `_presort(X, trees)`, and the fit overwrites it."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        N, d = X.shape
        if N % trees:
            raise ValueError(f"{N} rows do not make {trees} equal blocks")
        self.n_trees = trees
        drawn = max_features is not None and max_features < d
        # each level's nodes hold the first M places of every row of
        # `order`, node after node; its last row lists each node's rows in
        # ascending order
        if order is None:
            order = _presort(X, trees)
        M = N
        starts = np.arange(trees) * (N // trees)
        sizes = np.full(trees, N // trees)
        side = np.empty(N, dtype=np.uint8)  # 0 left, 1 right, 2 in a leaf
        tree_of = np.arange(trees)  # each node's tree, kept while drawing
        levels = []
        leaves = []  # (rows, ids, row counts) of each level's leaves
        base, depth = 0, 0
        while True:
            K = len(starts)
            ids = base + np.arange(K)
            rows = order[d, :M].astype(np.intp)
            feature = np.full(K, -1, dtype=np.intp)
            threshold = np.zeros(K)
            cand = np.empty(0, dtype=np.intp)
            if depth < self.max_depth:
                t = target[rows]
                cand = (
                    (sizes >= 2 * self.min_leaf)
                    & (np.minimum.reduceat(t, starts) != np.maximum.reduceat(t, starts))
                ).nonzero()[0]
            if cand.size:
                feats = None
                if drawn:
                    feats = np.empty((len(cand), max_features), dtype=np.intp)
                    for j, t in enumerate(tree_of[cand].tolist()):
                        feats[j] = np.sort(rng[t].choice(d, size=max_features, replace=False))
                score, f, thr = _best_splits(
                    X, target, order, starts[cand], sizes[cand], feats,
                    self.min_leaf, self.criterion,
                )
                ok = score < np.inf
                cand = cand[ok]
                feature[cand] = f[ok]
                threshold[cand] = thr[ok]
            split = feature >= 0
            S = len(cand)
            # split node r of this depth's S has next-depth nodes r, its
            # left child, and S + r, its right
            child = np.zeros(K, dtype=np.intp)
            child[cand] = np.arange(S)
            left = np.where(split, base + K + child, ids)
            levels.append((feature, threshold, left, np.where(split, left + S, ids)))
            if not S:
                leaves.append((rows, ids, sizes))
                break
            feature_at = np.repeat(feature, sizes)  # of each position's node
            kk = feature_at >= 0
            if not kk.all():
                leaves.append((rows[~kk], ids[~split], sizes[~split]))
            x = X.ravel()[rows * d + feature_at]
            right = ~(x <= np.repeat(threshold, sizes)) & kk
            # each split node's right rows: a leaf's places add none
            rights = np.add.reduceat(right, starts[cand], dtype=np.intp)
            sizes = np.concatenate((sizes[cand] - rights, rights))
            base += K
            depth += 1
            if depth == self.max_depth:
                # the children are leaves
                ids = base + np.arange(2 * S)
                levels.append((np.full(2 * S, -1), np.zeros(2 * S), ids, ids))
                leaves.append((np.concatenate((rows[kk & ~right], rows[right])), ids, sizes))
                break
            if drawn:
                tree_of = np.tile(tree_of[cand], 2)
            side[rows] = np.where(kk, right, 2)
            M = _regroup(order, M, side, int(sizes[:S].sum()), int(rights.sum()))
            starts = sizes.cumsum() - sizes
        self.depth = depth
        self.feature, self.threshold, self.left, self.right = (
            np.concatenate(a) for a in zip(*levels)
        )
        # each leaf's rows, ascending, leaf after leaf
        rows, ids, counts = (np.concatenate(a) for a in zip(*leaves))
        firsts = counts.cumsum() - counts
        arrays = (target,) if weight is None else (target, weight)
        sums = _run_sums(arrays, rows, firsts, counts)
        value = sums[0] / np.maximum(counts if weight is None else sums[1], 1e-12)
        if self.criterion != "variance":
            value = np.where(value >= 0.5, 1.0, 0.0)  # majority label, ties to 1
        self.value = np.zeros(len(self.feature))
        self.value[ids] = value
        return self

    def predict(self, X):
        """Values at X's rows: (len(X),) for one tree, else (trees, len(X))."""
        X = np.asarray(X, dtype=np.float64)
        r = np.arange(len(X))
        node = np.repeat(np.arange(self.n_trees)[:, None], len(X), axis=1)
        for _ in range(self.depth):
            goes_left = X[r, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        out = self.value[node]
        return out[0] if self.n_trees == 1 else out


def _run_sums(arrays, rows, firsts, counts):
    """numpy's sum of a[rows[f:f+m]] for each of the 1-D arrays a and run
    (f, m) in zip(firsts, counts), as an (arrays, runs) array."""
    # C-contiguous (arrays, rows) and (arrays, runs, m) gathers, so each
    # run's sum is numpy's pairwise sum, as for its own 1-D slice
    G = np.array(arrays).take(rows, axis=1)
    out = np.empty((len(arrays), len(counts)))
    by_length = {}
    for j, m in enumerate(counts.tolist()):
        by_length.setdefault(m, []).append(j)
    for m, runs in by_length.items():
        if len(runs) == 1:  # a slice, which costs less than a gather
            f = firsts[runs[0]]
            out[:, runs[0]] = G[:, f : f + m].sum(axis=-1)
        else:
            out[:, runs] = G.take(firsts[runs, None] + np.arange(m), axis=1).sum(axis=-1)
    return out


class ClassificationTree(_Tree):
    def __init__(self, max_depth, min_leaf, criterion="gini"):
        super().__init__(max_depth, min_leaf, criterion)

    def predict(self, X):
        return super().predict(X).astype(np.int8)


class RegressionTree(_Tree):
    def __init__(self, max_depth, min_leaf):
        super().__init__(max_depth, min_leaf, "variance")


class RandomForestModel:
    def __init__(self, trees, max_depth, max_features, min_leaf, bootstrap):
        self.n_trees = trees
        self.max_depth = max_depth
        self.max_features = max_features  # "sqrt" | "log2" | "all"
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.trees = []

    def _feature_count(self, d):
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features == "log2":
            return max(1, int(np.log2(d)))
        return None

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        mf = self._feature_count(d)
        # tree t draws from its own generator, seeded by the t-th seed, so the
        # first k trees are a k-tree forest; a group's presort fits one block
        seeds = rng.integers(2**63, size=self.n_trees).tolist()
        if not self.bootstrap and (mf is None or mf >= d):
            seeds = seeds[:1]  # every tree would grow on the same rows and features
        group = max(1, _BLOCK_CELLS // max(1, n * (d + 1)))
        self.trees = []
        for g in range(0, len(seeds), group):
            gens = [np.random.default_rng(s) for s in seeds[g : g + group]]
            rows = [r.integers(0, n, n) if self.bootstrap else np.arange(n) for r in gens]
            idx = np.concatenate(rows)
            tree = ClassificationTree(self.max_depth, self.min_leaf, "gini")
            tree.fit(X[idx], y[idx], rng=gens, max_features=mf, trees=len(gens))
            self.trees.append(tree)
        return self

    def predict(self, X):
        # each group's (trees, rows) walk, summed over its trees
        votes = sum(t.predict(X).reshape(t.n_trees, -1).sum(axis=0) for t in self.trees)
        # majority vote of the fitted trees, ties to 1
        return (2 * votes >= sum(t.n_trees for t in self.trees)).astype(np.int8)
