"""Tree convolution over binary plan trees (Mou et al. [41]).

This is the neural architecture used by Neo [38], Bao [37] and the
tree-convolution cost model of Marcus & Papaemmanouil [39]: each plan-tree
node carries a feature vector; a *tree convolution* layer maps every node to
a new vector computed from the concatenation of (node, left child, right
child) features; after a stack of such layers, dynamic max-pooling over all
nodes yields a fixed-size plan embedding which a small MLP head maps to the
prediction (cost / latency / preference score).

Trees of different shapes are batched by flattening all nodes of all trees
into one array with a shared "null" row at index 0 standing in for missing
children, which lets both the forward and the backward pass be fully
vectorized with numpy gather operations.

Training never re-stacks trees: a :class:`PlanTreeCorpus` holds every node
of every tree once, layer 1 reads each node's ``[x_v ; x_l ; x_r]`` row from
a table built once per fit, and a fit's batches come from one plan whose
index arrays are built a block of epochs at a time (see DESIGN.md §7,
"training kernel").

The kernel computes in float32 (``DTYPE``), as Bao's own TreeConv does:
features and targets are cast to it once, and every other array takes its
dtype from the parameters or the corpus.  Scalars stay Python floats, which
numpy's promotion rules keep from upcasting a float32 array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.ml.nn import Adam, mse_loss

__all__ = ["PlanTreeBatch", "PlanTreeCorpus", "TreeConvNet"]

Tree = tuple[np.ndarray, np.ndarray, np.ndarray]

#: node rows of batch index arrays a plan builds at once (or one batch, when
#: a single batch is larger), and the trees of orders it reads at once: the
#: plan's size depends on neither the number of epochs nor the corpus
PLAN_ROWS = 1024

#: the one floating dtype of the kernel: parameters, gradients, optimizer
#: state, corpus features and every batch and buffer take theirs from this
#: (Bao's own TreeConv trains in float32; nothing here needs float64)
DTYPE = np.float32


@dataclass
class PlanTreeBatch:
    """A batch of binary trees flattened for vectorized tree convolution.

    Node rows ``1..N`` are the batch's nodes, tree after tree; row 0 is the
    null node that stands in for a missing child.

    Attributes
    ----------
    layer1:
        ``[N, 3 * node_dim]``: each node's ``[x_v ; x_l ; x_r]`` feature row
        (zeros for a missing child), the first conv layer's input.
    idx3:
        ``[N, 3]`` int array: each node's own row, left-child row and
        right-child row (0 = null), so one gather ``x[idx3]`` of a layer's
        output is the next layer's ``[node ; left ; right]`` concatenation.
    tree_slices:
        ``[n_trees, 2]`` int array of per-tree ``(start, stop)`` row ranges
        (offsets already include the +1 null-row shift).  Trees are
        contiguous and in order, so ``tree_slices[i, 1] == tree_slices[i +
        1, 0]``.
    pad:
        ``[n_trees, max_nodes]`` rows of each tree, padded with row 0 (which
        pooling turns into a ``-inf`` sentinel).
    parent_slot:
        ``[N]`` row of ``d_concat.reshape(-1, node_dim)`` holding the
        gradient a node's parent sends it: ``3 * parent + 1`` for a left
        child, ``+ 2`` for a right child, ``3 * N`` (a zero row) for a root.
        Only training batches carry it; ``None`` otherwise.
    """

    layer1: np.ndarray
    idx3: np.ndarray
    tree_slices: np.ndarray
    pad: np.ndarray
    parent_slot: np.ndarray | None = None

    @property
    def n_trees(self) -> int:
        return len(self.tree_slices)

    @classmethod
    def from_trees(cls, trees: Sequence[Tree]) -> "PlanTreeBatch":
        """Build a batch from ``(features, left, right)`` triples.

        Each tree supplies node ``features`` of shape ``[n, d]`` and per-node
        child indices ``left``/``right`` in ``[-1, n)``, where ``-1`` means
        "no child"; a node may be the child of at most one node.  The batch
        carries no parent slots: it is for inference.  The trees are
        validated (:meth:`PlanTreeCorpus.from_trees`), then batched by
        :meth:`gather` with each node its own row.
        """
        corpus = PlanTreeCorpus.from_trees(trees)
        rows = np.arange(len(corpus.features))
        return cls.gather(corpus.features, rows, corpus.left, corpus.right, corpus.sizes)

    @classmethod
    def gather(
        cls,
        nodes: np.ndarray,
        rows: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        sizes: np.ndarray,
    ) -> "PlanTreeBatch":
        """The inference batch of trees laid out back to back, node ``j``
        (in layout order) with features ``nodes[rows[j]]``.

        ``left``/``right`` are the tree-local child indices of every node in
        layout order and ``sizes`` the trees' node counts.  Nothing is
        validated: this is for trees built from a table of distinct nodes
        (:class:`repro.costmodel.features.NodeTable`, where trees share
        rows) and for :meth:`from_trees`, which validated them.  Layer 1 is
        one gather through ``idx3``, shifted past the null row.
        """
        first = np.cumsum(sizes) - sizes + 1
        idx3, pad = _index(left, right, sizes, first)
        x = np.zeros((len(nodes) + 1, nodes.shape[1]), DTYPE)
        x[1:] = nodes
        src = np.zeros(len(rows) + 1, dtype=int)
        src[1:] = rows + 1
        return cls(
            x.take(src.take(idx3), axis=0).reshape(len(idx3), 3 * nodes.shape[1]),
            idx3,
            np.stack([first, first + sizes], axis=1),
            pad,
        )


def _index(
    left: np.ndarray, right: np.ndarray, sizes: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(idx3, pad)`` of trees laid out back to back.

    ``left``/``right`` are tree-local child indices (``-1`` = none) of every
    node in layout order, ``sizes`` the trees' node counts and ``first`` the
    row each tree's first node lands on.
    """
    shift = np.repeat(first, sizes)
    pos = np.arange(len(left)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx3 = np.empty((len(left), 3), dtype=int)
    idx3[:, 0] = shift + pos
    idx3[:, 1] = np.where(left >= 0, left + shift, 0)
    idx3[:, 2] = np.where(right >= 0, right + shift, 0)
    pad = np.zeros((len(sizes), int(sizes.max())), dtype=int)
    pad[np.repeat(np.arange(len(sizes)), sizes), pos] = idx3[:, 0]
    return idx3, pad


def shuffles(rng: np.random.Generator, n: int, epochs: int) -> Iterator[np.ndarray]:
    """One ``rng.permutation(n)`` per epoch, drawn only when read: the
    stream an epoch-at-a-time loop draws, as long as nothing else draws from
    ``rng`` while it is read."""
    return (rng.permutation(n) for _ in range(epochs))


@dataclass
class PlanTreeCorpus:
    """Every node of a set of trees, stored once; batches are gathers from it.

    Attributes
    ----------
    features:
        ``[total_nodes, node_dim]`` node features of all trees, concatenated
        (no null row).
    left, right:
        ``[total_nodes]`` child indices *local to the node's own tree*
        (``-1`` = no child).
    starts, sizes:
        ``[n_trees]`` first node row and node count of each tree.  A
        resample (:meth:`resample`) is a new ``starts``/``sizes`` pair over
        the same node arrays: trees may repeat and need not be in storage
        order.
    """

    features: np.ndarray
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @classmethod
    def from_trees(cls, trees: Sequence[Tree]) -> "PlanTreeCorpus":
        """Concatenate and validate ``(features, left, right)`` triples.

        Raises ``ValueError`` (naming the tree) unless every child index is
        in ``[-1, n)`` and every node is the child of at most one node --
        the invariant the parent-slot backward pass relies on.
        """
        if len(trees) == 0:
            raise ValueError("cannot batch zero trees")
        feats = [np.asarray(t[0], dtype=DTYPE) for t in trees]
        lefts = [np.asarray(t[1], dtype=int) for t in trees]
        rights = [np.asarray(t[2], dtype=int) for t in trees]
        node_dim = feats[0].shape[1] if feats[0].ndim == 2 else -1
        for f, l, r in zip(feats, lefts, rights):
            if f.ndim != 2 or f.shape[1] != node_dim:
                raise ValueError("inconsistent node feature dimensions in batch")
            if l.shape != f.shape[:1] or r.shape != f.shape[:1]:
                raise ValueError("child index arrays must have one entry per node")
            if f.shape[0] == 0:
                raise ValueError("cannot batch an empty tree")
        sizes = np.array([f.shape[0] for f in feats])
        starts = np.cumsum(sizes) - sizes
        total = int(starts[-1] + sizes[-1])
        both = np.concatenate(lefts + rights)  # all left columns, then all right
        tree_of = np.tile(np.repeat(np.arange(len(sizes)), sizes), 2)
        bad = (both < -1) | (both >= sizes[tree_of])
        if bad.any():
            raise ValueError(
                f"tree {tree_of[bad.argmax()]}: child index outside [-1, n)"
            )
        is_child = both >= 0
        parents = np.bincount((both + starts[tree_of])[is_child], minlength=total)
        if (parents > 1).any():
            raise ValueError(
                f"tree {tree_of[(parents > 1).argmax()]}: a node is the child "
                "of more than one node"
            )
        left, right = both[:total], both[total:]
        return cls(np.concatenate(feats, axis=0), left, right, starts, sizes)

    def resample(self, idx: np.ndarray) -> "PlanTreeCorpus":
        """The corpus of trees ``idx`` (repeats allowed); copies no node."""
        return PlanTreeCorpus(
            self.features, self.left, self.right, self.starts[idx], self.sizes[idx]
        )

    def plan(
        self, orders: Iterable[np.ndarray], batch_size: int
    ) -> Iterator[tuple[np.ndarray, Iterator[PlanTreeBatch]]]:
        """``(order, batches)`` for each epoch's tree order in ``orders``:
        the order, then an iterator over its consecutive batches of
        ``batch_size`` trees.

        Layer 1 reads a table built once per call (:meth:`_layer1`), one
        gather per batch.  The index arrays -- ``idx3``, ``pad``, the parent
        slots and the cuts -- are built a block of batches at a time, epochs
        back to back, at most ``PLAN_ROWS`` node rows a block (or one
        batch).  ``orders`` is read a chunk of epochs at a time, until the
        chunk holds ``PLAN_ROWS`` trees, so the plan holds fewer than
        ``PLAN_ROWS`` trees plus one epoch of orders however many epochs it
        has.  Starting an epoch before the previous one's batches are all
        read raises ``RuntimeError``.
        """
        stream = self._batches(orders, batch_size)
        unread = 0  # batches of the epoch handed out last, not yet read

        def epoch_batches(first: PlanTreeBatch) -> Iterator[PlanTreeBatch]:
            nonlocal unread
            unread -= 1
            yield first
            while unread:
                unread -= 1
                yield next(stream)[1]

        for order, first in stream:
            if unread:
                raise RuntimeError("an epoch of a plan was not read to its end")
            unread = -(-len(order) // batch_size)
            yield order, epoch_batches(first)

    def _layer1(self) -> tuple[np.ndarray, "PlanTreeCorpus"]:
        """The layer-1 table and the corpus laid out over its rows.

        The table holds, once, each node of the trees this corpus uses (a
        resample leaves some out): ``[nodes, 3 * node_dim]``, node ``v``'s
        ``[x_v ; x_l ; x_r]``, zeros for a missing child.  The corpus has
        the same trees, in the same order, with the table's rows as its
        nodes.
        """
        starts, once, tree = np.unique(
            self.starts, return_index=True, return_inverse=True
        )
        sizes = self.sizes[once]
        first = np.cumsum(sizes) - sizes  # each tree's first table row
        root = np.repeat(starts, sizes)  # stored row of each node's tree
        rows = root + np.arange(len(root)) - np.repeat(first, sizes)
        d = self.features.shape[1]
        layer1 = np.zeros((len(rows), 3 * d), self.features.dtype)
        layer1[:, :d] = self.features[rows]
        left, right = self.left[rows], self.right[rows]
        for side, children in ((1, left), (2, right)):
            has = children >= 0
            layer1[has, side * d : (side + 1) * d] = self.features[(children + root)[has]]
        corpus = PlanTreeCorpus(layer1[:, :d], left, right, first[tree], self.sizes)
        return layer1, corpus

    def _batches(
        self, orders: Iterable[np.ndarray], batch_size: int
    ) -> Iterator[tuple[np.ndarray, PlanTreeBatch]]:
        """``(order, batch)`` for every epoch's batches, in order, ``order``
        being the batch's epoch (see :meth:`plan`)."""
        layer1, corpus = self._layer1()
        epochs = iter(orders)
        while True:
            # A chunk of epochs: at least PLAN_ROWS trees, or what is left.
            chunk, trees = [], 0
            for order in epochs:
                chunk.append(np.asarray(order, dtype=int))
                trees += len(order)
                if trees >= PLAN_ROWS:
                    break
            if not chunk:
                return
            lengths = np.array([len(order) for order in chunk])
            if not lengths.all():
                raise ValueError("cannot plan an empty epoch")
            # Tree positions in the chunk where a batch starts, then the end.
            per = -(-lengths // batch_size)
            k = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
            bounds = np.append(
                np.repeat(np.cumsum(lengths) - lengths, per) + batch_size * k, trees
            )
            tags = [order for order, n in zip(chunk, per.tolist()) for _ in range(n)]
            flat = np.concatenate(chunk)
            b = 0
            while b < len(bounds) - 1:
                p0 = bounds[b]
                # A tree has a node at least, so PLAN_ROWS trees cover any block.
                fits = np.cumsum(corpus.sizes[flat[p0 : p0 + PLAN_ROWS]]) <= PLAN_ROWS
                last = int(np.searchsorted(bounds, p0 + int(fits.sum()), side="right")) - 1
                stop = max(b + 1, last)
                cuts = bounds[b : stop + 1] - p0
                batches = corpus._block(layer1, flat[p0 : bounds[stop]], cuts)
                yield from zip(tags[b:stop], batches)
                b = stop

    def _block(
        self, layer1: np.ndarray, order: np.ndarray, cuts: np.ndarray
    ) -> Iterator[PlanTreeBatch]:
        """The batches of trees ``order`` cut at tree positions ``cuts``
        (first ``0``, last ``len(order)``): index arrays built in one pass,
        every batch views into them and one gather from ``layer1``."""
        sizes = self.sizes[order]
        ends = np.cumsum(sizes)
        begins = ends - sizes
        total = int(ends[-1])
        heads = begins[cuts[:-1]]  # block row of each batch's first node
        batch_rows = np.diff(np.append(heads, total))
        # Row of each tree's first node inside its own batch (row 0 = null).
        local = begins - np.repeat(heads, np.diff(cuts)) + 1
        rows = np.arange(total)
        src = np.repeat(self.starts[order] - begins, sizes) + rows
        idx3, pad = _index(self.left[src], self.right[src], sizes, local)
        # Parent slots: a root reads its batch's zero row, 3 * batch nodes;
        # child row r of node i (batch-local, 0-based) reads 3 * i + 1 / + 2.
        first_row = np.repeat(heads, batch_rows)  # batch's first node
        parent_slot = 3 * np.repeat(batch_rows, batch_rows)
        node = rows - first_row
        for side, children in ((1, idx3[:, 1]), (2, idx3[:, 2])):
            has = children > 0
            parent_slot[(first_row + children - 1)[has]] = 3 * node[has] + side
        slices = np.stack([local, local + sizes], axis=1)
        widths = np.maximum.reduceat(sizes, cuts[:-1])
        row_cuts = np.append(heads, total).tolist()
        tree_cuts = cuts.tolist()
        for k, width in enumerate(widths.tolist()):
            r0, r1, t0, t1 = row_cuts[k], row_cuts[k + 1], tree_cuts[k], tree_cuts[k + 1]
            yield PlanTreeBatch(
                layer1.take(src[r0:r1], axis=0),
                idx3[r0:r1],
                slices[t0:t1],
                pad[t0:t1, :width],
                parent_slot[r0:r1],
            )


class _TreeConvLayer:
    """One tree-convolution layer: ``h_v = relu([x_v ; x_l ; x_r] W + b)``.

    :class:`TreeConvNet` rebinds ``w``/``b`` to views into its flat
    parameter buffer and binds ``dw``/``db`` to views into its flat gradient
    buffer; ``backward`` writes the gradients in place.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        scale = math.sqrt(2.0 / (3 * in_dim))
        self.w = rng.normal(0.0, scale, size=(3 * in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.in_dim = in_dim

    def forward(self, concat: np.ndarray) -> np.ndarray:
        # concat: [N, 3 * in_dim] node rows.  Output: [1+N, out_dim], null row 0.
        out = np.empty((len(concat) + 1, self.w.shape[1]), self.w.dtype)
        out[0] = 0.0
        pre = out[1:]
        np.matmul(concat, self.w, out=pre)
        pre += self.b
        self._concat = concat
        self._mask = pre > 0
        pre *= self._mask
        return out

    def backward(self, grad_out: np.ndarray, parent_slot: np.ndarray | None):
        """Gradients of the ``N`` node rows (no null row) in, the same out.

        ``grad_out`` is masked in place.  Without ``parent_slot`` only
        ``dw`` / ``db`` are computed.  A node's
        input gradient is its own slot of ``d_concat`` plus the one slot its
        parent sends it (left or right; a root reads a zero row): each node
        has at most one parent, so that is the whole sum, gathered.
        """
        g = grad_out
        g *= self._mask
        np.matmul(self._concat.T, g, out=self.dw)
        g.sum(axis=0, out=self.db)
        if parent_slot is None:
            return None
        n, d = len(g), self.in_dim
        d_concat = np.empty((n + 1, 3 * d), self.w.dtype)
        d_concat[n] = 0.0
        np.matmul(g, self.w.T, out=d_concat[:n])
        # ``0.0 +`` first: it turns a -0.0 own slot into +0.0, as the
        # zero-initialised accumulator this replaces did.  No parent slot
        # reads an own slot, so the own slots change in place.
        own = d_concat[:n, :d]
        own += 0.0
        grad_in = d_concat.reshape(-1, d).take(parent_slot, axis=0)
        grad_in += own
        return grad_in

    def parameters(self) -> list[np.ndarray]:
        return [self.w, self.b]


class _DenseRelu:
    """Dense + optional ReLU used in the pooled head (buffers as above)."""

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, relu: bool
    ) -> None:
        scale = math.sqrt(2.0 / in_dim) if relu else math.sqrt(1.0 / in_dim)
        self.w = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.relu = relu

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.w
        out += self.b
        if self.relu:
            self._mask = out > 0
            out *= self._mask
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.relu:
            grad *= self._mask
        np.matmul(self._x.T, grad, out=self.dw)
        grad.sum(axis=0, out=self.db)
        return grad @ self.w.T

    def parameters(self) -> list[np.ndarray]:
        return [self.w, self.b]


class TreeConvNet:
    """Tree-convolution network: conv stack -> max pool -> MLP head.

    Parameters
    ----------
    node_dim:
        Dimension of per-node feature vectors.
    conv_channels:
        Output widths of the tree-convolution layers.
    head_hidden:
        Hidden widths of the MLP head applied to the pooled embedding.
    out_dim:
        Output dimension (1 for cost regression).

    All parameters live in one flat buffer, ``flat_params`` (conv stack
    first, head from ``head_offset`` on), all gradients in ``flat_grads``;
    the layers' ``w``/``b``/``dw``/``db`` are views into them, so one
    optimizer update over the flat pair steps every layer.
    """

    def __init__(
        self,
        node_dim: int,
        conv_channels: Sequence[int] = (64, 64),
        head_hidden: Sequence[int] = (32,),
        out_dim: int = 1,
        *,
        seed: int = 0,
    ) -> None:
        if not conv_channels:
            raise ValueError("a tree-convolution network needs a conv layer")
        rng = np.random.default_rng(seed)
        self.node_dim = node_dim
        self.out_dim = out_dim
        self.conv_layers: list[_TreeConvLayer] = []
        prev = node_dim
        for width in conv_channels:
            self.conv_layers.append(_TreeConvLayer(prev, width, rng))
            prev = width
        self.head: list[_DenseRelu] = []
        for width in head_hidden:
            self.head.append(_DenseRelu(prev, width, rng, relu=True))
            prev = width
        self.head.append(_DenseRelu(prev, out_dim, rng, relu=False))
        self.flat_params = np.concatenate(
            [p.ravel() for p in self.parameters()], dtype=DTYPE
        )
        self.flat_grads = np.zeros_like(self.flat_params)
        self._bind()

    def _bind(self) -> None:
        """Point every layer's arrays at its slice of the flat buffers."""
        offset = 0
        for layer in [*self.conv_layers, *self.head]:
            if layer is self.head[0]:
                self.head_offset = offset
            for name in ("w", "b"):
                shape = getattr(layer, name).shape
                stop = offset + math.prod(shape)
                setattr(layer, name, self.flat_params[offset:stop].reshape(shape))
                setattr(layer, "d" + name, self.flat_grads[offset:stop].reshape(shape))
                offset = stop

    def __setstate__(self, state: dict) -> None:
        # copy / pickle duplicate a view as an independent array: re-bind.
        self.__dict__.update(state)
        self._bind()

    # -- forward / backward ---------------------------------------------------

    def embed(self, batch: PlanTreeBatch) -> np.ndarray:
        """Return the pooled plan embedding (before the head), ``[B, C]``."""
        first, *rest = self.conv_layers
        x = first.forward(batch.layer1)
        n = len(batch.idx3)
        for layer in rest:
            x = layer.forward(x.take(batch.idx3, axis=0).reshape(n, 3 * layer.in_dim))
        # Nothing reads the last layer's null row: it becomes the -inf
        # sentinel the padding points at.  Each (tree, channel) pools its
        # first arg-max row (``argmax`` semantics, NaN included).
        x[0] = -np.inf
        first = x.take(batch.pad, axis=0).argmax(axis=1)
        self._argmax = batch.pad[np.arange(batch.n_trees)[:, None], first]
        self._n_nodes = x.shape[0] - 1
        return x[self._argmax, np.arange(x.shape[1])]

    def forward(self, batch: PlanTreeBatch) -> np.ndarray:
        pooled = self.embed(batch)
        h = pooled
        for layer in self.head:
            h = layer.forward(h)
        return h

    def _backward(self, batch: PlanTreeBatch, grad: np.ndarray) -> None:
        if batch.parent_slot is None and len(self.conv_layers) > 1:
            raise ValueError(
                "an inference batch has no parent slots: train on a "
                "PlanTreeCorpus plan"
            )
        for layer in reversed(self.head):
            grad = layer.backward(grad)
        # Un-pool: each (tree, channel) has exactly one argmax row, so routing
        # the pooled gradient there is an assignment.
        g = np.zeros((self._n_nodes, grad.shape[1]), self.flat_params.dtype)
        g[self._argmax - 1, np.arange(g.shape[1])] = grad
        # Nothing consumes the gradient w.r.t. the input features.
        for i in reversed(range(len(self.conv_layers))):
            g = self.conv_layers[i].backward(g, batch.parent_slot if i > 0 else None)

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.conv_layers:
            params.extend(layer.parameters())
        for layer in self.head:
            params.extend(layer.parameters())
        return params

    # -- training / inference ---------------------------------------------------

    def fit(
        self,
        trees: Sequence[Tree] | PlanTreeCorpus,
        y: np.ndarray,
        *,
        epochs: int = 60,
        batch_size: int = 32,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> list[float]:
        """Train on a corpus of trees with MSE; returns per-epoch losses."""
        y = np.asarray(y, self.flat_params.dtype)
        if y.ndim == 1:
            y = y[:, None]
        if len(trees) != y.shape[0]:
            raise ValueError("number of trees and targets differ")
        if len(trees) == 0:
            raise ValueError("cannot fit on an empty corpus")
        corpus = (
            trees if isinstance(trees, PlanTreeCorpus) else PlanTreeCorpus.from_trees(trees)
        )
        orders = shuffles(np.random.default_rng(seed), len(corpus), epochs)
        opt = Adam(lr=lr)
        params, grads = [self.flat_params], [self.flat_grads]
        losses: list[float] = []
        for order, batches in corpus.plan(orders, batch_size):
            y_epoch = y[order]
            total, count = 0.0, 0
            for batch in batches:
                start = count * batch_size
                pred = self.forward(batch)
                value, grad = mse_loss(pred, y_epoch[start : start + batch_size])
                self._backward(batch, grad)
                opt.step(params, grads)
                total += value
                count += 1
            losses.append(total / max(count, 1))
        return losses

    def predict(self, trees: Sequence[Tree] | PlanTreeBatch) -> np.ndarray:
        """Predictions for ``trees``, or for a batch already built (one
        decision's candidates, gathered from its node table, which every
        ensemble member reads)."""
        if isinstance(trees, PlanTreeBatch):
            batch = trees
        elif not trees:
            return np.zeros((0, self.out_dim), self.flat_params.dtype)
        else:
            batch = PlanTreeBatch.from_trees(trees)
        out = self.forward(batch)
        return out[:, 0] if self.out_dim == 1 else out
