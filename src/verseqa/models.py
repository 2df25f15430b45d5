"""Question/candidate scoring models.

Three architectures, each mapping a pair of embedded token sequences to a
probability in (0, 1):

* ``RnnPairModel`` — two LSTMs (one per side), final hidden states
  joined into a sigmoid output layer.
* ``CnnPairModel`` — a shared relu filter bank with max-over-positions
  pooling per side, dropout on the pooled vectors during training.
* ``BidafModel`` — shared encoding LSTM, bidirectional attention between
  the two sequences, a modeling LSTM over the combined representation,
  sigmoid readout of its final state.

Each model encodes questions without looking at the candidates:
``encode_questions(q_embs)`` returns one state per question (rnn and
bidaf: all encoder states; cnn: the pooled vector), and
``score(q_states, a_embs)`` scores each candidate against the question
state in the same position, one probability node per pair.
``forward(q_emb, a_emb)`` is one pair as a batch of one. ``score_groups``
scores a chunk of whole groups in one call, and ``train`` a minibatch.

Every weight product of a forward pass (LSTM gates, conv windows) is taken
in blocks of exactly ``ROW_BLOCK`` rows, zero rows filling a short block.
A row's result then depends on that row alone, so a pair scores the same
alone as inside any batch, in any order, bit for bit.

All LSTMs are unidirectional. Sequences arrive unpadded, one row per
token, and every row is encoded: the row count is the sequence length.
An LSTM runs all sequences of a call together, one step at a time, as one
graph node whose backward is one backprop through time over the whole
call; each sequence's states are a row view of it. Its input gradients
are products in the same row blocks, so a sequence's are the same in any
batch; its weight gradients are one sum over the batch's rows, so they
equal the per-pair sums only up to rounding. A conv-pool is one graph node
per sequence and BiDAF attention one per pair. Every model ends in the same
node, ``readout``: the sigmoid output layer over the last row of each of
its feature blocks, with cnn's dropout mask as an input.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

import numpy as np

from .tensor import ParameterSet, ShapeError, Tensor, logistic


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


ROW_BLOCK = 4  # rows per weight product; see _blocked_matmul


def _blocked_matmul(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """``out[:len(x)] = x @ w`` as one BLAS product per block of
    ``ROW_BLOCK`` rows of ``x``, whose row count is a multiple of
    ``ROW_BLOCK``; ``x`` and ``out`` are C-contiguous.

    OpenBLAS rounds a row of a product differently for different row counts,
    but with the row count fixed a row's result depends on that row alone.
    So a sequence scores the same alone as inside any batch, bit for bit."""
    blocks = x.shape[0] // ROW_BLOCK
    np.matmul(x.reshape(blocks, ROW_BLOCK, x.shape[1]), w,
              out=out[:x.shape[0]].reshape(blocks, ROW_BLOCK, w.shape[1]))


def _block_rows(n: int) -> int:
    """``n`` rounded up to whole row blocks."""
    return -(-n // ROW_BLOCK) * ROW_BLOCK


class LstmCell:
    """Single-layer LSTM parameters; each gate weight is [d_in+d_h, d_h]."""

    GATES = ("i", "f", "o", "c")

    def __init__(self, d_in: int, d_h: int, params: ParameterSet, prefix: str,
                 rng: np.random.Generator):
        self.d_in = d_in
        self.d_h = d_h
        self.prefix = prefix
        self.W: dict[str, Tensor] = {}
        self.b: dict[str, Tensor] = {}
        for g in self.GATES:
            bias = np.zeros((1, d_h))
            if g == "f":
                bias += 1.0  # open forget gate at init
            self.W[g] = params.add(f"{prefix}.W_{g}", Tensor(_xavier(rng, d_in + d_h, d_h)))
            self.b[g] = params.add(f"{prefix}.b_{g}", Tensor(bias))

    @classmethod
    def shapes(cls, prefix: str, d_in: int, d_h: int) -> dict[str, tuple[int, int]]:
        """The parameter shapes of a cell, without allocating it."""
        return {**{f"{prefix}.W_{g}": (d_in + d_h, d_h) for g in cls.GATES},
                **{f"{prefix}.b_{g}": (1, d_h) for g in cls.GATES}}

    def input_layout(self) -> dict[str, tuple[int, int]]:
        """(input blocks, trailing rows) of each gate weight: [x | h] is one
        block of d_in input rows, then d_h recurrent rows."""
        return {f"{self.prefix}.W_{g}": (1, self.d_h) for g in self.GATES}

    def encode_states(self, seqs: Sequence[Tensor]) -> list[Tensor]:
        """The hidden states [rows, d_h] of each sequence, computed together
        as one graph node; each sequence's states are a row view of it.

        Sequences run longest first, one row each, stored step after step.
        Step t multiplies the rows ``[x_t | h_{t-1}]`` of the sequences still
        running by the four gate weights joined into one [d_in+d_h, 4*d_h]
        matrix, in blocks of ``ROW_BLOCK`` rows (``_blocked_matmul``), with zero
        rows filling the last block; the gate arithmetic runs on the live rows
        only. So a sequence's states depend neither on the other sequences
        nor on their order. The node's backward is one backprop through time
        over the whole call (``_bptt``)."""
        seqs = tuple(seqs)
        for seq in seqs:
            if seq.ndim != 2 or seq.shape[1] != self.d_in:
                raise ShapeError(f"expected input shape (rows, {self.d_in}), got {seq.shape}")
        if not seqs:
            return []
        d_in, d_h = self.d_in, self.d_h
        order = sorted(range(len(seqs)), key=lambda k: -seqs[k].shape[0])
        lens = [seqs[k].shape[0] for k in order]
        live = (np.array(lens)[:, None] > np.arange(lens[0])).sum(axis=0).tolist()  # per step
        start = np.cumsum([0] + [_block_rows(m) for m in live])  # first row of step t
        gate_w = [self.W[g].data for g in self.GATES]
        W = np.concatenate(gate_w, axis=1)
        bias = np.concatenate([self.b[g].data[0] for g in self.GATES])
        idx = [start[:n] + r for r, n in enumerate(lens)]  # rows of each sequence
        z = np.zeros((start[-1], d_in + d_h))  # [x_t | h_{t-1}]; zero past the live rows
        for r, k in enumerate(order):
            z[idx[r], :d_in] = seqs[k].data
        gates = np.empty((start[-1], 4 * d_h))  # activated i | f | o | c_tilde
        c_all, tanh_c, h = (np.zeros((start[-1], d_h)) for _ in range(3))
        cols = [slice(k * d_h, (k + 1) * d_h) for k in range(4)]
        with np.errstate(over="ignore"):  # as in logistic: exp overflows to inf, 1/inf = 0
            for t, m in enumerate(live):
                rows = slice(start[t], start[t] + m)
                _blocked_matmul(z[start[t]:start[t + 1]], W, gates[start[t]:])
                a = gates[rows]
                a += bias
                ifo = a[:, :3 * d_h]  # logistic in place: 1 / (1 + exp(-a))
                np.negative(ifo, out=ifo)
                np.exp(ifo, out=ifo)
                ifo += 1.0
                np.divide(1.0, ifo, out=ifo)
                i, f, o, c_tilde = (a[:, col] for col in cols)
                np.tanh(c_tilde, out=c_tilde)
                c = c_all[rows]
                c_prev = c_all[start[t - 1]:start[t - 1] + m] if t else np.zeros((m, d_h))
                np.add(np.multiply(f, c_prev, out=c), i * c_tilde, out=c)
                np.tanh(c, out=tanh_c[rows])
                np.multiply(o, tanh_c[rows], out=h[rows])
                if t + 1 < len(live):  # h_t of the sequences that go on
                    n = live[t + 1]
                    z[start[t + 1]:start[t + 1] + n, d_in:] = h[start[t]:start[t] + n]
        batch = Tensor(h, (*seqs, *self.W.values(), *self.b.values()))
        batch._backward = self._bptt([seqs[k] for k in order], idx, live, start,
                                     (z, gates, c_all, tanh_c), gate_w)
        views = {k: _row_view(batch, idx[r]) for r, k in enumerate(order)}
        return [views[k] for k in range(len(seqs))]

    def _bptt(self, seqs: list[Tensor], idx: list[np.ndarray], live: list[int],
              start: np.ndarray, saved: tuple[np.ndarray, ...],
              gate_w: list[np.ndarray]):
        """The backward of one ``encode_states`` call: backprop through time
        over the forward's row layout, ``seqs`` longest first, sequence r at
        rows ``idx[r]``, step t at ``start[t]`` with ``live[t]`` rows. It reads
        the ``saved`` forward buffers [x_t | h_{t-1}], gates, c_t and tanh(c_t),
        whose fill rows are zero, and the forward's gate weights ``gate_w``.
        Like the forward, every product by the weights is taken in row blocks,
        so a sequence's input gradient does not depend on the batch; the
        weight gradients are one product over all rows. The weights' recurrent
        and input rows are joined into C-ordered copies for the call: as the
        right operand of the blocks, a transposed view is up to 3x slower."""
        d_in, d_h = self.d_in, self.d_h
        z, gates, c_all, tanh_c = saved

        def backward(g: np.ndarray) -> None:
            i, f, o, c_tilde = (gates[:, k * d_h:(k + 1) * d_h] for k in range(4))
            # d(gate pre-activation) per unit of dc (gates i, f, c) or of dh (o),
            # built in place and scaled into d_a step by step; zero on fill rows
            d_a = np.zeros_like(gates)
            k_i, k_f, k_o, k_c = (d_a[:, k * d_h:(k + 1) * d_h] for k in range(4))
            for t in range(1, len(live)):  # c_{t-1}
                k_f[start[t]:start[t] + live[t]] = c_all[start[t - 1]:start[t - 1] + live[t]]
            for k_g, x, s in ((k_i, c_tilde, i), (k_f, k_f, f), (k_o, tanh_c, o)):
                np.multiply(x, s, out=k_g)  # x * s * (1 - s), s a sigmoid
                k_g *= 1.0 - s
            np.multiply(i, 1.0 - c_tilde * c_tilde, out=k_c)
            dc_dh = o * (1.0 - tanh_c * tanh_c)
            w_h = np.concatenate([w[d_in:] for w in gate_w], axis=1).T.copy()  # [4*d_h, d_h]
            dh_next = np.zeros((start[1], d_h))  # from step t+1; zero past its live rows
            dc_next = np.zeros((live[0], d_h))
            for t in reversed(range(len(live))):
                m = live[t]
                rows = slice(start[t], start[t] + m)
                dh = g[rows] + dh_next[:m]
                dc = dh * dc_dh[rows] + dc_next[:m]
                d4 = d_a[rows].reshape(m, 4, d_h)
                d4[:, :2] *= dc[:, None]
                d4[:, 2] *= dh
                d4[:, 3] *= dc
                if t:  # what step t passes back to step t - 1
                    _blocked_matmul(d_a[start[t]:start[t + 1]], w_h, dh_next)
                    np.multiply(dc, f[rows], out=dc_next[:m])
            del dc_dh  # a training step's memory peaks in the products below
            d_w = z.T @ d_a
            d_b = d_a.sum(axis=0)
            for n, gate in enumerate(self.GATES):
                self.W[gate]._accumulate(d_w[:, n * d_h:(n + 1) * d_h])
                self.b[gate]._accumulate(d_b[None, n * d_h:(n + 1) * d_h])
            del d_w  # before d_x, the largest of them
            d_x = np.empty((len(z), d_in))
            w_x = np.concatenate([w[:d_in] for w in gate_w], axis=1).T.copy()  # [4*d_h, d_in]
            _blocked_matmul(d_a, w_x, d_x)
            for seq, rows in zip(seqs, idx):
                seq._accumulate(d_x[rows])

        return backward


def _row_view(src: Tensor, rows: np.ndarray) -> Tensor:
    """Rows ``rows`` of ``src`` as a graph node; its backward adds into them."""
    out = Tensor(src.data[rows], (src,))

    def backward(g: np.ndarray) -> None:
        src.grad[rows] += g

    out._backward = backward
    return out


class _PairModel:
    """The ``forward`` every model shares: one pair as a batch of one."""

    def forward(self, q_emb: Tensor, a_emb: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        return self.score(self.encode_questions([q_emb]), [a_emb], training, rng)[0]


def _check_pairs(q_states: Sequence[Tensor], a_embs: Sequence[Tensor]) -> None:
    if len(q_states) != len(a_embs):
        raise ShapeError(f"{len(q_states)} question states for {len(a_embs)} candidates")


class RnnPairModel(_PairModel):
    kind = "rnn"

    def __init__(self, d_in: int, d_h: int = 100, seed: int = 0):
        self.d_in = d_in
        self.d_h = d_h
        self.params = ParameterSet()
        rng = np.random.default_rng(seed)
        self.q_cell = LstmCell(d_in, d_h, self.params, "q_cell", rng)
        self.a_cell = LstmCell(d_in, d_h, self.params, "a_cell", rng)
        self.w_out = self.params.add("out.W", Tensor(_xavier(rng, 2 * d_h, 1)))
        self.b_out = self.params.add("out.b", Tensor(np.zeros((1, 1))))

    def config(self) -> dict:
        return {"d_in": self.d_in, "d_h": self.d_h}

    @staticmethod
    def param_shapes(d_in: int, d_h: int = 100) -> dict[str, tuple[int, ...]]:
        d_in, d_h = index(d_in), index(d_h)
        return {**LstmCell.shapes("q_cell", d_in, d_h), **LstmCell.shapes("a_cell", d_in, d_h),
                "out.W": (2 * d_h, 1), "out.b": (1, 1)}

    def encode_questions(self, q_embs: Sequence[Tensor]) -> list[Tensor]:
        return self.q_cell.encode_states(q_embs)

    def score(self, h_qs: Sequence[Tensor], a_embs: Sequence[Tensor], training: bool = False,
              rng: np.random.Generator | None = None) -> list[Tensor]:
        _check_pairs(h_qs, a_embs)
        return [readout([h_q, h_a], self.w_out, self.b_out)
                for h_q, h_a in zip(h_qs, self.a_cell.encode_states(a_embs))]

    def input_layout(self) -> dict[str, tuple[int, int]]:
        return {**self.q_cell.input_layout(), **self.a_cell.input_layout()}


class CnnPairModel(_PairModel):
    kind = "cnn"

    def __init__(self, d_in: int, n_filters: int = 100, window: int = 3,
                 dropout: float = 0.5, seed: int = 0):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not (0.0 <= dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        self.d_in = d_in
        self.n_filters = n_filters
        self.window = window
        self.dropout = dropout
        self.params = ParameterSet()
        rng = np.random.default_rng(seed)
        self.w_conv = self.params.add("conv.W", Tensor(_xavier(rng, window * d_in, n_filters)))
        self.b_conv = self.params.add("conv.b", Tensor(np.zeros((1, n_filters))))
        self.w_out = self.params.add("out.W", Tensor(_xavier(rng, 2 * n_filters, 1)))
        self.b_out = self.params.add("out.b", Tensor(np.zeros((1, 1))))

    def config(self) -> dict:
        return {"d_in": self.d_in, "n_filters": self.n_filters,
                "window": self.window, "dropout": self.dropout}

    @staticmethod
    def param_shapes(d_in: int, n_filters: int = 100, window: int = 3,
                     dropout: float = 0.5) -> dict[str, tuple[int, ...]]:
        d_in, n_filters, window = index(d_in), index(n_filters), index(window)
        return {"conv.W": (window * d_in, n_filters), "conv.b": (1, n_filters),
                "out.W": (2 * n_filters, 1), "out.b": (1, 1)}

    def _pool(self, seq: Tensor) -> Tensor:
        """Max over window positions of relu(window @ conv.W + conv.b), as
        one graph node; on ties the gradient goes to the first position."""
        w, d = self.window, self.d_in
        W, b = self.w_conv.data, self.b_conv.data
        rows = seq.data
        if rows.shape[0] < w:  # zero-pad up to one window
            rows = np.concatenate([rows, np.zeros((w - rows.shape[0], d))])
        n_win = rows.shape[0] - w + 1
        win = np.zeros((_block_rows(n_win), w * d))  # zero rows fill the last block
        for k in range(w):
            win[:n_win, k * d:(k + 1) * d] = rows[k:k + n_win]
        act = np.empty((win.shape[0], self.n_filters))
        _blocked_matmul(win, W, act)
        win, act = win[:n_win], act[:n_win]
        act += b
        np.maximum(0.0, act, out=act)
        first, cols = np.argmax(act, axis=0), np.arange(self.n_filters)
        pooled = act[first, cols]
        out = Tensor(pooled.reshape(1, self.n_filters), (seq, self.w_conv, self.b_conv))

        def backward(g: np.ndarray) -> None:
            d_pre = np.zeros((n_win, self.n_filters))  # one nonzero per column: sums are exact
            d_pre[first, cols] = g[0] * (pooled > 0.0)
            self.w_conv._accumulate(win.T @ d_pre)
            self.b_conv._accumulate(d_pre.sum(axis=0, keepdims=True))
            d_win = d_pre @ W.T
            d_rows = np.zeros((n_win + w - 1, d))
            for k in range(w):
                d_rows[k:k + n_win] += d_win[:, k * d:(k + 1) * d]
            seq._accumulate(d_rows[:seq.shape[0]])

        out._backward = backward
        return out

    def encode_questions(self, q_embs: Sequence[Tensor]) -> list[Tensor]:
        return [self._pool(q) for q in q_embs]

    def score(self, q_vs: Sequence[Tensor], a_embs: Sequence[Tensor], training: bool = False,
              rng: np.random.Generator | None = None) -> list[Tensor]:
        _check_pairs(q_vs, a_embs)
        keep: list[np.ndarray | None] = [None] * len(a_embs)
        if training and self.dropout > 0.0:
            if rng is None:
                raise ValueError("training with dropout requires an rng")
            p = 1.0 - self.dropout
            # inverted dropout, one mask per pair in pair order, question
            # units first: scale kept units so inference needs no rescale
            keep = [(rng.random((1, 2 * self.n_filters)) < p) / p for _ in a_embs]
        return [readout([q_v, self._pool(a_emb)], self.w_out, self.b_out, mask)
                for q_v, a_emb, mask in zip(q_vs, a_embs, keep)]

    def input_layout(self) -> dict[str, tuple[int, int]]:
        """(input blocks, trailing rows) of conv.W: one d_in block per position."""
        return {"conv.W": (self.window, 0)}


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax of each row, shifted by the row maximum."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def bidaf_attention(q_enc: Tensor, a_enc: Tensor, w_alpha: Tensor) -> Tensor:
    """Bidirectional attention between a candidate and a question encoding,
    as one graph node.

    Similarity: S[j, k] = w . [a_j | q_k | a_j*q_k].  Per-candidate-word
    attention averages question vectors with softmax rows of S; the reverse
    direction pools candidate words with softmax over per-row maxima. Returns
    combined [t_a, 4*d_h], combined[j] = [a_j | attq_j | a_j*attq_j | a_j*pool_a].
    On ties in a row maximum the gradient goes to the first column.
    """
    t_a, d_h = a_enc.shape
    if q_enc.shape[1] != d_h:
        raise ShapeError(f"encoding dims differ: {q_enc.shape} vs {a_enc.shape}")
    if w_alpha.shape != (3 * d_h, 1):
        raise ShapeError(f"similarity weights must be ({3 * d_h}, 1), got {w_alpha.shape}")
    A, Q = a_enc.data, q_enc.data
    w1, w2, w3 = (w_alpha.data[k * d_h:(k + 1) * d_h] for k in range(3))
    q_t = Q.T.copy()  # a product with the transposed view rounds differently
    aw3 = A * w3.T
    sim = (A @ w1 + (Q @ w2).T) + aw3 @ q_t          # [t_a, t_q]
    p_q = _softmax_rows(sim)
    att_q = p_q @ Q                                  # [t_a, d_h]
    first = np.argmax(sim, axis=1)                   # first maximal column
    p_a = _softmax_rows(sim[np.arange(t_a), first].reshape(1, t_a))
    pooled_a = p_a @ A                               # [1, d_h]
    out = Tensor(np.concatenate([A, att_q, A * att_q, A * pooled_a], axis=1),
                 (q_enc, a_enc, w_alpha))

    def backward(g: np.ndarray) -> None:
        g_a, g_att, g_prod, g_pool = np.split(g, 4, axis=1)
        d_att = g_att + g_prod * A
        d_pooled = np.sum(g_pool * A, axis=0, keepdims=True)
        d_p_q = d_att @ Q.T
        d_sim = p_q * (d_p_q - np.sum(d_p_q * p_q, axis=1, keepdims=True))
        d_p_a = d_pooled @ A.T
        d_sim[np.arange(t_a), first] += (p_a * (d_p_a - np.sum(d_p_a * p_a)))[0]
        d_row, d_col = d_sim.sum(axis=1, keepdims=True), d_sim.sum(axis=0)[:, None]
        d_aw3 = d_sim @ Q
        a_enc._accumulate(g_a + g_prod * att_q + g_pool * pooled_a + p_a.T @ d_pooled
                          + d_row @ w1.T + d_aw3 * w3.T)
        q_enc._accumulate(p_q.T @ d_att + d_col @ w2.T + d_sim.T @ aw3)
        w_alpha._accumulate(np.concatenate([A.T @ d_row, Q.T @ d_col,
                                            np.sum(d_aw3 * A, axis=0)[:, None]]))

    out._backward = backward
    return out


def readout(feats: Sequence[Tensor], w: Tensor, b: Tensor,
            keep: np.ndarray | None = None) -> Tensor:
    """The logistic output layer every model ends in, as one graph node:
    ``logistic(x * keep @ w + b)`` of shape [1, 1], where x joins the last
    row of each feature block and ``keep`` is an optional [1, width] dropout
    mask. The gradient reaches only each block's last row."""
    feats = tuple(feats)
    widths = [f.shape[1] for f in feats if f.ndim == 2]
    width = sum(widths)
    if len(widths) != len(feats) or w.shape != (width, 1) or b.shape != (1, 1) or \
            (keep is not None and np.shape(keep) != (1, width)):
        raise ShapeError(f"readout of {[f.shape for f in feats]} with weights {w.shape}, "
                         f"bias {b.shape} and mask {np.shape(keep)}: "
                         "shapes differ (there is no broadcasting)")
    x = np.concatenate([f.data[-1:] for f in feats], axis=1)
    if keep is not None:
        x = x * keep
    p = logistic(x @ w.data + b.data)
    out = Tensor(p, (*feats, w, b))

    def backward(g: np.ndarray) -> None:
        d_z = g * p * (1.0 - p)
        w._accumulate(x.T @ d_z)
        b._accumulate(d_z)
        d_x = d_z @ w.data.T
        if keep is not None:
            d_x = d_x * keep
        for f, d_f in zip(feats, np.split(d_x, np.cumsum(widths[:-1]), axis=1)):
            f.grad[-1:] += d_f

    out._backward = backward
    return out


class BidafModel(_PairModel):
    kind = "bidaf"

    def __init__(self, d_in: int, d_h: int = 100, seed: int = 0,
                 readout: str = "final"):
        if readout != "final":  # the key every bidaf checkpoint carries
            raise ValueError(f"unknown readout: {readout}")
        self.d_in = d_in
        self.d_h = d_h
        self.params = ParameterSet()
        rng = np.random.default_rng(seed)
        self.enc_cell = LstmCell(d_in, d_h, self.params, "enc_cell", rng)
        self.w_alpha = self.params.add("attn.w", Tensor(_xavier(rng, 3 * d_h, 1)))
        self.model_cell = LstmCell(4 * d_h, d_h, self.params, "model_cell", rng)
        self.w_out = self.params.add("out.W", Tensor(_xavier(rng, d_h, 1)))
        self.b_out = self.params.add("out.b", Tensor(np.zeros((1, 1))))

    def config(self) -> dict:
        return {"d_in": self.d_in, "d_h": self.d_h, "readout": "final"}

    @staticmethod
    def param_shapes(d_in: int, d_h: int = 100,
                     readout: str = "final") -> dict[str, tuple[int, ...]]:
        d_in, d_h = index(d_in), index(d_h)
        return {**LstmCell.shapes("enc_cell", d_in, d_h), "attn.w": (3 * d_h, 1),
                **LstmCell.shapes("model_cell", 4 * d_h, d_h),
                "out.W": (d_h, 1), "out.b": (1, 1)}

    def encode_questions(self, q_embs: Sequence[Tensor]) -> list[Tensor]:
        return self.enc_cell.encode_states(q_embs)

    def score(self, q_encs: Sequence[Tensor], a_embs: Sequence[Tensor], training: bool = False,
              rng: np.random.Generator | None = None) -> list[Tensor]:
        _check_pairs(q_encs, a_embs)
        combined = [bidaf_attention(q_enc, a_enc, self.w_alpha)
                    for q_enc, a_enc in zip(q_encs, self.enc_cell.encode_states(a_embs))]
        return [readout([m], self.w_out, self.b_out)
                for m in self.model_cell.encode_states(combined)]

    def input_layout(self) -> dict[str, tuple[int, int]]:
        return self.enc_cell.input_layout()


MODEL_KINDS = {
    "rnn": RnnPairModel,
    "cnn": CnnPairModel,
    "bidaf": BidafModel,
}


def _model_class(kind: str):
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    return MODEL_KINDS[kind]


def build_model(kind: str, seed: int = 0, **config):
    """Construct a model by kind name; config keys match each constructor."""
    return _model_class(kind)(seed=seed, **config)


def param_shapes(kind: str, **config) -> dict[str, tuple[int, ...]]:
    """The parameter shapes ``build_model(kind, **config)`` would allocate,
    computed without allocating anything. TypeError for a config key the
    model does not take or a size that is not an integer."""
    return _model_class(kind).param_shapes(**config)
