"""Question/candidate scoring models.

Three architectures, each mapping a pair of embedded token sequences to a
probability in (0, 1):

* ``RnnPairModel`` — two LSTMs (one per side), final hidden states
  concatenated into a sigmoid output layer.
* ``CnnPairModel`` — a shared relu filter bank with max-over-positions
  pooling per side, dropout on the pooled vectors during training.
* ``BidafModel`` — shared encoding LSTM, bidirectional attention between
  the two sequences, a modeling LSTM over the combined representation,
  sigmoid readout of its final state.

All LSTMs are unidirectional. Sequences arrive unpadded, one row per
token, and every row is encoded: the row count is the sequence length.
An LSTM pass and a conv-pool are each one graph node per sequence, and
BiDAF attention is one graph node per pair.
"""

from __future__ import annotations

import numpy as np

from .tensor import ParameterSet, ShapeError, Tensor, concat, logistic


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


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

    def input_layout(self) -> dict[str, tuple[int, int]]:
        """(input blocks, trailing rows) of each gate weight: [x | h] is one
        block of d_in input rows, then d_h recurrent rows."""
        return {f"{self.prefix}.W_{g}": (1, self.d_h) for g in self.GATES}

    def _states(self, seq: Tensor) -> Tensor:
        """All hidden states [rows, d_h] as one graph node. Each step takes
        the four per-gate products ``[x_t | h_{t-1}] @ W_g + b_g``: they round
        as a per-step graph does, and one fused [d_in+d_h, 4*d_h] product
        does not at every width. The backward is backprop through time."""
        if seq.ndim != 2 or seq.shape[1] != self.d_in:
            raise ShapeError(f"expected input shape (rows, {self.d_in}), got {seq.shape}")
        W = [self.W[g].data for g in self.GATES]
        b = [self.b[g].data for g in self.GATES]
        c = h = np.zeros((1, self.d_h))
        steps = []
        for t in range(seq.shape[0]):
            z = np.concatenate([seq.data[t:t + 1], h], axis=1)
            i, f, o = (logistic(z @ w + bias) for w, bias in zip(W[:3], b[:3]))
            c_tilde = np.tanh(z @ W[3] + b[3])
            c_prev, c = c, f * c + i * c_tilde
            tanh_c = np.tanh(c)
            h = o * tanh_c
            steps.append((z, c_prev, i, f, o, c_tilde, tanh_c, h))
        z, c_prev, i, f, o, c_tilde, tanh_c, h = (np.concatenate(a) for a in zip(*steps))
        out = Tensor(h, (seq, *self.W.values(), *self.b.values()))

        def backward(g: np.ndarray) -> None:
            # d(gate pre-activation) per unit of dc (gates i, f, c) or of dh (o)
            k = np.concatenate([c_tilde * i * (1.0 - i), c_prev * f * (1.0 - f),
                                tanh_c * o * (1.0 - o), i * (1.0 - c_tilde * c_tilde)], axis=1)
            dc_dh = o * (1.0 - tanh_c * tanh_c)
            w_h = np.concatenate([w[self.d_in:] for w in W], axis=1)  # [d_h, 4*d_h]
            d_a = np.empty_like(k)
            dh_next = dc_next = np.zeros(self.d_h)
            for t in reversed(range(len(h))):
                dh = g[t] + dh_next
                dc = dh * dc_dh[t] + dc_next
                d_a[t] = np.concatenate([dc, dc, dh, dc]) * k[t]
                dh_next = w_h @ d_a[t]
                dc_next = dc * f[t]
            for n, gate in enumerate(self.GATES):
                d_gate = d_a[:, n * self.d_h:(n + 1) * self.d_h]
                self.W[gate]._accumulate(z.T @ d_gate)
                self.b[gate]._accumulate(d_gate.sum(axis=0, keepdims=True))
                seq._accumulate(d_gate @ W[n][:self.d_in].T)

        out._backward = backward
        return out

    def encode(self, seq: Tensor) -> Tensor:
        """Final hidden state after one step per row of ``seq``."""
        n = seq.shape[0]
        return self._states(seq).rows(n - 1, n)

    def encode_states(self, seq: Tensor) -> Tensor:
        """All hidden states as a [rows, d_h] tensor."""
        return self._states(seq)


class RnnPairModel:
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

    def forward(self, q_emb: Tensor, a_emb: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        h_q = self.q_cell.encode(q_emb)
        h_a = self.a_cell.encode(a_emb)
        m = concat([h_q, h_a], axis=1)
        return (m @ self.w_out + self.b_out).sigmoid()

    def input_layout(self) -> dict[str, tuple[int, int]]:
        return {**self.q_cell.input_layout(), **self.a_cell.input_layout()}


class CnnPairModel:
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

    def _pool(self, seq: Tensor) -> Tensor:
        """Max over window positions of relu(window @ conv.W + conv.b), as
        one graph node; on ties the gradient goes to the first position."""
        w, d = self.window, self.d_in
        W, b = self.w_conv.data, self.b_conv.data
        rows = seq.data
        if rows.shape[0] < w:  # zero-pad up to one window
            rows = np.concatenate([rows, np.zeros((w - rows.shape[0], d))])
        n_win = rows.shape[0] - w + 1
        win = np.concatenate([rows[k:k + n_win] for k in range(w)], axis=1)
        # one product per window: a single [n_win, w*d] product rounds differently
        act = np.maximum(0.0, np.concatenate([win[k:k + 1] @ W + b for k in range(n_win)]))
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

    def forward(self, q_emb: Tensor, a_emb: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        q_v = self._pool(q_emb)
        a_v = self._pool(a_emb)
        if training and self.dropout > 0.0:
            if rng is None:
                raise ValueError("training with dropout requires an rng")
            keep = 1.0 - self.dropout
            # inverted dropout: scale kept units so inference needs no rescale
            q_v = q_v * Tensor((rng.random((1, self.n_filters)) < keep) / keep)
            a_v = a_v * Tensor((rng.random((1, self.n_filters)) < keep) / keep)
        m = concat([q_v, a_v], axis=1)
        return (m @ self.w_out + self.b_out).sigmoid()

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


class BidafModel:
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

    def forward(self, q_emb: Tensor, a_emb: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        q_enc = self.enc_cell.encode_states(q_emb)
        a_enc = self.enc_cell.encode_states(a_emb)
        m = self.model_cell.encode(bidaf_attention(q_enc, a_enc, self.w_alpha))
        return (m @ self.w_out + self.b_out).sigmoid()

    def input_layout(self) -> dict[str, tuple[int, int]]:
        return self.enc_cell.input_layout()


MODEL_KINDS = {
    "rnn": RnnPairModel,
    "cnn": CnnPairModel,
    "bidaf": BidafModel,
}


def build_model(kind: str, seed: int = 0, **config):
    """Construct a model by kind name; config keys match each constructor."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    return MODEL_KINDS[kind](seed=seed, **config)
