"""Question/candidate scoring models.

Three architectures, each mapping a pair of embedded token sequences to a
probability in (0, 1):

* ``RnnPairModel`` — two LSTMs (one per side), final hidden states
  concatenated into a sigmoid output layer.
* ``CnnPairModel`` — a shared relu filter bank with max-over-positions
  pooling per side, dropout on the pooled vectors during training.
* ``BidafModel`` — shared encoding LSTM, bidirectional attention between
  the two sequences, a modeling LSTM over the combined representation,
  sigmoid readout.

All LSTMs are unidirectional. Sequences arrive unpadded, one row per
token, and every row is encoded: the row count is the sequence length.
"""

from __future__ import annotations

import numpy as np

from .tensor import ParameterSet, ShapeError, Tensor, concat


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

    def zero_state(self) -> tuple[Tensor, Tensor]:
        return Tensor(np.zeros((1, self.d_h))), Tensor(np.zeros((1, self.d_h)))

    def step(self, state: tuple[Tensor, Tensor], x: Tensor) -> tuple[Tensor, Tensor]:
        """One recurrence step: gates sigmoid, candidate tanh."""
        c_prev, h_prev = state
        if x.shape != (1, self.d_in):
            raise ShapeError(f"expected input shape (1, {self.d_in}), got {x.shape}")
        z = concat([x, h_prev], axis=1)
        i = (z @ self.W["i"] + self.b["i"]).sigmoid()
        f = (z @ self.W["f"] + self.b["f"]).sigmoid()
        o = (z @ self.W["o"] + self.b["o"]).sigmoid()
        c_tilde = (z @ self.W["c"] + self.b["c"]).tanh()
        c = f * c_prev + i * c_tilde
        h = o * c.tanh()
        return c, h

    def _hidden_states(self, seq: Tensor):
        state = self.zero_state()
        for t in range(seq.shape[0]):
            state = self.step(state, seq.rows(t, t + 1))
            yield state[1]

    def encode(self, seq: Tensor) -> Tensor:
        """Final hidden state after one step per row of ``seq``."""
        *_, h = self._hidden_states(seq)
        return h

    def encode_states(self, seq: Tensor) -> Tensor:
        """All hidden states as a [rows, d_h] tensor."""
        return concat(list(self._hidden_states(seq)), axis=0)


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
        if seq.shape[0] < self.window:  # zero-pad up to one window
            pad = np.zeros((self.window - seq.shape[0], self.d_in))
            seq = concat([seq, Tensor(pad)], axis=0)
        feats = []
        for i in range(seq.shape[0] - self.window + 1):
            win = seq.rows(i, i + self.window).reshape(1, self.window * self.d_in)
            feats.append((win @ self.w_conv + self.b_conv).relu())
        return concat(feats, axis=0).max(axis=0).reshape(1, self.n_filters)

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


def bidaf_attention(q_enc: Tensor, a_enc: Tensor, w_alpha: Tensor
                    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Bidirectional attention between a candidate and a question encoding.

    Similarity: S[j, k] = w . [a_j | q_k | a_j*q_k].  Per-candidate-word
    attention averages question vectors with softmax rows of S; the reverse
    direction pools candidate words with softmax over per-row maxima and
    tiles the result. Returns (S, attended_q, tiled_a, combined) where
    combined[j] = [a_j | attq_j | a_j*attq_j | a_j*tila_j].
    """
    t_a, d_h = a_enc.shape
    t_q = q_enc.shape[0]
    if q_enc.shape[1] != d_h:
        raise ShapeError(f"encoding dims differ: {q_enc.shape} vs {a_enc.shape}")
    if w_alpha.shape != (3 * d_h, 1):
        raise ShapeError(f"similarity weights must be ({3 * d_h}, 1), got {w_alpha.shape}")

    w1 = w_alpha.rows(0, d_h)
    w2 = w_alpha.rows(d_h, 2 * d_h)
    w3 = w_alpha.rows(2 * d_h, 3 * d_h)
    ones_a = Tensor(np.ones((t_a, 1)))
    ones_q = Tensor(np.ones((1, t_q)))

    s_a = (a_enc @ w1) @ ones_q                      # a-term tiled over columns
    s_q = ones_a @ (q_enc @ w2).transpose()          # q-term tiled over rows
    s_prod = (a_enc * (ones_a @ w3.transpose())) @ q_enc.transpose()
    sim = s_a + s_q + s_prod                         # [t_a, t_q]

    att_q = sim.softmax() @ q_enc                    # [t_a, d_h]
    row_max = sim.max(axis=1).reshape(1, t_a)
    pooled_a = row_max.softmax() @ a_enc             # [1, d_h]
    til_a = ones_a @ pooled_a                        # [t_a, d_h]

    combined = concat([a_enc, att_q, a_enc * att_q, a_enc * til_a], axis=1)
    return sim, att_q, til_a, combined


class BidafModel:
    kind = "bidaf"

    def __init__(self, d_in: int, d_h: int = 100, seed: int = 0,
                 readout: str = "final"):
        if readout not in ("final", "maxpool"):
            raise ValueError(f"unknown readout: {readout}")
        self.d_in = d_in
        self.d_h = d_h
        self.readout = readout
        self.params = ParameterSet()
        rng = np.random.default_rng(seed)
        self.enc_cell = LstmCell(d_in, d_h, self.params, "enc_cell", rng)
        self.w_alpha = self.params.add("attn.w", Tensor(_xavier(rng, 3 * d_h, 1)))
        self.model_cell = LstmCell(4 * d_h, d_h, self.params, "model_cell", rng)
        self.w_out = self.params.add("out.W", Tensor(_xavier(rng, d_h, 1)))
        self.b_out = self.params.add("out.b", Tensor(np.zeros((1, 1))))

    def config(self) -> dict:
        return {"d_in": self.d_in, "d_h": self.d_h, "readout": self.readout}

    def forward(self, q_emb: Tensor, a_emb: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        q_enc = self.enc_cell.encode_states(q_emb)
        a_enc = self.enc_cell.encode_states(a_emb)
        _, _, _, combined = bidaf_attention(q_enc, a_enc, self.w_alpha)
        if self.readout == "final":
            m = self.model_cell.encode(combined)
        else:
            states = self.model_cell.encode_states(combined)
            m = states.max(axis=0).reshape(1, self.d_h)
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
