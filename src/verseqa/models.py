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

Models take batches of embedded arrays: ``score(q_embs, which, a_embs)``
encodes each question of ``q_embs`` once and scores candidate k against
question ``which[k]``, as one [B, 1] Tensor of probabilities. ``forward(q_emb,
a_emb)``, one pair as a batch of one, is kept for the benchmark harness.

Each stage of a call (an LSTM pass, cnn's conv-pool, BiDAF attention, the
readout) runs once per batch and returns its output and its backward; see
``_chain``. Between stages a sequence is a plain ``(array, rows)`` pair: an
array and the indices of the sequence's rows in it. Sequences arrive
unpadded, one row per token, and every row is encoded. All LSTMs are
unidirectional.

Every weight product of a forward pass (LSTM gates, conv windows) is taken
in blocks of exactly ``ROW_BLOCK`` rows, zero rows filling a short block,
and the readout takes one [1, width] product per pair. A row's result then
depends on that row alone, so a pair scores the same alone as inside any
batch, in any order, bit for bit. So are a sequence's input gradients; an
LSTM's weight gradients are sums over the batch's rows, equal to the
per-pair sums up to rounding and independent of the BLAS thread count.
"""

from __future__ import annotations

from operator import index
from typing import Callable, Sequence

import numpy as np

from .tensor import ParameterSet, ShapeError, Tensor, logistic

Seq = tuple[np.ndarray, np.ndarray]  # a sequence: the rows ``rows`` of an array
Arrays = Sequence[np.ndarray]  # embedded sequences, one per question or candidate
Backward = Callable[[np.ndarray], "list[np.ndarray] | None"]  # output's grad in, inputs' out


def _whole(x: np.ndarray) -> Seq:
    """Every row of ``x`` as one sequence."""
    return x, np.arange(x.shape[0])


def _zeros_for(seqs: Sequence[Seq]) -> dict[int, np.ndarray]:
    """A zero gradient for each distinct array ``seqs`` point into, keyed by
    its id, in order of first use."""
    arrays = {id(x): x for x, _ in seqs}
    return {key: np.zeros_like(x) for key, x in arrays.items()}


def _check_width(seqs: Sequence[Seq], d_in: int) -> None:
    """ShapeError unless every array of ``seqs`` has ``d_in`` columns."""
    for x, _ in seqs:
        if x.shape[1:] != (d_in,):
            raise ShapeError(f"expected input shape (rows, {d_in}), got {x.shape}")


def init_params(params: ParameterSet, shapes: dict[str, tuple[int, int]],
                rng: np.random.Generator) -> ParameterSet:
    """Add the parameters ``shapes`` names to ``params``, in its order, and
    return ``params``: biases (``.b*``) zero, LSTM forget-gate biases (``.b_f``)
    one to open the gate, every other tensor a Xavier-uniform draw from ``rng``."""
    for name, (rows, cols) in shapes.items():
        if name.rpartition(".")[2].startswith("b"):
            value = np.full((rows, cols), 1.0 if name.endswith(".b_f") else 0.0)
        else:
            limit = np.sqrt(6.0 / (rows + cols))
            value = rng.uniform(-limit, limit, size=(rows, cols))
        params.add(name, Tensor(value))
    return params


ROW_BLOCK = 4  # rows per weight product; see _blocked_matmul
GRAD_ROWS = 256  # rows per product of an LSTM's weight gradient; see _bptt


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
    """A single-layer LSTM over the gate tensors ``{prefix}.W_g`` [d_in+d_h,
    d_h] and ``{prefix}.b_g`` [1, d_h] of ``params``, which ``shapes`` names;
    the cell allocates nothing."""

    GATES = ("i", "f", "o", "c")

    def __init__(self, params: ParameterSet, prefix: str):
        self.W = {g: params[f"{prefix}.W_{g}"] for g in self.GATES}
        self.b = {g: params[f"{prefix}.b_{g}"] for g in self.GATES}
        self.d_h = self.b["i"].data.shape[1]
        self.d_in = self.W["i"].data.shape[0] - self.d_h

    @classmethod
    def shapes(cls, prefix: str, d_in: int, d_h: int) -> dict[str, tuple[int, int]]:
        """The parameter shapes of a cell, weights first, in draw order."""
        return {**{f"{prefix}.W_{g}": (d_in + d_h, d_h) for g in cls.GATES},
                **{f"{prefix}.b_{g}": (1, d_h) for g in cls.GATES}}

    def encode_states(self, seqs: Sequence[Seq],
                      input_grads: bool = False) -> tuple[list[Seq], Backward]:
        """The hidden states [rows, d_h] of each sequence, as rows of one
        array, and the backward, ``_bptt``, which returns the gradient of the
        input arrays when ``input_grads`` asks for it. Sequences run longest
        first, one row each, stored step after step. Step t multiplies the
        rows ``[x_t | h_{t-1}]`` of the sequences still running by the four
        gate weights joined into one [d_in+d_h, 4*d_h] matrix, in blocks of
        ``ROW_BLOCK`` rows, zero rows filling the last block; the gate
        arithmetic runs on the live rows only. So a sequence's states depend
        neither on the other sequences nor on their order."""
        seqs = tuple(seqs)
        _check_width(seqs, self.d_in)
        d_in, d_h = self.d_in, self.d_h
        order = sorted(range(len(seqs)), key=lambda k: -len(seqs[k][1]))
        lens = [len(seqs[k][1]) for k in order]
        live = (np.array(lens)[:, None] > np.arange(lens[0])).sum(axis=0).tolist()  # per step
        start = np.cumsum([0] + [_block_rows(m) for m in live])  # first row of step t
        W = np.concatenate([self.W[g].data for g in self.GATES], axis=1)
        bias = np.concatenate([self.b[g].data[0] for g in self.GATES])
        idx = [start[:n] + r for r, n in enumerate(lens)]  # rows of each sequence
        z = np.zeros((start[-1], d_in + d_h))  # [x_t | h_{t-1}]; zero past the live rows
        for r, k in enumerate(order):
            x, rows = seqs[k]
            z[idx[r], :d_in] = x[rows]
        gates = np.empty((start[-1], 4 * d_h))  # activated i | f | o | c_tilde
        c_all, h = np.zeros((start[-1], d_h)), np.zeros((start[-1], d_h))
        tanh_c = np.empty((live[0], d_h))  # one step's tanh(c_t); _bptt recomputes it
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
                np.tanh(c, out=tanh_c[:m])
                np.multiply(o, tanh_c[:m], out=h[rows])
                if t + 1 < len(live):  # h_t of the sequences that go on
                    n = live[t + 1]
                    z[start[t + 1]:start[t + 1] + n, d_in:] = h[start[t]:start[t] + n]
        states = dict(zip(order, idx))
        inputs = [(*seq, states[k]) for k, seq in enumerate(seqs)] if input_grads else None
        return ([(h, states[k]) for k in range(len(seqs))],
                self._bptt(inputs, live, start, (z, gates, c_all), W))

    def _bptt(self, inputs: list[tuple] | None, live: list[int], start: np.ndarray,
              saved: tuple[np.ndarray, ...], W: np.ndarray) -> Backward:
        """The backward of one ``encode_states`` call: backprop through time
        over the forward's row layout, step t at ``start[t]`` with ``live[t]``
        rows. It keeps the ``saved`` forward buffers [x_t | h_{t-1}], the
        activated gates and c_t, whose fill rows are zero, the gate weights
        ``W`` [d_in+d_h, 4*d_h] the forward joined, and ``inputs`` when the
        input gradient is asked for: each input sequence as its array, its
        rows there and its rows in the layout.

        tanh(c_t) is recomputed, bit for bit the forward's, and the gates are
        turned into d(gate pre-activation) in place, so a backward runs once.
        Like the forward, every product by the weights is taken in row
        blocks, and each sequence's input gradient is a blocked product of its
        own rows, so it does not depend on the batch. The weight gradients
        add one product per ``GRAD_ROWS`` rows, in order: one product over
        all rows rounds differently when OpenBLAS splits it between threads,
        but 256-row products gave the same bits at 1 and 2 threads in every
        shape tried. The recurrent and input rows of ``W`` are transposed
        into C-ordered copies: as the right operand of the blocks, a
        transposed view is up to 3x slower."""
        d_in, d_h = self.d_in, self.d_h
        z, gates, c_all = saved

        def backward(g: np.ndarray) -> list[np.ndarray] | None:
            # d_a: d(gate pre-activation) per unit of dc (gates i, f, c) or of
            # dh (o), built over the gates in place and scaled step by step;
            # zero on fill rows
            d_a = gates
            i, f, o, c_tilde = (d_a[:, k * d_h:(k + 1) * d_h] for k in range(4))
            f_t = f.copy()  # the forget gates, for the step loop
            tmp = np.tanh(c_all)
            dc_dh = np.multiply(tmp, tmp)  # o * (1 - tanh(c)^2)
            np.subtract(1.0, dc_dh, out=dc_dh)
            dc_dh *= o
            tmp *= o  # k_o = tanh(c) * o * (1 - o)
            np.subtract(1.0, o, out=o)
            o *= tmp
            np.multiply(c_tilde, i, out=tmp)  # k_i = c_tilde * i * (1 - i)
            c_tilde *= c_tilde  # k_c = i * (1 - c_tilde^2)
            np.subtract(1.0, c_tilde, out=c_tilde)
            c_tilde *= i
            np.subtract(1.0, i, out=i)
            i *= tmp
            tmp.fill(0.0)  # k_f = c_{t-1} * f * (1 - f), c_{-1} = 0
            for t in range(1, len(live)):
                tmp[start[t]:start[t] + live[t]] = c_all[start[t - 1]:start[t - 1] + live[t]]
            f *= tmp
            np.subtract(1.0, f_t, out=tmp)
            f *= tmp
            del tmp
            w_h = W[d_in:].T.copy()  # [4*d_h, d_h]
            dh_next = np.zeros((start[1], d_h))  # from step t+1; zero past its live rows
            dc_next = np.zeros((live[0], d_h))
            dh_t, dc_t = np.empty((live[0], d_h)), np.empty((live[0], d_h))
            for t in reversed(range(len(live))):
                m = live[t]
                rows = slice(start[t], start[t] + m)
                dh = np.add(g[rows], dh_next[:m], out=dh_t[:m])
                dc = np.multiply(dh, dc_dh[rows], out=dc_t[:m])
                dc += dc_next[:m]
                d4 = d_a[rows].reshape(m, 4, d_h)
                d4[:, :2] *= dc[:, None]
                d4[:, 2] *= dh
                d4[:, 3] *= dc
                if t:  # what step t passes back to step t - 1
                    _blocked_matmul(d_a[start[t]:start[t + 1]], w_h, dh_next)
                    np.multiply(dc, f_t[rows], out=dc_next[:m])
            del dc_dh, f_t, w_h  # a training step's memory peaks in the products below
            d_w = z[:GRAD_ROWS].T @ d_a[:GRAD_ROWS]
            for lo in range(GRAD_ROWS, len(z), GRAD_ROWS):
                d_w += z[lo:lo + GRAD_ROWS].T @ d_a[lo:lo + GRAD_ROWS]
            d_b = d_a.sum(axis=0)
            for n, gate in enumerate(self.GATES):
                self.W[gate].add_grad(d_w[:, n * d_h:(n + 1) * d_h])
                self.b[gate].add_grad(d_b[None, n * d_h:(n + 1) * d_h])
            del d_w
            if inputs is None:
                return None
            w_x = W[:d_in].T.copy()  # [4*d_h, d_in]
            d_inputs = _zeros_for([(x, rows) for x, rows, _ in inputs])
            for x, rows, r in inputs:
                d_seq = np.zeros((_block_rows(len(r)), 4 * d_h))
                d_seq[:len(r)] = d_a[r]
                d_x = np.empty((len(d_seq), d_in))
                _blocked_matmul(d_seq, w_x, d_x)
                d_inputs[id(x)][rows] += d_x[:len(r)]
            return list(d_inputs.values())

        return backward


def _chain(params: ParameterSet, p: np.ndarray, stages: list[Backward]) -> Tensor:
    """``p`` as a Tensor whose backward clears every parameter's grad, then
    pops and runs the backwards of ``stages`` (so frees each once it has run),
    last first. Each takes the gradient on top of a stack that starts as the
    output's, and pushes those it returns, in the order their stages ran."""
    def backward(g: np.ndarray) -> None:
        for _, t in params.items():
            t.grad = None  # each starts at zero when its stage first adds into it
        grads = [g]
        while stages:
            grads += stages.pop()(grads.pop()) or []

    return Tensor(p, backward)


class _PairModel:
    """``forward``, one pair as a batch of one, for the benchmark harness."""

    def forward(self, q_emb: np.ndarray, a_emb: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        return self.score([q_emb], [0], [a_emb], training, rng)


def _pick(items: Sequence, which: Sequence[int], a_embs: Sequence) -> list:
    """``[items[j] for j in which]``: each candidate's question. ShapeError
    unless ``which`` has one index per candidate, each in ``range(len(items))``."""
    if len(which) != len(a_embs) or not all(0 <= index(j) < len(items) for j in which):
        raise ShapeError(f"{len(which)} question indices for {len(a_embs)} candidates, "
                         f"each must be in range({len(items)})")
    return [items[j] for j in which]


class RnnPairModel(_PairModel):
    kind = "rnn"

    def __init__(self, d_in: int, d_h: int = 100, seed: int = 0):
        self.d_in = d_in
        self.d_h = d_h
        self.params = init_params(ParameterSet(), self.param_shapes(d_in, d_h),
                                  np.random.default_rng(seed))
        self.q_cell = LstmCell(self.params, "q_cell")
        self.a_cell = LstmCell(self.params, "a_cell")
        self.w_out, self.b_out = self.params["out.W"], self.params["out.b"]

    def config(self) -> dict:
        return {"d_in": self.d_in, "d_h": self.d_h}

    @staticmethod
    def param_shapes(d_in: int, d_h: int = 100) -> dict[str, tuple[int, ...]]:
        d_in, d_h = index(d_in), index(d_h)
        return {**LstmCell.shapes("q_cell", d_in, d_h), **LstmCell.shapes("a_cell", d_in, d_h),
                "out.W": (2 * d_h, 1), "out.b": (1, 1)}

    def score(self, q_embs: Arrays, which: Sequence[int], a_embs: Arrays,
              training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        h_qs, q_back = self.q_cell.encode_states([_whole(q) for q in q_embs])
        h_as, a_back = self.a_cell.encode_states([_whole(a) for a in a_embs])
        p, out_back = readout([_pick(h_qs, which, a_embs), h_as], self.w_out, self.b_out)
        return _chain(self.params, p, [q_back, a_back, out_back])


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
        self.params = init_params(ParameterSet(), self.param_shapes(d_in, n_filters, window),
                                  np.random.default_rng(seed))
        self.w_conv, self.b_conv = self.params["conv.W"], self.params["conv.b"]
        self.w_out, self.b_out = self.params["out.W"], self.params["out.b"]

    def config(self) -> dict:
        return {"d_in": self.d_in, "n_filters": self.n_filters,
                "window": self.window, "dropout": self.dropout}

    @staticmethod
    def param_shapes(d_in: int, n_filters: int = 100, window: int = 3,
                     dropout: float = 0.5) -> dict[str, tuple[int, ...]]:
        d_in, n_filters, window = index(d_in), index(n_filters), index(window)
        return {"conv.W": (window * d_in, n_filters), "conv.b": (1, n_filters),
                "out.W": (2 * n_filters, 1), "out.b": (1, 1)}

    def _pool(self, seqs: Sequence[Seq]) -> tuple[list[Seq], Backward]:
        """Max over window positions of relu(window @ conv.W + conv.b) of
        each sequence (zero-padded up to one window), as one array of a row
        per sequence, and its backward; on ties the gradient goes to the
        first position. The weight gradient adds the sequences' terms in
        order. The inputs are embedded sequences, which take no gradient, so
        the backward computes none.
        ShapeError unless every input has ``d_in`` columns."""
        _check_width(seqs, self.d_in)
        w, d = self.window, self.d_in
        W, b = self.w_conv.data, self.b_conv.data
        xs = [x[rows] for x, rows in seqs]
        n_win = [max(len(x), w) - w + 1 for x in xs]
        first_win = np.cumsum([0, *n_win])  # row of each sequence's first window
        win = np.zeros((_block_rows(first_win[-1]), w * d))  # zero rows fill the last block
        for x, lo, n in zip(xs, first_win, n_win):
            for k in range(w):
                part = x[k:k + n]  # short of n rows where the zero padding is
                win[lo:lo + len(part), k * d:(k + 1) * d] = part
        act = np.empty((win.shape[0], self.n_filters))
        _blocked_matmul(win, W, act)
        act = act[:first_win[-1]]
        act += b
        np.maximum(0.0, act, out=act)
        cols = np.arange(self.n_filters)
        first = np.array([lo + np.argmax(act[lo:lo + n], axis=0)
                          for lo, n in zip(first_win, n_win)])  # [sequences, filters]
        pooled = act[first, cols]

        def backward(g: np.ndarray) -> None:
            d_pre = g * (pooled > 0.0)
            for lo, n, at, d_seq in zip(first_win, n_win, first, d_pre):
                d_act = np.zeros((n, self.n_filters))  # one nonzero per column: sums are exact
                d_act[at - lo, cols] = d_seq
                self.w_conv.add_grad(win[lo:lo + n].T @ d_act)
                self.b_conv.add_grad(d_seq[None])

        return [(pooled, np.array([k])) for k in range(len(seqs))], backward

    def score(self, q_embs: Arrays, which: Sequence[int], a_embs: Arrays,
              training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """One conv-pool over each question once and every candidate, pair
        by pair: question ``which[k]`` at its first use, then candidate k."""
        which = _pick(range(len(q_embs)), which, a_embs)
        keep = None
        if training and self.dropout > 0.0:
            if rng is None:
                raise ValueError("training with dropout requires an rng")
            p = 1.0 - self.dropout
            # inverted dropout, one mask row per pair in pair order, question
            # units first: scale kept units so inference needs no rescale
            keep = (rng.random((len(a_embs), 2 * self.n_filters)) < p) / p
        at = {}  # pool position of ("q", which[k]) at its first use, then of ("a", k)
        for k, j in enumerate(which):
            at.setdefault(("q", j), len(at))
            at["a", k] = len(at)
        pooled, pool_back = self._pool([_whole((q_embs if side == "q" else a_embs)[i])
                                        for side, i in at])
        p, out_back = readout([[pooled[at["q", j]] for j in which],
                               [pooled[at["a", k]] for k in range(len(which))]],
                              self.w_out, self.b_out, keep)
        return _chain(self.params, p, [pool_back, out_back])


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax of each row, shifted by the row maximum."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def bidaf_attention(q_encs: Sequence[Seq], which: Sequence[int], a_encs: Sequence[Seq],
                    w_alpha: Tensor) -> tuple[list[Seq], Backward]:
    """Bidirectional attention between each candidate encoding k and the
    question encoding ``which[k]``, as one array, and its backward.

    Similarity: S[j, k] = w . [a_j | q_k | a_j*q_k].  Per-candidate-word
    attention averages question vectors with softmax rows of S; the reverse
    direction pools candidate words with softmax over per-row maxima. Returns
    each pair's combined rows [t_a, 4*d_h] in the array, combined[j] =
    [a_j | attq_j | a_j*attq_j | a_j*pool_a]. On ties in a row maximum the
    gradient goes to the first column. Pairs are computed one by one.

    The backward keeps, per pair, the two softmaxes, the first maximal
    columns and the pooled candidate vector. It reads a and attq back from
    the combined rows, gathers the question rows again from their array and
    recomputes a*w3, all bit for bit the forward's. It returns the gradient
    of the encoding arrays, in order of first use, questions first.
    """
    q_encs, a_encs = tuple(_pick(q_encs, which, a_encs)), tuple(a_encs)
    d_h = w_alpha.data.shape[0] // 3
    for x, _ in q_encs + a_encs:
        if x.shape[1:] != (d_h,) or w_alpha.data.shape != (3 * d_h, 1):
            raise ShapeError(f"encodings {x.shape} do not fit weights {w_alpha.data.shape}")
    w1, w2, w3 = (w_alpha.data[k * d_h:(k + 1) * d_h] for k in range(3))
    parts, saved = [], []
    for (q_x, q_rows), (a_x, a_rows) in zip(q_encs, a_encs):
        A, Q = a_x[a_rows], q_x[q_rows]
        q_t = Q.T.copy()  # a product with the transposed view rounds differently
        sim = (A @ w1 + (Q @ w2).T) + (A * w3.T) @ q_t   # [t_a, t_q]
        p_q = _softmax_rows(sim)
        att_q = p_q @ Q                                  # [t_a, d_h]
        first = np.argmax(sim, axis=1)                   # first maximal column
        p_a = _softmax_rows(sim[np.arange(len(A)), first].reshape(1, -1))
        pooled_a = p_a @ A                               # [1, d_h]
        parts.append(np.concatenate([A, att_q, A * att_q, A * pooled_a], axis=1))
        saved.append((q_x, q_rows, a_x, a_rows, p_q, first, p_a, pooled_a))
    ends = np.cumsum([0, *(len(part) for part in parts)])
    combined = np.concatenate(parts)

    def backward(grad: np.ndarray) -> list[np.ndarray]:
        d_inputs = _zeros_for(q_encs + a_encs)
        for lo, (q_x, q_rows, a_x, a_rows, p_q, first, p_a, pooled_a) in zip(ends, saved):
            hi = lo + len(a_rows)
            A, att_q = combined[lo:hi, :d_h], combined[lo:hi, d_h:2 * d_h]
            Q = q_x[q_rows]
            g_a, g_att, g_prod, g_pool = np.split(grad[lo:hi], 4, axis=1)
            d_att = g_att + g_prod * A
            d_pooled = np.sum(g_pool * A, axis=0, keepdims=True)
            d_p_q = d_att @ Q.T
            d_sim = p_q * (d_p_q - np.sum(d_p_q * p_q, axis=1, keepdims=True))
            d_p_a = d_pooled @ A.T
            d_sim[np.arange(len(A)), first] += (p_a * (d_p_a - np.sum(d_p_a * p_a)))[0]
            d_row, d_col = d_sim.sum(axis=1, keepdims=True), d_sim.sum(axis=0)[:, None]
            d_aw3 = d_sim @ Q
            d_inputs[id(a_x)][a_rows] += (g_a + g_prod * att_q + g_pool * pooled_a
                                          + p_a.T @ d_pooled + d_row @ w1.T + d_aw3 * w3.T)
            d_inputs[id(q_x)][q_rows] += p_q.T @ d_att + d_col @ w2.T + d_sim.T @ (A * w3.T)
            w_alpha.add_grad(np.concatenate([A.T @ d_row, Q.T @ d_col,
                                             np.sum(d_aw3 * A, axis=0)[:, None]]))
        return list(d_inputs.values())

    return [(combined, np.arange(lo, hi)) for lo, hi in zip(ends[:-1], ends[1:])], backward


def readout(feats: Sequence[Sequence[Seq]], w: Tensor, b: Tensor,
            keep: np.ndarray | None = None) -> tuple[np.ndarray, Backward]:
    """The logistic output layer every model ends in, over a batch of B
    pairs: ``logistic(x * keep @ w + b)`` of shape [B, 1], and its backward.
    ``feats`` holds feature blocks of one sequence per pair; row k of x joins
    the last row of pair k's sequence in each block, and ``keep`` is an
    optional [B, width] dropout mask. Each pair has a [1, width] product of
    its own. The gradient reaches only each sequence's last row; the
    backward returns it for the input arrays in order of first use."""
    blocks = [tuple(block) for block in feats]
    parts = [np.stack([x[rows[-1]] for x, rows in block]) for block in blocks]
    x = np.concatenate(parts, axis=1)
    if w.data.shape != (x.shape[1], 1) or b.data.shape != (1, 1) or \
            (keep is not None and np.shape(keep) != x.shape):
        raise ShapeError(f"readout of features {x.shape} with weights {w.data.shape}, "
                         f"bias {b.data.shape} and mask {np.shape(keep)}: "
                         "shapes differ (there is no broadcasting)")
    if keep is not None:
        x = x * keep
    p = logistic(np.matmul(x[:, None, :], w.data)[:, 0] + b.data)

    def backward(g: np.ndarray) -> list[np.ndarray]:
        d_z = g * p * (1.0 - p)
        # left to right over the pairs, as a head per pair added them (np.sum may pair them up)
        w.add_grad(np.add.accumulate(x * d_z, axis=0)[-1][:, None])
        b.add_grad(np.add.accumulate(d_z, axis=0)[-1:])
        d_x = d_z * w.data.T
        if keep is not None:
            d_x = d_x * keep
        ends = np.cumsum([part.shape[1] for part in parts])
        d_inputs = _zeros_for([seq for block in blocks for seq in block])
        for block, d_block in zip(blocks, np.split(d_x, ends[:-1], axis=1)):
            for (x_k, rows), d in zip(block, d_block):
                d_inputs[id(x_k)][rows[-1]] += d
        return list(d_inputs.values())

    return p, backward


class BidafModel(_PairModel):
    kind = "bidaf"

    def __init__(self, d_in: int, d_h: int = 100, seed: int = 0,
                 readout: str = "final"):
        if readout != "final":  # the key every bidaf checkpoint carries
            raise ValueError(f"unknown readout: {readout}")
        self.d_in = d_in
        self.d_h = d_h
        self.params = init_params(ParameterSet(), self.param_shapes(d_in, d_h),
                                  np.random.default_rng(seed))
        self.enc_cell = LstmCell(self.params, "enc_cell")
        self.model_cell = LstmCell(self.params, "model_cell")
        self.w_alpha = self.params["attn.w"]
        self.w_out, self.b_out = self.params["out.W"], self.params["out.b"]

    def config(self) -> dict:
        return {"d_in": self.d_in, "d_h": self.d_h, "readout": "final"}

    @staticmethod
    def param_shapes(d_in: int, d_h: int = 100,
                     readout: str = "final") -> dict[str, tuple[int, ...]]:
        d_in, d_h = index(d_in), index(d_h)
        return {**LstmCell.shapes("enc_cell", d_in, d_h), "attn.w": (3 * d_h, 1),
                **LstmCell.shapes("model_cell", 4 * d_h, d_h),
                "out.W": (d_h, 1), "out.b": (1, 1)}

    def score(self, q_embs: Arrays, which: Sequence[int], a_embs: Arrays,
              training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        q_encs, q_back = self.enc_cell.encode_states([_whole(q) for q in q_embs])
        a_encs, a_back = self.enc_cell.encode_states([_whole(a) for a in a_embs])
        combined, attn_back = bidaf_attention(q_encs, which, a_encs, self.w_alpha)
        h, model_back = self.model_cell.encode_states(combined, input_grads=True)
        p, out_back = readout([h], self.w_out, self.b_out)
        return _chain(self.params, p, [q_back, a_back, attn_back, model_back, out_back])


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
