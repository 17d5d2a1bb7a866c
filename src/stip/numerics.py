"""Dense float32 matrix ops, permutation vectors, and row-wise primitives.

Matrices are numpy float32 arrays in row-major order; vectors are 1-D float32
arrays. Permutations are index vectors, never materialized as 0/1 matrices on
hot paths (`to_matrix` exists for test oracles).

`matmul` is the one exception to float32 inputs: it takes a 2-D float32 or
float64 ndarray as it is and computes in float64, so a float64 operand is
never rounded through float32. Two kinds of operand arrive as float64: the
K′/V′ rows of the decoding cache, and the dense weight matrices P2 widens
once per deployment (`protocol.ServerParty`). Every result is float32.
"""

import numpy as np
from dataclasses import dataclass, field

from .errors import DegenerateRowError, InvalidDimensionError

DTYPE = np.float32
NEG_INF = float("-inf")
# Serialized float32 data stores -inf as the most-negative finite float32.
F32_MIN = float(np.finfo(np.float32).min)


def as_matrix(x):
    """Coerce to a 2-D float32 array."""
    m = np.asarray(x, dtype=DTYPE)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise InvalidDimensionError(f"expected 2-D matrix, got ndim={m.ndim}")
    return m


def as_vector(x):
    """Coerce to a 1-D float32 array."""
    v = np.asarray(x, dtype=DTYPE).reshape(-1)
    return v


@dataclass(eq=False)
class Permutation:
    """A permutation of feature indices: indices[j] = source column placed at j."""

    indices: np.ndarray = field()

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise InvalidDimensionError("permutation needs at least one index")
        if not np.array_equal(np.sort(idx), np.arange(idx.size)):
            raise InvalidDimensionError("indices are not a bijection of 0..dim-1")
        self.indices = idx

    @property
    def dim(self):
        return int(self.indices.size)

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(
            self.indices, other.indices
        )


def identity_perm(dim):
    """The identity permutation of the given dimension."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    return Permutation(np.arange(dim))


def gen_permutation(dim, seed):
    """Uniformly random permutation, deterministic per seed (Fisher-Yates)."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return Permutation(rng.permutation(dim))


def inverse_perm(p):
    """inverse.indices[p.indices[j]] = j."""
    inv = np.empty(p.dim, dtype=np.int64)
    inv[p.indices] = np.arange(p.dim)
    return Permutation(inv)


def to_matrix(p):
    """Explicit 0/1 permutation matrix; test-oracle and benchmark use only."""
    m = np.zeros((p.dim, p.dim), dtype=DTYPE)
    m[p.indices, np.arange(p.dim)] = 1.0
    return m


def _some_entry_at_most(a, bound):
    """True when an entry of a is <= bound; one read pass, no temporary array."""
    return a.size > 0 and bool(np.fmin.reduce(a, axis=None) <= bound)


def sanitize_neg_inf(a):
    """-inf entries become the F32_MIN sentinel; copies only when one is present."""
    if _some_entry_at_most(a, NEG_INF):
        return np.where(np.isneginf(a), DTYPE(F32_MIN), a)
    return a


def sanitize_neg_inf_in_place(a):
    """sanitize_neg_inf, writing the sentinel into `a` itself."""
    if _some_entry_at_most(a, NEG_INF):
        a[np.isneginf(a)] = F32_MIN


def restore_neg_inf(a):
    """Undo sanitize_neg_inf: F32_MIN reads back as -inf; copies only when present."""
    if _some_entry_at_most(a, F32_MIN):
        return np.where(a == DTYPE(F32_MIN), DTYPE(NEG_INF), a)
    return a


def apply_col_perm(x, p):
    """x·π by column indexing: out[i, j] = x[i, indices[j]].

    np.take returns a C-contiguous array, which the codecs write out without
    another copy; x[:, indices] would be strided.
    """
    x = as_matrix(x)
    if x.shape[1] != p.dim:
        raise InvalidDimensionError(f"cols {x.shape[1]} != perm dim {p.dim}")
    return np.take(x, p.indices, axis=1)


def apply_row_perm(x, p):
    """πᵀ·x by row indexing: out[i] = x[indices[i]]."""
    x = as_matrix(x)
    if x.shape[0] != p.dim:
        raise InvalidDimensionError(f"rows {x.shape[0]} != perm dim {p.dim}")
    return x[p.indices, :]


def apply_vec_perm(v, p):
    """v·π for a row vector (γπ, βπ)."""
    v = as_vector(v)
    if v.size != p.dim:
        raise InvalidDimensionError(f"vector dim {v.size} != perm dim {p.dim}")
    return v[p.indices]


# Gathers move 4-byte items as raw bytes: a "V4" item has alignment 1, so
# np.take writes straight into an `out` that sits at any byte offset, where a
# float32 `out` off a 4-byte boundary is buffered whole and copied back. The
# bytes, NaN payloads included, are the float32 ones.
_ITEM = np.dtype("V4")


def _take_into(src, perm, axis, out):
    np.take(src.view(_ITEM), perm.indices, axis=axis, out=out.view(_ITEM), mode="clip")


class Gather:
    """One permuted tensor, not yet written: out[i, j] = src[rows[i], cols[j]].

    `rows` and `cols` are Permutations, or None to leave that axis as it is
    (not both); a vector has only columns. `into` writes the tensor into an
    array the caller owns, such as its slot in a model container, and
    `array` into a fresh one; both give the bytes `apply_row_perm`,
    `apply_col_perm` and `apply_vec_perm` give.
    """

    def __init__(self, src, rows, cols):
        src = np.asarray(src, dtype=DTYPE)
        if src.ndim not in (1, 2) or (rows is not None and src.ndim != 2):
            raise InvalidDimensionError(f"cannot gather a tensor of shape {src.shape}")
        if rows is not None and src.shape[0] != rows.dim:
            raise InvalidDimensionError(f"rows {src.shape[0]} != perm dim {rows.dim}")
        if cols is not None and src.shape[-1] != cols.dim:
            raise InvalidDimensionError(f"cols {src.shape[-1]} != perm dim {cols.dim}")
        self.src = src
        self.rows = rows
        self.cols = cols

    @property
    def shape(self):
        return self.src.shape

    def into(self, out):
        """Write the tensor into `out`, a float32 array of its shape at any alignment.

        Both sides permuted: the rows go into a scratch array, the columns
        into `out`. Each np.take uses mode="clip", because with the default
        "raise" numpy buffers the whole `out`. Nothing is clipped: a
        Permutation's indices are a checked bijection, and the constructor
        checked each permuted axis against its permutation.
        """
        if self.cols is None:
            _take_into(self.src, self.rows, 0, out)
            return
        src = self.src if self.rows is None else self.src[self.rows.indices]
        _take_into(src, self.cols, -1, out)

    def array(self):
        out = np.empty(self.shape, dtype=DTYPE)
        self.into(out)
        return out


def _matmul_operand(x):
    """A 2-D float32 or float64 ndarray as it is; anything else through as_matrix."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype.char in "fd":
        return x
    return as_matrix(x)


def matmul(a, b):
    """Standard matrix product; 64-bit accumulation, 32-bit result.

    A 2-D float32 or float64 ndarray operand is used as it is, so a float64
    operand reaches the float64 product unrounded; any other input is coerced
    by `as_matrix` (a 1-D input becomes 1×n). Float32 operands are widened
    with one cast each, float64 ones not at all: the cached K′/V′ rows and
    P2's widened weight matrices skip the cast on every call. The same values
    given as float32 or as float64 give the same bytes.
    """
    a = _matmul_operand(a)
    b = _matmul_operand(b)
    if a.shape[1] != b.shape[0]:
        raise InvalidDimensionError(f"matmul shapes {a.shape} x {b.shape}")
    return np.matmul(
        a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    ).astype(DTYPE)


def softmax_rows(x):
    """Row-wise softmax, stabilized by per-row max; -inf entries get weight 0.

    exp(−inf − max) is +0.0 on every row with a finite max, so masked
    entries need no pass of their own; a row holding NaN or +inf gives NaN.
    """
    x = as_matrix(x)
    top = x.max(axis=1, keepdims=True)
    if (top == NEG_INF).any():
        raise DegenerateRowError("softmax row is entirely -inf")
    with np.errstate(invalid="ignore"):
        e = np.exp(x - top)
    denom = np.add.reduce(e, axis=1, keepdims=True, dtype=np.float64)
    return (e / denom).astype(DTYPE)


def layernorm(x, gamma, beta, eps=1e-5):
    """γ ∘ (x − μ)/√(σ² + eps) + β with per-row population variance.

    μ and σ² are float64 sums over the row divided by its width, which is
    what `np.mean(..., dtype=np.float64)` computes.
    """
    x = as_matrix(x)
    gamma = as_vector(gamma)
    beta = as_vector(beta)
    d = x.shape[1]
    if d != gamma.size or d != beta.size:
        raise InvalidDimensionError(
            f"layernorm dims: x cols {d}, gamma {gamma.size}, beta {beta.size}"
        )
    mu = np.add.reduce(x, axis=1, keepdims=True, dtype=np.float64) / d
    xc = x - mu
    var = np.add.reduce(np.square(xc), axis=1, keepdims=True) / d
    out = xc / np.sqrt(var + eps)
    return (out * gamma + beta).astype(DTYPE)


def rmsnorm(x, gamma, eps=1e-5):
    """γ ∘ x/√(mean(x²) + eps), per row; x² and its mean in float64."""
    x = as_matrix(x)
    gamma = as_vector(gamma)
    d = x.shape[1]
    if d != gamma.size:
        raise InvalidDimensionError(f"rmsnorm dims: x cols {d}, gamma {gamma.size}")
    ms = np.add.reduce(np.square(x, dtype=np.float64), axis=1, keepdims=True) / d
    out = x / np.sqrt(ms + eps)
    return (out * gamma).astype(DTYPE)


def relu(x):
    """Elementwise max(0, x)."""
    return np.maximum(as_matrix(x), 0.0)


def gelu(x):
    """Exact Gaussian-CDF GeLU: x·Φ(x)."""
    from scipy.special import erf

    x = as_matrix(x)
    return (x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))).astype(DTYPE)


def sigmoid(x):
    """Elementwise logistic function, stable for large |x|.

    1/(1 + e^−x) for x ≥ 0 and e^x/(1 + e^x) otherwise, so exp never
    overflows. e = exp(−|x|) is exactly e^−x on the first branch and e^x on
    the second, so one branch-free pass computes both with the same float32
    operations on the same values: the output is bit-identical to evaluating
    each branch on its own subset (a boolean gather and scatter), for every
    float32 input, ±0, ±inf and NaN included. The masked gather and scatter
    cost about three times the arithmetic on a SwiGLU gate, so there is none.
    """
    x = as_matrix(x)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)
