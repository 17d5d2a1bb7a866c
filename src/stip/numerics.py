"""Dense float32 matrix ops, permutation vectors, and row-wise primitives.

Matrices are numpy float32 arrays in row-major order; vectors are 1-D float32
arrays. Permutations are index vectors, never materialized as 0/1 matrices on
hot paths (`to_matrix` exists for test oracles).

`matmul` is the one exception to float32 inputs: it takes a 2-D float32 or
float64 ndarray as it is and computes in float64, so a float64 operand is
never rounded through float32. Two kinds of operand arrive as float64: the
K′/V′ rows of the decoding cache, and the dense weight matrices P2 widens
once per deployment (`protocol.ServerParty`). Every result is float32.

Column panels: an MoE expert matrix travels and is served as a
`PanelMatrix`, its columns in contiguous blocks of `panel_width` columns,
so `matmul` widens one L2-sized panel at a time instead of a strided column
range. Its `shape` is the logical (k, n), and `np.asarray` gives the
logical matrix.

Column concatenation: a `ColumnConcat` is [B_1 | B_2], matrices of one
row count side by side, none of them copied. `matmul` multiplies it part by
part, a `PanelMatrix` part panel by panel, into one output; a SwiGLU FFN
multiplies W_1 and W_3 as one such product.

Two cores: `matmul` deals the column panels of a large right operand
between two threads: a `PanelMatrix`'s own panels, the parts of a
`ColumnConcat`, or the two column halves of a row-major matrix. A float32
matrix splits when its cast is large enough to share (SPLIT_MIN_ELEMENTS),
a float64 one when its product has enough multiply-adds (SPLIT_MIN_MACS)
and more than one row. `on_two_cores` deals a deploy's tensor jobs out by
load. Both hand their far half to one persistent daemon thread
(`_Helper`), started at the first split; a process allowed one CPU
(`usable_cpus`) hands nothing off.
"""

import os
import threading
from dataclasses import dataclass, field

import numpy as np

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
# Elements (1 MiB of float32) of the scratch block a two-sided gather uses.
_GATHER_BLOCK = 1 << 18


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
        """Write the tensor into `out`, a float32 array at any alignment.

        `out` has the tensor's shape or, for a matrix, the (P, k, cb) shape
        of its column panels (`PanelMatrix`): then each block of rows goes
        into the P panels in turn, so the panels are written in one pass.

        Both sides permuted, or panels: a block of rows at a time goes into
        a scratch array of at most _GATHER_BLOCK elements, and its columns
        from there into `out`. The scratch stays small whatever the tensor's
        size, so a gather run on the helper thread (`on_two_cores`) leaves
        little in that thread's malloc arena. Each np.take uses mode="clip",
        because with the default "raise" numpy buffers the whole `out`.
        Nothing is clipped: a Permutation's indices are a checked bijection,
        and the constructor checked each permuted axis against its
        permutation.
        """
        panels = out.ndim == 3
        if self.cols is None and not panels:
            _take_into(self.src, self.rows, 0, out)
            return
        if self.rows is None and not panels:
            _take_into(self.src, self.cols, -1, out)
            return
        k, n = self.src.shape
        rows = np.arange(k) if self.rows is None else self.rows.indices
        cols = np.arange(n) if self.cols is None else self.cols.indices
        cb = out.shape[2] if panels else n
        step = max(1, _GATHER_BLOCK // n)
        scratch = np.empty((min(step, k), n), DTYPE)
        for i in range(0, k, step):
            block = rows[i : i + step]
            part = scratch[: block.size]
            np.take(self.src.view(_ITEM), block, axis=0, out=part.view(_ITEM), mode="clip")
            for p, c in enumerate(range(0, n, cb)):
                dst = out[p, i : i + step] if panels else out[i : i + step]
                np.take(
                    part.view(_ITEM), cols[c : c + cb], axis=-1, out=dst.view(_ITEM),
                    mode="clip",
                )

    def array(self):
        out = np.empty(self.shape, dtype=DTYPE)
        self.into(out)
        return out


# Work of at least this many elements (256 KiB of float32) is shared between
# two cores: a float32 right operand of `matmul`, or a tensor a deploy writes
# or scans. Below it, the work takes less time than handing it to a thread.
SPLIT_MIN_ELEMENTS = 1 << 16
# A product with a float64 right operand and at least this many multiply-adds
# (rows × k × n) is shared between two cores. With one BLAS thread on a
# 2-vCPU host, each product timed after other work so that the helper starts
# idle, the split took 64×512×512 (2²⁴) from 0.61 to 0.55 ms and 32×512×512
# (2²³) from 0.36 to 0.36 ms, and 16×512×512 (2²²) from 0.27 to 0.28 ms.
SPLIT_MIN_MACS = 1 << 23


def usable_cpus():
    """CPUs this process may run on; all of the host's where the OS cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


class _Half:
    """One half of a split: `fn`, dropped as soon as it has run, and what it raised."""

    __slots__ = ("fn", "error", "done")

    def __init__(self, fn):
        self.fn = fn
        self.error = None
        self.done = threading.Event()

    def run(self):
        try:
            self.fn()
        except BaseException as exc:  # handed to the caller, which raises it
            self.error = exc
        finally:
            self.fn = None


class _Helper:
    """One daemon thread that runs the far half of each split, one at a time.

    The thread starts with the first half handed to it. A half waits in
    `_pending` until the thread takes it, and until then its caller may take
    it back; a caller that finds the helper busy keeps its half. The thread
    keeps no reference to a half once it has run.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._pending = None
        self._busy = False
        self._thread = None

    def offer(self, half):
        """Hand `half` to the helper thread; False, handing nothing, when it is busy."""
        with self._cond:
            if self._busy:
                return False
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="stip-helper", daemon=True
                )
                self._thread.start()
            self._pending = half
            self._busy = True
            self._cond.notify()
            return True

    def take_back(self, half):
        """True, withdrawing `half`, when the helper thread has not started it."""
        with self._cond:
            if self._pending is not half:
                return False
            self._pending = None
            self._busy = False
            return True

    def _loop(self):
        while True:
            with self._cond:
                while self._pending is None:
                    self._cond.wait()
                half, self._pending = self._pending, None
            half.run()
            with self._cond:
                self._busy = False
            half.done.set()
            half = None


_helper = _Helper()


def _reset_helper():
    global _helper
    _helper = _Helper()


# A forked child has none of its parent's threads: it starts its own helper.
if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_reset_helper)


def _two_halves(here, there):
    """here() on this thread while the helper runs there(); both done on return.

    The caller allocates the arrays both halves use (a deploy gather's own
    scratch is one small block, `Gather.into`), so the helper thread's
    malloc arena keeps little. When the helper is busy, or has not started
    there() by the time here() is done, this thread runs there() itself: it
    never waits on a half that has not started. What either half raised is
    raised here, once neither is running.
    """
    half = _Half(there)
    handed = _helper.offer(half)
    try:
        here()
    except BaseException:
        if handed and not _helper.take_back(half):
            half.done.wait()
        half.fn = None
        raise
    if not handed or _helper.take_back(half):
        half.run()
    else:
        half.done.wait()
    if half.error is not None:
        raise half.error


def on_two_cores(jobs, run):
    """run(job) for each (elements, job) in `jobs`, on this thread and the helper.

    Jobs of at least SPLIT_MIN_ELEMENTS elements are dealt out by `_deal`;
    smaller ones stay on this thread. Where the helper would get no job, or
    this process may run on one CPU only, every job runs here.
    """
    mine, theirs = _deal(jobs)
    if not theirs or usable_cpus() < 2:
        for _, job in jobs:
            run(job)
        return

    def each(side):
        for job in side:
            run(job)

    _two_halves(lambda: each(mine), lambda: each(theirs))


def _deal(jobs):
    """(this thread's jobs, the helper's jobs) from (elements, job) pairs, by load.

    This thread starts with every job under SPLIT_MIN_ELEMENTS elements.
    The rest go largest first, each to the side with fewer elements so far,
    so the two sides differ by at most one job's elements.
    """
    mine = [job for n, job in jobs if n < SPLIT_MIN_ELEMENTS]
    loads = [sum(n for n, _ in jobs if n < SPLIT_MIN_ELEMENTS), 0]
    sides = (mine, [])
    big = [(n, job) for n, job in jobs if n >= SPLIT_MIN_ELEMENTS]
    for n, job in sorted(big, key=lambda j: -j[0]):
        side = 0 if loads[0] <= loads[1] else 1
        sides[side].append(job)
        loads[side] += n
    return sides


# Largest float64 copy of one column panel (1 MiB): it stays in a 2 MiB L2
# cache while it is multiplied.
PANEL_BYTES = 1 << 20


def panel_width(k, n):
    """Columns per panel of a k×n float32 matrix stored as panels; 0 to keep it row-major.

    The widest multiple of 64 that divides n, whose float64 panel of k rows
    fits in PANEL_BYTES, and that leaves at least two panels. Cuts at
    multiples of 64 columns keep the product's bytes (`matmul`).
    """
    for cb in range(n // 2 // 64 * 64, 0, -64):
        if n % cb == 0 and k * cb * 8 <= PANEL_BYTES:
            return cb
    return 0


def as_panels(m, cb):
    """The (n/cb, k, cb) column panels of a k×n matrix: panel p is m[:, p·cb:(p+1)·cb]."""
    k, n = m.shape
    return m.reshape(k, n // cb, cb).transpose(1, 0, 2)


class PanelMatrix:
    """A k×n float32 matrix held as contiguous column panels, (P, k, cb) = `panels`.

    Panel p holds columns [p·cb, (p+1)·cb) in row-major order. `shape` and
    `np.shape` read the logical (k, n), and `np.asarray` gives the logical
    matrix as a copy, so code that reads a matrix reads this one unchanged;
    `matmul` multiplies it panel by panel without forming it.
    """

    __slots__ = ("panels",)
    ndim = 2

    def __init__(self, panels):
        if panels.ndim != 3:
            raise InvalidDimensionError(f"panels must be rank 3, got {panels.shape}")
        self.panels = panels

    @property
    def shape(self):
        p, k, cb = self.panels.shape
        return (k, p * cb)

    @property
    def dtype(self):
        return self.panels.dtype

    @property
    def size(self):
        return self.panels.size

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a panel matrix has no logical view without a copy")
        m = self.panels.transpose(1, 0, 2).reshape(self.shape)
        return m if dtype is None else m.astype(dtype, copy=False)


class ColumnConcat:
    """[B_1 | B_2 | …]: matrices of one row count side by side, none of them copied.

    Each part is a 2-D float32 or float64 ndarray or a `PanelMatrix`; any
    other part is coerced by `as_matrix`. `shape` and `np.shape` read the
    logical (k, n_1 + n_2 + …), and `np.asarray` gives the logical matrix as
    a copy. `matmul` multiplies each part into its own output columns.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts):
        parts = tuple(p if type(p) is PanelMatrix else _matmul_operand(p) for p in parts)
        if not parts or len({p.shape[0] for p in parts}) != 1:
            raise InvalidDimensionError(
                f"cannot concatenate columns of shapes {[p.shape for p in parts]}"
            )
        self.parts = parts

    @property
    def shape(self):
        return (self.parts[0].shape[0], sum(p.shape[1] for p in self.parts))

    @property
    def dtype(self):
        return np.result_type(*(p.dtype for p in self.parts))

    @property
    def size(self):
        return sum(p.size for p in self.parts)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a column concatenation has no logical view without a copy")
        m = np.concatenate([np.asarray(p) for p in self.parts], axis=1)
        return m if dtype is None else m.astype(dtype, copy=False)


def _matmul_operand(x):
    """A 2-D float32 or float64 ndarray as it is; anything else through as_matrix."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype.char in "fd":
        return x
    return as_matrix(x)


def _worth_splitting(m, b):
    """Whether a product of m rows by `b` gains from sharing its panels between two cores.

    A float32 `b` is cast once per product, and that cast is what two cores
    share: it splits at SPLIT_MIN_ELEMENTS elements, for one row too. A
    float64 `b` is not cast: its product splits at SPLIT_MIN_MACS
    multiply-adds, and a one-row product, bound by reading `b` once, not at
    all. Nothing splits on a process allowed one CPU, which is asked last:
    most products are too small, and every call pays for the question.
    """
    if b.dtype.char == "f":
        large = b.size >= SPLIT_MIN_ELEMENTS
    else:
        large = m > 1 and m * b.size >= SPLIT_MIN_MACS
    return large and usable_cpus() >= 2


def _column_panels(m, b):
    """(output columns, source) pairs that `matmul` multiplies one at a time; None for none.

    A row-major `b` whose product of m rows is worth splitting
    (`_worth_splitting`) gives two strided column halves, cut at the
    multiple of 64 columns nearest its middle. A ColumnConcat gives each
    part's pairs, or the part whole, in turn, and a PanelMatrix its panels.
    """
    if type(b) is np.ndarray:
        if not _worth_splitting(m, b):
            return None
        n = b.shape[1]
        cut = (n + 64) // 128 * 64
        return [(slice(0, cut), b[:, :cut]), (slice(cut, n), b[:, cut:])] if 0 < cut < n else None
    if type(b) is ColumnConcat:
        out, start = [], 0
        for part in b.parts:
            n = part.shape[1]
            own = _column_panels(m, part) or [(slice(0, n), part)]
            out += [(slice(start + c.start, start + c.stop), src) for c, src in own]
            start += n
        return out
    cb = b.panels.shape[2]
    return [(slice(p * cb, (p + 1) * cb), panel) for p, panel in enumerate(b.panels)]


def _split_matmul(a, b, panels):
    """float64 `a` times `b`, one column panel at a time, on two cores.

    The caller takes the first half of `panels` and the helper thread the
    rest, when `_worth_splitting` says so; otherwise the caller takes them
    all. Each output column is the same k-ordered dot product as in the
    unsplit product, so the bytes are the same. Each side widens each
    float32 panel into a float64 buffer (a float64 panel is multiplied as
    it is), multiplies into a float64 buffer of its own and rounds that into
    the panel's columns of `out`; this thread allocates every buffer, one of
    each kind per panel width on that side.
    """
    m, k = a.shape
    out = np.empty((m, b.shape[1]), DTYPE)

    def side(part):
        widths = {c.stop - c.start for c, _ in part}
        casts = {c.stop - c.start for c, src in part if src.dtype != np.float64}
        b64 = {w: np.empty((k, w)) for w in casts}
        prod = {w: np.empty((m, w)) for w in widths}

        def product():
            for cols, src in part:
                w = cols.stop - cols.start
                if src.dtype != np.float64:
                    np.copyto(b64[w], src)
                    src = b64[w]
                np.matmul(a, src, out=prod[w])
                out[:, cols] = prod[w]

        return product

    half = (len(panels) + 1) // 2
    if half == len(panels) or not _worth_splitting(m, b):
        side(panels)()
    else:
        _two_halves(side(panels[:half]), side(panels[half:]))
    return out


def matmul(a, b):
    """Standard matrix product; 64-bit accumulation, 32-bit result.

    A 2-D float32 or float64 ndarray operand is used as it is, so a float64
    operand reaches the float64 product unrounded; any other input is coerced
    by `as_matrix` (a 1-D input becomes 1×n). Float32 operands are widened
    with one cast each, float64 ones not at all: the cached K′/V′ rows and
    P2's widened weight matrices skip the cast on every call. The same values
    given as float32 or as float64 give the same bytes.

    `b` may also be a PanelMatrix, such as an MoE expert as P2 holds it, or
    a ColumnConcat, such as a SwiGLU FFN's [W_1 | W_3]. Its panels or parts,
    or the two column halves of a large row-major `b`, are multiplied one at
    a time and dealt between two cores (`_column_panels`, `_split_matmul`):
    a float32 `b` of at least SPLIT_MIN_ELEMENTS elements, a float64 one in
    a product of more than one row and at least SPLIT_MIN_MACS
    multiply-adds. Every split gives the bytes of the unsplit product.
    """
    a = _matmul_operand(a)
    if type(b) not in (PanelMatrix, ColumnConcat):
        b = _matmul_operand(b)
    m, k = a.shape
    if k != b.shape[0]:
        raise InvalidDimensionError(f"matmul shapes {a.shape} x {b.shape}")
    a = a.astype(np.float64, copy=False)
    panels = _column_panels(m, b)
    if panels:
        return _split_matmul(a, b, panels)
    return np.matmul(a, b.astype(np.float64, copy=False)).astype(DTYPE)


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

    The branch is chosen per element by a bitwise select on the uint32 views
    of the two candidates, q ^ ((p ^ q) & mask) with mask all ones where
    x ≥ 0: the bits of 1/d there and of e/d elsewhere, NaN inputs included.
    On a 64×1024 gate it takes 0.07 ms where np.where took 0.36 ms.
    """
    x = as_matrix(x)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    p = np.divide(1.0, d).view(np.uint32)
    q = np.divide(e, d, out=e).view(np.uint32)
    mask = (x >= 0).astype(np.uint32)
    np.negative(mask, out=mask)
    np.bitwise_xor(p, q, out=p)
    np.bitwise_and(p, mask, out=p)
    np.bitwise_xor(q, p, out=q)
    return e
