r"""Tensor Kronecker products and the reshaping operators built on them.

The Kronecker product used throughout follows the package's grouped-index
rule: in ``tkp(a, b)`` the index of ``a`` varies fastest along every mode,
so ``tkp(a, b) == np.kron(b, a)``.  A factor chain
``[B_1, ..., B_L]`` composes with layer L innermost (fastest) and layer 1
outermost; chained non-overlapping convolution applies B_1 first.

Two reshaping operators expose the multilinear structure:

* ``reshape_R(c, grid)`` returns the matrix whose row (h, j, k) - grid
  positions grouped in canonical order - is the vec of the sub-lattice of
  ``c`` at offset (h, j, k) with per-mode stride ``grid``.  Its defining
  identity is ``reshape_R(tkp(a, b), a.shape) == outer(vec(a), vec(b))``.
* ``reshape_T(c, factor_dims)`` regroups an order-3 tensor into an order-L
  tensor so that a sum of rank-1 Kronecker chains becomes a sum of CP
  outer products, mode l varying with vec(B_l).  Ravelled, it is a vec in
  layer-digit order (``reshape_T_indices``): level 1's digit slowest.

Both are pure index permutations, entries moved and never combined, and
both come from the one layer-digit map: ``reshape_R``'s is the transposed
``reshape_T_indices`` of the two-level chain (dims / grid, grid).

In layer-digit order a chain is ``np.kron(vec(B_1), ..., vec(B_L))``, the
one fold (``_kron``) that composes every chain: ``kron_chain`` scatters it
to canonical order, and the solver keeps it as is.  So the one contraction
of a ``(rows, n)`` stack against a chain's lower or upper product,
``_contract_lower`` and its mirror ``_contract_upper``, is one contiguous
matmul.  ``dkn_fit.fit``, ``dkn_fit.build_design`` (so ``sweep_update``)
and ``nonoverlap_conv`` go through them, and ``diagnostics.probe_tau0``
reaches them through ``build_design``'s core.
"""

from functools import lru_cache, reduce

import numpy as np

from .errors import DimensionError
from .tensor_core import unvec, vec

__all__ = [
    "tkp",
    "kron_chain",
    "compose_coeff",
    "reshape_R",
    "reshape_R_indices",
    "reshape_T",
    "reshape_T_indices",
    "nonoverlap_conv",
    "conv_chain_eval",
]


def _lift3(t):
    """View an order<=3 tensor as order 3 by appending unit extents."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 3:
        raise DimensionError(f"expected order <= 3, got {t.ndim}")
    if t.ndim == 3:
        return t
    return t.reshape(t.shape + (1,) * (3 - t.ndim), order="F")


def _triple(dims):
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= 3 or any(d < 1 for d in dims):
        raise DimensionError(f"expected 1..3 positive extents, got {dims}")
    return dims + (1,) * (3 - len(dims))


def _composed_extents(factor_dims):
    """Per-mode extents of the given layers composed; (1,1,1) for none."""
    out = [1, 1, 1]
    for fd in factor_dims:
        for m in range(3):
            out[m] *= fd[m]
    return tuple(out)


def tkp(a, b):
    """Kronecker product with a's index fastest along every mode:
    ``np.kron(b, a)``, column-major like every composed tensor here."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != b.ndim:
        raise DimensionError(f"order mismatch: {a.ndim} vs {b.ndim}")
    return np.asfortranarray(np.kron(b, a))


def _kron(a, b):
    """``np.kron`` of two 1-D vectors, the same bytes without its overhead."""
    return np.multiply.outer(a, b).ravel()


def kron_chain(factors):
    """Compose ``[B_1, ..., B_L]`` with layer L innermost:
    tkp(B_L, tkp(B_{L-1}, ... tkp(B_2, B_1))).

    The factors must share one order in 1..3.  Their vecs are folded into
    layer-digit order, ``np.kron(vec(B_1), ..., vec(B_L))``, which one
    scatter (``reshape_T_indices``) puts in canonical order.  Each entry is
    the product B_1 B_2 ... B_L associated from the left, as in the tkp
    fold, so the two routes give the same bytes.
    """
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    if not factors:
        raise DimensionError("factor chain must be non-empty")
    orders = {f.ndim for f in factors}
    if len(orders) != 1:
        raise DimensionError(f"factors must share one order, got orders {sorted(orders)}")
    fd = [_triple(f.shape) for f in factors]  # refuses orders outside 1..3
    dims = _composed_extents(fd)
    out = np.empty(int(np.prod(dims)))
    out[reshape_T_indices(dims, fd)] = reduce(_kron, [vec(f) for f in factors])
    return unvec(out, dims[: orders.pop()])


def compose_coeff(terms):
    """Sum of Kronecker chains: terms is a list of factor chains, one per rank."""
    terms = list(terms)
    if not terms:
        raise DimensionError("need at least one chain")
    out = kron_chain(terms[0])
    for chain in terms[1:]:
        c = kron_chain(chain)
        if c.shape != out.shape:
            raise DimensionError(f"chains compose to different extents: {c.shape} vs {out.shape}")
        out = out + c
    return out


def reshape_R_indices(dims, grid):
    """Index map M with ``reshape_R(c, grid) == vec(c)[M]`` for c of extents ``dims``.

    Precomputing M lets callers apply the reshape to whole batches of
    vectorized tensors with one fancy-indexing gather.  M is the transposed
    layer-digit map of the two-level chain (dims / grid, grid): a grid
    position is the fast digit of every mode, a sub-lattice entry the slow.
    """
    dims3, grid3 = _triple(dims), _triple(grid)
    for n, g in zip(dims3, grid3):
        if n % g != 0:
            raise DimensionError(f"grid {grid3} does not divide extents {dims3}")
    rest = tuple(n // g for n, g in zip(dims3, grid3))
    return reshape_T_indices(dims3, (rest, grid3)).reshape(-1, int(np.prod(grid3))).T


def reshape_R(c, grid):
    """Rearrange an order<=3 tensor into the (grid)-by-(rest) matrix of sub-lattices.

    Row (h, j, k), with grid positions grouped first-index-fastest, is the
    vec of the stride-``grid`` sub-lattice of ``c`` starting at offset
    (h, j, k).  ``grid == c.shape`` gives vec(c) as a column; grid of all
    ones gives vec(c) as a row.
    """
    c3 = _lift3(c)
    return vec(c3)[reshape_R_indices(c3.shape, grid)]


@lru_cache(maxsize=256)
def _reshape_T_indices_cached(dims3, fd):
    L = len(fd)
    if not fd or _composed_extents(fd) != dims3:
        raise DimensionError(f"factor extents {list(fd)} do not compose to {dims3}")
    # Split each mode with level L fastest, matching the chain composition,
    # then order the digits level 1 slowest, each level's as vec(B_l).
    split = [fd[L - 1 - i][m] for m in range(3) for i in range(L)]
    src = np.arange(int(np.prod(dims3)), dtype=np.intp).reshape(split, order="F")
    perm = [m * L + L - l for l in range(1, L + 1) for m in (2, 1, 0)]
    out = src.transpose(perm).ravel()
    out.setflags(write=False)
    return out


def reshape_T_indices(dims, factor_dims):
    """Index map M with ``reshape_T(c, factor_dims).ravel() == vec(c)[M]``
    for c of extents ``dims``: a canonical vec in layer-digit order, level
    1's digit slowest and each level's digit in vec(B_l) order."""
    return _reshape_T_indices_cached(_triple(dims), tuple(_triple(f) for f in factor_dims))


def reshape_T(c, factor_dims):
    """Regroup an order<=3 tensor into one order-L mode per factor level.

    ``factor_dims`` lists per-level extents (d_l, p_l, q_l) for l = 1..L,
    whose per-mode products must equal the extents of ``c``.  In the
    result, mode l is indexed by the vec of a level-l factor: for any
    chain, ``reshape_T(kron_chain(chain), dims)`` is the CP outer product
    of the vecs, and sums of chains map to sums of outer products.
    """
    c3 = _lift3(c)
    out = vec(c3)[reshape_T_indices(c3.shape, factor_dims)]
    return out.reshape([int(np.prod(_triple(f))) for f in factor_dims])


def _contract_lower(t, lo):
    """Contract a ``(rows, n)`` stack in layer-digit order against ``lo``,
    the lower product over its slowest digits (layers 1..l-1): the stack is
    the ``(k, rows/k * n)`` matrix.  An ``(R, k)`` ``lo`` reads the stack
    once for all R; the result is ``(rows/k, n)``, or ``(R, rows/k, n)``."""
    out = lo @ t.reshape(lo.shape[-1], -1)
    return out.reshape(lo.shape[:-1] + (-1, t.shape[-1]))


def _contract_upper(t, up):
    """Contract a ``(rows, n)`` stack in layer-digit order against ``up``,
    the upper product over its fastest digits (layers l+1..L): the mirror
    of :func:`_contract_lower`, one matmul per slowest digit.  The result
    is ``(rows/m, n)``, or ``(rows/m, R, n)`` for an ``(R, m)`` ``up``."""
    return np.matmul(up, t.reshape(-1, up.shape[-1], t.shape[-1]))


def nonoverlap_conv(x, b):
    """Non-overlapping convolution of ``x`` with kernel ``b``.

    The kernel extents must divide the image extents elementwise; the
    output has extents ``x.shape / b.shape`` and entry (h, j, k) is the
    inner product of ``b`` with the sub-lattice of ``x`` at offset
    (h, j, k) and per-mode stride equal to the output extents.  With this
    gather, ``nonoverlap_conv(tkp(a, b), b) == fro_norm(b)**2 * a``.  It is
    :func:`_contract_lower` on the one-image stack ``vec(x)`` in the
    layer-digit order of the two-level chain (b, output).
    """
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.ndim != b.ndim:
        raise DimensionError(f"order mismatch: {x.ndim} vs {b.ndim}")
    x3, b3 = _lift3(x), _lift3(b)
    for n, m in zip(x3.shape, b3.shape):
        if n % m != 0:
            raise DimensionError(f"kernel extents {b.shape} do not divide {x.shape}")
    out_dims = [n // m for n, m in zip(x3.shape, b3.shape)]
    t = vec(x3)[reshape_T_indices(x3.shape, (b3.shape, out_dims))]
    return _contract_lower(t[:, None], vec(b3)).reshape(out_dims[: x.ndim], order="F")


def conv_chain_eval(x, factors):
    """Collapse ``x`` to a scalar by convolving with B_1, then B_2, ..., then B_L.

    When the factor extents compose to the extents of ``x`` (required),
    this equals ``inner(x, kron_chain(factors))``; the two routes are the
    package's cross-check for the composition convention.
    """
    factors = list(factors)
    if not factors:
        raise DimensionError("factor chain must be non-empty")
    acc = _lift3(x)
    comp = _composed_extents(_triple(np.shape(f)) for f in factors)
    if comp != acc.shape:
        raise DimensionError(f"factor extents compose to {comp}, image has {acc.shape}")
    for f in factors:
        acc = nonoverlap_conv(acc, _lift3(f))
    return float(acc.ravel()[0])
