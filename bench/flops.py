"""Computed flop and byte model for the discrete kernel step and the flow RHS.

Every number here is computed from array shapes, not measured.  Flops count
one multiply-add as two and every elementwise operation as one.  Bytes
assume float64 and no cache reuse between operations: each operation reads
its operands from memory and writes its result once.  A symmetric k-by-k
eigendecomposition with vectors is charged EIGH_FLOPS_PER_K3 * k**3 flops,
the usual estimate for tridiagonal reduction plus QR iteration (Golub and
Van Loan, Matrix Computations, 4th ed., section 8.3).  Terms of order k or
below per run (eigenvalue cut, max reductions over k values) are left out.
"""

from __future__ import annotations

WORD = 8
EIGH_FLOPS_PER_K3 = 9


def _matmul(r: int, s: int, c: int) -> tuple[int, int]:
    """(r, s) @ (s, c): flops and bytes."""
    return 2 * r * s * c, WORD * (r * s + s * c + r * c)


def _elementwise(size: int, operands: int = 2) -> tuple[int, int]:
    """One flop per output element; reads `operands` arrays, writes one."""
    return size, WORD * size * (operands + 1)


def _scale_rows(n: int, k: int) -> tuple[int, int]:
    """A length-n vector broadcast over the rows of an (n, k) array."""
    return n * k, WORD * (n + 2 * n * k)


def _reduce(size: int) -> tuple[int, int]:
    """A max over `size` values: one comparison each, one read each."""
    return size, WORD * size


def _total(ops) -> tuple[int, int]:
    return sum(f for f, _ in ops), sum(b for _, b in ops)


def kernel_step(n: int, k: int, full: bool = False, target: bool = False,
                noisy: bool = False) -> tuple[int, int]:
    """Flops and bytes of one run-step of run_discrete_batch.

    Covers the squared loss with the optimal or noisy predictor, the
    semi or full gradient, and the slow target.  Recording steps are not
    included.
    """
    nk, kk = n * k, k * k
    ops = [
        _matmul(n, n, k),              # pt = P @ target
        _scale_rows(n, k),             # dphi = d * phi
        _scale_rows(n, k),             # dpt = d * pt
        _matmul(k, n, k),              # cov = phi^T dphi
        _matmul(k, n, k),              # rhs = phi^T dpt
        (EIGH_FLOPS_PER_K3 * k ** 3, WORD * 3 * kk),  # eigh(cov): read cov, write w and v
        _elementwise(kk),              # v * inv
        _matmul(k, k, k),              # v^T rhs
        _matmul(k, k, k),              # (v * inv) @ (v^T rhs)
        _matmul(n, k, k),              # dphi @ pred
        _elementwise(nk),              # dpt - dphi pred
        _matmul(n, k, k),              # (...) @ pred^T
        _elementwise(nk, 1),           # 2 * (...)
        _elementwise(nk, 1),           # delta = eta * g
        _elementwise(nk),              # phi += delta
    ]
    if noisy:
        ops.append(_elementwise(kk))   # pred += sigma * noise
    if full:
        ops += [
            _matmul(n, k, k),          # dphi @ pred
            _matmul(n, n, k),          # P^T @ (dphi pred)
            _scale_rows(n, k),         # colw * phi
            _elementwise(nk),          # P^T dphi pred - colw phi
            _elementwise(nk, 1),       # 2 * (...)
            _elementwise(nk),          # g += ...
        ]
    if target:
        ops += [
            _elementwise(nk),          # phi - tgt
            _elementwise(nk, 1),       # (eta * beta) * (...)
            _elementwise(nk),          # tgt += ...
        ]
    if not noisy:
        # blow-up guard: |phi| and its max, again for the target when present
        guard = [_elementwise(nk, 1), _reduce(nk)]
        ops += guard * (2 if target else 1)
    return _total(ops)


def flow_rhs(n: int, k: int) -> tuple[int, int]:
    """Flops and bytes of one call of the single-representation flow RHS."""
    nk = n * k
    return _total([
        _matmul(n, n, k),              # pp = P @ v
        _matmul(k, n, k),              # pred = v^T pp
        _matmul(k, n, k),              # v^T pp
        _matmul(n, k, k),              # v @ (v^T pp)
        _elementwise(nk),              # pp - v v^T pp
        _matmul(n, k, k),              # (...) @ pred^T
    ])


def bidir_rhs(n: int, k: int) -> tuple[int, int]:
    """Flops and bytes of one call of the paired flow RHS."""
    one_leg = _total([
        _matmul(n, n, k),              # P @ right  (P^T @ left)
        _matmul(k, n, k),              # left^T P right  (right^T P^T left)
        _matmul(n, k, k),              # left @ (left^T P right)
        _elementwise(n * k),           # projection
        _matmul(n, k, k),              # (...) @ fwd^T  (@ fwd)
    ])
    fwd = _matmul(k, n, k)             # fwd = left^T P right, only in the first leg
    concat = (0, WORD * 2 * 2 * n * k)  # concatenate both legs into one vector
    return _total([one_leg, one_leg, fwd, concat])
