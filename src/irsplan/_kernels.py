"""Exact element-level fading kernel.

``exact_unit_draws`` is the one routine that draws element-level Rayleigh
fading.  Layout contract: each fading realization uses 2N+1 standard
exponentials -- N interleaved (e1, e2) pairs for the cascaded element
amplitudes sqrt(g_i e1) * sqrt(g_r e2), then one draw for the direct path.
Each realization is reduced to the geometry-free unit cascade
X = sum_j sqrt(e1 e2) and the direct draw E, so the composite amplitude at
any geometry is Z = sqrt(g_i g_r) X + sqrt(g_d E).  ``exact_tail_stats`` is
a reduction over those arrays.
"""

import numpy as np

# One backend; the name stays because perfbench's set-up probe reports it.
BACKEND = "numpy"

_CHUNK_TARGET = 4_000_000  # exponential draws per chunk (~32 MB)


def _chunk_rows(n_draws, n_elems):
    """Realizations per chunk: about _CHUNK_TARGET exponentials, at least one."""
    return max(1, min(_CHUNK_TARGET // (2 * n_elems + 1), n_draws))


def unit_draw_bytes(n_draws, n_elems):
    """Bytes ``exact_unit_draws`` holds besides x and e: its chunk and product
    buffers, and numpy's buffers for the strided multiply (bufsize doubles an operand)."""
    return 8 * (_chunk_rows(n_draws, n_elems) * (3 * n_elems + 1) + 3 * np.getbufsize())


def exact_unit_draws(bit_generator, n_draws, n_elems):
    """(x, e) of n_draws realizations in stream order.

    x is the unit cascade sum_j sqrt(e1 e2) and e the direct-path exponential;
    the draws are made a chunk at a time into one reused buffer and reduced
    in place into another.
    """
    rng = np.random.Generator(bit_generator)
    rows = _chunk_rows(n_draws, n_elems)
    buf = np.empty((rows, 2 * n_elems + 1))
    prod = np.empty((rows, n_elems))
    x = np.empty(n_draws)
    e = np.empty(n_draws)
    for lo in range(0, n_draws, rows):
        chunk = buf[:n_draws - lo]
        rng.standard_exponential(out=chunk)
        hi = lo + len(chunk)
        p = np.multiply(chunk[:, 0:2 * n_elems:2], chunk[:, 1:2 * n_elems:2], out=prod[:hi - lo])
        np.sqrt(p, out=p).sum(axis=1, out=x[lo:hi])
        e[lo:hi] = chunk[:, 2 * n_elems]
    return x, e


# perfbench/child.py wraps this name in this module; keep it defined here.
def exact_tail_stats(bit_generator, n_draws, n_elems, g_i, g_r, g_d, z2_min):
    """Draw n_draws composite realizations; return (count, sum_z2, sum_z4).

    count is the number of draws with Z^2 >= z2_min.
    """
    x, e = exact_unit_draws(bit_generator, n_draws, n_elems)
    z = np.sqrt(g_i * g_r) * x + np.sqrt(g_d * e)
    z2 = z * z
    return int(np.count_nonzero(z2 >= z2_min)), float(z2.sum()), float(np.square(z2).sum())
