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


def exact_unit_draws(bit_generator, n_draws, n_elems):
    """(x, e) of n_draws realizations in stream order.

    x is the unit cascade sum_j sqrt(e1 e2) and e the direct-path exponential;
    the draws are made a chunk at a time into one reused buffer.
    """
    rng = np.random.Generator(bit_generator)
    width = 2 * n_elems + 1
    buf = np.empty((max(1, min(_CHUNK_TARGET // width, n_draws)), width))
    x = np.empty(n_draws)
    e = np.empty(n_draws)
    for lo in range(0, n_draws, len(buf)):
        chunk = buf[:n_draws - lo]
        rng.standard_exponential(out=chunk)
        hi = lo + len(chunk)
        x[lo:hi] = np.sqrt(chunk[:, 0:2 * n_elems:2] * chunk[:, 1:2 * n_elems:2]).sum(axis=1)
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
