"""Exact element-level fading kernel.

``exact_unit_draws`` is the one routine that draws element-level Rayleigh
fading.  Layout contract: each fading realization uses 2N+1 standard
exponentials -- N interleaved (e1, e2) pairs for the cascaded element
amplitudes sqrt(g_i e1) * sqrt(g_r e2), then one draw for the direct path.
Each chunk of realizations is reduced to the geometry-free unit cascade
X = sum_j sqrt(e1 e2) and the direct draw E, so the composite amplitude at
any geometry is Z = sqrt(g_i g_r) X + sqrt(g_d E).  ``exact_tail_stats`` is
a reduction over those chunks.
"""

import numpy as np

# One backend; the name stays because perfbench's set-up probe reports it.
BACKEND = "numpy"

_CHUNK_TARGET = 4_000_000  # exponential draws per chunk (~32 MB)


def exact_unit_draws(bit_generator, n_draws, n_elems):
    """Yield (x, e) chunks covering n_draws realizations in stream order.

    x is the unit cascade sum_j sqrt(e1 e2) and e the direct-path exponential.
    """
    rng = np.random.Generator(bit_generator)
    width = 2 * n_elems + 1
    chunk = max(1, _CHUNK_TARGET // width)
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        e = rng.standard_exponential((m, width))
        x = np.sqrt(e[:, 0:2 * n_elems:2] * e[:, 1:2 * n_elems:2]).sum(axis=1) \
            if n_elems else np.zeros(m)
        yield x, e[:, 2 * n_elems].copy()  # a view would pin the whole chunk
        done += m


# perfbench/child.py wraps this name in this module; keep it defined here.
def exact_tail_stats(bit_generator, n_draws, n_elems, g_i, g_r, g_d, z2_min):
    """Stream n_draws composite realizations; return (count, sum_z2, sum_z4).

    count is the number of draws with Z^2 >= z2_min.
    """
    a = np.sqrt(g_i * g_r)
    count = 0
    s2 = 0.0
    s4 = 0.0
    for x, e in exact_unit_draws(bit_generator, n_draws, n_elems):
        z = a * x + np.sqrt(g_d * e)
        z2 = z * z
        count += int(np.count_nonzero(z2 >= z2_min))
        s2 += float(z2.sum())
        s4 += float(np.square(z2).sum())
    return count, s2, s4
