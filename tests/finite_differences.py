"""Central finite differences: an independent checker of the forward-AD derivatives."""

import numpy as np


def fd_gradient(f, x, step=1e-6):
    """Central-difference gradient; step scaled per component by 1 + |x_i|."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    for i in range(x.size):
        hi = step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += hi
        xm[i] -= hi
        g[i] = (float(f(xp)) - float(f(xm))) / (2.0 * hi)
    return g


def fd_jacobian(f, x, step=1e-6):
    """Central-difference Jacobian of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        hi = step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += hi
        xm[i] -= hi
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * hi))
    return np.stack(cols, axis=-1)
