"""Reference formulas the tests check the library against."""
import numpy as np


def entry_gradient(P, x, u, w=None):
    """v vector for a single direction pair, via the adjoint formula.

    Returns DG(x)*[(u w^T + w u^T) / 2]; with w omitted this is
    DG(x)*[u u^T], the gradient of x -> u^T G(x) u.  Agreement with the
    entrywise formula (u^T D_l G(x) w)_l is covered by a property test.
    """
    u = np.asarray(u, dtype=float)
    w = u if w is None else np.asarray(w, dtype=float)
    M = (np.outer(u, w) + np.outer(w, u)) / 2.0
    return P.adjoint(x, M)
