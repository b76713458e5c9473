import numpy as np
from hypothesis import settings

import superpert as sp

# Property tests draw the same examples on every run.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_hermitian(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / 2.0


def random_diagonal_model(rng, n, gap=0.5, v_scale=1.0):
    """Nondegenerate diagonal unperturbed part plus a dense Hermitian V."""
    e0 = np.cumsum(gap + rng.uniform(0.0, 1.0, size=n))
    h0 = np.diag(e0).astype(np.complex128)
    v = random_hermitian(rng, n, scale=v_scale)
    return sp.make_model(n, [(0, h0), (1, v)])

