"""L1 norm of a radial test function, for bounds in the tests."""
import math

import numpy as np

from pseudoht.quadrature import composite_legendre


def radial_l1_norm(phi, r_max: float = 12.0) -> float:
    """integral |phi| = |S^{d-1}| integral_0^r_max r^{d-1} |phi(r e_1)| dr for a
    radial phi = q(u) G (no shift or frequency), with the 1-D rule split at the
    real roots of q along the first axis so that every panel is smooth."""
    assert not np.any(phi.shift) and not np.any(phi.freq)
    q = np.zeros(1 + phi.expo[:, 0].max(), dtype=complex)
    radial = ~np.any(phi.expo[:, 1:], axis=1)
    np.add.at(q, phi.expo[radial, 0], phi.coef[radial])
    cuts = [x.real for x in np.polynomial.polynomial.polyroots(q)
            if abs(x.imag) < 1e-9 and 0.0 < x.real < r_max]
    r, w = composite_legendre(np.sort(np.r_[np.linspace(0.0, r_max, 13), cuts]), 40)
    U = np.zeros((r.size, phi.dim))
    U[:, 0] = r
    surf = 2.0 * math.pi ** (phi.dim / 2.0) / math.gamma(phi.dim / 2.0)
    return float(surf * np.sum(w * r ** (phi.dim - 1) * np.abs(phi.evaluate_many(U))))
