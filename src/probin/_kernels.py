"""Compiled inner loop of the shooting integrator.

Falls back to pure Python when numba is unavailable; the code path is
identical, only slower.
"""

try:
    from numba import njit
except ImportError:  # pragma: no cover
    def njit(*args, **kwargs):
        def wrap(func):
            return func
        if args and callable(args[0]):
            return args[0]
        return wrap

OVERFLOW_CAP = 1e12


@njit(cache=True, nogil=True)
def _mom(x, expo):
    # sign(x) * |x|**expo with 0 -> 0
    if x > 0.0:
        return x ** expo
    if x < 0.0:
        return -((-x) ** expo)
    return 0.0


@njit(cache=True, nogil=True)
def rk4_path(phi0, psi0, lam, pm1, qm1, hs, ld, out_phi, out_psi):
    """Integrate phi' = |psi|^(q-2)psi, psi' = -lam*|phi|^(p-2)phi - ld*psi
    over the steps hs (signed).  ld holds the drift w'/w at every step
    endpoint and midpoint: ld[2i], ld[2i+1], ld[2i+2] frame step i.

    Writes the state after step i into out_phi[i], out_psi[i].  The
    system is (p-1)-homogeneous, so a trajectory is defined up to a
    positive factor: whenever |phi| or |psi| exceeds OVERFLOW_CAP, the
    state and every step written so far are multiplied by (c, c^(p-1))
    with c < 1.  Returns (scale, crossed): scale is the product of those
    factors (1.0 if none), crossed whether phi <= 0 at the launch or
    after any step.
    """
    phi = phi0
    psi = psi0
    scale = 1.0
    crossed = phi0 <= 0.0
    for i in range(hs.shape[0]):
        h = hs[i]
        l0 = ld[2 * i]
        lm = ld[2 * i + 1]
        l1 = ld[2 * i + 2]

        k1p = _mom(psi, qm1)
        k1q = -lam * _mom(phi, pm1) - l0 * psi

        ph = phi + 0.5 * h * k1p
        ps = psi + 0.5 * h * k1q
        k2p = _mom(ps, qm1)
        k2q = -lam * _mom(ph, pm1) - lm * ps

        ph = phi + 0.5 * h * k2p
        ps = psi + 0.5 * h * k2q
        k3p = _mom(ps, qm1)
        k3q = -lam * _mom(ph, pm1) - lm * ps

        ph = phi + h * k3p
        ps = psi + h * k3q
        k4p = _mom(ps, qm1)
        k4q = -lam * _mom(ph, pm1) - l1 * ps

        phi = phi + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        psi = psi + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)

        if phi <= 0.0:
            crossed = True
        if abs(phi) > OVERFLOW_CAP or abs(psi) > OVERFLOW_CAP:
            # scale back to max(|phi|, |psi|^(q-1)) = 1
            c = 1.0 / max(abs(phi), abs(psi) ** qm1)
            cp = c ** pm1
            phi *= c
            psi *= cp
            out_phi[:i] *= c
            out_psi[:i] *= cp
            scale *= c
        out_phi[i] = phi
        out_psi[i] = psi
    return scale, crossed
