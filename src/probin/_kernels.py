"""Inner loop of the shooting integrator.

One RK4 body, _rk4_core, uses only len, indexing, scalar arithmetic and
loops, so it runs unchanged on numpy arrays and on Python lists.  With
numba installed, rk4_path is the core compiled for numpy arrays.
Without it, rk4_path runs the same core on Python floats and lists,
because numpy scalars would take every operation of a step through
numpy's scalar machinery, several times slower.  The IEEE operations are
the same either way, so the results agree bit for bit.
"""

try:
    from numba import njit
except ImportError:  # pragma: no cover
    njit = None

OVERFLOW_CAP = 1e12


def _mom(x, expo):
    # sign(x) * |x|**expo with 0 -> 0
    if x > 0.0:
        return x ** expo
    if x < 0.0:
        return -((-x) ** expo)
    return 0.0


def _rk4_core(phi0, psi0, lam, pm1, qm1, hs, ld, out_phi, out_psi):
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
    for i in range(len(hs)):
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
            for j in range(i):
                out_phi[j] *= c
                out_psi[j] *= cp
            scale *= c
        out_phi[i] = phi
        out_psi[i] = psi
    return scale, crossed


if njit is not None:
    _mom = njit(cache=True, nogil=True)(_mom)
    rk4_path = njit(cache=True, nogil=True)(_rk4_core)
else:
    def rk4_path(phi0, psi0, lam, pm1, qm1, hs, ld, out_phi, out_psi):
        """_rk4_core on Python floats; same arguments, outputs and return."""
        phis = [0.0] * len(hs)
        psis = [0.0] * len(hs)
        try:
            scale, crossed = _rk4_core(
                float(phi0), float(psi0), float(lam), float(pm1), float(qm1),
                hs.tolist(), ld.tolist(), phis, psis,
            )
        except OverflowError:
            # float ** raises where a numpy scalar gives inf (p near 1,
            # |lam| ~ 1e9): rerun on the arrays, which carries the inf on
            return _rk4_core(phi0, psi0, lam, pm1, qm1, hs, ld, out_phi, out_psi)
        out_phi[:] = phis
        out_psi[:] = psis
        return scale, crossed
