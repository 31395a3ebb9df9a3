"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the validity region of a coefficient,
    weight, or problem builder (e.g. evaluating past the first zero of
    the model coefficient)."""


class BracketFailure(RuntimeError):
    """The eigenvalue bracket search exhausted its growth budget without
    finding a sign change.  Where its last trial lies past the |lam| at
    which the RK4 step reaches shoot._RK4_STABILITY_EDGE, the message
    says so and names rk_steps: more steps move that edge out."""


class ToleranceFailure(RuntimeError):
    """A solver cannot stand behind its answer.

    Shooting: bisection stalled before the requested eigenvalue
    tolerance; a trajectory turned non-finite before phi crossed zero,
    which means the RK4 step is too coarse for a boundary layer of width
    about |alpha|^(-1/(p-1)) (p near 1, alpha < 0; more rk_steps resolve
    it); the converged lambda is past RK4's stability edge, h*p*big >
    shoot._RK4_STABILITY_EDGE (raise rk_steps); the path at the
    converged lambda crosses zero; or the eigenvalue lies above the
    constant trial's quotient, which bounds the first eigenvalue above
    (p near 1, alpha > 0).

    Rayleigh: an inverse power iterate's p-th powers left the float
    range, so its p-norm is not finite and positive (p log(1 + R) above
    about 709)."""
