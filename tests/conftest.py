import numpy as np
from hypothesis import HealthCheck, settings

from chancert.linalg import HermOp

# eigh-heavy properties blow the default 200ms deadline on slow CI boxes
settings.register_profile(
    "chancert",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("chancert")


def rand_herm(d, rng, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def rand_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def rand_pure(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def herm(m):
    return HermOp(m)


# defect sizes, as multiples of a check's exact threshold, for the tests that
# pin bound-settled validation decisions to the exact formulas
THRESHOLD_FACTORS = (1e-3, 0.3, 0.99, 1.01, 3.0)


def outcome(fn, *args, **kwargs):
    """``(exception type, message)`` raised by the call, or None if it returns."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def forbid_svd(monkeypatch):
    """Make every later ``np.linalg.svd`` call fail the test."""

    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called on a settled check")

    monkeypatch.setattr(np.linalg, "svd", svd)
