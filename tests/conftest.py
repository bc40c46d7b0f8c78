import json
import pathlib

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


def counted_calls(monkeypatch, cls, name):
    """Record the arguments of each call of the classmethod ``cls.name``."""
    calls = []
    original = getattr(cls, name)
    monkeypatch.setattr(cls, name, classmethod(lambda _, *a: calls.append(a) or original(*a)))
    return calls


def counted_checks(monkeypatch, *classes):
    """Count the public validations (``__post_init__``) of ``classes``."""
    calls = []
    for cls in classes:
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, tol, _f=original: calls.append(1) or _f(self, tol))
    return calls


def forbid_svd(monkeypatch):
    """Make every later ``np.linalg.svd`` call fail the test."""

    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called on a settled check")

    monkeypatch.setattr(np.linalg, "svd", svd)


GOLDEN_FIXTURE = pathlib.Path(__file__).with_name("golden_cli.json")


def build_environment() -> dict[str, str]:
    """The numpy version and BLAS that output bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def on_golden_build() -> bool:
    """Whether this is the numpy and BLAS build ``golden_cli.json`` was recorded on."""
    if not GOLDEN_FIXTURE.exists():
        return False
    recorded = json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))["environment"]
    return build_environment() == recorded
