import pytest

from slitkit.counterexample import CounterexampleConfig, certify_degenerate


@pytest.fixture(scope="session")
def std_config():
    return CounterexampleConfig(r=0.25, x0=0.8)


@pytest.fixture(scope="session")
def std_certificate(std_config):
    return certify_degenerate(std_config)


@pytest.fixture(scope="session")
def mp_omega():
    """The infinite prime-function product in mpmath, at the working precision.

    Factors are multiplied in until q^n falls below 10^-(dps + 5), so the
    omitted tail is far below the precision of the result.
    """
    mp = pytest.importorskip("mpmath")

    def omega(z, a, r):
        z, a, q = mp.mpmathify(z), mp.mpmathify(a), mp.mpf(r) ** 2
        stop = mp.mpf(10) ** -(mp.mp.dps + 5)
        out, qn = z - a, q
        while qn > stop:
            out *= (1 - qn * z / a) * (1 - qn * a / z) / (1 - qn) ** 2
            qn *= q
        return out

    return omega
