import hashlib

import numpy as np
import pytest

from slitkit import svgfig
from slitkit.errors import DomainError
from slitkit.svgfig import _polylines, _tokens, plot_map


def formatted(values) -> str:
    """What the one-pass formatter writes for the flat pairs in values."""
    return _tokens(np.asarray(values, dtype=float))[0].decode("ascii")


def reference(values) -> str:
    """The same text from Python's own "%.2f", value by value."""
    return "".join("%.2f," % x + "%.2f " % y for x, y in zip(values[0::2], values[1::2]))


class TestFormatter:
    def test_hundredths_and_their_neighbours(self):
        k = np.arange(-200_000, 200_000)
        for grid in (k / 200.0, k / 1000.0):
            for values in (grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)):
                assert formatted(values) == reference(values)

    def test_exact_ties_round_to_even(self):
        # k/8 with k odd is exactly halfway between two hundredths
        values = np.array([0.125, 0.375, 0.625, 0.875, -0.125, -0.375, 2.625, -1000.875])
        assert formatted(values) == "0.12,0.38 0.62,0.88 -0.12,-0.38 2.62,-1000.88 "
        assert formatted(values) == reference(values)

    def test_random_magnitudes(self):
        rng = np.random.default_rng(7)
        values = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-4.0, 12.0, 200_000)
        assert formatted(values) == reference(values)
        # up to the largest magnitude the formatter writes, 100 |v| < 2**53
        top = np.nextafter(2.0**53 / 100.0, 0.0)
        values = rng.uniform(-top, top, 20_000)
        values[:2] = (top, -top)
        assert formatted(values) == reference(values)

    def test_signed_zeros(self):
        values = np.array([-0.0, 0.0, -0.004, 0.004, -1e-9, 1e-9, -0.005, 0.005])
        assert formatted(values) == "-0.00,0.00 -0.00,0.00 -0.00,0.00 -0.01,0.01 "
        assert formatted(values) == reference(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e15, -1e15, 2.0**53 / 100.0])
    def test_rejects_values_it_cannot_write_exactly(self, bad):
        # nan, infinities and |v| >= 2**53 / 100 raise instead of printing
        # "%.2f"'s "nan", "inf" or a rounded hundredth
        with pytest.raises(DomainError):
            formatted([0.5, bad])
        pts = np.array([0.5 + 0.5j, complex(bad, 0.0)])
        with pytest.raises(DomainError):
            _polylines([(pts, 0.0, "#000000", 1.0, "c")], 0.0, 1.0)


class TestPolylines:
    def test_empty_curve(self):
        empty = (np.empty(0, complex), 0.0, "#000000", 1.0, "c")
        assert 'points=""' in _polylines([empty], 0.0, 1.0)[0]
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        b = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        curves = [(a, 5.0, "#111111", 1.0, "a"), (a[:0], 6.0, "#222222", 2.0, "e"),
                  (b, 7.0, "#333333", 3.0, "b"), (b[:0], 8.0, "#444444", 4.0, "e")]
        assert _polylines(curves, 2.0, 100.0) == [
            _polylines([curve], 2.0, 100.0)[0] for curve in curves
        ]

    def test_blocks_do_not_change_the_text(self, monkeypatch):
        doc = plot_map(0.5, 0.8, grid=(3, 4))
        monkeypatch.setattr(svgfig, "FORMAT_BLOCK_PAIRS", 7)
        assert plot_map(0.5, 0.8, grid=(3, 4)) == doc


@pytest.mark.parametrize("r, x, grid, digest", [
    (0.25, 0.75, (8, 12), "e30462ae84ec1cb24e261f4e0ab20140528579272fa25c3bd740c1c4e85e7062"),
    (0.5, 0.8, (10, 16), "451ba768fa1edc1886a3256ddd7061399a5dcfd2ab475f60163e9617dc8201f9"),
    (0.8, 0.9, (6, 8), "b7e74e34420998716ec35f37c92b91e828e4afba65f8a93d323131fd25977c1d"),
])
def test_figure_bytes_are_pinned(r, x, grid, digest):
    # digests of the documents written with per-value "%.2f" formatting
    assert hashlib.sha256(plot_map(r, x, grid=grid).encode()).hexdigest() == digest
