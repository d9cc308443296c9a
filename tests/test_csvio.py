"""The CSV writer's vectorized text against per-cell Python formatting:
``"%.17g" %`` for every float cell and ``str`` for every integer cell."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrinv import csvio
from corrinv.config import parse_config
from corrinv.forward import solve_forward
from corrinv.geometry import build_rectangle_mesh


def written(directory, column):
    """The cells write_csv writes for one column."""
    path = Path(directory) / "x.csv"
    csvio.write_csv(path, ["x"], [column])
    return path.read_bytes().decode().split("\n")[1:-1]


def percent(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=np.float64).tolist()]


def assert_percent_text(directory, values):
    assert written(directory, values) == percent(values)


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    """One directory for the examples of a generated test."""
    return tmp_path_factory.mktemp("cells")


@pytest.fixture
def slow_cells(monkeypatch):
    """The cells the fast path left to %, recorded as write_csv runs."""
    cells = []
    percent_text = csvio._percent_text

    def spy(values):
        cells.extend(values.tolist())
        return percent_text(values)
    monkeypatch.setattr(csvio, "_percent_text", spy)
    return cells


class TestFloatText:
    def test_random_bit_patterns(self, tmp_path, slow_cells):
        # 200k patterns bring nan payloads, subnormals and both signs; the
        # ones that make up no such pattern by chance are added
        bits = np.random.default_rng(0).integers(0, 2**64, 200_000,
                                                 dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), [
            0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308]])
        assert np.isnan(values).sum() > 50
        assert np.sum((values != 0) & (np.abs(values) < 2.2e-308)) > 50
        assert_percent_text(tmp_path, values)
        # only what the fast path cannot certify went to %
        slow = np.array(slow_cells)
        assert np.all(~np.isfinite(slow) | (np.abs(slow) < 1e-280)
                      | (np.abs(slow) >= 1e280))
        assert 0.0 not in slow_cells

    @pytest.mark.parametrize("scale, low, high", [
        # m/4: a 16-digit integer and .25 or .75, an 18th digit 5
        (0.25, 4 * 10**15, 2**53),
        # m/8: a 15-digit integer and .125, .375, .625 or .875
        (0.125, 8 * 10**14, 8 * 10**15),
    ])
    def test_ties_round_half_to_even(self, tmp_path, slow_cells, scale, low,
                                     high):
        m = np.random.default_rng(1).integers(low, high, 50_000) | 1
        values = m.astype(np.float64) * scale
        values[::2] *= -1
        assert_percent_text(tmp_path, values)
        # the 17-digit rounding of each is a tie, decided by the fast path
        assert slow_cells == []

    def test_ties_without_exact_product_go_to_percent(self, tmp_path,
                                                      slow_cells):
        # the only doubles whose 17-digit rounding is a tie while
        # 10**(16 - k) is not a double: m / 2**24 (m odd, 3 to 15) and
        # m / 2**25 (m = 1, 3), 18 significant digits ending in 5.  Their
        # scaled values are known to within 1e-14 only, so % decides them
        ties = [m / 2**24 for m in range(3, 17, 2)] + [1 / 2**25, 3 / 2**25]
        values = ties + [-x for x in ties]
        assert_percent_text(tmp_path, values)
        assert sorted(slow_cells) == sorted(values)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        exact = [float(10**k) for k in range(23)]
        assert_percent_text(tmp_path, np.concatenate([
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            exact]))

    @pytest.mark.parametrize("value, text", [
        # the exponent comes from the exact value, not the rounded one:
        # 1e200 is just below 10**200
        (1e200, "9.9999999999999997e+199"),
        # 1e-14 is within 5e-18 of 10**-14 below it: its 17 digits round
        # up to 10**17, which moves the exponent up by one
        (1e-14, "1e-14"),
        (1e98, "1e+98"),
        # exact powers of ten land on the 10**16 boundary, not below it
        (1e20, "1e+20"),
        (1e22, "1e+22"),
        (1e16, "10000000000000000"),
    ])
    def test_exponent_traps(self, tmp_path, slow_cells, value, text):
        assert written(tmp_path, [value, -value]) == [text, "-" + text]
        assert slow_cells == []

    def test_g_layout_switch_points(self, tmp_path):
        # fixed notation for exponents -4 to 16, exponential outside, with
        # two or three exponent digits
        points = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-99, 1e-100, 1e99,
                           1e100, 1.5e-123, 2.5e250, 123.0, 0.5])
        values = np.concatenate([points, np.nextafter(points, 0),
                                 np.nextafter(points, np.inf)])
        assert_percent_text(tmp_path, np.concatenate([values, -values]))
        cells = written(tmp_path, [1e-5, 1e-4, 1e17, 1e-100, 1e100])
        assert cells == ["1.0000000000000001e-05", "0.0001", "1e+17",
                         "1e-100", "1e+100"]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(values=arrays(np.float64, st.integers(1, 40), elements=st.floats()))
    def test_matches_percent_on_generated_floats(self, tmp_dir, values):
        assert_percent_text(tmp_dir, values)


class TestTables:
    def test_powers_equal_the_big_integer_construction(self):
        # hi is 10**p correctly rounded, lo the rest 10**p - hi correctly
        # rounded, both from one exact ratio of integers per power
        expected = []
        for p in range(csvio._P_LOW, csvio._P_HIGH + 1):
            if p >= 0:
                hi = float(10**p)
                lo = float(10**p - int(hi))
            else:
                q = 10**-p
                hi = 1 / q
                a, b = hi.as_integer_ratio()
                lo = (b - a * q) / (b * q)
            expected.append((hi, lo))
        hi, _, _, lo = csvio._tables().powers
        assert list(zip(hi.tolist(), lo.tolist())) == expected

    def test_chunk_tables_equal_their_text(self):
        tables = csvio._tables()
        text = [f"{c:04d}" for c in range(10000)]
        assert tables.chunk_text.tobytes() == "".join(text).encode()
        for j in range(4):
            expected = [4 * j + len(c.rstrip("0")) if c != "0000" else 0
                        for c in text]
            assert tables.chunk_last[10000 * j:10000 * (j + 1)].tolist() == (
                expected)


class TestIntText:
    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64",
                                       "uint8", "uint16", "uint32", "uint64"])
    def test_matches_str(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(2)
        values = np.concatenate([
            rng.integers(info.min, info.max, 5000, dtype=dtype,
                         endpoint=True),
            np.array([info.min, info.max, 0, 1, 9, 10, 99, 100], dtype=dtype)])
        # every digit count, from 10**j - 1 and 10**j
        powers = [10**j + d for j in range(20) for d in (-1, 0)
                  if info.min <= 10**j + d <= info.max]
        values = np.concatenate([values, np.array(powers, dtype=dtype)])
        assert written(tmp_path, values) == [str(v) for v in values.tolist()]


@pytest.fixture(scope="module")
def field256():
    """The default forward solve's field.csv columns at mesh.n = 256."""
    settings_ = dataclasses.replace(parse_config(text=""), mesh_n=256)
    mesh = build_rectangle_mesh(settings_.domain, settings_.mesh_n)
    u, _ = solve_forward(mesh, settings_.flux, settings_.model)
    return [np.arange(len(mesh.nodes)), *mesh.nodes.T, u]


class TestFieldTable:
    def test_no_cell_needs_percent(self, tmp_path, field256, slow_cells):
        csvio.write_csv(tmp_path / "field.csv", ["node", "x", "y", "u"],
                        field256)
        assert slow_cells == []

    def test_peak_memory(self, tmp_path, field256):
        # the per-cell writer this one replaced peaked at 13.3 MB
        csvio._tables()
        tracemalloc.start()
        try:
            csvio.write_csv(tmp_path / "field.csv", ["node", "x", "y", "u"],
                            field256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
