import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from roomforge.engine import fft_convolve, fft_convolve_many


def nested_loop_convolve(x, h):
    """Independent brute-force oracle: textbook double loop."""
    out = np.zeros(len(x) + len(h) - 1)
    for i in range(len(x)):
        for j in range(len(h)):
            out[i + j] += x[i] * h[j]
    return out


def test_matches_nested_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.standard_normal(int(rng.integers(1, 64)))
        h = rng.standard_normal(int(rng.integers(1, 16)))
        expected = nested_loop_convolve(x, h)
        got = fft_convolve(x, h)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_overlap_add_path_matches_direct():
    # a long signal against a long filter: a 400k-point transform
    rng = np.random.default_rng(1)
    x = rng.standard_normal(400_000)
    h = rng.standard_normal(3000)
    got = fft_convolve(x, h)
    expected = np.convolve(x, h)
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(got / scale, expected / scale, rtol=0, atol=1e-9)


def test_output_length():
    assert fft_convolve(np.ones(10), np.ones(4)).size == 13


def test_commutative():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100)
    h = rng.standard_normal(31)
    np.testing.assert_allclose(fft_convolve(x, h), fft_convolve(h, x), atol=1e-12)


def test_bit_reproducible():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100_000)
    h = rng.standard_normal(5000)
    a = fft_convolve(x, h)
    b = fft_convolve(x, h)
    assert np.array_equal(a, b)


def test_empty_rejected():
    with pytest.raises(ValueError):
        fft_convolve(np.array([]), np.ones(4))


lengths = st.integers(min_value=1, max_value=300)


@settings(max_examples=200, deadline=None)
@given(
    nx=lengths,
    nhs=st.lists(lengths, min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_many_equals_fftconvolve_bytes(nx, nhs, seed):
    # mixed IR lengths give several FFT lengths per call; 1 covers the one-sample operands
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nx)
    hs = [rng.standard_normal(n) for n in nhs]
    outputs = list(fft_convolve_many(x, hs))
    assert len(outputs) == len(hs)
    for h, y in zip(hs, outputs):
        expected = fftconvolve(x, h)
        assert y.dtype == expected.dtype and y.shape == expected.shape
        assert y.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    nx=lengths,
    nhs=st.lists(lengths, min_size=1, max_size=8),
    extra=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_many_zero_pads_each_output_to_length(nx, nhs, extra, seed):
    # the longest output sets the length, as in a job; an output whose FFT buffer
    # is shorter than that length is padded in a copy, the others in place
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nx)
    hs = [rng.standard_normal(n) for n in nhs]
    length = nx + max(nhs) - 1 + extra
    for h, y in zip(hs, fft_convolve_many(x, hs, length)):
        expected = np.zeros(length)
        full = fftconvolve(x, h)
        expected[: full.size] = full
        assert y.tobytes() == expected.tobytes()


def test_signal_transformed_once_per_fft_length(monkeypatch):
    import scipy.fft

    rng = np.random.default_rng(4)
    x = rng.standard_normal(5000)
    hs = [rng.standard_normal(700) for _ in range(6)] + [rng.standard_normal(3000)]
    transformed = []
    rfft = scipy.fft.rfft

    def counting_rfft(a, n=None, *args, **kwargs):
        transformed.append((a.size, n))
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfft", counting_rfft)
    for _ in fft_convolve_many(x, hs):
        pass
    # two FFT lengths: x twice, each IR once
    assert sum(size == x.size for size, _ in transformed) == 2
    assert len(transformed) == 2 + len(hs)
