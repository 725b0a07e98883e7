import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from roomforge.engine import fft_convolve, fft_convolve_many, fft_length


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


@settings(max_examples=100, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=3000),
    nhs=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=4),
    extra=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(nx=1, nhs=[1, 700], extra=3, seed=0)
@example(nx=900, nhs=[1, 1], extra=0, seed=1)
def test_many_matches_direct_convolution_within_bound(nx, nhs, extra, seed):
    # Every output sample is at most ||x|| * ||h|| (Cauchy-Schwarz), and an FFT
    # convolution errs by about eps * log2(nfft) of that.  Measured over 400 random
    # pairs of up to 4000 samples, scaled by 1e-3 to 1e3: at most 1.8e-16 of it, so
    # the bound of 1e-14 leaves a wide margin.  Past its convolution an output is zeros.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nx)
    hs = [rng.standard_normal(n) for n in nhs]
    length = nx + max(nhs) - 1 + extra
    for h, y in zip(hs, fft_convolve_many(x, hs, length)):
        direct = np.convolve(x, h)
        assert y.shape == (length,)
        assert not y[direct.size :].any()
        bound = 1e-14 * np.linalg.norm(x) * np.linalg.norm(h)
        assert np.max(np.abs(y[: direct.size] - direct)) <= bound


def test_signal_transformed_once_per_fft_length(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(5000)
    hs = [rng.standard_normal(700) for _ in range(6)] + [rng.standard_normal(3000)]
    transformed = []
    rfft = np.fft.rfft

    def counting_rfft(a, n=None, *args, **kwargs):
        transformed.append((a.size, n))
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    for _ in fft_convolve_many(x, hs):
        pass
    # two FFT lengths: x twice, each IR once
    assert sum(size == x.size for size, _ in transformed) == 2
    assert len(transformed) == 2 + len(hs)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10**8))
@example(1)
@example(1025)  # past a power of two: 1080 = 2^3 * 3^3 * 5
@example(552_961)  # past 552960 = 2^12 * 3^3 * 5: 559872 = 2^8 * 3^7
def test_fft_length_is_scipys_next_fast_len(n):
    # the least 2^a * 3^b * 5^c >= n, the length fftconvolve transforms at
    assert fft_length(n) == scipy.fft.next_fast_len(n, real=True)


def test_numpy_and_scipy_transforms_agree_bit_for_bit():
    # the engine transforms with numpy.fft and is checked against fftconvolve, which
    # uses scipy.fft: the two must give the same bytes at the lengths the engine picks
    # (each one up to 600 and a few long ones), from operands shorter than the
    # transform, as the engine passes them
    rng = np.random.default_rng(34)
    lengths = sorted({fft_length(n) for n in range(2, 600)}
                     | {fft_length(n) for n in (16_000, 38_399, 236_799, 527_999, 614_399)})
    for nfft in lengths:
        x = rng.standard_normal(rng.integers(1, nfft + 1))
        spectrum = np.fft.rfft(x, nfft)
        assert spectrum.tobytes() == scipy.fft.rfft(x, nfft).tobytes(), nfft
        assert np.fft.irfft(spectrum, nfft).tobytes() == scipy.fft.irfft(spectrum, nfft).tobytes(), nfft
