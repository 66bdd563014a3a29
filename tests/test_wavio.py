"""WAV container round trips and format enforcement."""

import wave

import numpy as np
import pytest

from cyclevc.errors import FormatError, InputError
from cyclevc.wavio import read_wav, write_wav


def test_round_trip_preserves_samples_within_quantization(tmp_path, rng):
    x = rng.uniform(-0.9, 0.9, size=4800)
    path = tmp_path / "x.wav"
    write_wav(path, x, 24000)
    y, fs = read_wav(path)
    assert fs == 24000
    assert len(y) == len(x)
    assert np.max(np.abs(y - x)) <= 1.0 / 32767.0


def test_round_trip_is_bit_stable_after_one_pass(tmp_path, rng):
    x = rng.uniform(-1.0, 1.0, size=1200)
    first = tmp_path / "a.wav"
    second = tmp_path / "b.wav"
    write_wav(first, x, 24000)
    y, _ = read_wav(first)
    write_wav(second, y, 24000)
    z, _ = read_wav(second)
    assert np.array_equal(y, z)


def test_out_of_range_samples_are_clipped(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(path, np.array([2.0, -2.0, 0.5]), 24000)
    y, _ = read_wav(path)
    assert y[0] == pytest.approx(1.0, abs=1e-4)
    assert y[1] == pytest.approx(-32768.0 / 32767.0, abs=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite_samples_and_leaves_no_file(tmp_path, bad):
    x = np.zeros(480)
    x[17] = bad
    with pytest.raises(InputError, match="non-finite"):
        write_wav(tmp_path / "x.wav", x, 24000)
    assert list(tmp_path.iterdir()) == []


def test_write_rejects_non_mono_input(tmp_path):
    with pytest.raises(InputError, match="mono"):
        write_wav(tmp_path / "x.wav", np.zeros((10, 2)), 24000)


def test_read_rejects_stereo_file(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(24000)
        w.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(FormatError, match="mono"):
        read_wav(path)


def test_read_rejects_non_16bit_file(tmp_path):
    path = tmp_path / "wide.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(4)
        w.setframerate(24000)
        w.writeframes(np.zeros(100, dtype="<i4").tobytes())
    with pytest.raises(FormatError, match="16-bit"):
        read_wav(path)


def _ok_wav_bytes(tmp_path):
    path = tmp_path / "ok.wav"
    write_wav(path, np.zeros(100), 24000)
    return path.read_bytes()


def test_read_rejects_a_file_that_is_not_a_wave(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"RIFF\x10\x00\x00\x00WAVEjunk")
    with pytest.raises(FormatError, match="not a valid WAV"):
        read_wav(path)


def test_read_rejects_a_truncated_header(tmp_path):
    for size in (5, 30):
        path = tmp_path / f"short{size}.wav"
        path.write_bytes(_ok_wav_bytes(tmp_path)[:size])
        with pytest.raises(FormatError, match="not a valid WAV"):
            read_wav(path)


def test_read_rejects_a_non_positive_frame_rate(tmp_path):
    raw = _ok_wav_bytes(tmp_path)
    path = tmp_path / "rate0.wav"
    path.write_bytes(raw[:24] + (0).to_bytes(4, "little") + raw[28:])  # fmt chunk's frame rate
    with pytest.raises(FormatError, match="sample rate is 0"):
        read_wav(path)


@pytest.mark.parametrize("cut", [1, 2, 120])
def test_read_rejects_truncated_sample_data(tmp_path, cut):
    path = tmp_path / "cut.wav"
    path.write_bytes(_ok_wav_bytes(tmp_path)[:-cut])
    with pytest.raises(FormatError, match="truncated sample data"):
        read_wav(path)
