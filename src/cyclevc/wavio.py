"""Minimal mono 16-bit PCM WAV reader/writer.

Waveforms are exchanged as float arrays in [-1, 1]; this is the only waveform
container the package reads or writes.
"""

import io
import wave

import numpy as np

from .errors import FormatError, InputError
from .features import write_atomic

_PCM_SCALE = 32767.0


def write_wav(path, x, fs):
    """Write a float waveform in [-1, 1] as mono 16-bit PCM; values are clipped.
    A non-finite sample raises InputError and writes nothing."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected mono waveform, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{path}: waveform holds non-finite samples")
    # one float buffer, rounded and clipped in place
    pcm = x * _PCM_SCALE
    np.round(pcm, out=pcm)
    np.clip(pcm, -32768, 32767, out=pcm)
    pcm = pcm.astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(fs))
        w.writeframes(pcm.tobytes())
    write_atomic(path, buf.getvalue())


def read_wav(path):
    """Read a mono 16-bit PCM WAV file; returns (waveform float64 in [-1, 1], fs).

    A file that is not a well-formed WAV raises FormatError.
    """
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise FormatError(f"{path}: expected mono, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise FormatError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
            fs = w.getframerate()
            n_frames = w.getnframes()
            raw = w.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"{path}: not a valid WAV file ({str(exc) or 'truncated'})") from exc
    if fs <= 0:
        raise FormatError(f"{path}: sample rate is {fs}")
    if len(raw) != 2 * n_frames:
        raise FormatError(f"{path}: truncated sample data ({len(raw)} of {2 * n_frames} bytes)")
    x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM_SCALE
    return x, fs
