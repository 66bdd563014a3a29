"""Acoustic feature container, bit-exact feature file format, normalization.

Per-frame layout is fixed: 45 mel-cepstral coefficients (dim 0 = energy),
1 log-F0 (interpolated through unvoiced regions), 1 binary voicing flag,
3 coded band-aperiodicity values in [-60, 0] dB; 50 dims total, 5 ms frame
shift.

Feature file (little-endian): magic "CVF1", u32 version=1, u32 n_frames,
u32 n_dims=50, u32 frame_shift_us=5000, u32 reserved=0, then
n_frames x 50 float32 rows in the layout above. All in-memory arrays are
float32 so a write/read round trip is bit-exact. Artifacts are written
atomically (`atomic_open`).
"""

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, InputError, ShapeError

MCEP_DIM = 45
CAP_DIM = 3
FRAME_SHIFT_MS = 5
FRAME_SHIFT_US = FRAME_SHIFT_MS * 1000

MCEP_SLICE = slice(0, MCEP_DIM)
LF0_INDEX = MCEP_DIM
UV_INDEX = LF0_INDEX + 1
CAP_SLICE = slice(UV_INDEX + 1, UV_INDEX + 1 + CAP_DIM)
N_DIMS = CAP_SLICE.stop  # 50

_MAGIC = b"CVF1"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")

STD_FLOOR = 1e-6

# coded band aperiodicity lies in [CAP_DB_FLOOR, 0] dB; above 0 dB the noise
# share of a band would exceed one
CAP_DB_FLOOR = -60.0

# largest frame-count difference between two renderings of one utterance
# that pairing (training) and scoring (MCD) absorb by trimming the tail
MAX_FRAME_MISMATCH = 2


@dataclass
class UtteranceFeatures:
    """Per-frame acoustic features for one utterance (all arrays float32)."""

    utt_id: str
    mcep: np.ndarray  # (n_frames, 45)
    lf0: np.ndarray   # (n_frames,)
    uv: np.ndarray    # (n_frames,) values in {0, 1}
    cap: np.ndarray   # (n_frames, 3)

    def __post_init__(self):
        self.mcep = np.ascontiguousarray(self.mcep, dtype=np.float32)
        self.lf0 = np.ascontiguousarray(self.lf0, dtype=np.float32)
        self.uv = np.ascontiguousarray(self.uv, dtype=np.float32)
        self.cap = np.ascontiguousarray(self.cap, dtype=np.float32)
        self.validate()

    @property
    def n_frames(self):
        return self.mcep.shape[0]

    def validate(self):
        n = self.mcep.shape[0]
        if self.mcep.ndim != 2 or self.mcep.shape[1] != MCEP_DIM:
            raise ShapeError(f"{self.utt_id}: mcep must be (n, {MCEP_DIM}), got {self.mcep.shape}")
        if self.lf0.shape != (n,):
            raise ShapeError(f"{self.utt_id}: lf0 length {self.lf0.shape} != n_frames {n}")
        if self.uv.shape != (n,):
            raise ShapeError(f"{self.utt_id}: uv length {self.uv.shape} != n_frames {n}")
        if self.cap.shape != (n, CAP_DIM):
            raise ShapeError(f"{self.utt_id}: cap must be (n, {CAP_DIM}), got {self.cap.shape}")
        for name, arr in (("mcep", self.mcep), ("lf0", self.lf0), ("uv", self.uv), ("cap", self.cap)):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{self.utt_id}: non-finite values in {name}")
        if not np.all((self.uv == 0.0) | (self.uv == 1.0)):
            raise InputError(f"{self.utt_id}: uv values must be exactly 0 or 1")
        if not np.all((self.cap >= CAP_DB_FLOOR) & (self.cap <= 0.0)):
            raise InputError(f"{self.utt_id}: cap values must lie in [{CAP_DB_FLOOR:g}, 0] dB")

    def full_frames(self):
        """(n, 50) float32 matrix in the fixed [mcep | lf0 | uv | cap] layout."""
        return np.concatenate(
            [self.mcep, self.lf0[:, None], self.uv[:, None], self.cap], axis=1
        )

    @classmethod
    def from_full_frames(cls, utt_id, frames):
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 2 or frames.shape[1] != N_DIMS:
            raise ShapeError(f"{utt_id}: full frames must be (n, {N_DIMS}), got {frames.shape}")
        return cls(
            utt_id=utt_id,
            mcep=frames[:, MCEP_SLICE],
            lf0=frames[:, LF0_INDEX],
            uv=frames[:, UV_INDEX],
            cap=frames[:, CAP_SLICE],
        )

    def with_mcep(self, mcep):
        """Copy of this utterance with mcep replaced, prosodic dims untouched."""
        return replace(
            self,
            mcep=np.asarray(mcep, dtype=np.float32),
            lf0=self.lf0.copy(),
            uv=self.uv.copy(),
            cap=self.cap.copy(),
        )


@contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a temp file beside `path` for writing; on a clean exit it replaces
    `path` (os.replace), on an error it is removed. Readers see the old file
    or the whole new one, never a partial write."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_features(feat, path):
    """Write an UtteranceFeatures to the binary feature format."""
    frames = feat.full_frames().astype("<f4")
    header = _HEADER.pack(_MAGIC, _VERSION, feat.n_frames, N_DIMS, FRAME_SHIFT_US, 0)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.tobytes())


def read_features(path, utt_id=None):
    """Read a feature file; `utt_id` defaults to the file's stem."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, n_frames, n_dims, shift_us, reserved = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if n_dims != N_DIMS:
        raise FormatError(f"{path}: n_dims is {n_dims}, expected {N_DIMS}")
    if shift_us != FRAME_SHIFT_US:
        raise FormatError(f"{path}: frame_shift_us is {shift_us}, expected {FRAME_SHIFT_US}")
    if reserved != 0:
        raise FormatError(f"{path}: reserved field is {reserved}, expected 0")
    if n_frames == 0:
        raise FormatError(f"{path}: header declares 0 frames")
    body = raw[_HEADER.size:]
    expect = n_frames * N_DIMS * 4
    if len(body) != expect:
        raise FormatError(
            f"{path}: truncated body, header declares {n_frames} frames "
            f"({expect} bytes) but body has {len(body)} bytes"
        )
    frames = np.frombuffer(body, dtype="<f4").reshape(n_frames, N_DIMS)
    if utt_id is None:
        name = str(path)
        stem = name.rsplit("/", 1)[-1]
        utt_id = stem.rsplit(".", 1)[0] if "." in stem else stem
    return UtteranceFeatures.from_full_frames(utt_id, frames)


@dataclass
class NormStats:
    """Per-dimension mean/std over a feature set; std floored at 1e-6."""

    mean: np.ndarray  # (50,) float64
    std: np.ndarray   # (50,) float64

    def __post_init__(self):
        self.mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        self.std = np.ascontiguousarray(self.std, dtype=np.float64)
        if self.mean.shape != (N_DIMS,) or self.std.shape != (N_DIMS,):
            raise ShapeError(f"norm stats must be ({N_DIMS},) vectors")
        if not np.all(np.isfinite(self.mean)):
            raise InputError("norm mean must be finite")
        if not np.all((self.std > 0) & np.isfinite(self.std)):
            raise InputError("norm std must be positive and finite (flooring missed?)")


def compute_norm_stats(feats):
    """Mean/std over all frames of a feature set, per dimension."""
    if not feats:
        raise InputError("cannot compute norm stats from an empty feature set")
    frames = np.concatenate([f.full_frames() for f in feats], axis=0).astype(np.float64)
    mean = frames.mean(axis=0)
    std = np.maximum(frames.std(axis=0), STD_FLOOR)
    return NormStats(mean=mean, std=std)


def normalize(feat, stats):
    """Normalized (n, 50) float32 full-frame sequence for model input."""
    frames = feat.full_frames().astype(np.float64)
    return ((frames - stats.mean) / stats.std).astype(np.float32)


def denormalize_mcep(mcep_norm, stats):
    """Map normalized mcep rows back to raw mcep using the mcep dims of stats."""
    mcep_norm = np.asarray(mcep_norm, dtype=np.float64)
    if mcep_norm.ndim != 2 or mcep_norm.shape[1] != MCEP_DIM:
        raise ShapeError(f"normalized mcep must be (n, {MCEP_DIM}), got {mcep_norm.shape}")
    raw = mcep_norm * stats.std[MCEP_SLICE] + stats.mean[MCEP_SLICE]
    return raw.astype(np.float32)


def write_manifest(records, path):
    """Write pairing manifest lines: utt_id TAB natural_path TAB synthetic_path."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for utt_id, natural, synthetic in records:
            fh.write(f"{utt_id}\t{natural}\t{synthetic}\n")


def read_manifest(path):
    """Read a pairing manifest; relative paths resolve against the manifest dir."""
    base = os.path.dirname(os.path.abspath(str(path)))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not valid UTF-8") from exc
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        utt_id, natural, synthetic = parts
        if not os.path.isabs(natural):
            natural = os.path.join(base, natural)
        if not os.path.isabs(synthetic):
            synthetic = os.path.join(base, synthetic)
        records.append((utt_id, natural, synthetic))
    return records
