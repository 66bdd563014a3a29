"""Property tests of the analysis/synthesis codec: `analyze` turns any finite
waveform into features within their coded ranges (or raises the InputError
family), and `synthesize` turns any valid features into a finite waveform of
one hop per frame.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import FUZZ, features_from_parts
from cyclevc import acoustics
from cyclevc.acoustics import F0_CEIL, F0_FLOOR, FS, HOP
from cyclevc.errors import InputError
from cyclevc.features import CAP_DB_FLOOR, CAP_DIM, MCEP_DIM

LENGTHS = st.integers(HOP, 20 * HOP)
LF0_BOUNDS = (np.log(0.9 * F0_FLOOR), np.log(1.1 * F0_CEIL))


def _tones():
    """A tone with harmonics over noise, peaking near 1: exercises the
    voiced-frame path, which arbitrary samples rarely reach."""

    def build(f0, amp, noise, n, seed):
        t = np.arange(n) / FS
        wave = sum(np.cos(2 * np.pi * k * f0 * t) / k for k in range(1, 6))
        rng = np.random.default_rng(seed)
        return amp * wave / 2.3 + noise * rng.standard_normal(n)

    return st.builds(
        build,
        st.floats(0.8 * F0_FLOOR, 1.2 * F0_CEIL),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
        LENGTHS,
        st.integers(0, 2**16),
    )


def _samples(elements):
    return LENGTHS.flatmap(lambda n: arrays(np.float64, n, elements=elements))


def _check_features(feat, n_samples):
    assert feat.n_frames == n_samples // HOP + 1
    assert np.all(np.isfinite(feat.full_frames()))
    assert np.all((feat.cap >= CAP_DB_FLOOR) & (feat.cap <= 0.0))
    assert set(np.unique(feat.uv)) <= {0.0, 1.0}
    f0 = np.exp(feat.lf0.astype(np.float64))
    # float32 lf0 rounds by at most one ulp at the bounds
    assert np.all((f0 >= 0.9 * F0_FLOOR * (1 - 1e-6)) & (f0 <= 1.1 * F0_CEIL * (1 + 1e-6)))


@FUZZ
@given(
    x=st.one_of(
        _samples(st.floats(-1.0, 1.0)),
        _tones().map(lambda x: np.clip(x, -1.0, 1.0)),
    )
)
def test_analyze_maps_waveforms_in_range_to_coded_features(x):
    _check_features(acoustics.analyze(x, FS), len(x))


@FUZZ
@given(
    x=st.one_of(
        _samples(st.floats(allow_nan=False, allow_infinity=False)),
        st.builds(
            np.multiply,
            _tones(),
            st.sampled_from([1e-300, 1e-12, 1e6, 1e150, 1e160, 1e300]),
        ),
    )
)
def test_analyze_of_any_finite_waveform_gives_features_or_input_error(x):
    try:
        feat = acoustics.analyze(x, FS)
    except InputError:
        return
    _check_features(feat, len(x))


def _valid_features(n):
    frame_arrays = dict(
        c0=arrays(np.float64, n, elements=st.floats(-20.0, 0.0)),
        rest=arrays(np.float64, (n, MCEP_DIM - 1), elements=st.floats(-4.0, 4.0)),
        lf0=arrays(np.float64, n, elements=st.floats(*LF0_BOUNDS)),
        uv=arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])),
        cap=arrays(np.float64, (n, CAP_DIM), elements=st.floats(CAP_DB_FLOOR, 0.0)),
    )
    return st.fixed_dictionaries(frame_arrays).map(
        lambda a: features_from_parts(
            "p", np.column_stack([a["c0"], a["rest"]]), a["lf0"], a["uv"], a["cap"]
        )
    )


@FUZZ
@given(feat=st.integers(1, 20).flatmap(_valid_features))
def test_synthesize_of_valid_features_is_finite_with_one_hop_per_frame(feat):
    wave = acoustics.synthesize(feat, FS)
    assert wave.shape == (feat.n_frames * HOP,)
    assert np.all(np.isfinite(wave))
