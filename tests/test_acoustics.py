"""Analyzer/synthesizer oracles: silence, tones, round trips, determinism."""

import numpy as np
import pytest

from conftest import make_features, probe_amplitudes
from cyclevc.acoustics import FS, HOP, NYQUIST, _probe, analyze, synthesize
from cyclevc.errors import ConfigError, InputError, ShapeError
from cyclevc.evaluation import _mcd_rows


def _sawtooth(freq, seconds, amp=0.3):
    t = np.arange(int(seconds * FS)) / FS
    phase = (t * freq) % 1.0
    return amp * (2.0 * phase - 1.0)


# ----- analysis ---------------------------------------------------------------


def test_frame_count_is_floor_div_plus_one(rng):
    # 63, 64, 127 and 128 HOPs give 64, 65, 128 and 129 frames: a last block
    # of BLOCK_FRAMES, 1, BLOCK_FRAMES and 1 frames
    lengths = (HOP, HOP + 1, 2 * HOP - 1, 2 * HOP, 4801, 63 * HOP, 64 * HOP, 127 * HOP, 128 * HOP + 7)
    for n_samples in lengths:
        x = 0.01 * rng.standard_normal(n_samples)
        feat = analyze(x, FS)
        assert feat.n_frames == n_samples // HOP + 1


def test_silence_is_unvoiced_with_fallback_pitch():
    feat = analyze(np.zeros(FS), FS, utt_id="sil")
    assert feat.n_frames == FS // HOP + 1
    assert np.all(feat.uv == 0.0)
    assert np.allclose(feat.lf0, np.log(120.0), atol=1e-6)
    # flat (floored) envelope: all cepstral detail beyond the gain term is ~0
    assert np.max(np.abs(feat.mcep[:, 1:])) < 1e-3
    # unvoiced frames are marked fully aperiodic (0 dB)
    assert np.all(feat.cap == 0.0)


def test_sawtooth_pitch_is_tracked():
    feat = analyze(_sawtooth(100.0, 1.0), FS)
    interior = slice(10, feat.n_frames - 10)
    assert np.all(feat.uv[interior] == 1.0)
    f0 = np.exp(feat.lf0[feat.uv > 0.5])
    assert np.all(np.abs(f0 - 100.0) < 3.0)


def test_analysis_rejects_wrong_sample_rate():
    with pytest.raises(ConfigError, match="unsupported fs"):
        analyze(np.zeros(FS), 16000)


def test_analysis_rejects_degenerate_waveforms():
    with pytest.raises(InputError, match="empty"):
        analyze(np.zeros(0), FS)
    with pytest.raises(InputError, match="shorter than one frame"):
        analyze(np.zeros(HOP - 1), FS)
    bad = np.zeros(FS)
    bad[100] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        analyze(bad, FS)


@pytest.mark.parametrize("shape", [(2, FS // 5), (FS // 5, 2)])
def test_analysis_rejects_a_waveform_that_is_not_mono(shape):
    # flattened, a stereo pair would be analysed as interleaved mono samples
    with pytest.raises(ShapeError, match="expected mono waveform"):
        analyze(np.zeros(shape), FS)


def test_analysis_takes_loud_waveforms_up_to_the_peak_limit():
    tone = _sawtooth(100.0, 0.2, amp=1.0)  # peak exactly 1
    feat = analyze(1e150 * tone, FS)
    assert np.all(np.isfinite(feat.full_frames()))
    with pytest.raises(InputError, match=r"peak 1e\+152"):
        analyze(1e152 * tone, FS)


def test_internal_probe_matches_reference_dft(rng):
    # three windows of different lengths, zero-padded to the longest, as rows of one call
    cases = [(60.0, 1601), (137.0, 801), (400.0, 201)]
    f0 = np.array([f for f, _ in cases])
    counts = [int((FS / 2 - 0.6 * f) // f) for f, _ in cases]
    segs = [rng.standard_normal(w_len) for _, w_len in cases]
    wins = [np.hanning(w_len) for _, w_len in cases]
    wx = np.zeros((len(cases), 1601))
    for row, seg, win in zip(wx, segs, wins):
        row[: len(win)] = seg * win
    harmonic, interharmonic = _probe(wx, f0, max(counts))
    for i, (seg, win, count) in enumerate(zip(segs, wins, counts)):
        gain = 2.0 / win.sum()
        k = np.arange(1, count + 1)
        via_dft = probe_amplitudes(seg, win, k * f0[i], FS)
        assert np.allclose(harmonic[i, :count] * gain, via_dft, rtol=1e-9, atol=1e-12)
        via_dft = probe_amplitudes(seg, win, (k - 0.5) * f0[i], FS)
        assert np.allclose(interharmonic[i, :count] * gain, via_dft, rtol=1e-9, atol=1e-12)


# ----- synthesis ----------------------------------------------------------------


def test_synthesis_length_is_frames_times_hop():
    for n in (1, 7, 50):
        feat = make_features("len", n)
        assert len(synthesize(feat, FS)) == n * HOP


def test_synthesis_rejects_wrong_sample_rate():
    with pytest.raises(ConfigError, match="unsupported fs"):
        synthesize(make_features("fs", 5), 48000)


def test_synthesis_is_deterministic():
    feat = make_features("det", 40)
    a = synthesize(feat, FS)
    b = synthesize(feat, FS)
    assert a.tobytes() == b.tobytes()


def test_log_f0_past_the_exp_overflow_renders_as_the_f0_ceiling():
    # np.exp overflows above ~709; every f0 from 0.9 * NYQUIST up renders
    # at that ceiling, so lf0 = 800 must render as lf0 = log(NYQUIST)
    feat = make_features("lf0", 30)
    feat.lf0[10:20] = 800.0
    capped = make_features("lf0", 30)
    capped.lf0[10:20] = np.log(NYQUIST)
    y = synthesize(feat, FS)
    assert np.all(np.isfinite(y))
    assert np.array_equal(y, synthesize(capped, FS))


def test_unvoiced_flat_envelope_synthesizes_aperiodic_noise():
    n = 400
    feat = make_features("noise", n, voiced=False)
    feat.mcep[:] = 0.0
    feat.mcep[:, 0] = np.log(0.05)
    feat.lf0[:] = np.log(120.0)
    feat.cap[:] = 0.0
    y = synthesize(feat, FS)
    assert np.all(np.isfinite(y))
    core = y[2000:-2000]
    ac = np.correlate(core, core, "full")[len(core) - 1 :]
    peak = np.max(np.abs(ac[60:401])) / ac[0]
    assert peak < 0.2


def test_aperiodicity_controls_pulse_to_noise_balance():
    def reanalyzed_cap0(cap_db):
        feat = make_features("capmix", 160)
        feat.mcep[:] = 0.0
        feat.mcep[:, 0] = np.log(0.05)
        feat.lf0[:] = np.log(150.0)
        feat.uv[:] = 1.0
        feat.cap[:] = cap_db
        back = analyze(synthesize(feat, FS), FS)
        voiced = back.uv > 0.5
        assert voiced.mean() > 0.5
        return float(back.cap[voiced, 0].mean())

    periodic = reanalyzed_cap0(-60.0)
    mixed = reanalyzed_cap0(-10.0)
    assert periodic < -15.0
    assert mixed > periodic + 5.0


def test_pulse_train_round_trip_keeps_pitch():
    feat = make_features("pitch", 200)
    feat.mcep[:] = 0.0
    feat.mcep[:, 0] = np.log(0.05)
    feat.lf0[:] = np.log(150.0)
    feat.uv[:] = 1.0
    feat.cap[:] = -60.0
    back = analyze(synthesize(feat, FS), FS)
    voiced = back.uv > 0.5
    assert voiced.mean() > 0.8
    # interior only: windows at the edges hang off the signal and may octave-drop
    interior = voiced.copy()
    interior[:5] = False
    interior[-5:] = False
    f0 = np.exp(back.lf0[interior])
    assert np.all(np.abs(f0 - 150.0) < 5.0)


def test_resynthesis_round_trip_keeps_the_envelope_close(tmp_path):
    # one-utterance preview of the full corpus criterion: analyze ->
    # synthesize -> analyze, compare mel-cepstra on commonly voiced frames
    from cyclevc.fixture import make_corpus
    from cyclevc.wavio import read_wav

    path = make_corpus(tmp_path, n_utterances=1, seed=20240917)[0]
    wav, _ = read_wav(path)
    first = analyze(wav, FS)
    second = analyze(synthesize(first, FS), FS)
    # resynthesis pads to a whole number of frames, which can add one frame
    m = min(first.n_frames, second.n_frames)
    both = (first.uv[:m] > 0.5) & (second.uv[:m] > 0.5)
    assert both.sum() >= 20
    dists = _mcd_rows(first.mcep[:m][both], second.mcep[:m][both])
    assert float(np.mean(dists)) < 1.5
