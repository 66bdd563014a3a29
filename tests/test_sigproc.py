"""Oracles for the signal-processing primitives, which live in `cyclevc.acoustics`."""

import numpy as np
import pytest

from conftest import probe_amplitudes
from cyclevc.acoustics import (
    FS,
    MCEP_ALPHA,
    NODE_FREQ_HZ,
    box_smooth,
    envelope_matrix,
    grid_cepstrum,
    hann_periodic,
    pulse_positions,
    warp_frequency,
    yin_periods,
)


# ----- frequency warp -------------------------------------------------------


def test_warp_fixes_zero_and_pi():
    for alpha in (-0.5, 0.0, 0.466):
        assert warp_frequency(0.0, alpha) == pytest.approx(0.0, abs=1e-15)
        assert warp_frequency(np.pi, alpha) == pytest.approx(np.pi, abs=1e-12)


def test_warp_at_half_pi_matches_closed_form():
    # at omega = pi/2 the warp adds exactly 2*arctan(alpha)
    alpha = 0.466
    expected = np.pi / 2 + 2.0 * np.arctan(alpha)
    assert warp_frequency(np.pi / 2, alpha) == pytest.approx(expected, rel=1e-12)


def test_warp_is_monotone_on_the_unit_interval():
    omega = np.linspace(0.0, np.pi, 2001)
    warped = warp_frequency(omega, 0.466)
    assert np.all(np.diff(warped) > 0)


def test_negated_alpha_inverts_the_warp():
    omega = np.linspace(0.0, np.pi, 101)
    back = warp_frequency(warp_frequency(omega, 0.466), -0.466)
    assert np.allclose(back, omega, atol=1e-12)


# ----- warped-cepstrum codec -------------------------------------------------


def _cepstrum(freqs_hz, log_env):
    """Cepstrum of a log envelope sampled at sorted freqs_hz, interpolated
    onto the codec's grid as the analyzer does."""
    return grid_cepstrum(np.interp(NODE_FREQ_HZ, freqs_hz, log_env))


def test_constant_envelope_yields_dc_only_cepstrum():
    freqs = np.linspace(0.0, FS / 2.0, 300)
    cep = _cepstrum(freqs, np.full(300, 1.7))
    assert cep[0] == pytest.approx(1.7, abs=1e-12)
    assert np.max(np.abs(cep[1:])) < 1e-12


def test_cosine_envelope_coefficients_are_recovered():
    # envelope built from the codec's own basis must come back as its
    # coefficients; reconstruction doubles the k >= 1 cosines, so an envelope
    # term a*cos(k w~) corresponds to coefficient a/2
    freqs = np.linspace(0.0, FS / 2.0, 6000)
    omega_warped = warp_frequency(2.0 * np.pi * freqs / FS, MCEP_ALPHA)
    log_env = 0.3 + 0.8 * np.cos(omega_warped) - 0.25 * np.cos(5.0 * omega_warped)
    cep = _cepstrum(freqs, log_env)
    expected = np.zeros(45)
    expected[0] = 0.3
    expected[1] = 0.4
    expected[5] = -0.125
    assert np.allclose(cep, expected, atol=1e-4)


def test_grid_envelope_round_trips_a_truncated_cepstrum(rng):
    cep = rng.normal(0.0, 0.3, size=45)
    back = grid_cepstrum(cep @ envelope_matrix(NODE_FREQ_HZ))
    assert np.allclose(back, cep, atol=1e-10)


# ----- windows ----------------------------------------------------------------


def test_periodic_hann_overlap_adds_to_a_constant():
    n, hop = 480, 120
    win = hann_periodic(n)
    assert len(win) == n
    assert win[0] == pytest.approx(0.0, abs=1e-15)
    total = np.zeros(n * 4)
    for start in range(0, len(total) - n + 1, hop):
        total[start : start + n] += win
    interior = total[n : len(total) - n]
    assert np.allclose(interior, 2.0, atol=1e-12)


# ----- pulse trains ------------------------------------------------------------


def test_pulse_train_at_a_fixed_rate_starts_half_a_period_in():
    # 375 Hz is FS / 64, so every phase increment and sum is exact
    assert np.array_equal(pulse_positions(np.full(640, 375.0)), np.arange(31, 640, 64))


def test_pulse_train_gaps_follow_the_rate_on_each_side_of_a_switch():
    # FS / 375 = 64 and FS / 750 = 32 samples per period; the phase carries
    # over the switch at sample 320, half a slow period past the pulse at 287
    f0 = np.r_[np.full(320, 375.0), np.full(320, 750.0)]
    hits = pulse_positions(f0)
    assert np.array_equal(np.diff(hits[hits < 320]), np.full(4, 64))
    assert np.array_equal(np.diff(hits[hits >= 320]), np.full(9, 32))
    assert np.array_equal(hits, np.r_[31:320:64, 335:640:32])


# ----- period estimation -------------------------------------------------------


def _yin_one_row(x):
    f0, dip = yin_periods(x[None, :])
    return f0[0], dip[0]


def test_yin_recovers_a_pure_tone_period():
    t = np.arange(2000) / FS
    x = 0.4 * np.sin(2.0 * np.pi * 220.0 * t)
    f0, dip = _yin_one_row(x)
    assert f0 == pytest.approx(220.0, rel=5e-3)
    assert dip < 0.05


def test_yin_recovers_a_low_pitch_near_the_search_floor():
    t = np.arange(2000) / FS
    x = 0.4 * np.sin(2.0 * np.pi * 70.0 * t)
    f0, dip = _yin_one_row(x)
    assert f0 == pytest.approx(70.0, rel=1e-2)
    assert dip < 0.1


def test_yin_reports_no_periodicity_for_silence():
    f0, dip = _yin_one_row(np.zeros(2000))
    assert f0 == 0.0
    assert dip == 1.0


def test_yin_gives_a_weak_dip_on_white_noise(rng):
    x = rng.standard_normal(2000)
    _, dip = _yin_one_row(x)
    assert dip > 0.3


# ----- sinusoid probes ---------------------------------------------------------


def test_probe_recovers_component_amplitudes(rng):
    n = 960
    t = np.arange(n) / FS
    x = 0.7 * np.cos(2.0 * np.pi * 300.0 * t + 0.3) + 0.2 * np.cos(
        2.0 * np.pi * 1000.0 * t - 1.1
    )
    window = np.hanning(n)
    amps = probe_amplitudes(x, window, [300.0, 1000.0], FS)
    assert amps[0] == pytest.approx(0.7, rel=0.01)
    assert amps[1] == pytest.approx(0.2, rel=0.01)


def test_probe_of_empty_frequency_list_is_empty():
    assert probe_amplitudes(np.zeros(16), np.ones(16), [], FS).shape == (0,)


# ----- box smoothing -----------------------------------------------------------


def test_box_smooth_matches_direct_averaging(rng):
    v = rng.normal(size=23)
    for half in (0, 1, 2, 5):
        got = box_smooth(v, half)
        expected = np.array(
            [
                v[max(i - half, 0) : min(i + half + 1, len(v))].mean()
                for i in range(len(v))
            ]
        )
        assert np.allclose(got, expected, atol=1e-12)
