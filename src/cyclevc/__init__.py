"""Cycle voice-conversion post-filter toolkit.

Trains a source-to-target spectral converter jointly with its reverse,
uses the reverse-then-forward self-conversion cycle to make temporally
matched vocoder-training features, enhances synthetic features at test
time, and evaluates everything with mel-cepstral distortion maps.

The names below are the Python API the README documents; everything else
is reached through its module (`cyclevc.features`, `cyclevc.model`, ...).
"""

from .acoustics import analyze
from .degrade import simulate_tts
from .model import load_checkpoint
from .pipeline import enhance, generate_pseudo, run_end_to_end
from .training import TrainConfig
from .wavio import read_wav

__version__ = "0.1.0"
