"""Joint training of the two converters on paired utterances.

Pairing enforces the frame-alignment contract (natural and synthetic
renditions of the same utterance may differ by at most two frames and are
trimmed to the shorter), normalization statistics are computed per domain
over the training material, and optimization is Adam with one utterance
per step. The cycle term's tiny weight would starve the target-to-source
converter under plain gradient descent; Adam's per-parameter step
normalization is what lets both converters learn from it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PairingError, TrainingError, check
from .features import (
    UtteranceFeatures,
    align_frames,
    compute_norm_stats,
    normalize,
    read_features,
    read_manifest,
    write_atomic,
)
from .model import (
    RHO_DEFAULT,
    CycleVCModel,
    LossBreakdown,
    ModelArch,
    loss_gradients,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    rho: float = RHO_DEFAULT
    learning_rate: float = 1e-4
    seed: int = 7
    teacher_forcing: bool = False
    arch: ModelArch = field(default_factory=ModelArch)

    def __post_init__(self):
        check("epochs", self.epochs, int, ">= 1", lambda v: v >= 1)
        check("rho", self.rho, float, "non-negative and finite", lambda v: 0 <= v < math.inf)
        check("learning_rate", self.learning_rate, float, "finite and > 0", lambda v: 0 < v < math.inf)
        check("seed", self.seed, int, "a non-negative integer", lambda v: v >= 0)
        check("teacher_forcing", self.teacher_forcing, bool, "a bool")
        check("arch", self.arch, ModelArch, "a ModelArch")


@dataclass(frozen=True)
class PairedUtterance:
    """Frame-aligned natural (target) and synthetic (source) features."""

    utt_id: str
    source: UtteranceFeatures
    target: UtteranceFeatures
    trimmed_frames: int = 0


def pair_features(utt_id, source, target):
    """Pair one utterance's synthetic source and natural target, aligned by
    `features.align_frames`."""
    trimmed = abs(source.n_frames - target.n_frames)
    source, target = align_frames(utt_id, source, target)
    return PairedUtterance(utt_id, source, target, trimmed_frames=trimmed)


def pair_dataset(manifest_path):
    """Load a manifest of (utt_id, natural, synthetic) feature files.

    Natural features are the conversion target, synthetic ones the source.
    """
    records = read_manifest(manifest_path)
    if not records:
        raise InputError(f"manifest {manifest_path} lists no utterances")
    pairs = []
    for utt_id, natural_path, synthetic_path in records:
        target = read_features(natural_path, utt_id=utt_id)
        source = read_features(synthetic_path, utt_id=utt_id)
        pairs.append(pair_features(utt_id, source, target))
    return pairs


def pairing_report(pairs):
    """One line per trimmed pair, naming the utterance and the trim size."""
    return [
        f"{p.utt_id}: trimmed {p.trimmed_frames} frame(s) to align "
        f"at {p.source.n_frames} frames"
        for p in pairs
        if p.trimmed_frames
    ]


class AdamOptimizer:
    """Adam with per-parameter state.

    EPS sits far below the usual 1e-8: the reverse converter's gradients are
    scaled by the tiny cycle weight, and an eps at or above their RMS would
    cancel the step normalization that makes that term trainable at all.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-16

    def __init__(self, params, learning_rate):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.step_count += 1
        correction1 = 1.0 - self.BETA1**self.step_count
        correction2 = 1.0 - self.BETA2**self.step_count
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.BETA1) * (g - m)
            v += (1.0 - self.BETA2) * (g * g - v)
            m_hat = m / correction1
            v_hat = v / correction2
            p -= (self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)).astype(p.dtype, copy=False)


def _keep_freed_heap_mapped():
    """Allocate and free one 30 MiB block, without touching it.

    A training step allocates and frees some 20-40 MB of arrays. glibc's
    malloc returns the free top of its heap to the system once it exceeds
    the trim threshold, twice the largest block unmapped so far: about
    6 MB after a step's 3 MB blocks. Then a step can give its pages back
    and fault them in again one by one: 3,600-9,000 minor faults per step
    at 519 frames, about 3 us each on a 2-vCPU x86-64 machine, against
    under 50 with the block below. Freeing one block of 30 MiB, under
    glibc's 32 MiB cap, raises the trim threshold to 60 MiB (the dynamic
    M_MMAP_THRESHOLD of mallopt(3)), so the freed pages stay mapped for
    the next step. Under another allocator this is one short-lived
    allocation."""
    np.empty(30 << 20, dtype=np.uint8)


def train(pairs, config=None):
    """Train both converters jointly; returns (model, per-epoch loss curve).

    Deterministic given pairs and config: parameter init and the per-epoch
    shuffle derive from config.seed, and utterances start in sorted order.

    Under glibc this changes malloc for the rest of the process: after
    `_keep_freed_heap_mapped`, allocations up to 30 MiB come from the heap
    instead of their own mappings, and up to 60 MiB of freed heap stays
    resident instead of going back to the system.
    """
    config = config or TrainConfig()
    if not pairs:
        raise InputError("training set is empty")
    ids = [p.utt_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise PairingError("duplicate utt_ids in training set")

    norm_src = compute_norm_stats([p.source for p in pairs])
    norm_tgt = compute_norm_stats([p.target for p in pairs])

    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    model = CycleVCModel.init(config.arch, norm_src, norm_tgt, seed=init_ss)
    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_ss))

    by_id = {p.utt_id: p for p in pairs}
    order = sorted(by_id)
    x_norm = {u: normalize(by_id[u].source, norm_src) for u in order}
    y_norm = {u: normalize(by_id[u].target, norm_tgt) for u in order}

    optimizer = AdamOptimizer(model.params, config.learning_rate)
    _keep_freed_heap_mapped()
    curve = []
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(len(order))
        stot_sum = 0.0
        cycle_sum = 0.0
        for idx in perm:
            utt = order[idx]
            breakdown, grads = loss_gradients(
                model,
                x_norm[utt],
                y_norm[utt],
                rho=config.rho,
                teacher_forcing=config.teacher_forcing,
            )
            if not np.isfinite(breakdown.total):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, utterance {utt!r}"
                )
            optimizer.step(model.params, grads)
            del grads  # not held through the next step's peak
            stot_sum += breakdown.stot_l1
            cycle_sum += breakdown.cycle_l1
        for name, p in model.params.items():
            if not np.all(np.isfinite(p)):
                raise TrainingError(
                    f"non-finite values in parameter {name!r} after epoch {epoch}"
                )
        curve.append(
            LossBreakdown(
                stot_l1=stot_sum / len(order),
                cycle_l1=cycle_sum / len(order),
                rho=config.rho,
            )
        )
    return model, curve


def write_loss_curve(curve, path):
    """Per-epoch loss terms as TSV (epoch, stot_l1, cycle_l1, total)."""
    lines = ["epoch\tstot_l1\tcycle_l1\ttotal"]
    for epoch, breakdown in enumerate(curve, 1):
        lines.append(
            f"{epoch}\t{breakdown.stot_l1:.9g}\t{breakdown.cycle_l1:.9g}\t{breakdown.total:.9g}"
        )
    write_atomic(path, "\n".join(lines) + "\n")
