"""Mel-cepstral distortion and the 2-D distance map of feature sets.

MCD between two mel-cepstral frames excludes dim 0 (energy) and scales the
Euclidean distance of the remaining coefficients by 10*sqrt(2)/ln(10), the
conventional dB constant. Set-level MCD averages frame MCD within each
utterance pair, then averages across utterances.

The "MCD plane" embeds a set-versus-set distance matrix into two dimensions
with classical (Torgerson) multidimensional scaling: double-center the
squared distances, take the top two eigenpairs, and scale eigenvectors by
the square roots of their (clamped non-negative) eigenvalues. Column signs
are fixed deterministically so identical inputs yield identical plots.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PairingError, ShapeError
from .features import align_frames, write_atomic

MCD_COEF = 10.0 * np.sqrt(2.0) / np.log(10.0)

# the four feature-set roles, in the order the plane and its reports list them
ROLES = ("natural", "synthetic", "pseudo", "enhanced")


def _mcd_rows(a, b):
    """Per-row MCD in dB between two (n, 45) mel-cepstral matrices."""
    diff = np.asarray(a, dtype=np.float64)[:, 1:] - np.asarray(b, dtype=np.float64)[:, 1:]
    return MCD_COEF * np.sqrt(np.sum(diff * diff, axis=1))


def mcd_utterance(feat_a, feat_b):
    """Frame-mean MCD between two utterances of the same content.

    The frames are aligned with `features.align_frames`: the tail of the
    longer utterance is ignored.
    """
    a, b = align_frames(feat_a.utt_id, feat_a, feat_b)
    return float(np.mean(_mcd_rows(a.mcep, b.mcep)))


def mcd_set(set_a, set_b):
    """Utterance-mean MCD between two feature sets matched by utt_id."""
    a_by_id = {f.utt_id: f for f in set_a}
    b_by_id = {f.utt_id: f for f in set_b}
    if len(a_by_id) != len(set_a) or len(b_by_id) != len(set_b):
        raise PairingError("duplicate utt_ids within a feature set")
    if not a_by_id:
        raise InputError("empty feature set")
    missing = sorted(set(a_by_id) ^ set(b_by_id))
    if missing:
        raise PairingError(f"utt_ids not present in both sets: {', '.join(missing)}")
    per_utt = [mcd_utterance(a_by_id[u], b_by_id[u]) for u in sorted(a_by_id)]
    return float(np.mean(per_utt))


def embed_distances(dist):
    """Classical MDS of a symmetric distance matrix into 2 dimensions.

    Returns (coords (n, 2), stress) where stress is the relative residual
    sqrt(sum (d_hat - d)^2 / sum d^2) over the upper triangle.
    """
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"distance matrix must be square, got {d.shape}")
    n = d.shape[0]
    if n < 2:
        raise InputError("need at least two points to embed")
    if not np.allclose(d, d.T, atol=1e-12):
        raise InputError("distance matrix is not symmetric")
    if np.any(np.abs(np.diag(d)) > 1e-12):
        raise InputError("distance matrix has a non-zero diagonal")
    if np.any(d < 0):
        raise InputError("distance matrix has negative entries")

    center = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * center @ (d * d) @ center
    eigvals, eigvecs = np.linalg.eigh(b)
    top = np.argsort(eigvals)[::-1][:2]
    scale = np.sqrt(np.maximum(eigvals[top], 0.0))
    coords = eigvecs[:, top] * scale

    # deterministic orientation: make the largest-|value| entry of each axis positive
    for axis in range(coords.shape[1]):
        column = coords[:, axis]
        anchor = int(np.argmax(np.abs(column)))
        if column[anchor] < 0:
            coords[:, axis] = -column

    iu = np.triu_indices(n, k=1)
    fitted = np.sqrt(np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2))
    denom = np.sum(d[iu] ** 2)
    stress = 0.0 if denom == 0 else float(np.sqrt(np.sum((fitted[iu] - d[iu]) ** 2) / denom))
    return coords, stress


@dataclass(frozen=True)
class MCDPlaneResult:
    labels: tuple
    distances: np.ndarray  # (n, n) pairwise set MCD in dB
    coords: np.ndarray  # (n, 2) planar embedding
    stress: float


def mcd_plane(**sets):
    """Pairwise set MCDs between feature sets given by role, embedded in 2-D.

    Any subset of the ROLES may be given, at least two; labels follow ROLES.
    """
    unknown = sorted(set(sets) - set(ROLES))
    if unknown:
        raise InputError(f"unknown roles {', '.join(unknown)}; expected {', '.join(ROLES)}")
    labels = tuple(role for role in ROLES if role in sets)
    if len(labels) < 2:
        raise InputError("mcd_plane needs at least two feature sets")
    n = len(labels)
    dist = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = mcd_set(sets[labels[i]], sets[labels[j]])
    coords, stress = embed_distances(dist)
    return MCDPlaneResult(labels=labels, distances=dist, coords=coords, stress=stress)


def write_plane_tsv(result, path):
    """Distance matrix and coordinates as a deterministic TSV report."""
    lines = ["# pairwise set MCD (dB)"]
    lines.append("\t".join(["label", *result.labels]))
    for i, label in enumerate(result.labels):
        row = "\t".join(f"{v:.3f}" for v in result.distances[i])
        lines.append(f"{label}\t{row}")
    lines.append("# planar embedding")
    lines.append("label\tx\ty")
    for label, (x, y) in zip(result.labels, result.coords):
        lines.append(f"{label}\t{x:.3f}\t{y:.3f}")
    lines.append(f"# stress\t{result.stress:.6f}")
    write_atomic(path, "\n".join(lines) + "\n")


_SVG_COLORS = dict(zip(ROLES, ("#1a7f37", "#b35900", "#7b2d8b", "#0b5fa5")))


def write_plane_svg(result, path):
    """Self-contained SVG of the planar embedding with labeled distances."""
    size = 560.0
    margin = 90.0
    xs = result.coords[:, 0]
    ys = result.coords[:, 1]
    span = max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9)
    scale = (size - 2.0 * margin) / span
    cx = (xs.min() + xs.max()) / 2.0
    cy = (ys.min() + ys.max()) / 2.0

    def to_px(x, y):
        return (
            size / 2.0 + (x - cx) * scale,
            size / 2.0 - (y - cy) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:.0f} {size:.0f}" '
        f'width="{size:.0f}" height="{size:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        '<style>text{font-family:sans-serif;font-size:14px;}'
        ".edge{fill:#555;font-size:12px;}</style>",
    ]
    n = len(result.labels)
    for i in range(n):
        for j in range(i + 1, n):
            x1, y1 = to_px(result.coords[i, 0], result.coords[i, 1])
            x2, y2 = to_px(result.coords[j, 0], result.coords[j, 1])
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                'stroke="#bbb" stroke-dasharray="4 3"/>'
            )
            mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
            parts.append(
                f'<text class="edge" x="{mx + 4:.2f}" y="{my - 4:.2f}">'
                f"{result.distances[i, j]:.3f}</text>"
            )
    for label, (x, y) in zip(result.labels, result.coords):
        px, py = to_px(x, y)
        color = _SVG_COLORS[label]
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="7" fill="{color}"/>')
        parts.append(f'<text x="{px + 11:.2f}" y="{py + 5:.2f}">{label}</text>')
    parts.append(
        f'<text x="{margin:.0f}" y="{size - 28:.0f}" class="edge">'
        f"edge labels: set MCD (dB); stress {result.stress:.6f}</text>"
    )
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")
