"""CR orbits: Lie hulls, flow-pushforward spans and minimality certificates.

Two independent estimates of the orbit tangent at a point are provided: the
Lie hull (iterated brackets of the frame, evaluated at the point) and the
span of complex-tangent spaces pushed forward by composed-flow
differentials.  The pushforward construction doubles as a certificate of
global minimality: a finite word collection whose pushed spans cover the
full tangent space, reproducible from the recorded seed.  Failure to find a
certificate is reported as such and is never a proof of non-minimality.

Words are integrated in batches (:func:`~crorbit.flow.composed_flows`), with
the bits of one word at a time: :func:`pushforward_span`,
:func:`reachable_samples` and :func:`verify_certificate` make one batched
call each, and the span and the re-check raise the first failure in word
order.  The certificate search evaluates its pool in chunks of 1, 2, 4, ...,
``MAX_BATCH`` words, still stops at the first word whose span reaches
``TAU_CERT``, and discards the chunk's words past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crmanifold import EmbeddedManifold, complex_tangent_space, tangent_space
from .flow import (
    DRIFT_BOUND, MAX_BATCH, FlowError, FlowResult, FlowWord, IntegratorConfig, composed_flows,
)
from .linalg import SubspaceBasis, _svd_rank
from .vectorfield import VectorFieldSpec, lie_bracket_field
from .expr import Const

__all__ = [
    "LieHullResult",
    "PushforwardSpan",
    "Certificate",
    "MinimalityReport",
    "SampleCloud",
    "lie_hull",
    "pushforward_span",
    "global_minimality_certificate",
    "verify_certificate",
    "reachable_samples",
    "random_words",
    "span_words",
    "write_cloud_csv",
]

# randomized word search: lengths in [1, cap], times in [-T, T]
WORD_LENGTH_CAP = 4
TIME_RANGE = 0.5
# smallest singular value a certificate's span must reach
TAU_CERT = 1e-3
# orbit-dimension word sample: the empty word plus up to SPAN_WORDS short words
SPAN_WORDS = 8
# Lie hull: the frame's span, then bracket sweeps up to this total depth
LIE_HULL_MAX_DEPTH = 6

FRAME_SUBFAMILY_NOTE = (
    "orbit evidence is generated from composed flows of the supplied frame; "
    "general piecewise-C1 complex-tangent sections are not searched"
)


@dataclass
class LieHullResult:
    base_point: np.ndarray
    depth_reached: int
    basis: SubspaceBasis
    dimension: int
    stabilized: bool


@dataclass
class PushforwardSpan:
    base_point: np.ndarray
    contributions: list[tuple[FlowWord, np.ndarray]]  # (word, source point)
    span: SubspaceBasis
    singular_values: np.ndarray
    dimension: int
    max_tangent_residual: float


@dataclass
class Certificate:
    words: tuple[FlowWord, ...]
    sources: tuple[np.ndarray, ...]  # one per word: where the word starts
    smallest_singular_value: float
    span_dimension: int
    tau: float
    seed: int
    singular_values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "tau": self.tau,
            "smallest_singular_value": self.smallest_singular_value,
            "singular_values": list(self.singular_values),
            "span_dimension": self.span_dimension,
            "words": [[list(step) for step in w.steps] for w in self.words],
        }


@dataclass
class MinimalityReport:
    certificate: Certificate | None = None
    best_span: PushforwardSpan | None = None
    budget_exhausted: bool = False
    note: str = FRAME_SUBFAMILY_NOTE


def _is_zero_field(f: VectorFieldSpec) -> bool:
    return all(isinstance(c, Const) and c.value == 0.0 for c in f.coefficients)


def lie_hull(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: Sequence[float],
) -> LieHullResult:
    """Span at z of the frame and its iterated brackets (frame x accumulated).

    Bracket fields are built symbolically, so deeper brackets reuse exact
    derivative trees.  Iteration stops when a sweep adds no dimension, when
    the hull reaches dim M (it cannot grow past the tangent space), or at
    depth ``LIE_HULL_MAX_DEPTH``.
    """
    z = np.asarray(z, dtype=float)
    cols = [f.values(z) for f in frame]
    span = SubspaceBasis.from_spanning(np.column_stack(cols))
    level = [f for f in frame if not _is_zero_field(f)]
    seen = set(frame)
    depth = contributing_depth = 1
    stabilized = span.dim >= m.dim
    while depth < LIE_HULL_MAX_DEPTH and not stabilized:
        new_level = []
        for x_field in frame:
            for g in level:
                br = lie_bracket_field(x_field, g)
                if _is_zero_field(br) or br in seen:
                    continue
                seen.add(br)
                new_level.append(br)
                cols.append(br.values(z))
        depth += 1
        new_span = SubspaceBasis.from_spanning(np.column_stack(cols))
        if new_span.dim > span.dim:
            contributing_depth = depth
        stabilized = new_span.dim == span.dim or not new_level
        span = new_span
        level = new_level
        if span.dim >= m.dim:
            stabilized = True
    depth_reached = contributing_depth if stabilized else depth
    return LieHullResult(z, depth_reached, span, span.dim, stabilized)


def _word_columns(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: np.ndarray,
    words: Sequence[FlowWord],
    cfg: IntegratorConfig,
) -> list[tuple[np.ndarray, np.ndarray] | FlowError]:
    """(source point, unit-norm pushed T^c columns at z) for each word, or its failure.

    One integration per word, all in one batch: the inverse word runs
    backward from z to the source.  By the flow group law ``D(word)(source)``
    is the inverse of ``D(word^-1)(z)``, so ``T^c_source`` is pushed forward
    by solving with the backward differential instead of integrating the
    word again.
    """
    backs = composed_flows(frame, [w.inverse() for w in words], [z] * len(words), cfg, m)
    return [_pushed_columns(m, word, back) for word, back in zip(words, backs)]


def _pushed_columns(
    m: EmbeddedManifold, word: FlowWord, back: FlowResult | FlowError
) -> tuple[np.ndarray, np.ndarray] | FlowError:
    """The columns ``word`` pushes, from its backward flow ``back``, or why there are none."""
    if isinstance(back, FlowError):
        return back
    if back.drift_exceeded:
        return FlowError(
            f"backward word left the manifold: drift {back.drift:.3e} > {DRIFT_BOUND:.1e}"
        )
    source = back.endpoint
    try:
        pushed = np.linalg.solve(back.differential, complex_tangent_space(m, source).basis)
    except np.linalg.LinAlgError:
        return FlowError(f"word {list(word.steps)} has a singular backward differential")
    return source, pushed / np.linalg.norm(pushed, axis=0)


def _assemble_span(
    m: EmbeddedManifold,
    z: np.ndarray,
    tangent: SubspaceBasis,
    evaluated: Sequence[tuple[FlowWord, np.ndarray, np.ndarray]],
) -> PushforwardSpan:
    """Span of already-evaluated ``(word, source, pushed columns)`` triples.

    Singular values are taken in the orthonormal basis ``tangent`` of T_zM;
    the tangent residual of every pushed column is recorded.
    """
    contributions = [(word, source) for word, source, _ in evaluated]
    all_cols = [cols for _, _, cols in evaluated]
    max_resid = 0.0
    for cols in all_cols:
        for k in range(cols.shape[1]):
            max_resid = max(max_resid, tangent.residual(cols[:, k]))
    stacked = np.hstack(all_cols) if all_cols else np.zeros((m.ambient_dim, 0))
    coords = tangent.basis.T @ stacked
    sv = np.linalg.svd(coords, compute_uv=False) if coords.size else np.zeros(0)
    dim = int(_svd_rank(sv))
    span = SubspaceBasis.from_spanning(stacked) if all_cols else SubspaceBasis(
        m.ambient_dim, np.zeros((m.ambient_dim, 0))
    )
    return PushforwardSpan(z, contributions, span, sv, dim, max_resid)


def pushforward_span(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: Sequence[float],
    words: Sequence[FlowWord],
    cfg: IntegratorConfig,
) -> PushforwardSpan:
    """Span of flow-pushforwards of the complex-tangent distribution into T_zM.

    Each word is run backward from z to find its source, and the complex
    tangent space there is pushed forward by the word's differential: the
    inverse of the backward differential (flow group law), so each word is
    integrated once.  All unit-normalized images are assembled; singular
    values are taken in an orthonormal basis of T_zM.
    """
    z = np.asarray(z, dtype=float)
    tangent = tangent_space(m, z)
    words = list(words)
    evaluated = []
    for word, columns in zip(words, _word_columns(m, frame, z, words, cfg)):
        if isinstance(columns, FlowError):
            raise columns  # the first failure in word order
        evaluated.append((word, *columns))
    return _assemble_span(m, z, tangent, evaluated)


def random_words(
    rng: np.random.Generator,
    count: int,
    frame_size: int,
    length_cap: int,
    time_range: float,
) -> list[FlowWord]:
    """Seeded word sample: length ~ U[1, cap], index ~ U[1, r], t ~ U[-T, T]."""
    words = []
    for _ in range(count):
        length = int(rng.integers(1, length_cap + 1))
        steps = tuple(
            (int(rng.integers(1, frame_size + 1)), float(rng.uniform(-time_range, time_range)))
            for _ in range(length)
        )
        words.append(FlowWord(steps))
    return words


def span_words(frame_size: int, seed: int, count: int = SPAN_WORDS) -> list[FlowWord]:
    """The orbit-dimension word sample: the empty word and ``count`` seeded words.

    Lengths are at most 3 and times lie in [-0.4, 0.4]; :func:`pushforward_span`
    over these words estimates the orbit dimension at the base point.
    """
    rng = np.random.default_rng(seed)
    return [FlowWord.empty()] + random_words(rng, count, frame_size, 3, 0.4)


def _sigma_min(a: np.ndarray, dim: int) -> float:
    if a.shape[1] < dim:
        return 0.0
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[dim - 1])


def _greedy_select(
    col_sets: list[np.ndarray],
    words: list[FlowWord],
    dim: int,
    tau: float,
) -> tuple[list[int], float]:
    """Forward-greedy word selection by marginal smallest-singular-value gain.

    Ties break towards shorter words, then lower pool index; selection stops
    as soon as the assembled span clears ``tau``.  Adding columns never lowers
    the smallest singular value, so a pool that clears ``tau`` yields a
    selection that clears it too, even through steps that gain nothing.
    """
    remaining = list(range(len(words)))
    selected: list[int] = []
    chosen_cols: list[np.ndarray] = []
    current = 0.0
    while remaining:
        best = None
        for idx in remaining:
            sig = _sigma_min(np.hstack(chosen_cols + [col_sets[idx]]), dim)
            key = (-sig, len(words[idx]), idx)
            if best is None or key < best[0]:
                best = (key, idx, sig)
        _, idx, sig = best
        selected.append(idx)
        chosen_cols.append(col_sets[idx])
        remaining.remove(idx)
        current = sig
        if current >= tau:
            break
    return selected, current


def global_minimality_certificate(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: Sequence[float],
    budget: int,
    seed: int,
    cfg: IntegratorConfig,
) -> MinimalityReport:
    """Search composed-flow words whose pushed spans cover T_zM.

    The word pool starts with the empty word and grows by ``budget`` random
    words drawn from ``seed``.  Success requires the smallest singular value
    of the assembled span to reach :data:`TAU_CERT`; the returned certificate
    is the greedy-pruned minimal subcollection.  On failure the best span
    reached is reported; this is explicitly not a proof of non-minimality.
    """
    z = np.asarray(z, dtype=float)
    tangent = tangent_space(m, z)
    dim = tangent.dim
    rng = np.random.default_rng(seed)
    pool = [FlowWord.empty()] + random_words(
        rng, budget, len(frame), WORD_LENGTH_CAP, TIME_RANGE
    )
    kept: list[tuple[FlowWord, np.ndarray, np.ndarray]] = []  # (word, source, cols)
    col_sets: list[np.ndarray] = []  # the same columns in T_zM coordinates
    block = np.empty((dim, 0))  # col_sets side by side, one word appended at a time
    failures = 0
    found = False
    lo, size = 0, 1  # chunks of 1, 2, 4, ..., MAX_BATCH words
    while lo < len(pool) and not found:
        chunk = pool[lo : lo + size]
        lo, size = lo + size, min(2 * size, MAX_BATCH)
        for word, columns in zip(chunk, _word_columns(m, frame, z, chunk, cfg)):
            if isinstance(columns, FlowError):
                failures += 1
                continue
            source, cols = columns
            kept.append((word, source, cols))
            col_sets.append(tangent.basis.T @ cols)
            block = np.hstack((block, col_sets[-1]))
            if _sigma_min(block, dim) >= TAU_CERT:
                found = True  # the chunk's words past the hit are discarded
                break

    local = MinimalityReport()
    if found:
        kept_words = [word for word, _, _ in kept]
        selected, sigma = _greedy_select(col_sets, kept_words, dim, TAU_CERT)
        words = tuple(kept_words[i] for i in selected)
        chosen = np.hstack([col_sets[i] for i in selected])
        all_sv = np.linalg.svd(chosen, compute_uv=False)
        local.certificate = Certificate(
            words=words,
            sources=tuple(kept[i][1] for i in selected),
            smallest_singular_value=sigma,
            span_dimension=dim,
            tau=TAU_CERT,
            seed=seed,
            singular_values=tuple(float(s) for s in all_sv),
        )
        local.best_span = _assemble_span(m, z, tangent, [kept[i] for i in selected])
    else:
        local.budget_exhausted = True
        local.best_span = _assemble_span(m, z, tangent, kept)
        if failures:
            local.note = f"{FRAME_SUBFAMILY_NOTE}; {failures} word(s) failed to integrate"
    return local


def verify_certificate(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: Sequence[float],
    certificate: Certificate,
    cfg: IntegratorConfig,
) -> tuple[bool, float]:
    """Re-check a certificate forward from its recorded sources; sound if sigma_min >= tau / 2.

    Each word is integrated forward from its source.  It must stay on the
    manifold and return to z, and ``T^c_source`` is pushed forward by that
    forward differential: the other route through the flow cocycle than the
    search's inverse of the backward differential.
    """
    if len(certificate.sources) != len(certificate.words):
        raise ValueError(
            f"certificate has {len(certificate.words)} word(s) "
            f"but {len(certificate.sources)} source(s)"
        )
    z = np.asarray(z, dtype=float)
    evaluated = []
    fwds = composed_flows(frame, certificate.words, certificate.sources, cfg, m)
    for word, source, fwd in zip(certificate.words, certificate.sources, fwds):
        if isinstance(fwd, FlowError):
            raise fwd  # the first failure in word order
        if fwd.drift_exceeded:
            raise FlowError(
                f"forward word {list(word.steps)} left the manifold: "
                f"drift {fwd.drift:.3e} > {DRIFT_BOUND:.1e}"
            )
        if float(np.max(np.abs(fwd.endpoint - z))) > 1e-6:
            raise FlowError(
                f"word {list(word.steps)} does not return to the base point within tolerance"
            )
        pushed = fwd.differential @ complex_tangent_space(m, source).basis
        evaluated.append((word, source, pushed / np.linalg.norm(pushed, axis=0)))
    span = _assemble_span(m, z, tangent_space(m, z), evaluated)
    dim = m.dim
    sigma = float(span.singular_values[dim - 1]) if span.singular_values.size >= dim else 0.0
    return sigma >= certificate.tau / 2.0, sigma


@dataclass
class SampleCloud:
    base_point: np.ndarray
    points: list[np.ndarray]
    words: list[FlowWord]
    drifts: list[float]
    failures: int


def reachable_samples(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: Sequence[float],
    n_words: int,
    cfg: IntegratorConfig,
    seed: int,
    word_length_cap: int = WORD_LENGTH_CAP,
    time_range: float = TIME_RANGE,
) -> SampleCloud:
    """Endpoints of seeded random words from z; failed flows are skipped and counted."""
    z = np.asarray(z, dtype=float)
    rng = np.random.default_rng(seed)
    words = random_words(rng, n_words, len(frame), word_length_cap, time_range)

    pts, kept, drifts, failures = [], [], [], 0
    for word, res in zip(words, composed_flows(frame, words, [z] * len(words), cfg, m)):
        if isinstance(res, FlowError) or res.drift_exceeded:
            failures += 1
            continue
        pts.append(res.endpoint)
        kept.append(word)
        drifts.append(res.drift)
    return SampleCloud(z, pts, kept, drifts, failures)


def write_cloud_csv(path: str, cloud: SampleCloud) -> None:
    """CSV with columns word id, endpoint coordinates, drift."""
    import csv

    dim = cloud.base_point.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", *[f"x{i + 1}" for i in range(dim)], "drift"])
        for i, (pt, drift) in enumerate(zip(cloud.points, cloud.drifts)):
            writer.writerow([i, *[repr(float(v)) for v in pt], repr(float(drift))])
