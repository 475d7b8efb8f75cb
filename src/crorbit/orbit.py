"""CR orbits: Lie hulls, flow-pushforward spans and minimality certificates.

Two independent estimates of the orbit tangent at a point are provided: the
Lie hull (iterated brackets of the frame, evaluated at the point) and the
span of complex-tangent spaces pushed forward by composed-flow
differentials.  The pushforward construction doubles as a certificate of
global minimality: a finite word collection whose pushed spans cover the
full tangent space, reproducible from the recorded seed.  Failure to find a
certificate is reported as such and is never a proof of non-minimality.

A span is the (dim M x k) block of its unit-normalized pushed columns in an
orthonormal basis of T_zM.  One SVD of that block gives its singular
values, its numerical rank and its sigma_dim (``_span``), for
:func:`pushforward_span`, for every step of the search and for
:func:`verify_certificate`; a found certificate's sigma_min, singular values
and best span come from one SVD of its selection, and an exhausted search
reports the span of the block it already built.

Words are integrated in batches (:func:`~crorbit.flow.composed_flows`), with
the bits of one word at a time.  :func:`orbit_checks` flows the words of the
certificate re-check, the pushforward span and the reachable cloud in one
call and assembles the three in that order, so an orbit run's post-search
words share one lockstep batch; :func:`verify_certificate`,
:func:`pushforward_span` and :func:`reachable_samples` are each an
:func:`orbit_checks` call for one part.  The span and the re-check raise the
first failure in word order.  The certificate search evaluates its pool in
chunks of 1, 2, 4, ..., ``MAX_BATCH`` words, still stops at the first word
whose span reaches ``TAU_CERT``, and discards the chunk's words past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crmanifold import EmbeddedManifold, _conormal_geometry, tangent_space
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
    "cloud_words",
    "orbit_checks",
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
    depth_reached: int
    basis: SubspaceBasis
    dimension: int
    stabilized: bool


@dataclass
class PushforwardSpan:
    """The span of pushed T^c columns, read off their T_zM coordinates.

    ``singular_values`` are those of the (dim M x k) coordinate block, in
    descending order (none for no columns); ``dimension`` is its numerical
    rank at ``linalg.RANK_RTOL``.
    """

    singular_values: np.ndarray
    dimension: int


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
    best_span: PushforwardSpan  # the certificate's span, or every kept word's
    certificate: Certificate | None = None
    note: str = FRAME_SUBFAMILY_NOTE

    @property
    def budget_exhausted(self) -> bool:
        """The search drew its whole pool without a certificate."""
        return self.certificate is None


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
    return LieHullResult(depth_reached, span, span.dim, stabilized)


def _word_columns(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: np.ndarray,
    words: Sequence[FlowWord],
    cfg: IntegratorConfig,
) -> list[tuple[np.ndarray, np.ndarray] | FlowError]:
    """(source point, unit-norm pushed T^c columns at z) for each word, or its failure.

    One integration per word, all in one batch: the inverse word runs
    backward from z to the source (see :func:`_columns`).
    """
    backs = composed_flows(frame, [w.inverse() for w in words], [z] * len(words), cfg, m)
    return _columns(m, words, backs)


def _columns(
    m: EmbeddedManifold, words: Sequence[FlowWord], backs: Sequence[FlowResult | FlowError]
) -> list[tuple[np.ndarray, np.ndarray] | FlowError]:
    """:func:`_word_columns` of ``words`` from their backward flows ``backs``.

    By the flow group law ``D(word)(source)`` is the inverse of
    ``D(word^-1)(z)``, so ``T^c_source`` is pushed forward by solving with
    the backward differential instead of integrating the word again.  T^c
    at every source comes from one rows pass of
    :func:`~crorbit.crmanifold._conormal_geometry`, and the first source in
    word order where :func:`~crorbit.crmanifold.complex_tangent_space`
    would fail raises its error.
    """
    columns: list = [_landed(back) for back in backs]
    landed = [k for k, back in enumerate(columns) if isinstance(back, FlowResult)]
    if landed:
        _, complex_tangent, *_, errors = _conormal_geometry(
            m, np.array([backs[k].endpoint for k in landed])
        )
        for row, k in enumerate(landed):
            if row in errors:
                raise errors[row]
            columns[k] = _pushed_columns(words[k], backs[k], complex_tangent[row])
    return columns


def _landed(back: FlowResult | FlowError) -> FlowResult | FlowError:
    """The backward flow ``back``, or why its endpoint is no source."""
    if isinstance(back, FlowResult) and back.drift_exceeded:
        return FlowError(
            f"backward word left the manifold: drift {back.drift:.3e} > {DRIFT_BOUND:.1e}"
        )
    return back


def _pushed_columns(
    word: FlowWord, back: FlowResult, complex_tangent: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | FlowError:
    """The columns ``word`` pushes from T^c at its source, by its backward flow ``back``."""
    try:
        pushed = np.linalg.solve(back.differential, complex_tangent)
    except np.linalg.LinAlgError:
        return FlowError(f"word {list(word.steps)} has a singular backward differential")
    return back.endpoint, pushed / np.linalg.norm(pushed, axis=0)


def _span(coords: np.ndarray) -> tuple[PushforwardSpan, float]:
    """The span of a (dim M x k) block of T_zM coordinates and its sigma_dim, from one SVD.

    sigma_dim is 0.0 below dim M columns; the empty block spans dimension 0.
    """
    sv = np.linalg.svd(coords, compute_uv=False) if coords.size else np.zeros(0)
    dim = coords.shape[0]
    sigma = float(sv[dim - 1]) if sv.size >= dim else 0.0
    return PushforwardSpan(sv, int(_svd_rank(sv))), sigma


def _span_of(
    m: EmbeddedManifold,
    z: np.ndarray,
    words: Sequence[FlowWord],
    backs: Sequence[FlowResult | FlowError],
) -> PushforwardSpan:
    """:func:`pushforward_span` from the backward flows ``backs`` of ``words``."""
    basis_t = tangent_space(m, z).basis.T
    coords = [np.empty((m.dim, 0))]
    for columns in _columns(m, words, backs):
        if isinstance(columns, FlowError):
            raise columns  # the first failure in word order
        coords.append(basis_t @ columns[1])
    return _span(np.hstack(coords))[0]


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
    integrated once.  The unit-normalized images are taken in an orthonormal
    basis of T_zM, and the span is read off those coordinates.
    """
    return orbit_checks(m, frame, z, cfg, span_words=words)[1]


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


def cloud_words(
    frame_size: int,
    seed: int,
    count: int,
    length_cap: int = WORD_LENGTH_CAP,
    time_range: float = TIME_RANGE,
) -> list[FlowWord]:
    """The reachable-cloud word sample: ``count`` seeded words (see :func:`random_words`)."""
    return random_words(np.random.default_rng(seed), count, frame_size, length_cap, time_range)


def _greedy_select(
    col_sets: list[np.ndarray],
    words: list[FlowWord],
    tau: float,
) -> tuple[list[int], PushforwardSpan, float]:
    """Forward-greedy word selection by marginal smallest-singular-value gain.

    Ties break towards shorter words, then lower pool index; selection stops
    as soon as the assembled span clears ``tau``.  Adding columns never lowers
    the smallest singular value, so a pool that clears ``tau`` yields a
    selection that clears it too, even through steps that gain nothing.
    Returns the selection with its span and sigma_dim.
    """
    remaining = list(range(len(words)))
    selected: list[int] = []
    chosen_cols: list[np.ndarray] = []
    while remaining:
        best = None
        for idx in remaining:
            span, sig = _span(np.hstack(chosen_cols + [col_sets[idx]]))
            key = (-sig, len(words[idx]), idx)
            if best is None or key < best[0]:
                best = (key, idx, span, sig)
        _, idx, span, sig = best
        selected.append(idx)
        chosen_cols.append(col_sets[idx])
        remaining.remove(idx)
        if sig >= tau:
            break
    return selected, span, sig


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
    is the greedy-pruned minimal subcollection, and its span is the best
    span.  On failure the span of every kept word is reported; this is
    explicitly not a proof of non-minimality.
    """
    z = np.asarray(z, dtype=float)
    basis_t = tangent_space(m, z).basis.T
    rng = np.random.default_rng(seed)
    pool = [FlowWord.empty()] + random_words(
        rng, budget, len(frame), WORD_LENGTH_CAP, TIME_RANGE
    )
    kept: list[tuple[FlowWord, np.ndarray]] = []  # (word, source)
    col_sets: list[np.ndarray] = []  # each kept word's columns in T_zM coordinates
    block = np.empty((m.dim, 0))  # col_sets side by side, one word appended at a time
    span, sigma = _span(block)
    failures = 0
    lo, size = 0, 1  # chunks of 1, 2, 4, ..., MAX_BATCH words
    while lo < len(pool) and sigma < TAU_CERT:
        chunk = pool[lo : lo + size]
        lo, size = lo + size, min(2 * size, MAX_BATCH)
        for word, columns in zip(chunk, _word_columns(m, frame, z, chunk, cfg)):
            if isinstance(columns, FlowError):
                failures += 1
                continue
            kept.append((word, columns[0]))
            col_sets.append(basis_t @ columns[1])
            block = np.hstack((block, col_sets[-1]))
            span, sigma = _span(block)
            if sigma >= TAU_CERT:
                break  # the chunk's words past the hit are discarded

    if sigma < TAU_CERT:
        note = FRAME_SUBFAMILY_NOTE
        if failures:
            note = f"{note}; {failures} word(s) failed to integrate"
        return MinimalityReport(span, note=note)
    selected, span, sigma = _greedy_select(col_sets, [word for word, _ in kept], TAU_CERT)
    certificate = Certificate(
        words=tuple(kept[i][0] for i in selected),
        sources=tuple(kept[i][1] for i in selected),
        smallest_singular_value=sigma,
        span_dimension=m.dim,
        tau=TAU_CERT,
        seed=seed,
        singular_values=tuple(float(s) for s in span.singular_values),
    )
    return MinimalityReport(span, certificate)


def _reverified(
    m: EmbeddedManifold,
    z: np.ndarray,
    certificate: Certificate,
    fwds: Sequence[FlowResult | FlowError],
) -> tuple[bool, float]:
    """The re-check's verdict and sigma from the forward flows ``fwds``.

    T^c at every source comes from one rows pass of
    :func:`~crorbit.crmanifold._conormal_geometry`; word by word, a failed
    flow, a drift, a missed return and then a source where
    :func:`~crorbit.crmanifold.complex_tangent_space` would fail raise
    in that order.
    """
    basis_t = tangent_space(m, z).basis.T
    errors: dict = {}
    if certificate.sources:
        _, complex_tangent, *_, errors = _conormal_geometry(m, np.array(certificate.sources))
    coords = [np.empty((m.dim, 0))]
    for k, (word, fwd) in enumerate(zip(certificate.words, fwds)):
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
        if k in errors:
            raise errors[k]
        pushed = fwd.differential @ complex_tangent[k]
        coords.append(basis_t @ (pushed / np.linalg.norm(pushed, axis=0)))
    _, sigma = _span(np.hstack(coords))
    return sigma >= certificate.tau / 2.0, sigma


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
    return orbit_checks(m, frame, z, cfg, certificate=certificate)[0]


@dataclass
class SampleCloud:
    base_point: np.ndarray
    points: list[np.ndarray]
    drifts: list[float]
    failures: int


def _cloud_of(z: np.ndarray, results: Sequence[FlowResult | FlowError]) -> SampleCloud:
    """:func:`reachable_samples` from the flows ``results`` of its words from z."""
    pts, drifts, failures = [], [], 0
    for res in results:
        if isinstance(res, FlowError) or res.drift_exceeded:
            failures += 1
            continue
        pts.append(res.endpoint)
        drifts.append(res.drift)
    return SampleCloud(z, pts, drifts, failures)


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
    words = cloud_words(len(frame), seed, n_words, word_length_cap, time_range)
    return orbit_checks(m, frame, z, cfg, cloud_words=words)[2]


def orbit_checks(
    m: EmbeddedManifold,
    frame: Sequence[VectorFieldSpec],
    z: Sequence[float],
    cfg: IntegratorConfig,
    certificate: Certificate | None = None,
    span_words: Sequence[FlowWord] | None = None,
    cloud_words: Sequence[FlowWord] | None = None,
) -> tuple[tuple[bool, float] | None, PushforwardSpan | None, SampleCloud | None]:
    """(verdict, span, cloud): the certificate re-check, the pushforward span and the cloud.

    One ``composed_flows`` call flows the certificate's words from their
    sources, the inverse span words from z and the cloud words from z; every
    word gets the bits of a call of its own.  The re-check, the span and the
    cloud are then assembled in that order, and the first one that raises
    ends the run before a later part's results are read.  A part that was
    not asked for is None.
    """
    z = np.asarray(z, dtype=float)
    cert_words = [] if certificate is None else list(certificate.words)
    sources = [] if certificate is None else list(certificate.sources)
    if len(sources) != len(cert_words):
        raise ValueError(
            f"certificate has {len(cert_words)} word(s) but {len(sources)} source(s)"
        )
    backward = [w.inverse() for w in span_words or ()]
    forward = list(cloud_words or ())
    results = composed_flows(
        frame,
        cert_words + backward + forward,
        sources + [z] * (len(backward) + len(forward)),
        cfg,
        m,
    )
    lo, hi = len(cert_words), len(cert_words) + len(backward)
    verdict = None if certificate is None else _reverified(m, z, certificate, results[:lo])
    span = None if span_words is None else _span_of(m, z, span_words, results[lo:hi])
    cloud = None if cloud_words is None else _cloud_of(z, results[hi:])
    return verdict, span, cloud
