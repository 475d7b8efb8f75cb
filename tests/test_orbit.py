"""Lie hulls, pushforward spans, certificates and reachable clouds."""

import dataclasses
import re

import numpy as np
import pytest

import crorbit.orbit as orbit
from crorbit.cli import cmd_orbit
from crorbit.crmanifold import EmbeddedManifold, complex_tangent_space, tangent_space
from crorbit.flow import FlowError, FlowWord, composed_flow, composed_flows
from crorbit.linalg import SubspaceBasis
from crorbit.orbit import (
    TAU_CERT,
    Certificate,
    _greedy_select,
    _word_columns,
    cloud_words,
    global_minimality_certificate,
    lie_hull,
    orbit_checks,
    pushforward_span,
    reachable_samples,
    span_words,
    verify_certificate,
)
from crorbit.scenario import builtin_scenario
from crorbit.vectorfield import VectorFieldSpec

LEWY_SC = builtin_scenario("lewy")
FLAT_SC = builtin_scenario("flat")
TUBE3_SC = builtin_scenario("tube3")

LEWY, LEWY_FRAME = LEWY_SC.manifold, LEWY_SC.frames["cr"]
FLAT, FLAT_FRAME = FLAT_SC.manifold, FLAT_SC.frames["cr"]
TUBE3, TUBE3_FRAME = TUBE3_SC.manifold, TUBE3_SC.frames["cr"]
CFG = LEWY_SC.integrator  # the three builtins use the default tolerances
# the x-velocity blows up at x = 1 (time 1/3 from the origin): long positive words fail
BLOWUP = EmbeddedManifold.parse(2, ["v"], ["x", "y", "u", "v"])
BLOWUP_FRAME = [
    VectorFieldSpec.parse(["1/(1 - x)^2", "0", "0", "0"], 4, ["x", "y", "u", "v"]),
    VectorFieldSpec.parse(["0", "1", "0", "0"], 4, ["x", "y", "u", "v"]),
]

# float.hex of span values at the origin (seed 7), as computed when the search
# took three SVDs of a certificate's selection and one of its ambient columns;
# a change that moves a bit fails here
LEWY_SEED7_SIGMA = "0x1.7d07b7ffd6e19p-1"  # budget 64: sigma_min, and its re-check
LEWY_SEED7_SINGULAR_VALUES = ["0x1.6a09e667f3bcep+0", "0x1.33db6c2c993c1p+0", LEWY_SEED7_SIGMA]
FLAT_SEED7_BEST_SPAN = ["0x1.07e0f66afed07p+2", "0x1.07e0f66afed07p+2", "0x0.0p+0"]  # budget 16


def lewy_point(rng):
    x, y, u = rng.uniform(-0.5, 0.5, 3)
    return np.array([x, y, u, x * x + y * y])


class TestLieHull:
    def test_lewy_brackets_fill_tangent(self, monkeypatch):
        monkeypatch.setattr(orbit, "LIE_HULL_MAX_DEPTH", 2)
        hull = lie_hull(LEWY, LEWY_FRAME, np.zeros(4))
        assert hull.dimension == 3
        assert hull.stabilized
        assert hull.depth_reached == 2

    def test_flat_abelian_frame(self):
        hull = lie_hull(FLAT, FLAT_FRAME, np.array([0.3, 0.2, 0.5, 0.0]))
        assert hull.dimension == 2 and hull.stabilized
        assert hull.depth_reached == 1  # brackets of the commuting frame add nothing

    def test_tube3_stops_below_manifold_dimension(self):
        hull = lie_hull(TUBE3, TUBE3_FRAME, np.zeros(6))
        assert hull.dimension == 3 < TUBE3.dim

    def test_monotone_in_depth_and_bounded(self, monkeypatch):
        dims = []
        for k in range(1, 5):
            monkeypatch.setattr(orbit, "LIE_HULL_MAX_DEPTH", k)
            dims.append(lie_hull(LEWY, LEWY_FRAME, np.zeros(4)).dimension)
        assert dims == sorted(dims)
        assert all(d <= LEWY.dim for d in dims)

    def test_hull_contains_complex_tangent(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = lewy_point(rng)
            hull = lie_hull(LEWY, LEWY_FRAME, z)
            tc = complex_tangent_space(LEWY, z)
            for k in range(tc.dim):
                v = tc.basis[:, k]
                assert np.linalg.norm(v - hull.basis.project(v)) <= 1e-9


class TestIsMinimal:
    def test_canonical_trio(self):
        assert lie_hull(LEWY, LEWY_FRAME, np.zeros(4)).dimension == LEWY.dim
        assert lie_hull(FLAT, FLAT_FRAME, np.zeros(4)).dimension == 2 < FLAT.dim
        assert lie_hull(TUBE3, TUBE3_FRAME, np.zeros(6)).dimension == 3 < TUBE3.dim
        assert TUBE3.dim == 4

    def test_lewy_minimal_away_from_origin(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            assert lie_hull(LEWY, LEWY_FRAME, lewy_point(rng)).dimension == LEWY.dim


class TestPushforwardSpan:
    def test_empty_word_gives_complex_tangent(self):
        z = np.zeros(4)
        span = pushforward_span(LEWY, LEWY_FRAME, z, [FlowWord.empty()], CFG)
        assert span.dimension == 2
        [(source, cols)] = _word_columns(LEWY, LEWY_FRAME, z, [FlowWord.empty()], CFG)
        assert np.array_equal(source, z)
        pushed = SubspaceBasis.from_spanning(cols)
        tc = complex_tangent_space(LEWY, z)
        for k in range(2):
            v = tc.basis[:, k]
            assert np.linalg.norm(v - pushed.project(v)) <= 1e-9

    def test_lewy_one_word_fills_tangent(self):
        z = np.zeros(4)
        words = [FlowWord.empty(), FlowWord.of((1, 0.5))]
        span = pushforward_span(LEWY, LEWY_FRAME, z, words, CFG)
        assert span.dimension == 3
        tangent = tangent_space(LEWY, z)
        for _, cols in _word_columns(LEWY, LEWY_FRAME, z, words, CFG):
            assert max(np.linalg.norm(v - tangent.project(v)) for v in cols.T) <= 1e-8

    def test_no_words_span_nothing(self):
        span = pushforward_span(LEWY, LEWY_FRAME, np.zeros(4), [], CFG)
        assert span.dimension == 0
        assert span.singular_values.size == 0

    def test_flat_stays_two_dimensional(self):
        words = [FlowWord.empty(), FlowWord.of((1, 0.4), (2, -0.6))]
        span = pushforward_span(FLAT, FLAT_FRAME, np.zeros(4), words, CFG)
        assert span.dimension == 2

    def test_sussmann_consistency_at_random_points(self):
        """Pushforward and Lie-hull dimensions agree at 20 random base points
        on each canonical example (both estimate the orbit tangent)."""
        rng = np.random.default_rng(42)
        from crorbit.orbit import random_words

        def random_base(name):
            if name == "lewy":
                return lewy_point(rng)
            if name == "flat":
                x, y, u = rng.uniform(-0.5, 0.5, 3)
                return np.array([x, y, u, 0.0])
            x, y, u1, u2 = rng.uniform(-0.5, 0.5, 4)
            return np.array([x, y, u1, x * x + y * y, u2, 0.0])

        cases = (("lewy", LEWY, LEWY_FRAME), ("flat", FLAT, FLAT_FRAME),
                 ("tube3", TUBE3, TUBE3_FRAME))
        for name, manifold, frame in cases:
            for _ in range(20):
                z = random_base(name)
                hull_dim = lie_hull(manifold, frame, z).dimension
                words = [FlowWord.empty()] + random_words(rng, 5, len(frame), 3, 0.3)
                span = pushforward_span(manifold, frame, z, words, CFG)
                assert span.dimension == hull_dim, (name, z)


class TestCertificates:
    def test_lewy_certificate_found_and_verified(self):
        rep = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 64, 7, CFG
        )
        cert = rep.certificate
        assert cert is not None and not rep.budget_exhausted
        assert len(cert.words) <= 3
        assert cert.smallest_singular_value >= 1e-3
        ok, sigma = verify_certificate(LEWY, LEWY_FRAME, np.zeros(4), cert, CFG)
        assert ok and sigma >= cert.tau / 2

    def test_certificate_reverification_is_tight(self):
        rep = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 64, 3, CFG
        )
        _, sigma = verify_certificate(LEWY, LEWY_FRAME, np.zeros(4), rep.certificate, CFG)
        assert abs(sigma - rep.certificate.smallest_singular_value) <= 1e-9

    def test_flat_budget_exhausted(self):
        rep = global_minimality_certificate(
            FLAT, FLAT_FRAME, np.zeros(4), 16, 7, CFG
        )
        assert rep.certificate is None
        assert rep.budget_exhausted
        assert rep.best_span.dimension == 2
        # one spelling: the property reads the certificate, no field stores it
        assert "budget_exhausted" not in {f.name for f in dataclasses.fields(rep)}

    @pytest.mark.parametrize(
        "manifold, frame, budget",
        [(FLAT, FLAT_FRAME, 16), (LEWY, LEWY_FRAME, 64)],
        ids=["flat-exhausted", "lewy-certificate"],
    )
    def test_best_span_equals_fresh_pushforward(self, manifold, frame, budget, monkeypatch):
        """The best span reuses the search's flows: re-running its words changes nothing."""
        z = np.zeros(4)
        run = count_composed_flows(monkeypatch)
        rep = global_minimality_certificate(manifold, frame, z, budget, 7, CFG)
        best = rep.best_span
        if rep.certificate is not None:
            words = list(rep.certificate.words)
            fresh_sources = [s for s, _ in _word_columns(manifold, frame, z, words, CFG)]
            for source, fresh_source in zip(rep.certificate.sources, fresh_sources):
                assert np.array_equal(source, fresh_source)
            assert best.singular_values.tolist() == list(rep.certificate.singular_values)
        else:
            words = [w.inverse() for w in run]  # the search runs each word backward
            assert len(words) == budget + 1
        fresh = pushforward_span(manifold, frame, z, words, CFG)
        assert best.dimension == fresh.dimension
        assert np.array_equal(best.singular_values, fresh.singular_values)

    def test_span_values_at_seed_7(self):
        z = np.zeros(4)
        cert = global_minimality_certificate(LEWY, LEWY_FRAME, z, 64, 7, CFG).certificate
        _, sigma = verify_certificate(LEWY, LEWY_FRAME, z, cert, CFG)
        assert cert.smallest_singular_value.hex() == LEWY_SEED7_SIGMA
        assert [s.hex() for s in cert.singular_values] == LEWY_SEED7_SINGULAR_VALUES
        assert sigma.hex() == LEWY_SEED7_SIGMA
        best = global_minimality_certificate(FLAT, FLAT_FRAME, z, 16, 7, CFG).best_span
        assert [float(s).hex() for s in best.singular_values] == FLAT_SEED7_BEST_SPAN

    def test_search_computes_no_lie_hull(self, monkeypatch):
        """The search stands on its own flows; the Lie hull is left to the caller."""
        import crorbit.orbit as orbit

        def no_hull(*args, **kwargs):
            raise AssertionError("global_minimality_certificate computed a Lie hull")

        monkeypatch.setattr(orbit, "lie_hull", no_hull)
        rep = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 64, 7, CFG
        )
        assert rep.certificate is not None

    def test_seeded_determinism(self):
        a = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 64, 123, CFG
        )
        b = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 64, 123, CFG
        )
        assert a.certificate.to_dict() == b.certificate.to_dict()

    def test_certificate_json_round_trip(self):
        rep = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 64, 7, CFG
        )
        d = rep.certificate.to_dict()
        words = [FlowWord(tuple((i, t) for i, t in w)) for w in d["words"]]
        span = pushforward_span(LEWY, LEWY_FRAME, np.zeros(4), words, CFG)
        assert span.singular_values[2] >= d["tau"] / 2

    def test_greedy_selection_clears_tau_past_steps_that_gain_nothing(self):
        """Adding e2 to diag(1, 1e-4, 1e-4) leaves sigma_min at 1e-4; e3 then lifts it."""
        eye = np.eye(3)
        col_sets = [np.diag([1.0, 1e-4, 1e-4]), eye[:, [1]], eye[:, [2]]]
        words = [FlowWord.of((1, 0.1)) for _ in col_sets]
        selected, span, sigma = _greedy_select(col_sets, words, TAU_CERT)
        assert sorted(selected) == [0, 1, 2] and selected[0] == 0
        assert sigma >= TAU_CERT and sigma == pytest.approx(1.0)
        assert span.dimension == 3 and span.singular_values[2] == sigma


def count_composed_flows(monkeypatch):
    """Route ``orbit.composed_flows`` through a counter; returns the list of words run."""
    words = []

    def counting(frame, batch, *args, **kwargs):
        words.extend(batch)
        return composed_flows(frame, batch, *args, **kwargs)

    monkeypatch.setattr(orbit, "composed_flows", counting)
    return words


class TestOnePassWords:
    """Each word is integrated once; the forward pass lives in the certificate re-check."""

    @pytest.mark.parametrize(
        "manifold, frame, z",
        [(FLAT, FLAT_FRAME, np.zeros(4)), (TUBE3, TUBE3_FRAME, np.zeros(6)),
         (LEWY, LEWY_FRAME, np.zeros(4))],
        ids=["flat", "tube3", "lewy"],
    )
    def test_one_pass_columns_equal_forward_pass(self, manifold, frame, z):
        """D(word)(source) = D(word^-1)(z)^-1: solving with the backward
        differential gives the columns a forward integration pushes."""
        words = span_words(len(frame), 5)
        for word, (source, cols) in zip(words, _word_columns(manifold, frame, z, words, CFG)):
            fwd = composed_flow(frame, word, source, CFG, manifold=manifold)
            pushed = fwd.differential @ complex_tangent_space(manifold, source).basis
            assert np.max(np.abs(cols - pushed / np.linalg.norm(pushed, axis=0))) <= 1e-12

    @pytest.mark.parametrize(
        "manifold, frame, z",
        [(FLAT, FLAT_FRAME, np.zeros(4)), (TUBE3, TUBE3_FRAME, np.zeros(6)),
         (LEWY, LEWY_FRAME, np.zeros(4))],
        ids=["flat", "tube3", "lewy"],
    )
    def test_chunk_columns_are_the_point_path_bits(self, manifold, frame, z):
        """T^c of a chunk's sources from one rows pass: each word's bits from complex_tangent_space."""
        words = span_words(len(frame), 5)
        backs = composed_flows(frame, [w.inverse() for w in words], [z] * len(words), CFG, manifold)
        for back, (source, cols) in zip(backs, _word_columns(manifold, frame, z, words, CFG)):
            pushed = np.linalg.solve(
                back.differential, complex_tangent_space(manifold, back.endpoint).basis
            )
            assert source.tobytes() == back.endpoint.tobytes()
            assert cols.tobytes() == (pushed / np.linalg.norm(pushed, axis=0)).tobytes()

    def test_first_bad_source_raises_its_point_error(self, monkeypatch):
        """Sources off M: the first in word order raises complex_tangent_space's error there."""
        words = span_words(2, 5)[1:5]
        bad = {words[1].inverse(): np.array([0.0, 0.0, 0.0, 0.5]),
               words[3].inverse(): np.array([0.0, 0.0, 0.0, 0.7])}

        def displaced(frame, batch, *args, **kwargs):
            results = composed_flows(frame, batch, *args, **kwargs)
            return [dataclasses.replace(res, endpoint=bad[w]) if w in bad else res
                    for w, res in zip(batch, results)]

        with pytest.raises(Exception) as point:
            complex_tangent_space(LEWY, bad[words[1].inverse()])
        monkeypatch.setattr(orbit, "composed_flows", displaced)
        with pytest.raises(Exception) as chunk:
            _word_columns(LEWY, LEWY_FRAME, np.zeros(4), words, CFG)
        assert type(chunk.value) is type(point.value)
        assert str(chunk.value) == str(point.value)
        assert "exceeds" in str(point.value)

    def test_search_integrates_each_pool_word_once(self, monkeypatch):
        words = count_composed_flows(monkeypatch)
        rep = global_minimality_certificate(FLAT, FLAT_FRAME, np.zeros(4), 16, 7, CFG)
        assert rep.budget_exhausted
        assert len(words) == 17  # the empty word and 16 random words

    def test_search_draws_only_the_words_it_flows(self, monkeypatch):
        """The pool is drawn chunk by chunk: a hit in the first chunk draws one word."""
        cert64 = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 64, 7, CFG
        ).certificate
        drawn = []

        def counting(rng, count, *args):
            drawn.append(count)
            return random_words(rng, count, *args)

        random_words = orbit.random_words
        monkeypatch.setattr(orbit, "random_words", counting)
        flowed = count_composed_flows(monkeypatch)
        cert = global_minimality_certificate(
            LEWY, LEWY_FRAME, np.zeros(4), 10_000, 7, CFG
        ).certificate
        assert sum(drawn) == len(flowed) - 1 == 1  # the empty word is not drawn
        assert cert.to_dict() == cert64.to_dict()
        assert [s.tobytes() for s in cert.sources] == [s.tobytes() for s in cert64.sources]

    @pytest.mark.parametrize(
        "manifold, frame", [(FLAT, FLAT_FRAME), (TUBE3, TUBE3_FRAME)], ids=["flat", "tube3"]
    )
    def test_exhausted_search_flows_four_chunks_on_five_svds(self, manifold, frame, monkeypatch):
        """Budget 256 runs out in chunks of 2, 16, 128 and 111 words, each decided by one SVD."""
        sizes, spans = [], []

        def word_columns(m, frame, z, words, cfg):
            sizes.append(len(words))
            return _word_columns(m, frame, z, words, cfg)

        def span(coords):
            spans.append(coords.shape[1])
            return orbit_span(coords)

        orbit_span = orbit._span
        monkeypatch.setattr(orbit, "_word_columns", word_columns)
        monkeypatch.setattr(orbit, "_span", span)
        rep = global_minimality_certificate(
            manifold, frame, np.zeros(manifold.ambient_dim), 256, 0, CFG
        )
        assert rep.budget_exhausted
        assert sizes == [2, 16, 128, 111]
        assert len(spans) <= 5

    def test_verify_integrates_each_word_once(self, monkeypatch):
        rep = global_minimality_certificate(LEWY, LEWY_FRAME, np.zeros(4), 64, 7, CFG)
        cert = rep.certificate
        words = count_composed_flows(monkeypatch)
        ok, _ = verify_certificate(LEWY, LEWY_FRAME, np.zeros(4), cert, CFG)
        assert ok
        assert words == list(cert.words)  # forward, from the recorded sources

    @staticmethod
    def make_singular(monkeypatch, word):
        """The backward flow of ``word`` reports a zero differential."""

        def singular(frame, batch, *args, **kwargs):
            results = composed_flows(frame, batch, *args, **kwargs)
            return [
                dataclasses.replace(res, differential=np.zeros_like(res.differential))
                if w == word.inverse() else res
                for w, res in zip(batch, results)
            ]

        monkeypatch.setattr(orbit, "composed_flows", singular)

    def test_singular_differential_names_the_word(self, monkeypatch):
        word = FlowWord.of((1, 0.4), (2, -0.6))
        self.make_singular(monkeypatch, word)
        with pytest.raises(FlowError, match=r"word \[\(1, 0\.4\), \(2, -0\.6\)\].*singular"):
            pushforward_span(FLAT, FLAT_FRAME, np.zeros(4), [word], CFG)

    def test_singular_differential_is_a_failed_word(self, monkeypatch):
        rng = np.random.default_rng(7)  # the search's first random pool word
        [word] = orbit.random_words(rng, 1, 2, orbit.WORD_LENGTH_CAP, orbit.TIME_RANGE)
        self.make_singular(monkeypatch, word)
        rep = global_minimality_certificate(FLAT, FLAT_FRAME, np.zeros(4), 16, 7, CFG)
        assert rep.budget_exhausted
        assert rep.note.endswith("; 1 word(s) failed to integrate")
        pool = [FlowWord.empty()] + orbit.random_words(
            np.random.default_rng(7), 16, 2, orbit.WORD_LENGTH_CAP, orbit.TIME_RANGE
        )
        kept = [w for w in pool if w != word]
        assert len(kept) == 16
        fresh = pushforward_span(FLAT, FLAT_FRAME, np.zeros(4), kept, CFG)
        assert rep.best_span.singular_values.tobytes() == fresh.singular_values.tobytes()

    @pytest.mark.parametrize(
        "manifold, frame, budget, tau",
        [(LEWY, LEWY_FRAME, 64, TAU_CERT), (LEWY, LEWY_FRAME, 64, 1.5),
         (FLAT, FLAT_FRAME, 100, TAU_CERT), (TUBE3, TUBE3_FRAME, 100, TAU_CERT)],
        ids=["lewy-found", "lewy-late-hit", "flat-exhausted", "tube3-exhausted"],
    )
    def test_chunked_search_equals_word_by_word(self, manifold, frame, budget, tau, monkeypatch):
        """Chunks of 2, 16, 128, ... words keep exactly the words a one-word search keeps.

        At tau = 1.5 lewy's sigma_dim first reaches tau at pool word 5, strictly
        inside the second chunk, whose words past it must be discarded.
        """
        monkeypatch.setattr(orbit, "TAU_CERT", tau)
        z = np.zeros(manifold.ambient_dim)
        rng = np.random.default_rng(7)
        pool = [FlowWord.empty()] + orbit.random_words(
            rng, budget, len(frame), orbit.WORD_LENGTH_CAP, orbit.TIME_RANGE
        )
        tangent = tangent_space(manifold, z)
        kept, block = [], np.empty((tangent.dim, 0))
        for word in pool:
            [columns] = _word_columns(manifold, frame, z, [word], CFG)
            if isinstance(columns, FlowError):
                continue
            kept.append((word, *columns))
            block = np.hstack((block, tangent.basis.T @ columns[1]))
            sv = np.linalg.svd(block, compute_uv=False)
            if sv.size == tangent.dim and sv[-1] >= tau:
                break
        rep = global_minimality_certificate(manifold, frame, z, budget, 7, CFG)
        if rep.certificate is None:
            failed = len(pool) - len(kept)
            assert rep.note.endswith(f"; {failed} word(s) failed to integrate") if failed else (
                rep.note == orbit.FRAME_SUBFAMILY_NOTE
            )
            assert rep.best_span.singular_values.tobytes() == sv.tobytes()
            return
        col_sets = [tangent.basis.T @ cols for _, _, cols in kept]
        selected, span, sigma = _greedy_select(col_sets, [w for w, _, _ in kept], tau)
        cert = rep.certificate
        assert cert.tau == tau
        assert cert.words == tuple(kept[i][0] for i in selected)
        assert all(s.tobytes() == kept[i][1].tobytes() for s, i in zip(cert.sources, selected))
        assert cert.smallest_singular_value == sigma
        assert rep.best_span.singular_values.tobytes() == span.singular_values.tobytes()

    def test_certificate_without_sources_raises(self):
        cert = Certificate(
            words=(FlowWord.empty(), FlowWord.of((1, 0.5))),
            sources=(),
            smallest_singular_value=1.0,
            span_dimension=3,
            tau=TAU_CERT,
            seed=0,
            singular_values=(1.0, 1.0, 1.0),
        )
        with pytest.raises(ValueError, match=r"2 word\(s\) but 0 source\(s\)"):
            verify_certificate(LEWY, LEWY_FRAME, np.zeros(4), cert, CFG)

    def test_certificate_without_words_spans_nothing(self):
        cert = Certificate(
            words=(),
            sources=(),
            smallest_singular_value=1.0,
            span_dimension=3,
            tau=TAU_CERT,
            seed=0,
            singular_values=(1.0, 1.0, 1.0),
        )
        assert verify_certificate(LEWY, LEWY_FRAME, np.zeros(4), cert, CFG) == (False, 0.0)

    def test_displaced_source_fails_round_trip(self):
        rep = global_minimality_certificate(LEWY, LEWY_FRAME, np.zeros(4), 64, 7, CFG)
        cert = rep.certificate
        k = next(i for i, word in enumerate(cert.words) if len(word))
        source = cert.sources[k]
        tangent = tangent_space(LEWY, source)
        e_u = np.array([0.0, 0.0, 1.0, 0.0])  # tangent everywhere: rho does not involve u
        step = tangent.basis @ (tangent.basis.T @ e_u)
        assert np.linalg.norm(step - e_u) <= 1e-12
        sources = list(cert.sources)
        sources[k] = source + 1e-3 * step
        displaced = dataclasses.replace(cert, sources=tuple(sources))
        with pytest.raises(FlowError, match="does not return to the base point"):
            verify_certificate(LEWY, LEWY_FRAME, np.zeros(4), displaced, CFG)


class TestReachableSamples:
    def test_flat_orbit_invariant(self):
        cloud = reachable_samples(FLAT, FLAT_FRAME, np.zeros(4), 30, CFG, 3)
        assert cloud.failures == 0
        assert max(abs(p[2]) for p in cloud.points) <= 1e-9
        assert max(cloud.drifts) <= 1e-9

    def test_tube3_conserved_coordinates(self):
        cloud = reachable_samples(TUBE3, TUBE3_FRAME, np.zeros(6), 30, CFG, 3)
        worst = max(max(abs(p[4]), abs(p[5])) for p in cloud.points)
        assert worst <= 1e-9

    def test_lewy_cloud_is_three_dimensional_in_tangent_chart(self):
        cloud = reachable_samples(
            LEWY, LEWY_FRAME, np.zeros(4), 80, CFG, 5, word_length_cap=3, time_range=0.1
        )
        tangent = tangent_space(LEWY, np.zeros(4))
        pts = np.array([tangent.basis.T @ p for p in cloud.points])
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        assert int(np.sum(sv > 1e-6 * sv[0])) == 3

    def test_cloud_csv(self, tmp_path):
        """``orbit_cloud.csv``: a header, then each point's word id, coordinates and drift."""
        report = cmd_orbit(FLAT_SC, "origin", budget=10, seed=1, out_dir=tmp_path)
        cloud = reachable_samples(FLAT, FLAT_FRAME, np.zeros(4), 10, CFG, 1)
        path = tmp_path / "orbit_cloud.csv"
        assert report.outputs["orbit_cloud.csv"] == str(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "word,x1,x2,x3,x4,drift"
        assert len(lines) == len(cloud.points) + 1 == 11
        for i, (line, point, drift) in enumerate(zip(lines[1:], cloud.points, cloud.drifts)):
            assert line == ",".join([str(i), *[repr(float(v)) for v in (*point, drift)]])

    def test_cloud_needs_no_generic_point(self):
        """rho = (x4, x3) is not generic at the origin: a cloud is drawn there, a span is not."""
        from crorbit.crmanifold import NonGenericPointError
        from crorbit.flow import IntegratorConfig

        manifold = EmbeddedManifold.parse(2, ["x4", "x3"])
        frame = [VectorFieldSpec.parse(["1", "0", "0", "0"], 4),
                 VectorFieldSpec.parse(["0", "1", "0", "0"], 4)]
        z = np.zeros(4)
        cloud = reachable_samples(manifold, frame, z, 10, IntegratorConfig(), 0)
        assert len(cloud.points) == 10 and cloud.failures == 0
        with pytest.raises(NonGenericPointError):
            pushforward_span(manifold, frame, z, span_words(2, 0), IntegratorConfig())

    def test_flow_failures_skipped_and_counted(self):
        cloud = reachable_samples(
            BLOWUP, BLOWUP_FRAME, np.zeros(4), 40, CFG, 2, word_length_cap=4, time_range=0.9
        )
        assert cloud.failures > 0
        assert len(cloud.points) + cloud.failures == 40

    def test_words_leaving_the_domain_of_rho_are_failures(self):
        from crorbit.flow import IntegratorConfig

        # rho = x2 - log(x1) is undefined past x1 = 0, which leftward words cross
        manifold = EmbeddedManifold.parse(1, ["x2 - log(x1)"])
        frame = [VectorFieldSpec.parse(["-1", "0"], 2)]
        cloud = reachable_samples(manifold, frame, [0.1, np.log(0.1)], 20, IntegratorConfig(), 0)
        assert cloud.failures > 0 and cloud.points
        assert len(cloud.points) + cloud.failures == 20
        assert all(p[0] > 0 for p in cloud.points)



def _assert_same_outcomes(fused, separate):
    """Verdicts, spans and clouds of ``orbit_checks`` equal the public calls' bits."""
    assert len(fused) == len(separate)
    for a, b in zip(fused, separate):
        if a is None or b is None:  # a part that was not asked for
            assert a is b
        elif isinstance(a, tuple):  # verify_certificate's (ok, sigma)
            assert a[0] == b[0] and a[1].hex() == b[1].hex()
        elif hasattr(a, "singular_values"):
            assert a.dimension == b.dimension
            assert a.singular_values.tobytes() == b.singular_values.tobytes()
        else:
            assert a.failures == b.failures and a.drifts == b.drifts
            assert [p.tobytes() for p in a.points] == [p.tobytes() for p in b.points]


class TestFlowPlans:
    """An orbit run's post-search words: one ``orbit_checks`` batch, each part's own bits."""

    @pytest.mark.parametrize(
        "name, budget", [("lewy", 64), ("flat", 16)], ids=["lewy-found", "flat-exhausted"]
    )
    def test_cmd_orbit_flows_once_after_the_search(self, name, budget, monkeypatch):
        import crorbit.cli as cli

        calls = []
        searched = []

        def counting(frame, words, *args, **kwargs):
            calls.append(list(words))
            return composed_flows(frame, words, *args, **kwargs)

        def search(*args, **kwargs):
            rep = global_minimality_certificate(*args, **kwargs)
            searched.append((len(calls), rep))
            return rep

        monkeypatch.setattr(orbit, "composed_flows", counting)
        monkeypatch.setattr(cli, "global_minimality_certificate", search)
        scenario = builtin_scenario(name)
        cmd_orbit(scenario, "origin", budget=budget, seed=7)
        [(before, rep)] = searched
        assert len(calls) == before + 1
        cert_words = list(rep.certificate.words) if rep.certificate else []
        assert (name == "lewy") == bool(cert_words)
        frame_size = len(scenario.default_frame())
        span = [w.inverse() for w in span_words(frame_size, 7)]
        cloud = orbit.random_words(
            np.random.default_rng(7), min(budget, 60), frame_size,
            orbit.WORD_LENGTH_CAP, orbit.TIME_RANGE,
        )
        assert calls[-1] == cert_words + span + cloud

    @pytest.mark.parametrize(
        "manifold, frame, budget", [(LEWY, LEWY_FRAME, 64), (FLAT, FLAT_FRAME, 16)],
        ids=["lewy-found", "flat-exhausted"],
    )
    def test_fused_outcomes_equal_separate_calls(self, manifold, frame, budget):
        z = np.zeros(4)
        cert = global_minimality_certificate(manifold, frame, z, budget, 7, CFG).certificate
        words = span_words(len(frame), 7)
        fused = orbit_checks(manifold, frame, z, CFG, cert, words, cloud_words(len(frame), 7, 60))
        separate = [
            None if cert is None else verify_certificate(manifold, frame, z, cert, CFG),
            pushforward_span(manifold, frame, z, words, CFG),
            reachable_samples(manifold, frame, z, 60, CFG, 7),
        ]
        _assert_same_outcomes(fused, separate)
        assert (cert is not None) == (manifold is LEWY)

    def test_failing_words_fail_alone_in_the_fused_batch(self):
        """Cloud words that blow up are counted; a span word that does raises its error."""
        z = np.zeros(4)
        words = span_words(2, 3)
        cloud = reachable_samples(BLOWUP, BLOWUP_FRAME, z, 12, CFG, 1, time_range=0.9)
        assert cloud.failures > 0 and cloud.points
        blowing_up = cloud_words(2, 1, 12, time_range=0.9)
        fused = orbit_checks(BLOWUP, BLOWUP_FRAME, z, CFG, span_words=words, cloud_words=blowing_up)
        span = pushforward_span(BLOWUP, BLOWUP_FRAME, z, words, CFG)
        _assert_same_outcomes(fused, [None, span, cloud])
        failing = words + [FlowWord.of((1, -0.5))]  # its inverse runs into x = 1
        with pytest.raises(FlowError) as alone:
            pushforward_span(BLOWUP, BLOWUP_FRAME, z, failing, CFG)
        with pytest.raises(FlowError) as together:
            orbit_checks(BLOWUP, BLOWUP_FRAME, z, CFG, span_words=failing, cloud_words=blowing_up)
        assert type(together.value) is type(alone.value)
        assert str(together.value) == str(alone.value)

    def test_failing_certificate_word_raises_before_span_and_cloud(self, monkeypatch):
        import crorbit.cli as cli

        rep = global_minimality_certificate(LEWY, LEWY_FRAME, np.zeros(4), 64, 7, CFG)
        cert = rep.certificate
        k = next(i for i, word in enumerate(cert.words) if len(word))
        sources = list(cert.sources)
        sources[k] = sources[k] + np.array([0.0, 0.0, 1e-3, 0.0])  # u is tangent everywhere
        displaced = dataclasses.replace(cert, sources=tuple(sources))

        def unread(*args):
            raise AssertionError("a span or cloud result was read")

        monkeypatch.setattr(cli, "global_minimality_certificate",
                            lambda *a: dataclasses.replace(rep, certificate=displaced))
        monkeypatch.setattr(orbit, "_span_of", unread)
        monkeypatch.setattr(orbit, "_cloud_of", unread)
        message = (f"word {list(cert.words[k].steps)} "
                   "does not return to the base point within tolerance")
        with pytest.raises(FlowError, match=re.escape(message)):
            cmd_orbit(builtin_scenario("lewy"), "origin", budget=64, seed=7)

    def test_reverified_sigma_is_the_point_path_bits(self):
        """T^c at the sources from one rows pass: the sigma of complex_tangent_space per word."""
        z = np.zeros(4)
        for seed in (3, 7):
            cert = global_minimality_certificate(LEWY, LEWY_FRAME, z, 64, seed, CFG).certificate
            basis_t = tangent_space(LEWY, z).basis.T
            coords = [np.empty((3, 0))]
            for word, source in zip(cert.words, cert.sources):
                fwd = composed_flow(LEWY_FRAME, word, source, CFG, LEWY)
                pushed = fwd.differential @ complex_tangent_space(LEWY, source).basis
                coords.append(basis_t @ (pushed / np.linalg.norm(pushed, axis=0)))
            sigma = float(np.linalg.svd(np.hstack(coords), compute_uv=False)[2])
            assert verify_certificate(LEWY, LEWY_FRAME, z, cert, CFG) == (True, sigma)
            assert verify_certificate(LEWY, LEWY_FRAME, z, cert, CFG)[1].hex() == sigma.hex()

    def test_first_bad_source_raises_its_point_error(self, monkeypatch):
        """Sources off M whose words return to z: the first in word order raises its T^c error."""
        z = np.zeros(4)
        words = tuple(span_words(2, 5)[1:5])
        sources = [z, np.array([0.0, 0.0, 0.0, 0.5]), z, np.array([0.0, 0.0, 0.0, 0.7])]
        cert = Certificate(words, tuple(sources), 1.0, 3, TAU_CERT, 0, (1.0, 1.0, 1.0))

        def returning(frame, batch, starts, *args, **kwargs):
            return [composed_flow(frame, FlowWord.empty(), z) for _ in batch]

        with pytest.raises(Exception) as point:
            complex_tangent_space(LEWY, sources[1])
        monkeypatch.setattr(orbit, "composed_flows", returning)
        with pytest.raises(Exception) as checked:
            verify_certificate(LEWY, LEWY_FRAME, z, cert, CFG)
        assert type(checked.value) is type(point.value)
        assert str(checked.value) == str(point.value)
        assert "exceeds" in str(point.value)
