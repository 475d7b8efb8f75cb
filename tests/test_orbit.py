"""Lie hulls, pushforward spans, certificates and reachable clouds."""

import dataclasses

import numpy as np
import pytest

import crorbit.orbit as orbit
from crorbit.crmanifold import complex_tangent_space, tangent_space
from crorbit.flow import FlowError, FlowWord, composed_flow, composed_flows
from crorbit.linalg import SubspaceBasis
from crorbit.orbit import (
    TAU_CERT,
    Certificate,
    _greedy_select,
    _word_columns,
    global_minimality_certificate,
    lie_hull,
    pushforward_span,
    reachable_samples,
    span_words,
    verify_certificate,
    write_cloud_csv,
)
from crorbit.scenario import builtin_scenario

LEWY_SC = builtin_scenario("lewy")
FLAT_SC = builtin_scenario("flat")
TUBE3_SC = builtin_scenario("tube3")

LEWY, LEWY_FRAME = LEWY_SC.manifold, LEWY_SC.frames["cr"]
FLAT, FLAT_FRAME = FLAT_SC.manifold, FLAT_SC.frames["cr"]
TUBE3, TUBE3_FRAME = TUBE3_SC.manifold, TUBE3_SC.frames["cr"]
CFG = LEWY_SC.integrator  # the three builtins use the default tolerances

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
                assert hull.basis.residual(tc.basis[:, k]) <= 1e-9


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
            assert pushed.residual(tc.basis[:, k]) <= 1e-9

    def test_lewy_one_word_fills_tangent(self):
        z = np.zeros(4)
        words = [FlowWord.empty(), FlowWord.of((1, 0.5))]
        span = pushforward_span(LEWY, LEWY_FRAME, z, words, CFG)
        assert span.dimension == 3
        tangent = tangent_space(LEWY, z)
        for _, cols in _word_columns(LEWY, LEWY_FRAME, z, words, CFG):
            assert max(tangent.residual(col) for col in cols.T) <= 1e-8

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
        "manifold, frame, budget",
        [(LEWY, LEWY_FRAME, 64), (FLAT, FLAT_FRAME, 100), (TUBE3, TUBE3_FRAME, 100)],
        ids=["lewy-found", "flat-exhausted", "tube3-exhausted"],
    )
    def test_chunked_search_equals_word_by_word(self, manifold, frame, budget):
        """Chunks of 1, 2, 4, ... words keep exactly the words a one-word search keeps."""
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
            if sv.size == tangent.dim and sv[-1] >= TAU_CERT:
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
        selected, span, sigma = _greedy_select(col_sets, [w for w, _, _ in kept], TAU_CERT)
        cert = rep.certificate
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
        cloud = reachable_samples(FLAT, FLAT_FRAME, np.zeros(4), 10, CFG, 1)
        path = tmp_path / "cloud.csv"
        write_cloud_csv(str(path), cloud)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "word,x1,x2,x3,x4,drift"
        assert len(lines) == len(cloud.points) + 1

    def test_flow_failures_skipped_and_counted(self):
        from crorbit.crmanifold import EmbeddedManifold
        from crorbit.vectorfield import VectorFieldSpec

        # the x-velocity blows up near x = 1; long positive words fail
        manifold = EmbeddedManifold.parse(2, ["v"], ["x", "y", "u", "v"])
        frame = [
            VectorFieldSpec.parse(["1/(1 - x)^2", "0", "0", "0"], 4, ["x", "y", "u", "v"]),
            VectorFieldSpec.parse(["0", "1", "0", "0"], 4, ["x", "y", "u", "v"]),
        ]
        cloud = reachable_samples(
            manifold, frame, np.zeros(4), 40, CFG, 2, word_length_cap=4, time_range=0.9
        )
        assert cloud.failures > 0
        assert len(cloud.points) + cloud.failures == 40

    def test_words_leaving_the_domain_of_rho_are_failures(self):
        from crorbit.crmanifold import EmbeddedManifold
        from crorbit.flow import IntegratorConfig
        from crorbit.vectorfield import VectorFieldSpec

        # rho = x2 - log(x1) is undefined past x1 = 0, which leftward words cross
        manifold = EmbeddedManifold.parse(1, ["x2 - log(x1)"])
        frame = [VectorFieldSpec.parse(["-1", "0"], 2)]
        cloud = reachable_samples(manifold, frame, [0.1, np.log(0.1)], 20, IntegratorConfig(), 0)
        assert cloud.failures > 0 and cloud.points
        assert len(cloud.points) + cloud.failures == 20
        assert all(p[0] > 0 for p in cloud.points)
