"""Behavioural tests for every learned cardinality estimator.

Each estimator must (a) respect the estimator protocol, (b) achieve sane
accuracy on a held-out workload (far better than a constant guesser), and
(c) exhibit its method-specific behaviours (caching, masking, refresh...).
"""

import numpy as np
import pytest

from repro.cardest import (
    ALECEEstimator,
    BayesNetEstimator,
    EnsembleEstimator,
    FactorJoinEstimator,
    FSPNEstimator,
    GBDTQueryEstimator,
    GLUEEstimator,
    HistogramEstimator,
    JoinKDEEstimator,
    KDEEstimator,
    LinearQueryEstimator,
    LPCEEstimator,
    MLPQueryEstimator,
    MSCNEstimator,
    NaruEstimator,
    NeuroCardEstimator,
    QuickSelEstimator,
    RobustMSCNEstimator,
    SamplingEstimator,
    SPNEstimator,
    UAEEstimator,
    q_error,
)
from repro.sql import Query, WorkloadGenerator

from tests.sampler_reference import naru_box_probability, neurocard_box_probability


@pytest.fixture(scope="module")
def test_workload(stats_db, stats_executor):
    gen = WorkloadGenerator(stats_db, seed=99)
    queries = gen.workload(40, 1, 3, require_predicate=True)
    cards = np.array([stats_executor.cardinality(q) for q in queries])
    return queries, cards


def median_q_error(estimator, queries, cards):
    errs = [q_error(estimator.estimate(q), c) for q, c in zip(queries, cards)]
    return float(np.median(errs))


SUPERVISED = [
    (LinearQueryEstimator, {}),
    (GBDTQueryEstimator, {}),
    (MLPQueryEstimator, {"epochs": 30}),
    (MSCNEstimator, {"epochs": 25}),
    (RobustMSCNEstimator, {"epochs": 25}),
    (ALECEEstimator, {"epochs": 40}),
]

UNSUPERVISED = [
    (HistogramEstimator, {}),
    (SamplingEstimator, {"sample_rows": 200}),
    (KDEEstimator, {}),
    (JoinKDEEstimator, {}),
    (NaruEstimator, {"epochs": 4}),
    (BayesNetEstimator, {}),
    (SPNEstimator, {}),
    (FSPNEstimator, {}),
    (FactorJoinEstimator, {}),
]


class TestSupervisedEstimators:
    @pytest.mark.parametrize("cls,kwargs", SUPERVISED, ids=[c.__name__ for c, _ in SUPERVISED])
    def test_fit_and_reasonable_accuracy(
        self, cls, kwargs, stats_db, stats_train_data, test_workload
    ):
        est = cls(stats_db, **kwargs)
        est.fit(*stats_train_data)
        queries, cards = test_workload
        assert median_q_error(est, queries, cards) < 20.0

    @pytest.mark.parametrize("cls,kwargs", SUPERVISED[:3], ids=[c.__name__ for c, _ in SUPERVISED[:3]])
    def test_estimate_before_fit_raises(self, cls, kwargs, stats_db):
        est = cls(stats_db, **kwargs)
        with pytest.raises(RuntimeError):
            est.estimate(Query(("users",)))

    def test_fit_rejects_empty(self, stats_db):
        with pytest.raises(ValueError):
            LinearQueryEstimator(stats_db).fit([], np.zeros(0))


class TestUnsupervisedEstimators:
    @pytest.mark.parametrize(
        "cls,kwargs", UNSUPERVISED, ids=[c.__name__ for c, _ in UNSUPERVISED]
    )
    def test_reasonable_accuracy(self, cls, kwargs, stats_db, test_workload):
        est = cls(stats_db, **kwargs)
        queries, cards = test_workload
        assert median_q_error(est, queries, cards) < 20.0

    @pytest.mark.parametrize(
        "cls,kwargs", UNSUPERVISED, ids=[c.__name__ for c, _ in UNSUPERVISED]
    )
    def test_estimates_within_bounds(self, cls, kwargs, stats_db, test_workload):
        est = cls(stats_db, **kwargs)
        queries, _ = test_workload
        for q in queries[:10]:
            val = est.estimate(q)
            upper = 1.0
            for t in q.tables:
                upper *= stats_db.table(t).n_rows
            assert 0.0 <= val <= upper


class TestQuickSel:
    def test_needs_single_table_queries(self, stats_db, stats_train_data):
        queries, cards = stats_train_data
        multi_only = [(q, c) for q, c in zip(queries, cards) if q.n_tables > 1]
        qs = QuickSelEstimator(stats_db)
        with pytest.raises(ValueError):
            qs.fit([q for q, _ in multi_only], np.array([c for _, c in multi_only]))

    def test_single_table_accuracy(self, stats_db, stats_executor):
        gen = WorkloadGenerator(stats_db, seed=41)
        train = gen.single_table_workload("users", 120)
        cards = np.array([stats_executor.cardinality(q) for q in train])
        qs = QuickSelEstimator(stats_db).fit(train, cards)
        test = WorkloadGenerator(stats_db, seed=43).single_table_workload("users", 30)
        test_cards = np.array([stats_executor.cardinality(q) for q in test])
        assert median_q_error(qs, test, test_cards) < 15.0


class TestLPCE:
    def test_feedback_cache_exact(self, stats_db, stats_train_data, test_workload):
        est = LPCEEstimator(stats_db)
        est.fit(*stats_train_data)
        q = test_workload[0][0]
        est.observe(q, 777.0)
        assert est.estimate(q) == 777.0

    def test_refinement_improves_bias(self, stats_db, stats_executor, stats_train_data):
        est = LPCEEstimator(stats_db)
        est.fit(*stats_train_data)
        feedback = WorkloadGenerator(stats_db, seed=44).workload(
            60, 1, 3, require_predicate=True
        )
        for q in feedback:
            est.observe(q, stats_executor.cardinality(q))
        assert est._correction is not None


class TestRobustMSCN:
    def test_masked_inference_path(self, stats_db, stats_train_data):
        est = RobustMSCNEstimator(stats_db, epochs=15)
        est.fit(*stats_train_data)
        gen = WorkloadGenerator(stats_db, seed=45)
        q = gen.random_query(1, 2, require_predicate=True)
        masked = est.estimate_masked(q)
        assert masked >= 0.0

    def test_masked_before_fit_raises(self, stats_db):
        est = RobustMSCNEstimator(stats_db)
        with pytest.raises(RuntimeError):
            est.estimate_masked(Query(("users",)))


class TestNeuroCard:
    def test_template_caching(self, stats_db):
        est = NeuroCardEstimator(stats_db, epochs=2, n_samples=200)
        gen = WorkloadGenerator(stats_db, seed=46)
        qs = gen.join_template_workload(["posts", "users"], 3)
        for q in qs:
            est.estimate(q)
        assert len(est._templates) == 1  # one join template

    def test_refresh_clears_templates(self, stats_db):
        est = NeuroCardEstimator(stats_db, epochs=2, n_samples=200)
        gen = WorkloadGenerator(stats_db, seed=47)
        est.estimate(gen.random_query(2, 2, require_predicate=True))
        est.refresh()
        assert len(est._templates) == 0

    def test_full_join_sampler_uniformity(self, stats_db, stats_executor):
        from repro.cardest.neurocard import FullJoinSampler

        gen = WorkloadGenerator(stats_db, seed=48)
        q = gen.join_template_workload(["posts", "users"], 1)[0]
        template = Query(q.tables, q.joins, ())
        sampler = FullJoinSampler(stats_db, template)
        assert sampler.join_size == stats_executor.cardinality(template)
        rows = sampler.sample(50, np.random.default_rng(0))
        # Every sampled row must satisfy the join condition.
        join = template.joins[0]
        lv = stats_db.table(join.left.table).values(join.left.column)[
            rows[join.left.table]
        ]
        rv = stats_db.table(join.right.table).values(join.right.column)[
            rows[join.right.table]
        ]
        assert np.array_equal(lv, rv)


class TestProgressiveSamplingPinned:
    """Naru and NeuroCard share one progressive-sampling loop
    (``MaskedAutoregressiveNetwork.box_probability``); their estimates,
    and the generator draws behind them, are those of the two loops they
    used to carry (``tests/sampler_reference.py``)."""

    @staticmethod
    def _queries(db):
        """Four single-table queries plus one whose box is provably empty on
        the *last* modelled column, with a live predicate on the first."""
        from repro.sql import ColumnRef, Op, Predicate

        users = db.table("users")
        columns = [c for c in users.column_names if not users.column(c).is_key]
        first, last = columns[0], columns[-1]
        empty = Query(
            ("users",),
            (),
            (
                Predicate(ColumnRef("users", first), Op.GE, float(users.values(first).min())),
                Predicate(ColumnRef("users", last), Op.GT, float(users.values(last).max()) + 10),
            ),
        )
        live = WorkloadGenerator(db, seed=51).single_table_workload("users", 4)
        return live, empty

    @staticmethod
    def _nets(estimator):
        if isinstance(estimator, NaruEstimator):
            return [m.net for m in estimator._models.values()]
        return [m.net for m in estimator._templates.values()]

    @pytest.mark.parametrize(
        "build, reference, empty_box_draws",
        [
            (
                lambda db: NaruEstimator(db, epochs=1, seed=3),
                naru_box_probability,
                True,
            ),
            (
                lambda db: NeuroCardEstimator(db, epochs=1, n_samples=200, seed=3),
                neurocard_box_probability,
                False,
            ),
        ],
        ids=["naru", "neurocard"],
    )
    def test_estimates_and_draws_match_the_reference_loops(
        self, stats_db, build, reference, empty_box_draws
    ):
        import copy

        live, empty = self._queries(stats_db)
        ours = build(stats_db)
        if isinstance(ours, NeuroCardEstimator):
            ours.fit(live[:1], np.zeros(1))
        theirs = copy.deepcopy(ours)
        for net in self._nets(theirs):
            net.box_probability = (
                lambda allowed, n, rng, net=net: reference(net, rng, allowed, n)
            )
        skipped = copy.deepcopy(ours)  # same walk, never shown the empty box

        sequence = [live[0], live[1], empty, live[0], live[0], live[2], live[3]]
        got = [ours.estimate(q) for q in sequence]
        assert got == [theirs.estimate(q) for q in sequence]  # to the last bit
        assert got[2] == 0.0
        # the generator is stateful: the same query twice differs
        assert got[3] != got[4] and got[0] != got[3]
        # Naru reaches the empty column after drawing for the earlier ones;
        # NeuroCard's caller answers 0 before any draw.
        without_empty = [skipped.estimate(q) for q in sequence if q is not empty]
        assert (got[3:] != without_empty[2:]) == empty_box_draws


class TestSPNFamily:
    def test_fspn_at_least_as_good_on_correlated_pairs(self, stats_db, stats_executor):
        # users.upvotes is strongly dependent on users.reputation; FSPN's
        # joint leaves should model the pair at least as well as the SPN.
        from repro.sql import ColumnRef, Op, Predicate

        spn = SPNEstimator(stats_db)
        fspn = FSPNEstimator(stats_db)
        gen = WorkloadGenerator(stats_db, seed=49)
        queries = gen.single_table_workload("users", 40)
        spn_err, fspn_err = [], []
        for q in queries:
            true = stats_executor.cardinality(q)
            spn_err.append(q_error(spn.estimate(q), true))
            fspn_err.append(q_error(fspn.estimate(q), true))
        assert np.median(fspn_err) <= np.median(spn_err) * 1.5

    def test_refresh_rebuilds(self, stats_db):
        spn = SPNEstimator(stats_db)
        before = spn._models["users"]
        spn.refresh()
        assert spn._models["users"] is not before


class TestHybrid:
    def test_uae_correction_learns(self, stats_db, stats_executor, stats_train_data):
        est = UAEEstimator(stats_db, epochs=3)
        queries, cards = stats_train_data
        est.fit(queries[:60], cards[:60])
        assert est._correction is not None

    def test_glue_wraps_any_single_table_estimator(self, stats_db, test_workload):
        inner = BayesNetEstimator(stats_db)
        glue = GLUEEstimator(stats_db, inner)
        queries, cards = test_workload
        assert median_q_error(glue, queries, cards) < 20.0

    def test_glue_rejects_bad_inner(self, stats_db):
        with pytest.raises(TypeError):
            GLUEEstimator(stats_db, object())

    def test_alece_refresh_changes_tokens(self, stats_db):
        est = ALECEEstimator(stats_db, epochs=2)
        before = est.tokens.copy()
        est.refresh()
        assert np.array_equal(before, est.tokens)  # same data -> same tokens


class TestEnsemble:
    def test_interval_contains_point(self, stats_db, stats_train_data, test_workload):
        queries, cards = stats_train_data
        members = [
            MLPQueryEstimator(stats_db, epochs=15, seed=s).fit(queries, cards)
            for s in range(3)
        ]
        ens = EnsembleEstimator(stats_db, members)
        q = test_workload[0][0]
        lo, hi = ens.predict_interval(q)
        assert lo <= ens.estimate(q) <= hi
        assert ens.uncertainty(q) >= 0.0

    def test_rejects_empty(self, stats_db):
        with pytest.raises(ValueError):
            EnsembleEstimator(stats_db, [])


def _hash_seeded_numbers() -> dict:
    """What used to depend on the process's string-hash salt: KDE's
    per-table sample seed and Astrid's n-gram buckets."""
    from repro import quickstart_database
    from repro.cardest.strings import (
        AstridEstimator,
        StringColumn,
        StringMatchKind,
        StringPredicate,
    )

    db = quickstart_database()
    queries = WorkloadGenerator(db, seed=5).workload(3, 1, 2, require_predicate=True)
    kde = KDEEstimator(db, seed=0)
    astrid = AstridEstimator(StringColumn("name", ["anna", "hannah", "joan"]))
    features = astrid._featurize(StringPredicate(StringMatchKind.SUBSTRING, "anna"))
    return {
        "kde": [float(kde.estimate(q)) for q in queries],
        "astrid": features.tolist(),
    }


def test_kde_and_astrid_do_not_depend_on_the_hash_seed():
    """Two fresh processes with random string-hash salts and this one
    agree: both seed from a CRC of the text, not from ``hash()``."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import json\n"
        "from tests.test_cardest_methods import _hash_seeded_numbers\n"
        "print(json.dumps(_hash_seeded_numbers()))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    env["PYTHONHASHSEED"] = "random"
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True, cwd=root,
            ).stdout
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1] == _hash_seeded_numbers()
    assert sum(runs[0]["astrid"]) > 3  # the n-grams landed in buckets
