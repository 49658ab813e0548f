"""Acceptance gate: one test per criterion, one pass/fail line each.

Every expected number is either derived by an independent enumeration
oracle inside this file / the theory module, or asserted directly where
it is a literal restatement of a definition.
"""

import time

import numpy as np

from l2s import bandit, experiment, theory
from l2s.cslearn import CostSensitiveExample, CostSensitiveLearner
from l2s.experiment import Dataset, build_config, run_grid, split_dataset
from l2s.sparse import ActionFeatures, SparseFeatures
from l2s.tasks import gen_multiclass, gen_sequences, gen_trees
from l2s.theory.exact import ExactModelTask
from l2s.trainer import RolloutPlan
from oracles import longest_snake_bruteforce


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_reference_rollin_blind_spot():
    # roll-in = roll-out = reference on the two-level space: no example is
    # ever generated at the off-path mid state, and some policy with zero
    # cumulative cost-sensitive loss deploys 100 worse than the reference
    t0 = time.time()
    r = theory.reference_rollin_failure(theory.two_level_chooser())
    gap = r.worst_zero_regret_J - r.J_ref
    ok = (r.unvisited_signatures == {("e", "f")}
          and r.visited_signatures == {("a", "b"), ("c", "d")}
          and gap == 100
          and time.time() - t0 < 1.0)
    report(1, ok, f"unvisited {sorted(r.unvisited_signatures)}, "
                  f"zero-regret deployment gap {gap:g} "
                  f"({time.time() - t0:.2f}s)")


def test_criterion_2_reference_rollout_local_optimum():
    # shared-signature space (eps = 0.1): reference roll-outs converge to
    # the policy with J = 0.9 whose best one-step deviation has J = 0;
    # the mixture roll-out run escapes to J = 0
    t0 = time.time()
    r = theory.reference_rollout_failure(theory.shared_feature_chooser(0.1),
                                         rounds=500)
    ok = (abs(r.J_learned - 0.9) <= 1e-9
          and abs(r.best_deviation_J - 0.0) <= 1e-9
          and abs(r.mixture_J - 0.0) <= 1e-9
          and time.time() - t0 < 5.0)
    report(2, ok, f"learned J {r.J_learned:.10f}, best deviation J "
                  f"{r.best_deviation_J:.10f}, mixture J {r.mixture_J:.10f} "
                  f"({time.time() - t0:.2f}s)")


def test_criterion_3_regret_bound_suite():
    # 50 seeded random models x beta grid: the convex-combination bound
    # LHS <= T * eps_bar + 1e-9 holds on every trained trace
    t0 = time.time()
    total, satisfied = 0, 0
    for model in theory.random_models(0, 50):
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            plan = RolloutPlan(roll_in="learned", roll_out="mixture",
                               beta=beta, seed=0)
            _, task, trace, _ = theory.run_training(model, plan, 30)
            rep = theory.check_regret_bound(model, task.reference_policy(),
                                            trace, beta)
            total += 1
            satisfied += rep.satisfied
    elapsed = time.time() - t0
    ok = satisfied == total and elapsed < 120
    report(3, ok, f"{satisfied}/{total} model x beta runs satisfied "
                  f"({elapsed:.1f}s)")


def test_criterion_4_difference_identity():
    # 100 random models x 10 random policy pairs: both telescoped forms
    # agree with the direct J difference to 1e-9
    t0 = time.time()
    g = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    for model in theory.random_models(1, 100):
        policies = theory.enumerate_policies(model)
        for _ in range(10):
            p1 = policies[int(g.integers(len(policies)))]
            p2 = policies[int(g.integers(len(policies)))]
            lhs, rhs1, rhs2 = theory.check_difference_identity(model, p1, p2)
            worst = max(worst, abs(lhs - rhs1), abs(lhs - rhs2))
            checked += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and checked == 1000 and elapsed < 30
    report(4, ok, f"{checked} pairs, max deviation {worst:.2e} "
                  f"({elapsed:.1f}s)")


def test_criterion_5_exponential_descent_lower_bound():
    t0 = time.time()
    bits, updates3 = theory.snake_lower_bound(3)
    ok = updates3 == 4 and bits == ["000", "001", "011", "111", "110"]
    detail = [f"T=3: {updates3} updates along {'->'.join(bits)}"]
    for dim in (4, 5):
        snake = theory.longest_snake(dim)
        oracle_len = len(longest_snake_bruteforce(dim)) - 1
        costs = theory.snake_costs(snake, dim)
        walk = theory.best_neighbor_descent(costs, snake[0], dim)
        strict = all(costs[v] < costs[u] for u, v in zip(walk, walk[1:]))
        _, updates = theory.snake_lower_bound(dim)
        ok = ok and updates == oracle_len and strict
        detail.append(f"T={dim}: {updates} updates == oracle {oracle_len}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(5, ok, "; ".join(detail) + f" ({elapsed:.1f}s)")


def test_criterion_6_bandit_unbiasedness():
    # frozen latest policy that differs from the reference, so the three
    # beta settings probe genuinely different mixtures
    t0 = time.time()
    model = theory.shared_feature_chooser(0.1)
    task = ExactModelTask(model)
    w = np.zeros(task.dimension)
    w[task.feature_index[(("a", "b"), "a")]] = 1.0   # latest prefers b
    w[task.feature_index[(("c", "d"), "c")]] = 1.0   # latest prefers d
    ok = True
    details = []
    for beta in (0.0, 0.5, 1.0):
        probes = bandit.unbiasedness_probe(
            model, w, (0, 1), trials=100_000, beta=beta, seed=6)
        for action, (mc, exact, sd) in enumerate(probes):
            se = sd / np.sqrt(100_000)
            inside = abs(mc - exact) <= 3 * se
            ok = ok and inside
            details.append(f"b{beta:g}/a{action}: |{mc:.4f}-{exact:.4f}|"
                           f"{'<=' if inside else '>'}3se={3 * se:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(6, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_7_strategy_grid_orderings():
    t0 = time.time()
    checks = []

    def grid_for(kind, records, size, quality, seed=2):
        ds = Dataset(kind, records, size)
        tr, te = split_dataset(ds)
        cfg = build_config({"task": kind, "reference_quality": quality,
                            "passes": "5", "seed": str(seed)})
        return run_grid(tr, te, cfg)

    def learned_beats_ref_ref(rep):
        rr = rep.cell("reference", "reference").value
        vals = [rep.cell("learned", ro).value
                for ro in ("reference", "learned", "mixture")]
        if rep.higher_is_better:
            return all(v > rr for v in vals), rr, vals
        return all(v < rr for v in vals), rr, vals

    def lm_within_2pct_of_best(rep):
        best = rep.best().value
        lm = rep.cell("learned", "mixture").value
        if rep.higher_is_better:
            return lm >= best - 0.02 * abs(best) - 1e-12, best, lm
        return lm <= best + 0.02 * abs(best) + 1e-12, best, lm

    mc = gen_multiclass(2000, seed=3)
    size = len(mc[0][1])
    rep = grid_for("multiclass", mc, size, "bad")
    ok, rr, vals = learned_beats_ref_ref(rep)
    checks.append((ok, f"multiclass/bad: ref-ref {rr:.3f} vs learned row "
                       f"{[round(v, 3) for v in vals]}"))
    rep = grid_for("multiclass", mc, size, "optimal")
    ok, best, lm = lm_within_2pct_of_best(rep)
    checks.append((ok, f"multiclass/optimal: L/M {lm:.3f} vs best {best:.3f}"))

    seqs = gen_sequences(500, seed=3)
    tag_count = 1 + max(t for _, tags in seqs for t in tags)
    rep = grid_for("sequence", seqs, tag_count, "optimal")
    cells = [c.value for c in rep.cells]
    band = max(cells) - min(cells)
    checks.append((band <= 0.02,
                   f"sequence/optimal: six-cell band {band:.4f} <= 0.02"))
    ok, best, lm = lm_within_2pct_of_best(rep)
    checks.append((ok, f"sequence/optimal: L/M {lm:.3f} vs best {best:.3f}"))

    trees = gen_trees(300, seed=3)
    rep = grid_for("parse", trees, None, "bad")
    ok, rr, vals = learned_beats_ref_ref(rep)
    checks.append((ok, f"parse/bad: ref-ref {rr:.3f} vs learned row "
                       f"{[round(v, 3) for v in vals]}"))

    elapsed = time.time() - t0
    ok = all(c[0] for c in checks) and elapsed < 600
    report(7, ok, "; ".join(c[1] for c in checks) + f" ({elapsed:.0f}s)")


def test_criterion_8_gradient_and_reproducibility(tmp_path):
    t0 = time.time()
    # (a) the update step equals gradient descent on the squared loss,
    # checked against central finite differences at 1000 random probes
    g = np.random.default_rng(5)
    dim = 10
    worst_rel = 0.0
    for _ in range(1000):
        w = g.normal(size=dim)
        idx = np.sort(g.choice(dim, size=4, replace=False))
        pairs = tuple((int(i), float(g.normal())) for i in idx)
        feats = ActionFeatures(SparseFeatures(pairs, dim), (0,), dim)
        cost = float(g.normal())
        lr = 0.37
        learner = CostSensitiveLearner(dim, eta0=lr)
        learner.weights[:] = w
        learner.update(CostSensitiveExample(feats, np.array([cost])))
        implied_grad = (w - learner.weights) / lr  # first update: lr = eta0
        eps = 1e-6
        for i, _ in pairs:
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            def sqloss(vec):
                return (sum(vec[j] * v for j, v in pairs) - cost) ** 2
            fd = (sqloss(wp) - sqloss(wm)) / (2 * eps)
            rel = abs(implied_grad[i] - fd) / max(1.0, abs(fd))
            worst_rel = max(worst_rel, rel)
    grad_ok = worst_rel <= 1e-5

    # (b) identical (config, seed) training runs produce byte-identical
    # model files
    records = gen_multiclass(80, seed=4)
    ds = Dataset("multiclass", records, len(records[0][1]))
    plan = RolloutPlan(roll_in="learned", roll_out="mixture", beta=0.5,
                       seed=9)
    blobs = []
    for name in ("r1.model", "r2.model"):
        trainer = experiment.train(ds, plan, passes=2, seed=9)
        path = tmp_path / name
        trainer.learner.save(path)
        blobs.append(path.read_bytes())
    repro_ok = blobs[0] == blobs[1]

    elapsed = time.time() - t0
    ok = grad_ok and repro_ok and elapsed < 30
    report(8, ok, f"max gradient rel. err {worst_rel:.2e}; "
                  f"byte-identical reruns: {repro_ok} ({elapsed:.1f}s)")
