"""Acceptance gate: every verification suite at its stated scale and tolerance.

Each test prints one PASS/FAIL line per criterion (visible with pytest -s, and
in the captured output on failure) and asserts the whole suite passed.
"""

from bmcouple.acceptance import (
    algebra_suite,
    consistency_suite,
    distance_law_suite,
    exact_invariant_suite,
    index_form_suite,
    infeasibility_suite,
    marginal_suite,
    max_principle_suite,
    shyness_suite,
)


def report(result) -> None:
    print()
    for line in result["lines"]:
        status = "PASS" if line["ok"] else "FAIL"
        print(f"[{status}] {result['suite']} / {line['label']}: {line['detail']}")
    assert result["pass"], f"suite {result['suite']} failed"


def test_01_algebra_suite():
    report(algebra_suite(n_pairs=10_000, n_alpha=1000))


def test_01_algebra_suite_seed_sweep():
    # the gates are tight (1e-12); they must hold on every seed, not just the committed one
    failed = [seed for seed in range(3001, 3021) if not algebra_suite(seed=seed)["pass"]]
    assert not failed, f"algebra suite failed at seeds {failed}"


def test_02_index_form_suite():
    report(index_form_suite())


def test_03_exact_invariant_suite():
    report(exact_invariant_suite(n_steps=1_000_000))


def test_03_exact_invariant_translation_line_is_pinned():
    # the translation path draws stream (3003, 0) in the order of the former
    # hand-written loop, so its detail must not move
    translation = exact_invariant_suite(n_steps=10_000)["lines"][0]
    assert translation == {
        "label": "translation distance drift over 10000 steps",
        "ok": True,
        "detail": "max |drift| 1.110e-16",
    }


def test_04_distance_law_suite():
    report(distance_law_suite(rho0=1.0, n_paths=200, h_ladder=(4e-3, 2e-3, 1e-3, 5e-4)))


def test_05_consistency_suite():
    report(consistency_suite(rho0=1.0, n_paths=200))


def test_05_consistency_suite_same_on_one_and_two_threads():
    # the seed contract: output depends on (seed, path id) only
    assert consistency_suite(n_paths=50, threads=1) == consistency_suite(n_paths=50, threads=2)


def test_06_marginal_suite():
    # 10 000 paths gain from the second core; the 200- and 500-path suites
    # above and below lose to it (their steps are too small to overlap), so
    # they stay on one thread
    report(marginal_suite(rho0=1.0, n_paths=10_000, threads=2))


def test_07_infeasibility_suite():
    report(infeasibility_suite(rho0=1.0))


def test_08_shyness_suite():
    report(shyness_suite(rho0=0.5, eps=0.4, t_final=10.0, n_paths=500))


def test_09_max_principle_suite():
    report(max_principle_suite(cap_angle=0.8, n_paths=10_000))
