#!/usr/bin/env python3
"""Self-tests for tools/lint/oblv_lint.py.

Each fixture under fixtures/src/ mirrors the repo layout so the rules'
path scoping (D001 workloads exemption, D003 routing/mesh restriction)
is exercised exactly as in production. Run directly or via ctest:

    python3 tools/lint/tests/test_oblv_lint.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import oblv_lint  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def lint(rel: str) -> list[oblv_lint.Finding]:
    return oblv_lint.lint_file(FIXTURES / rel, FIXTURES)


def rules_and_lines(findings: list[oblv_lint.Finding]) -> set[tuple[str, int]]:
    return {(f.rule, f.line) for f in findings}


class TestD001(unittest.TestCase):
    def test_every_pattern_fires(self):
        found = rules_and_lines(lint("src/analysis/d001_rng.cpp"))
        self.assertIn(("D001", 7), found)   # std::random_device
        self.assertIn(("D001", 12), found)  # srand
        self.assertIn(("D001", 13), found)  # rand()
        self.assertIn(("D001", 14), found)  # time(nullptr)

    def test_allowlist_suppresses(self):
        findings = lint("src/analysis/d001_rng.cpp")
        suppressed_region = [f for f in findings if 19 <= f.line <= 23]
        self.assertEqual(suppressed_region, [])

    def test_comments_and_identifiers_do_not_fire(self):
        findings = lint("src/analysis/d001_rng.cpp")
        self.assertTrue(all(f.line < 25 for f in findings),
                        [f.render(FIXTURES) for f in findings])

    def test_workloads_exempt(self):
        self.assertEqual(lint("src/workloads/d001_exempt.cpp"), [])


class TestD002(unittest.TestCase):
    def test_range_for_and_begin_fire(self):
        found = rules_and_lines(lint("src/analysis/d002_iteration.cpp"))
        self.assertIn(("D002", 11), found)  # range-for
        self.assertIn(("D002", 20), found)  # .begin()
        self.assertIn(("D002", 55), found)  # multi-line declaration

    def test_allowlist_lookups_and_ordered_do_not_fire(self):
        findings = lint("src/analysis/d002_iteration.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {11, 20, 55},
                         [f.render(FIXTURES) for f in findings])


class TestD003(unittest.TestCase):
    def test_fires_on_routing_paths_only(self):
        found = rules_and_lines(lint("src/routing/d003_hot_path.cpp"))
        self.assertEqual(found, {("D003", 6)})
        self.assertEqual(lint("src/analysis/d003_scoped_out.cpp"), [])

    def test_allowlist_suppresses(self):
        findings = lint("src/routing/d003_hot_path.cpp")
        self.assertTrue(all(f.line == 6 for f in findings))


class TestC001(unittest.TestCase):
    def test_undocumented_header_fires(self):
        findings = lint("src/util/widget.cpp")
        self.assertEqual([f.rule for f in findings], ["C001"])
        self.assertTrue(str(findings[0].path).endswith("widget.hpp"))

    def test_documented_header_is_clean(self):
        self.assertEqual(lint("src/util/gadget.cpp"), [])


class TestD004(unittest.TestCase):
    def test_fresh_vector_and_growth_fire(self):
        found = rules_and_lines(lint("src/routing/d004_route_into.cpp"))
        self.assertIn(("D004", 13), found)  # by-value local
        self.assertIn(("D004", 14), found)  # push_back on it

    def test_scratch_reuse_allow_and_call_sites_do_not_fire(self):
        findings = lint("src/routing/d004_route_into.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {13, 14},
                         [f.render(FIXTURES) for f in findings])

    def test_scoped_to_routing(self):
        # The same patterns outside src/routing/ are not D004's business.
        self.assertEqual(
            [f for f in lint("src/analysis/d003_scoped_out.cpp")
             if f.rule == "D004"], [])


class TestD005(unittest.TestCase):
    def test_uncounted_drop_requeue_and_status_fire(self):
        found = rules_and_lines(lint("src/fault/d005_drop.cpp"))
        self.assertIn(("D005", 12), found)  # bare tally bump
        self.assertIn(("D005", 41), found)  # kDropped with no counter
        self.assertIn(("D005", 50), found)  # requeue with no counter
        self.assertIn(("D005", 78), found)  # postfix bump

    def test_counted_allowed_merge_and_decl_do_not_fire(self):
        findings = lint("src/fault/d005_drop.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {12, 41, 50, 78},
                         [f.render(FIXTURES) for f in findings])

    def test_scoped_to_fault_and_simulator(self):
        self.assertEqual(lint("src/analysis/d005_scoped_out.cpp"), [])


class TestD007(unittest.TestCase):
    def test_qualified_and_bare_syscalls_fire(self):
        found = rules_and_lines(lint("src/daemon/d007_syscalls.cpp"))
        self.assertIn(("D007", 8), found)   # ::read
        self.assertIn(("D007", 12), found)  # ::send
        self.assertIn(("D007", 16), found)  # bare poll(

    def test_allow_helpers_and_lookalikes_do_not_fire(self):
        findings = lint("src/daemon/d007_syscalls.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {8, 12, 16},
                         [f.render(FIXTURES) for f in findings])

    def test_net_files_exempt_by_path(self):
        self.assertEqual(lint("src/daemon/net_exempt.cpp"), [])

    def test_covers_all_of_src(self):
        found = rules_and_lines(lint("src/analysis/d007_everywhere.cpp"))
        self.assertIn(("D007", 8), found)  # ::write in the analysis layer


class TestD008(unittest.TestCase):
    def test_naked_primitives_fire(self):
        found = rules_and_lines(lint("src/daemon/d008_naked_sync.cpp"))
        self.assertIn(("D008", 7), found)   # std::mutex
        self.assertIn(("D008", 8), found)   # std::condition_variable
        self.assertIn(("D008", 11), found)  # std::lock_guard (one per line)
        self.assertIn(("D008", 15), found)  # std::scoped_lock
        self.assertIn(("D008", 19), found)  # std::shared_mutex

    def test_allow_wrappers_and_comments_do_not_fire(self):
        findings = lint("src/daemon/d008_naked_sync.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {7, 8, 11, 15, 19},
                         [f.render(FIXTURES) for f in findings])

    def test_annotations_header_exempt_by_path(self):
        self.assertEqual(lint("src/util/thread_annotations.hpp"), [])


class TestD009(unittest.TestCase):
    def test_relaxed_accounting_access_fires(self):
        found = rules_and_lines(lint("src/daemon/d009_relaxed_accounting.cpp"))
        self.assertIn(("D009", 21), found)  # relaxed load of submitted tally
        self.assertIn(("D009", 22), found)  # relaxed load of dropped tally
        self.assertIn(("D009", 27), found)  # relaxed store

    def test_allow_acquire_rmw_and_nonaccounting_do_not_fire(self):
        findings = lint("src/daemon/d009_relaxed_accounting.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {21, 22, 27},
                         [f.render(FIXTURES) for f in findings])


class TestD010(unittest.TestCase):
    def test_direct_construction_fires(self):
        found = rules_and_lines(lint("src/analysis/d010_edge_load_map.cpp"))
        self.assertIn(("D010", 9), found)   # local
        self.assertIn(("D010", 10), found)  # copy-init
        self.assertIn(("D010", 11), found)  # make_unique
        self.assertIn(("D010", 12), found)  # new
        self.assertIn(("D010", 19), found)  # member declaration

    def test_factory_allow_refs_and_qualified_names_do_not_fire(self):
        findings = lint("src/analysis/d010_edge_load_map.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {9, 10, 11, 12, 19},
                         [f.render(FIXTURES) for f in findings])


class TestD011(unittest.TestCase):
    def test_errno_branches_fire(self):
        found = rules_and_lines(lint("src/daemon/d011_errno.cpp"))
        self.assertIn(("D011", 12), found)  # errno == EINTR
        self.assertIn(("D011", 15), found)  # reversed comparison
        self.assertIn(("D011", 18), found)  # switch (errno)

    def test_allow_and_lookalikes_do_not_fire(self):
        findings = lint("src/daemon/d011_errno.cpp")
        lines = {f.line for f in findings}
        self.assertEqual(lines, {12, 15, 18},
                         [f.render(FIXTURES) for f in findings])

    def test_chaos_files_exempt_by_path(self):
        self.assertEqual(lint("src/daemon/chaos_errno_exempt.cpp"), [])

    def test_net_files_exempt_by_path(self):
        self.assertEqual(
            [f for f in lint("src/daemon/net_exempt.cpp")
             if f.rule == "D011"], [])

    def test_scoped_to_daemon(self):
        self.assertEqual(lint("src/util/d011_scoped_out.cpp"), [])


class TestA001(unittest.TestCase):
    def test_allow_without_justification_flagged_and_ineffective(self):
        found = rules_and_lines(lint("src/util/bad_allow.cpp"))
        self.assertIn(("A001", 8), found)
        self.assertIn(("D002", 9), found)  # the bad allow does not suppress


class TestRepoIsClean(unittest.TestCase):
    def test_src_tree_has_no_findings(self):
        root = Path(__file__).resolve().parents[3]
        findings = []
        for path in oblv_lint.default_files(root):
            findings += oblv_lint.lint_file(path, root)
        self.assertEqual([f.render(root) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
