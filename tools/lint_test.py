#!/usr/bin/env python3
"""Self-tests for the project linter (tools/lint2/).

Each rule gets fixture snippets that must fire and near-miss snippets that
must not, plus coverage of the `// lint-ok:` suppression syntax, the
allowlist, and the libclang-unavailable fallback path.  Fixtures are
written to a throwaway directory that stands in for the repo root, so the
tests never touch the real tree; a final test asserts the committed tree
itself is clean (the same gate CI applies).

Run directly: `python3 tools/lint_test.py` (CI runs this in the lint job).
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.lint2 import RULES, allowlist, engine, source, text_checks  # noqa: E402


class FixtureRepo:
    """Throwaway directory posing as a repo root for fixture files."""

    def __init__(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="lint_selftest_")
        self.root = Path(self._tmp.name)

    def write(self, rel: str, body: str) -> Path:
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(body), encoding="utf-8")
        return p

    def cleanup(self) -> None:
        self._tmp.cleanup()


class LintBase(unittest.TestCase):
    """Runs fixtures through the full text backend and its
    suppression/allowlist filter."""

    def setUp(self) -> None:
        self.repo = FixtureRepo()

    def tearDown(self) -> None:
        self.repo.cleanup()

    def lint(self, rel: str, body: str, rule: str | None = None):
        sf = source.load(self.repo.write(rel, body), self.repo.root)
        found = engine.filter_findings(text_checks.run_text_checks([sf]),
                                       {sf.rel: sf})
        return [f for f in found if rule is None or f.rule == rule]

    def rules_of(self, findings) -> set[str]:
        return {f.rule for f in findings}


class LineRules(LintBase):
    def test_wall_clock_fires_and_suppresses(self) -> None:
        hit = self.lint("src/a.cpp",
                        "auto t = std::chrono::steady_clock::now();\n")
        self.assertIn("wall-clock", self.rules_of(hit))
        ok = self.lint("src/b.cpp",
                       "auto t = std::chrono::steady_clock::now();"
                       "  // lint-ok: wall-clock\n")
        self.assertEqual(ok, [])

    def test_wall_clock_ignores_strings_and_comments(self) -> None:
        self.assertEqual(self.lint("src/a.cpp",
                                   's = "steady_clock";\n'
                                   "// steady_clock in a comment\n"), [])

    def test_raw_random(self) -> None:
        self.assertIn("raw-random",
                      self.rules_of(self.lint("src/a.cpp",
                                              "int x = rand();\n")))

    def test_float_eq_fires_on_literal_not_ordered(self) -> None:
        self.assertIn("float-eq",
                      self.rules_of(self.lint("src/a.cpp",
                                              "if (a == 1.0) {}\n")))
        self.assertEqual(self.lint("src/b.cpp", "if (a <= 1.0) {}\n"), [])

    def test_ns_in_header_only(self) -> None:
        body = "using namespace std;\n"
        self.assertIn("ns-in-header",
                      self.rules_of(self.lint("src/a.h", body)))
        self.assertEqual(self.lint("src/a.cpp", body), [])

    def test_machine_speed_outside_machine(self) -> None:
        body = "double d = m.type().task_runtime(spec);\n"
        self.assertIn("machine-speed",
                      self.rules_of(self.lint("src/sched/a.cpp", body)))

    def test_unordered_member_in_every_order_sensitive_dir(self) -> None:
        # Includes the dirs this PR added: net, hdfs, tenancy, audit.
        body = "std::unordered_map<int, int> m_;\n"
        for d in ("mapreduce", "sched", "core", "sim",
                  "net", "hdfs", "tenancy", "audit"):
            with self.subTest(dir=d):
                self.assertIn(
                    "unordered-iter",
                    self.rules_of(self.lint(f"src/{d}/x_{d}.h", body)))
        self.assertEqual(self.lint("src/workload/x.h", body), [])

    def test_unordered_declaration_allowlist(self) -> None:
        body = "std::unordered_set<EventId> queued_;\n"
        self.assertEqual(self.lint("src/sim/simulator.h", body), [])
        self.assertIn("unordered-iter",
                      self.rules_of(self.lint("src/sim/other.h", body)))

    def test_tests_and_examples_are_scanned(self) -> None:
        self.assertIn("tests", engine.SCAN_DIRS)
        self.assertIn("examples", engine.SCAN_DIRS)
        self.assertIn("float-eq",
                      self.rules_of(self.lint("tests/a_test.cpp",
                                              "if (a == 1.0) {}\n")))
        self.assertIn("wall-clock",
                      self.rules_of(self.lint("examples/a.cpp",
                                              "auto t = std::chrono::"
                                              "steady_clock::now();\n")))

    def test_strip_comments_tracks_block_state(self) -> None:
        code, in_block = source.strip_comments_and_strings("a /* b", False)
        self.assertTrue(in_block)
        code, in_block = source.strip_comments_and_strings("c */ d", in_block)
        self.assertFalse(in_block)
        self.assertIn("d", code)
        self.assertNotIn("c", code)


class GlobalState(LintBase):
    def test_namespace_scope_static_fires(self) -> None:
        hits = self.lint("src/core/a.cpp",
                         "namespace eant {\nstatic int counter = 0;\n}\n",
                         "global-state")
        self.assertEqual(len(hits), 1)
        self.assertEqual(hits[0].symbol, "counter")
        self.assertIn("namespace-scope", hits[0].message)

    def test_function_local_static_fires(self) -> None:
        hits = self.lint("src/core/a.cpp", """\
            void f() {
              static bool warned = false;
              warned = true;
            }
            """, "global-state")
        self.assertEqual(len(hits), 1)
        self.assertIn("function-local", hits[0].message)

    def test_const_and_constexpr_are_immutable(self) -> None:
        self.assertEqual(self.lint("src/core/a.cpp", """\
            static const int kA = 1;
            static constexpr double kB = 2.0;
            void f() { static constexpr int kC = 3; }
            """, "global-state"), [])

    def test_static_function_is_linkage_not_state(self) -> None:
        self.assertEqual(self.lint("src/core/a.cpp",
                                   "static int helper(int x) { return x; }\n",
                                   "global-state"), [])

    def test_static_member_declaration_is_out_of_scope(self) -> None:
        self.assertEqual(self.lint("src/core/a.h", """\
            class Foo {
              static int next_id_;
            };
            """, "global-state"), [])

    def test_suppression_comment(self) -> None:
        self.assertEqual(self.lint(
            "src/core/a.cpp",
            "static int hits = 0;  // lint-ok: global-state\n",
            "global-state"), [])

    def test_outside_src_is_not_scanned(self) -> None:
        self.assertEqual(self.lint("bench/a.cpp", "static int n = 0;\n",
                                   "global-state"), [])


class RngDiscipline(LintBase):
    def test_default_construction_fires(self) -> None:
        hits = self.lint("src/core/a.cpp", "void f() { Rng rng; }\n",
                         "rng-discipline")
        self.assertEqual(len(hits), 1)

    def test_member_declaration_is_fine(self) -> None:
        self.assertEqual(self.lint("src/core/a.h", """\
            class Foo {
              Rng rng_;
            };
            """, "rng-discipline"), [])

    def test_copy_init_fires_fork_does_not(self) -> None:
        self.assertEqual(len(self.lint("src/core/a.cpp",
                                       "Rng copy = rng;\n",
                                       "rng-discipline")), 1)
        self.assertEqual(self.lint("src/core/b.cpp",
                                   "Rng child = rng.fork(1);\n",
                                   "rng-discipline"), [])
        self.assertEqual(self.lint("src/core/c.cpp",
                                   "Rng rng(seed);\n", "rng-discipline"), [])

    def test_auto_copy_fires_reference_does_not(self) -> None:
        self.assertEqual(len(self.lint("src/core/a.cpp", "auto r = rng;\n",
                                       "rng-discipline")), 1)
        self.assertEqual(self.lint("src/core/b.cpp", "auto& r = rng;\n",
                                   "rng-discipline"), [])

    def test_byval_param_constructor_sink_is_blessed(self) -> None:
        self.assertEqual(self.lint("src/core/a.h", """\
            class Widget {
             public:
              Widget(int n, Rng rng);
            };
            """, "rng-discipline"), [])

    def test_byval_param_multiline_constructor_is_blessed(self) -> None:
        self.assertEqual(self.lint("src/core/a.h", """\
            class Injector {
             public:
              Injector(int a, int b,
                       Rng rng, double x);
            };
            """, "rng-discipline"), [])

    def test_byval_param_on_free_function_fires(self) -> None:
        hits = self.lint("src/core/a.h", "double jitter(Rng rng);\n",
                         "rng-discipline")
        self.assertEqual(len(hits), 1)
        self.assertIn("jitter", hits[0].message)

    def test_reference_param_is_fine(self) -> None:
        self.assertEqual(self.lint("src/core/a.h",
                                   "double jitter(Rng& rng);\n",
                                   "rng-discipline"), [])

    def test_draw_inside_unordered_loop_fires(self) -> None:
        hits = self.lint("src/core/a.h", """\
            class Thing {
             public:
              void tick(Rng& rng) {
                for (const auto& [k, v] : table_) {
                  total_ += v * rng.uniform();
                }
              }
             private:
              std::unordered_map<int, double> table_;
              double total_ = 0.0;
            };
            """, "rng-discipline")
        self.assertEqual(len(hits), 1)
        self.assertIn("hash-ordered", hits[0].message)

    def test_draw_in_ordered_loop_is_fine(self) -> None:
        self.assertEqual(self.lint("src/core/a.h", """\
            class Thing {
             public:
              void tick(Rng& rng) {
                for (const auto& [k, v] : table_) {
                  total_ += v * rng.uniform();
                }
              }
             private:
              std::map<int, double> table_;
              double total_ = 0.0;
            };
            """, "rng-discipline"), [])


class UnorderedIter(LintBase):
    FIXTURE = """\
        class Thing {
         public:
          double sum() const {
            double s = 0.0;
            for (const auto& [k, v] : table_) {
              s += v;
            }
            return s;
          }
         private:
          std::unordered_map<int, double> table_;
        };
        """

    def test_range_for_fires_in_order_sensitive_dir(self) -> None:
        # The loop (line 5) and the member declaration (line 11).
        hits = self.lint("src/core/a.h", self.FIXTURE, "unordered-iter")
        self.assertEqual([h.line for h in hits], [5, 11])
        self.assertEqual({h.symbol for h in hits}, {"table_"})

    def test_not_flagged_outside_order_sensitive_dirs(self) -> None:
        self.assertEqual(self.lint("src/workload/a.h", self.FIXTURE,
                                   "unordered-iter"), [])

    def test_begin_iteration_fires(self) -> None:
        # The loop (line 2) and the parameter's declaration (line 1).
        hits = self.lint("src/sched/a.cpp", """\
            void drain(std::unordered_set<int>& live_) {
              for (auto it = live_.begin(); it != live_.end(); ++it) {
                use(*it);
              }
            }
            """, "unordered-iter")
        self.assertEqual([h.line for h in hits], [1, 2])
        self.assertEqual(hits[1].symbol, "live_")

    def test_ordered_map_is_fine(self) -> None:
        self.assertEqual(self.lint("src/core/a.h", """\
            class Thing {
              std::map<int, double> table_;
              double sum() const {
                double s = 0.0;
                for (const auto& [k, v] : table_) s += v;
                return s;
              }
            };
            """, "unordered-iter"), [])

    def test_allowlist_silences(self) -> None:
        key = ("unordered-iter", "src/core/a.h", "table_")
        allowlist.ALLOWLIST[key] = "self-test entry"
        try:
            self.assertEqual(self.lint("src/core/a.h", self.FIXTURE,
                                       "unordered-iter"), [])
        finally:
            del allowlist.ALLOWLIST[key]


class ObserverCompleteness(LintBase):
    def test_mutation_without_tap_fires(self) -> None:
        hits = self.lint("src/mapreduce/task_tracker.cpp", """\
            void TaskTracker::occupy_slot(const TaskSpec& spec) {
              ++running_maps_;
            }
            """, "observer-completeness")
        self.assertEqual(len(hits), 1)
        self.assertEqual(hits[0].symbol, "TaskTracker::occupy_slot")

    def test_mutation_with_tap_is_complete(self) -> None:
        self.assertEqual(self.lint("src/mapreduce/task_tracker.cpp", """\
            void TaskTracker::occupy_slot(const TaskSpec& spec) {
              ++running_maps_;
              audit_transition(job_tracker_, spec, machine_.id(),
                               audit::TaskEvent::kLaunch);
            }
            """, "observer-completeness"), [])

    def test_release_slot_delegate_is_allowlisted(self) -> None:
        # The real allowlist blesses the slot-release delegate by name.
        self.assertEqual(self.lint("src/mapreduce/task_tracker.cpp", """\
            void TaskTracker::release_slot(TaskKind kind) {
              --running_maps_;
            }
            """, "observer-completeness"), [])

    def test_other_files_are_not_audited(self) -> None:
        self.assertEqual(self.lint("src/mapreduce/other.cpp", """\
            void f() { ++running_maps_; }
            """, "observer-completeness"), [])

    def test_revert_without_tap_fires(self) -> None:
        hits = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::replay(JobState& js) {
              js.revert_done_map(1, 2.0, 3);
            }
            """, "observer-completeness")
        self.assertEqual(len(hits), 1)
        self.assertIn("kRevertDone", hits[0].message)

    def test_revert_with_nearby_tap_is_complete(self) -> None:
        self.assertEqual(self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::replay(JobState& js) {
              js.revert_done_map(1, 2.0, 3);
              if (auditor_) {
                auditor_->on_task_transition(job, true, 1,
                                             audit::TaskEvent::kRevertDone, 3);
              }
            }
            """, "observer-completeness"), [])

    def test_orphan_writeoff_needs_tap_or_delegate(self) -> None:
        bare = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::drop(const TaskReport& waste) {
              report_waste(waste, WasteReason::kOrphaned);
            }
            """, "observer-completeness")
        self.assertEqual(len(bare), 1)
        with_delegate = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::drop(TaskTracker& t, const TaskReport& waste) {
              t.cancel_task(waste.spec.job, waste.spec.kind, waste.spec.index);
              report_waste(waste, WasteReason::kOrphaned);
            }
            """, "observer-completeness")
        self.assertEqual(with_delegate, [])

    def test_corruption_detection_needs_record(self) -> None:
        bare = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::confirm_corruption(hdfs::BlockId block,
                                                cluster::MachineId node) {
              ++counters_.corruptions_detected;
            }
            """, "observer-completeness")
        self.assertEqual(len(bare), 1)
        self.assertIn("kCorruptionDetected", bare[0].message)
        with_record = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::confirm_corruption(hdfs::BlockId block,
                                                cluster::MachineId node) {
              ++counters_.corruptions_detected;
              if (auditor_) {
                auditor_->record(audit::Record::kCorruptionDetected,
                                 (block << 32) ^ node);
              }
            }
            """, "observer-completeness")
        self.assertEqual(with_record, [])
        # The shuffle and task-output detection counters are held to the
        # same obligation.
        shuffle = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::on_flow_complete(net::FlowId id) {
              ++counters_.shuffle_corruptions;
            }
            """, "observer-completeness")
        self.assertEqual(len(shuffle), 1)

    def test_counter_record_fields_fire_without_record(self) -> None:
        # The tallies are JobTrackerCounters fields: every data-integrity
        # counter, bumped through counters_ with no record nearby, fires.
        for mutation in ("++counters_.corruptions_detected;",
                         "counters_.shuffle_corruptions += 1;",
                         "++counters_.task_output_corruptions;",
                         "counters_.scrubbed_mb += mb;",
                         "counters_.corruptions_repaired++;"):
            with self.subTest(mutation=mutation):
                hits = self.lint("src/mapreduce/job_tracker.cpp",
                                 "void JobTracker::f() {\n"
                                 f"  {mutation}\n"
                                 "}\n", "observer-completeness")
                self.assertEqual(len(hits), 1)

    def test_scrub_and_repair_need_records(self) -> None:
        bare = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::scrub_tick() {
              counters_.scrubbed_mb += mb;
              ++counters_.corruptions_repaired;
            }
            """, "observer-completeness")
        self.assertEqual({h.symbol for h in bare},
                         {"counters_.scrubbed_mb",
                          "counters_.corruptions_repaired"})
        with_records = self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::scrub_tick() {
              counters_.scrubbed_mb += mb;
              if (auditor_) auditor_->record(audit::Record::kScrub, scanned);
              ++counters_.corruptions_repaired;
              auditor_->record(audit::Record::kRepair, (block << 32) ^ target);
            }
            """, "observer-completeness")
        self.assertEqual(with_records, [])
        # The conservation sums in finalize_corruption only *read* the
        # counters — comparisons and additions are not mutations.
        self.assertEqual(self.lint("src/mapreduce/job_tracker.cpp", """\
            void JobTracker::finalize_corruption() {
              if (counters_.corruptions_detected !=
                  counters_.corruptions_repaired + counters_.corruptions_lost +
                      pending) {
                report();
              }
            }
            """, "observer-completeness"), [])

    def test_admission_state_mutation_needs_record(self) -> None:
        bare = self.lint("src/mapreduce/admission.cpp", """\
            void AdmissionControl::transition_to(OverloadState next) {
              state_ = next;
            }
            """, "observer-completeness")
        self.assertEqual(len(bare), 1)
        self.assertIn("kOverloadState", bare[0].message)
        with_record = self.lint("src/mapreduce/admission.cpp", """\
            void AdmissionControl::transition_to(OverloadState next) {
              state_ = next;
              if (auditor_ != nullptr) {
                auditor_->record(audit::Record::kOverloadState,
                                 static_cast<std::uint64_t>(next));
              }
            }
            """, "observer-completeness")
        self.assertEqual(with_record, [])

    def test_admission_ledger_mutations_need_records(self) -> None:
        bare = self.lint("src/mapreduce/admission.cpp", """\
            bool AdmissionControl::note_rejection(const JobSpec& spec) {
              ++led.rejections;
              ++led.dropped;
              ++led.retries;
              return false;
            }
            """, "observer-completeness")
        self.assertEqual({h.symbol for h in bare}, {"rejections", "retries"})
        with_records = self.lint("src/mapreduce/admission.cpp", """\
            bool AdmissionControl::note_rejection(const JobSpec& spec) {
              ++led.rejections;
              auditor_->record(audit::Record::kJobReject, spec.tenant);
              ++led.retries;
              auditor_->record(audit::Record::kJobRetry, spec.tenant);
              return true;
            }
            """, "observer-completeness")
        self.assertEqual(with_records, [])
        # Reads of the counters (aggregation loops) are not mutations.
        self.assertEqual(self.lint("src/mapreduce/admission.cpp", """\
            std::size_t AdmissionControl::total_rejections() const {
              std::size_t n = 0;
              for (const auto& [t, led] : ledgers_) n += led.rejections;
              return n;
            }
            """, "observer-completeness"), [])


class EngineAndFallback(unittest.TestCase):
    def test_rule_registry_matches_docs(self) -> None:
        self.assertEqual(set(RULES),
                         {"wall-clock", "raw-random", "float-eq",
                          "ns-in-header", "machine-speed",
                          "global-state", "rng-discipline",
                          "unordered-iter", "observer-completeness"})

    def test_committed_tree_is_clean_text_mode(self) -> None:
        findings, notes = engine.run([], "text", None)
        self.assertEqual([f.render() for f in findings], [])
        self.assertTrue(any("text" in n for n in notes))

    def test_auto_mode_degrades_gracefully(self) -> None:
        # Whether or not libclang is present, auto mode must complete and
        # say which backend ran.
        findings, notes = engine.run(["src/common"], None or "auto", None)
        self.assertIsInstance(findings, list)
        self.assertTrue(any("AST" in n or "fallback" in n for n in notes))

    def test_committed_tree_is_clean_under_ast_when_available(self) -> None:
        from tools.lint2.ast_checks import ast_available
        reason = ast_available()
        if reason is not None:
            self.skipTest(f"AST backend unavailable: {reason}")
        cc = REPO / "build" / "compile_commands.json"
        findings, _ = engine.run([], "ast", str(cc) if cc.is_file() else None)
        self.assertEqual([f.render() for f in findings], [])

    def test_cli_entrypoint_lists_rules(self) -> None:
        out = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint2"), "--list-rules"],
            capture_output=True, text=True, cwd=REPO, check=True)
        self.assertEqual(out.stdout.split(), list(RULES))

    def test_cli_committed_tree_is_clean(self) -> None:
        out = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint2"), "--no-ast"],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
