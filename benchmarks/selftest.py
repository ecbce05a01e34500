"""Self-tests of the benchmark harness.

    python3 benchmarks/selftest.py

Run from the root of a source checkout. They check that a seed fixes the
corpus, that the oracles accept the current program's outputs and reject a
wrong one, and the span self-time arithmetic.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import sys
import tempfile
import unittest

import corpus
import run
import spans


class CorpusTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.mkdtemp(dir=run.WORK)

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp)

    def generate(self, workload: str, seed: int, name: str) -> corpus.Corpus:
        return corpus.generate(workload, seed, str(run.FIXTURES),
                               os.path.join(self.tmp, name))

    def test_same_seed_same_corpus(self) -> None:
        for workload in run.WORKLOADS:
            first = self.generate(workload, 7, f"{workload}-a")
            second = self.generate(workload, 7, f"{workload}-b")
            for a, b in zip(first.all_paths(), second.all_paths()):
                self.assertTrue(filecmp.cmp(a, b, shallow=False), (a, b))
            self.assertEqual(
                [[os.path.basename(a) for a in argv] for argv, _ in
                 first.invocations],
                [[os.path.basename(a) for a in argv] for argv, _ in
                 second.invocations])

    def test_seed_keeps_sizes_and_expected_counts(self) -> None:
        for workload in ("wrap", "lattice"):
            first = self.generate(workload, 1, f"{workload}-1")
            other = self.generate(workload, 2, f"{workload}-2")
            texts = [[corpus.read_text(p) for p in c.all_paths()]
                     for c in (first, other)]
            self.assertNotEqual(texts[0], texts[1])
            self.assertEqual(sum(map(len, texts[0])), sum(map(len, texts[1])))
            for a, b in zip(first.groups, other.groups):
                self.assertEqual(a.annotations, b.annotations)
                self.assertEqual(a.inherited_sources, b.inherited_sources)

    def test_lattice_counts_by_construction(self) -> None:
        text, inherited = corpus.lattice_family("T", 10, reverse=True)
        # levels 1..9 and the usages typed by levels 0 and 5
        self.assertEqual(inherited, 9 + 2)
        counts = corpus.count_annotations(text)
        self.assertEqual(counts["Uncertainty"], 3 + 2)
        self.assertEqual(counts["IndeterminacySource"], 2)
        self.assertLess(text.index("LT_9 "), text.index("LT_0 "))

    def test_count_annotations_reads_every_entry(self) -> None:
        counts = corpus.count_annotations(
            "«Uncertainty<ocr, epi, subj>, Effect» transition t;\n"
            "<<BeliefStatement>> part b; «UncertaintyTopic» item def T;")
        self.assertEqual(counts["Uncertainty"], 1)
        self.assertEqual(counts["Effect"], 1)
        self.assertEqual(counts["BeliefStatement"], 1)
        self.assertEqual(counts["UncertaintyTopic"], 1)


class OracleTest(unittest.TestCase):
    """The oracles pass on this checkout and fail on a wrong answer."""

    def test_check_and_pipeline_pass(self) -> None:
        for workload in ("lattice", "cli"):
            bench = run.Run(workload, 3)
            bench.compile()
            self.assertIsNotNone(bench.check())
            self.assertIsNotNone(bench.pipeline())
            for argv, expected in bench.corpus.invocations[:8]:
                self.assertIsNotNone(bench.cli(argv, expected))
            bench.remove_inputs()
            self.assertEqual(bench.client.failed, 0, workload)

    def test_wrong_count_is_a_failure(self) -> None:
        bench = run.Run("lattice", 3)
        group = bench.corpus.groups[0]
        facts = {"exit": 0, "errors": 0, "annotations": group.annotations,
                 "inherited_sources": group.inherited_sources - 1}
        self.assertFalse(bench.check_facts([facts], "mutant"))
        bench.remove_inputs()
        self.assertEqual(bench.client.failed, 1)

    def test_changed_output_is_a_failure(self) -> None:
        bench = run.Run("cli", 3)
        self.assertTrue(bench.same_output("k", "a", "x", "first"))
        self.assertTrue(bench.same_output("k", "a", "y", "key order"))
        self.assertEqual(bench.byte_variants["k"], {"x", "y"})
        self.assertFalse(bench.same_output("k", "b", "z", "second"))
        bench.remove_inputs()
        self.assertEqual(bench.client.failed, 1)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self) -> None:
        recorded = [
            spans.Span("pipeline", 0.0, 10.0, -1, 0),
            spans.Span("step.check", 1.0, 7.0, 0, 0),
            spans.Span("syntax.parse_file", 1.5, 4.0, 1, 0),
            spans.Span("model.build", 4.0, 6.5, 1, 0),
            spans.Span("reporting.render", 8.0, 9.0, 0, 0),
            spans.Span("pipeline", 20.0, 21.0, -1, 1),
        ]
        self.assertEqual(spans.self_times(recorded),
                         [3.0, 1.0, 2.5, 2.5, 1.0, 1.0])
        totals = spans.totals(recorded, 0)
        self.assertEqual(totals["pipeline"], 3.0)
        self.assertAlmostEqual(sum(totals.values()), 10.0)
        self.assertEqual(spans.totals(recorded, 1), {"pipeline": 1.0})

    def test_tracer_nests_and_tags_runs(self) -> None:
        tracer = spans.Tracer()
        with tracer.span("pipeline"):
            tracer.call("model.build", sum, [1, 2])
        tracer.run = 1
        tracer.call("lexer.tokenize", len, "abc")
        self.assertEqual([(s.name, s.parent, s.run) for s in tracer.spans],
                         [("pipeline", -1, 0), ("model.build", 0, 0),
                          ("lexer.tokenize", -1, 1)])
        own = spans.self_times(tracer.spans)
        self.assertTrue(all(t >= 0 for t in own))


if __name__ == "__main__":
    if not (run.SRC / "psumlint").is_dir():
        sys.exit("selftest: run from a psumlint source checkout")
    run.WORK.mkdir(exist_ok=True)
    unittest.main()
