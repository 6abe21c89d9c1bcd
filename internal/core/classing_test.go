package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mumak/internal/apps/apptest/imagedup"
	"mumak/internal/apps/btree"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

// classingCases trims the cache fixtures for the stack-mode half of the
// classing matrix: stack mode re-executes the whole workload per live
// replay, so the slowest fixture is dropped there to keep the suite
// bounded. Counter mode runs the full set.
func classingCases(stackMode bool) []struct {
	name string
	mk   func() harness.Application
	w    workload.Workload
} {
	cases := cacheCases()
	if !stackMode {
		return cases
	}
	trimmed := cases[:0]
	for _, tc := range cases {
		if tc.name != "levelhash-bug" {
			trimmed = append(trimmed, tc)
		}
	}
	return trimmed
}

// TestClassingDifferential is the classing correctness contract: for
// every fixture, mode and worker count, the campaign's report — text
// and JSON — is byte-identical to the unclassed reference campaign, the
// injection coverage is unchanged, and the recovery runs collapse to
// one per crash-image equivalence class (members inherit, they are
// never re-judged).
func TestClassingDifferential(t *testing.T) {
	for _, stackMode := range []bool{false, true} {
		mode := "counter"
		if stackMode {
			mode = "stack"
		}
		for _, tc := range classingCases(stackMode) {
			tc, stackMode := tc, stackMode
			t.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(t *testing.T) {
				t.Parallel()
				base := core.Config{KeepWarnings: true, StackMode: stackMode}
				ref := analyzeReference(t, tc.name, tc.mk, tc.w, base)
				if ref.EquivClasses != 0 || ref.InheritedVerdicts != 0 || ref.ReplaysAvoided != 0 {
					t.Fatalf("reference run reported classing activity: %+v", ref)
				}
				want := renderReport(t, ref.Report)
				for _, workers := range []int{1, 4} {
					cfg := base
					cfg.Workers = workers
					res, err := core.Analyze(tc.mk(), tc.w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("workers=%d", workers)
					if got := renderReport(t, res.Report); got != want {
						t.Errorf("%s: classed report differs from the reference\n--- reference ---\n%s\n--- classed ---\n%s",
							label, want, got)
					}
					if res.Injections != ref.Injections || res.SkippedFailurePoints != ref.SkippedFailurePoints ||
						res.QuarantinedFailurePoints != ref.QuarantinedFailurePoints {
						t.Errorf("%s: coverage diverges: injections %d/%d skipped %d/%d quarantined %d/%d",
							label, res.Injections, ref.Injections,
							res.SkippedFailurePoints, ref.SkippedFailurePoints,
							res.QuarantinedFailurePoints, ref.QuarantinedFailurePoints)
					}
					if res.EquivClasses == 0 {
						t.Errorf("%s: no classes were built", label)
					}
					// Every inherited member recovered in the reference run;
					// nothing else changes.
					if res.Recoveries+res.InheritedVerdicts != ref.Recoveries {
						t.Errorf("%s: recoveries %d + inherited %d != reference recoveries %d",
							label, res.Recoveries, res.InheritedVerdicts, ref.Recoveries)
					}
					if res.SkippedFailurePoints == 0 && res.TargetPanics == 0 &&
						res.Recoveries != res.EquivClasses {
						t.Errorf("%s: %d recoveries for %d classes; want exactly one per class",
							label, res.Recoveries, res.EquivClasses)
					}
					if res.ReplaysAvoided < res.InheritedVerdicts {
						t.Errorf("%s: replays avoided %d < inherited %d", label,
							res.ReplaysAvoided, res.InheritedVerdicts)
					}
					if res.EngineEvents > ref.EngineEvents {
						t.Errorf("%s: classed campaign replayed more events (%d) than the reference (%d)",
							label, res.EngineEvents, ref.EngineEvents)
					}
				}
			})
		}
	}
}

// TestClassingDedupsScanPhase pins the perf win on the fixture built
// for duplication: imagedup's scan leaves share one crash image, so the
// campaign must inherit (not replay) all of them.
func TestClassingDedupsScanPhase(t *testing.T) {
	mkDup := func(name string) harness.Application {
		app, ok := imagedup.New(name)
		if !ok {
			t.Fatalf("unknown imagedup fixture %s", name)
		}
		return app
	}
	res, err := core.Analyze(mkDup("imagedup"), smallWorkload(3),
		core.Config{DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InheritedVerdicts == 0 {
		t.Fatal("high-duplication fixture inherited no verdicts")
	}
	if res.EquivClasses >= res.Injections {
		t.Fatalf("classing was vacuous: %d classes for %d injections",
			res.EquivClasses, res.Injections)
	}
	if res.CheckpointRestores != res.Injections-res.ReplaysAvoided || res.ReplaysAvoided == 0 {
		t.Errorf("%d restores for %d injections with %d replays avoided; inherited members must not replay",
			res.CheckpointRestores, res.Injections, res.ReplaysAvoided)
	}
}

// TestClassingEADRDifferential repeats the differential check under the
// extended persistence domain, whose instrumented run takes the eADR
// snapshot paths (and therefore the eADR rolling-hash paths).
func TestClassingEADRDifferential(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(7)
	cfg := core.Config{KeepWarnings: true, EADR: true}
	ref := analyzeReference(t, "btree-bug-seed7", mk, w, cfg)
	classed, err := core.Analyze(mk(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(t, classed.Report), renderReport(t, ref.Report); got != want {
		t.Errorf("eADR classed report differs from the reference\n--- reference ---\n%s\n--- classed ---\n%s", want, got)
	}
	if classed.Recoveries+classed.InheritedVerdicts != ref.Recoveries {
		t.Errorf("eADR recoveries %d + inherited %d != reference %d",
			classed.Recoveries, classed.InheritedVerdicts, ref.Recoveries)
	}
}

// TestPersistentVerdictCacheWarmMatchesCold is the cross-run contract:
// a campaign warmed from a previous identical campaign's persisted
// verdicts — round-tripped through the actual cache file — produces a
// byte-identical report while running zero recoveries for images the
// file had already judged.
func TestPersistentVerdictCacheWarmMatchesCold(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	cold, err := core.Analyze(mk(), w, core.Config{PersistVerdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.VerdictCache) == 0 {
		t.Fatal("PersistVerdicts exported no entries")
	}
	if cold.PersistentCacheHits != 0 {
		t.Fatalf("cold run claims %d persistent hits", cold.PersistentCacheHits)
	}
	want := renderReport(t, cold.Report)

	meta := campaign.Meta{Target: "fixture", Ops: 21, Seed: 21}
	path := filepath.Join(t.TempDir(), "verdicts.bin")
	if err := campaign.SaveVerdictCache(path, meta, cold.VerdictCache); err != nil {
		t.Fatal(err)
	}
	warmEntries, err := campaign.LoadVerdictCache(path, meta)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := core.Analyze(mk(), w, core.Config{WarmVerdicts: warmEntries, PersistVerdicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, warm.Report); got != want {
		t.Errorf("warm report differs from cold\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
	if warm.PersistentCacheHits == 0 {
		t.Error("warm run hit the persistent cache zero times")
	}
	if warm.PersistentCacheMisses != 0 || warm.ImageCacheMisses != 0 {
		t.Errorf("warm run missed %d images (%d recoveries run) the cold run should have judged",
			warm.PersistentCacheMisses, warm.ImageCacheMisses)
	}
	if warm.ReplaysAvoided != warm.Injections {
		t.Errorf("warm run avoided %d of %d replays; warming must elide every representative",
			warm.ReplaysAvoided, warm.Injections)
	}
}

// TestVerdictCacheFileDeterministic: the verdict-cache file a campaign
// saves does not depend on which worker judged which image first — one
// worker and four write the same bytes.
func TestVerdictCacheFileDeterministic(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	meta := campaign.Meta{Target: "fixture", Ops: 21, Seed: 21}
	var files [][]byte
	for _, workers := range []int{1, 4} {
		res, err := core.Analyze(mk(), w, core.Config{Workers: workers, PersistVerdicts: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.VerdictCache) < 2 {
			t.Fatalf("workers=%d: %d verdicts exported; the ordering check is vacuous", workers, len(res.VerdictCache))
		}
		path := filepath.Join(t.TempDir(), "verdicts.bin")
		if err := campaign.SaveVerdictCache(path, meta, res.VerdictCache); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("verdict-cache files differ between one worker and four")
	}
}

// TestClassingResumeByteIdentical crosses classing with crash-safe
// resume: a journaled campaign killed mid-run must resume to the
// reference report, with inherited verdicts flowing across the resume
// boundary (class templates are re-captured from the folded journal
// records).
func TestClassingResumeByteIdentical(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(21)
	cfg := journaledConfig(false, 1)
	ref, err := core.Analyze(mk(), w, core.Reference(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	full := t.TempDir()
	analyzeJournaled(t, mk, w, cfg, full)
	logLen := fileSize(t, filepath.Join(full, campaign.JournalFile))
	for _, cut := range []int64{1, logLen / 3, logLen / 2, logLen - 3} {
		dir := copyTruncated(t, full, cut, cut%2 == 0)
		res := analyzeResumed(t, mk, w, cfg, dir)
		label := fmt.Sprintf("cut=%d", cut)
		// EngineEvents are deliberately not compared: the reference
		// re-executes every leaf, and a resumed campaign may also elide
		// representatives through snapshot-loaded table entries.
		if got, want := renderReport(t, res.Report), renderReport(t, ref.Report); got != want {
			t.Errorf("%s: resumed classed report differs\n--- reference ---\n%s\n--- resumed ---\n%s",
				label, want, got)
		}
		if res.Injections != ref.Injections || res.SkippedFailurePoints != ref.SkippedFailurePoints ||
			res.QuarantinedFailurePoints != ref.QuarantinedFailurePoints {
			t.Errorf("%s: coverage diverges: injections %d/%d skipped %d/%d quarantined %d/%d",
				label, res.Injections, ref.Injections, res.SkippedFailurePoints, ref.SkippedFailurePoints,
				res.QuarantinedFailurePoints, ref.QuarantinedFailurePoints)
		}
	}
}
