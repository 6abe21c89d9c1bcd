package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest/imagedup"
	"mumak/internal/apps/btree"
	"mumak/internal/apps/levelhash"
	"mumak/internal/bugs"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/report"
	"mumak/internal/workload"
)

// renderReport captures everything a consumer of a report can observe:
// the human-readable rendering (with warnings) and the JSON emission.
func renderReport(t *testing.T, rep *report.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	return rep.Format(true) + "\n--- json ---\n" + buf.String()
}

// referenceRuns memoises reference campaigns (core.Reference) by
// fixture name and configuration. The reference re-executes every
// failure point from scratch, so suites that compare against the same
// fixture share one run; callers only read the shared result.
var referenceRuns sync.Map // string -> *referenceRun

type referenceRun struct {
	once sync.Once
	res  *core.Result
	err  error
}

// analyzeReference returns the reference campaign's result for the
// named fixture under cfg. name must identify mk and w uniquely.
func analyzeReference(t *testing.T, name string, mk func() harness.Application,
	w workload.Workload, cfg core.Config) *core.Result {
	t.Helper()
	v, _ := referenceRuns.LoadOrStore(fmt.Sprintf("%s %+v", name, cfg), &referenceRun{})
	r := v.(*referenceRun)
	r.once.Do(func() { r.res, r.err = core.Analyze(mk(), w, core.Reference(cfg)) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.res
}

// cacheCases are the differential fixtures: targets with real findings,
// a finding-free high-duplication target, and a target whose recovery
// rejects everything.
func cacheCases() []struct {
	name string
	mk   func() harness.Application
	w    workload.Workload
} {
	newDup := func(name string) func() harness.Application {
		return func() harness.Application {
			app, ok := imagedup.New(name)
			if !ok {
				panic("unknown imagedup fixture " + name)
			}
			return app
		}
	}
	return []struct {
		name string
		mk   func() harness.Application
		w    workload.Workload
	}{
		{
			name: "btree-bug",
			mk: func() harness.Application {
				return btree.New(cfgSPT(btree.BugCountOutsideTx))
			},
			w: smallWorkload(21),
		},
		{
			name: "levelhash-bug",
			mk: func() harness.Application {
				return levelhash.New(apps.Config{
					PoolSize: 2 << 20, WithRecovery: true,
					Bugs: bugs.Enable("levelhash/c01-top-slot-count-order"),
				})
			},
			w: workload.Generate(workload.Config{N: 300, Seed: 8, Keyspace: 150, PutFrac: 3, GetFrac: 1, DeleteFrac: 1}),
		},
		{name: "imagedup", mk: newDup("imagedup"), w: smallWorkload(3)},
		{name: "imagedup-broken", mk: newDup("imagedup-broken"), w: smallWorkload(3)},
	}
}

// TestImageCacheDifferential is the verdict table's correctness
// contract: for every fixture, the report of a campaign with one worker
// and with four is byte-identical (text and JSON) to the reference
// campaign, which judges every crash image with its own recovery run,
// and the table accounts for every delivered verdict.
func TestImageCacheDifferential(t *testing.T) {
	for _, tc := range cacheCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := analyzeReference(t, tc.name, tc.mk, tc.w, core.Config{KeepWarnings: true})
			if ref.ImageCacheHits != 0 || ref.ImageCacheMisses != 0 || ref.ImageCacheEntries != 0 {
				t.Fatalf("reference campaign reported verdict-table traffic: %+v", ref)
			}
			want := renderReport(t, ref.Report)
			for _, workers := range []int{1, 4} {
				res, err := core.Analyze(tc.mk(), tc.w, core.Config{KeepWarnings: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				if got := renderReport(t, res.Report); got != want {
					t.Errorf("%s: report differs from the reference\n--- reference ---\n%s\n--- %s ---\n%s",
						label, want, label, got)
				}
				if res.Injections != ref.Injections || res.Recoveries+res.InheritedVerdicts != ref.Recoveries ||
					res.SkippedFailurePoints != ref.SkippedFailurePoints {
					t.Errorf("%s: counters diverge: injections %d/%d recoveries %d+%d/%d skipped %d/%d",
						label, res.Injections, ref.Injections, res.Recoveries, res.InheritedVerdicts, ref.Recoveries,
						res.SkippedFailurePoints, ref.SkippedFailurePoints)
				}
				if res.ImageCacheHits+res.ImageCacheMisses != res.Recoveries {
					t.Errorf("%s: table traffic %d+%d does not account for %d recoveries",
						label, res.ImageCacheHits, res.ImageCacheMisses, res.Recoveries)
				}
				if res.ImageCacheEntries > res.ImageCacheMisses {
					t.Errorf("%s: %d entries exceed %d recovery executions", label, res.ImageCacheEntries, res.ImageCacheMisses)
				}
			}
		})
	}
}

// TestImageCacheDedupsScanPhase pins down the perf win on the fixture
// built for it: the imagedup scan phase re-persists durable data, so
// every scan leaf (and the deepest fill leaf) shares one crash image
// and is judged by a single recovery execution.
func TestImageCacheDedupsScanPhase(t *testing.T) {
	app, _ := imagedup.New("imagedup")
	res, err := core.Analyze(app, smallWorkload(3), core.Config{DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections == 0 {
		t.Fatal("fixture injected nothing; dedup check is vacuous")
	}
	// depth+scan leaves plus setup: scan rounds and the deepest fill
	// leaf share an image, so at least DefaultScanRounds verdicts are
	// delivered without a recovery execution.
	if shared := res.InheritedVerdicts + res.ImageCacheHits; shared < imagedup.DefaultScanRounds {
		t.Errorf("shared verdicts = %d, want >= %d (scan-phase leaves share one image)",
			shared, imagedup.DefaultScanRounds)
	}
	if res.ImageCacheMisses == 0 || res.ImageCacheEntries == 0 {
		t.Errorf("misses = %d, entries = %d; first sight of each image must miss and populate",
			res.ImageCacheMisses, res.ImageCacheEntries)
	}
	if res.ImageCacheEntries > res.ImageCacheMisses {
		t.Errorf("entries = %d exceeds misses = %d", res.ImageCacheEntries, res.ImageCacheMisses)
	}
}

// TestImageCacheRecurringImageDistinctICounts checks that a shared
// verdict still yields one finding per failure point: imagedup-broken's
// scan leaves crash at distinct instruction counters but share a single
// Unrecoverable verdict, and every finding keeps its own ICount.
func TestImageCacheRecurringImageDistinctICounts(t *testing.T) {
	app, _ := imagedup.New("imagedup-broken")
	res, err := core.Analyze(app, smallWorkload(3), core.Config{DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InheritedVerdicts == 0 {
		t.Fatal("no shared verdicts; recurring-image check is vacuous")
	}
	bugs := res.Report.Bugs()
	if len(bugs) != res.Injections {
		t.Fatalf("broken recovery produced %d findings for %d injections", len(bugs), res.Injections)
	}
	icounts := make(map[uint64]bool)
	for _, f := range bugs {
		icounts[f.ICount] = true
	}
	if len(icounts) != len(bugs) {
		t.Errorf("findings share instruction counters: %d distinct of %d findings", len(icounts), len(bugs))
	}
}

// TestImageCacheEADRDifferential repeats the differential check under
// the extended persistence domain, whose instrumented run takes the
// eADR snapshot paths.
func TestImageCacheEADRDifferential(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSPT(btree.BugCountOutsideTx)) }
	w := smallWorkload(7)
	cfg := core.Config{KeepWarnings: true, EADR: true}
	ref := analyzeReference(t, "btree-bug-seed7", mk, w, cfg)
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, err := core.Analyze(mk(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderReport(t, res.Report), renderReport(t, ref.Report); got != want {
			t.Errorf("workers=%d: eADR report differs from the reference\n--- reference ---\n%s\n--- campaign ---\n%s",
				workers, want, got)
		}
		if res.Injections != ref.Injections || res.Recoveries+res.InheritedVerdicts != ref.Recoveries {
			t.Errorf("workers=%d: eADR counters diverge: injections %d/%d recoveries %d+%d/%d",
				workers, res.Injections, ref.Injections, res.Recoveries, res.InheritedVerdicts, ref.Recoveries)
		}
	}
}

// TestImageCacheStackModeDifferential covers the stack-mode campaign's
// cachedCheck call site against the re-executing reference.
func TestImageCacheStackModeDifferential(t *testing.T) {
	app, _ := imagedup.New("imagedup-broken")
	w := smallWorkload(5)
	ref, err := core.Analyze(app, w, core.Reference(core.Config{StackMode: true, DisableTraceAnalysis: true}))
	if err != nil {
		t.Fatal(err)
	}
	app2, _ := imagedup.New("imagedup-broken")
	res, err := core.Analyze(app2, w, core.Config{StackMode: true, DisableTraceAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(t, res.Report), renderReport(t, ref.Report); got != want {
		t.Errorf("stack-mode report differs from the reference\n--- reference ---\n%s\n--- campaign ---\n%s", want, got)
	}
	if res.InheritedVerdicts == 0 {
		t.Error("stack-mode campaign on imagedup-broken shared no verdicts")
	}
	if res.ImageCacheHits+res.ImageCacheMisses != res.Recoveries {
		t.Errorf("stack-mode table traffic %d+%d does not account for %d recoveries",
			res.ImageCacheHits, res.ImageCacheMisses, res.Recoveries)
	}
}
