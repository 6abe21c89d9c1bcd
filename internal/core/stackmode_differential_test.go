package core_test

import (
	"fmt"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/workload"
)

// stackDiffCombos is the seed × persistence-domain matrix of the
// registry-wide differential suites.
var stackDiffCombos = []struct {
	seed int64
	eadr bool
}{
	{11, false},
	{4242, false},
	{11, true},
	{4242, true},
}

// diffCampaign runs the same campaign through the serial reference and
// with 1 and 4 workers, and requires byte-identical reports, agreeing
// coverage and identical final claim state.
func diffCampaign(t *testing.T, mk func() (harness.Application, error), seed int64, eadr, stackMode, wantFindings bool) {
	t.Helper()
	w := workload.Generate(workload.Config{N: 120, Seed: seed, Keyspace: 60,
		PutFrac: 2, GetFrac: 1, DeleteFrac: 1})
	cfg := core.Config{StackMode: stackMode, EADR: eadr, DisableTraceAnalysis: true}

	app, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.Analyze(app, w, core.Reference(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if wantFindings && len(serial.Report.Bugs()) == 0 {
		t.Fatal("fixture produced no findings; the byte-identity check is vacuous")
	}
	want := serial.Report.Format(true)

	var one *core.Result
	for _, workers := range []int{1, 4} {
		app, err = mk()
		if err != nil {
			t.Fatal(err)
		}
		pcfg := cfg
		pcfg.Workers = workers
		par, err := core.Analyze(app, w, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := par.Report.Format(true); got != want {
			t.Errorf("workers=%d: report differs from the serial reference\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, want, got)
		}
		if par.Injections != serial.Injections || par.SkippedFailurePoints != serial.SkippedFailurePoints ||
			par.InjectionAborted != serial.InjectionAborted {
			t.Errorf("workers=%d: coverage diverges: injections %d/%d skipped %d/%d aborted %v/%v",
				workers, par.Injections, serial.Injections,
				par.SkippedFailurePoints, serial.SkippedFailurePoints,
				par.InjectionAborted, serial.InjectionAborted)
		}
		if got, want := par.Claims.Remaining(), serial.Claims.Remaining(); got != want {
			t.Errorf("workers=%d: claim state diverges: %d unclaimed, serial %d", workers, got, want)
		}
		if par.ClaimContention != 0 {
			t.Errorf("workers=%d: claim traversal observed %d contended claims, want 0", workers, par.ClaimContention)
		}
		if par.CampaignWorkers != workers {
			t.Errorf("campaign ran with %d workers, want %d", par.CampaignWorkers, workers)
		}
		if one == nil {
			one = par
		} else if par.Recoveries != one.Recoveries || par.EngineEvents != one.EngineEvents {
			t.Errorf("workers=%d: counters diverge from one worker: recoveries %d/%d events %d/%d",
				workers, par.Recoveries, one.Recoveries, par.EngineEvents, one.EngineEvents)
		}
	}
}

// diffRegistry runs diffCampaign over every registry target with a
// poolMB MiB pool (the seed × eADR combos rotate across the registry so
// each combination appears) and over a seeded-bug fixture with real
// findings on the whole combo matrix, so byte-identity is never
// vacuous.
func diffRegistry(t *testing.T, stackMode bool, poolMB int) {
	for i, name := range apps.Names() {
		combo := stackDiffCombos[i%len(stackDiffCombos)]
		name := name
		t.Run(fmt.Sprintf("%s/seed=%d/eadr=%v", name, combo.seed, combo.eadr), func(t *testing.T) {
			diffCampaign(t, func() (harness.Application, error) {
				return apps.New(name, apps.Config{SPT: true, PoolSize: poolMB << 20, WithRecovery: true})
			}, combo.seed, combo.eadr, stackMode, false)
		})
	}
	for _, combo := range stackDiffCombos {
		combo := combo
		t.Run(fmt.Sprintf("btree-buggy/seed=%d/eadr=%v", combo.seed, combo.eadr), func(t *testing.T) {
			diffCampaign(t, func() (harness.Application, error) {
				return btree.New(cfgSPT(btree.BugCountOutsideTx)), nil
			}, combo.seed, combo.eadr, stackMode, true)
		})
	}
}

// TestStackModeParallelMatchesSerial is the stack-mode determinism
// contract: for any worker count the stack-mode campaign must produce a
// report byte-identical to the serial reference, with agreeing coverage
// and identical final claim state, on every registry target. Run under
// -race this also exercises the concurrent ClaimSet traversal and the
// shared verdict table on every registered target.
func TestStackModeParallelMatchesSerial(t *testing.T) {
	diffRegistry(t, true, 8)
}

// TestCounterModeMatchesReferenceAcrossRegistry is the same contract
// for the default counter mode, whose campaign restores checkpoints
// while the reference re-executes every failure point from scratch.
// The 2 MiB pool keeps redis affordable: its phase 1 and gap replays
// grow with the pool squared (write-pending-queue scans, ROADMAP item
// 2), about 4 s per campaign at 2 MiB against 2 min at 8 MiB.
func TestCounterModeMatchesReferenceAcrossRegistry(t *testing.T) {
	diffRegistry(t, false, 2)
}
