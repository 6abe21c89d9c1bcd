package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// ladderReps is how often the phase-1 ladder runs. Each rung's
// increment is taken within one pass, between runs seconds apart, and
// the median over passes is reported, so host speed drifting between
// passes cancels out.
const ladderReps = 3

// ladderRungs names the phase-1 mechanisms in pipeline order; rung i
// runs with mechanisms 0..i switched on, and its metric is the wall
// time it adds over rung i-1 (rung 0's is its whole time). Increments
// include the garbage-collection effects of the state a mechanism keeps,
// so one can read slightly negative.
var ladderRungs = []string{
	"apps.run_s",         // Setup+Run on a bare engine
	"stack.capture_s",    // + call-stack capture at persistency events
	"pmem.prefix_hash_s", // + rolling prefix-image hash
	"pmem.ckpt_record_s", // + checkpoint and mutation-log recording
	"fpt.build_s",        // + fpt.NewBuilder hook
	"core.analyzer_s",    // + core.NewAnalyzer hook
}

// traceRun is what the traced child process reports.
type traceRun struct {
	Campaign campaignRun        `json:"campaign"`
	Metrics  map[string]float64 `json:"metrics"`
	Counts   map[string]uint64  `json:"counts"`
	Failures []string           `json:"failures"`
}

// traceChild runs the traced campaign, then the phase-1 ladder and the
// injection pass, and cross-checks the pass against the campaign.
func traceChild(s *spec, fp *fingerprint, dir string) (traceRun, error) {
	tr := traceRun{Metrics: map[string]float64{}, Counts: map[string]uint64{}}
	m := tr.Metrics
	failf := func(format string, args ...any) {
		tr.Failures = append(tr.Failures, fmt.Sprintf(format, args...))
	}

	// Traced campaign: the cold campaign with every call into the
	// target recorded.
	run, d, err := runCampaign(s, fp, campaignOpts{dir: dir, cold: true, traced: true})
	if err != nil {
		return tr, err
	}
	tr.Campaign = run
	res := d.res
	execs := d.app.executions()
	phase1End := execs[0][1]
	lastRecover := phase1End
	recs := d.app.recovers()
	for _, c := range recs {
		if c.end.After(lastRecover) {
			lastRecover = c.end
		}
	}
	m["core.analyze_s"] = run.AnalyzeS
	m["core.inject_s"] = lastRecover.Sub(phase1End).Seconds()
	m["core.resolve_s"] = 0
	if len(execs) > 1 {
		m["core.resolve_s"] = execs[1][1].Sub(execs[1][0]).Seconds()
	}
	m["core.recover_calls"] = float64(len(recs))
	m["core.replays_avoided"] = float64(res.ReplaysAvoided)
	m["core.worker_util"] = 0
	if res.InjectTime > 0 && res.CampaignWorkers > 0 {
		m["core.worker_util"] = float64(res.WorkerBusy) / (float64(res.CampaignWorkers) * float64(res.InjectTime))
	}
	m["campaign.vcache_save_s"] = d.saveS
	m["report.json_s"] = d.jsonS
	t0 := time.Now()
	if _, err := campaign.LoadVerdictCache(d.vcFile, s.meta(fp)); err != nil {
		return tr, err
	}
	m["campaign.vcache_load_s"] = time.Since(t0).Seconds()
	tr.Counts["core.engine_events"] = res.EngineEvents

	// Phase-1 ladder.
	inner, err := s.newApp()
	if err != nil {
		return tr, err
	}
	w := s.generate(fp)
	incs := make([][]float64, len(ladderRungs))
	var full phase1Run
	for rep := 0; rep < ladderReps; rep++ {
		prev := 0.0
		for rung := range ladderRungs {
			p, err := phase1(inner, w, rung)
			if err != nil {
				return tr, fmt.Errorf("ladder rung %s: %w", ladderRungs[rung], err)
			}
			incs[rung] = append(incs[rung], p.seconds-prev)
			prev = p.seconds
			if ev, ok := tr.Counts["pmem.events"]; ok && ev != p.eng.Events() {
				failf("phase-1 runs disagree on pmem.events: %d vs %d", ev, p.eng.Events())
			}
			tr.Counts["pmem.events"] = p.eng.Events()
			full = p
		}
	}
	for i, name := range ladderRungs {
		m[name] = quantile(incs[i], 0.5)
	}
	t0 = time.Now()
	full.analyzer.Finalize()
	m["core.finalize_s"] = time.Since(t0).Seconds()
	ckpts := full.eng.Checkpoints()
	tree := full.tree
	m["pmem.checkpoints"] = float64(ckpts.Count())
	m["pmem.ckpt_mb"] = float64(ckpts.Bytes()) / (1 << 20)
	m["core.analyzer_peak_lines"] = float64(full.analyzer.PeakLiveLines())
	tr.Counts["fpt.leaves"] = uint64(tree.Len())
	if tree.Len() != res.Tree.Len() {
		failf("ladder tree has %d leaves, campaign tree %d", tree.Len(), res.Tree.Len())
	}

	// Injection pass: one representative per stamped crash-image
	// class, in FirstICount order, serially.
	type key struct {
		hash uint64
		size int
	}
	var reps []*fpt.Leaf
	members := map[key][]uint64{}
	for _, l := range tree.LeavesByICount() {
		k := key{l.ImageHash, l.ImageSize}
		if _, ok := members[k]; !ok {
			reps = append(reps, l)
		}
		members[k] = append(members[k], l.FirstICount)
	}
	tr.Counts["fpt.classes"] = uint64(len(reps))
	if len(reps) != res.EquivClasses {
		failf("injection pass found %d crash-image classes, the campaign %d", len(reps), res.EquivClasses)
	}
	app := &timedApp{Application: inner, traced: true, allocs: true}
	wd := oracle.Watchdog{MaxEvents: core.DefaultHangBudget, Timeout: core.DefaultRecoveryTimeout}
	deadline := time.Now().Add(10 * time.Minute)
	var (
		replayMS, recoverMS, leafMS []float64
		gapEvents                   uint64
		imageS, engineS             float64
		imageAlloc, engineAlloc     uint64
		badVerdicts                 int
	)
	bad := map[uint64]bool{}
	for _, leaf := range reps {
		l0 := time.Now()
		eng, gap, err := ckpts.ReplayTo(leaf.FirstICount, deadline)
		if err != nil {
			return tr, fmt.Errorf("replaying to failure point %d: %w", leaf.FirstICount, err)
		}
		replayMS = append(replayMS, ms(time.Since(l0)))
		gapEvents += gap
		if h := eng.PrefixImageHash(); h != leaf.ImageHash || eng.Size() != leaf.ImageSize {
			failf("failure point %d: replayed image key (%#x, %d) differs from its stamp (%#x, %d)",
				leaf.FirstICount, h, eng.Size(), leaf.ImageHash, leaf.ImageSize)
		}
		var ms0, ms1, ms2 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		i0 := time.Now()
		img := eng.PrefixImage()
		imageS += time.Since(i0).Seconds()
		runtime.ReadMemStats(&ms1)
		c0 := time.Now()
		out := oracle.CheckBounded(app, img, wd)
		check := time.Since(c0)
		runtime.ReadMemStats(&ms2)
		leafMS = append(leafMS, ms(time.Since(l0)))
		imageAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		recs := app.recovers()
		if len(recs) == 0 {
			return tr, fmt.Errorf("failure point %d: recovery never ran", leaf.FirstICount)
		}
		rec := recs[len(recs)-1]
		recoverMS = append(recoverMS, ms(rec.end.Sub(rec.start)))
		engineS += (check - rec.end.Sub(rec.start)).Seconds()
		engineAlloc += ms2.TotalAlloc - ms1.TotalAlloc - rec.alloc
		if !out.Consistent() {
			badVerdicts++
			for _, ic := range members[key{leaf.ImageHash, leaf.ImageSize}] {
				bad[ic] = true
			}
		}
	}
	m["pmem.replay_s"] = sum(replayMS) / 1000
	m["pmem.replay_ms_p50"] = quantile(replayMS, 0.5)
	m["pmem.replay_ms_p90"] = quantile(replayMS, 0.9)
	m["pmem.image_s"] = imageS
	m["pmem.image_alloc_gb"] = float64(imageAlloc) / (1 << 30)
	m["oracle.engine_s"] = engineS
	m["oracle.engine_alloc_gb"] = float64(engineAlloc) / (1 << 30)
	m["apps.recover_s"] = sum(recoverMS) / 1000
	m["apps.recover_ms_p50"] = quantile(recoverMS, 0.5)
	m["apps.recover_ms_p90"] = quantile(recoverMS, 0.9)
	m["oracle.bad_verdicts"] = float64(badVerdicts)
	m["core.leaf_ms_p50"] = quantile(leafMS, 0.5)
	m["core.leaf_ms_p90"] = quantile(leafMS, 0.9)
	tr.Counts["pmem.gap_events"] = gapEvents
	tr.Counts["oracle.recoveries"] = uint64(len(app.recovers()))

	// Cross-check the injection pass against the campaign.
	if got, want := uint64(res.ImageCacheMisses), tr.Counts["oracle.recoveries"]; got != want {
		failf("campaign ran %d recoveries, injection pass %d", got, want)
	}
	if got, want := res.EngineEvents, tr.Counts["pmem.events"]+gapEvents; got != want {
		failf("campaign engine events %d != phase-1 events %d + injection-pass gap events %d", got, tr.Counts["pmem.events"], gapEvents)
	}
	found := map[uint64]bool{}
	for _, f := range res.Report.Findings {
		if f.Kind == report.CrashConsistency || f.Kind == report.RecoveryHang {
			found[f.ICount] = true
		}
	}
	if missing, extra := diff(bad, found); len(missing)+len(extra) > 0 {
		failf("injection-pass verdicts and campaign findings disagree: pass-only instruction counters %v, campaign-only %v", missing, extra)
	}

	// Journal appends, one fsync'd record per failure point, as a
	// journaled campaign writes them.
	j, err := campaign.Create(filepath.Join(dir, "journal-bench"), s.meta(fp))
	if err != nil {
		return tr, err
	}
	var appendMS []float64
	for _, l := range tree.LeavesByICount() {
		rec := campaign.Record{
			LeafID: l.ID, LeafICount: l.FirstICount,
			Injected: true, Restored: true, Recovered: true, CacheMiss: true,
			ImageHash: l.ImageHash,
		}
		a0 := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return tr, err
		}
		appendMS = append(appendMS, ms(time.Since(a0)))
	}
	if err := j.Close(); err != nil {
		return tr, err
	}
	m["campaign.append_ms_p50"] = quantile(appendMS, 0.5)
	m["campaign.append_ms_p90"] = quantile(appendMS, 0.9)

	for name, v := range tr.Counts {
		m[name] = float64(v)
	}
	return tr, nil
}

// phase1Run is one rung of the phase-1 ladder.
type phase1Run struct {
	seconds  float64
	eng      *pmem.Engine
	tree     *fpt.Tree
	analyzer *core.Analyzer
}

// phase1 runs the instrumented execution with the first rung+1
// mechanisms of ladderRungs switched on, under the same sandbox bounds
// core.Analyze sets.
func phase1(app harness.Application, w workload.Workload, rung int) (phase1Run, error) {
	var r phase1Run
	stacks := stack.NewTable()
	opts := pmem.Options{MaxEvents: core.DefaultHangBudget, Deadline: time.Now().Add(10 * time.Minute)}
	var hooks []pmem.Hook
	if rung >= 1 {
		opts.Capture, opts.Stacks = pmem.CapturePersistency, stacks
	}
	if rung >= 2 {
		opts.TrackPrefixHash = true
	}
	if rung >= 3 {
		opts.CheckpointEvery = core.DefaultCheckpointInterval
	}
	if rung >= 4 {
		r.tree = fpt.New(stacks)
		hooks = append(hooks, fpt.NewBuilder(r.tree, fpt.GranPersistency))
	}
	if rung >= 5 {
		r.analyzer = core.NewAnalyzer(core.Config{})
		hooks = append(hooks, r.analyzer)
	}
	runtime.GC()
	t0 := time.Now()
	eng, out := harness.ExecuteSandboxed(app, w, opts, hooks...)
	r.seconds = time.Since(t0).Seconds()
	switch {
	case out.Err != nil:
		return r, out.Err
	case out.Sig != nil || out.Hang != nil || out.Panic != nil:
		return r, fmt.Errorf("instrumented run stopped abnormally")
	}
	r.eng = eng
	return r, nil
}

// traced runs the traced child next to an untraced cold campaign, so
// the tracing overhead is measured against the same code path.
func traced(s *spec, seed int64) (result, error) {
	fp := s.pick(seed)
	root, err := os.MkdirTemp(workDir, "trace-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	baseDir, traceDir := filepath.Join(root, "base"), filepath.Join(root, "trace")
	for _, d := range []string{baseDir, traceDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return result{}, err
		}
	}
	var base campaignRun
	if err := spawn(s, seed, "cold", baseDir, &base); err != nil {
		return result{}, err
	}
	var tr traceRun
	if err := spawn(s, seed, "traced", traceDir, &tr); err != nil {
		return result{}, err
	}

	var chk checker
	chk.campaignCheck("untraced cold", fp, base)
	chk.campaignCheck("traced cold", fp, tr.Campaign)
	chk.sameReport(base, tr.Campaign)
	for _, f := range tr.Failures {
		chk.failf("%s", f)
	}
	recordCounts(&chk, s, fp, base.Counts)
	recordCounts(&chk, s, fp, tr.Campaign.Counts)
	recordCounts(&chk, s, fp, tr.Counts)

	tr.Metrics["core.untraced_campaign_s"] = base.CampaignS
	tr.Metrics["core.trace_overhead"] = tr.Campaign.CampaignS/base.CampaignS - 1
	res := result{
		Correct:   chk.ok(),
		Attempted: base.FailurePoints + tr.Campaign.FailurePoints,
		Failed:    base.Unjudged + tr.Campaign.Unjudged,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(os.Stderr, "campaignbench: %s traced, workload seed %d\n", s.name, fp.seed)
	for _, lm := range layerMetrics {
		v, ok := tr.Metrics[lm.name]
		if !ok {
			return result{}, fmt.Errorf("traced run did not produce %s", lm.name)
		}
		res.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
		fmt.Fprintf(os.Stderr, "  %-26s %-5s %14.4f  -> %s\n", lm.name, lm.unit, v, lm.moves)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// diff returns the keys only in a and only in b, sorted.
func diff(a, b map[uint64]bool) (onlyA, onlyB []uint64) {
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return onlyA[i] < onlyA[j] })
	sort.Slice(onlyB, func(i, j int) bool { return onlyB[i] < onlyB[j] })
	return onlyA, onlyB
}
