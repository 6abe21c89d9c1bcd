package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/report"
)

// campaignRun is what one campaign process reports to its parent.
type campaignRun struct {
	// CampaignS is the wall time from target and workload in to
	// rendered report out: verdict-cache load, journal creation,
	// core.Analyze, journal close, verdict-cache save, text and JSON
	// rendering. AnalyzeS is the core.Analyze part alone.
	CampaignS float64 `json:"campaign_s"`
	AnalyzeS  float64 `json:"analyze_s"`
	// SetupS is the instrumented run's Setup+Run, timed at the
	// harness.Application boundary.
	SetupS float64 `json:"setup_s"`
	// CPUS is user+sys CPU over the campaign, PeakRSSMB the process's
	// peak resident set, AllocGB the Go heap bytes allocated over the
	// campaign.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocGB   float64 `json:"alloc_gb"`
	// FailurePoints is the tree size; Unjudged counts failure points
	// left without a verdict (skipped, quarantined, or never claimed
	// after a budget expiry or abort).
	FailurePoints int  `json:"failure_points"`
	Unjudged      int  `json:"unjudged"`
	TimedOut      bool `json:"timed_out"`
	// Unique is Report.Unique as (kind, instruction counter) pairs.
	Unique []finding `json:"unique"`
	// Report is the file holding the rendered report.
	Report string `json:"report"`
	// Counts are the campaign's exactly repeating counts.
	Counts map[string]uint64 `json:"counts"`
}

// campaignOpts selects how runCampaign runs.
type campaignOpts struct {
	dir    string
	cold   bool
	traced bool
}

// campaignDetail is what a traced run needs beyond campaignRun.
type campaignDetail struct {
	res    *core.Result
	app    *timedApp
	vcFile string
	saveS  float64
	jsonS  float64
}

// runCampaign runs one campaign the way `mumak -target T -ops N -seed S
// [-spt] -pool-mb P -verdict-cache-file F [-journal J]` does: CLI
// defaults (classing on, default checkpoint interval and image cache,
// GOMAXPROCS workers, 10-minute budget), the verdict cache loaded before
// and saved after, the journal created fresh.
func runCampaign(s *spec, fp *fingerprint, o campaignOpts) (campaignRun, *campaignDetail, error) {
	var run campaignRun
	inner, err := s.newApp()
	if err != nil {
		return run, nil, err
	}
	app := &timedApp{Application: inner, traced: o.traced}
	w := s.generate(fp)
	meta := s.meta(fp)
	vcFile := filepath.Join(o.dir, "verdicts.bin")

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ru0 := rusage()
	t0 := time.Now()

	warm, err := campaign.LoadVerdictCache(vcFile, meta)
	if err != nil {
		return run, nil, err
	}
	var journal *campaign.Journal
	if s.journal {
		jdir, err := os.MkdirTemp(o.dir, "journal-")
		if err != nil {
			return run, nil, err
		}
		if journal, err = campaign.Create(jdir, meta); err != nil {
			return run, nil, fmt.Errorf("journal: %w", err)
		}
	}
	a0 := time.Now()
	res, err := core.Analyze(app, w, core.Config{
		Budget:             10 * time.Minute,
		Workers:            runtime.GOMAXPROCS(0),
		ImageCacheSize:     core.DefaultImageCacheSize,
		CheckpointInterval: core.DefaultCheckpointInterval,
		Classing:           true,
		WarmVerdicts:       warm,
		PersistVerdicts:    true,
		Journal:            journal,
	})
	a1 := time.Now()
	if journal != nil {
		if cerr := journal.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("journal: %w", cerr)
		}
	}
	if err != nil {
		return run, nil, err
	}
	if res.JournalError != "" {
		return run, nil, fmt.Errorf("journal degraded: %s", res.JournalError)
	}
	s0 := time.Now()
	if err := campaign.SaveVerdictCache(vcFile, meta, res.VerdictCache); err != nil {
		return run, nil, err
	}
	s1 := time.Now()
	var out bytes.Buffer
	out.WriteString(res.Report.Format(false))
	j0 := time.Now()
	if err := res.Report.WriteJSON(&out, false); err != nil {
		return run, nil, err
	}
	t1 := time.Now()

	ru1 := rusage()
	runtime.ReadMemStats(&ms1)
	run.CampaignS = t1.Sub(t0).Seconds()
	run.AnalyzeS = a1.Sub(a0).Seconds()
	execs := app.executions()
	if len(execs) == 0 {
		return run, nil, fmt.Errorf("the instrumented run never reached Setup")
	}
	run.SetupS = execs[0][1].Sub(execs[0][0]).Seconds()
	run.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	run.PeakRSSMB = float64(ru1.Maxrss) / 1024 // Linux reports KiB
	run.AllocGB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 30)
	run.FailurePoints = res.Tree.Len()
	run.Unjudged = res.SkippedFailurePoints + res.Tree.Len() - res.Claims.ClaimedCount()
	run.TimedOut = res.TimedOut || res.Interrupted || res.InjectionAborted
	run.Unique = uniqueOf(res.Report)
	f, err := os.CreateTemp(o.dir, "report-*.txt")
	if err != nil {
		return run, nil, err
	}
	run.Report = f.Name()
	_, err = f.Write(out.Bytes())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return run, nil, err
	}
	run.Counts = map[string]uint64{"fpt.leaves": uint64(res.Tree.Len())}
	if o.cold {
		// Only a cold campaign replays and recovers every class; a warm
		// one elides them all.
		run.Counts["fpt.classes"] = uint64(res.EquivClasses)
		run.Counts["oracle.recoveries"] = uint64(res.ImageCacheMisses)
		run.Counts["core.engine_events"] = res.EngineEvents
	}
	d := &campaignDetail{
		res: res, app: app, vcFile: vcFile,
		saveS: s1.Sub(s0).Seconds(),
		jsonS: t1.Sub(j0).Seconds(),
	}
	return run, d, nil
}

// uniqueOf reduces Report.Unique to (kind, instruction counter) pairs.
func uniqueOf(rep *report.Report) []finding {
	out := []finding{}
	for _, f := range rep.Unique() {
		out = append(out, finding{Kind: f.Kind.String(), ICount: f.ICount})
	}
	return out
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}
