package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"
)

// workDir is where runs keep their scratch files and the count ledger,
// inside the checkout; main creates it.
var workDir = filepath.Join(".bench_build", "campaignbench")

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker collects correctness failures; each is printed to stderr as
// it is found.
type checker struct{ failures []string }

func (c *checker) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "campaignbench: CHECK FAILED:", msg)
	c.failures = append(c.failures, msg)
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// untraced measures cold campaigns and warm re-runs of them, each in a
// fresh process, for the given number of seconds, and reports medians.
func untraced(s *spec, seed int64, seconds float64) (result, error) {
	fp := s.pick(seed)
	root, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	var (
		chk          checker
		colds, warms []campaignRun
		setups       []float64
		attempted    int
		failed       int
	)
	// measure runs one campaign process and checks it; warm re-runs are
	// checked against the cold campaign whose verdict cache they read.
	measure := func(role, dir string, cold *campaignRun) (campaignRun, float64, error) {
		t0 := time.Now()
		var r campaignRun
		if err := spawn(s, seed, role, dir, &r); err != nil {
			return r, 0, err
		}
		chk.campaignCheck(role, fp, r)
		if cold != nil {
			chk.sameReport(*cold, r)
		}
		recordCounts(&chk, s, fp, r.Counts)
		setups = append(setups, r.SetupS)
		attempted += r.FailurePoints
		failed += r.Unjudged
		return r, time.Since(t0).Seconds(), nil
	}
	start := time.Now()
	left := func() float64 { return seconds - time.Since(start).Seconds() }
	// Cold campaigns and warm re-runs of the latest cold one, mixed so
	// that each kind takes about half of the run and its samples spread
	// over all of it: the host's speed drifts, and samples bunched at
	// one end of the run would follow the drift. A cold campaign is
	// next while cold campaigns have taken no more time than warm
	// re-runs and another still fits; otherwise a warm re-run is, while
	// one fits. Every process adds a setup_s sample.
	var (
		dir                  string
		cold                 campaignRun
		coldS, warmS         float64 // the latest of each kind
		coldTotal, warmTotal float64
	)
	for {
		wantCold := len(colds) == 0 ||
			len(warms) > 0 && coldTotal <= warmTotal && coldS <= left()
		if !wantCold && len(warms) > 0 && warmS > left() {
			break
		}
		if wantCold {
			dir = filepath.Join(root, "round-"+strconv.Itoa(len(colds)))
			if err := os.Mkdir(dir, 0o755); err != nil {
				return result{}, err
			}
			if cold, coldS, err = measure("cold", dir, nil); err != nil {
				return result{}, err
			}
			colds = append(colds, cold)
			coldTotal += coldS
			continue
		}
		var warm campaignRun
		if warm, warmS, err = measure("warm", dir, &cold); err != nil {
			return result{}, err
		}
		warms = append(warms, warm)
		warmTotal += warmS
	}

	pick := func(runs []campaignRun, f func(campaignRun) float64) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = f(r)
		}
		return out
	}
	unjudged := float64(failed) / float64(attempted)
	reportOK := 0.0
	if chk.ok() {
		reportOK = 1
	}
	series := []struct {
		name, unit string
		values     []float64
	}{
		{"campaign_s", "s", pick(colds, func(r campaignRun) float64 { return r.CampaignS })},
		{"rerun_s", "s", pick(warms, func(r campaignRun) float64 { return r.CampaignS })},
		{"setup_s", "s", setups},
		{"cpu_s", "s", pick(colds, func(r campaignRun) float64 { return r.CPUS })},
		{"peak_rss_mb", "MiB", pick(colds, func(r campaignRun) float64 { return r.PeakRSSMB })},
		{"alloc_gb", "GiB", pick(colds, func(r campaignRun) float64 { return r.AllocGB })},
		{"judged_frac", "ratio", []float64{1 - unjudged}},
		{"report_ok", "0/1", []float64{reportOK}},
	}
	res := result{Correct: chk.ok(), Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Fprintf(os.Stderr, "campaignbench: %s, workload seed %d, %d cold and %d warm campaign(s) in %.1fs\n",
		s.name, fp.seed, len(colds), len(warms), time.Since(start).Seconds())
	fmt.Fprintf(os.Stderr, "  %-14s %-6s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range series {
		q1, med, q3 := quartiles(m.values)
		fmt.Fprintf(os.Stderr, "  %-14s %-6s %12.4f %12.4f %12.4f %4d\n", m.name, m.unit, med, q1, q3, len(m.values))
		res.Metrics[m.name] = metric{Value: med, Unit: m.unit}
	}
	// The failed-operations share, printed under its own name: it is 0
	// on a healthy run, so the result line carries its complement.
	fmt.Fprintf(os.Stderr, "  %-14s %-6s %12.4f\n", "unjudged_frac", "ratio", unjudged)
	return res, nil
}

// campaignCheck checks one campaign against the recorded fingerprint of
// its workload seed and for completeness.
func (c *checker) campaignCheck(label string, fp *fingerprint, run campaignRun) {
	if run.FailurePoints != fp.failurePoints {
		c.failf("%s: %d failure points, recorded %d (seed %d)", label, run.FailurePoints, fp.failurePoints, fp.seed)
	}
	if !reflect.DeepEqual(run.Unique, fp.unique) {
		c.failf("%s: unique findings %v, recorded %v (seed %d)", label, run.Unique, fp.unique, fp.seed)
	}
	if run.TimedOut {
		c.failf("%s: campaign stopped early (budget, interruption or abort)", label)
	}
}

// sameReport checks that two campaigns rendered byte-identical reports.
func (c *checker) sameReport(a, b campaignRun) {
	x, errX := os.ReadFile(a.Report)
	y, errY := os.ReadFile(b.Report)
	switch {
	case errX != nil || errY != nil:
		c.failf("reading reports: %v %v", errX, errY)
	case !bytes.Equal(x, y):
		c.failf("reports %s and %s differ (%d vs %d bytes)", a.Report, b.Report, len(x), len(y))
	}
}

// spawn runs one child process for the benchmark seed and decodes the
// JSON record on its last output line into v. The child's stderr passes
// through.
func spawn(s *spec, seed int64, role, dir string, v any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-role", role, "-workload", s.name,
		"-seed", strconv.FormatInt(seed, 10), "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, v); err != nil {
		return fmt.Errorf("%s child: decoding its record: %w", role, err)
	}
	return nil
}

// recordCounts compares counts that must repeat exactly against every
// earlier run of the same workload seed by the same benchmark binary,
// and flags any difference; unseen counts are added to the binary's
// ledger. Keying the ledger by the binary's hash keeps runs of other
// code out of the comparison.
func recordCounts(c *checker, s *spec, fp *fingerprint, counts map[string]uint64) {
	self, err := os.Executable()
	if err != nil {
		c.failf("count ledger: %v", err)
		return
	}
	bin, err := os.ReadFile(self)
	if err != nil {
		c.failf("count ledger: %v", err)
		return
	}
	path := filepath.Join(workDir, fmt.Sprintf("counts-%x.json", sha256.Sum256(bin)))
	ledger := map[string]uint64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ledger); err != nil {
			c.failf("count ledger %s: %v", path, err)
			return
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	changed := false
	for _, n := range names {
		key := fmt.Sprintf("%s/%d/%s", s.name, fp.seed, n)
		if old, ok := ledger[key]; !ok {
			ledger[key] = counts[n]
			changed = true
		} else if old != counts[n] {
			c.failf("count %s = %d differs from an earlier run of the same code (%d)", key, counts[n], old)
		}
	}
	if !changed {
		return
	}
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		c.failf("count ledger %s: %v", path, err)
	}
}

// quartiles returns the first quartile, median and third quartile by
// linear interpolation between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	return quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
