// Command campaignbench measures a Mumak fault-injection campaign end to
// end and layer by layer.
//
// Untraced (-trace 0), it runs campaigns, each in a fresh process: cold
// campaigns through core.Analyze with the mumak CLI's defaults, and the
// same campaign re-run warm from the verdict-cache file a cold one
// saved. It measures for -seconds and reports medians. Traced
// (-trace 1), it times calls into each layer's public
// functions instead: a phase-1 ladder, a serial injection pass over
// one representative per crash-image class, a traced campaign, and the
// journal, verdict-cache and report layers.
//
// Both modes check the campaign's outputs: the cold and warm reports
// must render byte-identically, and the unique findings and
// failure-point count must equal the fingerprint recorded for the
// workload seed. The last line of standard output is one JSON object;
// the exit status is non-zero when a check fails.
//
// Run it from the repository root with run.sh, which builds it first:
//
//	bash campaignbench/run.sh --workload btree-tx --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: btree-tx, btree-spt or redis-log")
		seed    = flag.Int64("seed", 0, "benchmark seed; selects the workload seed")
		seconds = flag.Float64("seconds", 40, "how long an untraced run measures")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
		role    = flag.String("role", "", "internal: run one child process (cold, warm or traced)")
		dir     = flag.String("dir", "", "internal: the child's working directory")
	)
	flag.Parse()
	s, err := lookupSpec(*name)
	if err != nil {
		fatal(err)
	}
	if *role != "" {
		if err := child(s, s.pick(*seed), *role, *dir); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	var res result
	if *trace == 1 {
		res, err = traced(s, *seed)
	} else {
		res, err = untraced(s, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// child runs one campaign process and prints its record as JSON.
func child(s *spec, fp *fingerprint, role, dir string) error {
	var v any
	var err error
	switch role {
	case "cold", "warm":
		v, _, err = runCampaign(s, fp, campaignOpts{dir: dir, cold: role == "cold"})
	case "traced":
		v, err = traceChild(s, fp, dir)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(2)
}
