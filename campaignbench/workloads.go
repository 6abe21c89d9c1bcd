package main

import (
	"fmt"

	"mumak/internal/apps"
	_ "mumak/internal/apps/btree"
	_ "mumak/internal/apps/redis"
	"mumak/internal/bugs"
	"mumak/internal/campaign"
	"mumak/internal/harness"
	"mumak/internal/pmdk"
	"mumak/internal/workload"
)

// spec is one benchmark workload: a registry target, its CLI-equivalent
// flags, and the workload seeds --seed selects from, each with the
// report fingerprint the campaign must reproduce.
type spec struct {
	name    string
	target  string
	ops     int
	poolMB  int
	spt     bool
	journal bool
	seeds   []fingerprint
}

// fingerprint pins one (workload, workload seed) campaign: its
// failure-point count and its unique findings as (kind, instruction
// counter) pairs. Stacks are left out on purpose: they embed absolute
// source paths, so they differ between checkouts.
type fingerprint struct {
	seed          int64
	failurePoints int
	unique        []finding
}

// finding is one Report.Unique entry reduced to what repeats across
// checkouts.
type finding struct {
	Kind   string `json:"kind"`
	ICount uint64 `json:"icount"`
}

// cc is the kind every recorded finding has.
const cc = "crash-consistency bug"

// specs are the benchmark workloads. Each loads some layers and
// bypasses others, so a change to one layer shows on one workload and
// not on another:
//
//   - btree-tx: the whole workload is one PMDK undo-log transaction in a
//     64 MiB pool, journaled as a long crash-safe campaign is. Injection
//     is most of the cold time, split between checkpoint restore,
//     crash-image build, recovery-engine build and transaction rollback.
//   - btree-spt: one transaction per operation. It has the largest
//     phase-1 share, so phase-1 work (and work moved into set-up) shows
//     here; injection is 64 MiB image and engine builds with small
//     rollbacks, so a rollback fix should barely move it.
//   - redis-log: the append-only log in a 4 MiB pool. It loads the
//     write-pending-queue scans of non-temporal stores and ReplayTo gap
//     replay, and bypasses image and recovery cost.
//
// Two known findings are pinned rather than sized or seeded around;
// later changes fix them:
//
//   - A clean btree reports crash-consistency findings ("node ... has
//     -1 keys") at 10k operations and more, in both transaction shapes.
//     Both recorded seeds of each btree workload show them, so a change
//     to them reads report_ok = 0 until the fingerprint is re-recorded
//     with the fix that explains it.
//   - Redis phase 1 is quadratic in pool size: at the CLI's 64 MiB
//     default it does not finish within the 10-minute budget, which is
//     why redis-log uses a 4 MiB pool.
var specs = []spec{
	{
		name: "btree-tx", target: "btree", ops: 10000, poolMB: 64, journal: true,
		seeds: []fingerprint{
			{seed: 42, failurePoints: 162, unique: []finding{{cc, 551650}, {cc, 551653}, {cc, 551659}, {cc, 551664}, {cc, 551667}}},
			{seed: 4, failurePoints: 157, unique: []finding{{cc, 555121}, {cc, 555124}, {cc, 555130}, {cc, 555135}, {cc, 555138}}},
		},
	},
	{
		name: "btree-spt", target: "btree", ops: 20000, poolMB: 64, spt: true,
		seeds: []fingerprint{
			{seed: 42, failurePoints: 119, unique: []finding{{cc, 904671}, {cc, 904674}, {cc, 907950}, {cc, 907954}}},
			{seed: 3, failurePoints: 123, unique: []finding{{cc, 1110015}, {cc, 1110018}, {cc, 1110025}, {cc, 1110028}, {cc, 1110035}, {cc, 1110041}}},
		},
	},
	{
		name: "redis-log", target: "redis", ops: 2000, poolMB: 4,
		seeds: []fingerprint{
			{seed: 42, failurePoints: 23, unique: []finding{}},
			{seed: 1, failurePoints: 23, unique: []finding{}},
		},
	},
}

// lookupSpec returns the named workload.
func lookupSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// pick maps the benchmark seed onto one of the workload's recorded
// workload seeds.
func (s *spec) pick(seed int64) *fingerprint {
	n := int64(len(s.seeds))
	return &s.seeds[((seed%n)+n)%n]
}

// newApp builds the target exactly as the mumak CLI does for these
// flags: PMDK 1.6, full recovery, no seeded bugs.
func (s *spec) newApp() (harness.Application, error) {
	return apps.New(s.target, apps.Config{
		Ver: pmdk.V16, SPT: s.spt, Bugs: bugs.Set{},
		WithRecovery: true, PoolSize: s.poolMB << 20,
	})
}

// generate builds the workload the program sees; the program never
// sees the seed itself.
func (s *spec) generate(fp *fingerprint) workload.Workload {
	return workload.Generate(workload.Config{N: s.ops, Seed: fp.seed})
}

// meta is the campaign identity the CLI would pin for these flags.
func (s *spec) meta(fp *fingerprint) campaign.Meta {
	return campaign.Meta{Target: s.target, Ops: s.ops, Seed: fp.seed}
}
