package core

import (
	"errors"
	"math"
	"time"

	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// replayFuelSlack is the extra fuel granted to a re-executed
// counter-mode replay past the leaf's recorded instruction counter. A
// deterministic replay crashes at exactly FirstICount events, so
// anything beyond a small slack means the run diverged into unbounded
// PM activity.
const replayFuelSlack = 4096

// replayFuel bounds one re-executed counter-mode replay. The
// slack-padded counter is a far tighter (and still deterministic)
// budget than the campaign-wide one. The sum saturates at MaxUint64
// instead of wrapping: a wrapped (tiny) fuel value would kill a healthy
// replay long before its failure point and misreport it as a hang. The
// campaign budget caps the fuel only when it still lets the replay
// reach its counter — a budget at or below FirstICount can never
// produce anything but that same phantom hang.
func replayFuel(budget, firstICount uint64) uint64 {
	fuel := firstICount + replayFuelSlack
	if fuel < firstICount { // overflow: saturate
		fuel = math.MaxUint64
	}
	if budget != 0 && budget > firstICount && budget < fuel {
		return budget
	}
	return fuel
}

// referenceCampaign is the slow path the production campaign must
// reproduce byte for byte: one leaf at a time in FirstICount order,
// every failure point re-executed from scratch (CrashAt in counter
// mode, the stack-matching injector in stack mode) and judged by its
// own recovery run — no classing, no verdict table, no checkpoints. It
// honours the deadline, interruption, the MaxFailurePoints cap, leaf
// retries and stack mode's no-progress abort as the production merge
// does, and folds outcomes through the same consumeOutcome. It does
// not journal.
func referenceCampaign(app harness.Application, w workload.Workload, tree *fpt.Tree, cfg Config,
	rep *report.Report, res *Result, deadline time.Time, _ *pmem.CheckpointStore) (bool, error) {

	if cfg.Journal != nil || cfg.Resume != nil {
		return false, errors.New("the reference campaign does not journal or resume")
	}
	sb := cfg.sandbox(deadline)
	mode := cfg.campaignMode()
	tree.Freeze()
	cs := fpt.NewClaimSet(tree)
	res.Claims = cs
	res.CampaignWorkers = 1
	injected, noProgress := 0, 0
	for {
		switch {
		case sb.interrupted():
			res.Interrupted = true
			return false, nil
		case !sb.deadline.IsZero() && time.Now().After(sb.deadline):
			return true, nil
		case cfg.MaxFailurePoints > 0 && injected >= cfg.MaxFailurePoints:
			return false, nil
		}
		_, leaf := cs.Next()
		if leaf == nil {
			return false, nil
		}
		out := retryLeaf(sb, func() replayOutcome {
			return referenceReplay(app, w, leaf, tree.Stacks(), mode, sb)
		})
		if out.deadlineHit {
			cs.Release(leaf)
			return true, nil
		}
		consumeOutcome(leaf, out, rep, res)
		switch {
		case out.injected:
			injected++
			noProgress = 0
		case mode.stack:
			if noProgress++; noProgress >= maxNoProgress {
				res.InjectionAborted = true
				return false, nil
			}
		}
	}
}

// referenceReplay re-executes the workload up to the leaf's failure
// point and runs the recovery oracle over the materialised crash image.
func referenceReplay(app harness.Application, w workload.Workload, leaf *fpt.Leaf,
	stacks *stack.Table, mode campaignMode, sb sandboxCfg) replayOutcome {

	opts := pmem.Options{Capture: mode.capture, Stacks: stacks}
	var hooks []pmem.Hook
	missed := "target instruction counter never reached on replay"
	if mode.stack {
		hooks = append(hooks, &fpt.Injector{Target: leaf, Granularity: mode.gran})
		missed = "failure-point call stack never re-encountered on replay"
		opts.MaxEvents = sb.budget
	} else {
		opts.CrashAt = leaf.FirstICount
		opts.MaxEvents = replayFuel(sb.budget, leaf.FirstICount)
	}
	if sb.disabled {
		opts.MaxEvents = 0
	} else {
		opts.Deadline = sb.deadline
	}
	eng, sres := execute(app, w, opts, sb, hooks...)
	out := executedOutcome(eng, sres, leaf, missed)
	if !out.injected {
		return out
	}
	check, ddl := boundedCheck(app, eng.PrefixImage(), sb)
	if ddl {
		out.deadlineHit = true
		return out
	}
	out.recovered = true
	applyVerdict(check, sres.Sig.ICount, leaf.Stack, &out)
	return out
}
