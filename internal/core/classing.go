// Phase-1 crash-image equivalence classing.
//
// During the instrumented run the engine maintains a rolling hash of
// the graceful-crash prefix image (pmem.Options.TrackPrefixHash), and
// the failure-point-tree builder stamps every new leaf with its
// prospective (imageHash, size) key — the exact key a replay crashed at
// that leaf would compute. The injection campaign therefore groups
// leaves into equivalence classes BEFORE any replay runs: leaves whose
// stamps match would materialise byte-identical crash images, and the
// deterministic recovery oracle necessarily returns the same verdict
// for all of them.
//
// The scheduler replays exactly one representative per class (restore
// + gap replay + recovery) and lets the remaining members inherit the
// representative's verdict without touching the engine at all.
// Inherited findings are re-keyed to the member's own FirstICount and
// call stack, so the merged report stays byte-identical to the
// reference campaign that replays and recovers every leaf (counter and
// stack mode, any worker count).
//
// Classing is sound whenever the recovery procedure is a deterministic
// function of the crash image (DESIGN.md item 14 discusses when it is
// not).
package core

import (
	"fmt"

	"mumak/internal/fpt"
	"mumak/internal/oracle"
	"mumak/internal/report"
	"mumak/internal/stack"
)

// classPlan is the immutable grouping of the frozen tree's leaves into
// crash-image equivalence classes, built once before the campaign
// starts and shared read-only across workers.
type classPlan struct {
	// keys maps leaf ID to its stamped image key.
	keys map[int]imageKey
	// reps maps each class key to the ID of its representative: the
	// class member with the lowest FirstICount, i.e. the first one the
	// deterministic merge order consumes.
	reps map[imageKey]int
	// classes is the number of distinct classes.
	classes int
}

// buildClassPlan groups the frozen tree's leaves by their phase-1 image
// stamps. Every leaf must be stamped (Analyze's phase 1 always tracks
// the prefix hash): an unstamped leaf would share the zero key with
// every other unstamped leaf and inherit a verdict its image never
// earned.
func buildClassPlan(tree *fpt.Tree) (*classPlan, error) {
	ordered := tree.LeavesByICount()
	p := &classPlan{
		keys: make(map[int]imageKey, len(ordered)),
		reps: make(map[imageKey]int, len(ordered)),
	}
	for _, leaf := range ordered {
		if leaf.ImageSize == 0 {
			return nil, fmt.Errorf("failure point #%d (instruction %d) carries no crash-image stamp",
				leaf.ID, leaf.FirstICount)
		}
		k := imageKey{hash: leaf.ImageHash, size: leaf.ImageSize}
		p.keys[leaf.ID] = k
		if _, ok := p.reps[k]; !ok {
			p.reps[k] = leaf.ID
			p.classes++
		}
	}
	return p, nil
}

// key returns the leaf's stamped image key.
func (p *classPlan) key(leaf *fpt.Leaf) imageKey {
	return p.keys[leaf.ID]
}

// isRep reports whether the leaf is its class's representative.
func (p *classPlan) isRep(leaf *fpt.Leaf) bool {
	return p.reps[p.keys[leaf.ID]] == leaf.ID
}

// classVerdict is the per-class outcome template members inherit: the
// representative's finding (nil when its image recovered clean) and
// whether recovery hung. Captured by the merge loop from the first
// injected-and-recovered outcome of each class, so it exists by the
// time any member of that class is merged.
type classVerdict struct {
	finding      *report.Finding
	recoveryHung bool
}

// inheritOutcome materialises a class member's outcome from its class
// verdict without replaying anything: no engine runs (zero events), no
// recovery runs (not recovered, so Recoveries counts one oracle
// consultation per class), and the finding — when the class has one —
// is re-keyed to the member's own FirstICount and call stack, exactly
// how applyVerdict keys a live verdict. Members still count as
// injected: the class representative proved the failure point reachable
// and judged its crash image.
func inheritOutcome(leaf *fpt.Leaf, v *classVerdict) replayOutcome {
	out := replayOutcome{
		executed:     true,
		injected:     true,
		inherited:    true,
		recoveryHung: v.recoveryHung,
		imageHash:    leaf.ImageHash,
	}
	if v.finding != nil {
		f := *v.finding
		f.ICount = leaf.FirstICount
		f.Stack = leaf.Stack
		out.finding = &f
	}
	return out
}

// elideOutcome materialises a class representative's outcome from a
// verdict-table hit on its phase-1 stamp, skipping the replay entirely
// (checkpoint restore, gap replay and image materialisation included).
// The hit plays out exactly like a post-replay table hit — recovered,
// cacheHit, same finding keying — plus the replayElided marker; seeded
// attributes the hit to a cross-run verdict-cache file.
func elideOutcome(leaf *fpt.Leaf, check oracle.Outcome, seeded bool) replayOutcome {
	out := replayOutcome{
		executed:      true,
		injected:      true,
		recovered:     true,
		cacheHit:      true,
		replayElided:  true,
		persistentHit: seeded,
		imageHash:     leaf.ImageHash,
	}
	applyVerdict(check, leaf.FirstICount, leaf.Stack, &out)
	return out
}

// replayClassed is the worker side of the campaign. A class member
// never replays on a worker: its verdict is resolved at merge time
// (mergeState.dispatch), when its representative's outcome has
// necessarily been merged — the placeholder pendingInherit outcome
// defers it there. A representative whose stamped key is already in the
// verdict table (warm persistent cache, resumed snapshot) elides its
// replay outright; the pre-check is scheduling-independent because live
// replays only ever store keys of their own class, and a class's first
// consultation is always its representative.
func replayClassed(plan *classPlan, table *verdictTable, leaf *fpt.Leaf,
	live func(*fpt.Leaf) replayOutcome) replayOutcome {

	if !plan.isRep(leaf) {
		return replayOutcome{executed: true, pendingInherit: true}
	}
	if check, seeded, ok := table.lookup(plan.key(leaf)); ok {
		return elideOutcome(leaf, check, seeded)
	}
	return live(leaf)
}

// dispatch resolves a class member's pendingInherit placeholder on the
// merge goroutine. A member whose class verdict was captured inherits
// it; a member whose representative produced no verdict (quarantined,
// deadline-released, panicked) falls back to a live replay — including
// hitting the verdict table if a fallback sibling already judged the
// class key.
func (m *mergeState) dispatch(leaf *fpt.Leaf) replayOutcome {
	if v := m.classes[m.plan.key(leaf)]; v != nil {
		return inheritOutcome(leaf, v)
	}
	return m.replayer(leaf)
}

// applyVerdict folds one recovery-oracle outcome into a replay outcome:
// the shared verdict tail of live replays, elided representatives and
// (indirectly, via the captured finding) inherited members. The finding
// is keyed by the consuming leaf's own first-occurrence counter and
// call stack.
func applyVerdict(check oracle.Outcome, icount uint64, stk stack.ID, out *replayOutcome) {
	if check.Consistent() {
		return
	}
	kind := report.CrashConsistency
	if check.Verdict == oracle.Hung {
		kind = report.RecoveryHang
		out.recoveryHung = true
	}
	detail := check.Describe()
	if check.Verdict == oracle.Crashed && check.PanicTrace != "" {
		// Provide the recovery call trace for abrupt failures.
		detail += "\nrecovery trace:\n" + truncate(check.PanicTrace, 800)
	}
	out.finding = &report.Finding{
		Kind:   kind,
		ICount: icount,
		Stack:  stk,
		Detail: detail,
	}
}
