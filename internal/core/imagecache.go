// Crash-image verdict table.
//
// The graceful-crash image of a counter-mode leaf changes only when the
// program-order prefix gains a store: leaves separated by nothing but
// flushes, fences and loads materialise byte-identical images, and the
// deterministic recovery oracle necessarily returns the same verdict
// for all of them. The campaign therefore keys verdicts by image
// content: phase-1 classing (classing.go) groups leaves by their
// stamped key so only one representative per class replays, and every
// live replay consults the table with the incrementally maintained
// image hash (O(changed lines), no materialisation) before running
// recovery.
//
// One table is created per campaign in injectAll, so the application,
// workload and recovery configuration are fixed for the lifetime of
// every entry — the key only needs the image identity. The table is
// shared across the campaign's workers, and it is also what journal
// snapshots, resume and the cross-run verdict-cache file read and
// write. It needs no eviction: a campaign stores at most one entry per
// equivalence class, plus the entries it was warmed with.
package core

import (
	"sort"
	"sync"

	"mumak/internal/campaign"
	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
)

// DefaultImageCacheSize was the capacity of the bounded verdict cache.
//
// Deprecated: the verdict table is unbounded; nothing reads this.
const DefaultImageCacheSize = 4096

// imageKey identifies a crash image by content. The hash is the
// engine's incrementally maintained content hash; the pool size guards
// the (already campaign-constant) image length. Distinct images
// colliding on both is vanishingly unlikely (64-bit mixed hash) and at
// worst replays a stale verdict for one leaf.
type imageKey struct {
	hash uint64
	size int
}

// verdictTable is the campaign's concurrency-safe map from crash-image
// identity to the oracle verdict the image produced.
type verdictTable struct {
	mu      sync.Mutex
	entries map[imageKey]verdictEntry
}

type verdictEntry struct {
	out oracle.Outcome
	// seeded marks an entry warmed from a cross-run verdict-cache file
	// (never one computed or snapshot-loaded this campaign), so hits on
	// it can be attributed to the persistent cache.
	seeded bool
}

func newVerdictTable() *verdictTable {
	return &verdictTable{entries: make(map[imageKey]verdictEntry)}
}

// lookup returns the stored verdict for the key. The second return
// reports whether the entry came from a persistent cross-run cache
// file.
func (t *verdictTable) lookup(k imageKey) (oracle.Outcome, bool, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	return e.out, e.seeded, ok
}

// put stores a verdict unless the key already has one: the first
// verdict wins (a racing worker or a later warm source carries the same
// verdict for a deterministic target anyway). Callers must store
// detached outcomes only (no retained recovery engine).
func (t *verdictTable) put(k imageKey, out oracle.Outcome, seeded bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[k]; !ok {
		t.entries[k] = verdictEntry{out: out, seeded: seeded}
	}
}

// load stores exported entries: a snapshot's (resume) or a cross-run
// verdict-cache file's (seeded). Verdicts are keyed by image content
// and the target is deterministic, so entries from a previous process
// are as valid as locally computed ones.
func (t *verdictTable) load(entries []campaign.CacheEntry, seeded bool) {
	for _, e := range entries {
		k, out := decodeCacheEntry(e)
		t.put(k, out, seeded)
	}
}

// Len returns the number of stored verdicts.
func (t *verdictTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// export flattens every stored verdict, sorted by (hash, size) so a
// snapshot or verdict-cache file does not depend on which worker judged
// which image first.
func (t *verdictTable) export() []campaign.CacheEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]campaign.CacheEntry, 0, len(t.entries))
	for k, e := range t.entries {
		out = append(out, encodeCacheEntry(k, e.out))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hash != out[j].Hash {
			return out[i].Hash < out[j].Hash
		}
		return out[i].Size < out[j].Size
	})
	return out
}

// cachedCheck runs the recovery oracle over the engine's graceful-crash
// image, consulting the verdict table first. On a hit the image is
// never materialised and no recovery runs — the stored outcome is
// returned as-is. On a miss the oracle runs under the campaign
// watchdogs and the verdict is stored, unless the campaign deadline cut
// the check short: a deadline-cut outcome reflects the remaining
// budget, not the image, and must never be replayed from the table.
// persistent narrows a hit to entries seeded from a cross-run
// verdict-cache file.
func cachedCheck(app harness.Application, eng *pmem.Engine, sb sandboxCfg,
	table *verdictTable) (out oracle.Outcome, deadlineHit, hit, persistent bool) {

	key := imageKey{hash: eng.PrefixImageHash(), size: eng.Size()}
	if out, seeded, ok := table.lookup(key); ok {
		return out, false, true, seeded
	}
	out, deadlineHit = boundedCheck(app, eng.PrefixImage(), sb)
	if !deadlineHit {
		table.put(key, out.Detached(), false)
	}
	return out, deadlineHit, false, false
}
