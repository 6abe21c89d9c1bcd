package core

import (
	"fmt"
	"sync"
	"testing"

	"mumak/internal/oracle"
)

func key(h uint64) imageKey { return imageKey{hash: h, size: 1 << 16} }

func TestImageCacheFirstVerdictWins(t *testing.T) {
	c := newVerdictTable()
	c.put(key(9), oracle.Outcome{Verdict: oracle.Unrecoverable}, false)
	// A racing worker (or a later warm source) storing the same key
	// must not clobber the entry.
	c.put(key(9), oracle.Outcome{Verdict: oracle.Consistent}, true)
	out, seeded, ok := c.lookup(key(9))
	if !ok || out.Verdict != oracle.Unrecoverable || seeded {
		t.Errorf("lookup = (%v, seeded %v, %v), want the first verdict", out.Verdict, seeded, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after duplicate put, want 1", c.Len())
	}
}

func TestImageCacheKeyDiscriminates(t *testing.T) {
	c := newVerdictTable()
	c.put(imageKey{hash: 5, size: 100}, oracle.Outcome{Verdict: oracle.Crashed}, false)
	if _, _, ok := c.lookup(imageKey{hash: 5, size: 200}); ok {
		t.Error("same hash with different pool size hit")
	}
	if _, _, ok := c.lookup(imageKey{hash: 6, size: 100}); ok {
		t.Error("different hash hit")
	}
}

// TestImageCacheConcurrent exercises the table the way the campaign
// does: many goroutines looking up and storing overlapping keys. Run
// under -race.
func TestImageCacheConcurrent(t *testing.T) {
	c := newVerdictTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(uint64(i % 40))
				if out, _, ok := c.lookup(k); ok {
					if out.Err == nil {
						t.Errorf("goroutine %d: stored outcome lost its error", g)
						return
					}
					continue
				}
				c.put(k, oracle.Outcome{
					Verdict: oracle.Unrecoverable,
					Err:     fmt.Errorf("verdict for image %d", i%40),
				}, false)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != 40 {
		t.Errorf("Len = %d, want one entry per distinct key (40)", n)
	}
	exp := c.export()
	for i := 1; i < len(exp); i++ {
		if exp[i-1].Hash > exp[i].Hash ||
			(exp[i-1].Hash == exp[i].Hash && exp[i-1].Size >= exp[i].Size) {
			t.Fatalf("export not sorted by (hash, size) at %d", i)
		}
	}
}
