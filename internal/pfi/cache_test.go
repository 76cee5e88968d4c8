package pfi

import (
	"fmt"
	"sync"
	"testing"
)

// cacheProg builds a distinct, valid program per index so each compiles to
// its own unit.
func cacheProg(i int) string {
	return fmt.Sprintf("TASKTYPE MAIN\n      PRINT *, %d\nEND TASKTYPE\n", i)
}

func TestUnitCacheHitSharesUnit(t *testing.T) {
	c := NewUnitCache(1 << 20)
	p1, hit1, err := c.CompileTrace(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	p2, hit2, err := c.CompileTrace(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Fatalf("hit flags = %v, %v; want miss then hit", hit1, hit2)
	}
	if p1.unit != p2.unit {
		t.Fatal("cache hit did not share the compiled unit")
	}
	if p1 == p2 {
		t.Fatal("cache hit returned the same Program; run state must be fresh")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", s)
	}
}

// TestUnitCacheEvicts is the regression test for the unbounded unitCache
// sync.Map this cache replaced: inserting more units than the weight bound
// admits must evict in LRU order, and the evicted unit must actually leave
// the cache (entry count and weight stay bounded; recompiling it is a miss).
func TestUnitCacheEvicts(t *testing.T) {
	// Size the bound to hold roughly three of these programs.
	u, err := CompileUncached(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	per := u.unit.weight
	if per <= 0 {
		t.Fatalf("unit weight = %d; want positive", per)
	}
	c := NewUnitCache(3*per + per/2)

	const n = 10
	for i := 0; i < n; i++ {
		if _, _, err := c.CompileTrace(cacheProg(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries > 3 {
		t.Fatalf("cache holds %d entries after %d inserts; want <= 3", s.Entries, n)
	}
	if s.Weight > s.MaxBytes {
		t.Fatalf("cache weight %d exceeds bound %d", s.Weight, s.MaxBytes)
	}
	if s.Evictions != int64(n-s.Entries) {
		t.Fatalf("evictions = %d; want %d", s.Evictions, n-s.Entries)
	}

	// The oldest program must be gone (recompiling it misses), the newest
	// still resident (hits).
	if _, hit, err := c.CompileTrace(cacheProg(n - 1)); err != nil || !hit {
		t.Fatalf("newest program: hit=%v err=%v; want cache hit", hit, err)
	}
	if _, hit, err := c.CompileTrace(cacheProg(0)); err != nil || hit {
		t.Fatalf("oldest program: hit=%v err=%v; want miss after eviction", hit, err)
	}
}

func TestUnitCacheLRUOrder(t *testing.T) {
	u, err := CompileUncached(cacheProg(0))
	if err != nil {
		t.Fatal(err)
	}
	per := u.unit.weight
	c := NewUnitCache(2*per + per/2)
	for i := 0; i < 2; i++ {
		if _, _, err := c.CompileTrace(cacheProg(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch program 0 so program 1 becomes least recently used, then insert
	// a third: 1 must be the victim.
	if _, hit, _ := c.CompileTrace(cacheProg(0)); !hit {
		t.Fatal("expected hit on resident program 0")
	}
	if _, _, err := c.CompileTrace(cacheProg(2)); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.CompileTrace(cacheProg(0)); !hit {
		t.Fatal("recently used program 0 was evicted")
	}
	if _, hit, _ := c.CompileTrace(cacheProg(2)); !hit {
		t.Fatal("just-inserted program 2 was evicted")
	}
}

// TestUnitCacheOversizedEntry: a single unit heavier than the whole bound
// still compiles and stays resident until the next insert displaces it.
func TestUnitCacheOversizedEntry(t *testing.T) {
	c := NewUnitCache(1) // absurdly small bound
	if _, hit, err := c.CompileTrace(cacheProg(0)); err != nil || hit {
		t.Fatalf("hit=%v err=%v; want clean miss-compile", hit, err)
	}
	if _, hit, _ := c.CompileTrace(cacheProg(0)); !hit {
		t.Fatal("oversized entry was not retained as the sole resident")
	}
	if _, _, err := c.CompileTrace(cacheProg(1)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d; want 1 (newest survives, oldest evicted)", s.Entries)
	}
}

func TestUnitCacheConcurrent(t *testing.T) {
	c := NewUnitCache(0)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if _, err := c.Compile(cacheProg(i % 5)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Entries != 5 {
		t.Fatalf("entries = %d; want 5", s.Entries)
	}
}

// TestUnitCacheSharesConcurrentCompile pins the stampede fix: callers that
// miss on the same source at once share one compile, so the source counts
// exactly one miss however the callers interleave, and every other caller
// counts a hit.  A compile error reaches every caller and is not cached.
func TestUnitCacheSharesConcurrentCompile(t *testing.T) {
	const callers = 16
	c := NewUnitCache(0)
	run := func(src string) []error {
		errs := make([]error, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, errs[i] = c.Compile(src)
			}(i)
		}
		close(start)
		wg.Wait()
		return errs
	}

	for i, err := range run(cacheProg(0)) {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != callers-1 || s.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 miss, %d hits, 1 entry", s, callers-1)
	}

	for i, err := range run("TASKTYPE MAIN\n      PRINT *,\n") {
		if err == nil {
			t.Fatalf("caller %d: broken source compiled", i)
		}
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d after a failed compile; want 1 (errors are not cached)", s.Entries)
	}
}
