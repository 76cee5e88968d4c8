package schedule

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/flex"
	"repro/internal/mmos"
)

func testKernel() (*mmos.Kernel, []*flex.PE) {
	m := flex.MustNewMachine(flex.DefaultConfig())
	k := mmos.NewKernel(m)
	var pes []*flex.PE
	for _, n := range []int{3, 4, 5, 6} {
		pes = append(pes, m.PE(n))
	}
	return k, pes
}

// diamond builds a diamond-shaped graph a -> (b, c) -> d and records the
// execution order.
func diamond(order *[]string, mu *sync.Mutex) *Graph {
	add := func(name string) func() {
		return func() {
			mu.Lock()
			*order = append(*order, name)
			mu.Unlock()
		}
	}
	g := NewGraph()
	g.Call("a", 10, add("a"))
	g.Call("b", 10, add("b")).Depends("b", "a")
	g.Call("c", 10, add("c")).Depends("c", "a")
	g.Call("d", 10, add("d")).Depends("d", "b", "c")
	return g
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

func TestRunParallelRespectsDependencies(t *testing.T) {
	var mu sync.Mutex
	var order []string
	g := diamond(&order, &mu)
	k, pes := testKernel()
	res, err := g.Run(k, pes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 4 {
		t.Fatalf("completed %v", res.Completed)
	}
	mu.Lock()
	defer mu.Unlock()
	if indexOf(order, "a") != 0 {
		t.Errorf("a must run first: %v", order)
	}
	if indexOf(order, "d") != 3 {
		t.Errorf("d must run last: %v", order)
	}
	total := 0
	for _, n := range res.PerWorker {
		total += n
	}
	if total != 4 {
		t.Errorf("per-worker counts %v do not sum to 4", res.PerWorker)
	}
}

func TestRunDistributesIndependentWork(t *testing.T) {
	// A wide graph of independent units must use more than one worker.  Each
	// unit takes a little real time so the work queue cannot be drained by a
	// single worker before the others start.
	g := NewGraph()
	var count atomic.Int64
	for i := 0; i < 32; i++ {
		name := string(rune('A' + i%26))
		g.Call(name+string(rune('0'+i/26)), 5, func() {
			count.Add(1)
			time.Sleep(2 * time.Millisecond)
		})
	}
	k, pes := testKernel()
	res, err := g.Run(k, pes)
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 32 {
		t.Fatalf("ran %d units", count.Load())
	}
	busy := 0
	for _, n := range res.PerWorker {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("automatic mapping used %d worker(s), expected at least 2", busy)
	}
	// The simulated machine accumulated the work's tick cost.
	if k.Machine().TotalTicks() < 32*5 {
		t.Errorf("total ticks %d, want >= %d", k.Machine().TotalTicks(), 32*5)
	}
}

func TestValidationErrors(t *testing.T) {
	// Missing dependency definition.
	g := NewGraph()
	g.Call("a", 1, func() {})
	g.Depends("a", "ghost")
	if _, _, err := g.RunVirtual(1); err == nil {
		t.Error("undefined dependency accepted")
	}

	// Depends before Call leaves the unit without a body.
	g2 := NewGraph()
	g2.Depends("x", "y")
	g2.Call("y", 1, func() {})
	if _, _, err := g2.RunVirtual(1); err == nil {
		t.Error("unit without a body accepted")
	}

	// Cycle.
	g3 := NewGraph()
	g3.Call("a", 1, func() {}).Depends("a", "b")
	g3.Call("b", 1, func() {}).Depends("b", "a")
	if _, _, err := g3.RunVirtual(1); err != ErrCycle {
		t.Errorf("cycle: got %v", err)
	}

	// No PEs.
	g4 := NewGraph()
	g4.Call("a", 1, func() {})
	k, _ := testKernel()
	if _, err := g4.Run(k, nil); err == nil {
		t.Error("run with no PEs accepted")
	}
}

// Property: for random layered DAGs, parallel execution completes every unit
// exactly once and never runs a unit before its dependencies.
func TestQuickParallelCorrectness(t *testing.T) {
	k, pes := testKernel()
	f := func(widths [3]uint8) bool {
		g := NewGraph()
		var mu sync.Mutex
		finished := make(map[string]bool)
		okOrder := true
		var names [][]string
		for layer := 0; layer < 3; layer++ {
			w := int(widths[layer]%3) + 1
			var layerNames []string
			for i := 0; i < w; i++ {
				name := string(rune('a'+layer)) + string(rune('0'+i))
				deps := []string{}
				if layer > 0 {
					deps = names[layer-1]
				}
				depsCopy := append([]string(nil), deps...)
				g.Call(name, 1, func() {
					mu.Lock()
					for _, d := range depsCopy {
						if !finished[d] {
							okOrder = false
						}
					}
					finished[name] = true
					mu.Unlock()
				})
				if len(deps) > 0 {
					g.Depends(name, deps...)
				}
				layerNames = append(layerNames, name)
			}
			names = append(names, layerNames)
		}
		res, err := g.Run(k, pes)
		if err != nil {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return okOrder && len(res.Completed) == len(finished) && len(finished) == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVirtualDiamond(t *testing.T) {
	var mu sync.Mutex
	var order []string
	g := diamond(&order, &mu)
	res, makespan, err := g.RunVirtual(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 4 {
		t.Fatalf("completed %v", res.Completed)
	}
	// a (10) then b and c in parallel (10) then d (10) = 30.
	if makespan != 30 {
		t.Fatalf("makespan = %d, want 30", makespan)
	}
	// One worker: fully serial, bodies still run in dependency order.
	order = nil
	g2 := diamond(&order, &mu)
	res, serial, err := g2.RunVirtual(1)
	if err != nil {
		t.Fatal(err)
	}
	if serial != 40 {
		t.Fatalf("serial makespan = %d, want 40", serial)
	}
	if len(res.Completed) != 4 || indexOf(order, "a") != 0 || indexOf(order, "d") != 3 {
		t.Fatalf("serial order %v (completed %v) violates dependencies", order, res.Completed)
	}
	if _, _, err := g2.RunVirtual(0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestRunVirtualWideGraphScales(t *testing.T) {
	g := NewGraph()
	for j := 0; j < 16; j++ {
		g.Call(string(rune('a'+j)), 10, func() {})
	}
	_, ms4, err := g.RunVirtual(4)
	if err != nil {
		t.Fatal(err)
	}
	if ms4 != 40 {
		t.Fatalf("16 independent units of cost 10 on 4 workers: makespan %d, want 40", ms4)
	}
	_, ms16, err := g.RunVirtual(16)
	if err != nil {
		t.Fatal(err)
	}
	if ms16 != 10 {
		t.Fatalf("one unit per worker: makespan %d, want 10", ms16)
	}
}

func BenchmarkScheduleWideGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		for j := 0; j < 64; j++ {
			g.Call(string(rune('a'+j%26))+string(rune('0'+j/26)), 1, func() {})
		}
		k, pes := testKernel()
		if _, err := g.Run(k, pes); err != nil {
			b.Fatal(err)
		}
	}
}
