package node_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// TestMeshShutdownLeavesNoLeaks runs crosscluster.pf on a 2-node mesh and
// closes both nodes; afterwards the process must be back where it started:
// the goroutine count settles to its baseline with every writer, reader and
// deliver goroutine gone, and every heap shard on both nodes reads zero.
func TestMeshShutdownLeavesNoLeaks(t *testing.T) {
	src := corpusSource(t, "crosscluster.pf")
	cfg := config.Simple(2, 4)
	base := runtime.NumGoroutine()

	var out bytes.Buffer
	nodes := startMesh(t, 2, cfg, src, &out, nil)
	runDistributed(t, nodes)
	if !strings.Contains(out.String(), "ARRAY SUM") {
		t.Fatalf("run output unexpected:\n%s", out.String())
	}

	for i, n := range nodes {
		for c, shard := range n.VM().Machine().Shared().HeapShards() {
			if used := shard.InUse(); used != 0 {
				t.Errorf("node %d heap shard %d: %d bytes in use after shutdown", i, c, used)
			}
		}
	}

	pipeline := []string{"(*peer).writeLoop", "(*Node).readLoop", "(*Node).deliverLoop"}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		var left []string
		for _, fn := range pipeline {
			if strings.Contains(stacks, fn) {
				left = append(left, fn)
			}
		}
		if n <= base && len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after shutdown: %d goroutines (baseline %d), pipeline goroutines still running: %v\n%s",
				n, base, left, stacks)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
