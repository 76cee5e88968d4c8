package node

import (
	"bytes"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pfi"
)

// TestBroadcastPartialFailureKeepsDrainBalance pins the broadcast accounting
// fix: a broadcast over one dead and one live lane must still reach the live
// peer and must count only the live lane's copy in the drain balance — the
// dead lane's copy is written off as lost once its writer fails, so the
// sent/recv books stay balanced and a later drain round can still converge.
// Once the dead lane has failed, every later send over it reports the error.
func TestBroadcastPartialFailureKeepsDrainBalance(t *testing.T) {
	topo, err := Partition([]int{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTransport(0, topo, obs.New())
	defer tr.Close()

	live, liveFar := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, liveFar) }()
	tr.addPeer(1, live)

	dead, deadFar := net.Pipe()
	_ = dead.Close()
	_ = deadFar.Close()
	tr.addPeer(2, dead)

	// The first broadcast is handed to both batches; the dead lane's failure
	// surfaces when its writer tries the socket.
	f := &core.WireFrame{Kind: core.FrameBroadcast, Src: 1, Dst: 0, Seq: 1, Type: "tick", Payload: []byte("x")}
	_ = tr.Send(f)
	tr.Flush()
	if sent, recv := tr.counts(); sent != 1 || recv != 0 {
		t.Fatalf("after partial broadcast failure: sent %d recv %d, want 1 0 (only the live lane's copy counted)", sent, recv)
	}

	// The failed lane keeps reporting, keeps forwarding to the live peer, and
	// stays out of the books: no phantom imbalance accumulates.
	if err := tr.Send(f); err == nil {
		t.Fatal("broadcast over the failed lane reported total success")
	}
	tr.Flush()
	if sent, _ := tr.counts(); sent != 2 {
		t.Fatalf("sent = %d after two partial broadcasts, want 2", sent)
	}
}

// TestWireEdgesMatchSingleProcess runs crosscluster.pf over a real 2-node
// mesh whose transports are shrunk to the wire path's edges, and requires
// the single-process output byte for byte:
//   - a credit window of 1: every data frame waits for the receiver's grant,
//     and only the stage-empty grant rule lets the run make progress;
//   - a batch target of 24 bytes with a window of 2: crosscluster.pf ships
//     array arguments well over 24 bytes, so every frame outgrows the batch
//     buffer and must travel whole, and no grown buffer is recycled.
func TestWireEdgesMatchSingleProcess(t *testing.T) {
	b, err := os.ReadFile("../conformance/corpus/crosscluster.pf")
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	cfg := config.Simple(2, 4)

	var ref bytes.Buffer
	vm, err := core.NewVM(cfg, core.Options{UserOutput: &ref, AcceptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pfi.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	runErr := prog.Run(vm, pfi.Options{})
	vm.Shutdown()
	if runErr != nil {
		t.Fatalf("reference run: %v", runErr)
	}

	edges := []struct {
		name             string
		window, batchCap int
	}{
		{"credit-window-1", 1, batchBytes},
		{"frame-bigger-than-batch-buffer", 2, 24},
	}
	for _, e := range edges {
		t.Run(e.name, func(t *testing.T) {
			var out bytes.Buffer
			nodes := startShrunkMesh(t, cfg, src, &out, e.window, e.batchCap)
			done := make(chan error, 1)
			go func() { done <- nodes[1].ServeUntilShutdown() }()
			if err := nodes[0].RunMain(); err != nil {
				t.Errorf("run: %v", err)
			}
			if err := nodes[0].Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := <-done; err != nil {
				t.Errorf("follower: %v", err)
			}
			if got := out.String(); got != ref.String() {
				t.Fatalf("output differs with window %d, batch %d:\n--- got ---\n%s--- want ---\n%s",
					e.window, e.batchCap, got, ref.String())
			}
		})
	}
}

// startShrunkMesh boots a 2-node loopback mesh and, before any data frame
// flows, shrinks every transport's credit window and batch target.
func startShrunkMesh(t *testing.T, cfg *config.Configuration, src string, out io.Writer, window, batchCap int) []*Node {
	t.Helper()
	var addrs []string
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	nodes := make([]*Node, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := Options{
				NodeID: i, Addrs: addrs, Listener: lns[i], Config: cfg, Source: src,
				AcceptTimeout: 30 * time.Second, ConnectTimeout: 20 * time.Second,
			}
			if i == 0 {
				o.Out = out
			}
			nodes[i], errs[i] = Start(o)
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				_ = n.Close()
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for _, n := range nodes {
		tr := n.tr
		tr.window, tr.batchCap = window, batchCap
		for _, p := range tr.allPeers() {
			p.mu.Lock()
			p.credits = window
			p.mu.Unlock()
		}
	}
	return nodes
}
