package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
)

// mesh-e5: the paper's message table (E5) on a two-node TCP mesh in one
// process.  Clusters 1 and 2 live on node 0, cluster 3 on node 1.
//
//   - Phase A (latency): a pinger on cluster 3 ping-pongs with an echo task
//     on cluster 1, closed loop, one message in flight.
//   - Phase B (throughput): two producers on cluster 3 (wire route) and one
//     on cluster 2 (in-process cross-cluster route) fan a fixed message count
//     into one collector on cluster 1.
//
// Every round ends by counting: the pinger by its replies, the collector by
// its datums plus one "fin" per producer.  A producer asks for credit after
// every window except its last, so no request is ever left unanswered; the
// accept delays below only turn a lost message into a counted failure.
const (
	meshWire   = 2      // producers on node 1
	meshLocal  = 1      // producers on node 0's second cluster
	fanWindow  = 128    // datums per flush/credit round trip
	pingRound  = 2000   // round trips per phase-A round
	fanRound   = 150000 // datums per phase-B round (all producers)
	meshSetups = 15
	// Each set-up repetition starts a mesh, initiates its tasks and checks
	// both routes with a short warm-up of this many pings and datums.
	meshWarmPings = 200
	meshWarmFan   = 9000
	lostMessage   = 20 * time.Second
)

type pingReport struct {
	rtts []time.Duration
	bad  int
	err  error
}

type fanReport struct {
	got, fins int
	sumV      int64
	sumR      float64
	err       error
}

// meshTasks is the state the Go tasktypes share with the benchmark.  The same
// registration runs on both nodes; which task runs where is decided by the
// initiate placements.
type meshTasks struct {
	reg   *obs.Registry  // the benchmark's registry, nil on a clean pass
	send  *obs.Histogram // producers' Task.Send times, nil on a clean pass
	pings chan pingReport
	fans  chan fanReport
}

var control = []core.TypeCount{{Type: "go"}, {Type: "stop"}}

// awaitGo blocks until the benchmark starts the next round; nil means stop.
func awaitGo(t *core.Task) *core.Message {
	res, err := t.Accept(core.AcceptSpec{Total: 1, Types: control, Delay: core.Forever})
	if err != nil || res.Accepted[0].Type == "stop" {
		return nil
	}
	return res.Accepted[0]
}

func (mt *meshTasks) register(vm *core.VM) {
	vm.Register("echo", func(t *core.Task) {
		for {
			res, err := t.Accept(core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "ping"}, {Type: "stop"}}, Delay: core.Forever})
			if err != nil || res.Accepted[0].Type == "stop" {
				return
			}
			if err := t.SendSender("pong", res.Accepted[0].Arg(0)); err != nil {
				return
			}
		}
	})
	vm.Register("pinger", func(t *core.Task) {
		echo := core.MustID(t.Arg(0))
		for m := awaitGo(t); m != nil; m = awaitGo(t) {
			n, base := int(core.MustInt(m.Arg(0))), core.MustInt(m.Arg(1))
			rep := pingReport{rtts: make([]time.Duration, 0, n)}
			for i := 0; i < n && rep.err == nil; i++ {
				v := base + int64(i)
				t0 := time.Now()
				rep.err = t.Send(echo, "ping", core.Int(v))
				if rep.err != nil {
					break
				}
				t1 := time.Now()
				res, err := t.Accept(core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "pong"}}, Delay: lostMessage})
				if mt.reg != nil && i%64 == 0 {
					mt.reg.SpanAt("pinger", "core.Task.Send", t0, t1)
					mt.reg.SpanAt("pinger", "core.Task.Accept", t1, time.Now())
				}
				switch {
				case err != nil:
					rep.err = err
				case res.TimedOut:
					rep.err = errors.New("pong lost")
				default:
					if core.MustInt(res.Accepted[0].Arg(0)) != v {
						rep.bad++
					}
					t.RecycleAccept(res)
				}
				rep.rtts = append(rep.rtts, time.Since(t0))
			}
			mt.pings <- rep
		}
	})
	vm.Register("collector", func(t *core.Task) {
		types := []core.TypeCount{{Type: "datum"}, {Type: "flush"}, {Type: "fin"}}
		drain := []core.TypeCount{{Type: "datum", Count: core.All}, {Type: "flush", Count: core.All}, {Type: "fin", Count: core.All}}
		for m := awaitGo(t); m != nil; m = awaitGo(t) {
			total, producers := int(core.MustInt(m.Arg(0))), int(core.MustInt(m.Arg(1)))
			var rep fanReport
			handle := func(res *core.AcceptResult) {
				for _, m := range res.Accepted {
					switch m.Type {
					case "datum":
						rep.got++
						rep.sumV += core.MustInt(m.Arg(0))
						for _, x := range core.MustReals(m.Arg(1)) {
							rep.sumR += x
						}
					case "flush":
						if err := t.Send(m.Sender, "credit"); err != nil && rep.err == nil {
							rep.err = err
						}
					case "fin":
						rep.fins++
					}
				}
				t.RecycleAccept(res)
			}
			for (rep.got < total || rep.fins < producers) && rep.err == nil {
				// Block for one message, then take whatever else arrived.
				res, err := t.Accept(core.AcceptSpec{Total: 1, Types: types, Delay: lostMessage})
				if err == nil && res.TimedOut {
					err = fmt.Errorf("collector stalled at %d/%d datums, %d/%d fins", rep.got, total, rep.fins, producers)
				}
				if err != nil {
					rep.err = err
					break
				}
				handle(res)
				if res, err = t.Accept(core.AcceptSpec{Types: drain}); err != nil {
					rep.err = err
					break
				}
				handle(res)
			}
			mt.fans <- rep
		}
	})
	vm.Register("producer", func(t *core.Task) {
		payload := make([]float64, 8)
		for m := awaitGo(t); m != nil; m = awaitGo(t) {
			to, count, key := core.MustID(m.Arg(0)), int(core.MustInt(m.Arg(1))), uint64(core.MustInt(m.Arg(2)))
			err := func() error {
				for sent := 0; sent < count; {
					n := min(fanWindow, count-sent)
					for i := sent; i < sent+n; i++ {
						v := datum(key, i, payload)
						t0 := time.Now()
						if err := t.Send(to, "datum", core.Int(v), core.Reals(payload)); err != nil {
							return err
						}
						if mt.send != nil {
							t1 := time.Now()
							mt.send.ObserveDuration(t1.Sub(t0))
							if i%256 == 0 {
								mt.reg.SpanAt("producer", "core.Task.Send", t0, t1)
							}
						}
					}
					sent += n
					if sent == count {
						break
					}
					if err := t.Send(to, "flush"); err != nil {
						return err
					}
					res, err := t.Accept(core.AcceptSpec{Total: 1, Types: []core.TypeCount{{Type: "credit"}}, Delay: lostMessage})
					if err != nil {
						return err
					}
					if res.TimedOut {
						return errors.New("credit lost")
					}
					t.RecycleAccept(res)
				}
				return t.Send(to, "fin")
			}()
			if err != nil {
				// The collector stalls and reports the shortfall; say why.
				fmt.Printf("# producer %s: %v\n", t.ID(), err)
			}
		}
	})
}

// datum fills payload with the i-th message of a producer's stream and
// returns its integer value; the stream is a pure function of key.
func datum(key uint64, i int, payload []float64) int64 {
	v := splitmix64(key + uint64(i))
	for k := range payload {
		payload[k] = float64((v >> (4 * k)) & 15)
	}
	return int64(v >> 1)
}

// meshRun is one started mesh with its long-lived tasks.
type meshRun struct {
	nodes     [2]*node.Node
	regs      [2]*obs.Registry
	served    chan error
	echo      core.TaskID
	pinger    core.TaskID
	collector core.TaskID
	producers []core.TaskID
}

func startMesh(mt *meshTasks, traced bool) (*meshRun, error) {
	cfg := config.Simple(3, 8)
	m := &meshRun{served: make(chan error, 1)}
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var errs [2]error
	var wg sync.WaitGroup
	for i := range m.nodes {
		if traced {
			m.regs[i] = obs.New()
			m.regs[i].Enable(obs.Metrics)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			m.nodes[i], errs[i] = node.Start(node.Options{
				NodeID: i, Addrs: addrs, Listener: lns[i], Config: cfg,
				Register: mt.register, AcceptTimeout: lostMessage,
				ConnectTimeout: 20 * time.Second, Metrics: m.regs[i],
			})
			mt.reg.SpanAt("mesh", "node.Start", t0, time.Now())
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		for _, n := range m.nodes {
			if n != nil {
				_ = n.Close()
			}
		}
		return nil, err
	}
	go func() { m.served <- m.nodes[1].ServeUntilShutdown() }()
	vm0, vm1 := m.nodes[0].VM(), m.nodes[1].VM()
	var err error
	if m.echo, err = vm0.Initiate("echo", core.OnCluster(1)); err != nil {
		return m, err
	}
	if m.pinger, err = vm1.Initiate("pinger", core.OnCluster(3), core.ID(m.echo)); err != nil {
		return m, err
	}
	if m.collector, err = vm0.Initiate("collector", core.OnCluster(1)); err != nil {
		return m, err
	}
	for i := 0; i < meshWire+meshLocal; i++ {
		vm, cl := vm1, 3
		if i >= meshWire {
			vm, cl = vm0, 2
		}
		id, err := vm.Initiate("producer", core.OnCluster(cl))
		if err != nil {
			return m, err
		}
		m.producers = append(m.producers, id)
	}
	return m, nil
}

// vmOf returns the VM of the node hosting the task's cluster.
func (m *meshRun) vmOf(id core.TaskID) *core.VM {
	if id.Cluster == 3 {
		return m.nodes[1].VM()
	}
	return m.nodes[0].VM()
}

// stop ends the tasks and shuts the mesh down; the coordinator's Close
// drains the mesh first, so every message in flight is delivered.
func (m *meshRun) stop() error {
	var errs []error
	for _, id := range append([]core.TaskID{m.echo, m.pinger, m.collector}, m.producers...) {
		if !id.IsNil() {
			errs = append(errs, m.vmOf(id).SendFromUser(id, "stop"))
		}
	}
	errs = append(errs, m.nodes[0].Close(), <-m.served)
	return errors.Join(errs...)
}

// pingRoundTrip runs one phase-A round of n round trips.
func (m *meshRun) pingRoundTrip(mt *meshTasks, n int, base int64) pingReport {
	if err := m.vmOf(m.pinger).SendFromUser(m.pinger, "go", core.Int(int64(n)), core.Int(base)); err != nil {
		return pingReport{err: err}
	}
	return <-mt.pings
}

// fanIn runs one phase-B round of total datums and checks the collector's
// count and checksums against the generated streams.  It returns the
// round's wall time and the host's steal during it.
func (m *meshRun) fanIn(mt *meshTasks, total int, key uint64) (wall, steal time.Duration, err error) {
	producers := len(m.producers)
	per := total / producers
	var wantV int64
	var wantR float64
	payload := make([]float64, 8)
	for p := 0; p < producers; p++ {
		for i := 0; i < per; i++ {
			wantV += datum(key+uint64(p)<<32, i, payload)
			for _, x := range payload {
				wantR += x
			}
		}
	}
	clock := startActive()
	if err := m.vmOf(m.collector).SendFromUser(m.collector, "go", core.Int(int64(per*producers)), core.Int(int64(producers))); err != nil {
		return 0, 0, err
	}
	for p, id := range m.producers {
		if err := m.vmOf(id).SendFromUser(id, "go", core.ID(m.collector), core.Int(int64(per)), core.Int(int64(key+uint64(p)<<32))); err != nil {
			return 0, 0, err
		}
	}
	rep := <-mt.fans
	wall, steal = clock.read()
	if rep.err != nil {
		return wall, steal, rep.err
	}
	if rep.got != per*producers || rep.fins != producers || rep.sumV != wantV || rep.sumR != wantR {
		return wall, steal, fmt.Errorf("fan-in mismatch: got %d/%d datums, %d/%d fins, checksums %d/%d %g/%g",
			rep.got, per*producers, rep.fins, producers, rep.sumV, wantV, rep.sumR, wantR)
	}
	return wall, steal, nil
}

func runMesh(p *pass) error {
	mt := &meshTasks{reg: p.reg, send: p.timer("bench.core.send"), pings: make(chan pingReport, 1), fans: make(chan fanReport, 1)}
	key := splitmix64(uint64(p.seed))
	var m *meshRun
	for i := 0; i < meshSetups; i++ {
		clock := startActive()
		var err error
		m, err = startMesh(mt, p.reg != nil)
		if err == nil {
			if rep := m.pingRoundTrip(mt, meshWarmPings, 0); rep.err != nil {
				err = rep.err
			} else {
				_, _, err = m.fanIn(mt, meshWarmFan, key)
			}
		}
		if err != nil {
			if m != nil {
				_ = m.stop()
			}
			return fmt.Errorf("mesh set-up: %w", err)
		}
		p.setupDone(clock)
		p.reg.SpanAt("mesh", "setup", clock.t0, time.Now())
		if i < meshSetups-1 {
			if err := m.stop(); err != nil {
				return fmt.Errorf("mesh teardown: %w", err)
			}
		}
	}
	defer func() {
		if err := m.stop(); err != nil {
			p.fail("mesh teardown: %v", err)
		}
	}()

	mem := startMem()
	// Phase A: closed-loop ping-pong.
	var roundP50, roundP99 []float64
	rtts := make([]float64, pingRound)
	deadline := time.Now().Add(p.dur * 35 / 100)
	for round := int64(0); round == 0 || time.Now().Before(deadline); round++ {
		t0 := time.Now()
		rep := m.pingRoundTrip(mt, pingRound, round*pingRound)
		p.reg.SpanAt("mesh", "ping round", t0, time.Now())
		p.attempted += int64(pingRound)
		rtts = rtts[:len(rep.rtts)]
		for i, d := range rep.rtts {
			rtts[i] = float64(d) / 1e3
		}
		roundP50 = append(roundP50, quantile(rtts, 0.5))
		roundP99 = append(roundP99, quantile(rtts, 0.99))
		if rep.bad > 0 {
			p.failed += int64(rep.bad)
			p.fail("%d pongs carried the wrong value", rep.bad)
		}
		if rep.err != nil {
			p.failed += int64(pingRound - len(rep.rtts))
			p.fail("ping round: %v", rep.err)
			break
		}
	}

	// Phase B: fan-in, with the layer registries diffed around it.
	before, benchBefore := m.snapshot(), p.reg.Snapshot()
	inline0, queued0 := m.laneCounts()
	recBefore := m.recorders()
	objs0, bytes0 := allocs()
	var rates, wallRates []float64
	var delivered int64
	var wallSum, stealSum time.Duration
	deadline = time.Now().Add(p.dur * 65 / 100)
	for round := uint64(1); round == 1 || time.Now().Before(deadline); round++ {
		t0 := time.Now()
		wall, steal, err := m.fanIn(mt, fanRound, key+round<<40)
		p.reg.SpanAt("mesh", "fan-in round", t0, time.Now())
		p.attempted += int64(fanRound)
		if err != nil {
			p.failed += int64(fanRound)
			p.fail("fan-in round: %v", err)
			break
		}
		delivered += int64(fanRound)
		wallSum, stealSum = wallSum+wall, stealSum+steal
		rates = append(rates, activeRate(fanRound, wall, steal))
		wallRates = append(wallRates, float64(fanRound)/wall.Seconds())
	}
	objs1, bytes1 := allocs()
	p.memPeak = mem.finish()

	fmt.Printf("# fan-in round rates, active time: %.0f\n", rates)
	// Percentiles are taken per round of pingRound samples (p99 has 20
	// beyond it) and the median over rounds reported, so one stalled round
	// cannot move them.
	rttP50, rttP99 := quantile(roundP50, 0.5), quantile(roundP99, 0.5)
	msgs := quantile(rates, 0.5)
	p.e2e["lat_p50_ms"] = rttP50 / 1e3
	p.e2e["rate_per_s"] = msgs
	p.note("rtt_p50_us", rttP50, "us")
	p.note("rtt_p99_us", rttP99, "us")
	p.note("rtt_samples", float64(len(roundP99)*pingRound), "count")
	p.note("msgs_per_s", msgs, "1/s")
	p.note("msgs_per_s_wall", quantile(wallRates, 0.5), "1/s")
	p.note("steal_frac", float64(stealSum)/float64(max(wallSum, 1)), "ratio")
	p.note("fan_rounds", float64(len(rates)), "count")
	if p.reg == nil {
		return nil
	}

	// Per-layer metrics, phase B.
	d := diffSnap(m.snapshot(), before)
	vmLayers(p, d)
	n := float64(max(delivered, 1))
	wire := n * meshWire / (meshWire + meshLocal)
	q := func(name string, qq float64) float64 { return snapHist(d, name).Quantile(qq) }
	p.layer("node.batch_write_ns.p50", q("node.batch.write.ns", 0.5))
	p.layer("node.batch_write_ns.p99", q("node.batch.write.ns", 0.99))
	p.layer("node.batch_frames.p50", q("node.batch.frames", 0.5))
	p.layer("node.batch_bytes.p50", q("node.batch.bytes", 0.5))
	p.layer("node.frames_per_msg", float64(snapCounterSum(d, "node.tx.", ".frames"))/wire)
	p.layer("node.credit_stalls", float64(snapCounter(d, "node.credit.stalls")))
	p.layer("node.credit_stall_ns.p99", q("node.credit.stall.ns", 0.99))
	p.layer("node.deliver_ns.p50", q("node.frame.deliver.ns", 0.5))
	p.layer("node.deliver_ns.p99", q("node.frame.deliver.ns", 0.99))
	p.layer("node.read_ns.p50", q("node.frame.read.ns", 0.5))
	send := snapHist(diffSnap(p.reg.Snapshot(), benchBefore), "bench.core.send")
	p.layer("core.send_ns.p50", send.Quantile(0.5))
	p.layer("core.send_ns.p99", send.Quantile(0.99))
	inline, queued := m.laneCounts()
	inline, queued = inline-inline0, queued-queued0
	p.layer("core.lane.inline_ratio", float64(inline)/float64(max(inline+queued, 1)))
	p.layer("go.allocs_per_msg", float64(objs1-objs0)/n)
	p.layer("go.bytes_per_msg", float64(bytes1-bytes0)/n)
	recAfter := m.recorders()
	var events, overwrites int64
	for i := range recAfter {
		events += recAfter[i][0] - recBefore[i][0]
		overwrites += (recAfter[i][0] - recAfter[i][1]) - (recBefore[i][0] - recBefore[i][1])
	}
	p.layer("obs.recorder.events_per_msg", float64(events)/n)
	p.layer("obs.recorder.overwrites", float64(overwrites))
	return nil
}

// snapshot merges both nodes' registries.
func (m *meshRun) snapshot() *obs.Snapshot {
	s := m.regs[0].Snapshot()
	s.Merge(m.regs[1].Snapshot())
	return s
}

// laneCounts sums both nodes' router-lane decisions so far: messages
// delivered inline and messages queued to a lane.
func (m *meshRun) laneCounts() (inline, queued int64) {
	for _, n := range m.nodes {
		for _, l := range n.VM().RouterStats() {
			inline += l.Inline
			queued += l.Enqueued
		}
	}
	return inline, queued
}

func (m *meshRun) recorders() [2][2]int64 {
	var out [2][2]int64
	for i, n := range m.nodes {
		out[i][0], out[i][1] = recorderEvents(n.Recorder().Events())
	}
	return out
}
