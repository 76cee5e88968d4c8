package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pfi"
	"repro/internal/serve"
)

// serve-mix: open-loop submissions of short seed-generated programs into an
// in-process serve.Manager.  The distinct programs outweigh the compile
// cache, and their popularity is Zipf-skewed, so hits, misses and evictions
// all occur.  One generator goroutine submits on a fixed schedule; latency
// runs from each request's due time to its session's finish.  The run
// spends serveNominalShare of --seconds at the nominal rate and
// serveCapacityShare at saturation, then runs a rate ladder to find the
// highest rate whose p99 meets serveLimit.
const (
	servePool          = 400             // distinct programs per seed
	serveCacheBytes    = 256 << 10       // compile-cache bound, well under the pool's weight
	serveActive        = 2               // MaxActive: sessions running at once (nproc)
	serveQueue         = 4096            // admission queue depth: no rung overflows it
	serveNominal       = 400.0           // nominal rate, requests/s, well under capacity
	serveNominalShare  = 0.4             // share of --seconds spent at the nominal rate
	serveCapacityShare = 0.35            // share of --seconds spent at saturation
	serveInFlight      = 2 * serveActive // sessions outstanding at saturation
	serveWindow        = 500             // completions per saturation window
	serveLadderStart   = 0.8             // first ladder rung, as a share of the measured capacity
	serveLadderStep    = 1.08            // rate ratio between ladder rungs
	serveMisses        = 3               // misses in a row that end the climb
	serveMaxRungs      = 24
	serveRung          = 1000 // requests per rung, so its p99 has 10 beyond it
	serveLimit         = 50 * time.Millisecond
	limitMS            = float64(serveLimit) / 1e6
	serveSetups        = 15
	serveWarm          = 100 // requests of set-up warm-up
)

// serveProgram is one generated program and the output it must print.
type serveProgram struct {
	src  string
	want string
	msgs int // messages the program sends, by construction
}

// genServePool generates the programs in order of popularity: pool[0] is
// drawn most often.  A program's kind and size come from its rank, and the
// seed draws its constants, so every seed offers the same work and the
// seeds' programs differ in text and output.
func genServePool(seed int64) []serveProgram {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var pool []serveProgram
	for len(pool) < servePool {
		rank := len(pool)
		size := math.Mod(float64(rank)*0.6180339887, 1) // spread evenly over [0, 1)
		var p serveProgram
		switch rank % 3 {
		case 0:
			p = genFanout(rng, size)
		case 1:
			p = genLoop(rng, size)
		default:
			p = genPingPong(rng, size)
		}
		if !seen[p.src] {
			seen[p.src] = true
			pool = append(pool, p)
		}
	}
	return pool
}

// genFanout: MAIN initiates workers that each sum a short series and reply.
func genFanout(rng *rand.Rand, size float64) serveProgram {
	nw, n, l := 2+int(size*3), 10+int(size*50), 50+int(size*150)
	a, b := 2+rng.Intn(30), 5+rng.Intn(40)
	j := 0
	for i := 1; i <= l; i++ {
		j += i * a % b
	}
	for k := 1; k <= nw; k++ {
		j += k * n * (n + 1) / 2
	}
	src := fmt.Sprintf(`TASKTYPE MAIN
      INTEGER I, J, K
      SIGNAL RESULT
      DO 5 K = 1, %d
        ON ANY INITIATE WORKER(K, %d)
5     CONTINUE
      J = 0
      DO 10 I = 1, %d
        J = J + MOD(I * %d, %d)
10    CONTINUE
      ACCEPT %d OF RESULT
      DO 20 K = 1, %d
        J = J + MSGI('RESULT', K, 1)
20    CONTINUE
      PRINT *, 'SUM', J
END TASKTYPE

TASKTYPE WORKER(ME, N)
      INTEGER ME, N, I, S
      S = 0
      DO 10 I = 1, N
        S = S + ME * I
10    CONTINUE
      TO PARENT SEND RESULT(S)
END TASKTYPE
`, nw, n, l, a, b, nw, nw)
	return serveProgram{src, fmt.Sprintf("SUM %d\n", j), nw}
}

// genLoop: a single task and a nested loop; no messages.
func genLoop(rng *rand.Rand, size float64) serveProgram {
	l, m, a, b, c := 20+int(size*40), 5+int(size*15), 2+rng.Intn(40), 3+rng.Intn(60), rng.Intn(100)
	j := 0
	for i := 1; i <= l; i++ {
		for k := 1; k <= m; k++ {
			j += (i*a + k*c) % b
		}
	}
	src := fmt.Sprintf(`TASKTYPE MAIN
      INTEGER I, J, K
      J = 0
      DO 10 I = 1, %d
        DO 20 K = 1, %d
          J = J + MOD(I * %d + K * %d, %d)
20      CONTINUE
10    CONTINUE
      PRINT *, 'SUM', J
END TASKTYPE
`, l, m, a, c, b)
	return serveProgram{src, fmt.Sprintf("SUM %d\n", j), 0}
}

// genPingPong: MAIN and a child exchange k round trips, each reply
// depending on the last.
func genPingPong(rng *rand.Rand, size float64) serveProgram {
	k, v0, b, c := 2+int(size*8), 1+rng.Intn(50), 2+rng.Intn(20), 7+rng.Intn(200)
	j, v := 0, v0
	for i := 1; i <= k; i++ {
		j += (v*b + i) % c
		v = j
	}
	src := fmt.Sprintf(`TASKTYPE MAIN
      INTEGER I, J
      SIGNAL PING
      ON ANY INITIATE ECHO(%d)
      J = 0
      DO 10 I = 1, %d
        ACCEPT 1 OF PING
        J = J + MSGI('PING', 1, 1)
        TO SENDER SEND PONG(J)
10    CONTINUE
      PRINT *, 'SUM', J
END TASKTYPE

TASKTYPE ECHO(K)
      INTEGER K, I, V
      SIGNAL PONG
      V = %d
      DO 10 I = 1, K
        TO PARENT SEND PING(MOD(V * %d + I, %d))
        ACCEPT 1 OF PONG
        V = MSGI('PONG', 1, 1)
10    CONTINUE
END TASKTYPE
`, k, k, v0, b, c)
	return serveProgram{src, fmt.Sprintf("SUM %d\n", j), 2 * k}
}

// request is one scheduled submission and what became of it.  Sessions
// are not kept once finished: each holds a flight recorder, and holding
// thousands would measure the benchmark's memory, not the daemon's.
type request struct {
	prog *serveProgram
	due  time.Time
	sub  time.Time // when Submit returned
	err  error     // Submit's error, or what was wrong with the session

	submitted, started, finished time.Time // Session.Times
	hit                          bool
	events, retained             int64 // flight-recorder events taken and still held
}

// collect waits for the session to finish and keeps what the benchmark
// measures of it.
func (r *request) collect(s *serve.Session) {
	<-s.Done()
	r.submitted, r.started, r.finished = s.Times()
	r.hit = s.CacheHit()
	if st, err := s.State(); st != serve.StateDone {
		r.err = fmt.Errorf("session %s: state %s: %v", s.ID(), st, err)
	} else if out := string(s.Output()); out != r.prog.want {
		r.err = fmt.Errorf("session %s: output %q, want %q", s.ID(), out, r.prog.want)
	}
	r.events, r.retained = recorderEvents(s.Events())
}

// schedule is the request stream: program choices drawn once per seed.
type schedule struct {
	pool []serveProgram
	zipf *rand.Zipf
}

func (sc *schedule) next() *serveProgram { return &sc.pool[sc.zipf.Uint64()] }

// openLoop submits n requests at rate per second from the calling goroutine
// while one collector goroutine waits for the sessions in submission order;
// it returns once every session has finished.
func openLoop(p *pass, m *serve.Manager, sc *schedule, n int, rate float64) []request {
	reqs := make([]request, n)
	type admitted struct {
		r *request
		s *serve.Session
	}
	queue := make(chan admitted, n) // never blocks the generator
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for a := range queue {
			a.r.collect(a.s)
		}
	}()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	for i := range reqs {
		r := &reqs[i]
		r.prog = sc.next()
		r.due = start.Add(time.Duration(i) * interval)
		waitUntil(r.due, interval/10)
		t0 := time.Now()
		s, err := m.Submit(serve.Request{Source: r.prog.src})
		r.sub = time.Now()
		p.reg.SpanAt("loadgen", "serve.Manager.Submit", t0, r.sub)
		if err != nil {
			r.err = fmt.Errorf("submit: %w", err)
			continue
		}
		queue <- admitted{r, s}
	}
	close(queue)
	<-collected
	return reqs
}

// saturate keeps serveInFlight sessions outstanding for dur from the
// calling goroutine, submitting the next as the oldest finishes, so the
// manager's queue never runs dry.  It returns the completion rate of each
// window of serveWindow sessions, over active time and over wall time.
func saturate(p *pass, m *serve.Manager, sc *schedule, dur time.Duration) (rates, wallRates []float64, steal, wall time.Duration) {
	type admitted struct {
		r *request
		s *serve.Session
	}
	var flight []admitted
	done := make([]request, 0, serveWindow)
	next := func() {
		r := &request{prog: sc.next(), due: time.Now()}
		s, err := m.Submit(serve.Request{Source: r.prog.src})
		r.sub = time.Now()
		if err != nil {
			r.err = fmt.Errorf("submit: %w", err)
			done = append(done, *r)
			return
		}
		flight = append(flight, admitted{r, s})
	}
	deadline := time.Now().Add(dur)
	clock := startActive()
	for range serveInFlight {
		next()
	}
	for len(flight) > 0 {
		a := flight[0]
		flight = flight[1:]
		a.r.collect(a.s)
		done = append(done, *a.r)
		if time.Now().Before(deadline) {
			next()
		}
		if len(done) >= serveWindow || (len(flight) == 0 && len(rates) == 0) {
			w, st := clock.read()
			wall, steal = wall+w, steal+st
			rates = append(rates, activeRate(float64(len(done)), w, st))
			wallRates = append(wallRates, float64(len(done))/w.Seconds())
			check(p, done)
			done = done[:0]
			clock = startActive()
		}
	}
	check(p, done)
	return rates, wallRates, steal, wall
}

// waitUntil returns at due: it sleeps until spin before due and spins the
// rest, because a sleeping generator wakes late by however long the host
// takes to wake an idle vCPU, and that lateness would count as latency.
func waitUntil(due time.Time, spin time.Duration) {
	if d := time.Until(due) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
	}
}

// check counts each request against the pass and returns the due-to-finish
// latencies of the successful ones, in milliseconds.
func check(p *pass, reqs []request) []float64 {
	lats := make([]float64, 0, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		p.attempted++
		if r.err != nil {
			p.fail("%v", r.err)
			continue
		}
		lats = append(lats, float64(r.finished.Sub(r.due))/1e6)
	}
	return lats
}

// backlog returns the sessions admitted but unfinished at instant t.
func backlog(reqs []request, t time.Time) int {
	n := 0
	for i := range reqs {
		if r := &reqs[i]; !r.finished.IsZero() && !r.sub.After(t) && r.finished.After(t) {
			n++
		}
	}
	return n
}

// maxBacklog returns the most sessions admitted but unfinished at once.
func maxBacklog(reqs []request) int {
	type step struct {
		at time.Time
		d  int
	}
	var steps []step
	for i := range reqs {
		if r := &reqs[i]; !r.finished.IsZero() {
			steps = append(steps, step{r.sub, 1}, step{r.finished, -1})
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].at.Before(steps[j].at) })
	n, most := 0, 0
	for _, s := range steps {
		n += s.d
		most = max(most, n)
	}
	return most
}

func newManager() *serve.Manager {
	return serve.New(serve.Config{MaxActive: serveActive, QueueDepth: serveQueue, CacheBytes: serveCacheBytes})
}

func runServe(p *pass) error {
	pool := genServePool(p.seed)
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	sc := &schedule{pool: pool, zipf: rand.NewZipf(rng, 1.1, 1, servePool-1)}
	var m *serve.Manager
	for i := 0; i < serveSetups; i++ {
		clock := startActive()
		m = newManager()
		warm := make([]request, serveWarm)
		sessions := make([]*serve.Session, serveWarm)
		for j := range warm {
			warm[j].prog = sc.next()
			if sessions[j], warm[j].err = m.Submit(serve.Request{Source: warm[j].prog.src}); warm[j].err != nil {
				return fmt.Errorf("warm-up submit: %w", warm[j].err)
			}
		}
		for j := range warm {
			if warm[j].collect(sessions[j]); warm[j].err != nil {
				return fmt.Errorf("warm-up: %w", warm[j].err)
			}
		}
		p.setupDone(clock)
		p.reg.SpanAt("serve", "setup", clock.t0, time.Now())
		if i < serveSetups-1 {
			if err := m.Drain(time.Minute); err != nil {
				return err
			}
		}
	}
	defer func() {
		if err := m.Drain(time.Minute); err != nil {
			p.fail("drain: %v", err)
		}
	}()

	mem := startMem()
	cache0 := m.Cache().Stats()
	nominal := openLoop(p, m, sc, max(1, int(serveNominal*p.dur.Seconds()*serveNominalShare)), serveNominal)
	cache1 := m.Cache().Stats()
	lats := check(p, nominal)
	p99 := windowP99(lats, serveRung)
	p50 := quantile(lats, 0.5)
	p.e2e["lat_p50_ms"] = p50
	p.note("lat_p50_ms", p50, "ms")
	p.note("lat_p99_ms", p99, "ms")
	p.note("lat_samples", float64(len(lats)), "count")

	rates, wallRates, steal, wall := saturate(p, m, sc, time.Duration(float64(p.dur)*serveCapacityShare))
	if len(rates) == 0 {
		return fmt.Errorf("no session was admitted at saturation")
	}
	p.e2e["rate_per_s"] = quantile(rates, 0.5)
	p.note("capacity_per_s", p.e2e["rate_per_s"], "1/s")
	capacityWall := quantile(wallRates, 0.5)
	p.note("capacity_per_s_wall", capacityWall, "1/s")
	p.note("steal_frac", float64(steal)/float64(max(wall, 1)), "ratio")

	// Rate ladder: rungs of a fixed request count, each drained before the
	// next, climbing by serveLadderStep from serveLadderStart times the
	// wall-time capacity just measured.  A rung can miss the limit on a
	// passing stall, so the climb ends only after serveMisses misses in a row; the result is the highest rung that met
	// the limit, interpolated towards the missed rung above it.  A ladder
	// whose first rung misses descends until one meets the limit.  A ladder
	// that runs out of rungs still reports: the highest rung met is a floor
	// when none above it missed, and when none met the limit the figure is
	// a step below the lowest rung tried.
	type rung struct{ rate, p99 float64 }
	var pass, fail []rung
	rate, misses := serveLadderStart*capacityWall, 0
	for n := 0; n < serveMaxRungs && misses < serveMisses; n++ {
		reqs := openLoop(p, m, sc, serveRung, rate)
		rl := check(p, reqs)
		r := rung{rate, quantile(rl, 0.99)}
		end := backlog(reqs, reqs[len(reqs)-1].due)
		fmt.Printf("# rung %.0f/s: p99 %.3f ms, backlog at end %d\n", rate, r.p99, end)
		// A backlog more than the limit's worth of arrivals is growing.
		if len(rl) < len(reqs) || r.p99 > limitMS || float64(end) > rate*limitMS/1e3 {
			fail = append(fail, r)
			if len(pass) == 0 {
				rate /= serveLadderStep
				continue
			}
			misses++
		} else {
			pass = append(pass, r)
			misses = 0
		}
		rate *= serveLadderStep
	}
	var maxRate float64
	if len(pass) == 0 {
		low := math.Inf(1)
		for _, r := range fail {
			low = min(low, r.rate)
		}
		maxRate = low / serveLadderStep
		fmt.Printf("# ladder: no rung met the limit; max_rate_per_s is a step below the lowest rung tried\n")
	} else {
		best := pass[0]
		for _, r := range pass {
			if r.rate > best.rate {
				best = r
			}
		}
		next := rung{math.Inf(1), 0}
		for _, r := range fail {
			if r.rate > best.rate && r.rate < next.rate {
				next = r
			}
		}
		maxRate = best.rate
		if math.IsInf(next.rate, 1) {
			fmt.Printf("# ladder: no rung above %.0f/s missed the limit; max_rate_per_s is a floor\n", best.rate)
		} else {
			frac := (limitMS - best.p99) / max(next.p99-best.p99, 1e-9)
			maxRate += (next.rate - best.rate) * min(max(frac, 0), 1)
		}
	}
	p.memPeak = mem.finish()
	p.note("max_rate_per_s", maxRate, "1/s")
	if p.reg == nil {
		return nil
	}

	// Per-layer metrics, nominal phase.
	var queue, hit, miss []float64
	var late []float64
	var events, overwrites, msgs int64
	for i := range nominal {
		r := &nominal[i]
		late = append(late, float64(r.sub.Sub(r.due))/1e6)
		if r.finished.IsZero() {
			continue
		}
		queue = append(queue, float64(r.started.Sub(r.submitted))/1e6)
		service := float64(r.finished.Sub(r.started)) / 1e6
		name := "session miss"
		if r.hit {
			hit = append(hit, service)
			name = "session hit"
		} else {
			miss = append(miss, service)
		}
		events += r.events
		overwrites += r.events - r.retained
		msgs += int64(r.prog.msgs)
		p.reg.SpanAt("serve queue", name, r.submitted, r.started)
		p.reg.SpanAt("serve service", name, r.started, r.finished)
	}
	p.layer("serve.queue_wait_ms.p50", quantile(queue, 0.5))
	p.layer("serve.queue_wait_ms.p99", quantile(queue, 0.99))
	p.layer("serve.service_ms.hit.p50", quantile(hit, 0.5))
	p.layer("serve.service_ms.miss.p50", quantile(miss, 0.5))
	p.layer("serve.backlog_max", float64(maxBacklog(nominal)))
	p.layer("serve.rejected", float64(snapCounter(m.Snapshot(), "serve.sessions.rejected")))
	p.layer("loadgen.late_ms.p99", quantile(late, 0.99))
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	p.layer("pfi.cache.hit_ratio", float64(cache1.Hits-cache0.Hits)/float64(max(lookups, 1)))
	p.layer("pfi.cache.evictions", float64(cache1.Evictions-cache0.Evictions))
	p.layer("obs.recorder.events_per_msg", float64(events)/float64(max(msgs, 1)))
	p.layer("obs.recorder.overwrites", float64(overwrites))

	// The compile and boot costs behind a miss: each distinct program
	// compiled once, and VMs booted as the manager boots a session's: the
	// same shape, a fresh flight recorder and an output writer.
	compiles, boots := p.timer("bench.pfi.compile"), p.timer("bench.core.vm_boot")
	for i := range pool {
		t0 := time.Now()
		if _, err := pfi.CompileUncached(pool[i].src); err != nil {
			return err
		}
		t1 := time.Now()
		compiles.ObserveDuration(t1.Sub(t0))
		p.reg.SpanAt("serve", "pfi.CompileUncached", t0, t1)
	}
	for i := 0; i < 50; i++ {
		rec := obs.NewRecorder(0, 0, 0)
		t0 := time.Now()
		vm, err := core.NewVM(config.Simple(2, 8), core.Options{UserOutput: io.Discard, FlightRecorder: rec})
		if err != nil {
			return err
		}
		t1 := time.Now()
		vm.Shutdown()
		boots.ObserveDuration(t1.Sub(t0))
		p.reg.SpanAt("serve", "core.NewVM", t0, t1)
	}
	timerLayers(p)
	return nil
}
