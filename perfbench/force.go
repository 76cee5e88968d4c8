package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pfi"
)

// pfi-force: the paper's force series (E4) as one seed-generated Pisces
// Fortran program, run again and again on one warm VM whose cluster has a
// two-member force.  Each sweep runs a PRESCHED loop of regular iterations
// and a SELFSCHED loop whose iteration costs are drawn from a heavy-tailed
// distribution, merges each member's partial sum under CRITICAL and meets at
// a BARRIER.  The program prints its total, which must equal the sum the
// benchmark computes in Go.
const (
	forceSweeps   = 4
	forceRegular  = 1500 // PRESCHED iterations per sweep
	forceIrreg    = 160  // SELFSCHED iterations per sweep
	forceIrregSum = 4000 // total inner iterations of the SELFSCHED loop per sweep
	forceSetups   = 25
)

// forceProgram is one generated input: the program text, the SELFSCHED
// cost vector passed as MAIN's argument, and the expected total.
type forceProgram struct {
	src   string
	costs []int64
	want  float64
}

func genForce(seed int64) forceProgram {
	rng := rand.New(rand.NewSource(seed))
	a, b, m := 7+rng.Int63n(90), 1+rng.Int63n(50), 97+rng.Int63n(400)
	c, m2 := 3+rng.Int63n(40), 11+rng.Int63n(60)
	// The SELFSCHED costs are the quantiles of a Pareto(alpha=1.1)
	// distribution capped at 24 times the smallest, scaled to a fixed total:
	// every seed does the same work with the same skew, and the seed decides
	// where the heavy iterations fall.
	w := make([]float64, forceIrreg)
	var sum float64
	for i := range w {
		u := (float64(i) + 0.5) / forceIrreg
		w[i] = math.Min(1/math.Pow(1-u, 1/1.1), 24)
		sum += w[i]
	}
	costs := make([]int64, forceIrreg)
	var used int64
	for i := range costs {
		costs[i] = max(1, int64(forceIrregSum*w[i]/sum))
		used += costs[i]
	}
	for i := 0; used < forceIrregSum; i++ {
		costs[i%forceIrreg]++
		used++
	}
	rng.Shuffle(len(costs), func(i, j int) { costs[i], costs[j] = costs[j], costs[i] })
	var want int64
	for sw := int64(1); sw <= forceSweeps; sw++ {
		for i := int64(1); i <= forceRegular; i++ {
			want += (i*a + sw*b) % m
		}
		for i, cost := range costs {
			for k := int64(1); k <= cost; k++ {
				want += (k*c + int64(i+1)) % m2
			}
		}
	}
	src := fmt.Sprintf(`TASKTYPE MAIN(COST)
      INTEGER I, K, SW
      REAL PRIV
      SHARED COMMON /ACC/ TOT
      LOCK LK
      FORCESPLIT
      DO 50 SW = 1, %d
      PRIV = 0.0
      PRESCHED DO 10 I = 1, %d
        PRIV = PRIV + REAL(MOD(I * %d + SW * %d, %d))
10    CONTINUE
      SELFSCHED DO 20 I = 1, %d
        DO 30 K = 1, COST(I)
          PRIV = PRIV + REAL(MOD(K * %d + I, %d))
30      CONTINUE
20    CONTINUE
      CRITICAL LK
        TOT = TOT + PRIV
      END CRITICAL
      BARRIER
      END BARRIER
50    CONTINUE
      BARRIER
        PRINT *, 'CHECK', TOT
      END BARRIER
END TASKTYPE
`, forceSweeps, forceRegular, a, b, m, forceIrreg, c, m2)
	return forceProgram{src: src, costs: costs, want: float64(want)}
}

// syncBuf is the VM's user terminal: written by the user controller, read
// by the benchmark after each run.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) take() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.buf.String()
	b.buf.Reset()
	return s
}

// checkForce parses the program's CHECK line.
func checkForce(out string, want float64) error {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "CHECK" {
			got, err := strconv.ParseFloat(f[1], 64)
			if err != nil || got != want {
				return fmt.Errorf("printed %q, want %v", f[1], want)
			}
			return nil
		}
	}
	return fmt.Errorf("no CHECK line in output %q", out)
}

func bootForce(reg *obs.Registry, out *syncBuf) (*core.VM, error) {
	cfg := config.Simple(1, 4).WithForces(1, 7)
	return core.NewVM(cfg, core.Options{UserOutput: out, AcceptTimeout: lostMessage, Metrics: reg})
}

func runForce(p *pass) error {
	in := genForce(p.seed)
	arg := core.Ints(in.costs)
	out := &syncBuf{}
	var reg *obs.Registry
	if p.reg != nil {
		reg = obs.New()
		reg.Enable(obs.Metrics)
	}
	var vm *core.VM
	var prog *pfi.Program
	boots, compiles := p.timer("bench.core.vm_boot"), p.timer("bench.pfi.compile")
	for i := 0; i < forceSetups; i++ {
		clock := startActive()
		t0 := clock.t0
		var err error
		if vm, err = bootForce(reg, out); err != nil {
			return err
		}
		t1 := time.Now()
		if prog, err = pfi.CompileUncached(in.src); err != nil {
			vm.Shutdown()
			return err
		}
		t2 := time.Now()
		err = prog.Run(vm, pfi.Options{}, arg)
		if err == nil {
			err = checkForce(out.take(), in.want)
		}
		t3 := time.Now()
		if err != nil {
			vm.Shutdown()
			return fmt.Errorf("warm-up run: %w", err)
		}
		p.setupDone(clock)
		boots.ObserveDuration(t1.Sub(t0))
		compiles.ObserveDuration(t2.Sub(t1))
		p.reg.SpanAt("force", "setup", t0, t3)
		p.reg.SpanAt("force setup", "core.NewVM", t0, t1)
		p.reg.SpanAt("force setup", "pfi.CompileUncached", t1, t2)
		p.reg.SpanAt("force setup", "pfi.Program.Run", t2, t3)
		if i < forceSetups-1 {
			vm.Shutdown()
		}
	}
	defer vm.Shutdown()

	before := reg.Snapshot()
	stmts0 := prog.Counters().Get("statements")
	mem := startMem()
	var solves []float64
	clock := startActive()
	deadline := clock.t0.Add(p.dur)
	for p.attempted == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		err := prog.Run(vm, pfi.Options{}, arg)
		t1 := time.Now()
		p.attempted++
		if err == nil {
			err = checkForce(out.take(), in.want)
		}
		if err != nil {
			p.fail("force run: %v", err)
			continue
		}
		solves = append(solves, float64(t1.Sub(t0)))
		p.reg.SpanAt("force", "pfi.Program.Run", t0, t1)
	}
	wall, steal := clock.read()
	p.memPeak = mem.finish()

	stmts := prog.Counters().Get("statements") - stmts0

	p99 := windowP99(solves, 1000)
	p50 := quantile(solves, 0.5)
	p.e2e["lat_p50_ms"] = p50 / 1e6
	p.e2e["rate_per_s"] = activeRate(float64(len(solves)), wall, steal)
	p.note("solve_s", p50/1e9, "s")
	p.note("solve_p99_s", p99/1e9, "s")
	p.note("solves", float64(len(solves)), "count")
	p.note("solves_per_s", p.e2e["rate_per_s"], "1/s")
	p.note("solves_per_s_wall", float64(len(solves))/wall.Seconds(), "1/s")
	p.note("steal_frac", float64(steal)/float64(wall), "ratio")
	if p.reg == nil {
		return nil
	}
	d := diffSnap(reg.Snapshot(), before)
	vmLayers(p, d)
	p.layer("pfi.stmt_ns.p50", snapHist(d, "pfi.stmt.ns").Quantile(0.5))
	p.layer("pfi.stmt_ns.p99", snapHist(d, "pfi.stmt.ns").Quantile(0.99))
	p.layer("pfi.stmts", float64(stmts)/float64(p.attempted))
	p.layer("pfi.run_ms.p50", p50/1e6)
	// More compiles and boots than set-up needs, for their distributions.
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := pfi.CompileUncached(in.src); err != nil {
			return err
		}
		t1 := time.Now()
		compiles.ObserveDuration(t1.Sub(t0))
		p.reg.SpanAt("force", "pfi.CompileUncached", t0, t1)
		b, err := bootForce(nil, out)
		if err != nil {
			return err
		}
		t2 := time.Now()
		b.Shutdown()
		boots.ObserveDuration(t2.Sub(t1))
		p.reg.SpanAt("force", "core.NewVM", t1, t2)
	}
	timerLayers(p)
	return nil
}
