package main

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/parallel"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/server"
	"olapmicro/internal/sql"
	"olapmicro/internal/tpch"
)

const (
	// serverWorkers is the shared morsel pool size of every workload's
	// server, one per CPU of the 2-CPU host the benchmark targets.
	serverWorkers = 2
	// planCache is the server's default plan-cache capacity, which
	// plan-churn's statements and the warm-up pass are sized against.
	planCache = 64
	// warmStatements is how many distinct statements the warm-up pass
	// submits: every statement of the hot workloads, and twice the
	// plan cache's capacity on plan-churn.
	warmStatements = 2 * planCache
)

// env is one set-up workload: database, server, sequences and the
// reference answer of every statement the run may submit.
type env struct {
	w    *workload
	data *tpch.Data
	mach *hw.Machine
	srv  *server.Server
	seqs [][]stmt
	opts []server.SubmitOption
	ref  map[string]engine.Result

	failMu  sync.Mutex
	failMsg string
}

// setUp builds the database and the server and runs the warm-up pass,
// n times; it keeps the last set-up and returns the process CPU time
// of every set-up. CPU time, unlike wall time, does not count the time
// the host gave this machine's CPUs to other guests, which on a shared
// host can double a set-up's wall time from one run to the next.
func setUp(w *workload, seqs [][]stmt, n int) (*env, []time.Duration, error) {
	var opts []server.SubmitOption
	if w.fast {
		opts = append(opts, server.WithFast())
	}
	warm := distinct(seqs)
	if len(warm) > warmStatements {
		warm = warm[:warmStatements]
	}
	var e *env
	times := make([]time.Duration, 0, n)
	for range n {
		if e != nil {
			e.srv.Close()
			e = nil
			runtime.GC()
		}
		cpu0 := processCPU()
		data := tpch.Generate(w.sf)
		mach := hw.Broadwell().Scaled(8)
		// QueryThreads matches the workload, so query lines through
		// ServeSession, which cannot choose threads, run like Submit.
		srv, err := server.New(server.Config{Data: data, Machine: mach, Workers: serverWorkers, QueryThreads: w.threads})
		if err != nil {
			return nil, nil, err
		}
		e = &env{w: w, data: data, mach: mach, srv: srv, seqs: seqs, opts: opts}
		for _, s := range warm {
			if _, err := srv.Submit(context.Background(), s.text, opts...); err != nil {
				srv.Close()
				return nil, nil, fmt.Errorf("warm-up %q: %w", s.text, err)
			}
		}
		times = append(times, processCPU()-cpu0)
	}
	return e, times, nil
}

// computeReferences answers every distinct statement by a path other
// than the one under test, two statements at a time. withCanonical
// adds the canonical statements the traced run may submit.
func (e *env) computeReferences(withCanonical bool) error {
	todo := distinct(e.seqs)
	if withCanonical {
		for _, k := range []string{kindQ6, kindQ1, kindQ3, kindOCJoin} {
			todo = append(todo, stmt{text: canonical[k], kind: k})
		}
	}
	e.ref = map[string]engine.Result{}
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serverWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				r, err := e.reference(todo[i].text)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %q: %w", todo[i].text, err)
				}
				e.ref[todo[i].text] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// reference is one statement's answer off the path under test: the
// server runs FastPlan statements on the vectorized kernels and
// measured statements through the simulator, so those are answered on
// the engines' nil-probe path; fast joins already run on that path,
// so they are answered by sql.Run measured serial.
func (e *env) reference(text string) (engine.Result, error) {
	c, err := sql.Compile(e.data, e.mach, text, sql.Options{Threads: 1})
	if err != nil {
		return engine.Result{}, err
	}
	if e.w.fast && c.FastPlan() == nil {
		_, a, err := sql.Run(e.data, e.mach, text, sql.Options{Threads: 1})
		if err != nil {
			return engine.Result{}, err
		}
		return a.Result, nil
	}
	return nilProbeRun(c, 1, nil)
}

// check reports whether a submission succeeded with the reference
// answer, remembering the first failure for the log.
func (e *env) check(text string, resp *server.Response, err error) bool {
	switch {
	case err != nil:
		e.fail(fmt.Sprintf("%q: %v", text, err))
	case !resp.Executed || resp.Result != e.ref[text]:
		e.fail(fmt.Sprintf("%q: got %v, want %v", text, resp.Result, e.ref[text]))
	default:
		return true
	}
	return false
}

func (e *env) checkResult(text string, got engine.Result) bool {
	if got != e.ref[text] {
		e.fail(fmt.Sprintf("%q: replay got %v, want %v", text, got, e.ref[text]))
		return false
	}
	return true
}

func (e *env) fail(msg string) {
	e.failMu.Lock()
	if e.failMsg == "" {
		e.failMsg = msg
	}
	e.failMu.Unlock()
}

func (e *env) firstFailure() string {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failMsg
}

// nilProbeRun executes a bound plan on its engine with nil probes: the
// build, the morsel scan and the finalize merge the server's join
// fallback runs, with no simulation. tr, when non-nil, times each
// call.
func nilProbeRun(c *sql.Compiled, threads int, tr *tracer) (res engine.Result, err error) {
	as := probe.NewAddrSpace()
	var prep relop.Prepared
	tr.call(spanBuild, func() { prep, err = c.Prepare(nil, as) })
	if err != nil {
		return res, err
	}
	var workers []relop.Worker
	tr.call(spanScan, func() {
		morsels := parallel.Morsels(prep.Rows(), 0, prep.MorselAlign(), threads)
		workers = parallel.NewFastWorkers(as, prep, morsels, threads, "perfbench.w")
		runMorsels(workers, morsels)
	})
	tr.call(spanFinalize, func() { res = relop.FinalizeProbed(nil, c.Pipeline, partials(workers)) })
	return res, nil
}

// simRun is one measured execution: its answer, the assembled
// accounting, the simulated line accesses of all its probes and the
// host time of its build, scan and finalize.
type simRun struct {
	res      engine.Result
	acct     *parallel.Result
	accesses uint64
	host     time.Duration
}

// measuredRun executes a bound plan the way the server's measured
// path does: a build probe, one probe per worker, finalize on the
// build probe, then parallel.Assemble.
func measuredRun(c *sql.Compiled, m *hw.Machine, threads int, tr *tracer) (run simRun, err error) {
	as := probe.NewAddrSpace()
	build := probe.New(m, mem.AllPrefetchers())
	var prep relop.Prepared
	run.host = tr.call(spanSimBuild, func() { prep, err = c.Prepare(build, as) })
	if err != nil {
		return run, err
	}
	var probes []*probe.Probe
	var workers []relop.Worker
	var morsels []parallel.Morsel
	run.host += tr.call(spanSimScan, func() {
		morsels = parallel.Morsels(prep.Rows(), 0, prep.MorselAlign(), threads)
		probes, workers = parallel.NewWorkers(m, mem.AllPrefetchers(), as, prep, morsels, threads, "perfbench.w")
		runMorsels(workers, morsels)
	})
	run.host += tr.call(spanSimFinalize, func() { run.res = relop.FinalizeProbed(build, c.Pipeline, partials(workers)) })
	tr.call(spanAssemble, func() { run.acct = parallel.Assemble(m, build, probes, run.res, len(morsels)) })
	run.accesses = build.Mem.Stats.Accesses()
	for _, p := range probes {
		run.accesses += p.Mem.Stats.Accesses()
	}
	return run, nil
}

// runMorsels runs worker t over morsels t, t+len(workers), ... — the
// server pool's strided assignment — one goroutine per worker.
func runMorsels(workers []relop.Worker, morsels []parallel.Morsel) {
	var wg sync.WaitGroup
	for t, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := t; i < len(morsels); i += len(workers) {
				w.RunMorsel(morsels[i].Start, morsels[i].End)
			}
		}()
	}
	wg.Wait()
}

func partials(workers []relop.Worker) []*relop.Partial {
	out := make([]*relop.Partial, len(workers))
	for i, w := range workers {
		out[i] = w.Partial()
	}
	return out
}

// procSample is the process counters the end-to-end metrics are
// differences of.
type procSample struct {
	cpu                 time.Duration
	mallocs, allocBytes uint64
	maxRSSKiB           int64
	// steal and ticks are the host's stolen and total CPU ticks, from
	// /proc/stat where the kernel reports them (0 elsewhere).
	steal, ticks uint64
}

// processCPU is the user+sys CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return cpuOf(ru)
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealFrac is the share of the host's CPU time taken by other guests
// between two samples: the benchmark's own noise floor on a shared
// host, recorded with the run.
func (s procSample) stealFrac(before procSample) float64 {
	return ratio(float64(s.steal-before.steal), float64(s.ticks-before.ticks))
}

// hostTicks reads the aggregate cpu line of /proc/stat.
func hostTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func sampleProcess() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	steal, ticks := hostTicks()
	return procSample{
		cpu:        cpuOf(ru),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		maxRSSKiB:  ru.Maxrss,
		steal:      steal,
		ticks:      ticks,
	}
}

// loopStats is one closed-loop run.
type loopStats struct {
	attempted, failed int64
	samples           []sample // correct completions, in completion order
	elapsed           time.Duration
}

// maxSamples bounds the latency samples one client keeps, so the
// benchmark's own memory does not grow with the rate it measures.
const maxSamples = 1 << 17

// sampler keeps every stride-th correct completion of one client. When
// it fills, it drops every other sample and doubles the stride, so the
// samples it keeps stay evenly spread over the run.
type sampler struct {
	samples      []sample
	stride, seen int
}

func (s *sampler) add(x sample) {
	s.seen++
	if s.seen%s.stride != 0 {
		return
	}
	s.samples = append(s.samples, x)
	if len(s.samples) == maxSamples {
		for i := range maxSamples / 2 {
			s.samples[i] = s.samples[2*i+1]
		}
		s.samples = s.samples[:maxSamples/2]
		s.stride *= 2
	}
}

func (s *loopStats) completed() int64 { return s.attempted - s.failed }

// sample is one correct completion: when it finished, from the start
// of the loop, and its latency.
type sample struct{ at, lat time.Duration }

func (s *loopStats) latencies() []time.Duration {
	out := make([]time.Duration, len(s.samples))
	for i, x := range s.samples {
		out[i] = x.lat
	}
	return out
}

// minTailSamples is the fewest completions a 99th percentile is taken
// over, leaving at least ten samples beyond it.
const minTailSamples = 1000

// p99 is the median of the 99th percentiles of up to 20 consecutive
// slices of the loop, each of at least minTailSamples completions: a
// burst of preemption by the host then moves the slices it falls in,
// not the result. Runs with fewer than 2 slices' worth take one
// percentile over everything.
func (s *loopStats) p99() time.Duration {
	n := min(20, max(1, len(s.samples)/minTailSamples))
	size := len(s.samples) / n
	p := make([]time.Duration, n)
	for i := range p {
		slice := s.samples[i*size : (i+1)*size]
		if i == n-1 {
			slice = s.samples[i*size:]
		}
		lat := make([]time.Duration, len(slice))
		for j, x := range slice {
			lat[j] = x.lat
		}
		p[i] = quantile(lat, 0.99)
	}
	return median(p)
}

// qps is completed statements per second over the whole loop.
func (s *loopStats) qps() float64 {
	return float64(s.completed()) / s.elapsed.Seconds()
}

// maxLoop bounds a loop that has not yet completed minQueries, so a
// slow host still finishes within the benchmark's time limit.
const maxLoop = 90 * time.Second

// closedLoop runs one goroutine per client; each submits its sequence
// cyclically through do, waiting for every reply, until dur has passed
// and at least minQueries statements have been attempted.
func (e *env) closedLoop(dur time.Duration, minQueries int, do func(client int, s stmt) (time.Duration, bool)) *loopStats {
	var attempted atomic.Int64
	per := make([]loopStats, len(e.seqs))
	kept := make([]sampler, len(e.seqs))
	for c := range kept {
		kept[c] = sampler{samples: make([]sample, 0, maxSamples), stride: 1}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c, seq := range e.seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			for i := 0; ; i++ {
				since := time.Since(start)
				if since >= maxLoop || (since >= dur && attempted.Load() >= int64(minQueries)) {
					return
				}
				attempted.Add(1)
				lat, ok := do(c, seq[i%len(seq)])
				st.attempted++
				if !ok {
					st.failed++
					continue
				}
				kept[c].add(sample{time.Since(start), lat})
			}
		}()
	}
	wg.Wait()
	out := &loopStats{elapsed: time.Since(start)}
	for c, st := range per {
		out.attempted += st.attempted
		out.failed += st.failed
		out.samples = append(out.samples, kept[c].samples...)
	}
	slices.SortFunc(out.samples, func(a, b sample) int { return cmp.Compare(a.at, b.at) })
	return out
}
