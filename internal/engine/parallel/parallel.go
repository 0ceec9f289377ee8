// Package parallel is the morsel-driven multi-core coordinator for
// ad-hoc relop pipelines (Section 10). The driver table is cut into
// cache-friendly morsels dispatched across N worker goroutines;
// hash-join builds run once and are probed concurrently, and
// aggregation uses thread-local group tables merged at the end, so the
// result is bit-identical at every thread count. Each worker carries
// its own probe — its own simulated core — and the workers' counter
// snapshots are accounted under the shared-socket bandwidth ceiling
// min(per-core BW, per-socket BW / T): the same ceiling the analytical
// internal/multicore model applies to scaled single-core counters.
// Running both against the same query cross-validates the model with
// real parallel execution — Typer saturating the socket before
// Tectorwise on scan-heavy queries, as Figures 29/30 show.
package parallel

import (
	"fmt"
	"sync"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/tmam"
)

// Executor is the engine-side entry point; typer.Engine and
// tectorwise.Engine both implement it.
type Executor interface {
	PreparePipeline(p *probe.Probe, as *probe.AddrSpace, pl *relop.Pipeline) (relop.Prepared, error)
}

// Morsel is one contiguous slice of the driver table's rows.
type Morsel struct {
	Start, End int
}

// DefaultMorselRows keeps a morsel's per-column footprint around
// 128 KB of 8-byte values: big enough to amortize per-morsel setup,
// small enough that the interleave stays balanced.
const DefaultMorselRows = 16384

// WorkerWindow is the simulated address-space window each worker's
// private structures are carved from — 64 GB of free simulated
// addresses, far past any group table a planner estimate can size.
// Everything that builds morsel workers (Run here, the concurrent
// internal/server pool) must fork windows of this one size, or
// per-query address-space layout would diverge between a dedicated
// and a shared run.
const WorkerWindow = 1 << 36

// Options tunes one parallel run.
type Options struct {
	// Threads is the worker count, clamped to [1, 2 x cores-per-socket]
	// — the single-socket hyper-threaded maximum the Section-10 model
	// covers; each worker costs a full simulated core.
	Threads int
	// MorselRows overrides DefaultMorselRows (rounded up to the
	// engine's morsel alignment).
	MorselRows int
	// Prefetchers overrides the default all-enabled configuration for
	// every worker core.
	Prefetchers *mem.PrefetcherConfig
}

// Result is one measured parallel execution.
type Result struct {
	Threads int
	Morsels int
	// Result is the merged query answer, identical at every thread
	// count.
	Result engine.Result
	// PerThread is the slowest worker's profile accounted under the
	// shared-socket bandwidth ceiling; it bounds the parallel phase.
	PerThread tmam.Profile
	// Workers holds every worker's profile under the shared ceiling.
	Workers []tmam.Profile
	// Build is the serial build/prepare phase's profile (joins only).
	Build tmam.Profile
	// Single is the single-core-equivalent profile: the summed worker
	// (plus build) counters accounted at full per-core bandwidth —
	// what one core executing every morsel would have measured.
	Single tmam.Profile
	// Inputs is the summed counter snapshot behind Single; feed it to
	// multicore.Run to model other thread counts from this run.
	Inputs tmam.Inputs
	// Seconds is the wall-clock estimate: serial build plus the
	// slowest worker.
	Seconds float64
	// SocketBandwidthGBs is the aggregate DRAM traffic rate, the
	// quantity Figures 29/30 plot.
	SocketBandwidthGBs float64
	// Speedup is Single.Seconds / Seconds.
	Speedup float64
}

// Morsels partitions rows into morsels of roughly targetRows rows.
// Boundaries land on align-multiples so every worker's chunks coincide
// with the serial execution's, the morsel count is rounded up to a
// multiple of threads so the even split has no remainder, and sizes
// are interleaved within one align unit of each other — the simulated
// cores are symmetric, so balance, not stealing, determines the
// parallel phase's span. A driver with fewer align-units than that
// rounded count gets one morsel per unit instead (some workers then
// stay idle).
func Morsels(rows, targetRows, align, threads int) []Morsel {
	if rows <= 0 {
		return nil
	}
	if align < 1 {
		align = 1
	}
	if targetRows < 1 {
		targetRows = DefaultMorselRows
	}
	if threads < 1 {
		threads = 1
	}
	units := (rows + align - 1) / align
	count := (rows + targetRows - 1) / targetRows
	count = (count + threads - 1) / threads * threads
	if count > units {
		count = units
	}
	out := make([]Morsel, 0, count)
	start := 0
	for i := 0; i < count; i++ {
		// Bresenham split: morsel i spans units (i*units/count,
		// (i+1)*units/count], spreading the remainder evenly.
		end := (i + 1) * units / count * align
		if end > rows {
			end = rows
		}
		out = append(out, Morsel{Start: start, End: end})
		start = end
	}
	return out
}

// ClampThreads bounds a requested worker count to [1, 2 x
// cores-per-socket] — the single-socket hyper-threaded capacity the
// Section-10 model covers. A worker is a whole simulated core, so
// counts past that model nothing and a typo'd count would allocate
// millions of cache simulators. Anything that models or executes at a
// thread count (compilation-time predictions included) must clamp the
// same way, or predictions would describe runs that never happen.
func ClampThreads(m *hw.Machine, threads int) int {
	if threads < 1 {
		return 1
	}
	if cap := 2 * m.CoresPerSocket; threads > cap {
		return cap
	}
	return threads
}

// Run executes a pipeline on ex with morsel-driven parallelism: the
// build phase once on a dedicated probe, then opts.Threads workers —
// each a goroutine with a private probe and address-space fork —
// running their strided share of the morsels until the scan drains.
func Run(m *hw.Machine, as *probe.AddrSpace, ex Executor, pl *relop.Pipeline, opts Options) (*Result, error) {
	threads := ClampThreads(m, opts.Threads)
	pf := mem.AllPrefetchers()
	if opts.Prefetchers != nil {
		pf = *opts.Prefetchers
	}

	buildProbe := probe.New(m, pf)
	prep, err := ex.PreparePipeline(buildProbe, as, pl)
	if err != nil {
		return nil, err
	}
	morsels := Morsels(prep.Rows(), opts.MorselRows, prep.MorselAlign(), threads)
	probes, workers := NewWorkers(m, pf, as, prep, morsels, threads, "parallel.worker")
	threads = len(workers)

	// Morsel assignment is strided and deterministic: worker t runs
	// morsels t, t+T, t+2T, ... Claiming from a shared queue in host
	// time would let a faster-scheduled goroutine drain it and inflate
	// its simulated core's profile; simulated cores are homogeneous,
	// so dynamic morsel stealing converges to this even interleave
	// anyway, and the fixed assignment keeps every worker's profile
	// reproducible regardless of how the host schedules the
	// goroutines.
	// A worker panic must surface on the caller's goroutine, not kill
	// the process from an unrecoverable worker frame: capture the first
	// one and re-panic after the fleet drains, where the caller's own
	// recover (the server's execute barrier, a test harness) can
	// convert it.
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int, w relop.Worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for i := t; i < len(morsels); i += threads {
				w.RunMorsel(morsels[i].Start, morsels[i].End)
			}
		}(t, workers[t])
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	partials := make([]*relop.Partial, threads)
	for t, w := range workers {
		partials[t] = w.Partial()
	}

	// The merge plus the post-aggregation operators (HAVING, sort,
	// top-k) run serially on the coordinator; charge them to the build
	// probe so they count toward the serial span, not any worker's.
	merged := relop.FinalizeProbed(buildProbe, pl, partials)

	return Assemble(m, buildProbe, probes, merged, len(morsels)), nil
}

// NewWorkers builds the per-thread execution state of one
// morsel-driven run — a probe (a simulated core) and a worker with a
// WorkerWindow-sized address-space fork named name0, name1, ... per
// thread. The thread count clamps to the morsel count first: a driver
// smaller than the worker fleet leaves workers idle, and idle workers
// must not count toward the shared-bandwidth divisor ("with T cores
// streaming" means cores that actually stream) or depress the busy
// workers' ceiling. Run and the concurrent internal/server pool both
// build workers here, which is what keeps a shared-pool query's
// partition — and therefore its results and profiles — identical to a
// dedicated run's.
func NewWorkers(m *hw.Machine, pf mem.PrefetcherConfig, as *probe.AddrSpace, prep relop.Prepared, morsels []Morsel, threads int, name string) ([]*probe.Probe, []relop.Worker) {
	if len(morsels) > 0 && threads > len(morsels) {
		threads = len(morsels)
	}
	if threads < 1 {
		threads = 1
	}
	probes := make([]*probe.Probe, threads)
	workers := make([]relop.Worker, threads)
	for t := 0; t < threads; t++ {
		probes[t] = probe.New(m, pf)
		workers[t] = prep.NewWorker(probes[t], as.Fork(fmt.Sprintf("%s%d", name, t), WorkerWindow))
	}
	return probes, workers
}

// NewFastWorkers builds the worker fleet of a profile-free engine run:
// the same address-space forks and worker shape as NewWorkers (thread
// count clamped to the morsel count the same way), but no probes —
// every worker runs with a nil probe, whose event hooks are no-ops.
// The real computation, morsel partition and merge are untouched, so
// the result is bit-identical to a measured run's; it simply has no
// simulated cores to account. Fast mode itself runs relop.FastPlan;
// this engine-side form serves as an independent reference for it.
func NewFastWorkers(as *probe.AddrSpace, prep relop.Prepared, morsels []Morsel, threads int, name string) []relop.Worker {
	if len(morsels) > 0 && threads > len(morsels) {
		threads = len(morsels)
	}
	if threads < 1 {
		threads = 1
	}
	workers := make([]relop.Worker, threads)
	for t := 0; t < threads; t++ {
		workers[t] = prep.NewWorker(nil, as.Fork(fmt.Sprintf("%s%d", name, t), WorkerWindow))
	}
	return workers
}

// Assemble accounts one completed morsel-driven run from its probes:
// the build probe's serial span (which must already include the
// finalize work) plus every worker probe under the shared-socket
// ceiling — with T cores streaming, each one gets at most
// per-socket/T. Run calls it on its own probes; internal/server calls
// it per query after driving the same worker shape through its shared
// pool, so a query's accounting is identical however its morsels were
// interleaved with other queries'.
func Assemble(m *hw.Machine, buildProbe *probe.Probe, probes []*probe.Probe, merged engine.Result, morsels int) *Result {
	threads := len(probes)
	params := tmam.Params{
		BWSeq:  min(m.PerCoreBW.Sequential, m.PerSocketBW.Sequential/float64(threads)),
		BWRand: min(m.PerCoreBW.Random, m.PerSocketBW.Random/float64(threads)),
	}
	buildIn := tmam.InputsFrom(buildProbe)
	buildProf := tmam.AccountInputs(buildIn, tmam.Params{})
	total := buildIn
	res := &Result{
		Threads: threads,
		Morsels: morsels,
		Result:  merged,
		Build:   buildProf,
	}
	wall := 0.0
	for t := range probes {
		in := tmam.InputsFrom(probes[t])
		prof := tmam.AccountInputs(in, params)
		res.Workers = append(res.Workers, prof)
		if prof.Seconds >= wall {
			wall = prof.Seconds
			res.PerThread = prof
		}
		total = total.Add(in)
	}
	res.Inputs = total
	res.Single = tmam.AccountInputs(total, tmam.Params{})
	res.Seconds = buildProf.Seconds + wall
	if res.Seconds > 0 {
		res.SocketBandwidthGBs = float64(total.MemStats.TotalBytes()) / res.Seconds / hw.GB
		res.Speedup = res.Single.Seconds / res.Seconds
	}
	return res
}
