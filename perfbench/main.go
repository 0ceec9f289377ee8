// Command perfbench is olapmicro's benchmark: the one program every
// performance claim in the repository cites. BENCH_server.json, which
// the root package's tests rewrite, stays as it is, because adding the
// benchmark changed no test; it records one sample per point and is
// not a baseline a change can be judged against. Perf claims cite this
// benchmark instead.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload point-hot --seed 1 --seconds 10 --trace 0
//
// It embeds internal/server in this process and drives one workload
// through Server.Submit in a closed loop: each client waits for every
// reply before it submits its next statement, so load falls when the
// server slows. The server runs with Workers 2, and a workload has at
// most 2 clients, to match a 2-CPU host. Statements are generated from
// --seed; the server only ever sees their text. Every answer is
// compared bit for bit with a reference computed in set-up by another
// path than the one under test: the engines' nil-probe path for
// statements the server runs as a vectorized FastPlan or in measured
// mode, and sql.Run measured serial for joins the server runs on the
// nil-probe path. A wrong answer counts as failed and makes the
// command exit 1.
//
// # Workloads
//
//   - point-hot: fast mode, SF 0.02, 2 clients x 1 thread. Short
//     orders, customer, nation and supplier aggregates whose 20 bound
//     plans all fit in the 64-entry plan cache. Bound by the
//     submission frame (lexes, breaker, plan-cache lookup, admission,
//     goroutine and spans), not the kernels.
//   - scan-join: fast mode, SF 0.1, 1 client x 2 threads. Q6 and
//     Q1-shaped lineitem aggregates on the vectorized FastPlan kernels,
//     weighted against Q3 and an orders-customer join on the
//     engines' nil-probe path so each half takes over a third of the
//     run time.
//   - plan-churn: fast mode, SF 0.02, 1 client x 1 thread. Mostly Q6,
//     with some orders and Q1, literals drawn uniformly from about 900
//     bound statements, several hundred of them distinct in one run, so
//     most submissions miss the plan cache and pay Bind, Predict and
//     CompileFast.
//   - measured-mix: measured mode, SF 0.02, 2 clients x 1 thread.
//     Mostly Q6, with Q1, orders count, customer top-5, orders-customer
//     join and Q3, all with fixed literals; the internal/mem simulator
//     takes most of the time.
//
// # End-to-end metrics (--trace 0)
//
// The same names on every workload. Latency is what a client sees,
// from calling Submit to its return.
//
//   - qps: completed statements per second over the run.
//   - latency_p50_ms: over the completed statements; at high rates each
//     client keeps an evenly spaced subset of at most 131072.
//   - latency_p99_ms: the median of the 99th percentiles of up to 20
//     consecutive slices of the run with at least 1000 completions
//     each, so each has ten samples beyond it and a burst of host
//     preemption moves only the slices it falls in. A run lasts until
//     at least 1000 statements completed.
//   - cpu_ms_per_query: process user+sys CPU (getrusage) over the run.
//   - allocs_per_query, alloc_kb_per_query: heap allocations over the
//     run (runtime.MemStats).
//   - peak_rss_mb: the process's peak resident set.
//   - setup_s: the process CPU time (user+sys) of data generation,
//     server.New and one warm-up pass over the first 128 distinct
//     statements, the median of 7 set-ups; the reference computation
//     is excluded. CPU rather than wall time, because the host's
//     preemption of this machine's CPUs, which CPU accounting leaves
//     out, moved the wall time of a set-up by up to 2x between runs.
//
// failed_frac, the share of statements that failed, were refused or
// answered wrongly, is printed with the metrics; the result line
// carries it as failed/attempted.
//
// # Per-layer metrics (--trace 1)
//
// A traced run times the calls the benchmark itself makes into each
// module's public functions; nothing inside the program is
// instrumented. It first replays up to 16 distinct statements of the
// workload through every layer serially (three times each, the
// simulator once), then runs the closed loop untraced for 40% of
// --seconds and traced for the rest, with every timed call recorded as
// a span (name, start, end, parent, request id). The spans are written
// to .bench_build/trace/ at the end. Each per-layer metric is the
// median of its calls, in microseconds unless named otherwise. The
// layer each group measures, and the end-to-end metric it should move:
//
//   - internal/sql frame: sql.parameterize_us, sql.normalize_us,
//     sql.parse_us, with server.frame_us (Submit latency minus
//     FastPlan.Execute on the same bound plan), server.session_line_us
//     (a query line through ServeSession minus Submit) and
//     obs.spans_per_query (nodes of Response.Trace). They move qps,
//     latency_p50_ms and allocs_per_query on point-hot, and should be
//     flat on scan-join and measured-mix.
//   - internal/sql miss path: sql.compile_us, sql.bind_us,
//     relop.fastplan_compile_us (first Compiled.FastPlan),
//     server.plan_hit_rate and server.plan_evictions_per_query. They
//     move qps and latency_p50_ms on plan-churn and are flat on the hot
//     workloads, where the hit rate is 1.0.
//   - internal/engine/relop kernels: relop.fast_exec_us,
//     stmt.q6.latency_p50_us and stmt.q1.latency_p50_us. They move qps
//     and latency_p50_ms on scan-join, and only slightly on point-hot.
//   - internal/engine/{typer,tectorwise,parallel} fallback:
//     engine.build_us (Compiled.Prepare), engine.scan_us
//     (parallel.NewFastWorkers and RunMorsel over parallel.Morsels),
//     relop.finalize_us (FinalizeProbed), stmt.q3.latency_p50_us and
//     stmt.orders_customer_join.latency_p50_us. They move
//     latency_p99_ms and qps on scan-join, where joins make up the
//     tail, and are bypassed on point-hot and plan-churn.
//   - simulator (internal/probe, mem, cpu, tmam):
//     sim.host_ns_per_line_access (measured run time minus nil-probe
//     run time of the same plan, over mem.Stats Loads+Stores of all
//     probes) and tmam.assemble_us. They move qps and cpu_ms_per_query
//     on measured-mix and are flat on the fast workloads.
//     sim.line_accesses_per_query and sim.cycles_per_query are exact
//     counts: a simulator-only speed-up must leave them identical.
//   - internal/server admission and the Go runtime:
//     server.queue_wait_us (Response.Queued), server.plan_us,
//     server.execute_us and server.finalize_us (spans of
//     Response.Trace) and runtime.gc_cpu_frac (runtime/metrics). They
//     move latency_p99_ms on point-hot and measured-mix, where 2
//     clients on 2 CPUs show waits and GC in the tail first.
//   - trace.qps and trace.untraced_qps: the traced and untraced loop
//     rates of the same run; their gap is the tracing overhead.
//
// A stmt.* kind the workload does not run is measured on its
// canonical statement, submitted 5 times after the loop. Layers a
// workload bypasses are still timed in the serial replay, on the
// workload's own statements.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	// minQueries is how many statements the measured loop completes at
	// least, even past seconds; 1000 gives latency_p99_ms ten samples
	// beyond it.
	minQueries int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// spanDir receives the traced run's spans.
	spanDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: point-hot, scan-join, plan-churn or measured-mix")
	seed := fs.Uint64("seed", 1, "seed the statement sequences are generated from")
	seconds := fs.Float64("seconds", 10, "how long the closed loop measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		return 2
	}
	cfg := runConfig{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		minQueries: 1000, setups: 7, spanDir: filepath.Join(".bench_build", "trace"),
	}
	res, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the last line of standard output
// is its JSON form.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// meta is printed before the result line, not in it.
	meta map[string]any
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

// print writes the metadata and metrics for people, then the result
// line.
func (r *result) print(w io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return fmt.Errorf("encoding the metadata: %w", err)
	}
	fmt.Fprintf(w, "meta %s\n", meta)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	// failed_frac stays out of the result line: BENCHMARK.json fixes its
	// metric set, and a metric that is 0 on a correct run cannot carry
	// a relative bound. The line carries failed and attempted instead.
	fmt.Fprintf(w, "%-40s %16.6f fraction\n", "failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// execute sets the workload up and runs it, end to end or traced.
func execute(cfg runConfig, log io.Writer) (*result, error) {
	w := cfg.workload
	seqs := w.sequences(cfg.seed)
	hashes := make([]string, len(seqs))
	for i, s := range seqs {
		hashes[i] = seqHash(s)
	}
	e, setupTimes, err := setUp(w, seqs, cfg.setups)
	if err != nil {
		return nil, err
	}
	defer e.srv.Close()
	refStart := time.Now()
	if err := e.computeReferences(cfg.trace); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %s set up in %v CPU (median of %d), %d references in %v\n",
		w.name, median(setupTimes), len(setupTimes), len(e.ref), time.Since(refStart).Round(time.Millisecond))

	res := &result{
		Metrics: map[string]metric{},
		meta: map[string]any{
			"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
			"scale_factor": w.sf, "clients": w.clients, "threads_per_query": w.threads, "fast": w.fast,
			"server_workers": serverWorkers, "plan_cache": e.srv.Stats().PlanCapacity,
			"distinct_statements": len(e.ref), "sequence_hashes": hashes,
		},
	}
	if cfg.trace {
		err = e.traced(cfg, res)
	} else {
		err = e.endToEnd(cfg, res)
		res.set("setup_s", median(setupTimes).Seconds(), "s")
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if msg := e.firstFailure(); msg != "" {
		fmt.Fprintf(log, "perfbench: first failure: %s\n", msg)
	}
	return res, nil
}

// endToEnd runs the untraced closed loop and reports the end-to-end
// metrics.
func (e *env) endToEnd(cfg runConfig, res *result) error {
	runtime.GC()
	before := sampleProcess()
	st := e.closedLoop(durationOf(cfg.seconds), cfg.minQueries, e.submit)
	after := sampleProcess()
	if st.completed() == 0 {
		return fmt.Errorf("no statement completed")
	}
	n := float64(st.completed())
	res.Attempted, res.Failed = st.attempted, st.failed
	res.set("qps", st.qps(), "1/s")
	res.set("latency_p50_ms", ms(quantile(st.latencies(), 0.50)), "ms")
	res.set("latency_p99_ms", ms(st.p99()), "ms")
	res.set("cpu_ms_per_query", ms(after.cpu-before.cpu)/n, "ms")
	res.set("allocs_per_query", float64(after.mallocs-before.mallocs)/n, "count")
	res.set("alloc_kb_per_query", float64(after.allocBytes-before.allocBytes)/1024/n, "KiB")
	res.set("peak_rss_mb", float64(after.maxRSSKiB)/1024, "MiB")
	res.meta["host_steal_frac"] = after.stealFrac(before)
	res.meta["completed"] = st.completed()
	res.meta["elapsed_s"] = st.elapsed.Seconds()
	return nil
}

// submit is one untraced closed-loop statement.
func (e *env) submit(_ int, s stmt) (time.Duration, bool) {
	t0 := time.Now()
	resp, err := e.srv.Submit(context.Background(), s.text, e.opts...)
	lat := time.Since(t0)
	return lat, e.check(s.text, resp, err)
}

func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median[T cmp.Ordered](xs []T) T {
	return quantile(slices.Clone(xs), 0.5)
}
