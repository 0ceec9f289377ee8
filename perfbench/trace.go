package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/obs"
	"olapmicro/internal/server"
	"olapmicro/internal/sql"
)

// Span names: the public call each timed span wraps. Statistics that
// are not calls (derived differences, fields of a Response) are kept
// under names without a span.
const (
	spanRequest     = "request"
	spanSubmit      = "server.Server.Submit"
	spanSubmitFast  = "server.Server.Submit(fast)"
	spanSession     = "server.Server.ServeSession"
	spanParam       = "sql.Parameterize"
	spanNormalize   = "sql.NormalizeSQL"
	spanParse       = "sql.Parse"
	spanCompile     = "sql.Compile"
	spanBind        = "sql.Compiled.Bind"
	spanFastPlan    = "sql.Compiled.FastPlan"
	spanFastExec    = "relop.FastPlan.Execute"
	spanBuild       = "sql.Compiled.Prepare"
	spanScan        = "parallel.NewFastWorkers+RunMorsel"
	spanFinalize    = "relop.FinalizeProbed"
	spanSimBuild    = "sql.Compiled.Prepare(probe)"
	spanSimScan     = "parallel.NewWorkers+RunMorsel"
	spanSimFinalize = "relop.FinalizeProbed(probe)"
	spanAssemble    = "parallel.Assemble"

	statFrame    = "server.frame"
	statSession  = "server.session_line"
	statQueue    = "server.queue_wait"
	statPlan     = "server.plan"
	statExecute  = "server.execute"
	statFinalize = "server.finalize"
	statStmt     = "stmt."
)

// span is one timed call, in nanoseconds since the traced run began.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans one tracer keeps for the trace file; every
// call is still timed.
const maxSpans = 20_000

// tracer records the spans of one goroutine: it is not safe for
// concurrent use. A nil tracer runs calls untimed.
type tracer struct {
	base    time.Time
	prefix  uint64 // keeps span and request ids unique across tracers
	next    uint64
	req     uint64
	parent  uint64
	spans   []span
	dropped int
	durs    map[string][]time.Duration
}

func newTracer(base time.Time, id int) *tracer {
	return &tracer{base: base, prefix: uint64(id+1) << 40, durs: map[string][]time.Duration{}}
}

// call runs fn as one span named name, nested under the enclosing
// call, and returns its duration.
func (t *tracer) call(name string, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	t.next++
	id := t.prefix | t.next
	parent := t.parent
	t.parent = id
	start := time.Now()
	fn()
	end := time.Now()
	t.parent = parent
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			Req: t.req, ID: id, Parent: parent, Name: name,
			Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
		})
	} else {
		t.dropped++
	}
	d := end.Sub(start)
	t.add(name, d)
	return d
}

// request runs fn as the root span of a new request.
func (t *tracer) request(fn func()) {
	t.next++
	t.req = t.prefix | t.next
	t.call(spanRequest, fn)
}

// add records a statistic that is not itself a call.
func (t *tracer) add(name string, d time.Duration) {
	t.durs[name] = append(t.durs[name], d)
}

// merge folds o's statistics and spans into t.
func (t *tracer) merge(o *tracer) {
	for k, v := range o.durs {
		t.durs[k] = append(t.durs[k], v...)
	}
	t.spans = append(t.spans, o.spans...)
	t.dropped += o.dropped
}

// medianUs is the median of a statistic in microseconds.
func (t *tracer) medianUs(name string) float64 {
	return us(median(t.durs[name]))
}

// respStats records the server's own view of one response: admission
// wait, the phase spans of its trace and its statement's latency.
func (t *tracer) respStats(resp *server.Response, kind string, lat time.Duration) {
	t.add(statStmt+kind, lat)
	if resp == nil {
		return
	}
	t.add(statQueue, resp.Queued)
	for _, phase := range [...]struct{ span, stat string }{
		{"plan", statPlan}, {"execute", statExecute}, {"finalize", statFinalize},
	} {
		if sp := resp.Trace.Find(phase.span); sp != nil {
			t.add(phase.stat, sp.Duration())
		}
	}
}

func countSpans(s *obs.Span) int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children() {
		n += countSpans(c)
	}
	return n
}

// Replay sizes: the serial layer replay covers this many distinct
// statements, each replayed layerReplays times (the simulator once);
// kind probes submit an absent kind's canonical statement probeCount
// times.
const (
	layerStatements = 16
	layerReplays    = 3
	probeCount      = 5
)

// counts are the exact per-query counts of the layer replay: they
// depend only on the seed, never on timing.
type counts struct {
	statements, spans       int
	lineAccesses, simCycles float64
	simExtra                time.Duration // measured minus nil-probe run time
}

// traced is the per-layer run: the serial layer replay, the untraced
// and the traced closed loop, and kind probes for absent statement
// kinds.
func (e *env) traced(cfg runConfig, res *result) error {
	base := time.Now()
	layer := newTracer(base, len(e.seqs))
	cnt, err := e.layerReplay(layer)
	if err != nil {
		return err
	}

	total := durationOf(cfg.seconds)
	s0, gc0 := e.srv.Stats(), gcSample()
	untraced := e.closedLoop(total*2/5, 0, e.submit)
	s1, gc1 := e.srv.Stats(), gcSample()

	tracers := make([]*tracer, len(e.seqs))
	for i := range tracers {
		tracers[i] = newTracer(base, i)
	}
	tracedLoop := e.closedLoop(total-total*2/5, 0, func(c int, s stmt) (time.Duration, bool) {
		return e.tracedSubmit(tracers[c], s)
	})
	for _, t := range tracers {
		layer.merge(t)
	}
	probes := e.kindProbes(layer)

	res.Attempted = untraced.attempted + tracedLoop.attempted + probes.attempted + int64(cnt.statements*layerReplays)
	res.Failed = untraced.failed + tracedLoop.failed + probes.failed

	t := layer
	n := float64(cnt.statements)
	res.set("sql.parameterize_us", t.medianUs(spanParam), "us")
	res.set("sql.normalize_us", t.medianUs(spanNormalize), "us")
	res.set("sql.parse_us", t.medianUs(spanParse), "us")
	res.set("server.frame_us", t.medianUs(statFrame), "us")
	res.set("server.session_line_us", t.medianUs(statSession), "us")
	res.set("obs.spans_per_query", float64(cnt.spans)/n, "count")
	res.set("sql.compile_us", t.medianUs(spanCompile), "us")
	res.set("sql.bind_us", t.medianUs(spanBind), "us")
	res.set("relop.fastplan_compile_us", t.medianUs(spanFastPlan), "us")
	hits := float64(s1.PlanHits - s0.PlanHits)
	res.set("server.plan_hit_rate", ratio(hits, hits+float64(s1.PlanMisses-s0.PlanMisses)), "ratio")
	res.set("server.plan_evictions_per_query", ratio(float64(s1.PlanEvictions-s0.PlanEvictions), float64(untraced.completed())), "count")
	res.set("relop.fast_exec_us", t.medianUs(spanFastExec), "us")
	for _, k := range []string{kindQ6, kindQ1, kindQ3, kindOCJoin} {
		res.set("stmt."+k+".latency_p50_us", t.medianUs(statStmt+k), "us")
	}
	res.set("engine.build_us", t.medianUs(spanBuild), "us")
	res.set("engine.scan_us", t.medianUs(spanScan), "us")
	res.set("relop.finalize_us", t.medianUs(spanFinalize), "us")
	res.set("sim.host_ns_per_line_access", ratio(float64(cnt.simExtra.Nanoseconds()), cnt.lineAccesses), "ns")
	res.set("tmam.assemble_us", t.medianUs(spanAssemble), "us")
	res.set("sim.line_accesses_per_query", cnt.lineAccesses/n, "count")
	res.set("sim.cycles_per_query", cnt.simCycles/n, "count")
	res.set("server.queue_wait_us", t.medianUs(statQueue), "us")
	res.set("server.plan_us", t.medianUs(statPlan), "us")
	res.set("server.execute_us", t.medianUs(statExecute), "us")
	res.set("server.finalize_us", t.medianUs(statFinalize), "us")
	res.set("runtime.gc_cpu_frac", gc1.frac(gc0), "ratio")
	res.set("trace.qps", tracedLoop.qps(), "1/s")
	res.set("trace.untraced_qps", untraced.qps(), "1/s")

	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", e.w.name, cfg.seed))
	if err := writeSpans(path, t.spans); err != nil {
		return err
	}
	res.meta["spans_file"] = path
	res.meta["spans"] = len(t.spans)
	res.meta["spans_dropped"] = t.dropped
	res.meta["layer_statements"] = cnt.statements
	return nil
}

// layerReplay replays the first layerStatements distinct statements
// serially through every layer's public calls, checking every answer.
// It runs before the loops, on the server the warm-up left behind, so
// its counts are the same on every run with the same seed.
func (e *env) layerReplay(t *tracer) (counts, error) {
	var cnt counts
	stmts := distinct(e.seqs)
	if len(stmts) > layerStatements {
		stmts = stmts[:layerStatements]
	}
	cnt.statements = len(stmts)
	for _, s := range stmts {
		var sub, ses, exec []time.Duration
		for rep := range layerReplays {
			var rt replayTimes
			var err error
			t.request(func() { rt, err = e.replayOne(t, s, rep == 0, &cnt) })
			if err != nil {
				return cnt, fmt.Errorf("layer replay of %q: %w", s.text, err)
			}
			sub, ses = append(sub, rt.submit), append(ses, rt.session)
			if rt.vectorized {
				exec = append(exec, rt.exec)
			}
		}
		// The frame statistics are differences of minima over the
		// replays: the minimum is the call least disturbed by anything
		// else, so the difference is not swamped by the execution's own
		// run-to-run noise.
		t.add(statSession, slices.Min(ses)-slices.Min(sub))
		if len(exec) > 0 {
			t.add(statFrame, slices.Min(sub)-slices.Min(exec))
		}
	}
	return cnt, nil
}

// replayTimes are the fast-mode timings of one replay that the frame
// statistics are differences of.
type replayTimes struct {
	submit, session, exec time.Duration
	vectorized            bool // the statement has a FastPlan; exec is set
}

// replayOne sends one statement through every layer once. The frame
// statistics compare fast-mode calls made back to back, whose execution
// is short and steady and runs on equally warm caches.
func (e *env) replayOne(t *tracer, s stmt, first bool, cnt *counts) (rt replayTimes, err error) {
	ctx := context.Background()
	threads := e.w.threads
	var resp *server.Response
	t.call(spanSubmit, func() { resp, err = e.srv.Submit(ctx, s.text, e.opts...) })
	if !e.check(s.text, resp, err) {
		return rt, errors.New("Submit answered wrongly")
	}
	if first {
		cnt.spans += countSpans(resp.Trace)
	}

	var template string
	var args []int64
	t.call(spanParam, func() { template, args, _ = sql.Parameterize(s.text) })
	t.call(spanNormalize, func() { sql.NormalizeSQL(template) })
	t.call(spanParse, func() { _, err = sql.Parse(s.text) })
	if err != nil {
		return rt, err
	}
	var tc, bc *sql.Compiled
	t.call(spanCompile, func() {
		tc, err = sql.Compile(e.data, e.mach, template, sql.Options{Threads: threads})
	})
	if err != nil {
		return rt, err
	}
	t.call(spanBind, func() { bc, err = tc.Bind(args) })
	if err != nil {
		return rt, err
	}
	var fp *relop.FastPlan
	t.call(spanFastPlan, func() { fp = bc.FastPlan() })

	// The frame block: a fast Submit to warm up, then the timed fast
	// Submit, query line and direct execution of the same bound plan.
	for range 2 {
		rt.submit = t.call(spanSubmitFast, func() {
			resp, err = e.srv.Submit(ctx, s.text, server.WithFast())
		})
		if !e.check(s.text, resp, err) {
			return rt, errors.New("fast Submit answered wrongly")
		}
	}
	var out bytes.Buffer
	script := fmt.Sprintf("fast on\nquery %s\n", s.text)
	rt.session = t.call(spanSession, func() { err = e.srv.ServeSession(strings.NewReader(script), &out) })
	want := e.ref[s.text]
	if err != nil || !strings.Contains(out.String(), fmt.Sprintf("sum=%d rows=%d check=%016x", want.Sum, want.Rows, want.Check)) {
		e.fail(fmt.Sprintf("%q: session answered %q (%v)", s.text, out.String(), err))
		return rt, errors.New("ServeSession answered wrongly")
	}
	if fp != nil {
		var r engine.Result
		rt.exec = t.call(spanFastExec, func() { r, _ = fp.Execute(threads) })
		rt.vectorized = true
		if !e.checkResult(s.text, r) {
			return rt, errors.New("FastPlan.Execute answered wrongly")
		}
	}

	nilStart := time.Now()
	r, err := nilProbeRun(bc, threads, t)
	nilTime := time.Since(nilStart)
	if err != nil {
		return rt, err
	}
	if !e.checkResult(s.text, r) {
		return rt, errors.New("nil-probe run answered wrongly")
	}
	if !first {
		return rt, nil
	}
	sim, err := measuredRun(bc, e.mach, threads, t)
	if err != nil {
		return rt, err
	}
	if !e.checkResult(s.text, sim.res) {
		return rt, errors.New("measured run answered wrongly")
	}
	cnt.lineAccesses += float64(sim.accesses)
	cnt.simCycles += sim.acct.Single.Breakdown.Total
	cnt.simExtra += sim.host - nilTime
	return rt, nil
}

// tracedSubmit is one traced closed-loop statement: the timed Submit,
// then the three lexes the server's submission frame runs on its
// text.
func (e *env) tracedSubmit(t *tracer, s stmt) (lat time.Duration, ok bool) {
	t.request(func() {
		var resp *server.Response
		var err error
		lat = t.call(spanSubmit, func() { resp, err = e.srv.Submit(context.Background(), s.text, e.opts...) })
		ok = e.check(s.text, resp, err)
		t.respStats(resp, s.kind, lat)
		var template string
		t.call(spanParam, func() { template, _, _ = sql.Parameterize(s.text) })
		t.call(spanNormalize, func() { sql.NormalizeSQL(template) })
		t.call(spanParse, func() { _, err = sql.Parse(s.text) })
	})
	return lat, ok
}

// kindProbes submits the canonical statement of every kind a per-
// statement metric names but the workload does not run, so every
// stmt.* metric and server phase is measured on every workload.
func (e *env) kindProbes(t *tracer) *loopStats {
	st := &loopStats{}
	for _, k := range []string{kindQ6, kindQ1, kindQ3, kindOCJoin} {
		if slices.ContainsFunc(e.w.mix, func(s shape) bool { return s.kind == k }) {
			continue
		}
		s := stmt{text: canonical[k], kind: k}
		for range probeCount {
			st.attempted++
			if _, ok := e.tracedSubmit(t, s); !ok {
				st.failed++
			}
		}
	}
	return st
}

// gcStat is the Go runtime's cumulative GC and total CPU time.
type gcStat struct{ gc, total float64 }

func gcSample() gcStat {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcStat{s[0].Value.Float64(), s[1].Value.Float64()}
}

// frac is the share of CPU time spent in GC since o.
func (g gcStat) frac(o gcStat) float64 {
	return ratio(g.gc-o.gc, g.total-o.total)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes spans as JSON lines, ordered by start time.
func writeSpans(path string, spans []span) error {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
