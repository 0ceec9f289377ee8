package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"
)

// stmt is one generated statement: the SQL text the server sees and
// the shape it was drawn from, which per-statement latencies are keyed
// by.
type stmt struct {
	text string
	kind string
}

// shape is one statement family of a workload's mix: weight copies of
// it go into every block, each with literals drawn from the seed.
type shape struct {
	kind   string
	weight int
	gen    func(r *rand.Rand) string
}

// workload is one traffic mix, driven in a closed loop: every client
// waits for each reply before it submits its next statement.
type workload struct {
	name    string
	sf      float64
	clients int
	threads int // per-query parallelism (the server's QueryThreads)
	fast    bool
	// blocks is how many shuffled blocks make up one client's
	// sequence; a client cycles through its sequence until the run
	// ends.
	blocks int
	mix    []shape
}

// The statement kinds named by per-statement metrics.
const (
	kindQ6       = "q6"
	kindQ1       = "q1"
	kindQ3       = "q3"
	kindOCJoin   = "orders_customer_join"
	kindOrders   = "orders"
	kindCust     = "customer_top5"
	kindNation   = "nation"
	kindSupplier = "supplier"
)

func q6(year, disc, qty int) string {
	return fmt.Sprintf("select sum(l_extendedprice * l_discount / 100) from lineitem "+
		"where l_shipdate >= date '%d-01-01' and l_shipdate < date '%d-01-01' "+
		"and l_discount between %d and %d and l_quantity < %d",
		year, year+1, disc-1, disc+1, qty)
}

func q1(shipdate string) string {
	return "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), " +
		"sum(l_extendedprice * (100 - l_discount) / 100), count(*) from lineitem " +
		"where l_shipdate <= date '" + shipdate + "' group by l_returnflag, l_linestatus"
}

func q3(segment int, date string) string {
	return fmt.Sprintf("select l_orderkey, sum(l_extendedprice * (100 - l_discount) / 100) as revenue, "+
		"o_orderdate, o_shippriority from lineitem "+
		"join orders on l_orderkey = o_orderkey join customer on o_custkey = c_custkey "+
		"where c_mktsegment = %d and o_orderdate < date '%s' and l_shipdate > date '%s' "+
		"group by l_orderkey, o_orderdate, o_shippriority order by revenue desc, o_orderdate limit 10",
		segment, date, date)
}

func ocJoin(date string) string {
	return "select c_nationkey, count(*), sum(o_totalprice) from orders " +
		"join customer on o_custkey = c_custkey where o_orderdate < date '" + date + "' " +
		"group by c_nationkey"
}

func ordersAgg(threshold int) string {
	return fmt.Sprintf("select count(*), sum(o_totalprice) from orders where o_totalprice > %d", threshold)
}

func customerTop5(segment int) string {
	return fmt.Sprintf("select c_nationkey, count(*) from customer where c_mktsegment = %d "+
		"group by c_nationkey order by c_nationkey limit 5", segment)
}

func nationCount(region int) string {
	return fmt.Sprintf("select count(*) from nation where n_regionkey = %d", region)
}

func supplierCount(nation int) string {
	return fmt.Sprintf("select count(*), sum(s_acctbal) from supplier where s_nationkey < %d", nation)
}

// day renders a date days after base (YYYY-MM-DD).
func day(base string, days int) string {
	t, err := time.Parse(time.DateOnly, base)
	if err != nil {
		panic(err)
	}
	return t.AddDate(0, 0, days).Format(time.DateOnly)
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.IntN(len(xs))] }

// canonical is the fixed-literal form of each kind a per-statement
// metric names; the traced run submits it when the workload itself
// has no statement of that kind.
var canonical = map[string]string{
	kindQ6:     q6(1994, 6, 24),
	kindQ1:     q1("1998-09-02"),
	kindQ3:     q3(1, "1995-03-15"),
	kindOCJoin: ocJoin("1995-01-01"),
}

// workloads are the benchmark's traffic mixes. The server runs with
// Workers 2 everywhere and no workload has more than 2 clients,
// matching a 2-CPU host. All plans of the hot workloads fit in the
// server's 64-entry plan cache; plan-churn's do not.
//
// Weights are per 50 statements. They put the median and the 99th
// percentile latency inside one kind's latencies, not on the boundary
// between two kinds, where a percentile would jump from one kind to the
// other between runs: the slowest kind is 2% of a mix, so the 99th
// percentile is its median.
var workloads = []*workload{
	{
		// The submission frame dominates: statements take microseconds
		// in the kernels, so lexing, the breaker, the plan-cache lookup,
		// admission and span bookkeeping set the rate.
		name: "point-hot", sf: 0.02, clients: 2, threads: 1, fast: true, blocks: 40,
		mix: []shape{
			{kindNation, 15, func(r *rand.Rand) string { return nationCount(r.IntN(5)) }},
			{kindOrders, 19, func(r *rand.Rand) string {
				return ordersAgg(pick(r, 5000000, 10000000, 15000000, 20000000, 25000000, 30000000))
			}},
			{kindSupplier, 15, func(r *rand.Rand) string { return supplierCount(pick(r, 5, 10, 15, 20)) }},
			{kindCust, 1, func(r *rand.Rand) string { return customerTop5(r.IntN(5)) }},
		},
	},
	{
		// About half the run time goes to the vectorized FastPlan
		// kernels (Q6, Q1) and half to the engines' nil-probe join path
		// (orders-customer, Q3), so a kernel change and a join change
		// can both show; one client with 2 threads per query measures
		// intra-query parallelism.
		name: "scan-join", sf: 0.1, clients: 1, threads: 2, fast: true, blocks: 6,
		mix: []shape{
			{kindQ6, 10, func(r *rand.Rand) string { return q6(1993+r.IntN(5), 6, 24) }},
			{kindQ1, 30, func(r *rand.Rand) string { return q1(pick(r, "1998-09-02", "1998-08-01", "1998-06-01")) }},
			{kindOCJoin, 9, func(r *rand.Rand) string { return ocJoin(pick(r, "1995-01-01", "1996-01-01")) }},
			{kindQ3, 1, func(r *rand.Rand) string { return q3(1+r.IntN(2), "1995-03-15") }},
		},
	},
	{
		// Literals drawn uniformly from about 900 bound statements, far
		// more than the 64-entry plan cache holds, so most submissions
		// pay Bind, Predict and CompileFast and evict an entry. One
		// client: with two on a 2-vCPU VM, whole runs of the same seed
		// fell into a fast or a slow mode (median latency 0.8 or 1.2
		// ms), and the median jumped between them from run to run.
		name: "plan-churn", sf: 0.02, clients: 1, threads: 1, fast: true, blocks: 16,
		mix: []shape{
			{kindOrders, 3, func(r *rand.Rand) string { return ordersAgg(1000000 * (1 + r.IntN(300))) }},
			{kindQ6, 46, func(r *rand.Rand) string { return q6(1993+r.IntN(5), 2+r.IntN(8), 20+r.IntN(11)) }},
			{kindQ1, 1, func(r *rand.Rand) string { return q1(day("1998-05-01", r.IntN(150))) }},
		},
	},
	{
		// Measured mode: every query runs the cache-hierarchy, branch
		// and pipeline simulator, which nothing else here exercises.
		// The median falls among Q6s, whose own simulation time, not
		// the wait behind the other client's query, sets their latency.
		name: "measured-mix", sf: 0.02, clients: 2, threads: 1, fast: false, blocks: 6,
		mix: []shape{
			{kindCust, 5, func(*rand.Rand) string { return customerTop5(1) }},
			{kindOrders, 5, func(*rand.Rand) string { return ordersAgg(15000000) }},
			{kindQ6, 30, func(*rand.Rand) string { return canonical[kindQ6] }},
			{kindOCJoin, 5, func(*rand.Rand) string { return canonical[kindOCJoin] }},
			{kindQ1, 4, func(*rand.Rand) string { return canonical[kindQ1] }},
			{kindQ3, 1, func(*rand.Rand) string { return canonical[kindQ3] }},
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sequences generates every client's statement sequence from seed.
// Each block holds exactly weight copies of every shape, shuffled, so
// the mix is the same under every seed and only order and literals
// vary.
func (w *workload) sequences(seed uint64) [][]stmt {
	seqs := make([][]stmt, w.clients)
	for c := range seqs {
		r := rand.New(rand.NewPCG(seed, uint64(c)))
		var block []int
		for i, s := range w.mix {
			for range s.weight {
				block = append(block, i)
			}
		}
		for range w.blocks {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			for _, i := range block {
				seqs[c] = append(seqs[c], stmt{text: w.mix[i].gen(r), kind: w.mix[i].kind})
			}
		}
	}
	return seqs
}

// seqHash fingerprints one client's sequence, so two runs can be shown
// to have replayed the same input.
func seqHash(seq []stmt) string {
	h := fnv.New64a()
	for _, s := range seq {
		h.Write([]byte(s.text))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// distinct lists the sequences' distinct statements in order of first
// appearance, client by client.
func distinct(seqs [][]stmt) []stmt {
	seen := map[string]bool{}
	var out []stmt
	for _, seq := range seqs {
		for _, s := range seq {
			if !seen[s.text] {
				seen[s.text] = true
				out = append(out, s)
			}
		}
	}
	return out
}
