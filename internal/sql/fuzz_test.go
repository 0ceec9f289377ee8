package sql

import (
	"math/rand"
	"testing"
)

// FuzzParse drives the lexer and parser with arbitrary inputs. Two
// properties must hold: the parser never panics, and every accepted
// statement's canonical rendering re-parses to the same canonical form
// (a fixed point).
func FuzzParse(f *testing.F) {
	// Seeds: the four profiled TPC-H query texts in this SQL subset.
	f.Add(`select sum(l_quantity), sum(l_extendedprice),
sum(l_extendedprice * (100 - l_discount) / 100),
sum(l_extendedprice * (100 - l_discount) / 100 * (100 + l_tax) / 100),
count(*)
from lineitem where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus`)
	f.Add(`select sum(l_extendedprice * l_discount / 100) from lineitem
where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
and l_discount between 5 and 7 and l_quantity < 24`)
	f.Add(`select sum(l_extendedprice * (100 - l_discount) / 100 - ps_supplycost * l_quantity)
from lineitem
join partsupp on l_suppkey = ps_suppkey
join supplier on l_suppkey = s_suppkey
join orders on l_orderkey = o_orderkey
group by s_nationkey`)
	f.Add(`select sum(l_quantity), count(*) from lineitem
join orders on l_orderkey = o_orderkey
where o_totalprice > 30000000 group by l_orderkey`)
	f.Add("explain select count(*) from nation")
	f.Add("select sum(x) from t where a < b and c between 1 and 2")
	f.Add("select -1 from t'")
	// The ORDER BY/LIMIT/HAVING surface (Q3/Q18 shapes) plus malformed
	// variants: the parser must return a positioned error, never panic.
	f.Add(`select l_orderkey, sum(l_extendedprice * (100 - l_discount) / 100) as revenue,
o_orderdate, o_shippriority
from lineitem
join orders on l_orderkey = o_orderkey
join customer on o_custkey = c_custkey
where c_mktsegment = 1 and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10`)
	f.Add(`select c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity)
from lineitem
join orders on l_orderkey = o_orderkey
join customer on o_custkey = c_custkey
group by c_custkey, o_orderkey, o_orderdate, o_totalprice
having sum(l_quantity) > 300
order by o_totalprice desc, o_orderdate
limit 100`)
	f.Add("select sum(x) from t group by g having count(*) between 1 and 2 order by 1 desc, g asc limit 7")
	f.Add("select sum(x) from t order by")
	f.Add("select sum(x) from t order by sum(x) desc desc")
	f.Add("select sum(x) from t limit")
	f.Add("select sum(x) from t limit 0")
	f.Add("select sum(x) from t limit limit")
	f.Add("select sum(x) from t having")
	f.Add("select sum(x) from t having order by limit")
	f.Add("select sum(x) from t group by having sum(x) > ")
	f.Add("order by 1 limit 2")
	f.Add("select sum(x) from t limit 1 limit 2")
	f.Add("select sum(x) from t order by 18446744073709551616")

	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %q -> %q: %v", src, canon, err)
		}
		if got := s2.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q -> %q", src, canon, got)
		}
	})
}

// FuzzFastMatchesMeasured checks fast mode against the measured
// engines over the differential generator's grammar: the seed picks
// one generated statement over the differential database, and
// ExecuteFast at 1, 2 and 4 threads must equal the serial measured
// Typer Result bit for bit. The seed corpus runs under plain go test;
// `go test -fuzz FuzzFastMatchesMeasured ./internal/sql` explores
// further seeds.
func FuzzFastMatchesMeasured(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(diffDefaultSeed + seed*7919)
	}
	d, m := diffDB()
	f.Fuzz(func(t *testing.T, seed int64) {
		q := genQuery(d, rand.New(rand.NewSource(seed))).sql
		c, a, err := Run(d, m, q, Options{Engine: "typer"})
		if err != nil {
			t.Fatalf("seed %d: %s\n  measured typer: %v", seed, q, err)
		}
		for _, threads := range []int{1, 2, 4} {
			r, err := c.ExecuteFast(threads)
			if err != nil {
				t.Fatalf("seed %d: %s\n  fast(%d): %v", seed, q, threads, err)
			}
			if !r.Equal(a.Result) {
				t.Fatalf("seed %d: %s\n  fast(%d) %v != measured %v", seed, q, threads, r, a.Result)
			}
		}
	})
}
