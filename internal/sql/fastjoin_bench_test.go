package sql

import (
	"fmt"
	"sync"
	"testing"

	"olapmicro/internal/hw"
	"olapmicro/internal/tpch"
)

// The fast-join microbenchmark database: SF 0.1, the scale the
// scan-join serving workload runs at, generated once per process.
var (
	fastJoinOnce sync.Once
	fastJoinData *tpch.Data
	fastJoinMach *hw.Machine
)

func fastJoinDB() (*tpch.Data, *hw.Machine) {
	fastJoinOnce.Do(func() {
		fastJoinData = tpch.Generate(0.1)
		fastJoinMach = hw.Broadwell().Scaled(8)
	})
	return fastJoinData, fastJoinMach
}

// BenchmarkFastJoin times ExecuteFast on the two join shapes of the
// scan-join workload — orders⋈customer grouped on a build column, and
// Q3's two-join chain — at 1 and 2 threads. It covers the join kernels
// alone, below the server frame:
//
//	go test ./internal/sql -run '^$' -bench FastJoin -benchmem
func BenchmarkFastJoin(b *testing.B) {
	d, m := fastJoinDB()
	shapes := []struct{ name, text string }{
		{"orders_customer", "select c_nationkey, count(*), sum(o_totalprice) from orders " +
			"join customer on o_custkey = c_custkey where o_orderdate < date '1995-01-01' " +
			"group by c_nationkey"},
		{"q3", "select l_orderkey, sum(l_extendedprice * (100 - l_discount) / 100) as revenue, " +
			"o_orderdate, o_shippriority from lineitem " +
			"join orders on l_orderkey = o_orderkey join customer on o_custkey = c_custkey " +
			"where c_mktsegment = 1 and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' " +
			"group by l_orderkey, o_orderdate, o_shippriority order by revenue desc, o_orderdate limit 10"},
	}
	for _, s := range shapes {
		c, err := Compile(d, m, s.text, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/threads=%d", s.name, threads), func(b *testing.B) {
				if _, err := c.ExecuteFast(threads); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.ExecuteFast(threads); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
