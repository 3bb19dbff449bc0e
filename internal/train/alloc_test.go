//go:build !race

package train

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/memcentric/mcdla/internal/dnn"
)

// bytesPerRun reports the heap bytes one call of f allocates, averaged over
// runs calls after a warm one, on one processor as testing.AllocsPerRun
// counts.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestBuildOnByteBudget pins what a schedule build allocates: the Schedule
// itself, its op and shard tables, which hold one entry per collective and
// per GEMM shard, and per layer only the int32 bounds of those tables — 8 B
// under data parallel, 12 B and a byte of scratch under model parallel —
// plus the size-class rounding of each table. A per-layer record of the
// layer's bytes and lists, 96 B when schedules kept one, breaks the budget
// on either network.
func TestBuildOnByteBudget(t *testing.T) {
	const fixed = 512 // the Schedule, rounded up
	for _, name := range []string{"AlexNet", "GPT-2"} {
		for _, c := range []struct {
			strategy Strategy
			perLayer float64
		}{{DataParallel, 16}, {ModelParallel, 24}} {
			batch, err := DeviceBatch(paperBatch, paperWorkers, c.strategy)
			if err != nil {
				t.Fatal(err)
			}
			net, err := NewNetwork(name, batch, 0)
			if err != nil {
				t.Fatal(err)
			}
			var s *Schedule
			got := bytesPerRun(10, func() {
				if s, err = BuildOn(net, paperBatch, paperWorkers, c.strategy, FP16); err != nil {
					t.Fatal(err)
				}
			})
			tables := float64(uintptr(cap(s.ops))*unsafe.Sizeof(SyncOp{}) + uintptr(cap(s.shards))*unsafe.Sizeof(dnn.GEMM{}))
			n := float64(len(net.Graph.Layers))
			t.Logf("%s %v: %.0f B per build, %.0f B of op and shard tables, %.1f B per layer besides",
				name, c.strategy, got, tables, (got-tables-fixed)/n)
			if budget := tables + fixed + c.perLayer*n; got > budget {
				t.Errorf("%s %v: BuildOn allocated %.0f B over %.0f layers, budget %.0f (tables %.0f + %d + %.0f per layer)",
					name, c.strategy, got, n, budget, tables, fixed, c.perLayer)
			}
		}
	}
}

// TestOraclePlanAllocatesNoLayerTable: the oracle plan keeps every tensor
// resident, so it plans, queues and indexes nothing. Building it allocates
// a few fixed structs, the same on AlexNet's 24 layers as on GPT-2's 674;
// a table of even one byte per layer would exceed the budget on GPT-2.
func TestOraclePlanAllocatesNoLayerTable(t *testing.T) {
	const budget = 512
	for _, name := range []string{"AlexNet", "GPT-2"} {
		g, err := dnn.BuildSeq(name, paperBatch/paperWorkers, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := bytesPerRun(10, func() {
			if _, err := (&Network{Graph: g}).Prepared(true); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f B per oracle plan over %d layers", name, got, len(g.Layers))
		if got > budget {
			t.Errorf("%s: the oracle plan allocated %.0f B over %d layers, budget %d", name, got, len(g.Layers), budget)
		}
	}
}
