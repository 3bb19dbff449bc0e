package core_test

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// ExampleSimulate runs the paper's headline design point — MC-DLA(B)
// training VGG-E data-parallel at batch 512 across 8 devices — and prints
// the iteration time and per-device dW all-reduce payload. This is the same
// simulation `mcdla run` and the `/v1/run` endpoint serve.
func ExampleSimulate() {
	s, err := train.BuildSeq("VGG-E", 512, 8, train.DataParallel, 0, train.FP16)
	if err != nil {
		panic(err)
	}
	r, err := core.Simulate(core.NewMCDLAB(accel.Default(), 8), s)
	if err != nil {
		panic(err)
	}
	fmt.Println(r.IterationTime, r.SyncTraffic)
	// Output:
	// 51.141 ms 274.00 MB
}

// Example is the quickstart: it simulates one VGG-E training iteration on
// the paper's 8-device node under every design point of §V, then prints the
// MC-DLA(B) speedup and where DC-DLA's time goes. README.md quotes its
// output.
func Example() {
	// 1. Build the per-device training schedule: VGG-E, global batch 512,
	//    data-parallel across the 8 device-nodes (Table III / §IV).
	schedule, err := train.BuildSeq("VGG-E", 512, 8, train.DataParallel, 0, train.FP16)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload: %s, %v, batch %d across %d devices (%d per device)\n\n",
		schedule.Name, schedule.Strategy, schedule.GlobalBatch, schedule.Workers, schedule.Graph.Batch)

	// 2. Simulate every design point of §V.
	results := make(map[core.DesignKind]core.Result)
	fmt.Printf("%-10s %14s %12s %12s %12s\n", "design", "iteration", "compute", "sync", "virt")
	for _, design := range core.StandardDesigns() {
		r, err := core.Simulate(design, schedule)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %14v %12v %12v %12v\n",
			r.Design, r.IterationTime, r.Breakdown.Compute, r.Breakdown.Sync, r.Breakdown.Virt)
		results[design.Kind] = r
	}

	// 3. The headline comparison.
	dc, mcB := results[core.DCDLA], results[core.MCDLAB]
	fmt.Printf("\nMC-DLA(B) speedup over DC-DLA: %.2fx\n",
		dc.IterationTime.Seconds()/mcB.IterationTime.Seconds())
	fmt.Printf("backing-store traffic per device per iteration: %v\n", mcB.VirtTraffic)
	fmt.Printf("DC-DLA loses %v per iteration waiting on PCIe prefetches; MC-DLA(B) loses %v.\n",
		dc.StallVirt, mcB.StallVirt)
	// Output:
	// workload: VGG-E, data-parallel, batch 512 across 8 devices (64 per device)
	//
	// design          iteration      compute         sync         virt
	// DC-DLA         321.893 ms    51.128 ms     6.814 ms   320.231 ms
	// HC-DLA          62.205 ms    51.128 ms    13.518 ms    51.237 ms
	// MC-DLA(S)       81.886 ms    51.128 ms     7.577 ms    76.855 ms
	// MC-DLA(L)       62.211 ms    51.128 ms     7.419 ms    51.237 ms
	// MC-DLA(B)       51.141 ms    51.128 ms     7.419 ms    25.618 ms
	// DC-DLA(O)       46.467 ms    46.461 ms     6.814 ms          0 s
	//
	// MC-DLA(B) speedup over DC-DLA: 6.29x
	// backing-store traffic per device per iteration: 3.58 GB
	// DC-DLA loses 270.759 ms per iteration waiting on PCIe prefetches; MC-DLA(B) loses 0 s.
}

// Example_interconnects compares the §III-B interconnects as the simulator
// models them: each design's collective rings and virtualization bandwidth,
// and the cost of the paper's 8 MB all-reduce over its longest ring.
func Example_interconnects() {
	for _, d := range core.StandardDesigns()[:5] {
		fmt.Printf("%-9s %-3g rings of %2d nodes, virt %v, 8 MB all-reduce %v\n",
			d.Name, d.Sync.Rings, d.Sync.Nodes, d.VirtBW,
			collective.Latency(collective.AllReduce, 8*units.MB, d.Sync))
	}
	// Output:
	// DC-DLA    3   rings of  8 nodes, virt 12.0 GB/s, 8 MB all-reduce 201.528 us
	// HC-DLA    1.5 rings of  8 nodes, virt 75.0 GB/s, 8 MB all-reduce 397.262 us
	// MC-DLA(S) 3   rings of 20 nodes, virt 50.0 GB/s, 8 MB all-reduce 228.237 us
	// MC-DLA(L) 3   rings of 16 nodes, virt 75.0 GB/s, 8 MB all-reduce 222.130 us
	// MC-DLA(B) 3   rings of 16 nodes, virt 150.0 GB/s, 8 MB all-reduce 222.130 us
}
