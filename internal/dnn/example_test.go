package dnn_test

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/memnode"
	"github.com/memcentric/mcdla/internal/power"
	"github.com/memcentric/mcdla/internal/units"
)

// ExampleMustBuild builds a Table III workload at its per-device batch and
// prints the one-line inventory the CLI's `networks` subcommand shows.
func ExampleMustBuild() {
	g := dnn.MustBuild("AlexNet", 64)
	fmt.Println(g.Summary())
	// Output:
	// AlexNet      layers=8   batch=64   weights= 124.7 MB  fmaps=   266.3 MB  stash=    53.1 MB  MACs=   72.7 G
}

// ExampleBuildSeq builds a transformer workload at an explicit sequence
// length; the attention score tensors (and with them the stash the memory
// system must absorb) grow with seqlen².
func ExampleBuildSeq() {
	g, err := dnn.BuildSeq("BERT-Large", 8, 256)
	if err != nil {
		panic(err)
	}
	fmt.Println(g.Summary())
	// Output:
	// BERT-Large   layers=192 batch=8    weights= 604.2 MB  fmaps=  2625.6 MB  stash=  1409.3 MB  MACs=  644.2 G
}

// videoModel builds an end-to-end video captioning model: a CNN trunk
// evaluated per frame feeding a 2-layer LSTM over the sequence.
func videoModel(batch, frames, hidden int) *dnn.Graph {
	b := dnn.NewBuilder(fmt.Sprintf("video-%df", frames), batch)
	x := b.Input(3, 224, 224)
	// VGG-style trunk (per clip the trunk runs once per frame; the builder
	// models one frame and the planner scales by the frame count).
	stageC := []int{64, 128, 256, 512, 512}
	for s, c := range stageC {
		x = b.Conv(fmt.Sprintf("conv%d_1", s+1), x, c, 3, 1, 1)
		x = b.ReLU(fmt.Sprintf("relu%d_1", s+1), x)
		x = b.Conv(fmt.Sprintf("conv%d_2", s+1), x, c, 3, 1, 1)
		x = b.ReLU(fmt.Sprintf("relu%d_2", s+1), x)
		x = b.Pool(fmt.Sprintf("pool%d", s+1), x, 2, 2, 0)
	}
	x = b.FC("embed", x, hidden)
	for t := 1; t <= frames; t++ {
		x = b.LSTMCell(fmt.Sprintf("lstm1_t%d", t), x, hidden, "video/lstm1")
	}
	for t := 1; t <= frames; t++ {
		x = b.LSTMCell(fmt.Sprintf("lstm2_t%d", t), x, hidden, "video/lstm2")
	}
	b.FC("decode", x, 10000)
	return b.Finish()
}

// ExampleNewBuilder is the §V-E video-capacity scenario. Video
// understanding models run a per-frame CNN into LSTMs over the frame
// sequence, so the training footprint grows with clip length until no 16 GB
// device can hold it. The example builds a VGG-E-frontend + LSTM model at
// growing clip lengths, reports the footprint, shows which configurations
// only MC-DLA's deviceremote pool can hold, and what each memory-node DIMM
// choice costs in power (Table IV).
func ExampleNewBuilder() {
	const (
		batch  = 32
		hidden = 1024
	)
	deviceHBM := 16 * units.GB
	node := memnode.Default()
	pool := 2 * (node.Capacity() / 2) // a half of each neighbouring node

	fmt.Printf("Per-device memory budget: HBM %v; MC-DLA deviceremote pool %v\n\n", deviceHBM, pool)
	fmt.Printf("%-8s %-14s %-14s %-12s %s\n", "frames", "weights", "training set", "fits HBM?", "fits MC-DLA?")
	for _, frames := range []int{4, 8, 16, 32, 64, 128} {
		g := videoModel(batch, frames, hidden)
		// The CNN trunk runs per frame: its feature maps replicate per frame.
		trunkFmaps := int64(0)
		lstmStash := int64(0)
		for _, l := range g.Layers {
			if l.Kind == dnn.LSTMCell {
				lstmStash += l.OutBytes() + l.StashExtraBytes
			} else {
				trunkFmaps += l.OutBytes()
			}
		}
		weights := units.Bytes(g.TotalWeightBytes())
		footprint := units.Bytes(trunkFmaps*int64(frames)+lstmStash) + weights
		fits := func(budget units.Bytes) string {
			if footprint <= budget {
				return "yes"
			}
			return fmt.Sprintf("no (%.1fx)", float64(footprint)/float64(budget))
		}
		fmt.Printf("%-8d %-14v %-14v %-12s %s\n", frames, weights, footprint,
			fits(deviceHBM), fits(deviceHBM+pool))
	}

	fmt.Println("\nMemory-node DIMM choices (Table IV):")
	for _, r := range power.AnalyzeAll() {
		fmt.Printf("  %-13s node %v, 8-node pool %5.2f TB, +%2.0f%% system power, %5.1f GB/W\n",
			r.DIMM.Name, units.Bytes(10)*r.DIMM.Capacity, r.PoolTB, 100*r.OverheadFraction, r.GBPerWatt)
	}
	fmt.Println("\nTakeaway: beyond ~16 frames the end-to-end video model exceeds any")
	fmt.Println("single-device HBM, but fits comfortably inside the memory-centric pool —")
	fmt.Println("the class of workload MC-DLA unlocks (§V-E).")
	// Output:
	// Per-device memory budget: HBM 16.00 GB; MC-DLA deviceremote pool 1.25 TB
	//
	// frames   weights        training set   fits HBM?    fits MC-DLA?
	// 4        118.46 MB      6.36 GB        yes          yes
	// 8        118.46 MB      12.61 GB       yes          yes
	// 16       118.46 MB      25.09 GB       no (1.6x)    yes
	// 32       118.46 MB      50.07 GB       no (3.1x)    yes
	// 64       118.46 MB      100.03 GB      no (6.3x)    yes
	// 128      118.46 MB      199.95 GB      no (12.5x)   yes
	//
	// Memory-node DIMM choices (Table IV):
	//   8GB-RDIMM     node 80.00 GB, 8-node pool  0.69 TB, + 7% system power,   2.8 GB/W
	//   16GB-RDIMM    node 160.00 GB, 8-node pool  1.37 TB, +16% system power,   2.4 GB/W
	//   32GB-LRDIMM   node 320.00 GB, 8-node pool  2.75 TB, +22% system power,   3.7 GB/W
	//   64GB-LRDIMM   node 640.00 GB, 8-node pool  5.50 TB, +26% system power,   6.3 GB/W
	//   128GB-LRDIMM  node 1.25 TB, 8-node pool 11.00 TB, +32% system power,  10.1 GB/W
	//
	// Takeaway: beyond ~16 frames the end-to-end video model exceeds any
	// single-device HBM, but fits comfortably inside the memory-centric pool —
	// the class of workload MC-DLA unlocks (§V-E).
}
