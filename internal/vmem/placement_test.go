package vmem

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/units"
)

// TestPlacementLatencyHalved: the Figure 10 latency law at any link count
// and link rate — striping an allocation BW_AWARE across both memory-nodes
// halves its DMA time against LOCAL placement on one side.
func TestPlacementLatencyHalved(t *testing.T) {
	f := func(links uint8, gbps uint16, raw uint32) bool {
		n := int(links)%16 + 1
		b := units.GBps(float64(gbps%400) + 1)
		d := units.Bytes(raw) + 1
		l := units.TransferTime(d, Local.RemoteBandwidth(n, b))
		bw := units.TransferTime(d, BWAware.RemoteBandwidth(n, b))
		return bw > 0 && 2*bw == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: BW_AWARE reaches the whole link complex N·B, LOCAL the half
// of it that faces one memory-node.
func TestPropertyRemoteBandwidthIsLinkShare(t *testing.T) {
	f := func(links uint8, gbps uint16) bool {
		n := int(links)%16 + 1
		b := units.GBps(float64(gbps%400) + 1)
		all := float64(n) * float64(b)
		return float64(BWAware.RemoteBandwidth(n, b)) == all && float64(Local.RemoteBandwidth(n, b)) == all/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPlacement(t *testing.T) {
	if got := Placement(9).String(); got != "Placement(9)" {
		t.Errorf("unknown placement string %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RemoteBandwidth accepted an unknown placement")
		}
	}()
	Placement(9).RemoteBandwidth(6, units.GBps(25))
}

// TestAllocationLifecycle: on every Table III network, each stash tensor
// Prepare offloads in the forward pass is fetched back exactly once by the
// backward schedule, no later than its first backward use, and every
// layer's extra state leaves and returns with that layer: nothing is left
// in the backing store at iteration end.
func TestAllocationLifecycle(t *testing.T) {
	for _, name := range dnn.BenchmarkNames() {
		pr, err := Prepare(dnn.MustBuild(name, 32), Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]int{}
		for layer := range pr.Plan.Graph.Layers {
			for _, id := range pr.Offloads(layer) {
				if int(pr.Plan.Tensor(id).OffloadAfter) != layer {
					t.Fatalf("%s: tensor %d offloaded after layer %d, plan says %d", name, id, layer, pr.Plan.Tensor(id).OffloadAfter)
				}
				out[id]++
			}
		}
		back := map[int]int{}
		var extra int64
		for i, it := range pr.Sched.Items {
			if it.Tensor < 0 {
				if it.Bytes != pr.Plan.ExtraStash(int(it.Layer)) {
					t.Fatalf("%s: layer %d's state returns %d bytes, left with %d", name, it.Layer, it.Bytes, pr.Plan.ExtraStash(int(it.Layer)))
				}
				extra += it.Bytes
				continue
			}
			back[int(it.Tensor)]++
			if int(it.Layer) < pr.Plan.FirstBackwardUse(int(it.Tensor)) {
				t.Fatalf("%s: item %d fetches tensor %d after its first backward use", name, i, it.Tensor)
			}
		}
		if len(out) == 0 {
			t.Fatalf("%s: nothing offloaded", name)
		}
		for id, n := range out {
			if n != 1 || back[id] != 1 {
				t.Errorf("%s: tensor %d offloaded %d times, fetched %d", name, id, n, back[id])
			}
		}
		if len(back) != len(out) {
			t.Errorf("%s: %d tensors fetched, %d offloaded", name, len(back), len(out))
		}
		var want int64
		for id := range pr.Plan.Graph.Layers {
			want += pr.Plan.ExtraStash(id)
		}
		if extra != want {
			t.Errorf("%s: %d bytes of extra state return, %d left", name, extra, want)
		}

		// The oracle-mode plan keeps everything resident: nothing leaves,
		// nothing returns, and no backward step waits on a transfer.
		oracle, err := Prepare(pr.Plan.Graph, Options{Oracle: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(oracle.Sched.Items); n != 0 {
			t.Errorf("%s: oracle plan queues %d prefetches", name, n)
		}
		for layer := range pr.Plan.Graph.Layers {
			if ids, need := oracle.Offloads(layer), oracle.Sched.NeededAt(layer); ids != nil || need != nil {
				t.Errorf("%s: oracle layer %d offloads %v and needs %v", name, layer, ids, need)
			}
			if m := oracle.Sched.MaxNeededAt(layer); m != -1 {
				t.Errorf("%s: oracle layer %d needs queue item %d", name, layer, m)
			}
		}
	}
}

// TestPreparedRecomputeMatchesRecomputeFor: Prepare's recompute table is
// RecomputeFor's chains with each producer kept at its first occurrence,
// walking the backward steps in order (highest layer ID first): the
// sequence the kernel runs. With recompute off, and in oracle mode, the
// plan recomputes nothing and the table answers empty for every layer.
func TestPreparedRecomputeMatchesRecomputeFor(t *testing.T) {
	chains := 0
	for _, name := range append(dnn.BenchmarkNames(), dnn.TransformerNames()...) {
		g := dnn.MustBuild(name, 32)
		for _, opt := range []Options{{}, {DisableRecompute: true}, {Oracle: true}} {
			pr, err := Prepare(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, len(g.Layers))
			for id := len(g.Layers) - 1; id >= 0; id-- {
				var want []int
				for _, rid := range pr.Plan.RecomputeFor(id) {
					if !seen[rid] {
						seen[rid] = true
						want = append(want, rid)
					}
				}
				got := pr.Recompute(id)
				if !slices.Equal(got, want) {
					t.Errorf("%s %+v layer %d: Recompute = %v, first uses of RecomputeFor = %v", name, opt, id, got, want)
				}
				if opt != (Options{}) && len(got) > 0 {
					t.Errorf("%s %+v layer %d: recomputes %v", name, opt, id, got)
				}
				if len(want) > 0 {
					chains++
				}
			}
		}
	}
	if chains == 0 {
		t.Fatal("no layer of any network recomputes anything")
	}
}
