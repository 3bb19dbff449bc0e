package vmem

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/memnode"
	"github.com/memcentric/mcdla/internal/units"
)

// TestDeviceCapacityIsSingleAddressSpace: a device with 16 GB of HBM and a
// 640 GB half of each neighbouring 1.28 TB memory-node sees one address
// space of both (§III-B), with deviceremote memory starting right above
// devicelocal.
func TestDeviceCapacityIsSingleAddressSpace(t *testing.T) {
	a := AddressSpace{Local: 16 * units.GB, Left: 640 * units.GB, Right: 640 * units.GB}
	if want := 16*units.GB + 2*640*units.GB; a.Total() != want {
		t.Fatalf("capacity = %v, want %v", a.Total(), want)
	}
	if a.RemoteBase() != a.Local {
		t.Fatalf("remote base %v, want devicelocal size %v", a.RemoteBase(), a.Local)
	}
}

// TestMemoryNodeHalvesFitPhysicalAddressing: whichever catalog DIMM
// populates the memory-nodes, a device's halves of its two neighbours fit
// its 47-bit physical addressing next to 16 GB of HBM, and together they
// add exactly one node's capacity (§III-B, Figure 8).
func TestMemoryNodeHalvesFitPhysicalAddressing(t *testing.T) {
	for _, dimm := range memnode.Catalog() {
		node := memnode.Default()
		node.DIMM = dimm
		half := node.Capacity() / 2
		a := AddressSpace{Local: 16 * units.GB, Left: half, Right: half}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", dimm.Name, err)
		}
		if got := a.Total() - a.Local; got != node.Capacity() {
			t.Errorf("%s: deviceremote %v, want one node's %v", dimm.Name, got, node.Capacity())
		}
	}
}

// TestRemoteBaseResolvesToFirstRemoteHalf: the first deviceremote byte is
// the left half's first byte, or the right half's when the left is empty;
// with no remote memory it lies outside the device.
func TestRemoteBaseResolvesToFirstRemoteHalf(t *testing.T) {
	for _, c := range []struct {
		left, right units.Bytes
		want        Region
	}{
		{640 * units.GB, 640 * units.GB, RegionLeft},
		{0, 640 * units.GB, RegionRight},
	} {
		a := AddressSpace{Local: 16 * units.GB, Left: c.left, Right: c.right}
		r, off, err := a.Resolve(a.RemoteBase())
		if err != nil || r != c.want || off != 0 {
			t.Errorf("%+v: remote base resolved to %v+%d (%v), want %v+0", a, r, off, err, c.want)
		}
		if r, _, _ := a.Resolve(a.RemoteBase() - 1); r != RegionLocal {
			t.Errorf("%+v: byte below the remote base resolved to %v", a, r)
		}
	}
	localOnly := AddressSpace{Local: 16 * units.GB}
	if _, _, err := localOnly.Resolve(localOnly.RemoteBase()); err == nil {
		t.Fatal("a device without remote memory resolved its remote base")
	}
}

func TestAddressSpaceValidateRejects(t *testing.T) {
	good := AddressSpace{Local: 16 * units.GB, Left: 640 * units.GB, Right: 640 * units.GB}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []AddressSpace{
		{Local: 0, Left: 640 * units.GB, Right: 640 * units.GB},
		{Local: -1, Left: 640 * units.GB, Right: 640 * units.GB},
		{Local: 16 * units.GB, Left: -1, Right: 640 * units.GB},
		{Local: 16 * units.GB, Left: 640 * units.GB, Right: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
}

// Property: every address inside the space resolves to the one region
// holding it, at an offset that maps back to the address; every address
// outside is an error. Each draw checks a random address and the bytes on
// either side of every region boundary.
func TestPropertyResolveRoundTrip(t *testing.T) {
	f := func(local, left, right uint32, raw uint64) bool {
		a := AddressSpace{Local: units.Bytes(local) + 1, Left: units.Bytes(left), Right: units.Bytes(right)}
		base := [...]units.Bytes{RegionLocal: 0, RegionLeft: a.Local, RegionRight: a.Local + a.Left}
		size := [...]units.Bytes{RegionLocal: a.Local, RegionLeft: a.Left, RegionRight: a.Right}
		addrs := []units.Bytes{units.Bytes(raw % uint64(a.Total()+a.Total()/4+1))}
		for _, b := range []units.Bytes{a.Local, a.Local + a.Left, a.Total()} {
			addrs = append(addrs, b-1, b)
		}
		for _, addr := range addrs {
			r, off, err := a.Resolve(addr)
			if addr >= a.Total() {
				if err == nil {
					return false
				}
				continue
			}
			if err != nil || off < 0 || off >= size[r] || base[r]+off != addr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionStrings(t *testing.T) {
	want := map[Region]string{
		RegionLocal: "devicelocal", RegionLeft: "deviceremote/left",
		RegionRight: "deviceremote/right", Region(7): "Region(7)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d = %q, want %q", int(r), r.String(), s)
		}
	}
}

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
		for layer, ids := range pr.Offloads {
			for _, id := range ids {
				if pr.Plan.Tensors[id].OffloadAfter != layer {
					t.Fatalf("%s: tensor %d offloaded after layer %d, plan says %d", name, id, layer, pr.Plan.Tensors[id].OffloadAfter)
				}
				out[id]++
			}
		}
		back := map[int]int{}
		var extra int64
		for i, it := range pr.Sched.Items {
			if it.Tensor < 0 {
				if it.Bytes != pr.Plan.ExtraStash[it.Layer] {
					t.Fatalf("%s: layer %d's state returns %d bytes, left with %d", name, it.Layer, it.Bytes, pr.Plan.ExtraStash[it.Layer])
				}
				extra += it.Bytes
				continue
			}
			back[it.Tensor]++
			if it.Layer < pr.Plan.FirstBackwardUse(it.Tensor) {
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
		for _, b := range pr.Plan.ExtraStash {
			want += b
		}
		if extra != want {
			t.Errorf("%s: %d bytes of extra state return, %d left", name, extra, want)
		}
	}
}

// TestPreparedRecomputeMatchesRecomputeFor: Prepare's recompute table is
// RecomputeFor's chains with each producer kept at its first occurrence,
// walking the backward steps in order (highest layer ID first): the
// sequence the kernel runs.
func TestPreparedRecomputeMatchesRecomputeFor(t *testing.T) {
	chains := 0
	for _, name := range append(dnn.BenchmarkNames(), dnn.TransformerNames()...) {
		g := dnn.MustBuild(name, 32)
		pr, err := Prepare(g, Options{})
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
			if got := pr.Recompute[id]; !slices.Equal(got, want) {
				t.Errorf("%s layer %d: Recompute = %v, first uses of RecomputeFor = %v", name, id, got, want)
			}
			if len(want) > 0 {
				chains++
			}
		}
	}
	if chains == 0 {
		t.Fatal("no layer of any network recomputes anything")
	}
}
