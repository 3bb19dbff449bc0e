package topo_test

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/collective"
	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/topo"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// Example builds the four device-side interconnects of the paper (the DGX
// cube-mesh of Figure 5 and the three MC-DLA candidates of Figure 7),
// validates their link budgets, and compares their ring structure and
// collective/virtualization characteristics — the §III-B design-space
// discussion in executable form. It ends with what the Table I runtime API
// extensions rest on for an MC-DLA(B) device: the single driver address
// space that places deviceremote memory above devicelocal, and a
// LocalToRemote copy striped BW_AWARE over all N links.
func Example() {
	p := topo.DefaultParams()
	builds := []struct {
		name  string
		build func(topo.Params) *topo.Topology
		// virtBW is the per-device virtualization bandwidth the design
		// unlocks (§III-B).
		virtBW units.Bandwidth
	}{
		{"Figure 5  cube-mesh (DC-DLA)", topo.CubeMesh, units.GBps(12)},
		{"Figure 7a star (derivative)", topo.MCDLAStar, units.GBps(50)},
		{"Figure 7b folded (MC-DLA(S))", topo.MCDLAFolded, units.GBps(50)},
		{"Figure 7c ring (MC-DLA(L/B))", topo.MCDLARing, vmem.BWAware.RemoteBandwidth(p.LinksN, p.LinkBW)},
	}

	for _, b := range builds {
		t := b.build(p)
		if err := t.Validate(p.LinksN); err != nil {
			panic(fmt.Sprintf("%s: %v", b.name, err))
		}
		fmt.Printf("%s\n", b.name)
		fmt.Printf("  nodes: %d device + %d memory; rings: %v hops (device participation %v)\n",
			len(t.NodesOf(topo.DeviceNode)), len(t.NodesOf(topo.MemoryNode)),
			t.RingHopCounts(), t.DeviceRingParticipation())
		d0Mem := t.LinksToMemory(0)
		fmt.Printf("  device D0: %d/%d links to memory-nodes -> virtualization bandwidth %v\n",
			d0Mem, p.LinksN, b.virtBW)
		// Collective cost on this interconnect's ring structure for the
		// paper's 8 MB synchronization size.
		nodes := t.MaxRingHops()
		cfg := collective.Config{
			Nodes: nodes, Rings: float64(len(t.Rings)),
			LinkBW: p.LinkBW, ChunkBytes: collective.DefaultChunk,
			StepAlpha: collective.DefaultAlpha,
		}
		if t.Name == "mc-dla-star" {
			cfg.Rings = 3 // the memory-only 4th ring carries no device data
		}
		fmt.Printf("  8 MB all-reduce over the longest ring: %v\n\n",
			collective.Latency(collective.AllReduce, 8*units.MB, cfg))
	}

	// The Table I extensions on an MC-DLA(B) device. The driver maps each
	// 640 GB half of the two neighbouring memory-nodes above 16 GB of
	// devicelocal memory (§III-B), so cudaMallocRemote's first buffer sits
	// at RemoteBase; cudaMemcpyAsync(LocalToRemote) is one DMA on the link
	// complex at the BW_AWARE rate N*B (Figure 10).
	fmt.Println("Table I runtime API on an MC-DLA(B) device:")
	space := vmem.AddressSpace{Local: 16 * units.GB, Left: 640 * units.GB, Right: 640 * units.GB}
	if err := space.Validate(); err != nil {
		panic(err)
	}
	fmt.Printf("  device memory visible to the driver: %v\n", space.Total())
	buf := space.RemoteBase()
	region, _, err := space.Resolve(buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  cudaMallocRemote(8 GB) -> %#x (%v)\n", uint64(buf), region)
	links := sim.NewChannel("links", units.Bandwidth(float64(p.LinkBW)*float64(p.LinksN)))
	dma := links.Group(vmem.BWAware.RemoteBandwidth(p.LinksN, p.LinkBW), false)
	done := links.Wait(0, links.Start(0, dma, 8*units.GB, 0, 0))
	fmt.Printf("  cudaMemcpyAsync(LocalToRemote, 8 GB) completed at t=%v (BW_AWARE, N*B)\n", done)
	// cudaFreeRemote is safe once no copy is in flight on the buffer.
	if links.ActiveFlows() != 0 {
		panic("copy still in flight")
	}
	fmt.Println("  cudaFreeRemote: ok")
	// Output:
	// Figure 5  cube-mesh (DC-DLA)
	//   nodes: 8 device + 0 memory; rings: [8 8 8] hops (device participation [8 8 8])
	//   device D0: 0/6 links to memory-nodes -> virtualization bandwidth 12.0 GB/s
	//   8 MB all-reduce over the longest ring: 201.528 us
	//
	// Figure 7a star (derivative)
	//   nodes: 8 device + 8 memory; rings: [8 8 24 8] hops (device participation [8 8 8 0])
	//   device D0: 2/6 links to memory-nodes -> virtualization bandwidth 50.0 GB/s
	//   8 MB all-reduce over the longest ring: 233.412 us
	//
	// Figure 7b folded (MC-DLA(S))
	//   nodes: 8 device + 8 memory; rings: [8 12 20] hops (device participation [8 8 8])
	//   device D0: 3/6 links to memory-nodes -> virtualization bandwidth 50.0 GB/s
	//   8 MB all-reduce over the longest ring: 228.237 us
	//
	// Figure 7c ring (MC-DLA(L/B))
	//   nodes: 8 device + 8 memory; rings: [16 16 16] hops (device participation [8 8 8])
	//   device D0: 6/6 links to memory-nodes -> virtualization bandwidth 150.0 GB/s
	//   8 MB all-reduce over the longest ring: 222.130 us
	//
	// Table I runtime API on an MC-DLA(B) device:
	//   device memory visible to the driver: 1.27 TB
	//   cudaMallocRemote(8 GB) -> 0x400000000 (deviceremote/left)
	//   cudaMemcpyAsync(LocalToRemote, 8 GB) completed at t=57.266 ms (BW_AWARE, N*B)
	//   cudaFreeRemote: ok
}
