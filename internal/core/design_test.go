package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/vmem"
)

// TestDesignForRejectsUnbuildableLinkComplexes: every design resolves over
// any link count and device count without panicking, and MC-DLA(S) — whose
// folded rings exist only for the six-link, eight-device DGX example —
// answers with an error naming the offending parameter instead.
func TestDesignForRejectsUnbuildableLinkComplexes(t *testing.T) {
	names := []string{"DC-DLA", "DC-DLA(gen4)", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"}
	for _, name := range names {
		for _, links := range []int{1, 4, 6, 8} {
			for _, workers := range []int{4, 8} {
				t.Run(fmt.Sprintf("%s/links=%d/workers=%d", name, links, workers), func(t *testing.T) {
					dev := accel.Default()
					dev.Links = links
					_, err := DesignFor(name, dev, workers)
					var want string
					if name == "MC-DLA(S)" {
						switch {
						case links != 6:
							want = "links"
						case workers != 8:
							want = "workers"
						}
					}
					if want == "" {
						if err != nil {
							t.Fatalf("unexpected error: %v", err)
						}
						return
					}
					var pe *ParamError
					if !errors.As(err, &pe) || pe.Param != want {
						t.Fatalf("error %v, want a ParamError naming %s", err, want)
					}
				})
			}
		}
	}
}

// TestHCDLASplitsAnOddLinkCount: HC-DLA sends the floor of half its links to
// the host and keeps the rest for the device rings, so five links give two
// host links (2×B of virtualization bandwidth) and three device links (1.5
// rings).
func TestHCDLASplitsAnOddLinkCount(t *testing.T) {
	dev := accel.Default()
	dev.Links = 5
	d, err := DesignFor("HC-DLA", dev, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * dev.LinkBW; d.VirtBW != want {
		t.Errorf("virt = %v, want 2 links = %v", d.VirtBW, want)
	}
	if d.Sync.Rings != 1.5 || d.Sync.LinkBW != dev.LinkBW {
		t.Errorf("rings = %g of %v, want 1.5 of %v", d.Sync.Rings, d.Sync.LinkBW, dev.LinkBW)
	}
}

// TestMCDLAVirtBWFollowsPlacement: at any link count, MC-DLA(B) stripes its
// DMAs over the whole link complex it shares with the rings, and MC-DLA(L)
// reaches the half facing one memory-node.
func TestMCDLAVirtBWFollowsPlacement(t *testing.T) {
	for _, links := range []int{1, 2, 4, 6, 8, 12} {
		dev := accel.Default()
		dev.Links = links
		b, l := NewMCDLAB(dev, 8), NewMCDLAL(dev, 8)
		if b.VirtBW != b.LinkComplexBW || b.Placement != vmem.BWAware {
			t.Errorf("links=%d: MC-DLA(B) virt %v over a %v link complex (%v)", links, b.VirtBW, b.LinkComplexBW, b.Placement)
		}
		if 2*l.VirtBW != l.LinkComplexBW || l.Placement != vmem.Local {
			t.Errorf("links=%d: MC-DLA(L) virt %v over a %v link complex (%v)", links, l.VirtBW, l.LinkComplexBW, l.Placement)
		}
	}
}

// TestHCDLALinkSplit: at every link count HC-DLA sends ⌊N/2⌋ links to the
// host and rings over the other ⌈N/2⌉, so the two together spend the whole
// link complex; the Table II device's six links split 3/3 (§II-C).
func TestHCDLALinkSplit(t *testing.T) {
	for _, links := range []int{2, 3, 4, 5, 6, 7, 8, 12} {
		t.Run(fmt.Sprintf("links=%d", links), func(t *testing.T) {
			dev := accel.Default()
			dev.Links = links
			d := NewHCDLA(dev, 8)
			toHost := float64(d.VirtBW) / float64(dev.LinkBW)
			toDev := 2 * d.Sync.Rings
			if toHost != float64(links/2) || toHost+toDev != float64(links) {
				t.Fatalf("split = %g host / %g device links, want %d/%d", toHost, toDev, links/2, links-links/2)
			}
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInterconnectRings pins each standard design's ring structure, the
// §III-B interconnects in the form the simulator reads: the Figure 5
// cube-mesh threads three rings of the eight devices, HC-DLA keeps 1.5 of
// them, MC-DLA(S) runs at the pace of its 20-hop folded ring (Figure 7(b)),
// and the Figure 7(c) rings alternate eight devices with eight memory-nodes.
// Every design but HC-DLA rings over N/2 = 3 rings of 25 GB/s links.
func TestInterconnectRings(t *testing.T) {
	for _, c := range []struct {
		name     string
		nodes    int
		rings    float64
		ringGBps float64
	}{
		{"DC-DLA", 8, 3, 75},
		{"DC-DLA(gen4)", 8, 3, 75},
		{"HC-DLA", 8, 1.5, 37.5},
		{"MC-DLA(S)", 20, 3, 75},
		{"MC-DLA(L)", 16, 3, 75},
		{"MC-DLA(B)", 16, 3, 75},
		{"DC-DLA(O)", 8, 3, 75},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := DesignByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if d.Sync.Nodes != c.nodes || d.Sync.Rings != c.rings {
				t.Errorf("rings = %g of %d nodes, want %g of %d", d.Sync.Rings, d.Sync.Nodes, c.rings, c.nodes)
			}
			if got := d.Sync.AggregateBW().GBps(); got != c.ringGBps {
				t.Errorf("ring bandwidth = %g GB/s, want %g", got, c.ringGBps)
			}
			if err := d.Sync.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMCDLARingsThreadEveryMemoryNode: the Figure 7(c) ring visits one
// memory-node between each pair of neighbouring devices, so at any worker
// count the MC-DLA(L/B) rings are twice as long as the cube-mesh's and there
// is one memory-node board per device; the cube-mesh rings the workers
// alone.
func TestMCDLARingsThreadEveryMemoryNode(t *testing.T) {
	for _, workers := range []int{2, 4, 8, 16, 32} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dev := accel.Default()
			if got := NewDCDLA(dev, workers).Sync.Nodes; got != workers {
				t.Errorf("DC-DLA ring nodes = %d, want %d", got, workers)
			}
			for _, d := range []Design{NewMCDLAL(dev, workers), NewMCDLAB(dev, workers)} {
				if d.Sync.Nodes != 2*workers || d.MemNodes != workers {
					t.Errorf("%s: %d ring nodes and %d memory-nodes, want %d and %d", d.Name, d.Sync.Nodes, d.MemNodes, 2*workers, workers)
				}
				if err := d.Validate(); err != nil {
					t.Errorf("%s: %v", d.Name, err)
				}
			}
		})
	}
}
