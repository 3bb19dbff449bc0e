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
