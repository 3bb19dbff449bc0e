package vmem

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/units"
)

// Placement selects the page allocation/placement policy for deviceremote
// memory (§III-B, Figure 10).
type Placement int

const (
	// Local places an entire allocation inside a single neighbouring
	// memory-node, reaching it over that side's N/2 links:
	// Latency_LOCAL = D / (N·B/2).
	Local Placement = iota
	// BWAware splits the allocation into two page-granular chunks mapped
	// round-robin across the left and right memory-nodes, so reads and
	// writes stripe over all N links concurrently:
	// Latency_BW_AWARE = (D/2) / (N·B/2), i.e. half of LOCAL.
	BWAware
)

func (p Placement) String() string {
	switch p {
	case Local:
		return "LOCAL"
	case BWAware:
		return "BW_AWARE"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// RemoteBandwidth reports the deviceremote DMA throughput a device-node
// achieves under the policy, given N links of B GB/s each.
func (p Placement) RemoteBandwidth(links int, linkBW units.Bandwidth) units.Bandwidth {
	half := units.Bandwidth(float64(linkBW) * float64(links) / 2)
	switch p {
	case Local:
		return half
	case BWAware:
		return 2 * half
	}
	panic(fmt.Sprintf("vmem: unknown placement %d", int(p)))
}
