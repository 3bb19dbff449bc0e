package vmem

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/units"
)

// AddressSpace models the single device memory address space the MC-DLA
// driver exposes (§III-B, Figure 10): devicelocal physical memory lives at
// the bottom; each half of the left and right memory-nodes is concatenated
// and mapped into the higher address range. The enlarged device looks like
// an ordinary PCIe device with more memory, so existing system software
// (mmap) works as-is.
type AddressSpace struct {
	Local units.Bytes
	Left  units.Bytes // this device's half of the left memory-node
	Right units.Bytes // this device's half of the right memory-node
}

// Region identifies which physical region an address falls in.
type Region int

const (
	// RegionLocal is devicelocal (HBM) memory.
	RegionLocal Region = iota
	// RegionLeft is the left memory-node's half.
	RegionLeft
	// RegionRight is the right memory-node's half.
	RegionRight
)

func (r Region) String() string {
	switch r {
	case RegionLocal:
		return "devicelocal"
	case RegionLeft:
		return "deviceremote/left"
	case RegionRight:
		return "deviceremote/right"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// PhysicalAddressBits is the paper GPU's physical addressing limit
// (§III-B).
const PhysicalAddressBits = 47

// Total reports the full address-space size.
func (a AddressSpace) Total() units.Bytes { return a.Local + a.Left + a.Right }

// RemoteBase reports where deviceremote memory begins.
func (a AddressSpace) RemoteBase() units.Bytes { return a.Local }

// Resolve maps a physical device address to its backing region and offset.
func (a AddressSpace) Resolve(addr units.Bytes) (Region, units.Bytes, error) {
	switch {
	case addr < 0 || addr >= a.Total():
		return 0, 0, fmt.Errorf("vmem: address %d outside device memory of %d bytes", addr, a.Total())
	case addr < a.Local:
		return RegionLocal, addr, nil
	case addr < a.Local+a.Left:
		return RegionLeft, addr - a.Local, nil
	default:
		return RegionRight, addr - a.Local - a.Left, nil
	}
}

// Validate checks that the space fits the GPU's physical addressing limits.
func (a AddressSpace) Validate() error {
	if a.Local <= 0 {
		return fmt.Errorf("vmem: devicelocal size must be positive")
	}
	if a.Left < 0 || a.Right < 0 {
		return fmt.Errorf("vmem: remote halves must be nonnegative")
	}
	max := units.Bytes(1) << PhysicalAddressBits
	if a.Total() > max {
		return fmt.Errorf("vmem: address space %v exceeds %d-bit physical addressing", a.Total(), PhysicalAddressBits)
	}
	return nil
}
