// Package cudart is the simulated CUDA-runtime surface of Table I: the three
// API extensions MC-DLA adds for deviceremote memory — cudaMallocRemote,
// cudaFreeRemote, and cudaMemcpyAsync with the LocalToRemote /
// RemoteToLocal directions — implemented over the driver-level address
// space of §III-B (devicelocal at the bottom, the two neighbouring
// memory-node halves concatenated above) and the sim engine's DMA channels.
//
// Existing DL frameworks program against exactly this surface; package
// overlay is a vDNN-style runtime memory manager written on top of it.
package cudart

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/sim"
	"github.com/memcentric/mcdla/internal/units"
	"github.com/memcentric/mcdla/internal/vmem"
)

// Ptr is a simulated device pointer (a physical device address).
type Ptr units.Bytes

// Direction selects a cudaMemcpyAsync direction. LocalToRemote and
// RemoteToLocal are the Table I extensions.
type Direction int

const (
	// HostToLocal copies over the host interface into devicelocal memory.
	HostToLocal Direction = iota
	// LocalToHost copies devicelocal memory out over the host interface.
	LocalToHost
	// LocalToRemote pushes devicelocal data to the memory-nodes.
	LocalToRemote
	// RemoteToLocal pulls memory-node data back to devicelocal memory.
	RemoteToLocal
)

func (d Direction) String() string {
	switch d {
	case HostToLocal:
		return "HostToLocal"
	case LocalToHost:
		return "LocalToHost"
	case LocalToRemote:
		return "LocalToRemote"
	case RemoteToLocal:
		return "RemoteToLocal"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Event is a completion handle for an asynchronous copy.
type Event struct {
	ch   *sim.Channel
	flow *sim.Flow
}

// Config parameterizes the simulated device driver.
type Config struct {
	// Local is the devicelocal (HBM) capacity.
	Local units.Bytes
	// RemoteHalf is this device's share of each neighbouring memory-node.
	RemoteHalf units.Bytes
	// Links and LinkBW describe the high-bandwidth link complex.
	Links  int
	LinkBW units.Bandwidth
	// HostBW is the legacy host-interface bandwidth (PCIe).
	HostBW units.Bandwidth
	// Placement selects LOCAL or BW_AWARE page allocation.
	Placement vmem.Placement
}

// Device is one simulated accelerator with MC-DLA driver support.
type Device struct {
	cfg   Config
	space vmem.AddressSpace

	links sim.Group // memory-node link complex, at the placement's stripe rate
	host  sim.Group // legacy PCIe

	clock units.Time

	localCursor  units.Bytes
	remoteCursor units.Bytes
	allocs       map[Ptr]allocation
	freedLocal   units.Bytes
	freedRemote  units.Bytes
}

type allocation struct {
	size   units.Bytes
	remote bool
}

// NewDevice initializes the driver with the boot-time memory inventory
// (§III-B: added capacity is informed to the driver at boot).
func NewDevice(cfg Config) (*Device, error) {
	space := vmem.AddressSpace{Local: cfg.Local, Left: cfg.RemoteHalf, Right: cfg.RemoteHalf}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if cfg.Links <= 0 || cfg.LinkBW <= 0 {
		return nil, fmt.Errorf("cudart: device needs positive link configuration")
	}
	if cfg.HostBW <= 0 {
		return nil, fmt.Errorf("cudart: device needs positive host bandwidth")
	}
	d := &Device{
		cfg:   cfg,
		space: space,
		links: sim.NewChannel("links", units.Bandwidth(float64(cfg.LinkBW)*float64(cfg.Links))).
			Group(cfg.Placement.RemoteBandwidth(cfg.Links, cfg.LinkBW), false),
		host:   sim.NewChannel("host", cfg.HostBW).Group(cfg.HostBW, false),
		allocs: make(map[Ptr]allocation),
	}
	return d, nil
}

// Now reports the device's simulated clock.
func (d *Device) Now() units.Time { return d.clock }

// Advance moves the device clock forward (e.g. across a kernel execution).
func (d *Device) Advance(dt units.Time) {
	if dt < 0 {
		panic("cudart: cannot advance backwards")
	}
	d.clock += dt
}

// Malloc allocates size bytes of devicelocal memory.
func (d *Device) Malloc(size units.Bytes) (Ptr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cudart: malloc size must be positive")
	}
	if d.localCursor+size > d.space.Local {
		return 0, fmt.Errorf("cudart: out of devicelocal memory (%v used of %v)", d.localCursor, d.space.Local)
	}
	p := Ptr(d.localCursor)
	d.localCursor += size
	d.allocs[p] = allocation{size: size}
	return p, nil
}

// MallocRemote implements cudaMallocRemote: size bytes inside deviceremote
// memory, placed under the configured policy (BW_AWARE splits the request
// page-wise across the left and right memory-nodes — Figure 10).
func (d *Device) MallocRemote(size units.Bytes) (Ptr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cudart: mallocRemote size must be positive")
	}
	remoteTotal := d.space.Left + d.space.Right
	if d.remoteCursor+size > remoteTotal {
		return 0, fmt.Errorf("cudart: out of deviceremote memory (%v used of %v)", d.remoteCursor, remoteTotal)
	}
	p := Ptr(d.space.RemoteBase() + d.remoteCursor)
	d.remoteCursor += size
	d.allocs[p] = allocation{size: size, remote: true}
	return p, nil
}

// FreeRemote implements cudaFreeRemote.
func (d *Device) FreeRemote(p Ptr) error {
	a, ok := d.allocs[p]
	if !ok {
		return fmt.Errorf("cudart: freeRemote of unknown pointer %#x", uint64(p))
	}
	if !a.remote {
		return fmt.Errorf("cudart: freeRemote of devicelocal pointer %#x", uint64(p))
	}
	delete(d.allocs, p)
	d.freedRemote += a.size
	return nil
}

// Free releases a devicelocal allocation.
func (d *Device) Free(p Ptr) error {
	a, ok := d.allocs[p]
	if !ok {
		return fmt.Errorf("cudart: free of unknown pointer %#x", uint64(p))
	}
	if a.remote {
		return fmt.Errorf("cudart: free of deviceremote pointer %#x (use FreeRemote)", uint64(p))
	}
	delete(d.allocs, p)
	d.freedLocal += a.size
	return nil
}

// MemcpyAsync implements cudaMemcpyAsync with the extended directions. The
// copy is enqueued on the appropriate DMA channel and returns immediately
// with an Event; Sync blocks the device clock until it lands.
func (d *Device) MemcpyAsync(size units.Bytes, dir Direction) (*Event, error) {
	if size <= 0 {
		return nil, fmt.Errorf("cudart: memcpy size must be positive")
	}
	var g sim.Group
	switch dir {
	case HostToLocal, LocalToHost:
		g = d.host
	case LocalToRemote, RemoteToLocal:
		g = d.links
	default:
		return nil, fmt.Errorf("cudart: unknown direction %v", dir)
	}
	f := g.Channel().Start(d.clock, g, size, 0, 0)
	return &Event{ch: g.Channel(), flow: f}, nil
}

// Sync blocks until the event's copy completes, advancing the device clock.
func (d *Device) Sync(e *Event) units.Time {
	d.clock = e.ch.Wait(d.clock, e.flow)
	return d.clock
}

// Usage reports the current devicelocal and deviceremote allocation levels.
func (d *Device) Usage() (local, remote units.Bytes) {
	for _, a := range d.allocs {
		if a.remote {
			remote += a.size
		} else {
			local += a.size
		}
	}
	return local, remote
}

// Capacity reports the total memory visible to the device (the §III-B
// single address space).
func (d *Device) Capacity() units.Bytes { return d.space.Total() }

// Resolve reports which physical region a pointer lives in.
func (d *Device) Resolve(p Ptr) (vmem.Region, error) {
	r, _, err := d.space.Resolve(units.Bytes(p))
	return r, err
}
