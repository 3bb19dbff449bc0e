package accel

import "github.com/memcentric/mcdla/internal/units"

// Generation describes one of the five accelerator generations of Figure 2.
// Peak throughput and memory bandwidth follow the public single-device
// numbers of each part (training-relevant precision); the PE array is scaled
// to hit the part's peak MAC rate while keeping the Table II organization.
type Generation struct {
	Name   string
	Config Config
}

// scaledConfig builds a device config whose peak scales with the part's
// advertised training TFLOPS relative to the Volta baseline (Table II's
// 1024 PEs × 125 MACs tracks the V100's 125 advertised TFLOPS, so MACsPerPE
// carries the TFLOPS number directly), plus the part's memory bandwidth.
func scaledConfig(name string, tflops float64, memBW units.Bandwidth) Config {
	c := Default()
	c.Name = name
	c.MemBW = memBW
	c.MACsPerPE = int(tflops)
	if c.MACsPerPE < 1 {
		c.MACsPerPE = 1
	}
	return c
}

// Generations returns the Figure 2 device list in chronological order:
// Kepler (K40), Maxwell (M40), Pascal (P100), Volta (V100), and TPUv2.
func Generations() []Generation {
	return []Generation{
		{"Kepler", scaledConfig("Kepler", 4.29, units.GBps(288))},
		{"Maxwell", scaledConfig("Maxwell", 7.0, units.GBps(288))},
		{"Pascal", scaledConfig("Pascal", 21.2, units.GBps(732))},
		{"Volta", Default()}, // the Table II baseline (125 TFLOPS class)
		{"TPUv2", scaledConfig("TPUv2", 180.0, units.GBps(2400))},
	}
}

// TPUv2Class returns the faster device-node used by the §V-B sensitivity
// study ("a faster device-node configuration such as TPUv2").
func TPUv2Class() Config { return scaledConfig("TPUv2-class", 180.0, units.GBps(2400)) }
