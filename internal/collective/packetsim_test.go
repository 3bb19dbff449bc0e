package collective

import (
	"testing"
	"testing/quick"

	"github.com/memcentric/mcdla/internal/units"
)

// The chunk-level ring simulation must agree with the closed-form Estimate
// across the Figure 9 sweep — this is the fidelity argument for using the
// analytical model inside the full-system simulator. ReduceScatter is in the
// sweep because the scale-out plane prices its dW-rs lap with it.
func TestPacketSimValidatesAnalyticalModel(t *testing.T) {
	// The closed form is tight at the synchronization sizes that matter
	// (the paper's 8 MB target and above) and conservative — it
	// overestimates — for small buffers, where its α and pipeline-fill
	// terms double-count against the chunk recurrence. Tolerances reflect
	// that: ≤10% at ≥8 MB, looser below.
	tolerances := map[units.Bytes]float64{
		64 * units.KB: 0.90,
		units.MB:      0.40,
		8 * units.MB:  0.10,
		64 * units.MB: 0.10,
	}
	for _, n := range []int{2, 4, 8, 16, 24, 36} {
		cfg := fig9Config(n)
		for _, op := range []Op{AllReduce, ReduceScatter, AllGather, Broadcast} {
			for size, tol := range tolerances {
				if err := ValidateModel(op, size, cfg); err > tol {
					t.Errorf("n=%d %v %v: model error %.1f%% exceeds %.0f%%", n, op, size, err*100, tol*100)
				}
				// Conservative direction: the analytical estimate must not
				// undershoot the chunk-level simulation by more than a few
				// percent at any size.
				an := Latency(op, size, cfg).Seconds()
				si := SimulateRing(op, size, cfg).Seconds()
				if an < 0.90*si {
					t.Errorf("n=%d %v %v: analytical %.3g undershoots simulation %.3g", n, op, size, an, si)
				}
			}
		}
	}
}

func TestPacketSimZeroSize(t *testing.T) {
	if got := SimulateRing(AllReduce, 0, fig9Config(8)); got != 0 {
		t.Fatalf("zero-size sim = %v", got)
	}
}

func TestPacketSimSubChunkMessages(t *testing.T) {
	// Buffers smaller than one chunk per shard still complete, paying at
	// least the per-step launch overheads.
	cfg := fig9Config(8)
	got := SimulateRing(AllReduce, 512, cfg)
	if got <= 0 {
		t.Fatalf("sub-chunk all-reduce = %v", got)
	}
	minAlpha := units.Time(float64(cfg.StepAlpha) * 14) // 2(n-1) steps
	if got < minAlpha {
		t.Fatalf("sim %v under the α floor %v", got, minAlpha)
	}
}

func TestPacketSimBroadcastPipelines(t *testing.T) {
	// Pipelined broadcast must cost ≈ stream time regardless of ring size,
	// not (n-1) serialized full-buffer sends.
	cfg := fig9Config(16)
	stream := units.TransferTime(8*units.MB, cfg.LinkBW)
	got := SimulateRing(Broadcast, 8*units.MB, cfg)
	if got > units.Time(1.1*float64(stream)) {
		t.Fatalf("broadcast %v not pipelined (stream time %v)", got, stream)
	}
}

func TestPacketSimMultiRingStriping(t *testing.T) {
	one := fig9Config(8)
	three := one
	three.Rings = 3
	l1 := SimulateRing(AllReduce, 64*units.MB, one).Seconds()
	l3 := SimulateRing(AllReduce, 64*units.MB, three).Seconds()
	if ratio := l1 / l3; ratio < 2.6 || ratio > 3.1 {
		t.Fatalf("3-ring striping speedup = %.2f, want ≈3", ratio)
	}
}

func TestPacketSimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative size")
		}
	}()
	SimulateRing(AllReduce, -1, fig9Config(8))
}

// Property: the simulation is monotone in size and never faster than the
// pure wire bound.
func TestPropertyPacketSimBounds(t *testing.T) {
	f := func(sizeKB uint16, nRaw, opRaw uint8) bool {
		n := int(nRaw%30) + 2
		op := Op(opRaw % 3)
		size := units.Bytes(sizeKB)*units.KB + units.KB
		cfg := fig9Config(n)
		t1 := SimulateRing(op, size, cfg)
		t2 := SimulateRing(op, 2*size, cfg)
		if t2 < t1 {
			return false
		}
		wire := Estimate(op, size, cfg).WireBytes
		return t1.Seconds() >= 0.9*units.TransferTime(wire, cfg.AggregateBW()).Seconds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
